"""Graded Betti numbers of minimal resolutions against the Hilbert series.

For a homogeneous ideal I of S = Q[x_1..x_n], the graded Betti numbers
b_ij of a minimal free resolution of S/I give the numerator of its
Hilbert series: sum_i (-1)^i sum_j b_ij t^j = K(t), with H(S/I; t) =
K(t) / (1 - t)^n.  The Betti numbers are read off the homogeneous
differentials that free_resolution(I, minimal=True) returns: e_j of level
k has the degree of any nonzero entry of column j plus the degree of its
row's basis vector.  K(t) is computed without residua: from the lead
monomials of a sympy grevlex basis of I (S/I and S/in(I) have the same
Hilbert series), by the recursion of Bayer and Stillman (JSC 14, 1992),
K((m_1..m_r)) = K((m_1..m_{r-1})) - t^deg(m_r) K((m_1..m_{r-1}) : m_r).
A resolution that keeps one generator too few at some level (the mutant
below) is no longer exact, and its Betti numbers miss the numerator.
Skipped when sympy is missing.
"""

import itertools
import random
from functools import lru_cache

import pytest

sympy = pytest.importorskip("sympy")

from residua import groebner
from residua.groebner import Ideal
from residua.homalg import free_resolution
from residua.polyring import Polynomial, PolynomialRing

RINGS = {3: PolynomialRing(("x", "y", "z")), 4: PolynomialRing(("x", "y", "z", "w"))}


def to_sympy(p, symbols):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(symbols, m)))
            for m, c in p.terms.items()
        )
    )


def minimal_generators(monomials):
    """The monomials (exponent tuples) that no other one divides, sorted."""
    gens = sorted(set(monomials), key=lambda m: (sum(m), m))
    out = []
    for m in gens:
        if not any(all(a <= b for a, b in zip(g, m)) for g in out):
            out.append(m)
    return tuple(out)


def add(p, q, sign=1, shift=0):
    out = dict(p)
    for d, c in q.items():
        out[d + shift] = out.get(d + shift, 0) + sign * c
    return {d: c for d, c in out.items() if c}


@lru_cache(maxsize=None)
def numerator(gens):
    """K(t) of the monomial ideal with the minimal generators gens, as
    {degree: coefficient}, by the Bayer-Stillman recursion."""
    if not gens:
        return {0: 1}
    *rest, m = gens
    colon = minimal_generators(tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest)
    return add(numerator(tuple(rest)), numerator(colon), -1, sum(m))


def hilbert_numerator(I):
    """K(t) of S/I from the lead monomials of sympy's grevlex basis of I."""
    symbols = sympy.symbols(I.ring.names)
    basis = sympy.groebner([to_sympy(g, symbols) for g in I.gens], *symbols, order="grevlex")
    leads = [sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in basis.exprs]
    return numerator(minimal_generators(leads))


def betti_numerator(C):
    """sum_i (-1)^i sum_j b_ij t^j over the graded Betti numbers of the
    homogeneous complex C, read off its differentials."""
    degrees = [0]
    out = {0: 1}
    for k in range(1, C.length + 1):
        A = C.diff(k)
        level = []
        for j in range(C.ranks[k]):
            ds = {
                sum(m) + degrees[i]
                for i in range(C.ranks[k - 1])
                if not A[i][j].is_zero()
                for m in A[i][j].terms
            }
            assert len(ds) == 1, "a column that is not homogeneous"
            level.append(ds.pop())
        for d in level:
            out = add(out, {d: 1}, (-1) ** k)
        degrees = level
    return out


def exponents(n, d):
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


def power(n, d):
    ring = RINGS[n]
    return Ideal(ring, [Polynomial(ring, {e: 1}) for e in exponents(n, d)])


def seeded_graded(seed):
    """2-4 homogeneous generators of degree 2 or 3 with 1-3 terms in 3 or
    4 variables."""
    rng = random.Random(seed)
    n = rng.choice((3, 4))
    ring = RINGS[n]
    gens = []
    for _ in range(rng.randint(2, 4)):
        d = rng.choice((2, 3))
        terms = {e: rng.choice((1, -1, 2, -3)) for e in rng.sample(exponents(n, d), rng.randint(1, 3))}
        gens.append(Polynomial(ring, terms))
    return Ideal(ring, gens)


CASES = {f"seed {seed}": (lambda seed=seed: seeded_graded(seed)) for seed in range(20)}
CASES["(x,y,z,w)^3"] = lambda: power(4, 3)
CASES["(x,y,z,w)^4"] = lambda: power(4, 4)
CASES["equal leads"] = lambda: Ideal(RINGS[4], [RINGS[4].poly(t) for t in ("w^3", "z*w^2", "y*w^2", "z^2*w", "y*z*w")])


@pytest.mark.parametrize("name", sorted(CASES))
def test_betti_numbers_give_the_hilbert_numerator(name):
    I = CASES[name]()
    C = free_resolution(I, minimal=True)
    assert betti_numerator(C) == hilbert_numerator(I)


def test_the_power_numerators():
    # S/(x,y,z,w)^d has Hilbert function binom(k + 3, 3) below d and 0 from d
    t = sympy.Symbol("t")
    for d in (3, 4):
        K = sum(c * t**e for e, c in hilbert_numerator(power(4, d)).items())
        series = sympy.series(K / (1 - t) ** 4, t, 0, d + 2).removeO()
        assert [series.coeff(t, k) for k in range(d + 2)] == [sympy.binomial(k + 3, 3) for k in range(d)] + [0, 0]


@pytest.mark.parametrize("name", ["(x,y,z,w)^3", "seed 0", "equal leads"])
def test_a_resolution_that_drops_a_syzygy_misses_the_numerator(monkeypatch, name):
    I = CASES[name]()
    original = groebner._graded_prune
    dropped = []

    def drop_last(*args):
        kept = original(*args)
        if kept is not None and len(kept) > 1 and not dropped:
            dropped.append(kept.pop())
        return kept

    monkeypatch.setattr(groebner, "_graded_prune", drop_last)
    C = free_resolution(I, minimal=True)
    assert dropped
    assert betti_numerator(C) != hilbert_numerator(I)
