"""annmember against the local dual spaces of J~ = I_Z + J, with sympy.

In each criterion-7 case of test_acceptance.py the ideal J~ = I_Z + J is
zero-dimensional.  At each of its zeros z the local dual space (the
Macaulay inverse system) is the space of functionals
sum_a c_a D^a(.)(z) / a! that vanish on every t^b * f, for t = x - z
and f a generator of J~.  It is grown order by order, from the null space
of the Macaulay matrix whose rows are the Taylor coefficients at z of
t^b * f, |b| < k, until its dimension stops rising; for an isolated zero
it is then complete (Dayton & Zeng, ISSAC 2005; Mourrain, JPAA 1997).  g
lies in J~ exactly when every functional at every zero vanishes on g.

The zeros come from sympy.solve and the null spaces from sympy's exact
linear algebra: no Groebner basis, neither residua's nor sympy's, and no
residua code decides the oracle's answer.  Queries are built in sympy --
members sum a_i f_i + b h, and non-members b * m with m a monomial on
which a functional at a zero z is nonzero and b(z) != 0 -- and only then
handed to residua's annihilator_member.  Skipped when sympy is missing.
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from residua.groebner import Ideal, QuotientContext
from residua.polyring import Polynomial, PolynomialRing
from residua.residues import annihilator_member, build_current_recipe

# (variables, relations of Z, generators of J): the cases of criterion 7
CASES = [
    ("z w", (), ("z", "w")),
    ("x y z", (), ("x", "y", "z")),
    ("x y", (), ("x**2", "y**3")),
    ("x y", (), ("x + y", "x - y")),
    ("x y", (), ("x*y - 1", "x + y")),
    ("z w", ("z**3 - w**2",), ("z + w",)),
    ("x y", ("x*y",), ("x + y",)),
    ("x y z", ("x**2 + y**2 + z**2",), ("x", "y")),
    ("z w", ("z**2 - w**3",), ("w - 1",)),
    ("x y", ("x**3 - y**5",), ("x + y",)),
]
QUERIES = 20  # members and as many non-members per case


def monomials(n, k):
    """Exponent tuples of n variables and total degree at most k."""
    return [a for a in itertools.product(range(k + 1), repeat=n) if sum(a) <= k]


def taylor(expr, xs, zero, ts):
    """expr at zero + t, as a Poly in ts."""
    return sympy.Poly(sympy.expand(expr.subs(dict(zip(xs, (z + t for z, t in zip(zero, ts)))))), *ts)


def dual_space(gens, xs, zero):
    """(columns, functionals) of the local dual space of (gens) at zero:
    each functional is a list of coefficients, one per column exponent."""
    ts = sympy.symbols(f"t0:{len(xs)}")
    shifted = [taylor(f, xs, zero, ts) for f in gens]
    found = None
    for k in itertools.count():
        cols = monomials(len(xs), k)
        rows = [
            [(f * sympy.Poly(sympy.prod(t**e for t, e in zip(ts, b)), *ts)).coeff_monomial(a) for a in cols]
            for f in shifted
            for b in monomials(len(xs), k - 1)
        ]
        null = sympy.Matrix(rows).nullspace() if rows else [sympy.Matrix([1])]
        if found is not None and len(null) == len(found[1]):
            return found
        found = (cols, [list(v) for v in null])


class DualOracle:
    def __init__(self, gens, xs):
        self.xs = xs
        zeros = sympy.solve(gens, xs, dict=True)
        self.points = [tuple(s[x] for x in xs) for s in zeros]
        self.duals = [dual_space(gens, xs, z) for z in self.points]

    def values(self, g, i):
        """Each functional at the i-th zero applied to g."""
        ts = sympy.symbols(f"t0:{len(self.xs)}")
        cols, functionals = self.duals[i]
        coeffs = [taylor(g, self.xs, self.points[i], ts).coeff_monomial(a) for a in cols]
        return [sympy.expand(sum(c * v for c, v in zip(coeffs, lam))) for lam in functionals]

    def member(self, g):
        return all(v == 0 for i in range(len(self.points)) for v in self.values(g, i))


def random_sympy_poly(rng, xs, degree):
    return sum(
        rng.randint(-5, 5) * sympy.prod(x**e for x, e in zip(xs, a)) for a in monomials(len(xs), degree)
    )


def to_residua(expr, ring, xs):
    terms = sympy.Poly(expr, *xs).terms() if expr != 0 else []
    return Polynomial(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


@pytest.mark.parametrize("case", range(len(CASES)))
def test_annmember_matches_the_local_dual_spaces(case):
    names, relations, js = CASES[case]
    xs = sympy.symbols(names)
    ring = PolynomialRing(tuple(names.split()))
    hs = [sympy.sympify(h) for h in relations]
    fs = [sympy.sympify(f) for f in js]
    oracle = DualOracle(hs + fs, xs)
    assert oracle.points
    Z = QuotientContext(ring, Ideal(ring, [to_residua(h, ring, xs) for h in hs]))
    recipe = build_current_recipe(Z, Ideal(ring, [to_residua(f, ring, xs) for f in fs]))
    rng = random.Random(case)

    for _ in range(QUERIES):
        g = sum(random_sympy_poly(rng, xs, 2) * f for f in fs)
        g += sum(random_sympy_poly(rng, xs, 1) * h for h in hs)
        assert oracle.member(g)
        assert annihilator_member(recipe, to_residua(sympy.expand(g), ring, xs)), g

    # (zero, monomial) pairs on which some functional is nonzero
    witnesses = [
        (i, m)
        for i in range(len(oracle.points))
        for m in monomials(len(xs), 2)
        if any(v != 0 for v in oracle.values(sympy.prod(x**e for x, e in zip(xs, m)), i))
    ]
    made = 0
    while made < QUERIES:
        i, m = rng.choice(witnesses)
        b = random_sympy_poly(rng, xs, 1)
        if b.subs(dict(zip(xs, oracle.points[i]))) == 0:
            continue
        g = sympy.expand(b * sympy.prod(x**e for x, e in zip(xs, m)))
        assert not oracle.member(g)
        assert not annihilator_member(recipe, to_residua(g, ring, xs)), g
        made += 1
