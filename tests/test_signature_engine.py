"""The signature loop of the engine (groebner._signature_loop).

Every untracked ideal basis goes through the signature loop, and tracked
calls through the Buchberger loop; the reduced basis over Q is unique,
so both must give the same kernel divisors, term for term.  Seeded,
derandomized hypothesis cases cover dense inhomogeneous regular
sequences, redundant homogeneous generators, binomials, scalar-multiple
duplicates, a single generator and the unit ideal, under grevlex, grlex
and lex and under the block codec of elimination.  Reduced bases are
also compared with sympy (shares no code with residua): the same cases
per order, an elimination ideal, and cyclic-5.  The sympy comparisons
are skipped when sympy is missing.
"""

import importlib.util
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua import kernel
from residua.groebner import Ideal, _engine, _signature_loop, elimination
from residua.polyring import GREVLEX, GRLEX, LEX, Polynomial, PolynomialRing, to_terms

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)
ORDERS = {"grevlex": GREVLEX, "grlex": GRLEX, "lex": LEX}
NAMES = ("x", "y", "z", "w")
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def dense(n, degree, coeffs):
    """The polynomial map of degree <= degree in n variables with the
    given coefficients on its monomials, in a fixed monomial order."""
    monos = [m for m in product(range(degree + 1), repeat=n) if sum(m) <= degree]
    return {m: c for m, c in zip(monos, coeffs) if c}


@st.composite
def regular_sequences(draw):
    """(n, maps): up to n dense inhomogeneous polynomials in n variables
    with random nonzero coefficients, a regular sequence for a generic
    draw, like the groebner benchmark's ideals."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n))
    maps = []
    for _ in range(k):
        degree = draw(st.integers(1, 2 if n == 3 else 3))
        size = len([m for m in product(range(degree + 1), repeat=n) if sum(m) <= degree])
        coeffs = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=size, max_size=size))
        maps.append(dense(n, degree, coeffs))
    return n, maps


def homogeneous(n, degree, coeffs):
    monos = [m for m in product(range(degree + 1), repeat=n) if sum(m) == degree]
    return {m: c for m, c in zip(monos, coeffs) if c}


def times(a, b):
    return kernel.add_product({}, a, b)


def plus(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


@st.composite
def redundant_homogeneous(draw):
    """(3, maps): two homogeneous forms and homogeneous combinations of
    them, so some inputs reduce to zero whatever the loop does."""
    coeffs = st.lists(st.integers(-5, 5), min_size=10, max_size=10)
    d1, d2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    f1, f2 = homogeneous(3, d1, draw(coeffs)), homogeneous(3, d2, draw(coeffs))
    maps = [f for f in (f1, f2) if f]
    top = max(d1, d2) + 1
    for _ in range(draw(st.integers(1, 2))):
        a = homogeneous(3, top - d1, draw(coeffs))
        b = homogeneous(3, top - d2, draw(coeffs))
        combo = plus(times(a, f1), times(b, f2))
        if combo:
            maps.append(combo)
    return 3, maps or [{(1, 0, 0): 1}]


@st.composite
def binomials(draw):
    """(3, maps): binomials x^a - c * x^b."""
    mono = st.tuples(*[st.integers(0, 3)] * 3)
    maps = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(mono), draw(mono)
        c = draw(st.integers(-3, 3).filter(bool))
        maps.append({a: 1} if a == b else {a: 1, b: -c})
    return 3, [m for m in maps if m]


@st.composite
def duplicates(draw):
    """(3, maps): a few polynomials, each repeated with scalar factors."""
    _, maps = draw(regular_sequences().filter(lambda case: case[0] == 3))
    out = []
    for f in maps:
        for c in draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=3)):
            out.append({m: c * v for m, v in f.items()})
    return 3, out


CASES = st.one_of(regular_sequences(), redundant_homogeneous(), binomials(), duplicates())
SINGLE = (2, [{(2, 1): 3, (0, 1): -1, (0, 0): 5}])
UNIT = (3, [{(1, 0, 0): 1, (0, 1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -2}])
UNIT_BY_REDUCTION = (2, [{(1, 1): 1, (0, 0): -1}, {(1, 0): 1}])


def engine_inputs(n, maps, order):
    ring = PolynomialRing(NAMES[:n], order)
    codec = order.codec(n)
    return ring, [Polynomial(ring, m) for m in maps], codec


def both_loops(gens, codec):
    """(signature loop's reduced basis, Buchberger loop's reduced basis)."""
    inputs = [to_terms(g, codec) for g in gens]
    return _engine(inputs, codec, 1, False)[0], _engine(inputs, codec, 1, True)[0]


@SETTINGS
@given(CASES, st.sampled_from(sorted(ORDERS)))
@example(SINGLE, "grevlex")
@example(UNIT, "grevlex")
@example(UNIT_BY_REDUCTION, "lex")
@example((3, [{(1, 0, 0): 2, (0, 1, 1): -4}, {(1, 0, 0): -3, (0, 1, 1): 6}]), "grlex")
def test_signature_loop_matches_the_buchberger_loop(case, order_name):
    n, maps = case
    _, gens, codec = engine_inputs(n, maps, ORDERS[order_name])
    ours, theirs = both_loops(gens, codec)
    assert ours == theirs
    assert [lk for lk, _, _ in ours] == sorted((lk for lk, _, _ in ours), reverse=True)


def kernel_divisor_list(gens, codec):
    """The primitive kernel divisors of gens, as _engine hands them on."""
    out = []
    for g in gens:
        tm, _ = to_terms(g, codec)
        lk = max(tm)
        p, _ = kernel.primitive(tm, lk)
        out.append((lk, p[lk], p))
    return out


def test_unit_ideal_is_one():
    for n, maps in (UNIT, UNIT_BY_REDUCTION):
        ring, gens, _ = engine_inputs(n, maps, GREVLEX)
        assert list(Ideal(ring, gens).groebner()) == [ring.one()]


def test_a_single_generator_is_its_own_basis():
    n, maps = SINGLE
    ring, gens, codec = engine_inputs(n, maps, GREVLEX)
    divisors = kernel_divisor_list(gens, codec)
    assert _signature_loop(divisors, codec) is divisors
    assert list(Ideal(ring, gens).groebner()) == [gens[0].monic()]


def count_zero_reductions(monkeypatch):
    """A list [divisions, reductions to zero] of the signature loop's
    divisions, filled while the test runs."""
    counts = [0, 0]
    reduce_terms = kernel.reduce_terms

    def counted(f, divisors, codec, want_quotients, below=None):
        out = reduce_terms(f, divisors, codec, want_quotients, below)
        if below is not None:
            counts[0] += 1
            counts[1] += not out[1]
        return out

    monkeypatch.setattr(kernel, "reduce_terms", counted)
    return counts


def test_dense_regular_sequences_reduce_nothing_to_zero(monkeypatch):
    # the shapes of the groebner benchmark: three dense polynomials of
    # degrees 2-3 in 3 and 4 variables, a regular sequence
    counts = count_zero_reductions(monkeypatch)
    for n, degrees in ((3, (2, 2, 2)), (3, (2, 2, 3)), (4, (2, 2, 2)), (4, (2, 2, 3))):
        ring = PolynomialRing(NAMES[:n])
        gens = []
        for k, d in enumerate(degrees):
            size = len([m for m in product(range(d + 1), repeat=n) if sum(m) <= d])
            coeffs = [(7 * j + 3 * k) % 17 - 8 or 1 for j in range(size)]
            gens.append(Polynomial(ring, dense(n, d, coeffs)))
        ours, theirs = both_loops(gens, GREVLEX.codec(n))
        assert ours == theirs
    assert counts[0] > 0
    assert counts[1] == 0


# -- elimination's block codec -------------------------------------------------


def block_codec(ring, keep):
    """The codec elimination builds for keeping the variables keep."""
    keep_idx = [i for i, nm in enumerate(ring.names) if nm in keep]
    elim_idx = [i for i in range(ring.n) if i not in keep_idx]
    base = ring.default_order

    def block_key(key):
        exps = key[1]
        hi = tuple(exps[i] for i in elim_idx)
        lo = tuple(exps[i] for i in keep_idx)
        return (-key[0], *base.ring_key(hi), *base.ring_key(lo))

    return kernel.Codec(block_key, ring.n, 0)


@SETTINGS
@given(CASES)
@example((3, [{(1, 0, 0): 1, (0, 1, 0): -1}, {(1, 0, 0): 1, (0, 0, 1): -2}]))
def test_signature_loop_matches_under_the_block_codec(case):
    n, maps = case
    ring, gens, _ = engine_inputs(n, maps, GREVLEX)
    ours, theirs = both_loops(gens, block_codec(ring, ring.names[1:]))
    assert ours == theirs


# -- sympy ---------------------------------------------------------------------


def sympy_basis(gens, ring, order_name):
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols(ring.names)
    polys = [sympy.Poly.from_dict(dict(g.num), *X, domain="QQ") for g in gens]
    basis = sympy.groebner(polys, *X, order=order_name, domain="QQ")
    return [
        Polynomial(ring, {tuple(m): sympy_fraction(c) for m, c in P.terms() if c})
        for P in basis.polys
    ]


def sympy_fraction(c):
    return Fraction(int(c.p), int(c.q))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(CASES, st.sampled_from(sorted(ORDERS)))
@example(UNIT, "grevlex")
@example(SINGLE, "lex")
def test_reduced_bases_match_sympy_in_every_order(case, order_name):
    n, maps = case
    ring, gens, _ = engine_inputs(n, maps, ORDERS[order_name])
    ours = list(Ideal(ring, gens).groebner())
    theirs = [p.monic() for p in sympy_basis(gens, ring, order_name)]
    assert sorted(map(str, ours)) == sorted(map(str, theirs))


def test_elimination_matches_sympy():
    sympy = pytest.importorskip("sympy")
    ring = PolynomialRing(("t", "x", "y"))
    gens = [ring.poly("x - t^2 - t"), ring.poly("y - t^3 + 2*t")]
    kept = elimination(Ideal(ring, gens), ("x", "y")).gens
    # the elimination ideal from sympy: a lex basis with t first, its
    # elements free of t, then their reduced grevlex basis in Q[x, y]
    t, x, y = sympy.symbols("t x y")
    lex = sympy.groebner([x - t**2 - t, y - t**3 + 2 * t], t, x, y, order="lex")
    free = [g for g in lex.exprs if t not in g.free_symbols]
    theirs = sympy.groebner(free, x, y, order="grevlex")
    target = PolynomialRing(("x", "y"))
    expected = [
        Polynomial(target, {tuple(m): sympy_fraction(c) for m, c in P.terms() if c}).monic()
        for P in theirs.polys
    ]
    assert sorted(map(str, (g.monic() for g in kept))) == sorted(map(str, expected))


def test_cyclic_5_matches_sympy():
    spec = importlib.util.spec_from_file_location("cyclic", TOOLS / "cyclic.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    ring, gens = tool.cyclic(5)
    ours = list(Ideal(ring, gens).groebner())
    theirs = [p.monic() for p in sympy_basis(gens, ring, "grevlex")]
    assert len(ours) == 20
    assert sorted(map(str, ours)) == sorted(map(str, theirs))
