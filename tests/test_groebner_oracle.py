"""Reduced bases, normal forms and ideal membership against sympy.

Differential tests: seeded ideals in Q[x,y,z] (one to three generators
with fractional coefficients, unit and principal ideals included) go
through residua.groebner and through sympy.groebner with order="grevlex",
which shares no code with residua.  Bases are compared monic under
grevlex.  Coefficients are small, or large (numerators up to 10^12,
denominators up to 10^6), so the engine's integer term maps go through
content removal and sign normalisation with big numbers.  Skipped when
sympy or hypothesis is missing.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua.groebner import Ideal, ideal_member, normal_form
from residua.polyring import Polynomial, PolynomialRing

R = PolynomialRing(("x", "y", "z"))
X = sympy.symbols("x y z")
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MONOMIALS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3]
COEFFS = st.one_of(
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 1, 1, 2, 3, 5])),
    st.builds(Fraction, st.integers(-(10**12), 10**12).filter(bool), st.integers(1, 10**6)),
)


def polys(min_size, max_size):
    return st.dictionaries(
        st.sampled_from(MONOMIALS), COEFFS, min_size=min_size, max_size=max_size
    ).map(lambda terms: Polynomial(R, terms))


GENS = st.lists(polys(1, 3), min_size=1, max_size=3)


@st.composite
def ideals_and_targets(draw):
    """(generators, targets): a random target, a target built as a
    polynomial combination of the generators, and that combination plus
    a random remainder."""
    gens = draw(GENS)
    noise = draw(polys(0, 3))
    member = sum((draw(polys(0, 2)) * g for g in gens), R.zero())
    return gens, [draw(polys(0, 4)), member, member + noise]


def case(gens, *targets):
    """An explicit example from text."""
    return [R.poly(g) for g in gens], [R.poly(t) for t in targets]


def to_sympy(p):
    rep = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(rep or {(0, 0, 0): 0}, *X, domain="QQ")


def from_sympy(P):
    return Polynomial(R, {tuple(m): Fraction(int(c.p), int(c.q)) for m, c in P.terms() if c})


def sympy_basis(gens):
    return sympy.groebner([to_sympy(g) for g in gens], *X, order="grevlex", domain="QQ")


@SETTINGS
@given(GENS)
@example(case(["y - x^2", "z - x^3"])[0])
@example(case(["x", "x + 1"])[0])
@example(case(["x*y - z^2", "x^2 - y*z", "y^2 - x*z"])[0])
@example(case(["1/2*x^2*y - 3*z"])[0])
@example(case(["-999999999989/999983*x^2 + 7/3*y*z", "123456789012*x*y - 1/999999*z^2 + 5"])[0])
@example(case(["-1000000000000/3*x*y - 2/1000000*z", "-x^2 + 999999999999/777777*y"])[0])
def test_reduced_basis_matches_sympy(gens):
    ours = list(Ideal(R, gens).groebner())
    theirs = [from_sympy(P).monic() for P in sympy_basis(gens).polys]
    assert len(ours) == len(theirs)
    assert set(ours) == set(theirs)


@SETTINGS
@given(ideals_and_targets())
@example(case(["y - x^2", "z - x^3"], "x^4 + z", "x*y*z", "1"))
@example(case(["x*y", "x*z"], "y*z", "x^3*y + 2/3*x*z", "0"))
@example(
    case(
        ["-999999999989/999983*x^2 + 7/3*y*z", "123456789012*x*y - 1/999999*z^2 + 5"],
        "x^3 - 1000000000000/999999*y^2*z",
        "-4/5*x*y*z + 3",
    )
)
def test_normal_forms_match_sympy(case):
    gens, targets = case
    G = sympy_basis(gens)
    gb = Ideal(R, gens).groebner()
    for f in targets:
        _, r = G.reduce(to_sympy(f))
        assert normal_form(f, gb) == from_sympy(r)


@SETTINGS
@given(ideals_and_targets())
@example(case(["x^2 + y^2 - 1", "x - y"], "2*y^2 - 1", "y^2 - 1"))
@example(case(["x*y - 1"], "x^2*y^2 - 1", "x"))
@example(case(["-1000000000000/3*x*y + 1", "-999999/7*y*z"], "z", "x*y - 3/1000000000000"))
def test_ideal_membership_matches_sympy(case):
    gens, targets = case
    G = sympy_basis(gens)
    I = Ideal(R, gens)
    for f in targets:
        assert ideal_member(f, I) == G.contains(to_sympy(f))
