"""Polynomial products and powers against sympy.

Differential tests: seeded polynomials over Q[x,y,z] (fractional
coefficients, the zero polynomial, pairs that cancel such as (x+y)(x-y))
are multiplied and raised to powers up to 5 through Polynomial's * and **,
through kernel.add_product with a scalar, and through poly_parse of the
printed product or power, and compared with sympy.expand, which shares no
code with residua.  Skipped when sympy or hypothesis is missing.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua import kernel
from residua.polyring import Polynomial, PolynomialRing, poly_parse

R = PolynomialRing(("x", "y", "z"))
X = sympy.symbols("x y z")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

MONOMIALS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]
COEFFS = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.sampled_from([1, 1, 1, 2, 3, 5]),
)
POLYS = st.one_of(
    st.just({}),
    st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, min_size=1, max_size=4),
).map(lambda terms: Polynomial(R, terms))


def to_sympy(p):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(X, m)))
            for m, c in p.terms.items()
        )
    )


def expanded(expr):
    """The term map of a sympy expression, zero terms left out."""
    terms = sympy.Poly(sympy.expand(expr), *X, domain="QQ").terms()
    return {m: Fraction(int(c.p), int(c.q)) for m, c in terms if c}


@SETTINGS
@given(POLYS, POLYS)
@example(R.poly("x + y"), R.poly("x - y"))
@example(R.poly("x - 1/2*z"), R.poly("x + 1/2*z"))
@example(R.poly("x^2 + x*y + y^2"), R.poly("x - y"))
@example(R.zero(), R.poly("x + 1"))
def test_product_matches_sympy(f, g):
    want = expanded(to_sympy(f) * to_sympy(g))
    assert (f * g).terms == want
    assert poly_parse(f"({f})*({g})", R).terms == want
    raw = kernel.add_product({}, f.terms, g.terms)
    assert raw == want  # cancelled terms are dropped, not kept as zeros


@SETTINGS
@given(POLYS, POLYS, POLYS, COEFFS)
@example(R.poly("x*y"), R.poly("x + y"), R.poly("x - y"), Fraction(-1))
def test_scaled_product_accumulates_like_sympy(h, f, g, c):
    got = kernel.add_product(dict(h.terms), f.terms, g.terms, c)
    want = expanded(to_sympy(h) + sympy.Rational(c.numerator, c.denominator) * to_sympy(f) * to_sympy(g))
    assert got == want


@SETTINGS
@given(POLYS, st.integers(0, 5))
@example(R.zero(), 0)
@example(R.poly("x - y"), 5)
@example(R.poly("-2/3*x*y"), 4)
def test_power_matches_sympy(f, e):
    want = expanded(to_sympy(f) ** e)
    assert (f**e).terms == want
    assert poly_parse(f"({f})^{e}", R).terms == want
    assert all(type(c) is Fraction for c in (f**e).terms.values())
