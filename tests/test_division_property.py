"""Multivariate division by fractional divisors, as a property.

polyring.divide runs the kernel's fraction-free pseudo-division and
divides by the multiplier at the end.  For seeded dividends and divisors
in Q[x,y,z] with fractional coefficients, under each monomial order: f =
sum(q_i * g_i) + r holds exactly over Q, no term of r is divisible by a
divisor lead, and lead(q_i * g_i) <= lead(f).  Skipped when hypothesis is
missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from residua.polyring import GREVLEX, GRLEX, LEX, Polynomial, PolynomialRing, divide

R = PolynomialRing(("x", "y", "z"))
MONOMIALS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3]
COEFFS = st.one_of(
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**12), 10**12).filter(bool), st.integers(1, 10**6)),
)


def polys(min_size, max_size):
    return st.dictionaries(
        st.sampled_from(MONOMIALS), COEFFS, min_size=min_size, max_size=max_size
    ).map(lambda terms: Polynomial(R, terms))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(polys(0, 8), st.lists(polys(1, 4), min_size=1, max_size=3), st.sampled_from([LEX, GRLEX, GREVLEX]))
def test_division_by_fractional_divisors(f, gs, order):
    qs, r = divide(f, gs, order)
    assert sum((q * g for q, g in zip(qs, gs)), r) == f
    leads = [g.lm(order) for g in gs]
    for m in r.terms:
        assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)
    for q, g in zip(qs, gs):
        if not q.is_zero():
            assert order.ring_key((q * g).lm(order)) <= order.ring_key(f.lm(order))
