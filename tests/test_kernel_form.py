"""The one stored form of a polynomial: an integer term map over one
denominator.

Polynomial keeps num (an integer term map without zero terms) and den (a
positive int coprime to the content of num).  Checked here: the public
constructor rejects malformed terms, the arithmetic agrees with plain
Fraction term maps and lands in the canonical form, equal values built by
different paths are equal and hash equal, and the layers above polyring
never read the Fraction view .terms.
"""

from fractions import Fraction
from math import gcd

import pytest

from residua.cli import parse_polynomial
from residua.groebner import (
    Ideal,
    QuotientContext,
    groebner_basis,
    normal_form,
    syzygies,
)
from residua.homalg import buchsbaum_eisenbud_check, free_resolution, rank_loci
from residua.polyring import GREVLEX, LEX, Polynomial, PolynomialRing, transport
from residua.residues import annihilator_member, build_current_recipe, comparison_morphism

R = PolynomialRing(("x", "y"))
RXYZ = PolynomialRing(("x", "y", "z"))
ZW = PolynomialRing(("z", "w"))


# ---------------------------------------------------------------------------
# the public constructor


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): 0.5},  # a float coefficient
        {(1, 0): "1"},  # a text coefficient
        {(1,): 1},  # too few exponents
        {(1, 0, 0): 1},  # too many exponents
        {(0, -1): 1},  # a negative exponent
        {(1.0, 0): 1},  # a float exponent
        {"x": 1},  # not a tuple
    ],
)
def test_constructor_rejects_malformed_terms(terms):
    with pytest.raises(ValueError):
        Polynomial(R, terms)


def json_polynomial(*terms):
    return {"vars": ["x", "y"], "terms": [{"coeff": c, "exps": e} for c, e in terms]}


def test_parse_polynomial_rejects_malformed_exponents():
    # a short and a negative exponent list: once accepted, printed as 2*x + 1
    with pytest.raises(ValueError):
        parse_polynomial(R, json_polynomial(("2", [1]), ("1", [0, -1])))
    for exps in ([1], [0, -1]):
        with pytest.raises(ValueError):
            parse_polynomial(R, json_polynomial(("2", [1, 0]), ("1", exps)))


def test_parse_polynomial_accepts_wellformed_terms():
    p = parse_polynomial(R, json_polynomial(("2", [1, 0]), ("-1/3", [0, 1])))
    assert str(p) == "2*x - 1/3*y"


# ---------------------------------------------------------------------------
# the canonical form against Fraction term maps

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests need hypothesis
    st = None


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        acc = out.get(m, 0) + sign * c
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)
    return out


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out = ref_add(out, {tuple(x + y for x, y in zip(m1, m2)): c1 * c2})
    return out


def ref_pow(a, e):
    out = {(0, 0): Fraction(1)}
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def assert_canonical(p, ref):
    """p is in lowest terms and equals the Fraction term map ref."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert p.terms == ref
    assert all(type(c) is Fraction for c in p.terms.values())
    assert Polynomial(p.ring, p.terms) == p


if st is not None:
    MONOMIALS = [(a, b) for a in range(3) for b in range(3)]
    COEFFS = st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    )
    TERMS = st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, max_size=5).map(
        lambda t: {m: Fraction(c) for m, c in t.items() if c}
    )

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(TERMS, TERMS, st.integers(0, 3), st.sampled_from([GREVLEX, LEX]))
    def test_arithmetic_agrees_with_fraction_term_maps(a, b, e, order):
        p, q = Polynomial(R, a), Polynomial(R, b)
        assert_canonical(p, a)
        assert_canonical(p + q, ref_add(a, b))
        assert_canonical(p - q, ref_add(a, b, -1))
        assert_canonical(-p, {m: -c for m, c in a.items()})
        assert_canonical(p * q, ref_mul(a, b))
        assert_canonical(p * Fraction(2, 3), {m: c * Fraction(2, 3) for m, c in a.items()})
        assert_canonical(p**e, ref_pow(a, e))
        assert_canonical(p.differentiate("x"), {(i - 1, j): c * i for (i, j), c in a.items() if i})
        assert p.constant_term() == a.get((0, 0), 0)
        if a:
            lead = max(a, key=order.ring_key)
            assert p.lc(order) == a[lead]
            assert_canonical(p.monic(order), {m: c / a[lead] for m, c in a.items()})
        else:
            assert p.lc(order) is None and p.monic(order) == p
        t = transport(p, RXYZ)
        assert_canonical(t, {(m[0], m[1], 0): c for m, c in a.items()})

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(TERMS, st.integers(1, 9))
    def test_scaling_paths_meet_in_one_form(a, d):
        p = Polynomial(R, a)
        half = p * Fraction(1, d)
        for q in (half * d, p * Fraction(1, 3) + p * Fraction(2, 3), (p + p) * Fraction(1, 2)):
            assert q == p and hash(q) == hash(p)
            assert q.num == p.num and q.den == p.den


def test_values_built_by_different_paths_are_equal_and_hash_equal():
    x = R.var("x")
    for q in (x * Fraction(1, 2) * 2, x * Fraction(1, 3) + x * Fraction(2, 3), R.poly("2/4*x + 1/2*x")):
        assert q == x and hash(q) == hash(x)
        assert (q.num, q.den) == ({(1, 0): 1}, 1)
    assert R.poly("1/2*x - 2/4*x").num == {} and R.zero().den == 1


# ---------------------------------------------------------------------------
# the layers read num and den, never the Fraction view


def test_layers_never_read_the_fraction_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the Fraction view .terms was read")

    monkeypatch.setattr(Polynomial, "terms", property(refuse))
    P = RXYZ.poly

    I = Ideal(RXYZ, (P("x^2 - 1/2*y*z"), P("x*y - z^2"), P("2/3*y^2 - x*z")))
    basis = groebner_basis(I)
    assert normal_form(P("x^3"), basis).ring == RXYZ

    cone = QuotientContext(RXYZ, Ideal(RXYZ, (P("x*y - z^2"),)))
    assert syzygies(Ideal(RXYZ, (P("x^2"), P("x*z"), P("y*z"))), context=cone).gens

    C = free_resolution(Ideal(RXYZ, (P("x*y"), P("y*z"), P("x*z"))), minimal=True)
    assert rank_loci(C).codims
    assert buchsbaum_eisenbud_check(C).passes

    F = free_resolution(Ideal(ZW, (ZW.poly("z^3 - w^2"),)))
    E = free_resolution(Ideal(ZW, (ZW.poly("z"), ZW.poly("w"))))
    assert comparison_morphism(F, E).verify()

    cusp = QuotientContext(ZW, Ideal(ZW, (ZW.poly("z^3 - w^2"),)))
    recipe = build_current_recipe(cusp, Ideal(ZW, (ZW.poly("z"), ZW.poly("w"))))
    assert annihilator_member(recipe, ZW.poly("z"))
    assert not annihilator_member(recipe, ZW.one())
