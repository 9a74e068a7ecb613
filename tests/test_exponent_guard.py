"""The exponent limit of packed terms (kernel.Codec).

Input beyond the limit raises ValueError at the boundary, a script
statement reports it and the next one runs, and a computation whose
terms outgrow narrowed fields raises instead of answering wrongly.
"""

import pytest

from residua import kernel, polyring
from residua.cli import run_script
from residua.groebner import Ideal, _engine, groebner_basis, module_lift, normal_form
from residua.polyring import LEX, PolynomialRing, PolyVector, divide, to_terms

XY = PolynomialRing(("x", "y"))


def test_trap_ideal_keeps_its_basis():
    # exponents past 2^32: unguarded 32-bit fields would carry and give
    # x^1215752206 - y^3 here
    I = Ideal(XY, [XY.poly("x^99999999999*y - y^2"), XY.poly("x^3 - y^5")])
    assert [str(g) for g in groebner_basis(I)] == [
        "x^100000000002 - x^3*y",
        "x^99999999999*y - y^2",
        "y^5 - x^3",
    ]


def test_input_beyond_the_exponent_limit_raises_value_error():
    limit = XY.default_order.codec(XY.n).limit
    big = XY.poly(f"x^{limit}")
    with pytest.raises(ValueError):
        groebner_basis(Ideal(XY, [big, XY.poly("y")]))
    with pytest.raises(ValueError):
        normal_form(big, [XY.poly("x")])
    with pytest.raises(ValueError):
        divide(XY.poly("x"), [XY.poly(f"x*y^{limit - 1}")])
    # just inside the limit
    assert normal_form(XY.poly(f"x^{limit - 2}*y - x"), [XY.poly("y")]) == -XY.poly("x")


def test_script_statement_beyond_the_limit_reports_and_continues():
    code, lines, doc = run_script(
        "resolve((x^1152921504606846976, y), over Q[x,y])\nresolve((x, y), over Q[x,y])"
    )
    assert code == 1
    assert lines[0].startswith("1: error: ")
    assert "exponent limit" in lines[0]
    assert lines[1].startswith("2: resolve -> ")
    assert "error" not in doc["statements"][1]


@pytest.fixture
def narrow_fields(monkeypatch):
    """16-bit fields: the limit drops to 2^12 = 4096."""
    monkeypatch.setattr(kernel, "FIELD_BITS", 16)
    polyring._base_codec.cache_clear()
    yield
    polyring._base_codec.cache_clear()


def test_narrow_fields_still_answer_in_range(narrow_fields):
    assert XY.default_order.codec(XY.n).limit == 4096
    I = Ideal(XY, [XY.poly("x^3*y - 1"), XY.poly("x*y^3 - 1")])
    assert [str(g) for g in groebner_basis(I)] == ["y^5 - x", "x*y^3 - 1", "x^2 - y^2"]
    assert normal_form(XY.poly("x^5"), [XY.poly("x - y^100")], LEX) == XY.poly("y^500")


def test_guard_trips_on_an_s_pair_lcm(narrow_fields):
    # the inputs have degree 3001, their lcm x^3000*y^3000 degree 6000
    I = Ideal(XY, [XY.poly("x^3000*y - 1"), XY.poly("x*y^3000 - 1")])
    with pytest.raises(kernel.ExponentOverflowError):
        groebner_basis(I)


def test_coprime_leads_past_the_limit_still_answer(narrow_fields):
    # the leads x^2100 and y^2100 are coprime, so no pair is reduced; their
    # lcm, of degree 4200, is past the limit and must not be packed
    f, g = XY.poly("x^2100 - y"), XY.poly("y^2100 - x")
    assert Ideal(XY, [f, g]).groebner() == (f, g)
    gens = [PolyVector(XY, (f,)), PolyVector(XY, (g,))]
    assert module_lift(gens, PolyVector(XY, (f,))) == [XY.one(), XY.zero()]


def test_guard_trips_on_a_division_term(narrow_fields):
    # lex division of x^5 by x - y^1000 reaches y^5000, past the limit
    with pytest.raises(kernel.ExponentOverflowError):
        normal_form(XY.poly("x^5"), [XY.poly("x - y^1000")], LEX)
    with pytest.raises(kernel.ExponentOverflowError):
        divide(XY.poly("x^5"), [XY.poly("x - y^1000")], LEX)


def test_guard_trips_on_a_later_j_pair_lcm(narrow_fields):
    # the inputs' own lcm x^2000*y^2000 is in range; the J-pair of their
    # S-polynomial's remainder x^1900*z - y^1900*z with them is not
    XYZ = PolynomialRing(("x", "y", "z"))
    gens = [XYZ.poly("x^2000*y^100 - z"), XYZ.poly("x^100*y^2000 - z")]
    codec = XYZ.default_order.codec(3)
    assert codec.check(codec.term(0, (2000, 2000, 0)))
    with pytest.raises(kernel.ExponentOverflowError):
        groebner_basis(Ideal(XYZ, gens))
    # the Buchberger loop trips on the same input
    with pytest.raises(kernel.ExponentOverflowError):
        _engine([to_terms(g, codec) for g in gens], codec, 1, True)


def test_signatures_past_the_limit_still_answer(narrow_fields):
    # signatures reach total degree 6005 here, past the limit 4096 but
    # within twice it; every term of the computation stays in range
    XYZ = PolynomialRing(("x", "y", "z"))
    gens = [XYZ.poly("x^1000*y^1000 - z"), XYZ.poly("y^1500*z - x"), XYZ.poly("x^1200 - y")]
    codec = XYZ.default_order.codec(3)
    inputs = [to_terms(g, codec) for g in gens]
    basis = _engine(inputs, codec, 1, False)[0]
    assert basis == _engine(inputs, codec, 1, True)[0]
    assert len(basis) == 9
    # the wide check passes total degree 6000 and stops 9000
    packed = lambda exps: sum(e * lin for e, lin in zip(exps, codec.lin)) + codec.base(0)
    assert codec.check(packed((3000, 3000, 0)), wide=True)
    with pytest.raises(kernel.ExponentOverflowError):
        codec.check(packed((3000, 3000, 0)))
    with pytest.raises(kernel.ExponentOverflowError):
        codec.check(packed((3000, 3000, 3000)), wide=True)
