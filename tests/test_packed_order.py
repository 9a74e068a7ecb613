"""Packed terms (kernel.Codec) against the order keys they pack.

For lex, grlex and grevlex under the pot, top and Schreyer rules (a
Schreyer order of a Schreyer order too), in 1 to 4 variables and ranks 1
to 3: comparing packed terms agrees with comparing MonomialOrder.term_key,
multiplying by x^m adds lin(m), the divisibility test agrees with same
position plus kernel.exp_divides, and decoding inverts encoding.

A Schreyer codec made from its parent codec (Codec.schreyer) takes the
parent's terms by the shift identity (Codec.from_parent) exactly as the
frozen decode-and-encode transcode took them, gives them back by the
inverse shift (Codec.to_parent), checks every term against the exponent
limit both ways, and shares the parent's cached layout with its
siblings, but not their bases or order keys.  Codec.degrees, which reads
the degree field under grevlex and grlex, gives the degrees decoding
gives.  Skipped when hypothesis is missing.
"""

from operator import mul

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from residua import kernel
from residua.groebner import Ideal, syzygies
from residua.polyring import GREVLEX, GRLEX, LEX, PolynomialRing


def exponents(n, high):
    return st.tuples(*[st.integers(0, high)] * n)


@st.composite
def orders(draw):
    """(order, n, rank): a base order under pot or top, a Schreyer order
    of one, or a Schreyer order of a Schreyer order."""
    n, rank = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    base = draw(st.sampled_from([LEX, GRLEX, GREVLEX]))
    rule = draw(st.sampled_from(["pot", "top", "schreyer", "schreyer-of-schreyer"]))
    if rule in ("pot", "top"):
        return base.with_module_rule(rule), n, rank

    def leads(count, positions):
        lead = st.tuples(st.integers(0, positions - 1), exponents(n, 3))
        return draw(st.lists(lead, min_size=count, max_size=count))

    parent, parent_rank = base.with_module_rule(draw(st.sampled_from(["pot", "top"]))), 3
    if rule == "schreyer-of-schreyer":
        middle = draw(st.integers(1, 3))
        parent, parent_rank = parent.schreyer(leads(middle, parent_rank)), middle
    return parent.schreyer(leads(rank, parent_rank)), n, rank


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_packed_terms_are_the_order(data):
    order, n, rank = data.draw(orders())
    codec = order.codec(n)
    term = st.tuples(st.integers(0, rank - 1), exponents(n, 6))
    t = data.draw(term)
    # half the time a term at t's position with exponents near t's
    near = st.tuples(st.just(t[0]), st.tuples(*[st.integers(0, e + 1) for e in t[1]]))
    s = data.draw(st.one_of(term, near))
    m = data.draw(exponents(n, 4))
    es, et = codec.term(*s), codec.term(*t)
    ks, kt = order.term_key(s), order.term_key(t)
    assert (es < et, es == et) == (ks < kt, ks == kt)
    lin_m = sum(map(mul, m, codec.lin))
    assert et + lin_m == codec.term(t[0], kernel.exp_add(t[1], m))
    assert bool(codec.dividing([es], et)) == (s[0] == t[0] and kernel.exp_divides(s[1], t[1]))
    assert codec.decode(et) == t
    assert codec.encode({t[1]: 1}, t[0]) == {et: 1}


# ---------------------------------------------------------------------------
# terms of a parent codec moved into its Schreyer codec


def reference_transcode(child, tm, src):
    """Codec.transcode as it was, frozen: decode each term of the codec
    src, encode it with child."""
    return {child.term(*pe): c for pe, c in zip(src.decode_terms(tm), tm.values())}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_from_parent_is_the_frozen_transcode(data):
    order, n, rank = data.draw(orders())
    parent, child, s = schreyer_child(data, order, n, rank)
    terms = data.draw(st.lists(st.tuples(st.integers(0, s - 1), exponents(n, 5)), max_size=6))
    tm = {parent.term(*t): data.draw(st.integers(-9, 9).filter(bool)) for t in terms}
    assert list(child.from_parent(tm, parent).items()) == list(reference_transcode(child, tm, parent).items())


def schreyer_child(data, order, n, rank):
    """(parent codec, a Schreyer codec made from it, its number of leads)."""
    parent = order.codec(n)
    # a Schreyer parent has bases for its own positions only
    s = data.draw(st.integers(1, 4 if order.module_rule != "schreyer" else rank))
    leads = data.draw(st.lists(st.tuples(st.integers(0, rank - 1), exponents(n, 3)), min_size=s, max_size=s))
    return parent, parent.schreyer(order.schreyer(leads).term_key, [parent.term(*lead) for lead in leads]), s


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_to_parent_inverts_from_parent(data):
    order, n, rank = data.draw(orders())
    parent, child, s = schreyer_child(data, order, n, rank)
    terms = data.draw(st.lists(st.tuples(st.integers(0, s - 1), exponents(n, 5)), max_size=6))
    tm = {parent.term(*t): data.draw(st.integers(-9, 9).filter(bool)) for t in terms}
    moved = child.from_parent(tm, parent)
    assert list(child.to_parent(moved, parent).items()) == list(tm.items())
    # a child term is the parent term of its position and exponents
    assert list(child.to_parent(moved, parent)) == [parent.term(*pe) for pe in child.decode_terms(moved)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_degrees_are_the_decoded_degrees(data):
    order, n, rank = data.draw(orders())
    codec = order.codec(n)
    assert (codec._deg_shift is None) == (order.kind == "lex" and n > 1)
    terms = data.draw(st.lists(st.tuples(st.integers(0, rank - 1), exponents(n, 6)), max_size=6))
    tm = {codec.term(*t): 1 for t in terms}
    offsets = data.draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank))
    assert codec.degrees(tm, offsets) == [sum(m) + offsets[pos] for pos, m in codec.decode_terms(tm)]
    assert codec.degrees(list(tm), offsets) == codec.degrees(tm, offsets)


@pytest.mark.parametrize("rule", ["pot", "top"])
@pytest.mark.parametrize("base", [GREVLEX, GRLEX, LEX], ids=["grevlex", "grlex", "lex"])
def test_terms_at_the_exponent_limit_raise_both_ways(base, rule):
    order = base.with_module_rule(rule)
    parent = order.codec(2)
    leads = [(0, (1, 0)), (1, (0, 1))]
    child = parent.schreyer(order.schreyer(leads).term_key, [parent.term(*lead) for lead in leads])
    # x^(LIMIT - 2) * e_0 is x^(LIMIT - 1) in the child, in range; one
    # degree more is beyond it
    inside = {parent.term(0, (parent.limit - 2, 0)): 3, parent.term(1, (4, 1)): -1}
    assert child.to_parent(child.from_parent(inside, parent), parent) == inside
    with pytest.raises(kernel.ExponentOverflowError):
        child.from_parent({parent.term(0, (parent.limit - 1, 0)): 1}, parent)
    # a raw child term whose exponents alone reach the limit: the parent's
    # guard stops it on the way back
    raw = child.base(0) + (sum(map(mul, (parent.limit, 0), parent.lin)) << kernel.FIELD_BITS)
    with pytest.raises(kernel.ExponentOverflowError):
        child.to_parent({raw: 1}, parent)


@pytest.mark.parametrize("rule", ["pot", "top"])
@pytest.mark.parametrize("base", [GREVLEX, GRLEX, LEX], ids=["grevlex", "grlex", "lex"])
def test_a_child_term_beyond_the_exponent_limit_raises(base, rule):
    order = base.with_module_rule(rule)
    parent = order.codec(2)
    # the child's e_1 stands for its lead x^(LIMIT - 3): y^2 * e_1 for a
    # term of total degree LIMIT - 1, in range, x^3 * e_1 for one of
    # degree LIMIT, beyond it
    leads = [(0, (1, 0)), (1, (parent.limit - 3, 0))]
    child = parent.schreyer(order.schreyer(leads).term_key, [parent.term(*lead) for lead in leads])
    inside = {parent.term(1, (0, 2)): 1, parent.term(0, (5, 5)): -2}
    assert child.from_parent(inside, parent) == reference_transcode(child, inside, parent)
    beyond = {parent.term(1, (3, 0)): 1}
    with pytest.raises(kernel.ExponentOverflowError):
        reference_transcode(child, beyond, parent)
    with pytest.raises(kernel.ExponentOverflowError):
        child.from_parent(beyond, parent)


def test_children_of_one_parent_share_a_layout_but_not_bases_or_keys():
    order = GRLEX.with_module_rule("top")
    parent = order.codec(3)
    first, second = [(0, (1, 0, 0)), (1, (0, 2, 0))], [(0, (0, 0, 1))]
    kids = [order.schreyer(first), order.schreyer(second)]
    a, b = (
        parent.schreyer(kid.term_key, [parent.term(*lead) for lead in leads])
        for kid, leads in zip(kids, (first, second))
    )
    for name in kernel._LAYOUT:
        assert getattr(a, name) is getattr(b, name)
    assert a._bases is not b._bases and a._bases != b._bases
    assert (a.keyfn, b.keyfn) == (kids[0].term_key, kids[1].term_key)
    assert a.keyfn != b.keyfn
    # the shared layout and the bases are what probing the child's order gives
    probed = kernel.Codec(kids[0].term_key, 3, -1)
    for name in kernel._LAYOUT:
        assert getattr(a, name) == getattr(probed, name)
    assert a._bases == [probed.base(q) for q in range(len(first))]


def test_syzygies_lays_out_no_schreyer_codec_once_the_parent_made_one(monkeypatch):
    R = PolynomialRing(("x", "y", "z"))
    I = Ideal(R, [R.poly(g) for g in ("x^2 - y*z", "x*y", "y^3 + z^2")])
    syzygies(I)
    made = []
    layout = kernel.Codec._layout
    monkeypatch.setattr(kernel.Codec, "_layout", lambda self, *args: made.append(args) or layout(self, *args))
    assert syzygies(I).gens and syzygies(Ideal(R, I.gens[:2])).gens
    assert not made
