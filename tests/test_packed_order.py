"""Packed terms (kernel.Codec) against the order keys they pack.

For lex, grlex and grevlex under the pot, top and Schreyer rules (a
Schreyer order of a Schreyer order too), in 1 to 4 variables and ranks 1
to 3: comparing packed terms agrees with comparing MonomialOrder.term_key,
multiplying by x^m adds lin(m), the divisibility test agrees with same
position plus kernel.exp_divides, and decoding inverts encoding.  Skipped
when hypothesis is missing.
"""

from operator import mul

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from residua import kernel
from residua.polyring import GREVLEX, GRLEX, LEX


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
