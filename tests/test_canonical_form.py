"""canonical_matrix against its frozen reference.

canonical_matrix keys each entry once per call; reference_canonical_matrix,
frozen here, is the body it replaced, which builds every entry's sort key
and lead key again in every column sort and row sort of every pass.  Both
must give the same form, or both reach the 8-pass guard, on derandomized
matrices over orders with the pot and the top module rule.  The examples
include columns rescaled after a row move has changed their pot lead.
Skipped when hypothesis is missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua import homalg
from residua.groebner import InvariantError
from residua.homalg import _poly_sort_key, canonical_matrix, mat_columns
from residua.polyring import MonomialOrder, Polynomial, PolynomialRing, PolyVector

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

RINGS = {
    "grevlex pot": PolynomialRing(("x", "y")),
    "grevlex top": PolynomialRing(("x", "y"), MonomialOrder("grevlex", "top")),
    "lex pot": PolynomialRing(("x", "y"), MonomialOrder("lex")),
}


def reference_canonical_matrix(ring, A, rows, cols):
    """canonical_matrix as it was before entries were keyed once per call,
    frozen."""
    order = ring.default_order

    def col_key(v: PolyVector):
        lt = v.leading(order)
        # a zero column's head (-1,) compares with flat order keys: it is a
        # prefix of every pot key at position 1 and below every top key
        head = ((-1,),) if lt is None else (order.term_key(lt[0]),)
        return (head, tuple(_poly_sort_key(e, order) for e in v.entries))

    def row_key(row):
        keys = [order.ring_key(e.lm(order)) for e in row if not e.is_zero()]
        head = max(keys) if keys else None
        return (head is not None, head, tuple(_poly_sort_key(e, order) for e in row))

    cur = tuple(tuple(row) for row in A)
    for _ in range(8):
        columns = [v.monic(order) for v in mat_columns(ring, cur, rows, cols)]
        columns.sort(key=col_key, reverse=True)
        rows_list = [tuple(v.entries[i] for v in columns) for i in range(rows)]
        rows_list.sort(key=row_key, reverse=True)
        nxt = tuple(rows_list)
        if nxt == cur:
            return cur
        cur = nxt
    raise InvariantError("canonical matrix form reached no fixed point in 8 passes")


def form(f, ring, A, rows, cols):
    try:
        return f(ring, A, rows, cols)
    except InvariantError as e:
        return str(e)


# few terms and repeated entries, so that columns tie, scale into each
# other and change their lead when rows move
MONOMIALS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2]))
TERMS = st.one_of(
    st.just({}),
    st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, min_size=1, max_size=2),
)


@st.composite
def matrices(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pool = draw(st.lists(TERMS, min_size=1, max_size=4))
    A = tuple(
        tuple(Polynomial(ring, draw(st.sampled_from(pool))) for _ in range(cols))
        for _ in range(rows)
    )
    return ring, A, rows, cols


def case(name, rows):
    ring = RINGS[name]
    A = tuple(tuple(ring.poly(e) for e in row) for row in rows)
    return ring, A, len(rows), len(rows[0]) if rows else 0


# rescaled after pass 1: its row sort moves a row and changes the pot lead
RESCALED = case("grevlex pot", [["y", "0"], ["2", "2*x - y"], ["2*x", "x + y"]])
# no fixed point in 8 passes, in both
CYCLE = case("grevlex pot", [["2*x", "2*x", "0"], ["2*x - y", "x + y", "2*x"]])


@SETTINGS
@given(matrices())
@example(RESCALED)
@example(CYCLE)
@example(case("grevlex top", [["0", "0", "x"], ["0", "y", "y"]]))
@example(case("grevlex pot", []))
def test_canonical_matrix_matches_the_frozen_reference(m):
    assert form(canonical_matrix, *m) == form(reference_canonical_matrix, *m)


def test_the_examples_rescale_after_a_row_move_and_reach_the_guard(monkeypatch):
    passes, late = [], []
    original_columns, original_scale = homalg.mat_columns, PolyVector.scale

    def columns(*args):
        passes.append(len(passes) + 1)
        return original_columns(*args)

    def scale(v, q):
        late.append(len(passes))
        return original_scale(v, q)

    monkeypatch.setattr(homalg, "mat_columns", columns)
    monkeypatch.setattr(PolyVector, "scale", scale)
    canonical_matrix(*RESCALED)
    assert any(p > 1 for p in late)
    with pytest.raises(InvariantError, match="no fixed point in 8 passes"):
        canonical_matrix(*CYCLE)


def test_canonical_matrix_keys_each_entry_once_per_call(monkeypatch):
    keyed = []

    def spy(p, order):
        keyed.append(p)
        return homalg_key(p, order)

    homalg_key = homalg._poly_sort_key
    monkeypatch.setattr(homalg, "_poly_sort_key", spy)
    monkeypatch.setitem(globals(), "_poly_sort_key", spy)
    canonical_matrix(*RESCALED)
    assert len({id(p) for p in keyed}) == len(keyed)
    n = len(keyed)
    keyed.clear()
    reference_canonical_matrix(*RESCALED)
    assert n < len(keyed)
