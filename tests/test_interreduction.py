"""The interreduction of groebner._reduced against its frozen reference.

_reduced divides an element of the basis only when the lead of another
element divides one of its tail terms; every other element keeps its
divisor and its representation.  reference_reduced, frozen here, is the
body it replaced, which divides every element.  Both must give the same
divisors, term for term, and representations that are equal as rational
maps, on derandomized ideals and modules, tracked and untracked: the
Groebner bases the engine's two loops hand to _reduced, and the raw
generator lists.  The examples include an input whose tail only the lead
of an element the loop added divides.  Skipped when hypothesis is
missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua import groebner, kernel
from residua.groebner import _buchberger_loop, _combine, _reduced, _signature_loop
from residua.polyring import MonomialOrder, Polynomial, PolynomialRing, PolyVector, to_terms

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

RINGS = {
    "grevlex pot": PolynomialRing(("x", "y")),
    "grevlex top": PolynomialRing(("x", "y"), MonomialOrder("grevlex", "top")),
    "lex pot": PolynomialRing(("x", "y"), MonomialOrder("lex")),
}


def reference_reduced(divisors: list, reps, codec) -> None:
    """_reduced as it was before it skipped the elements that no other
    lead reduces, frozen."""
    # minimal pass: drop anything whose lead another kept element divides
    kept: list = []
    for k in sorted(range(len(divisors)), key=lambda k: divisors[k][0]):
        if codec.dividing([divisors[m][0] for m in kept], divisors[k][0]):
            continue
        kept.append(k)
    track = reps is not None
    divisors[:] = [divisors[k] for k in kept]
    if track:
        reps[:] = [reps[k] for k in kept]

    # interreduce tails (leads are now pairwise non-dividing, one pass)
    for idx, (lk, _, g) in enumerate(divisors):
        if len(divisors) == 1:
            break
        others = divisors[:idx] + divisors[idx + 1 :]
        quots, rem, mult = kernel.reduce_terms(g, others, codec, track)
        p, c = kernel.primitive(rem, lk)  # the lead is not reducible
        if track:
            reps[idx] = _combine([(mult, 0, reps[idx])], c, quots, reps[:idx] + reps[idx + 1 :])
        divisors[idx] = (lk, p[lk], p)

    ranked = sorted(range(len(divisors)), key=lambda k: divisors[k][0], reverse=True)
    divisors[:] = [divisors[k] for k in ranked]
    if track:
        reps[:] = [reps[k] for k in ranked]


def engine_lists(ring, rank, gens, track, loop):
    """(divisors, reps, codec) as _engine hands them to _reduced: the
    primitive divisors of gens and their representations, extended to a
    Groebner basis by the loop _engine picks when loop is true."""
    codec = ring.default_order.codec(ring.n)
    divisors, reps = [], []
    for j, (tm, den) in enumerate(to_terms(g, codec) for g in gens):
        lk = max(tm)
        p, c = kernel.primitive(tm, lk)
        divisors.append((lk, p[lk], p))
        reps.append(({codec.rep(j): den if c > 0 else -den}, abs(c)) if track else None)
    if loop and rank == 1 and not track:
        divisors = _signature_loop(divisors, codec)
    elif loop:
        _buchberger_loop(divisors, reps, codec, rank, track)
    return divisors, reps if track else None, codec


def both(case):
    """(the new _reduced's divisors and reps, the reference's)."""
    divisors, reps, codec = engine_lists(*case)
    out = []
    for f in (_reduced, reference_reduced):
        d, r = list(divisors), None if reps is None else list(reps)
        f(d, r, codec)
        out.append((d, r))
    return out


def same_rational_map(a, b):
    (ra, da), (rb, db) = a, b
    return {k: v * db for k, v in ra.items()} == {k: v * da for k, v in rb.items()}


MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3)]
COEFFS = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([2, 3])),
)
TERMS = st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, min_size=1, max_size=3)


@st.composite
def cases(draw):
    """(ring, rank, generators, track, loop): an ideal (rank 1) or a
    submodule of ring^2 with up to four nonzero generators."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    rank = draw(st.integers(1, 2))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        if rank == 1:
            gens.append(Polynomial(ring, draw(TERMS)))
            continue
        entries = [draw(st.one_of(st.just({}), TERMS)) for _ in range(rank)]
        if not any(entries):
            entries[0] = draw(TERMS)
        gens.append(PolyVector(ring, [Polynomial(ring, e) for e in entries]))
    return ring, rank, gens, draw(st.booleans()), draw(st.booleans())


def case(ring_name, rank, texts, track, loop=True):
    ring = RINGS[ring_name]
    if rank == 1:
        gens = [ring.poly(t) for t in texts]
    else:
        gens = [PolyVector(ring, [ring.poly(e) for e in t]) for t in texts]
    return ring, rank, gens, track, loop


# the loop adds y^2 (from the S-pair of the two inputs), and only that
# lead divides the tail of the input x^2 + y^2 that the minimal pass keeps
LATE = case("grevlex pot", 1, ["x^2 + y^2", "x^2"], True)


@SETTINGS
@given(cases())
@example(LATE)
@example(case("grevlex pot", 1, ["x^2 + y^2", "x^2"], False))
@example(case("grevlex pot", 1, ["x + y", "y"], False, False))
@example(case("grevlex top", 2, [["x", "y"], ["y", "0"], ["0", "x^2"]], True))
@example(case("lex pot", 2, [["x^2 + y", "y"], ["x", "1"]], False))
def test_reduced_matches_the_frozen_reference(case):
    (ours, our_reps), (ref, ref_reps) = both(case)
    assert ours == ref
    if ref_reps is not None:
        assert len(our_reps) == len(ref_reps)
        assert all(map(same_rational_map, our_reps, ref_reps))


def test_in_the_late_example_only_a_lead_the_loop_added_reduces_an_input():
    divisors, _, codec = engine_lists(*LATE)
    inputs = len(LATE[2])
    leads = [lk for lk, _, _ in divisors]
    kept = divisors[0]  # x^2 + y^2; the minimal pass drops x^2, of the same lead
    hits = {k for t in kept[2] if t != kept[0] for k in codec.dividing(leads, t)}
    assert hits and min(hits) >= inputs
    (ours, _), _ = both(LATE)
    assert kept not in ours and (kept[0], 1, {kept[0]: 1}) in ours


def test_only_an_element_with_a_reducible_tail_is_divided(monkeypatch):
    calls = []
    original = kernel.reduce_terms

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "reduce_terms", spy)
    # a monomial basis, and a basis in which only y^2 reduces a tail
    for texts, divided in ((["x^2", "x*y", "y^3"], 0), (["x^2 + y^2", "y^2 + 1", "x*y"], 1)):
        divisors, reps, codec = engine_lists(*case("grevlex pot", 1, texts, True, False))
        calls.clear()
        groebner._reduced(divisors, reps, codec)
        assert len(calls) == divided
    divisors, reps, codec = engine_lists(*LATE)
    calls.clear()
    groebner._reduced(divisors, reps, codec)
    assert len(calls) == 1
