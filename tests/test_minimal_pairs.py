"""A syzygy level forms and tests only the candidates it can keep.

- Minimal pairs.  On a level with no context whose inputs are their own
  basis or a minimal Groebner basis, _pair_syzygies leaves out a pair
  whose Schreyer lead is a proper multiple of another pair's lead, and
  forms every pair of an equal lead.
- Equal leads.  A candidate with the lead of the next candidate in the
  sorted list is dropped once, right after the sort, so it gets no normal
  form in _graded_prune and no membership test in the per-candidate loop,
  unless a basis element's reduction modulo the relations moved its lead
  there.
- The kept generators of every level equal those of the frozen reference
  that forms every candidate and tests each one (conftest.reference_level)
  on seeded ideals and modules, homogeneous or not, with and without a
  hypersurface context, and at their second level; two witnesses pin
  what a broken rule would change.
"""

import random
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conftest import level_args, random_nonzero_poly, reference_level, syzygy_level
from residua import groebner, kernel
from residua.groebner import Ideal, QuotientContext, SubmoduleBasis, syzygies
from residua.homalg import free_resolution
from residua.polyring import Polynomial, PolynomialRing, PolyVector, from_terms

XYZ = PolynomialRing(("x", "y", "z"))
XYZW = PolynomialRing(("x", "y", "z", "w"))
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
HYPERSURFACES = [None, "x*y", "x^2 - y*z", "z^2 + x", "x*y - z^2 + 1"]


def seeded_level(seed, module, homogeneous):
    """2-4 seeded generators of Q[x,y,z], or 2-3 of Q[x,y,z]^2 under pot or
    top, with entries of degree at most 2, each of one degree when
    homogeneous."""
    rng = random.Random(seed)

    def poly():
        if not homogeneous:
            return random_nonzero_poly(rng, XYZ, 2, 3)
        d = rng.choice((1, 2))
        while True:
            terms = {m: c for m, c in random_nonzero_poly(rng, XYZ, d, 4).terms.items() if sum(m) == d}
            if terms:
                return Polynomial(XYZ, terms)

    if module:
        order = XYZ.default_order.with_module_rule(rng.choice(("pot", "top")))
        gens = [PolyVector(XYZ, (poly(), poly())) for _ in range(rng.randint(2, 3))]
        return SubmoduleBasis(XYZ, 2, gens, order)
    return Ideal(XYZ, [poly() for _ in range(rng.randint(2, 4))])


@SETTINGS
@given(st.integers(0, 10**6), st.booleans(), st.booleans(), st.sampled_from(HYPERSURFACES))
def test_levels_keep_the_reference_generators(seed, module, homogeneous, relation):
    obj = seeded_level(seed, module, homogeneous)
    context = None if relation is None else QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly(relation),)))
    inputs, rank, _, order, codec = args = level_args(obj, context)
    kept, shifts = syzygy_level(*args)
    assert kept == reference_level(*args)
    if not kept:
        return
    # the level of its kept generators, handed the first level's shifts
    # (or zeros) as resolution_levels hands them on
    zero = PolyVector(XYZ, [XYZ.zero()] * len(inputs))
    obj = SubmoduleBasis(XYZ, len(inputs), [from_terms(zero, p, lc, codec) for p, lc in kept], order)
    args = level_args(obj, context)
    degrees = shifts or [0] * len(inputs)
    assert groebner._syzygy_level(*args, degrees, {})[0] == reference_level(*args)


def test_relation_syzygies_that_cut_to_zero():
    # the relations xy and xz have a syzygy of their own, zero in the
    # level's coordinates once cut: no candidate
    ctx = QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly("x*y"), XYZ.poly("x*z"))))
    args = level_args(Ideal(XYZ, (XYZ.poly("y*z"), XYZ.poly("x^2"))), ctx)
    assert syzygy_level(*args)[0] == reference_level(*args)


# (w^3, zw^2, yw^2, z^2w, yzw): the pairs (1, 2) and (1, 4) share the lead
# y e_1, and the greedy rule keeps y e_1 - z e_2, the later of the two
EQUAL_LEADS = Ideal(XYZW, [XYZW.poly(t) for t in ("w^3", "z*w^2", "y*w^2", "z^2*w", "y*z*w")])


def test_pairs_of_an_equal_lead_are_all_formed():
    assert [str(v) for v in syzygies(EQUAL_LEADS).gens] == [
        "(0, 0, 0, y, -z)",
        "(0, y, -z, 0, 0)",
        "(0, 0, z, 0, -w)",
        "(0, z, 0, -w, 0)",
        "(y, 0, -w, 0, 0)",
        "(z, -w, 0, 0, 0)",
    ]
    args = level_args(EQUAL_LEADS)
    assert syzygy_level(*args)[0] == reference_level(*args)
    assert free_resolution(EQUAL_LEADS, minimal=True).ranks == (1, 5, 6, 2)


def cube():
    return Ideal(
        XYZW,
        [
            XYZW.poly(f"x^{a}*y^{b}*z^{c}*w^{3 - a - b - c}")
            for a in range(4)
            for b in range(4 - a)
            for c in range(4 - a - b)
        ],
    )


def division_counts(monkeypatch):
    """The kernel.reduce_terms calls made while patched, by the name of
    the calling function."""
    counts = {}
    real = kernel.reduce_terms

    def counted(*args):
        name = sys._getframe(1).f_code.co_name
        counts[name] = counts.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(kernel, "reduce_terms", counted)
    return counts


def test_the_cube_resolution_reduces_only_minimal_pairs(monkeypatch):
    # of the 236 S-pairs of the (x,y,z,w)^3 resolution's own bases, 106
    # are minimal pairs; 94 candidates get a normal form in _graded_prune
    counts = division_counts(monkeypatch)
    C = free_resolution(cube(), minimal=True)
    assert C.ranks == (1, 20, 45, 36, 10)
    assert (counts["_pair_syzygies"], counts["_graded_prune"]) == (106, 94)


def test_equal_lead_candidates_take_no_membership_test(monkeypatch):
    ctx = QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly("x*y - z^2"),)))
    I = Ideal(XYZ, [XYZ.poly(t) for t in ("-z^2", "y*z", "-7*y^2")])
    calls = []
    real = groebner._member_terms
    monkeypatch.setattr(groebner, "_member_terms", lambda *args: calls.append(args) or real(*args))
    C = free_resolution(I, ctx, cap=3)
    assert len(calls) == 13  # 18 when every candidate is tested
    monkeypatch.setattr(groebner, "_tested", lambda cands, moved: [True] * len(cands))
    assert free_resolution(I, ctx, cap=3) == C
    assert len(calls) == 13 + 18


# over z^2 + x the reduced basis of the candidates' span has an element of
# lead x z^2 e_1; modulo the relation its lead is x^2 e_1, which another
# candidate also has, and the earlier of the two is not in the submodule
# that the candidates after it and the relations generate
MOVED = (
    QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly("z^2 + x"),))),
    Ideal(XYZ, [XYZ.poly(t) for t in ("-4*y^2", "5*x", "-8*x^2 - 4*y - z", "-5*y^2*z - 3*x")]),
)


def test_a_lead_that_the_relations_moved_keeps_its_candidates_tested(monkeypatch):
    ctx, I = MOVED
    args = level_args(I, ctx)
    want = reference_level(*args)
    seen = []
    real = groebner._tested
    monkeypatch.setattr(groebner, "_tested", lambda cands, moved: seen.append(set(moved)) or real(cands, moved))
    assert syzygy_level(*args)[0] == want
    assert seen and seen[0]
    # testing only the last candidate of every lead keeps another generator
    monkeypatch.setattr(groebner, "_tested", lambda cands, moved: real(cands, ()))
    assert syzygy_level(*args)[0] != want
