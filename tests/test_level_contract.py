"""One contract for a syzygy level (groebner._syzygy_level).

- The caller hands a level its lead terms, its grading and its relation
  map.  A resolution builds no Schreyer MonomialOrder (the level's
  Schreyer codec comes from its lead terms alone, Codec.schreyer) and
  looks for no basis degrees (_basis_degrees): the first level gets
  zeros, each later one the shifts of the level before, or zeros.  Only
  public syzygies looks for the degrees of a module it is given.
- A candidate with the lead of the next one in the sorted list is dropped
  once, right after the sort (_tested): no list that _graded_prune
  prunes and no basis of a membership test (_member_terms) holds it.
"""

from residua import groebner
from residua.groebner import Ideal, QuotientContext, syzygies
from residua.homalg import free_resolution
from residua.polyring import MonomialOrder, PolynomialRing

R4 = PolynomialRing(("x", "y", "z", "w"))
R3 = PolynomialRing(("x", "y", "z"))
MIXED = Ideal(R4, [R4.poly(g) for g in ("x^2", "x*y", "y^3", "z^3", "x*z*w", "w^2")])
INHOMOGENEOUS = Ideal(R4, [R4.poly(g) for g in ("x^2 - y*z", "x*y + z", "w^2 - x", "z*w")])
CONE = QuotientContext(R3, Ideal(R3, (R3.poly("x*y - z^2"),)))
OVER_CONE = Ideal(R3, [R3.poly(g) for g in ("-z^2", "y*z", "-7*y^2")])


def spy(monkeypatch, owner, name):
    """(arguments, result) of every call of owner.name while patched."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_resolution_builds_no_schreyer_order_and_looks_for_no_degrees(monkeypatch):
    orders = spy(monkeypatch, MonomialOrder, "schreyer")
    searches = spy(monkeypatch, groebner, "_basis_degrees")
    levels = spy(monkeypatch, groebner, "_syzygy_level")
    for I, context, ranks in (
        (MIXED, None, (1, 6, 13, 11, 3)),
        (INHOMOGENEOUS, None, (1, 4, 6, 4, 1)),
        (OVER_CONE, CONE, (1, 3, 4, 4, 4)),
    ):
        del levels[:]
        assert free_resolution(I, context, cap=4, minimal=True).ranks == ranks
        assert len(levels) == 4 and not orders and not searches
        # the first level is handed zeros, each later one a degree per input
        assert levels[0][0][5] == [0]
        assert all(len(args[5]) == args[1] for args, _ in levels)


def test_public_syzygies_of_a_module_look_for_its_degrees_once(monkeypatch):
    # the second syzygy module of MIXED is homogeneous only when e_p has
    # the degree of first syzygy p: found by one search, it prunes by degree
    second = syzygies(syzygies(MIXED))
    searches = spy(monkeypatch, groebner, "_basis_degrees")
    graded = spy(monkeypatch, groebner, "_graded_prune")
    members = spy(monkeypatch, groebner, "_member_terms")
    assert len(syzygies(second).gens) == 3
    assert len(searches) == 1 and searches[0][1] is not None
    assert len(graded) == 1 and graded[0][1] is not None and not members


def signature(cand):
    """A candidate (p, lc) as the level tells candidates apart."""
    p, lc = cand
    return frozenset(p.items()), lc


def test_no_prune_list_or_membership_basis_holds_a_rejected_candidate(monkeypatch):
    rejected, held = set(), []  # rejected: those of the level that runs
    real_tested, real_member, real_prune = groebner._tested, groebner._member_terms, groebner._graded_prune
    count = 0

    def tested(cands, moved):
        nonlocal count
        mask = real_tested(cands, moved)
        rejected.clear()
        rejected.update(signature(cand) for cand, keep in zip(cands, mask) if not keep)
        count += len(rejected)
        return mask

    def member(tm, gens, *args):
        held.append(any(signature(cand) in rejected for cand in gens))
        return real_member(tm, gens, *args)

    def prune(cands, *args):
        held.append(any(signature(cand) in rejected for cand in cands))
        return real_prune(cands, *args)

    monkeypatch.setattr(groebner, "_tested", tested)
    monkeypatch.setattr(groebner, "_member_terms", member)
    monkeypatch.setattr(groebner, "_graded_prune", prune)
    for I, context in ((OVER_CONE, CONE), (MIXED, None), (INHOMOGENEOUS, None)):
        free_resolution(I, context, cap=4, minimal=True)
    assert count and held and not any(held)
