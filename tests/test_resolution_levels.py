"""Resolution levels carried packed from one syzygy level to the next.

groebner.resolution_levels packs a resolution's first columns once; each
level's kept generators, moved back to the base codec, are the next
level's engine inputs, and a level pruned by graded Nakayama hands its
shifts on as the next level's basis degrees.  On (x,y,z,w)^2, a binomial
multiple of a monomial ideal, a non-homogeneous ideal and a quotient
context with a cap, its levels equal a level-by-level reference built
from public syzygies on fresh PolyVectors.  The shifts come back exactly
where graded Nakayama pruned, and None under a context or for a
non-homogeneous level.  Handing on the degree of each kept generator
instead of the shifts (one degree per basis vector of the next level) is
caught.
"""

import itertools

import pytest

from residua import groebner
from residua.groebner import Ideal, QuotientContext, SubmoduleBasis, resolution_levels, syzygies
from residua.homalg import free_resolution
from residua.polyring import Polynomial, PolynomialRing, PolyVector

XYZ = PolynomialRing(("x", "y", "z"))
XYZW = PolynomialRing(("x", "y", "z", "w"))
ZW = PolynomialRing(("z", "w"))


def power(ring, d):
    """The monomials of degree d."""
    return [
        Polynomial(ring, {e: 1}) for e in itertools.product(range(d + 1), repeat=ring.n) if sum(e) == d
    ]


def cusp():
    return QuotientContext(ZW, Ideal(ZW, (ZW.poly("z^3 - w^2"),)))


# name -> (ring, generators, context, cap)
CASES = {
    "(x,y,z,w)^2": lambda: (XYZW, power(XYZW, 2), None, 16),
    "(x - y)*(x,y,z)^2": lambda: (XYZ, [XYZ.poly("x - y") * m for m in power(XYZ, 2)], None, 16),
    "non-homogeneous": lambda: (XYZ, [XYZ.poly(g) for g in ("x^2 - y", "x*y - z", "y^2 - x*z")], None, 16),
    "cusp, cap 6": lambda: (ZW, [ZW.poly("z"), ZW.poly("w")], cusp(), 6),
}
MIXED = ("x^2", "x*y", "y^3", "z^3", "x*z*w", "w^2")  # generators of degrees 2 and 3


def fresh(v):
    """v rebuilt from its Fraction terms: no state of the engine rides along."""
    return PolyVector(v.ring, tuple(Polynomial(v.ring, p.terms) for p in v.entries))


def reference_levels(ring, cols, context, cap):
    """(levels, complete) level by level through public syzygies, each
    level's generators rebuilt as fresh PolyVectors before the next."""
    levels, rank = [], 1
    while cols:
        levels.append(cols)
        syz = syzygies(SubmoduleBasis(ring, rank, cols), context)
        if not syz.gens:
            return levels, True
        if len(levels) >= cap:
            return levels, False
        rank, cols = len(cols), [fresh(v) for v in syz.gens]
    return levels, True


def spy_shifts(monkeypatch):
    """The shifts each _syzygy_level call returns, in call order."""
    out = []
    original = groebner._syzygy_level

    def spy(*args):
        kept, shifts = original(*args)
        out.append(shifts)
        return kept, shifts

    monkeypatch.setattr(groebner, "_syzygy_level", spy)
    return out


def first_columns(ring, gens, context):
    return [PolyVector(ring, (context.reduce(g) if context else g,)) for g in gens]


@pytest.mark.parametrize("name", sorted(CASES))
def test_packed_levels_equal_the_level_by_level_reference(monkeypatch, name):
    ring, gens, context, cap = CASES[name]()
    cols = first_columns(ring, gens, context)
    want = reference_levels(ring, cols, context, cap)
    shifts = spy_shifts(monkeypatch)
    levels, complete = resolution_levels(ring, 1, cols, context, cap)
    assert (levels, complete) == want
    # one computation per distinct level: the cusp's levels repeat
    assert len(shifts) == len({(rank, tuple(level)) for rank, level in zip((1, *map(len, levels)), levels)})
    if name == "cusp, cap 6":
        assert not complete and len(levels) == cap
    # the complex free_resolution builds from them is the reference's
    C = free_resolution(Ideal(ring, gens), context, cap)
    assert C.ranks == (1, *[len(level) for level in want[0]])
    assert [C.diff(k) for k in range(1, C.length + 1)] == [
        tuple(tuple(v.entries[i] for v in level) for i in range(rank))
        for level, rank in zip(want[0], C.ranks)
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_shifts_come_back_where_graded_nakayama_pruned(monkeypatch, name):
    ring, gens, context, cap = CASES[name]()
    shifts = spy_shifts(monkeypatch)
    resolution_levels(ring, 1, first_columns(ring, gens, context), context, cap)
    if context is not None:
        assert shifts and all(s is None for s in shifts)
    elif name == "non-homogeneous":
        assert shifts[0] is None
    else:
        assert shifts and all(s is not None for s in shifts)
    if name == "(x,y,z,w)^2":
        # e_p of level k + 1 has the degree of generator p of level k
        assert shifts == [[2] * 10, [3] * 20, [4] * 15, [5] * 4]


def test_a_level_hands_on_the_degrees_of_its_inputs_generators(monkeypatch):
    # the shifts of the first level are the generators' degrees, and no
    # later level looks for basis degrees itself
    I = Ideal(XYZW, [XYZW.poly(g) for g in MIXED])
    found = []
    original = groebner._basis_degrees
    monkeypatch.setattr(groebner, "_basis_degrees", lambda *args: found.append(args) or original(*args))
    shifts = spy_shifts(monkeypatch)
    C = free_resolution(I, minimal=True)
    assert C.ranks == (1, 6, 13, 11, 3) and not found
    assert shifts[0] == [2, 2, 3, 3, 3, 2] and None not in shifts


def carry_each_kept_degree(original):
    """A broken _syzygy_level that hands on the degree of each kept
    generator, one per generator of the next level, instead of the shifts,
    one per basis vector of the next level."""

    def mutant(inputs, rank, context, order, codec, degrees=None):
        kept, shifts = original(inputs, rank, context, order, codec, degrees)
        if shifts is not None:
            shifts = [codec.degrees(p, shifts)[0] for p, _ in kept]
        return kept, shifts

    return mutant


def levels_and_pruning(monkeypatch, cols):
    """(resolution_levels of cols over XYZW, whether each level was
    pruned by graded Nakayama)."""
    pruned = []
    original = groebner._graded_prune

    def spy(*args):
        kept = original(*args)
        pruned.append(kept is not None)
        return kept

    monkeypatch.setattr(groebner, "_graded_prune", spy)
    return resolution_levels(XYZW, 1, cols, None, 16), pruned


@pytest.mark.parametrize(
    "gens", [power(XYZW, 2), [XYZW.poly(g) for g in MIXED]], ids=["(x,y,z,w)^2", "degrees 2 and 3"]
)
def test_carrying_the_kept_degrees_instead_of_the_shifts_is_caught(monkeypatch, gens):
    cols = [PolyVector(XYZW, (g,)) for g in gens]
    want = levels_and_pruning(monkeypatch, cols)
    assert want[0] == reference_levels(XYZW, cols, None, 16) and all(want[1])
    monkeypatch.undo()
    monkeypatch.setattr(groebner, "_syzygy_level", carry_each_kept_degree(groebner._syzygy_level))
    try:
        got = levels_and_pruning(monkeypatch, cols)
    except IndexError:
        return  # a level asked for the degree of a basis vector it was not handed
    assert got != want
