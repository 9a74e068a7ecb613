import functools
import itertools
import random

import pytest

from residua import homalg
from residua.groebner import Ideal, InvariantError, QuotientContext, dimension, ideals_equal
from residua.homalg import (
    ChainComplex,
    buchsbaum_eisenbud_check,
    canonical_matrix,
    cohen_macaulay_check,
    detect_periodicity,
    expected_ranks,
    extend_ring,
    free_resolution,
    generic_rank,
    koszul_complex,
    mat_mul,
    matrices_equal_canonically,
    minimalize,
    minors_ideal,
    proper_intersection_check,
    rank_loci,
    tensor_complexes,
)
from residua.polyring import PolynomialRing

from conftest import random_nonzero_poly

ZW = PolynomialRing(("z", "w"))
XY = PolynomialRing(("x", "y"))
XYZ = PolynomialRing(("x", "y", "z"))


def P(ring, s):
    return ring.poly(s)


def M(ring, rows):
    return tuple(tuple(P(ring, e) for e in row) for row in rows)


# ---------------------------------------------------------------------------
# construction


def test_complex_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ChainComplex(XY, (1, 2), (M(XY, [["x"]]),))
    with pytest.raises(ValueError):
        ChainComplex(XY, (1, 1), ())


def test_complex_rejects_noncomposing_differentials():
    with pytest.raises(ValueError):
        ChainComplex(XY, (1, 1, 1), (M(XY, [["x"]]), M(XY, [["y"]])))


def test_quotient_relations_rescue_composition():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = ChainComplex(XY, (1, 1, 1), (M(XY, [["x"]]), M(XY, [["y"]])), context=ctx)
    assert C.diffs[0] == M(XY, [["x"]])


def test_construction_reduces_entries_mod_context():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = ChainComplex(XY, (1, 1), (M(XY, [["x + x*y"]]),), context=ctx)
    assert C.diffs[0] == M(XY, [["x"]])


# ---------------------------------------------------------------------------
# koszul complexes


def test_koszul_two_elements_exact_matrices():
    K = koszul_complex((P(ZW, "z"), P(ZW, "w")))
    assert K.ranks == (1, 2, 1)
    assert K.diffs[0] == M(ZW, [["z", "w"]])
    assert K.diffs[1] == M(ZW, [["-w"], ["z"]])
    assert K.complete


def test_koszul_three_elements_exact_matrices():
    K = koszul_complex(tuple(XYZ.gens()))
    assert K.ranks == (1, 3, 3, 1)
    assert K.diffs[0] == M(XYZ, [["x", "y", "z"]])
    assert K.diffs[1] == M(XYZ, [["-y", "-z", "0"], ["x", "0", "-z"], ["0", "x", "y"]])
    assert K.diffs[2] == M(XYZ, [["z"], ["-y"], ["x"]])


def test_koszul_of_repeated_element():
    K = koszul_complex((P(XY, "x"), P(XY, "x")))
    assert K.diffs[1] == M(XY, [["-x"], ["x"]])


# ---------------------------------------------------------------------------
# resolutions


def test_resolution_of_plane_curve_singularity_generators():
    # (z, w, z^3 - w^2): the raw syzygy resolution has a redundant generator
    I = Ideal(ZW, (P(ZW, "z"), P(ZW, "w"), P(ZW, "z^3 - w^2")))
    C = free_resolution(I)
    assert C.ranks == (1, 3, 2)
    assert C.complete
    Cmin = minimalize(C)
    assert Cmin.ranks == (1, 2, 1)
    assert not Cmin.not_locally_minimal
    K = koszul_complex((P(ZW, "z"), P(ZW, "w")))
    assert matrices_equal_canonically(ZW, Cmin.diffs[1], K.diffs[1], 2, 1, 2, 1)
    # phi_1 still generates the same ideal
    assert ideals_equal(Ideal(ZW, Cmin.diffs[0][0]), Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))))


def test_resolution_two_lines_through_plane():
    I = Ideal(XYZ, (P(XYZ, "x*z"), P(XYZ, "y*z")))
    C = free_resolution(I)
    assert C.ranks == (1, 2, 1)
    assert C.complete
    assert matrices_equal_canonically(
        XYZ, C.diffs[1], M(XYZ, [["-y"], ["x"]]), 2, 1, 2, 1
    )


def test_resolution_of_unit_ideal_minimalizes_to_nothing():
    C = free_resolution(Ideal(XY, (XY.one(),)), minimal=True)
    assert C.ranks == (0, 0)
    assert C.complete


def test_resolution_of_zero_ideal():
    C = free_resolution(Ideal(XY, ()))
    assert C.ranks == (1,)
    assert C.diffs == ()
    assert C.complete


def test_quotient_resolution_truncates_and_alternates():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = free_resolution(Ideal(XY, (P(XY, "x"),)), context=ctx, cap=6)
    assert C.ranks == (1, 1, 1, 1, 1, 1, 1)
    assert not C.complete
    mats = [C.diffs[k][0][0] for k in range(6)]
    assert [str(p) for p in mats] == ["x", "y", "x", "y", "x", "y"]


def test_resolution_respects_cap_exactly_when_it_finishes_there():
    # koszul-length resolution hitting the cap on the final step stays complete
    I = Ideal(XY, (P(XY, "x"), P(XY, "y")))
    C = free_resolution(I, cap=2)
    assert C.complete
    assert C.ranks == (1, 2, 1)


# ---------------------------------------------------------------------------
# minimalization


def test_minimalize_collapses_dependent_generator():
    I = Ideal(ZW, (P(ZW, "z"), P(ZW, "w"), P(ZW, "z + w")))
    C = free_resolution(I)
    assert C.ranks == (1, 3, 2)
    Cmin = minimalize(C)
    assert Cmin.ranks == (1, 2, 1)
    assert ideals_equal(Ideal(ZW, Cmin.diffs[0][0]), Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))))


def test_minimalize_is_idempotent():
    I = Ideal(ZW, (P(ZW, "z"), P(ZW, "w"), P(ZW, "z^3 - w^2")))
    once = minimalize(free_resolution(I))
    twice = minimalize(once)
    assert once.ranks == twice.ranks
    assert once.diffs == twice.diffs


def test_minimalize_flags_local_units_that_are_not_constants():
    C = ChainComplex(XY, (1, 1), (M(XY, [["x + 1"]]),))
    Cmin = minimalize(C)
    assert Cmin.ranks == (1, 1)
    assert Cmin.not_locally_minimal


def test_minimalize_random_resolutions_preserve_image(subtests=None):
    rng = random.Random(31)
    for _ in range(10):
        gens = [random_nonzero_poly(rng, XY, max_deg=2, max_terms=3) for _ in range(2)]
        I = Ideal(XY, tuple(gens))
        C = free_resolution(I, cap=8)
        assert C.complete
        Cmin = minimalize(C)
        if Cmin.ranks[1] > 0:
            assert ideals_equal(Ideal(XY, Cmin.diffs[0][0]), I)
        else:
            # everything collapsed: unit ideal
            assert ideals_equal(I, Ideal(XY, (XY.one(),)))


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_of_singleton_koszuls_reassembles_koszul_bit_exactly():
    fs = tuple(XYZ.gens())
    K = koszul_complex(fs)
    T = functools.reduce(tensor_complexes, [koszul_complex((f,)) for f in fs])
    assert T.ranks == K.ranks
    assert T.diffs == K.diffs


def test_tensor_block_layout_with_extension_variable():
    ZWT = PolynomialRing(("z", "w", "t"))
    E = extend_ring(koszul_complex((P(ZW, "z"), P(ZW, "w"))), ZWT)
    D = koszul_complex((P(ZWT, "t"),))
    G = tensor_complexes(E, D)
    assert G.ranks == (1, 3, 3, 1)
    t = P(ZWT, "t")
    # eta_k = [[phi_k, (-1)^(k-1) t id], [0, phi_(k-1)]] in block form
    assert G.diffs[0] == M(ZWT, [["z", "w", "t"]])
    assert G.diffs[1] == M(ZWT, [["-w", "-t", "0"], ["z", "0", "-t"], ["0", "z", "w"]])
    assert G.diffs[2] == M(ZWT, [["t"], ["-w"], ["z"]])


def test_tensor_requires_matching_context():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    A = koszul_complex((P(XY, "x"),), context=ctx)
    B = koszul_complex((P(XY, "x"),))
    with pytest.raises(ValueError):
        tensor_complexes(A, B)


def test_tensor_refuses_truncated_factor():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = free_resolution(Ideal(XY, (P(XY, "x"),)), context=ctx, cap=4)
    with pytest.raises(ValueError):
        tensor_complexes(C, C)


def test_extend_ring_transports_entries_and_context():
    ZWT = PolynomialRing(("z", "w", "t"))
    ctx = QuotientContext(ZW, Ideal(ZW, (P(ZW, "z*w"),)))
    C = ChainComplex(ZW, (1, 1), (M(ZW, [["z"]]),), context=ctx, complete=False)
    E = extend_ring(C, ZWT)
    assert E.ring == ZWT
    assert E.diffs[0][0][0] == P(ZWT, "z")
    assert E.context.relations.gens == (P(ZWT, "z*w"),)
    assert not E.complete


# ---------------------------------------------------------------------------
# ranks, minors, loci


def test_minors_and_generic_rank():
    A = M(XYZ, [["x", "y"], ["z", "x"]])
    assert generic_rank(XYZ, A, 2, 2) == 2
    I2 = minors_ideal(XYZ, A, 2, 2, 2)
    assert ideals_equal(I2, Ideal(XYZ, (P(XYZ, "x^2 - y*z"),)))
    assert minors_ideal(XYZ, A, 2, 2, 0).gens == (XYZ.one(),)
    assert minors_ideal(XYZ, A, 2, 2, 3).gens == ()
    B = M(XYZ, [["x", "y"], ["x", "y"]])
    assert generic_rank(XYZ, B, 2, 2) == 1


def _cube_resolution():
    """Minimal resolution of (x,y,z)^3, ranks (1, 10, 15, 6)."""
    gens = [P(XYZ, m) for m in "x^3 x^2*y x^2*z x*y^2 x*y*z x*z^2 y^3 y^2*z y*z^2 z^3".split()]
    return free_resolution(Ideal(XYZ, gens), minimal=True)


def test_generic_rank_of_a_wide_rank_three_matrix():
    # three rows of phi_2 and seven combinations of them: every minor of
    # size 4 to 10 vanishes, which a scan from the top size never gets past
    base = _cube_resolution().diff(2)[:3]
    coeffs = [("x", "1", "0"), ("0", "y", "-2"), ("1/2", "z", "x"), ("y*z", "0", "0"),
              ("1", "1", "1"), ("-3/4", "0", "x^2"), ("0", "0", "z")]
    rows = list(base)
    for cs in coeffs:
        a, b, c = (P(XYZ, e) for e in cs)
        rows.append(tuple(a * u + b * v + c * w for u, v, w in zip(*base)))
    assert generic_rank(XYZ, tuple(rows), 10, 15) == 3
    assert generic_rank(XYZ, tuple(rows), 10, 15) == generic_rank(XYZ, base, 3, 15)


def test_fraction_free_division_must_be_exact():
    assert homalg._exact_quotient({(2, 1): 6, (1, 2): -4}, {(1, 1): 2}) == {(1, 0): 3, (0, 1): -2}
    for f in ({(2, 0): 3}, {(0, 2): 2}, {(2, 0): 2, (0, 0): 1}):
        with pytest.raises(InvariantError):
            homalg._exact_quotient(f, {(1, 0): 2})


def test_expected_ranks_alternating_sum():
    K = koszul_complex(tuple(XYZ.gens()))
    assert expected_ranks(K) == [1, 2, 1]
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = free_resolution(Ideal(XY, (P(XY, "x"),)), context=ctx, cap=4)
    with pytest.raises(ValueError):
        expected_ranks(C)


def test_rank_loci_of_two_lines_resolution():
    I = Ideal(XYZ, (P(XYZ, "x*z"), P(XYZ, "y*z")))
    d = rank_loci(free_resolution(I))
    assert d.ranks_used == (1, 1)
    assert d.codims == (1, 2)
    assert d.level_ok == (True, True)
    assert d.containments == (True,)
    assert ideals_equal(d.loci[1], Ideal(XYZ, (P(XYZ, "x"), P(XYZ, "y"))))


def test_rank_loci_truncated_uses_generic_ranks_and_adds_relations():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = free_resolution(Ideal(XY, (P(XY, "x"),)), context=ctx, cap=6)
    d = rank_loci(C)
    assert d.ranks_used == (1,) * 6
    expect = [P(XY, "x"), P(XY, "y")] * 3
    for loc, g in zip(d.loci, expect):
        assert ideals_equal(loc, Ideal(XY, (g, P(XY, "x*y"))))
        assert ideals_equal(loc, Ideal(XY, (g,)))  # relation is redundant here
    assert d.codims == (1,) * 6


# ---------------------------------------------------------------------------
# exactness criterion


def test_exactness_criterion_on_koszul_regular_sequence():
    rep = buchsbaum_eisenbud_check(koszul_complex((P(XY, "x"), P(XY, "y"))))
    assert rep.passes
    assert rep.generic_ranks == (1, 1)
    assert all(l.rank_ok and l.codim_ok for l in rep.levels)


def test_exactness_criterion_fails_on_repeated_element():
    rep = buchsbaum_eisenbud_check(koszul_complex((P(XY, "x"), P(XY, "x"))))
    assert not rep.passes
    assert rep.levels[0].rank_ok and rep.levels[0].codim_ok
    assert not rep.levels[1].codim_ok  # I_1(phi_2) = (x) has codim 1 < 2


@pytest.mark.parametrize(
    "seq,regular",
    [
        (("x", "y"), True),
        (("x", "y", "z"), True),
        (("x*y", "z"), True),
        (("x", "x"), False),
        (("x", "x*y"), False),
        (("x", "y", "x"), False),
        (("x - 1", "y"), True),
        (("x^2", "y^2"), True),
        (("x*z", "y*z"), False),
    ],
)
def test_exactness_criterion_matches_regularity(seq, regular):
    fs = tuple(P(XYZ, s) for s in seq)
    assert buchsbaum_eisenbud_check(koszul_complex(fs)).passes == regular


def test_exactness_criterion_refuses_truncated_and_quotient_input():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = free_resolution(Ideal(XY, (P(XY, "x"),)), context=ctx, cap=4)
    with pytest.raises(ValueError):
        buchsbaum_eisenbud_check(C)
    K = koszul_complex((P(XY, "x"),), context=ctx)
    with pytest.raises(ValueError):
        buchsbaum_eisenbud_check(K)


def test_exactness_criterion_passes_on_every_computed_ambient_resolution():
    rng = random.Random(53)
    for _ in range(8):
        gens = [random_nonzero_poly(rng, XY, max_deg=2, max_terms=3) for _ in range(2)]
        C = free_resolution(Ideal(XY, tuple(gens)), cap=8)
        assert C.complete
        assert buchsbaum_eisenbud_check(C).passes


def test_exactness_criterion_on_the_cube_of_the_maximal_ideal():
    C = _cube_resolution()
    assert C.ranks == (1, 10, 15, 6)
    rep = buchsbaum_eisenbud_check(C)
    assert rep.generic_ranks == (1, 9, 6)
    assert tuple(level.codim for level in rep.levels) == (3, 3, 3)
    assert rep.passes


# ---------------------------------------------------------------------------
# proper intersections


def test_proper_intersection_pass_and_fail():
    ZWT = PolynomialRing(("z", "w", "t"))
    E = extend_ring(koszul_complex((P(ZW, "z"), P(ZW, "w"))), ZWT)
    D = koszul_complex((P(ZWT, "t"),))
    rep = proper_intersection_check(E, D, 2, 1)
    assert rep.passes
    assert rep.failures == ()
    # a factor meeting itself is never proper
    bad = proper_intersection_check(E, E, 2, 2)
    assert not bad.passes
    assert bad.failures


# ---------------------------------------------------------------------------
# periodicity


def test_periodicity_of_alternating_quotient_resolution():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = free_resolution(Ideal(XY, (P(XY, "x"),)), context=ctx, cap=6)
    rep = detect_periodicity(C)
    assert rep.detected and rep.offset == 0 and rep.period == 2


def test_periodicity_with_nonzero_offset():
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    diffs = [M(XY, [[s]]) for s in ("x^2", "y", "x", "y", "x")]
    C = ChainComplex(XY, (1,) * 6, diffs, context=ctx, complete=False)
    rep = detect_periodicity(C)
    assert rep.detected and rep.offset == 1 and rep.period == 2


def test_periodicity_complete_and_short_inputs():
    assert not detect_periodicity(koszul_complex((P(XY, "x"), P(XY, "y")))).detected
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = free_resolution(Ideal(XY, (P(XY, "x"),)), context=ctx, cap=3)
    with pytest.raises(ValueError):
        detect_periodicity(C)


# ---------------------------------------------------------------------------
# Cohen-Macaulay


def test_cohen_macaulay_examples():
    rep = cohen_macaulay_check(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"), P(ZW, "z^3 - w^2"))))
    assert rep.is_cm and rep.resolution_length == 2 and rep.codim == 2
    rep = cohen_macaulay_check(Ideal(XYZ, (P(XYZ, "x*z"), P(XYZ, "y*z"))))
    assert not rep.is_cm and rep.resolution_length == 2 and rep.codim == 1
    rep = cohen_macaulay_check(Ideal(XYZ, (P(XYZ, "x"), P(XYZ, "y"))))
    assert rep.is_cm
    with pytest.raises(ValueError):
        cohen_macaulay_check(Ideal(XY, (XY.one(),)))


# ---------------------------------------------------------------------------
# canonical comparison


def test_canonical_matrix_equivalences():
    assert matrices_equal_canonically(
        XY, M(XY, [["-y"], ["x"]]), M(XY, [["y"], ["-x"]]), 2, 1, 2, 1
    )
    assert matrices_equal_canonically(XY, M(XY, [["x", "y"]]), M(XY, [["y", "x"]]), 1, 2, 1, 2)
    assert matrices_equal_canonically(
        XY, M(XY, [["x", "0"], ["0", "y"]]), M(XY, [["0", "y"], ["x", "0"]]), 2, 2, 2, 2
    )
    assert not matrices_equal_canonically(XY, M(XY, [["x"]]), M(XY, [["y"]]), 1, 1, 1, 1)
    assert not matrices_equal_canonically(XY, M(XY, [["x"]]), M(XY, [["x", "x"]]), 1, 1, 1, 2)


def test_canonical_matrix_without_fixed_point_raises(monkeypatch):
    # sort keys that grow with every call make the two rows trade places
    # on every pass
    counter = itertools.count()
    monkeypatch.setattr(homalg, "_poly_sort_key", lambda p, order: next(counter))
    with pytest.raises(InvariantError):
        canonical_matrix(XY, M(XY, [["x", "1"], ["x", "2"]]), 2, 2)


def test_mat_mul_zero_sizes():
    assert mat_mul(XY, (), (), 0, 0, 0) == ()
    A = M(XY, [["x", "y"]])
    B = M(XY, [["y"], ["x"]])
    prod = mat_mul(XY, A, B, 1, 2, 1)
    assert prod[0][0] == P(XY, "2*x*y")
