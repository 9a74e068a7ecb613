import functools
import itertools
import random

import pytest

from residua import groebner, homalg
from residua.groebner import (
    Ideal,
    InvariantError,
    QuotientContext,
    SubmoduleBasis,
    dimension,
    ideals_equal,
)
from residua.homalg import (
    ChainComplex,
    PeriodicityReport,
    buchsbaum_eisenbud_check,
    canonical_matrix,
    cohen_macaulay_check,
    columns_to_matrix,
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
from residua.polyring import MonomialOrder, PolynomialRing, PolyVector

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


def _single_path_cases():
    """(ideal, context, cap) inputs for free_resolution(minimal=True)."""
    cusp = QuotientContext(ZW, Ideal(ZW, (P(ZW, "z^3 - w^2"),)))
    yield Ideal(ZW, (P(ZW, "z"), P(ZW, "w"), P(ZW, "z + w"))), None, 16  # a pivot
    square = [a * b for a, b in itertools.combinations_with_replacement(XYZ.gens(), 2)]
    yield Ideal(XYZ, tuple(square)), None, 16  # no pivot
    yield Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))), cusp, 5  # truncated
    yield Ideal(XY, (XY.one(),)), None, 16
    rng = random.Random(31)  # the ideals of the test above
    for _ in range(10):
        gens = [random_nonzero_poly(rng, XY, max_deg=2, max_terms=3) for _ in range(2)]
        yield Ideal(XY, tuple(gens)), None, 8
    node = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    for gens, ctx, cap in [
        (("x", "y", "x + y", "x + 2*y"), None, 16),
        (("x", "y", "x + y", "x*y + x"), None, 16),
        (("x^2", "x*y", "x^2 + x*y", "y^2"), None, 16),
        (("x", "y", "x + y"), node, 5),
    ]:
        yield Ideal(XY, tuple(P(XY, g) for g in gens)), ctx, cap


@pytest.mark.parametrize("case", range(18))
def test_minimal_resolution_builds_one_complex_equal_to_the_two_step_path(monkeypatch, case):
    I, ctx, cap = list(_single_path_cases())[case]
    ref = minimalize(free_resolution(I, ctx, cap))
    built = []
    init = ChainComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", counting_init)
    C = free_resolution(I, ctx, cap, minimal=True)
    assert len(built) == 1
    assert (C.ranks, C.diffs, C.complete, C.not_locally_minimal) == (
        ref.ranks,
        ref.diffs,
        ref.complete,
        ref.not_locally_minimal,
    )
    if case == 0:
        assert C.ranks == (1, 2, 1)
    if case == 2:
        assert not C.complete and C.length == 5


def reference_minimalize(C: ChainComplex) -> ChainComplex:
    """The pivot elimination minimalize used to run, kept as the reference:
    rescan from phi_1 for the first constant pivot c at (i, j) of phi_k,
    clear row i with column operations and column j with row operations,
    compensate each operation on phi_{k+1} and phi_{k-1}, require the
    compensated row j of phi_{k+1} and column i of phi_{k-1} to be zero,
    and delete them with row i and column j of phi_k."""
    ring, ctx = C.ring, C.context
    ranks = list(C.ranks)
    diffs = [[list(row) for row in M] for M in C.diffs]

    def reduce_entry(p):
        return ctx.reduce(p) if ctx is not None else p

    while True:
        pivot = None
        for k in range(1, len(diffs) + 1):
            M = diffs[k - 1]
            for i in range(ranks[k - 1]):
                for j in range(ranks[k]):
                    e = M[i][j]
                    if not e.is_zero() and e.is_constant():
                        pivot = (k, i, j, e.constant_term())
                        break
                if pivot:
                    break
            if pivot:
                break
        if pivot is None:
            break
        k, i, j, c = pivot
        M = diffs[k - 1]
        up = diffs[k] if k < len(diffs) else None
        down = diffs[k - 2] if k >= 2 else None
        for jp in range(ranks[k]):
            if jp == j or M[i][jp].is_zero():
                continue
            f = M[i][jp] * (1 / c)
            for r in range(ranks[k - 1]):
                M[r][jp] = reduce_entry(M[r][jp] - f * M[r][j])
            if up is not None:
                for cc in range(ranks[k + 1]):
                    up[j][cc] = reduce_entry(up[j][cc] + f * up[jp][cc])
        for ip in range(ranks[k - 1]):
            if ip == i or M[ip][j].is_zero():
                continue
            g = M[ip][j] * (1 / c)
            for cc in range(ranks[k]):
                M[ip][cc] = reduce_entry(M[ip][cc] - g * M[i][cc])
            if down is not None:
                for r in range(ranks[k - 2]):
                    down[r][i] = reduce_entry(down[r][i] + g * down[r][ip])
        if up is not None and not all(up[j][cc].is_zero() for cc in range(ranks[k + 1])):
            raise InvariantError("a unit pivot left a nonzero row in the next map")
        if down is not None and not all(down[r][i].is_zero() for r in range(ranks[k - 2])):
            raise InvariantError("a unit pivot left a nonzero column in the previous map")
        diffs[k - 1] = [
            [M[r][cc] for cc in range(ranks[k]) if cc != j]
            for r in range(ranks[k - 1])
            if r != i
        ]
        if up is not None:
            diffs[k] = [up[r] for r in range(ranks[k]) if r != j]
        if down is not None:
            diffs[k - 2] = [
                [down[r][cc] for cc in range(ranks[k - 1]) if cc != i]
                for r in range(ranks[k - 2])
            ]
        ranks[k] -= 1
        ranks[k - 1] -= 1
    flagged = any(
        not e.is_zero() and not e.is_constant() and e.constant_term() != 0
        for M in diffs
        for row in M
        for e in row
    )
    return ChainComplex(
        ring, ranks, diffs, context=ctx, complete=C.complete, not_locally_minimal=flagged
    )


@pytest.mark.parametrize("case", range(18))
def test_minimalization_matches_the_reference(case):
    I, ctx, cap = list(_single_path_cases())[case]
    C = free_resolution(I, ctx, cap)
    ref = reference_minimalize(C)
    for got in (minimalize(C), free_resolution(I, ctx, cap, minimal=True)):
        assert (got.ranks, got.diffs, got.not_locally_minimal) == (
            ref.ranks,
            ref.diffs,
            ref.not_locally_minimal,
        )


def test_minimalize_finds_a_pivot_in_the_normal_form_of_the_schur_complement():
    # over Q[x,y]/(xy) the pivot 1 of [[1, x], [y, 1]] leaves 1 - xy = 1,
    # a second pivot
    node = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = ChainComplex(XY, (2, 2), (M(XY, [["1", "x"], ["y", "1"]]),), context=node)
    assert minimalize(C).ranks == reference_minimalize(C).ranks == (0, 0)


def fake_syzygy_column(monkeypatch, column):
    """Make the first syzygies call of free_resolution return the one
    column given, and each later call none; returns the calls' bases."""
    calls = []

    def fake_syzygies(basis, context=None):
        calls.append(basis)
        gens = [PolyVector(ZW, tuple(P(ZW, e) for e in column))] if len(calls) == 1 else []
        return SubmoduleBasis(ZW, len(basis.gens), gens)

    monkeypatch.setattr(homalg, "syzygies", fake_syzygies)
    return calls


@pytest.mark.parametrize("minimal", [False, True], ids=["raw", "minimal"])
@pytest.mark.parametrize("quotient", [False, True], ids=["ambient", "quotient"])
@pytest.mark.parametrize("bad", ["1", "w"], ids=["constant", "nonconstant"])
def test_resolution_with_a_non_syzygy_column_still_raises(monkeypatch, minimal, quotient, bad):
    # phi_1 = (z, w) and a second map whose one column (bad, 0) is no
    # syzygy: z * bad != 0, also modulo z^3 - w^2.  A constant bad is a
    # pivot of phi_2, and column 0 of phi_1 phi_2 is z * bad
    ctx = QuotientContext(ZW, Ideal(ZW, (P(ZW, "z^3 - w^2"),))) if quotient else None
    calls = fake_syzygy_column(monkeypatch, (bad, "0"))
    if minimal and bad == "1":
        raises = pytest.raises(
            InvariantError, match="^a unit pivot left a nonzero column in the previous map$"
        )
    else:
        raises = pytest.raises(ValueError, match="^differentials 1 and 2 do not compose to zero$")
    with raises:
        free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))), ctx, minimal=minimal)
    assert len(calls) == 2


@pytest.mark.parametrize("quotient", [False, True], ids=["ambient", "quotient"])
def test_minimal_resolution_with_a_non_syzygy_column_after_a_pivot_raises(monkeypatch, quotient):
    # phi_1 = (1, z) has the pivot 1 and the fake phi_2 = (w, 0) leaves
    # row 0 of phi_1 phi_2 = w
    ctx = QuotientContext(ZW, Ideal(ZW, (P(ZW, "z^3 - w^2"),))) if quotient else None
    calls = fake_syzygy_column(monkeypatch, ("w", "0"))
    with pytest.raises(
        InvariantError, match="^a unit pivot left a nonzero row in the next map$"
    ):
        free_resolution(Ideal(ZW, (ZW.one(), P(ZW, "z"))), ctx, minimal=True)
    assert len(calls) == 2


def test_diff_is_indexed_from_one_to_the_length():
    K = koszul_complex((P(ZW, "z"), P(ZW, "w")))
    assert K.diff(1) == K.diffs[0] and K.diff(K.length) == K.diffs[-1]
    for k in (0, K.length + 1):
        with pytest.raises(IndexError):
            K.diff(k)


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
    codec = XY.default_order.codec(XY.n)

    def divisor(num):
        ((lead, c),) = codec.encode(num).items()
        return (lead, c, {lead: c})

    def exact_quotient(f, g):
        return codec.ring_terms(homalg._exact_quotient(codec.encode(f), g, codec))

    two_xy = divisor({(1, 1): 2})
    assert exact_quotient({(2, 1): 6, (1, 2): -4}, two_xy) == {(1, 0): 3, (0, 1): -2}
    two_x = divisor({(1, 0): 2})
    for f in ({(2, 0): 3}, {(0, 2): 2}, {(2, 0): 2, (0, 0): 1}):
        with pytest.raises(InvariantError):
            exact_quotient(f, two_x)


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


def test_canonical_matrix_sorts_a_zero_column_after_the_columns_led_at_row_one():
    # a zero column's head must compare with every order key: below the
    # columns led at position 0 or 1, above those led further down
    assert canonical_matrix(XY, M(XY, [("0", "0", "x"), ("0", "y", "y")]), 2, 3) == M(
        XY, [("x", "0", "0"), ("y", "y", "0")]
    )


def test_canonical_matrix_puts_a_zero_column_before_a_column_led_at_row_two():
    A = M(XY, [("0", "x", "0"), ("0", "y", "0"), ("0", "0", "x + y")])
    assert canonical_matrix(XY, A, 3, 3) == M(
        XY, [("x", "0", "0"), ("0", "x + y", "0"), ("y", "0", "0")]
    )


def test_canonical_matrix_with_zero_columns_under_a_term_over_position_order():
    top = PolynomialRing(("x", "y"), MonomialOrder("grevlex", "top"))
    A = M(top, [("0", "0", "x"), ("0", "y", "y")])
    assert canonical_matrix(top, A, 2, 3) == M(top, [("x", "0", "0"), ("y", "y", "0")])
    B = M(top, [("0", "x", "0"), ("y", "y", "0")])  # A's columns permuted
    assert matrices_equal_canonically(top, A, B, 2, 3, 2, 3)


# ---------------------------------------------------------------------------
# repeated levels, pairs and canonical forms


def reference_resolution(I, context, cap):
    """free_resolution's loop as it was before levels were reused: one
    syzygies call per level."""
    ring = I.ring
    gens = [context.reduce(g) if context is not None else g for g in I.gens]
    cols = [PolyVector(ring, (g,)) for g in gens if not g.is_zero()]
    ranks, diffs, complete = [1], [], False
    while cols:
        rows = ranks[-1]
        diffs.append(columns_to_matrix(ring, cols, rows))
        ranks.append(len(cols))
        syz = groebner.syzygies(SubmoduleBasis(ring, rows, cols), context=context)
        if not syz.gens:
            complete = True
            break
        if len(diffs) >= cap:
            break
        cols = list(syz.gens)
    else:
        complete = True
    return ChainComplex(ring, ranks, diffs, context=context, complete=complete)


def reference_periodicity(C):
    """detect_periodicity's search as it was before canonical forms were
    kept: matrices_equal_canonically on every comparison."""
    n = C.length
    for offset in range(0, n - 1):
        for period in range(1, n // 2 + 1):
            ks = range(offset + 1, n - period + 1)
            if ks and all(
                matrices_equal_canonically(
                    C.ring,
                    C.diff(k),
                    C.diff(k + period),
                    C.ranks[k - 1],
                    C.ranks[k],
                    C.ranks[k + period - 1],
                    C.ranks[k + period],
                )
                for k in ks
            ):
                return PeriodicityReport(True, offset, period)
    return PeriodicityReport(False)


def _spy(monkeypatch, name):
    """Replace homalg.<name> by a wrapper that records each call's
    positional arguments."""
    calls = []
    original = getattr(homalg, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(homalg, name, spy)
    return calls


def _distinct(items):
    out = []
    for x in items:
        if x not in out:
            out.append(x)
    return out


CURVES = ("z^3 - w^2", "z^2 - w^5")


@pytest.mark.parametrize("curve", CURVES)
def test_resolution_over_a_curve_computes_each_distinct_level_once(monkeypatch, curve):
    ctx = QuotientContext(ZW, Ideal(ZW, (P(ZW, curve),)))
    I = Ideal(ZW, (P(ZW, "z"), P(ZW, "w")))
    ref = reference_resolution(I, ctx, cap=8)
    calls = _spy(monkeypatch, "syzygies")
    C = free_resolution(I, context=ctx, cap=8)
    assert (C.ranks, C.diffs, C.complete) == (ref.ranks, ref.diffs, ref.complete)
    assert not C.complete and C.length == 8
    inputs = [(b.rank, b.gens) for (b,) in calls]
    assert inputs == _distinct(inputs)
    levels = [
        (ref.ranks[k - 1], homalg.mat_columns(ZW, ref.diff(k), ref.ranks[k - 1], ref.ranks[k]))
        for k in range(1, ref.length + 1)
    ]
    assert len(calls) == len(_distinct(levels)) < ref.length


def test_resolution_without_repeated_levels_calls_syzygies_per_level(monkeypatch):
    I = Ideal(XYZ, (P(XYZ, "x^2"), P(XYZ, "x*y"), P(XYZ, "y*z"), P(XYZ, "z^3")))
    ref = reference_resolution(I, None, cap=16)
    calls = _spy(monkeypatch, "syzygies")
    C = free_resolution(I)
    assert (C.ranks, C.diffs, C.complete) == (ref.ranks, ref.diffs, ref.complete)
    assert len(calls) == C.length == 3


def _periodicity_cases():
    xy = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    yield free_resolution(Ideal(XY, (P(XY, "x"),)), context=xy, cap=6)
    diffs = [M(XY, [[s]]) for s in ("x^2", "y", "x", "y", "x")]
    yield ChainComplex(XY, (1,) * 6, diffs, context=xy, complete=False)
    for curve in CURVES:
        ctx = QuotientContext(ZW, Ideal(ZW, (P(ZW, curve),)))
        yield free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))), context=ctx, cap=8)
    # no period
    diffs = [M(XY, [[s]]) for s in ("x", "y", "x^2", "y^2", "x^3", "y^3")]
    yield ChainComplex(XY, (1,) * 7, diffs, context=xy, complete=False)


@pytest.mark.parametrize("case", range(5))
def test_periodicity_matches_the_reference_and_canonicalises_each_map_once(monkeypatch, case):
    C = list(_periodicity_cases())[case]
    calls = _spy(monkeypatch, "canonical_matrix")
    expected = reference_periodicity(C)
    ref_calls = [id(A) for _, A, _, _ in calls]
    calls.clear()
    assert detect_periodicity(C) == expected
    # each map once, first needed at the same point as before
    assert [id(A) for _, A, _, _ in calls] == _distinct(ref_calls)


def test_periodicity_invariant_error_surfaces_at_the_same_map(monkeypatch):
    C = list(_periodicity_cases())[2]
    bad = C.diff(3)
    original = homalg.canonical_matrix

    def fails_on_bad(ring, A, rows, cols):
        if A is bad:
            raise InvariantError("no fixed point")
        seen.append(id(A))
        return original(ring, A, rows, cols)

    monkeypatch.setattr(homalg, "canonical_matrix", fails_on_bad)
    seen = []
    with pytest.raises(InvariantError):
        reference_periodicity(C)
    before = _distinct(seen)
    seen = []
    with pytest.raises(InvariantError):
        detect_periodicity(C)
    assert seen == before


def test_complex_checks_each_distinct_pair_once(monkeypatch):
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    calls = _spy(monkeypatch, "mat_mul")
    diffs = [M(XY, [[s]]) for s in ("x", "y", "x", "y", "x", "y")]
    ChainComplex(XY, (1,) * 7, diffs, context=ctx, complete=False)
    assert len(calls) == 2


def test_last_noncomposing_pair_still_raises_after_repeated_pairs(monkeypatch):
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    diffs = [M(XY, [[s]]) for s in ("x", "y", "x", "y", "x", "x")]
    with pytest.raises(ValueError, match="differentials 5 and 6"):
        ChainComplex(XY, (1,) * 7, diffs, context=ctx, complete=False)


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
