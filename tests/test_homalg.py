import functools
import itertools
import random

import pytest

from residua import groebner, homalg, kernel, polyring
from residua.groebner import (
    Ideal,
    InvariantError,
    QuotientContext,
    SubmoduleBasis,
    dimension,
    ideal_member,
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
    minors,
    minors_ideal,
    proper_intersection_check,
    rank_loci,
    tensor_complexes,
)
from residua.cli import encode, run_script
from residua.polyring import MonomialOrder, Polynomial, PolynomialRing, PolyVector, to_terms

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


def test_minimal_resolution_ends_at_its_last_nonzero_module():
    # (x^2, x^3) = (x^2): the pivot x^3 = x * x^2 leaves a zero second module
    I = Ideal(XYZ, (P(XYZ, "x^2"), P(XYZ, "x^3")))
    C = free_resolution(I)
    assert C.ranks == (1, 2, 1)
    for got in (minimalize(C), free_resolution(I, minimal=True)):
        assert got.ranks == (1, 1) and got.complete
        assert got.diffs == (M(XYZ, [["x^2"]]),)
    rep = cohen_macaulay_check(I)
    assert rep.is_cm and rep.resolution_length == 1 and rep.codim == 1


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


def test_not_locally_minimal_reads_any_local_unit():
    # the raw resolution of (z, w, z^3 - w^2) has a -1 entry, and the tensor
    # product keeps the unit z + 1 of its minimalized left factor
    raw = free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"), P(ZW, "z^3 - w^2"))))
    assert any(e == P(ZW, "-1") for M in raw.diffs for row in M for e in row)
    assert raw.not_locally_minimal
    left = minimalize(ChainComplex(ZW, (1, 1), (M(ZW, [["z + 1"]]),)))
    T = tensor_complexes(left, koszul_complex([P(ZW, "w")]))
    assert left.not_locally_minimal and T.not_locally_minimal
    assert not koszul_complex([P(ZW, "z"), P(ZW, "w")]).not_locally_minimal
    with pytest.raises(AttributeError):
        raw.not_locally_minimal = False


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


def reference_minimalize(C: ChainComplex):
    """The pivot elimination minimalize used to run, kept as the reference:
    rescan from phi_1 for the first constant pivot c at (i, j) of phi_k,
    clear row i with column operations and column j with row operations,
    compensate each operation on phi_{k+1} and phi_{k-1}, require the
    compensated row j of phi_{k+1} and column i of phi_{k-1} to be zero,
    and delete them with row i and column j of phi_k.  Returns the complex
    and the flag the old code passed to it: some nonconstant entry has a
    nonzero constant term."""
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
    return ChainComplex(ring, ranks, diffs, context=ctx, complete=C.complete), flagged


@pytest.mark.parametrize("case", range(18))
def test_minimalization_matches_the_reference(case):
    I, ctx, cap = list(_single_path_cases())[case]
    C = free_resolution(I, ctx, cap)
    ref, flagged = reference_minimalize(C)
    # the reference keeps the trailing levels of rank 0 after the last
    # nonzero module, which a complete minimal complex drops (cases 8, 13)
    n = len(ref.ranks)
    while ref.complete and any(ref.ranks) and ref.ranks[n - 1] == 0:
        n -= 1
    for got in (minimalize(C), free_resolution(I, ctx, cap, minimal=True)):
        assert (got.ranks, got.diffs, got.not_locally_minimal) == (
            ref.ranks[:n], ref.diffs[: n - 1], flagged
        )


def test_minimalize_finds_a_pivot_in_the_normal_form_of_the_schur_complement():
    # over Q[x,y]/(xy) the pivot 1 of [[1, x], [y, 1]] leaves 1 - xy = 1,
    # a second pivot
    node = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    C = ChainComplex(XY, (2, 2), (M(XY, [["1", "x"], ["y", "1"]]),), context=node)
    assert minimalize(C).ranks == reference_minimalize(C)[0].ranks == (0, 0)


def fake_syzygy_column(monkeypatch, column):
    """Make the first syzygy level of free_resolution keep the one column
    given, and each later level none; returns the levels' (rank, inputs)."""
    calls = []

    def fake_level(inputs, rank, context, order, codec, degrees=None):
        calls.append((rank, inputs))
        kept = [to_terms(PolyVector(ZW, tuple(P(ZW, e) for e in column)), codec)] if len(calls) == 1 else []
        return kept, None

    monkeypatch.setattr(groebner, "_syzygy_level", fake_level)
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


def reference_koszul_complex(fs, context=None):
    """koszul_complex as it was before it became a fold of tensor products:
    the lexicographic k-subsets with signs (-1)^l written out."""
    fs = list(fs)
    ring = fs[0].ring
    p = len(fs)
    subsets = [list(itertools.combinations(range(p), k)) for k in range(p + 1)]
    ranks = [len(s) for s in subsets]
    diffs = []
    for k in range(1, p + 1):
        rows = {S: r for r, S in enumerate(subsets[k - 1])}
        M = [[ring.zero() for _ in subsets[k]] for _ in subsets[k - 1]]
        for col, S in enumerate(subsets[k]):
            for l, idx in enumerate(S):
                T = tuple(x for x in S if x != idx)
                sign = 1 if l % 2 == 0 else -1
                M[rows[T]][col] = M[rows[T]][col] + fs[idx] * sign
        diffs.append(tuple(tuple(row) for row in M))
    return ChainComplex(ring, ranks, diffs, context=context, complete=True)


def reference_tensor_complexes(C, D):
    """tensor_complexes as it was before one index per level: block
    offsets, and each block filled by offset arithmetic."""
    ring = C.ring
    nc, nd = C.length, D.length

    def blocks(k):
        out = []
        for p in range(min(k, nc), -1, -1):
            q = k - p
            if 0 <= q <= nd:
                out.append((p, q))
        return out

    def offsets(blist):
        off = {}
        pos = 0
        for p, q in blist:
            off[(p, q)] = pos
            pos += C.rank(p) * D.rank(q)
        return off, pos

    total = nc + nd
    ranks = []
    diffs = []
    prev_blocks = blocks(0)
    prev_off, prev_size = offsets(prev_blocks)
    ranks.append(prev_size)
    for k in range(1, total + 1):
        cur_blocks = blocks(k)
        cur_off, cur_size = offsets(cur_blocks)
        ranks.append(cur_size)
        M = [[ring.zero() for _ in range(cur_size)] for _ in range(prev_size)]
        for p, q in cur_blocks:
            src = cur_off[(p, q)]
            rc, rd = C.rank(p), D.rank(q)
            if p >= 1 and (p - 1, q) in prev_off:
                dst = prev_off[(p - 1, q)]
                phi = C.diff(p)
                for i2 in range(C.rank(p - 1)):
                    for i in range(rc):
                        e = phi[i2][i]
                        if e.is_zero():
                            continue
                        for j in range(rd):
                            M[dst + i2 * rd + j][src + i * rd + j] = (
                                M[dst + i2 * rd + j][src + i * rd + j] + e
                            )
            if q >= 1 and (p, q - 1) in prev_off:
                dst = prev_off[(p, q - 1)]
                psi = D.diff(q)
                sign = 1 if p % 2 == 0 else -1
                rd2 = D.rank(q - 1)
                for j2 in range(rd2):
                    for j in range(rd):
                        e = psi[j2][j]
                        if e.is_zero():
                            continue
                        for i in range(rc):
                            M[dst + i * rd2 + j2][src + i * rd + j] = (
                                M[dst + i * rd2 + j2][src + i * rd + j] + e * sign
                            )
        diffs.append(tuple(tuple(row) for row in M))
        prev_blocks, prev_off, prev_size = cur_blocks, cur_off, cur_size
    return ChainComplex(ring, ranks, diffs, context=C.context, complete=True)


def assert_same_complex(got, ref):
    """Equal ranks, and every entry equal down to its terms' dict order."""
    assert got == ref
    assert [[[list(e.num.items()) for e in row] for row in M] for M in got.diffs] == [
        [[list(e.num.items()) for e in row] for row in M] for M in ref.diffs
    ]


XYZW = PolynomialRing(("x", "y", "z", "w"))
XYZW_NODE = QuotientContext(XYZW, Ideal(XYZW, (P(XYZW, "x*y - z*w"),)))


def random_tuple(rng, size):
    """size seeded polynomials of Q[x,y,z,w], about one in four zero."""
    return tuple(
        XYZW.zero() if rng.random() < 0.25 else random_nonzero_poly(rng, XYZW, 2, 3)
        for _ in range(size)
    )


@pytest.mark.parametrize("context", [None, XYZW_NODE], ids=["free", "quotient"])
def test_koszul_matches_reference_on_seeded_tuples(context):
    rng = random.Random(71)
    for size in range(1, 6):
        for _ in range(10):
            fs = random_tuple(rng, size)
            assert_same_complex(
                koszul_complex(fs, context), reference_koszul_complex(fs, context)
            )


@pytest.mark.parametrize("context", [None, XYZW_NODE], ids=["free", "quotient"])
def test_tensor_matches_reference_on_seeded_complexes(context):
    rng = random.Random(73)
    for _ in range(6):
        A = koszul_complex(random_tuple(rng, rng.randint(1, 3)), context)
        B = koszul_complex(random_tuple(rng, rng.randint(1, 3)), context)
        assert_same_complex(tensor_complexes(A, B), reference_tensor_complexes(A, B))
    # over the node, x + y, z - w is a regular sequence: a finite resolution
    gens = ("x + y", "z - w") if context else ("x^2", "x*y", "z*w")
    C = free_resolution(Ideal(XYZW, tuple(P(XYZW, g) for g in gens)), context=context)
    assert C.complete and C.length >= 2
    for _ in range(3):
        K = koszul_complex(random_tuple(rng, rng.randint(1, 2)), context)
        assert_same_complex(tensor_complexes(C, K), reference_tensor_complexes(C, K))
        assert_same_complex(tensor_complexes(K, C), reference_tensor_complexes(K, C))


def test_tensor_matches_reference_with_a_length_zero_factor_and_a_rank_zero_level():
    K = koszul_complex((P(XYZW, "x"), P(XYZW, "y - w")))
    point = ChainComplex(XYZW, (2,), ())
    nothing = ChainComplex(XYZW, (0,), ())
    gap = ChainComplex(XYZW, (1, 0, 1), (((),), ()))
    for A in (point, nothing, gap):
        for C, D in ((A, K), (K, A), (A, A)):
            assert_same_complex(tensor_complexes(C, D), reference_tensor_complexes(C, D))


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
    assert len(minors(XYZ, M(XYZ, [["x", "y", "z", "x + y"]]), 1, 4, 1)) == 4
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
    by_2xy = groebner._exact_divider(P(XY, "2*x*y"))
    assert by_2xy(P(XY, "6*x^2*y - 4*x*y^2")) == P(XY, "3*x - 2*y")
    assert by_2xy(XY.zero()) == XY.zero()
    assert groebner._exact_divider(P(XY, "2*x"))(P(XY, "3*x^2")) == P(XY, "3/2*x")
    for f, g in (("y^2", "x"), ("2*x^2 + 1", "2*x")):
        with pytest.raises(InvariantError):
            groebner._exact_divider(P(XY, g))(P(XY, f))


def test_generic_rank_forms_no_zero_product_and_encodes_each_pivot_once(monkeypatch):
    C = _cube_resolution()
    steps = []
    zero_operands = []
    encode, mul, sub = polyring.kernel_divisors, Polynomial.__mul__, Polynomial.__sub__

    def kernel_divisors(elements, codec):
        steps.append(elements)
        return encode(elements, codec)

    def spy(op):
        def wrapped(a, b):
            if a.is_zero() or b == 0:
                zero_operands.append((op.__name__, a, b))
            return op(a, b)

        return wrapped

    monkeypatch.setattr(polyring, "kernel_divisors", kernel_divisors)
    monkeypatch.setattr(Polynomial, "__mul__", spy(mul))
    monkeypatch.setattr(Polynomial, "__sub__", spy(sub))
    ranks = [generic_rank(XYZ, C.diff(k), C.ranks[k - 1], C.ranks[k]) for k in (1, 2, 3)]
    assert ranks == [1, 9, 6] and not zero_operands
    # one encoding per pivot: the rank of each level
    assert len(steps) == sum(ranks)


def test_minors_reject_a_matrix_smaller_than_the_shape_asked_for():
    x, y = XY.gens()
    with pytest.raises(ValueError, match="2 x 2"):
        homalg.determinant(XY, ((x,),), 2)
    with pytest.raises(ValueError, match="2 x 2"):
        minors(XY, ((x, y),), 2, 2, 1)
    # a wider or taller matrix is cut to its leading block
    assert homalg.determinant(XY, ((x, y), (y, x), (x, x)), 2) == P(XY, "x^2 - y^2")


def _power(ring, var, e):
    return Polynomial(ring, {tuple(e if i == var else 0 for i in range(ring.n)): 1})


def test_determinant_exponents_beyond_the_engine_limit():
    # 2^62 is past the packed order key's limit of 2^60; the minors pack
    # their exponents at a width of their own
    x62, y3 = _power(XYZ, 0, 2**62), _power(XYZ, 1, 3)
    zero = XYZ.zero()
    det = homalg.determinant(XYZ, ((x62, zero), (zero, y3)), 2)
    assert det.terms == {(2**62, 3, 0): 1}


@pytest.mark.parametrize("var, e", [(0, 2**62), (1, 2), (2, 1), (1, 3)])
def test_minor_exponents_fill_the_packing_width(var, e):
    # the square of x_var^e reaches r * e_max exactly, the largest exponent
    # the width must hold; one bit less carries it into the next field
    p, zero = _power(XYZ, var, e), XYZ.zero()
    square = _power(XYZ, var, 2 * e)
    assert homalg.determinant(XYZ, ((p, zero), (zero, p)), 2) == square
    # the one nonzero 2-minor is -square, monic square
    lead = tuple(2 * e if i == var else 0 for i in range(3))
    assert minors(XYZ, ((zero, p, zero), (p, zero, zero)), 2, 3, 2) == [(square, lead)]


def test_rank_loci_of_the_cube_stores_only_expanded_sub_minors(monkeypatch):
    # the cube resolution of the CI step, generators x^a y^b z^(3-a-b) in
    # that order: the tuple-keyed memo stored 37,400 sub-minors, 30,148 of
    # them zero; blocks with an empty row or column are no longer expanded
    gens = [P(XYZ, f"x^{a}*y^{b}*z^{3 - a - b}") for a in range(4) for b in range(4 - a)]
    C = free_resolution(Ideal(XYZ, gens), minimal=True)
    tables = []

    class Counted(kernel.MinorTable):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(kernel, "MinorTable", Counted)
    rank_loci(C)
    stored = [d for table in tables for d in table.memo.values()]
    assert (len(stored), sum(1 for d in stored if not d)) == (12701, 5449)
    assert all(d is kernel.ZERO for d in stored if not d)


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


def reference_containments(d):
    """Whether each locus of d lies in the next, by generator membership
    in a fresh copy of the next locus (no cached basis), None where
    rank_loci skips the test."""
    out = []
    for k in range(len(d.loci) - 1):
        a, b = d.loci[k], d.loci[k + 1]
        if not a.gens or not b.gens or groebner.INFINITE_CODIM in d.codims[k : k + 2]:
            out.append(None)
        else:
            out.append(all(ideal_member(g, Ideal(b.ring, b.gens)) for g in a.gens))
    return tuple(out)


def spy_ideal_member(monkeypatch):
    """Count the ideal_member calls of rank_loci."""
    calls = []
    member = homalg.ideal_member

    def counted(g, b):
        calls.append((g, b))
        return member(g, b)

    monkeypatch.setattr(homalg, "ideal_member", counted)
    return calls


def test_containments_by_degree_match_membership_on_homogeneous_complexes(monkeypatch):
    rng = random.Random(24)
    monomials = [m for m in itertools.product(range(4), repeat=3) if 1 <= sum(m) <= 3]
    complexes = []
    for _ in range(8):
        gens = [
            XYZ.poly("*".join(f"{v}^{e}" for v, e in zip("xyz", m)))
            for m in rng.sample(monomials, rng.randint(2, 5))
        ]
        complexes.append(free_resolution(Ideal(XYZ, gens), minimal=True))
    # homogeneous binomials, and a regular sequence of mixed degrees
    (binomials,) = M(XYZ, [["x^2 - y*z", "x*y - z^2", "y^2 - x*z"]])
    complexes.append(free_resolution(Ideal(XYZ, binomials), minimal=True))
    complexes.append(koszul_complex(M(XYZ, [["x", "y^2", "z^3"]])[0]))
    calls = spy_ideal_member(monkeypatch)
    seen, by_degree = [], 0
    for C in complexes:
        del calls[:]
        d = rank_loci(C)
        assert d.containments == reference_containments(d)
        seen += d.containments
        # a False that no membership test against the next locus decided
        by_degree += sum(
            c is False and not any(b is d.loci[k + 1] for _, b in calls)
            for k, c in enumerate(d.containments)
        )
    assert True in seen and False in seen and by_degree


def test_containments_over_a_quotient_by_a_non_homogeneous_curve():
    # every locus holds the relation y^2 - x^3 - x^2, which is not
    # homogeneous, so no containment is decided by degree
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "y^2 - x^3 - x^2"),)))
    seen = []
    for gens in (("x", "y"), ("x^2", "y"), ("x", "y^2")):
        C = free_resolution(Ideal(XY, tuple(P(XY, g) for g in gens)), context=ctx, cap=4)
        d = rank_loci(C)
        assert d.containments == reference_containments(d)
        seen += d.containments
    assert True in seen and False in seen


def test_containment_by_degree_of_a_mixed_degree_locus(monkeypatch):
    # locus 2 of the Koszul complex of (x, y^2, z^3) is (x, y^2, z^3)^2, of
    # generator degrees 2 to 6: x lies below all of them, so locus 1 is not
    # inside it; locus 3 is (x, y^2, z^3) again, and locus 2 lies in it
    calls = spy_ideal_member(monkeypatch)
    d = rank_loci(koszul_complex(M(XYZ, [["x", "y^2", "z^3"]])[0]))
    assert sorted({g.total_degree() for g in d.loci[1].gens}) == [2, 3, 4, 5, 6]
    assert d.containments == reference_containments(d) == (False, True)
    # only locus 2 is tested, generator by generator, against locus 3
    assert [b for _, b in calls] == [d.loci[2]] * len(d.loci[1].gens)
    degrees = homalg._generator_degrees
    x, y = XY.gens()
    # the least degree of b decides: x^2 lies in (x, y^3) below its top degree
    a, b = Ideal(XY, (x**2,)), Ideal(XY, (x, y**3))
    assert homalg._contained(a, b, degrees(a), degrees(b))
    # b is not homogeneous: x = (x^2 + x) - x^2 lies in b although every
    # generator of b has top degree 2
    a, b = Ideal(XY, (x,)), Ideal(XY, (x**2 + x, x**2))
    assert degrees(b) == (None, 2)
    assert homalg._contained(a, b, degrees(a), degrees(b))
    # a homogeneous b and a generator of a below its degrees
    a, b = Ideal(XY, (x + y, x**3 + y)), Ideal(XY, (x**2, y**3))
    assert degrees(a) == (1, None)
    del calls[:]
    assert not homalg._contained(a, b, degrees(a), degrees(b))
    assert not calls


def spy_bases(monkeypatch):
    """Count the generators of each Groebner basis groebner builds."""
    built = []
    engine = groebner._ideal_groebner

    def spy(gens, order, rank):
        built.append(len(gens))
        return engine(gens, order, rank)

    monkeypatch.setattr(groebner, "_ideal_groebner", spy)
    return built


def test_rank_loci_of_the_cube_builds_only_the_last_locus_basis(monkeypatch):
    built = spy_bases(monkeypatch)
    d = rank_loci(_cube_resolution())
    assert tuple(len(I.gens) for I in d.loci) == (10, 55, 28)
    # locus 1 (cubics) lies below the degree 9 of every generator of locus
    # 2, so only the membership of locus 2 in locus 3 builds a basis
    assert d.containments == (False, True)
    assert built == [28]


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


def test_exactness_criterion_builds_no_basis_where_the_certificate_settles(monkeypatch):
    # each codim is certified_dimension of the level's locus: the lead
    # supports of the minors and the term supports of the entries both
    # have cover number 3, so no Groebner basis is built
    C = _cube_resolution()
    built = spy_bases(monkeypatch)
    rep = buchsbaum_eisenbud_check(C)
    assert tuple(level.codim for level in rep.levels) == (3, 3, 3)
    row = ChainComplex(XYZ, (1, 4), (M(XYZ, [["x", "y", "z", "x + y"]]),))
    assert buchsbaum_eisenbud_check(row).levels[0].codim == 3
    assert not built


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


def _spy_levels(monkeypatch):
    """Record (rank, engine inputs, context) of each syzygy level that
    groebner._syzygy_level computes."""
    calls = []
    original = groebner._syzygy_level

    def spy(inputs, rank, context, order, codec, degrees=None):
        calls.append((rank, inputs, context))
        return original(inputs, rank, context, order, codec, degrees)

    monkeypatch.setattr(groebner, "_syzygy_level", spy)
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
    calls = _spy_levels(monkeypatch)
    C = free_resolution(I, context=ctx, cap=8)
    assert (C.ranks, C.diffs, C.complete) == (ref.ranks, ref.diffs, ref.complete)
    assert not C.complete and C.length == 8
    inputs = [(rank, gens) for rank, gens, _ in calls]
    assert inputs == _distinct(inputs)
    levels = [
        (ref.ranks[k - 1], homalg.mat_columns(ZW, ref.diff(k), ref.ranks[k - 1], ref.ranks[k]))
        for k in range(1, ref.length + 1)
    ]
    assert len(calls) == len(_distinct(levels)) < ref.length


def test_resolution_without_repeated_levels_calls_syzygies_per_level(monkeypatch):
    I = Ideal(XYZ, (P(XYZ, "x^2"), P(XYZ, "x*y"), P(XYZ, "y*z"), P(XYZ, "z^3")))
    ref = reference_resolution(I, None, cap=16)
    calls = _spy_levels(monkeypatch)
    C = free_resolution(I)
    assert (C.ranks, C.diffs, C.complete) == (ref.ranks, ref.diffs, ref.complete)
    assert len(calls) == C.length == 3


def test_readme_cusp_resolution_takes_three_syzygy_computations(monkeypatch):
    # (z, w) over z^3 = w^2 with cap 8, as the README gives it, in a call
    # and in a script
    calls = _spy_levels(monkeypatch)
    cusp = QuotientContext(ZW, Ideal(ZW, (P(ZW, "z^3 - w^2"),)))
    C = free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))), context=cusp, cap=8)
    assert C.length == 8 and len(calls) == 3
    calls.clear()
    assert run_script("resolve((z, w), over Q[z,w]/(z^3 - w^2), cap=8)")[0] == 0
    assert len(calls) == 3


RECIPE_SCRIPT = """ring R = Q[z,w]
quotient Z = R/(z^3 - w^2)
ideal J = Z:(z^2, w)
recipe X = recipe(Z, J)
"""
RESOLVE_AGAIN = "E = resolve((z^2, w, z^3 - w^2), over R, minimal=true)\n"


def test_script_resolving_what_its_recipe_resolved_computes_no_level_again(monkeypatch):
    calls = _spy_levels(monkeypatch)
    assert run_script(RECIPE_SCRIPT)[0] == 0
    recipe_levels = list(calls)
    calls.clear()
    code, _, doc = run_script(RECIPE_SCRIPT + RESOLVE_AGAIN)
    assert code == 0 and list(calls) == recipe_levels == _distinct(recipe_levels)
    # the answer is the resolution a call outside any script computes
    E = free_resolution(
        Ideal(ZW, (P(ZW, "z^2"), P(ZW, "w"), P(ZW, "z^3 - w^2"))), minimal=True
    )
    assert doc["statements"][-1]["result"] == encode(E)


def test_each_script_and_each_call_outside_one_computes_its_own_levels(monkeypatch):
    calls = _spy_levels(monkeypatch)
    first = run_script(RECIPE_SCRIPT + RESOLVE_AGAIN)
    n = len(calls)
    assert n > 0
    calls.clear()
    assert run_script(RECIPE_SCRIPT + RESOLVE_AGAIN) == first
    assert len(calls) == n
    # the script's levels are gone once it ends
    I = Ideal(ZW, (P(ZW, "z^2"), P(ZW, "w"), P(ZW, "z^3 - w^2")))
    counts = []
    for _ in range(2):
        calls.clear()
        C = free_resolution(I, minimal=True)
        counts.append(len(calls))
    assert C.ranks == (1, 2, 1) and counts[0] == counts[1] > 0


def test_a_statement_that_raises_leaves_later_answers_unchanged(monkeypatch):
    # the first resolve stops at its third level, after two levels went
    # into the script's scope; the same resolve later reuses them
    script = (
        "ring R = Q[z,w]\n"
        "quotient Z = R/(z^3 - w^2)\n"
        "resolve((z, w), over Z, cap=6)\n"
        "ideal J = Z:(z, w)\n"
        "recipe X = recipe(Z, J)\n"
        "resolve((z, w), over Z, cap=6)\n"
        "period(last)\n"
    )
    code, _, clean = run_script(script)
    assert code == 0
    original = groebner._syzygy_level
    count = itertools.count(1)

    def fails_third(*args):
        if next(count) == 3:
            raise ValueError("injected failure")
        return original(*args)

    monkeypatch.setattr(groebner, "_syzygy_level", fails_third)
    code, lines, doc = run_script(script)
    assert code == 1 and lines[0] == "3: error: injected failure"
    assert doc["statements"][1:] == clean["statements"][1:]


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
    calls = _spy(monkeypatch, "product_vanishes")
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
    # on every pass; canonical_matrix keys each entry once per call, so a
    # scaling that builds new entries on every pass asks for fresh keys
    counter = itertools.count()
    monkeypatch.setattr(homalg, "_poly_sort_key", lambda p, order: ((next(counter), 1),))
    monkeypatch.setattr(PolyVector, "monic", lambda v, order=None: v.scale(1))
    with pytest.raises(InvariantError, match="no fixed point in 8 passes"):
        canonical_matrix(XY, M(XY, [["x", "1"], ["x", "2"]]), 2, 2)


def test_mat_mul_zero_sizes():
    assert mat_mul(XY, (), (), 0, 0, 0) == ()
    A = M(XY, [["x", "y"]])
    B = M(XY, [["y"], ["x"]])
    prod = mat_mul(XY, A, B, 1, 2, 1)
    assert prod[0][0] == P(XY, "2*x*y")
