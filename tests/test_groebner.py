"""Groebner engine: bases, membership, syzygies, ideal arithmetic, dimension."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    level_args,
    random_nonzero_poly,
    random_poly,
    reference_candidates,
    reference_syzygies_termmaps,
)
from residua import groebner, kernel, polyring
from residua.homalg import free_resolution
from residua.groebner import (
    INFINITE_CODIM,
    Ideal,
    ModuleLifter,
    QuotientContext,
    SubmoduleBasis,
    dimension,
    elimination,
    groebner_basis,
    ideal_intersect,
    ideal_member,
    ideal_quotient,
    ideals_equal,
    lifted_ideal,
    module_lift,
    module_member,
    normal_form,
    saturation,
    syzygies,
)
from residua.polyring import (
    LEX,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    PolyVector,
    divide,
    from_terms,
    to_terms,
)

R2 = PolynomialRing(("x", "y"))
R3 = PolynomialRing(("x", "y", "z"))
R4 = PolynomialRing(("x", "y", "z", "w"))
RZW = PolynomialRing(("z", "w"))


def spoly(f, g, order):
    lmf, lcf = f.leading(order)
    lmg, lcg = g.leading(order)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = Polynomial(f.ring, {tuple(a - b for a, b in zip(lcm, lmf)): Fraction(1, 1) / lcf})
    mg = Polynomial(g.ring, {tuple(a - b for a, b in zip(lcm, lmg)): Fraction(1, 1) / lcg})
    return mf * f - mg * g


def assert_reduced_gb(gb, order):
    for g in gb:
        assert g.lc(order) == 1
    for i, g in enumerate(gb):
        others = [h for j, h in enumerate(gb) if j != i]
        if not others:
            continue
        # no term of g divisible by another lead
        for m in g.terms:
            for h in others:
                assert not all(a <= b for a, b in zip(h.lm(order), m))
    # descending leads
    keys = [order.ring_key(g.lm(order)) for g in gb]
    assert keys == sorted(keys, reverse=True)


# ---------------------------------------------------------------------------
# bases


def test_twisted_cubic_basis():
    I = Ideal(R3, (R3.poly("y - x^2"), R3.poly("z - x^3")))
    gb = I.groebner()
    assert [str(g) for g in gb] == ["x^2 - y", "x*y - z", "y^2 - x*z"]
    assert_reduced_gb(gb, R3.default_order)


def test_redundant_generator_collapses():
    I = Ideal(RZW, (RZW.poly("z"), RZW.poly("w"), RZW.poly("z^3 - w^2")))
    assert [str(g) for g in I.groebner()] == ["z", "w"]


def test_buchberger_certificates_randomized():
    rng = random.Random(11)
    for _ in range(25):
        gens = [random_nonzero_poly(rng, R2) for _ in range(rng.randint(1, 3))]
        I = Ideal(R2, gens)
        gb = list(I.groebner())
        assert_reduced_gb(gb, R2.default_order)
        # every S-pair reduces to zero, every generator reduces to zero
        for f, g in itertools.combinations(gb, 2):
            assert normal_form(spoly(f, g, R2.default_order), gb).is_zero()
        for f in gens:
            assert normal_form(f, gb).is_zero()


def test_basis_deterministic_under_input_shuffle():
    rng = random.Random(4)
    gens = [R3.poly(s) for s in ("x*y - z^2", "x^2 - y*z", "y^2 - x*z", "x + y + z")]
    reference = Ideal(R3, gens).groebner()
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert Ideal(R3, shuffled).groebner() == reference


def test_empty_and_unit_ideals():
    assert Ideal(R2, ()).groebner() == ()
    assert Ideal(R2, (R2.zero(),)).gens == ()
    gb = Ideal(R2, (R2.poly("x"), R2.poly("x + 1"))).groebner()
    assert [str(g) for g in gb] == ["1"]


# ---------------------------------------------------------------------------
# normal forms and membership


def test_normal_form_idempotent_randomized():
    rng = random.Random(42)
    I = Ideal(R2, (R2.poly("x^2 - y"), R2.poly("x*y - 1")))
    gb = list(I.groebner())
    for _ in range(50):
        f = random_poly(rng, R2, max_deg=5)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r


def test_normal_form_reuses_the_divisors_of_an_engine_basis(monkeypatch):
    # the basis keeps its packed divisors for the default order's codec:
    # normal_form packs only f; under lex, or for a copied basis, it packs
    # every element again and answers the same
    I = Ideal(R2, (R2.poly("x^2 - y"), R2.poly("x*y - 1")))
    gb = list(I.groebner())
    copies = [Polynomial(R2, g.terms) for g in gb]
    packed = []
    real = polyring.to_terms

    def spy(x, codec):
        packed.append(x)
        return real(x, codec)

    monkeypatch.setattr(polyring, "to_terms", spy)
    monkeypatch.setattr(groebner, "to_terms", spy)
    f = R2.poly("x^3*y^2 + 2*x*y - y^3")
    r = normal_form(f, gb)
    assert packed == [f]
    assert normal_form(f, copies) == r
    assert len(packed) == 2 + len(gb)
    lex = normal_form(f, gb, LEX)
    assert lex == normal_form(f, copies, LEX)


def test_rank_one_module_basis_matches_the_ideal_basis():
    gens = [R2.poly("x^2 - y"), R2.poly("x*y - 1")]
    vecs = groebner_basis(SubmoduleBasis(R2, 1, [PolyVector(R2, (g,)) for g in gens]))
    assert [v.entries[0] for v in vecs] == groebner_basis(Ideal(R2, gens))


def test_normal_form_through_context():
    ctx = QuotientContext(R2, Ideal(R2, (R2.poly("x*y"),)))
    gb = list(Ideal(R2, (R2.poly("x*y"),)).groebner())
    assert normal_form(R2.poly("x^2*y"), gb, context=ctx).is_zero()
    assert normal_form(R2.poly("x^2*y + x"), [], context=ctx) == R2.poly("x")


def test_membership_constructed_randomized():
    rng = random.Random(8)
    I = Ideal(R3, (R3.poly("x*z"), R3.poly("y*z")))
    for _ in range(60):
        member = R3.zero()
        for g in I.gens:
            member = member + random_poly(rng, R3) * g
        assert ideal_member(member, I)
        assert not ideal_member(member + 1, I)


def test_membership_over_quotient():
    ctx = QuotientContext(R2, Ideal(R2, (R2.poly("x*y"),)))
    J = Ideal(R2, (R2.poly("x"),))
    assert ideal_member(R2.poly("x*y^5"), J, ctx)  # falls into the relations
    assert not ideal_member(R2.poly("y"), J, ctx)
    assert ideals_equal(lifted_ideal(J, ctx), Ideal(R2, (R2.poly("x"), R2.poly("x*y"))))


# ---------------------------------------------------------------------------
# syzygies


def brute_syzygies(gens, max_deg, context=None):
    """Nullspace search for syzygies with coefficients of total degree <= max_deg."""
    ring = gens[0].ring
    monos = [
        m
        for m in itertools.product(range(max_deg + 1), repeat=ring.n)
        if sum(m) <= max_deg
    ]
    monos.sort()
    unknowns = [(i, m) for i in range(len(gens)) for m in monos]
    rows = {}
    for col, (i, m) in enumerate(unknowns):
        prod = Polynomial(ring, {m: Fraction(1)}) * gens[i]
        if context is not None:
            prod = context.reduce(prod)
        for mono, c in prod.terms.items():
            rows.setdefault(mono, {})[col] = c
    matrix = [[row.get(c, Fraction(0)) for c in range(len(unknowns))] for row in rows.values()]
    basis = nullspace(matrix, len(unknowns))
    out = []
    for vec in basis:
        entries = [ring.zero()] * len(gens)
        for col, c in enumerate(vec):
            if c:
                i, m = unknowns[col]
                entries[i] = entries[i] + Polynomial(ring, {m: c})
        out.append(PolyVector(ring, tuple(entries)))
    return out


def nullspace(matrix, ncols):
    """Basis of the nullspace of a matrix over Q (Gauss-Jordan)."""
    rows = [row[:] for row in matrix]
    pivots = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[c] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][c]
        basis.append(vec)
    return basis


def test_syzygy_of_coordinate_pair():
    syz = syzygies(Ideal(RZW, (RZW.poly("z"), RZW.poly("w"))))
    assert len(syz.gens) == 1
    assert syz.gens[0] == PolyVector(RZW, (RZW.poly("w"), RZW.poly("-z")))
    # same module as the sign-flipped version
    flipped = PolyVector(RZW, (RZW.poly("-w"), RZW.poly("z")))
    assert module_member(flipped, syz)


def test_syzygy_of_nonzerodivisor_is_zero():
    syz = syzygies(Ideal(R2, (R2.poly("x^2 + y^2 + 1"),)))
    assert syz.gens == ()


def test_syzygies_vanish_on_generators_randomized():
    rng = random.Random(17)
    for _ in range(20):
        gens = [random_nonzero_poly(rng, R2) for _ in range(rng.randint(2, 3))]
        syz = syzygies(Ideal(R2, gens))
        for v in syz.gens:
            acc = R2.zero()
            for coeff, g in zip(v.entries, gens):
                acc = acc + coeff * g
            assert acc.is_zero()


def test_syzygy_completeness_brute_force():
    gens = [R3.poly("x*z"), R3.poly("y*z"), R3.poly("x*y")]
    syz = syzygies(Ideal(R3, gens))
    for v in brute_syzygies(gens, 4):
        assert module_member(v, syz)


def test_quotient_syzygy_of_x_mod_xy():
    ctx = QuotientContext(R2, Ideal(R2, (R2.poly("x*y"),)))
    syz = syzygies(Ideal(R2, (R2.poly("x"),)), context=ctx)
    assert [str(v) for v in syz.gens] == ["(y)"]


def test_quotient_syzygies_vanish_and_complete():
    ctx = QuotientContext(R2, Ideal(R2, (R2.poly("x*y"),)))
    gens = [R2.poly("x + y"), R2.poly("x^2")]
    syz = syzygies(Ideal(R2, gens), context=ctx)
    for v in syz.gens:
        acc = R2.zero()
        for coeff, g in zip(v.entries, gens):
            acc = acc + coeff * g
        assert ctx.reduce(acc).is_zero()
    for v in brute_syzygies(gens, 4, context=ctx):
        assert module_member(v, syz, context=ctx)


def test_module_syzygies():
    # columns of [[x],[y]] have no relations; [[x,x]] twice has the obvious one
    v1 = PolyVector(R2, (R2.poly("x"), R2.poly("y")))
    assert syzygies(SubmoduleBasis(R2, 2, (v1,))).gens == ()
    v2 = PolyVector(R2, (R2.poly("x"), R2.poly("x")))
    syz = syzygies(SubmoduleBasis(R2, 2, (v1 + v2, v1 + v2)))
    assert len(syz.gens) == 1
    assert syz.gens[0] == PolyVector(R2, (R2.poly("1"), R2.poly("-1")))


# ---------------------------------------------------------------------------
# pruning of syzygy candidates


def loop_prune(cands, ring, rank, context=None):
    """The per-candidate pruning loop of syzygies, kept as the reference:
    drop a candidate when the kept ones before it and all after it
    generate it (one module Groebner basis per candidate)."""
    kept = []
    for i, v in enumerate(cands):
        others = kept + cands[i + 1 :]
        if others and module_member(v, SubmoduleBasis(ring, rank, others), context):
            continue
        kept.append(v)
    return kept


def spy_graded(monkeypatch, ring):
    """Record (candidates, shifts, result) of every graded-prune call, the
    candidates (term map, lead coefficient) turned into PolyVectors over
    ring."""
    calls = []
    real = groebner._graded_prune

    def spy(cands, codec, rank, shifts):
        out = real(cands, codec, rank, shifts)
        zero = PolyVector(ring, [ring.zero()] * rank)
        vecs = None if out is None else [from_terms(zero, *cand, codec) for cand in out]
        calls.append(([from_terms(zero, *cand, codec) for cand in cands], shifts, vecs))
        return out

    monkeypatch.setattr(groebner, "_graded_prune", spy)
    return calls


def count_module_member(monkeypatch):
    calls = []
    real = groebner._member_terms

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_member_terms", counted)
    return calls


def loop_syzygies(monkeypatch, obj, context=None):
    """syzygies with the graded test switched off."""
    with monkeypatch.context() as m:
        m.setattr(groebner, "_graded_prune", lambda *args: None)
        return syzygies(obj, context)


def shifted_degree(v, shifts):
    degrees = {
        sum(m) + shifts[pos] for pos, p in enumerate(v.entries) for m in p.terms
    }
    assert len(degrees) == 1
    return degrees.pop()


def graded_syzygies(monkeypatch, obj):
    """syzygies of obj through the graded test, checked against the loop:
    same generators in the same order, and no module_member call.
    Returns (candidates, shifts, syzygies)."""
    calls = spy_graded(monkeypatch, obj.ring)
    members = count_module_member(monkeypatch)
    syz = syzygies(obj)
    assert len(calls) == 1
    cands, shifts, out = calls[0]
    assert out is not None and not members
    assert list(syz.gens) == out == loop_prune(cands, obj.ring, len(obj.gens))
    assert syz.gens == loop_syzygies(monkeypatch, obj).gens
    return cands, shifts, syz


def dropped_by(cands, shifts, kept, ring, rank):
    """For each dropped candidate: (in the submodule of the lower-degree
    candidates, in the submodule of the other same-degree candidates)."""
    out = []
    for v in cands:
        if v in kept:
            continue
        d = shifted_degree(v, shifts)
        lower = [w for w in cands if shifted_degree(w, shifts) < d]
        same = [w for w in cands if w is not v and shifted_degree(w, shifts) == d]
        out.append(
            (
                bool(lower) and module_member(v, SubmoduleBasis(ring, rank, lower)),
                bool(same) and module_member(v, SubmoduleBasis(ring, rank, same)),
            )
        )
    return out


def every_candidate(I, shifts, syz):
    """The candidates of I's level that the frozen reference forms, none
    of them left out, as PolyVectors: _graded_prune keeps the level's
    generators from them too (it does not depend on the level's
    filters)."""
    inputs, rank, _, order, codec = level_args(I)
    old, sch, _ = reference_candidates(inputs, rank, None, order, codec)
    zero = PolyVector(I.ring, [I.ring.zero()] * len(I.gens))
    kept = groebner._graded_prune(old, sch, len(I.gens), shifts)
    assert [from_terms(zero, *cand, sch) for cand in kept] == list(syz.gens)
    return [from_terms(zero, *cand, sch) for cand in old]


def test_graded_prune_drops_by_normal_form(monkeypatch):
    # y^2 e1 - x^2 e3 = y*(y e1 - x e2) + x*(y e2 - x e3): redundant only
    # through the degree-3 syzygies, and alone in degree 4.  Its lead y^2 e1
    # is a proper multiple of y e1, so the level no longer forms it; the
    # candidate list that still holds it goes to _graded_prune directly
    I = Ideal(R4, [R4.poly("x^2"), R4.poly("x*y"), R4.poly("y^2")])
    cands, shifts, syz = graded_syzygies(monkeypatch, I)
    assert [str(v) for v in syz.gens] == ["(y, -x, 0)", "(0, y, -x)"]
    formed = [str(v) for v in cands]
    assert "(y^2, 0, -x^2)" not in formed
    old = every_candidate(I, shifts, syz)
    assert [str(v) for v in old] == ["(y^2, 0, -x^2)"] + formed
    assert dropped_by(old, shifts, syz.gens, R4, 3) == [(True, False)]


def test_graded_prune_drops_by_linear_algebra(monkeypatch):
    # the three Koszul-type syzygies of (xy, xz, yz) all have degree 3
    # and sum to zero: no lower-degree candidate, a Q-linear relation.
    # Two of them share the lead z e1, so the level drops the first after
    # the sort, and the list that still holds it goes to _graded_prune
    I = Ideal(R4, [R4.poly("x*y"), R4.poly("x*z"), R4.poly("y*z")])
    cands, shifts, syz = graded_syzygies(monkeypatch, I)
    assert len(cands) == 2 and len(syz.gens) == 2
    old = every_candidate(I, shifts, syz)
    assert len(old) == 3 and len({shifted_degree(v, shifts) for v in old}) == 1
    assert dropped_by(old, shifts, syz.gens, R4, 3) == [(False, True)]


def test_graded_prune_drops_by_both_steps(monkeypatch):
    # redundant modulo the degree-3 syzygy plus a Q-combination of the
    # other degree-4 candidates, and by neither alone
    I = Ideal(R4, [R4.poly("x*y + z*w"), R4.poly("x*z"), R4.poly("y*z")])
    _, shifts, syz = graded_syzygies(monkeypatch, I)
    assert (False, False) in dropped_by(every_candidate(I, shifts, syz), shifts, syz.gens, R4, 3)


def test_inhomogeneous_candidates_take_the_loop(monkeypatch):
    gens = [RZW.poly("z^3 - w^2"), RZW.poly("z*w"), RZW.poly("w^3")]
    calls = spy_graded(monkeypatch, RZW)
    members = count_module_member(monkeypatch)
    syz = syzygies(Ideal(RZW, gens))
    assert [out for _, _, out in calls] == [None]
    assert members
    cands = calls[0][0]
    assert list(syz.gens) == loop_prune(cands, RZW, 3)
    assert syz.gens == loop_syzygies(monkeypatch, Ideal(RZW, gens)).gens


def test_context_takes_the_loop(monkeypatch):
    ctx = QuotientContext(R3, Ideal(R3, (R3.poly("x*y - z^2"),)))
    gens = [R3.poly("x^2"), R3.poly("x*z"), R3.poly("y*z")]
    calls = spy_graded(monkeypatch, R3)
    members = count_module_member(monkeypatch)
    syz = syzygies(Ideal(R3, gens), context=ctx)
    assert not calls and members
    # each membership test carries the context's relation multiples, moved
    # into the Schreyer codec: the maps a direct encode there makes
    assert all(rel == groebner._relation_terms(ctx, rank, codec) for _, _, rank, codec, rel in members)
    assert syz.gens == loop_syzygies(monkeypatch, Ideal(R3, gens), ctx).gens


def count_codecs(monkeypatch):
    """The order of every kernel codec asked for while patched: of an
    order, or of a Schreyer order from its parent's codec (its leads)."""
    built = []
    real, real_schreyer = MonomialOrder.codec, kernel.Codec.schreyer

    def counted(order, n):
        built.append(order)
        return real(order, n)

    def counted_schreyer(codec, leads):
        built.append(leads)
        return real_schreyer(codec, leads)

    monkeypatch.setattr(MonomialOrder, "codec", counted)
    monkeypatch.setattr(kernel.Codec, "schreyer", counted_schreyer)
    return built


def test_syzygies_asks_for_one_codec_per_order(monkeypatch):
    # the loop path: one codec for the input order, one for the Schreyer
    # order (its reduced basis, the graded test and every loop test)
    gens = [RZW.poly("z^3 - w^2"), RZW.poly("z*w"), RZW.poly("w^3")]
    members = count_module_member(monkeypatch)
    built = count_codecs(monkeypatch)
    syzygies(Ideal(RZW, gens))
    assert len(members) > 1
    assert len(built) == 2


def test_syzygies_over_a_context_asks_for_no_extra_codec(monkeypatch):
    # the two codecs of the loop path: candidates are reduced modulo the
    # relations on packed terms of the codecs syzygies already has
    cusp = QuotientContext(RZW, Ideal(RZW, (RZW.poly("z^3 - w^2"),)))
    members = count_module_member(monkeypatch)
    built = count_codecs(monkeypatch)
    syzygies(Ideal(RZW, (RZW.poly("z"), RZW.poly("w"))), cusp)
    assert members
    assert len(built) == 2


def random_monomial_ideal(rng, binomial):
    """3-6 monomials of degree 1-3 in Q[x,y,z,w], times a seeded linear
    binomial x_i + c x_j when binomial is set."""
    gens, size = [], rng.randint(3, 6)
    while len(gens) < size:
        m = [0, 0, 0, 0]
        for _ in range(rng.randint(1, 3)):
            m[rng.randrange(4)] += 1
        g = Polynomial(R4, {tuple(m): Fraction(1)})
        if g not in gens:
            gens.append(g)
    if binomial:
        i, j = rng.sample(range(4), 2)
        b = R4.gens()[i] + R4.gens()[j] * rng.choice((1, -1, 2, Fraction(1, 3)))
        gens = [b * g for g in gens]
    return Ideal(R4, gens)


def assert_irredundant(syz):
    for i, v in enumerate(syz.gens):
        others = syz.gens[:i] + syz.gens[i + 1 :]
        assert not (others and module_member(v, SubmoduleBasis(syz.ring, syz.rank, others)))


@pytest.mark.parametrize("binomial", [False, True], ids=["monomial", "binomial"])
def test_graded_prune_matches_loop_seeded(monkeypatch, binomial):
    rng = random.Random(5 + binomial)
    for _ in range(8):
        I = random_monomial_ideal(rng, binomial)
        _, _, syz = graded_syzygies(monkeypatch, I)
        monkeypatch.undo()
        assert_irredundant(syz)
        if not syz.gens:
            continue
        # second syzygies: vector inputs, graded once e_p carries the
        # degree of generator p
        second = SubmoduleBasis(R4, len(I.gens), syz.gens)
        calls = spy_graded(monkeypatch, R4)
        syz2 = syzygies(second)
        monkeypatch.undo()
        cands, _, out = calls[0]
        assert out is not None
        assert list(syz2.gens) == loop_prune(cands, R4, len(syz.gens))
        assert syz2.gens == loop_syzygies(monkeypatch, second).gens
        assert_irredundant(syz2)


def test_graded_prune_reads_basis_degrees_off_vector_inputs(monkeypatch):
    # generators of degrees 2 and 3: a syzygy vector of one level is
    # homogeneous only when e_p carries the degree of generator p, so
    # shifts read off the lead terms alone send levels 2 and 3 to the loop
    I = Ideal(R4, [R4.poly(g) for g in ("x^2", "x*y", "y^3", "z^3", "x*z*w", "w^2")])
    calls = spy_graded(monkeypatch, R4)
    members = count_module_member(monkeypatch)
    C = free_resolution(I, minimal=True)
    assert C.ranks == (1, 6, 13, 11, 3)
    assert [out is not None for _, _, out in calls] == [True] * 4
    assert not members
    monkeypatch.undo()
    with monkeypatch.context() as m:
        m.setattr(groebner, "_graded_prune", lambda *args: None)
        assert free_resolution(I, minimal=True) == C


# ---------------------------------------------------------------------------
# the candidate pipeline of syzygies


def reference_syzygies(obj, context=None):
    """The PolyVector candidate pipeline syzygies used to run, kept as the
    reference: every generator map of the frozen engine-first
    reference_syzygies_termmaps, each candidate a PolyVector, reduced
    modulo the context,
    made monic and deduplicated on its entries, sorted by its Schreyer
    leading term, and pruned by the per-candidate module_member loop."""
    if isinstance(obj, Ideal):
        ring, order, rank = obj.ring, obj.ring.default_order, 1
    else:
        ring, order, rank = obj.ring, obj.order, obj.rank
    s = len(obj.gens)
    codec = order.codec(ring.n)
    inputs = [to_terms(g, codec) for g in obj.gens]
    if context is not None:
        inputs += groebner._relation_terms(context, rank, codec, order)
    raw = reference_syzygies_termmaps(inputs, codec, rank)
    zero = PolyVector(ring, [ring.zero()] * s)
    vecs = []
    for tm in raw:
        v = from_terms(zero, *kernel.integer_terms(codec.from_reps(tm, s)), codec)
        if context is not None:
            v = context.reduce(v, order)
        if not v.is_zero():
            vecs.append(v.monic(order))
    sch = order.schreyer([codec.decode(max(tm)) for tm, _ in inputs[:s]])
    seen, unique = set(), []
    for v in vecs:
        if v.entries not in seen:
            seen.add(v.entries)
            unique.append(v)
    if unique:
        for v in groebner_basis(SubmoduleBasis(ring, s, unique, sch)):
            if context is not None:
                v = context.reduce(v, order)
                if v.is_zero():
                    continue
            v = v.monic(sch)
            if v.entries not in seen:
                seen.add(v.entries)
                unique.append(v)
    unique.sort(key=lambda v: sch.term_key(v.leading(sch)[0]), reverse=True)
    return loop_prune(unique, ring, s, context)


CUSP = QuotientContext(RZW, Ideal(RZW, (RZW.poly("z^3 - w^2"),)))
CONE = QuotientContext(R3, Ideal(R3, (R3.poly("x*y - z^2"),)))
LEX_COLUMNS = SubmoduleBasis(
    R3,
    2,
    [PolyVector(R3, (R3.poly(a), R3.poly(b))) for a, b in [("x", "y"), ("y", "z"), ("z^2", "x*y")]],
    LEX,
)


@pytest.mark.parametrize(
    "obj, context",
    [
        (Ideal(R2, (R2.poly("x^2"), R2.poly("x*y"), R2.poly("y^2"))), None),
        (Ideal(RZW, (RZW.poly("z^3 - w^2"), RZW.poly("z*w"), RZW.poly("w^3"))), None),
        (Ideal(R3, (R3.poly("x^2"), R3.poly("x*z"), R3.poly("y*z"))), CONE),
        (Ideal(RZW, (RZW.poly("z"), RZW.poly("w"))), CUSP),
        (LEX_COLUMNS, None),
    ],
    ids=["monomial", "inhomogeneous", "cone", "cusp", "lex-module"],
)
def test_syzygies_match_reference_pipeline(obj, context):
    syz = syzygies(obj, context)
    assert syz.gens
    assert list(syz.gens) == reference_syzygies(obj, context)


@pytest.mark.parametrize("binomial", [False, True], ids=["monomial", "binomial"])
def test_syzygies_match_reference_pipeline_seeded(binomial):
    rng = random.Random(11 + binomial)
    for _ in range(4):
        I = random_monomial_ideal(rng, binomial)
        syz = syzygies(I)
        assert list(syz.gens) == reference_syzygies(I)
        if syz.gens:
            second = SubmoduleBasis(R4, len(I.gens), syz.gens)
            assert list(syzygies(second).gens) == reference_syzygies(second)


@pytest.mark.parametrize(
    "ring, gens",
    [(R4, ["x^2", "x*y", "y^2"]), (RZW, ["z^3 - w^2", "z*w", "w^3"])],
    ids=["homogeneous", "inhomogeneous"],
)
def test_syzygies_build_vectors_for_kept_generators_only(monkeypatch, ring, gens):
    built, bases = [], []
    members = []
    real_from_terms, real_init = groebner.from_terms, SubmoduleBasis.__init__

    def spy_from_terms(like, tm, den, codec):
        built.append(tm)
        return real_from_terms(like, tm, den, codec)

    def spy_init(self, *args, **kwargs):
        bases.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(groebner, "from_terms", spy_from_terms)
    monkeypatch.setattr(SubmoduleBasis, "__init__", spy_init)
    monkeypatch.setattr(groebner, "module_member", lambda *args: members.append(args))
    syz = syzygies(Ideal(ring, [ring.poly(g) for g in gens]))
    assert syz.gens
    assert len(built) == len(syz.gens)
    assert len(bases) == 1
    assert not members


# ---------------------------------------------------------------------------
# lifting


def test_module_lift_roundtrip():
    # the second columns are fractional and non-primitive: each input
    # enters the engine over its own denominator and content
    for columns in ([("x", "y"), ("y", "x")], [("2/3*x + 4*y", "6*y"), ("5/7*y", "10/3*x")]):
        cols = [PolyVector(R2, (R2.poly(a), R2.poly(b))) for a, b in columns]
        lifter = ModuleLifter(R2, 2, cols)
        rng = random.Random(23)
        for _ in range(20):
            a = random_poly(rng, R2)
            b = random_poly(rng, R2)
            target = cols[0].scale(a) + cols[1].scale(b)
            coeffs = lifter.lift(target)
            assert coeffs is not None
            recombined = cols[0].scale(coeffs[0]) + cols[1].scale(coeffs[1])
            assert recombined == target
        assert lifter.lift(PolyVector(R2, (R2.one(), R2.zero()))) is None


def test_lift_scalar_case():
    target = PolyVector(RZW, (RZW.poly("z^3 - w^2"),))
    cols = [PolyVector(RZW, (RZW.poly("z"),)), PolyVector(RZW, (RZW.poly("w"),))]
    coeffs = module_lift(cols, target)
    assert [str(c) for c in coeffs] == ["z^2", "-w"]


def test_lift_gives_a_zero_generator_coefficient_zero():
    x, zero = PolyVector(R2, (R2.poly("x"),)), PolyVector(R2, (R2.zero(),))
    assert module_lift([x, zero], x) == [R2.one(), R2.zero()]
    y = R2.poly("y")
    assert module_lift([zero, x, zero], x.scale(y)) == [R2.zero(), y, R2.zero()]
    assert module_lift([x, zero], PolyVector(R2, (R2.poly("y"),))) is None
    lifter = ModuleLifter(R2, 1, [zero, zero])
    assert lifter.lift(zero) == [R2.zero(), R2.zero()]
    assert lifter.lift(x) is None


# ---------------------------------------------------------------------------
# elimination / intersection / transporter / saturation


def test_elimination_of_parameter():
    rxyt = PolynomialRing(("x", "y", "t"))
    I = Ideal(rxyt, (rxyt.poly("x - t"), rxyt.poly("y - t^2")))
    E = elimination(I, ("x", "y"))
    assert E.ring == R2
    assert ideals_equal(E, Ideal(R2, (R2.poly("y - x^2"),)))
    # everything eliminated vanishes on the parametrization
    rt = PolynomialRing(("t",))
    for g in E.gens:
        assert g.evaluate({"x": rt.poly("t"), "y": rt.poly("t^2")}).is_zero()


def test_elimination_keeps_whole_ring():
    I = Ideal(R2, (R2.poly("x*y - 1"),))
    E = elimination(I, ("x", "y"))
    assert ideals_equal(E, I)


def test_intersection_of_coordinate_ideals():
    inter = ideal_intersect(Ideal(R2, (R2.poly("x"),)), Ideal(R2, (R2.poly("y"),)))
    assert ideals_equal(inter, Ideal(R2, (R2.poly("x*y"),)))


def test_intersection_membership_randomized():
    rng = random.Random(3)
    I = Ideal(R2, (R2.poly("x^2"), R2.poly("x*y")))
    J = Ideal(R2, (R2.poly("y"),))
    inter = ideal_intersect(I, J)
    for g in inter.gens:
        assert ideal_member(g, I) and ideal_member(g, J)
    for _ in range(20):
        f = random_poly(rng, R2) * I.gens[rng.randrange(2)]
        g = random_poly(rng, R2) * J.gens[0]
        assert ideal_member(f * g, inter)


def test_ideal_quotient_examples():
    Q = ideal_quotient(Ideal(R2, (R2.poly("x^2*y"),)), R2.poly("y"))
    assert ideals_equal(Q, Ideal(R2, (R2.poly("x^2"),)))
    # over Q[x,y]/(xy): (0 : x+y) = 0 because x+y is a nonzerodivisor
    ctx = QuotientContext(R2, Ideal(R2, (R2.poly("x*y"),)))
    Qc = ideal_quotient(Ideal(R2, ()), R2.poly("x + y"), context=ctx)
    assert Qc.is_zero()
    # but (0 : x) = (y) there
    Qx = ideal_quotient(Ideal(R2, ()), R2.poly("x"), context=ctx)
    assert ideals_equal(Qx, Ideal(R2, (R2.poly("y"),)))


def test_transporter_property_randomized():
    rng = random.Random(12)
    I = Ideal(R2, (R2.poly("x^2"), R2.poly("y^3")))
    f = R2.poly("x*y")
    Q = ideal_quotient(I, f)
    for g in Q.gens:
        assert ideal_member(g * f, I)
    for _ in range(30):
        g = random_poly(rng, R2)
        assert ideal_member(g * f, I) == ideal_member(g, Q)


def test_saturation_strips_factor():
    S = saturation(Ideal(R2, (R2.poly("x^2*y"),)), R2.poly("y"))
    assert ideals_equal(S, Ideal(R2, (R2.poly("x^2"),)))
    # saturating by a unit-like polynomial leaves a saturated ideal alone
    S2 = saturation(Ideal(R2, (R2.poly("x"),)), R2.poly("y + 1"))
    assert ideals_equal(S2, Ideal(R2, (R2.poly("x"),)))


# ---------------------------------------------------------------------------
# dimension


def test_dimension_examples():
    assert dimension(Ideal(R3, (R3.poly("x*z"), R3.poly("y*z")))) == (2, 1)
    assert dimension(Ideal(R3, (R3.poly("x"), R3.poly("y"), R3.poly("z")))) == (0, 3)
    assert dimension(Ideal(R3, ())) == (3, 0)
    assert dimension(Ideal(R3, (R3.one(),))) == (-1, INFINITE_CODIM)
    assert dimension(Ideal(R3, (R3.poly("x"), R3.poly("x + 1")))) == (-1, INFINITE_CODIM)
    assert dimension(Ideal(RZW, (RZW.poly("z^3 - w^2"),))) == (1, 1)
    assert dimension(Ideal(RZW, (RZW.poly("z"), RZW.poly("w")))) == (0, 2)


def test_a_schreyer_order_without_a_lead_for_each_position_is_refused():
    # two leads order positions 0 and 1 only: a basis of rank 3 under them
    # is a ValueError that names both counts, not a TypeError in the codec
    order = MonomialOrder().schreyer([(0, (1, 0)), (0, (0, 1))])
    v = PolyVector(R2, (R2.poly("x"), R2.poly("y"), R2.poly("x*y")))
    with pytest.raises(ValueError, match="2 Schreyer leads cannot order rank 3"):
        groebner_basis(SubmoduleBasis(R2, 3, [v], order=order))
    # as many leads as positions, or more, is a basis
    w = PolyVector(R2, (R2.poly("y"), R2.poly("-x")))
    assert SubmoduleBasis(R2, 2, [w], order=order).order is order
    assert SubmoduleBasis(R2, 1, [PolyVector(R2, (R2.poly("x"),))], order=order).rank == 1


def test_a_schreyer_codec_has_no_base_past_its_leads():
    codec = polyring._codec(MonomialOrder().schreyer([(0, (1, 0)), (0, (0, 1))]), 2)
    assert codec.base(1) == codec.term(1, (0, 0))
    with pytest.raises(ValueError, match="position 2 has no lead"):
        codec.base(2)
