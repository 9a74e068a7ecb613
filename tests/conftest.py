"""Shared test helpers: seeded random polynomial corpora, and the frozen
reference of a syzygy level that forms every candidate and tests each one
by the greedy rule."""

from __future__ import annotations

import random
from fractions import Fraction

from residua import groebner, kernel
from residua.groebner import Ideal
from residua.polyring import Polynomial, PolynomialRing, to_terms


def random_poly(rng: random.Random, ring: PolynomialRing, max_deg=3, max_terms=5) -> Polynomial:
    """Random polynomial with small integer coefficients in [-9, 9]."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.n))
        if sum(mono) > max_deg:
            continue
        c = rng.randint(-9, 9)
        if c:
            terms[mono] = Fraction(c)
    return Polynomial(ring, terms)


def random_nonzero_poly(rng, ring, max_deg=3, max_terms=5) -> Polynomial:
    while True:
        p = random_poly(rng, ring, max_deg, max_terms)
        if not p.is_zero():
            return p


# ---------------------------------------------------------------------------
# the syzygy level before it left candidates out, frozen


def reference_syzygies_termmaps(inputs, codec, rank):
    """The engine-first _syzygies_termmaps, frozen: the tracked engine on
    every input set, then Schreyer's construction on its reduced basis,
    pushed back through the transformation, plus the columns of
    Id - A*B."""
    basis, reps, exprs = groebner._engine(inputs, codec, rank, True)
    leads = [codec.decode(lk) for lk, _, _ in basis]
    out = []
    for j, (lj, cj, gj) in enumerate(basis):
        pos, ej = leads[j]
        for i, (li, ci, gi) in enumerate(basis[:j]):
            if leads[i][0] != pos:
                continue
            lcm = codec.term(pos, kernel.exp_lcm(leads[i][1], ej))
            ui, uj = lcm - li, lcm - lj
            ai, aj = groebner._cofactors(ci, cj)
            sp: dict = {}
            kernel.add_scaled_inplace(sp, gi, ai, ui)
            kernel.add_scaled_inplace(sp, gj, -aj, uj)
            quots, rem, mult = kernel.reduce_terms(sp, basis, codec, True)
            assert not rem
            syz, _ = groebner._combine([(mult * ai, ui, reps[i]), (-mult * aj, uj, reps[j])], 1, quots, reps)
            if syz:
                out.append(syz)
    for j, (d, quots) in enumerate(exprs):
        col, _ = groebner._combine([(d, 0, ({codec.rep(j): 1}, 1))], 1, quots, reps)
        if col:
            out.append(col)
    return out


def level_args(obj, context=None):
    """(inputs, rank, context, order, codec) that syzygies hands to
    groebner._syzygy_level for an Ideal or SubmoduleBasis, before the
    grading and the relation map (see syzygy_level)."""
    if isinstance(obj, Ideal):
        order, rank = obj.ring.default_order, 1
    else:
        order, rank = obj.order, obj.rank
    codec = order.codec(obj.ring.n)
    return [to_terms(g, codec) for g in obj.gens], rank, context, order, codec


def syzygy_level(inputs, rank, context, order, codec):
    """groebner._syzygy_level on level_args, handed the basis degrees and
    a fresh relation map as syzygies hands them."""
    found = groebner._basis_degrees(inputs, rank, codec) if rank > 1 and context is None else None
    return groebner._syzygy_level(inputs, rank, context, order, codec, found or [0] * rank, {})


def reference_candidates(inputs, rank, context, order, codec):
    """(candidates, Schreyer codec, relation members) of a syzygy level as
    it was before it left any candidate out, frozen: every generator map
    of reference_syzygies_termmaps cut to the level's coordinates, reduced
    modulo the context, made primitive and deduplicated, then the reduced
    basis of their span (by the engine, with no shortcut) offered the same
    way, all sorted descending by Schreyer lead."""
    s = len(inputs)
    if context is not None:
        inputs = inputs + groebner._relation_terms(context, rank, codec, order)
    lead_terms = [max(tm) for tm, _ in inputs[:s]]
    sch = codec.schreyer(lead_terms)
    divisors, members = {}, []
    if context is not None:
        ambient = groebner._relation_terms(context, s, codec, order)
        members = [(sch.from_parent(tm, codec), den) for tm, den in ambient]
        for c, terms in ((codec, ambient), (sch, members)):
            divisors[c] = [(max(tm), tm[max(tm)], tm) for tm, _ in terms]
    seen, cands = set(), []

    def offer(tm, tm_codec):
        if context is not None:
            tm = kernel.reduce_terms(tm, divisors[tm_codec], tm_codec, False)[1]
        if not tm:
            return
        lk = max(tm)
        p, _ = kernel.primitive(tm, lk)
        lc = p[lk]
        if tm_codec is not sch:
            p = sch.from_parent(p, tm_codec)
        if (frozenset(p.items()), lc) not in seen:
            seen.add((frozenset(p.items()), lc))
            cands.append((p, lc))

    for tm in reference_syzygies_termmaps(inputs, codec, rank):
        offer(codec.from_reps(tm, s), codec)
    if cands:
        for _, _, tm in groebner._engine(cands, sch, s, False)[0]:
            offer(tm, sch)
    cands.sort(key=lambda cand: max(cand[0]), reverse=True)
    return cands, sch, members


def reference_graded_prune(cands, codec, rank, shifts):
    """The greedy rule by graded Nakayama with a normal form for every
    candidate, frozen: in each candidate degree D, the normal forms modulo
    a basis of all candidates of lower degree, kept when independent over
    Q of the later ones of degree D; None when a candidate is not
    homogeneous."""
    degrees = []
    for p, _ in cands:
        ds = set(codec.degrees(p, shifts))
        if len(ds) != 1:
            return None
        degrees.append(ds.pop())
    kept = set()
    for D in sorted(set(degrees)):
        lower = [cand for cand, d in zip(cands, degrees) if d < D]
        divisors = groebner._engine(lower, codec, rank, False)[0] if lower else []
        pivots = {}
        for i in reversed(range(len(cands))):
            if degrees[i] != D:
                continue
            nf = kernel.reduce_terms(cands[i][0], divisors, codec, False)[1]
            while nf:
                lk = max(nf)
                row = pivots.get(lk)
                if row is None:
                    pivots[lk] = kernel.primitive(nf, lk)[0]
                    kept.add(i)
                    break
                a, b = groebner._cofactors(nf[lk], row[lk])
                nf = {k: v * a for k, v in nf.items()}
                kernel.add_scaled_inplace(nf, row, -b, 0)
    return [cands[i] for i in sorted(kept)]


def reference_level(inputs, rank, context, order, codec):
    """The kept generators (p, lc) of a syzygy level as it was before it
    left candidates out, frozen: reference_candidates pruned by the greedy
    rule, by graded Nakayama when there is no context and every candidate
    is homogeneous, else by one membership test per candidate."""
    cands, sch, members = reference_candidates(inputs, rank, context, order, codec)
    s, kept = len(inputs), None
    if context is None:
        degrees = (groebner._basis_degrees(inputs, rank, codec) if rank > 1 else None) or [0] * rank
        kept = reference_graded_prune(cands, sch, s, codec.degrees([max(tm) for tm, _ in inputs], degrees))
    if kept is None:
        kept = []
        for i, (p, _) in enumerate(cands):
            others = kept + cands[i + 1 :]
            if not (others and groebner._member_terms(p, others, s, sch, members)):
                kept.append(cands[i])
    return [(sch.to_parent(p, codec), lc) for p, lc in kept]
