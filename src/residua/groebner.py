"""Groebner bases, syzygies, and ideal arithmetic over Q[x1..xn].

The engine (_engine) always finishes with the unique reduced basis:
monic, auto-reduced, sorted descending by leading term (_reduced, one
minimal pass and one interreduction for both loops below).  Determinism
is the contract.  Two loops build the Groebner basis it reduces, chosen
by a property of the call, not by a switch:

- An ideal basis without representations (Ideal.groebner, elimination,
  membership, and rank-1 groebner_basis of a SubmoduleBasis) runs the
  signature loop (_signature_loop, after Gao, Volny & Wang): J-pairs in
  increasing signature under the Schreyer order, one per signature,
  pruned by the syzygy, cover and singular criteria and reduced
  regularly, so few pairs reduce to zero (none on the dense regular
  sequences of the groebner benchmark).  Its criteria need the
  principal syzygies v_j * u - v * u_j, which only an ideal has.
- Calls that track representations (syzygies, lifts) and module bases
  (rank > 1) run Buchberger's algorithm (_buchberger_loop) with the
  normal selection strategy (pairs kept in a heap by the key of their
  lcm) and both classical pair criteria (coprime leads for ideals, the
  chain criterion everywhere).  Representations are not unique, and the
  syzygy generators built from them are pinned by the corpus.

Work whose result is already known is skipped, by a property of the call
as well.  _reduced divides only the elements that have a tail term some
other lead divides.  _syzygies_termmaps tries inputs that are
structurally reduced (distinct leads, none dividing another lead or a
tail term) as their own basis: their tracked S-pair reductions are
Buchberger's criterion, and when all of them leave no remainder they are
already the pair syzygies, so the tracked engine does not run.  And
_syzygy_level makes the reduced basis of its candidates without a loop
when they are a Groebner basis by Schreyer's theorem: the pair syzygies
of a Groebner basis G, each the difference of the two multiples in an
S-pair minus a standard expression of the S-polynomial, form a Groebner
basis of the syzygy module of G under the Schreyer order that G's leads
induce (Eisenbud, Commutative Algebra, Thm 15.10; La Scala & Stillman,
JSC 26, 1998).  That holds when there is no context and the inputs are a
minimal Groebner basis (see _syzygy_level).

Inside the engine, elements are primitive integer term maps (content 1,
positive lead coefficient) over packed terms (kernel.Codec: one int per
term, whose int order is the order's term_key order), S-polynomials use
the integer cofactors lc_j/g and lc_i/g with g = gcd(lc_i, lc_j), and
reduction is the kernel's fraction-free pseudo-division.  Each step is a
nonzero rational multiple of the same step over Q with monic elements:
the same pair, the same largest term, the same first dividing lead, since
packed terms compare, multiply and divide exactly as the (position,
exponents) terms they pack.  Polynomials come in and go out in their own
integer form (polyring.to_terms and from_terms: a term map over one
denominator, packed and unpacked by the codec), bases made monic by
taking the lead coefficient as the denominator, remainders and quotients
by taking the multiplier into it, so answers are exactly those of the
computation over Q, byte for byte.  The representations the engine
tracks, of its basis elements over the inputs, take the same form: an
integer map over one positive denominator (_combine), so no Fraction
enters the engine.

A free resolution stays in that form from one syzygy level to the next
(resolution_levels).  A level carries its generators as pairs (p, lc),
p a primitive integer term map of the base codec (the ring's default
order, pot or top) and lc its positive lead coefficient, so p / lc is
the vector in lowest terms that packing it would give; it carries the
degrees of its basis vectors only when the level before was pruned by
graded Nakayama, and none under a context.  A level's work runs in the
Schreyer codec made from the base codec (_syzygy_level), and its kept
generators go back by a shift (Codec.to_parent): a Schreyer term at
position q packs the key of lead_q * x^e above the field of -q, so
subtracting base(q) leaves the shift of x^e moved up one field, and
moving it down onto the base codec's base(q) gives the term of (q, e)
exactly, with nothing decoded.  Polynomials are built once per level,
for the differentials a resolution returns.

Quotient rings Q[x]/I_Z appear as contexts: membership, normal forms and
syzygies over the quotient are computed by appending I_Z relations to the
ambient problem and projecting back.
"""

from __future__ import annotations

import contextlib
import contextvars
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from residua import kernel
from residua.polyring import (
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    PolyVector,
    RingMismatchError,
    divider,
    from_terms,
    kernel_divisors,
    to_terms,
    transport,
)

INFINITE_CODIM = float("inf")  # sentinel codimension of the empty locus

_SATURATION_CAP = 64


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, reported instead of an answer."""


# ---------------------------------------------------------------------------
# public containers


class Ideal:
    """A finitely generated ideal, given by an explicit generator list.

    Equality and hashing compare generator lists, not the ideals they
    generate; use ideals_equal for mathematical equality.  Zero
    generators are dropped.  Reduced bases are cached per order.
    """

    __slots__ = ("ring", "gens", "_gb_cache")

    def __init__(self, ring: PolynomialRing, gens: Iterable[Polynomial]):
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("ideal generator from a different ring")
        self.ring = ring
        self.gens = gens
        self._gb_cache: dict = {}

    def groebner(self, order: Optional[MonomialOrder] = None) -> tuple:
        order = order or self.ring.default_order
        hit = self._gb_cache.get(order)
        if hit is None:
            hit = tuple(_ideal_groebner(self.gens, order, 1))
            self._gb_cache[order] = hit
        return hit

    def _reducer(self, order: Optional[MonomialOrder] = None) -> tuple:
        """(integer kernel divisors of the reduced basis, their codec),
        cached per order for repeated reductions against this ideal."""
        order = order or self.ring.default_order
        key = ("reducer", order)
        hit = self._gb_cache.get(key)
        if hit is None:
            codec = order.codec(self.ring.n)
            hit = (kernel_divisors(self.groebner(order), codec)[0], codec)
            self._gb_cache[key] = hit
        return hit

    def is_zero(self) -> bool:
        return not self.gens

    def __eq__(self, other):
        return (
            isinstance(other, Ideal) and self.ring == other.ring and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring.names, self.gens))

    def __repr__(self):
        return "(" + ", ".join(str(g) for g in self.gens) + ")" if self.gens else "(0)"


class QuotientContext:
    """The quotient ring O_Z = ring / relations, used as a computation context."""

    __slots__ = ("ring", "relations")

    def __init__(self, ring: PolynomialRing, relations: Ideal):
        if relations.ring != ring:
            raise RingMismatchError("relations live in a different ring")
        self.ring = ring
        self.relations = relations
        relations.groebner()  # warm the default-order cache

    def reduce(self, f, order: Optional[MonomialOrder] = None):
        """Normal form modulo the relations (entrywise on vectors)."""
        divisors, codec = self.relations._reducer(order)
        if isinstance(f, PolyVector):
            return PolyVector(self.ring, tuple(_reduce(p, divisors, codec) for p in f.entries))
        return _reduce(f, divisors, codec)

    def __eq__(self, other):
        return (
            isinstance(other, QuotientContext)
            and self.ring == other.ring
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.ring.names, self.relations.gens))

    def __repr__(self):
        return f"{self.ring!r}/{self.relations!r}"


Context = Optional[QuotientContext]


class SubmoduleBasis:
    """Generators of a submodule of ring^rank."""

    __slots__ = ("ring", "rank", "gens", "order")

    def __init__(
        self,
        ring: PolynomialRing,
        rank: int,
        gens: Iterable[PolyVector],
        order: Optional[MonomialOrder] = None,
    ):
        gens = tuple(gens)
        for v in gens:
            if v.ring != ring or v.rank != rank:
                raise ValueError("generator rank mismatch")
            if v.is_zero():
                raise ValueError("zero generator in submodule basis")
        self.ring = ring
        self.rank = rank
        self.gens = gens
        self.order = order or ring.default_order

    def __repr__(self):
        return "<" + "; ".join(str(v) for v in self.gens) + f"> in O^{self.rank}"


# ---------------------------------------------------------------------------
# the Buchberger engine (term-map level)


def _cofactors(ci, cj):
    """(a_i, a_j) with a_i * c_i = a_j * c_j = lcm(c_i, c_j) for lead
    coefficients c_i, c_j, so a_i x^u_i g_i - a_j x^u_j g_j is the
    S-polynomial."""
    h = gcd(ci, cj)
    return cj // h, ci // h


def _combine(parts: list, c: int = 1, quots=(), reps=()) -> tuple:
    """The representation (rep, den) of (sum(a * x^m * rep_i / den_i) -
    sum_k quots[k] * reps[k]) / c, over the parts (a, shift m, (rep_i,
    den_i)) and the quotients keyed by shift: the integer map rep over
    den > 0, coprime to its content.  Each map is added once, scaled to
    the lcm of the denominators."""
    parts = parts + [(-b, m, rep) for q, rep in zip(quots, reps) for m, b in q.items()]
    den = lcm(*[d for _, _, (_, d) in parts])
    out: dict = {}
    for a, m, (rep, d) in parts:
        kernel.add_scaled_inplace(out, rep, a * (den // d), m)
    den *= c
    g = gcd(den, *out.values()) * (1 if c > 0 else -1)
    if g == 1:
        return out, den
    return {k: v // g for k, v in out.items()}, den // g


def _engine(inputs: Sequence[tuple], codec: kernel.Codec, rank: int, track: bool):
    """Reduced Groebner basis of nonzero elements, with representations.
    Input j is a pair (tm, den) of a nonzero integer term map of codec
    and a positive int, for the element tm / den (see polyring.to_terms).
    The caller reduces against the basis with the same codec afterwards.

    Returns (basis, reps, exprs):
      basis  the reduced basis as kernel divisors (lead term, lead
             coefficient, primitive integer term map: content 1, positive
             lead coefficient), sorted descending by lead;
             tm / lc is the monic basis element over Q
      reps   (rep_k, den_k) with den_k * basis[k] = sum(rep_k) over the
             inputs: rep_k an integer map keyed by codec.rep(j) + shift
             for input j, den_k > 0 coprime to its content (see
             _combine); None when track is false
      exprs  (d_j, quots_j) with d_j * inputs[j] = sum_k quots_j[k] *
             basis[k] (d_j a positive int, quotients integer maps keyed
             by shift); None when track is false

    The monic basis, and the reps divided by the lead coefficients, are
    exactly those of the same computation over Q (see the module docstring).

    Two loops build a Groebner basis, chosen by what the call needs: an
    ideal (rank 1) without representations goes through _signature_loop,
    whose criteria rest on the principal syzygies v_j * u - v * u_j that
    only an ideal has; tracked calls (syzygies, lifts) and modules go
    through _buchberger_loop, whose representations, and so the syzygies
    built from them, the corpus pins.  The reduced basis over Q is
    unique, so either loop gives the same answer; _reduced makes it in
    place.
    """
    divisors, reps = _primitive_inputs(inputs, codec, track)
    if rank == 1 and not track:
        divisors = _signature_loop(divisors, codec)
    else:
        _buchberger_loop(divisors, reps, codec, rank, track)
    _reduced(divisors, reps if track else None, codec)
    if not track:
        return divisors, None, None
    exprs = []
    for tm, den in inputs:
        quots, rem, mult = kernel.reduce_terms(tm, divisors, codec, True)
        if rem:
            raise InvariantError("input does not reduce to zero against its own basis")
        exprs.append((mult * den, quots))
    return divisors, reps, exprs


def _primitive_inputs(inputs: Sequence[tuple], codec: kernel.Codec, track: bool) -> tuple:
    """(divisors, reps) of engine inputs (see _engine): each input's
    primitive term map as a kernel divisor, and its representation over
    the inputs when track is true (else None): ({codec.rep(j): +-den}, |c|)
    for input j = c * p / den."""
    divisors = []  # (lead term, lead coefficient, primitive term map)
    reps = []
    for j, (tm, den) in enumerate(inputs):
        if not tm:
            raise InvariantError("engine inputs must be nonzero")
        lk = max(tm)
        p, c = kernel.primitive(tm, lk)  # c * p = den * inputs[j]
        divisors.append((lk, p[lk], p))
        reps.append(({codec.rep(j): den if c > 0 else -den}, abs(c)) if track else None)
    return divisors, reps


def _buchberger_loop(divisors: list, reps: list, codec: kernel.Codec, rank: int, track: bool):
    """Extend the kernel divisors to a Groebner basis in place, with their
    representations when track is true (reps, see _engine).

    A pair is selected by the term of its lcm, then by (i, j).  The lcm
    is not additive in packed terms, so each element keeps its lead
    exponents beside its lead term; the coprime test and the chain
    criterion are sums and masked tests on terms.
    """
    lead_exps = [codec.decode(lk) for lk, _, _ in divisors]
    pairs = []  # heap of (lcm term, i, j)
    done = set()
    base0 = codec.base(0)

    def push_pair(i, j):
        (pos, ei), (_, ej) = lead_exps[i], lead_exps[j]
        if rank == 1 and not any(map(min, ei, ej)):
            # coprime leads: the product is their lcm, left unchecked since
            # the pair is skipped when it comes up
            heappush(pairs, (divisors[i][0] + divisors[j][0] - base0, i, j))
        else:
            heappush(pairs, (codec.term(pos, kernel.exp_lcm(ei, ej)), i, j))

    for j in range(len(divisors)):
        for i in range(j):
            if lead_exps[i][0] == lead_exps[j][0]:
                push_pair(i, j)

    while pairs:
        lcm, i, j = heappop(pairs)
        done.add((i, j))
        li, ci, gi = divisors[i]
        lj, cj, gj = divisors[j]
        # coprime-lead criterion (valid for the ideal case only)
        if rank == 1 and lcm + base0 == li + lj:
            continue
        # chain criterion
        skip = False
        for k in codec.dividing([d[0] for d in divisors], lcm):
            if k == i or k == j:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        ui, uj = lcm - li, lcm - lj
        ai, aj = _cofactors(ci, cj)
        spoly: dict = {}
        kernel.add_scaled_inplace(spoly, gi, ai, ui)
        kernel.add_scaled_inplace(spoly, gj, -aj, uj)
        quots, rem, mult = kernel.reduce_terms(spoly, divisors, codec, track)
        if not rem:
            continue
        lk = next(iter(rem))
        p, c = kernel.primitive(rem, lk)
        rep = None
        if track:
            rep = _combine([(mult * ai, ui, reps[i]), (-mult * aj, uj, reps[j])], c, quots, reps)
        t = len(divisors)
        divisors.append((lk, p[lk], p))
        lead_exps.append(codec.decode(lk))
        reps.append(rep)
        for k in range(t):
            if lead_exps[k][0] == lead_exps[t][0]:
                push_pair(k, t)


_SIG = 32  # a signature is (T << _SIG) + index, see _signature_loop
_INDEX = (1 << _SIG) - 1


def _signature_loop(inputs: list, codec: kernel.Codec) -> list:
    """A Groebner basis, as kernel divisors, of the ideal of the kernel
    divisors inputs (terms of codec at position 0), by signatures (Gao,
    Volny & Wang, Math. Comp. 85, 2016), which spends no reduction on the
    syzygies it can predict: the principal ones and multiples of those
    found.

    Each element v = sum u_i * f_i of the ideal stands for a pair (u, v)
    over the free module with basis e_i, one per input f_i, of which only
    v and the signature, the lead term of u, are kept.  The signature of
    x^a * e_i is the int (T << _SIG) + i, T the term of x^a * lt(f_i):
    the Schreyer order with the index as tie break.  Multiplying by x^m
    adds m << _SIG, int order is signature order, and one signature
    divides another when their indices agree and their T do.  Every term
    of v lies at or below T, and key = sig - (lt(v) << _SIG) orders the
    elements by signature over lead (Roune & Stillman, ISSAC 2012):
    lt(v_l) * sig_k > lt(v_k) * sig_l exactly when key_k > key_l.

    Pairs are processed in increasing signature, one per signature: the
    inputs, at e_i, and for two basis elements k, l the larger of the
    multiples (lcm / lt(v_k)) * v_k, (lcm / lt(v_l)) * v_l at the lcm of
    their leads, the one of larger key; none when the keys are equal.  A
    pair of signature s is dropped by
      the syzygy criterion: the signature of a known syzygy divides s.
        Those are the signatures of reductions to zero, minimal per
        index as they come (no earlier one divides s, and s divides none
        of them, all being smaller), and the leads max(lt(v_j) * s_k, lt(v_k) * s_j) of the
        principal syzygies v_j * u_k - v_k * u_j, tested when a pair
        comes up: s = x^m * s_k is a multiple of lt(v_j) * s_k when
        lt(v_j) | x^m and key_j < key_k.  A pair of coprime leads is the
        lead of its own principal syzygy and is never queued;
      the cover criterion: an element k with s_k | s has (s / s_k) *
        lt(v_k) below the pair's lead, that is key_k above the pair's.
    A kept pair is reduced regularly, tails included: x^m * v_j may
    cancel a term only when x^m * s_j < s (kernel.reduce_terms' below),
    which keeps the signature s.  A zero result is a syzygy of signature
    s; a result whose lead is x^m * lt(v_j) with x^m * s_j = s (the
    singular criterion, key_j equal to its own) is dropped; the others
    join the basis.  A constant ends the loop: the ideal is the unit
    ideal.
    """
    if len(inputs) == 1:
        return inputs
    base0 = codec.base(0)
    basis = []  # kernel divisors
    leads, lead_exps = [], []
    keys = []  # sig - (lead << _SIG) of each element
    cover: dict = {}  # index -> ([T of each element's signature], [its key])
    syz: dict = {}  # index -> T of the signatures of reductions to zero
    queue = [((lk << _SIG) + i, lk, i, g, 0) for i, (lk, _, g) in enumerate(inputs)]
    heapify(queue)  # (signature, lead, tie, term map, shift to multiply it by)
    tie = len(queue)
    last = None
    sig_bits, index = _SIG, _INDEX
    while queue:
        s, lead, _, g, u = heappop(queue)
        if s == last:
            continue
        last = s
        i, T = s & index, s >> sig_bits
        if i in syz and codec.dividing(syz[i], T):
            continue
        if i in cover:
            Ts, ks = cover[i]
            key = s - (lead << sig_bits)
            # s = x^m * s_k: covered by k, or a multiple of the principal
            # syzygy lt(v_j) * s_k when lt(v_j) | x^m and key_j < key_k
            if any(
                ks[k] > key or any(keys[j] < ks[k] for j in codec.dividing(leads, T - Ts[k] + base0))
                for k in codec.dividing(Ts, T)
            ):
                continue
        p = {t + u: c for t, c in g.items()} if u else g
        if basis:  # else p is the first input, primitive, and lead its lead
            below = [(s + index - k) >> sig_bits for k in keys]
            p = kernel.reduce_terms(p, basis, codec, False, below)[1]
            if not p:
                syz.setdefault(i, []).append(T)
                continue
            lead = next(iter(p))  # a remainder lists its lead first
            p = kernel.primitive(p, lead)[0]
        key = s - (lead << sig_bits)
        if any(keys[j] == key for j in codec.dividing(leads, lead)):
            continue
        if lead == base0:
            return [(lead, 1, p)]
        exps = codec.decode(lead)[1]
        for j, (lj, ej, kj) in enumerate(zip(leads, lead_exps, keys)):
            # no pair for equal keys, nor for coprime leads (the lead of
            # their principal syzygy)
            if kj == key or not any(map(min, ej, exps)):
                continue
            lcm = codec.term(0, kernel.exp_lcm(ej, exps))
            top = max(kj, key) + (lcm << sig_bits)
            codec.check(top >> sig_bits, wide=True)
            src = (p, lcm - lead) if key > kj else (basis[j][2], lcm - lj)
            heappush(queue, (top, lcm, tie, *src))
            tie += 1
        basis.append((lead, p[lead], p))
        leads.append(lead)
        lead_exps.append(exps)
        keys.append(key)
        Ts, ks = cover.setdefault(i, ([], []))
        Ts.append(T)
        ks.append(key)
    return basis


def _reduced(divisors: list, reps, codec: kernel.Codec) -> None:
    """Make the Groebner basis divisors the reduced basis, sorted
    descending by lead, in place, and reps (one per divisor, see _engine;
    None when untracked) its representations.  What the minimal pass
    drops is released before the interreduction.

    The interreduction divides an element only when the lead of another
    element divides one of its tail terms (Codec.divides_tail).
    Leads do not change in this pass, so the test reads the same before
    and after the elements around it are reduced.  Any other element is
    its own remainder (primitive, with quotients zero and multiplier 1),
    and keeps its divisor and its representation, which equals, as a
    rational map, what _combine would make of it."""
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
    leads = sorted(lk for lk, _, _ in divisors)
    for idx, (lk, _, g) in enumerate(divisors):
        if not codec.divides_tail(leads, g, lk):
            continue
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


def _from_reps(tm: dict, codec: kernel.Codec, s: int) -> dict:
    """The terms at positions below s of a representation map of codec
    (keyed by codec.rep), as terms of codec, whose order must serve those
    positions."""
    shift, rep0, cut = codec.rep_shift, codec.rep(0), s << codec.rep_shift
    if s:
        codec.base(s - 1)  # probes the bases up to position s - 1
    bases, out = codec._bases, {}
    for t, c in tm.items():
        if t < cut:
            j = t >> shift  # t - rep(j) + base(j), rep(j) = (j << shift) + rep(0)
            out[t - (j << shift) - rep0 + bases[j]] = c
    return out


def _relation_terms(context: QuotientContext, rank: int, codec: kernel.Codec, order=None) -> list:
    """Engine inputs (tm, den) of z * e_pos for each relation basis element
    z and position, as terms of codec."""
    return [
        (codec.encode(z.num, pos), z.den)
        for z in context.relations.groebner(order)
        for pos in range(rank)
    ]


def _ideal_groebner(gens, order, rank: int):
    """The reduced basis of gens; polynomials keep their kernel divisor
    for the codec of order."""
    if not gens:
        return []
    codec = order.codec(gens[0].ring.n)
    basis = _engine([to_terms(g, codec) for g in gens], codec, rank, False)[0]
    out = [from_terms(gens[0], tm, lc, codec) for _, lc, tm in basis]
    if isinstance(gens[0], Polynomial):
        for p, divisor in zip(out, basis):
            p._kernel = (codec, divisor)
    return out


def _reduce(f, divisors, codec):
    """Remainder of a Polynomial or PolyVector against integer kernel
    divisors of codec (not canonical unless they form a Groebner basis)."""
    if not divisors or f.is_zero():
        return f
    num, den = to_terms(f, codec)
    _, rem, mult = kernel.reduce_terms(num, divisors, codec, False)
    return from_terms(f, rem, mult * den, codec)


# ---------------------------------------------------------------------------
# public operations


def groebner_basis(obj: Union[Ideal, SubmoduleBasis], order: Optional[MonomialOrder] = None):
    """Reduced Groebner basis of an ideal or submodule (monic, auto-reduced,
    sorted descending by leading term)."""
    if isinstance(obj, Ideal):
        return list(obj.groebner(order))
    if isinstance(obj, SubmoduleBasis):
        return _ideal_groebner(obj.gens, order or obj.order, obj.rank)
    raise TypeError("expected an Ideal or SubmoduleBasis")


def normal_form(f, basis, order: Optional[MonomialOrder] = None, context: Context = None):
    """Remainder of f against a basis; reduces through the context first.

    Canonical (a membership test) when basis is a Groebner basis of an
    ideal containing the context relations.
    """
    if context is not None:
        f = context.reduce(f, order)
    basis = list(basis)
    if not basis:
        return f
    codec = (order or f.ring.default_order).codec(f.ring.n)
    return _reduce(f, kernel_divisors(basis, codec)[0], codec)


def product_vanishes(A, B, rows: int, mid: int, cols: int, context: Context = None) -> bool:
    """A . B = 0 modulo the context, for matrices of Polynomials A (rows x
    mid) and B (mid x cols), decided on integer ring term maps without
    building a Polynomial.  Row i of A and column j of B are scaled to
    integers by the lcm of their denominators, which does not change
    whether entry (i, j) is zero; the entry is summed by kernel.add_product
    and, over a context, reduced by the relations' cached divisors.  The
    first entry that is not zero decides."""
    if context is not None:
        divisors, codec = context.relations._reducer()
    col_lcms = [lcm(*[B[k][j].den for k in range(mid)]) for j in range(cols)]
    for i in range(rows):
        row = [(k, a) for k, a in enumerate(A[i][:mid]) if a.num]
        if not row:
            continue
        row_lcm = lcm(*[a.den for _, a in row])
        for j in range(cols):
            acc: dict = {}
            for k, a in row:
                b = B[k][j]
                if b.num:
                    kernel.add_product(acc, a.num, b.num, row_lcm // a.den * (col_lcms[j] // b.den))
            if acc and (context is None or kernel.reduce_terms(codec.encode(acc), divisors, codec, False)[1]):
                return False
    return True


def lifted_ideal(I: Ideal, context: Context) -> Ideal:
    """The ambient preimage of I: generators of I followed by the relations."""
    if context is None:
        return I
    return Ideal(I.ring, I.gens + context.relations.gens)


def ideal_member(f: Polynomial, I: Ideal, context: Context = None) -> bool:
    """f in I (over the quotient ring when a context is given)."""
    if context is not None:
        key = ("member-ctx", context.relations.gens)
        combined = I._gb_cache.get(key)
        if combined is None:
            combined = lifted_ideal(I, context)
            I._gb_cache[key] = combined
        I = combined
    divisors, codec = I._reducer()
    _, rem, _ = kernel.reduce_terms(to_terms(f, codec)[0], divisors, codec, False)
    return not rem


def ideals_equal(I: Ideal, J: Ideal, context: Context = None) -> bool:
    """Mathematical equality via mutual membership."""
    return all(ideal_member(g, J, context) for g in I.gens) and all(
        ideal_member(g, I, context) for g in J.gens
    )


def module_member(v: PolyVector, basis: SubmoduleBasis, context: Context = None) -> bool:
    codec = basis.order.codec(basis.ring.n)
    gens = [to_terms(g, codec) for g in basis.gens]
    relations = _relation_terms(context, basis.rank, codec) if context is not None else []
    return _member_terms(to_terms(v, codec)[0], gens, basis.rank, codec, relations)


def _member_terms(tm: dict, gens: list, rank: int, codec, relations: list) -> bool:
    """The integer term map tm in the submodule generated by the engine
    inputs gens and relations (the relation multiples of each unit vector
    over a context, else none), all terms of codec."""
    gens = gens + relations
    if not gens:
        return not tm
    _, rem, _ = kernel.reduce_terms(tm, _engine(gens, codec, rank, False)[0], codec, False)
    return not rem


# -- syzygies ----------------------------------------------------------------


def _pair_syzygies(basis: list, reps: list, codec) -> Optional[list]:
    """The pair syzygies of the kernel divisors basis, sorted descending by
    lead, mapped through their representations reps (see _engine), or
    None at the first S-pair whose tracked reduction leaves a remainder:
    for each pair i < j at one position, the difference of the two
    multiples in its S-pair minus the standard expression of the
    S-polynomial, as an integer map keyed by codec.rep; zero maps are left
    out."""
    leads = [codec.decode(lk) for lk, _, _ in basis]
    out = []
    for j, (lj, cj, gj) in enumerate(basis):
        pos, ej = leads[j]
        for i, (li, ci, gi) in enumerate(basis[:j]):
            if leads[i][0] != pos:
                continue
            lcm = codec.term(pos, kernel.exp_lcm(leads[i][1], ej))
            ui, uj = lcm - li, lcm - lj
            ai, aj = _cofactors(ci, cj)
            sp: dict = {}
            kernel.add_scaled_inplace(sp, gi, ai, ui)
            kernel.add_scaled_inplace(sp, gj, -aj, uj)
            quots, rem, mult = kernel.reduce_terms(sp, basis, codec, True)
            if rem:
                return None
            syz, _ = _combine([(mult * ai, ui, reps[i]), (-mult * aj, uj, reps[j])], 1, quots, reps)
            if syz:
                out.append(syz)
    return out


def _syzygies_termmaps(inputs: Sequence[tuple], codec, rank: int):
    """(generators, minimal): generators of the syzygy module of the given
    engine inputs (nonzero tm, den, terms of codec), each up to a nonzero
    rational factor as an integer map keyed by codec.rep(j) + shift for
    input j, and whether the inputs are a minimal Groebner basis (as many
    as the elements of their reduced basis, with the same set of leads).

    Schreyer's construction on the reduced basis G, pushed back through
    the transformation: Syz(F) = A*Syz(G) + columns of (Id - A*B), A the
    representations of G over the inputs F and B the expressions of F
    over G.

    The inputs are tried as their own basis first.  Made primitive as
    _engine makes them, they are structurally reduced when their leads
    are distinct, no lead divides another (Codec.dividing) and no lead
    divides a tail term (Codec.divides_tail).  Then the pair syzygies are
    built on them, sorted descending by lead, each with its trivial
    representation: these tracked S-pair reductions are Buchberger's
    criterion.  When every remainder is zero, the inputs are a Groebner
    basis, so their own reduced basis, and the engine would make exactly
    this basis and these representations; the columns of Id - A*B are
    then all zero, and _engine is not called.  At the first nonzero
    remainder, what was built is dropped and _engine runs.
    """
    basis, reps = _primitive_inputs(inputs, codec, True)
    leads = sorted(lk for lk, _, _ in basis)
    if len(set(leads)) == len(leads) and not any(
        len(codec.dividing(leads, lk)) > 1 or codec.divides_tail(leads, g, lk) for lk, _, g in basis
    ):
        ranked = sorted(range(len(basis)), key=lambda k: basis[k][0], reverse=True)
        out = _pair_syzygies([basis[k] for k in ranked], [reps[k] for k in ranked], codec)
        if out is not None:
            return out, True
    basis, reps, exprs = _engine(inputs, codec, rank, True)
    minimal = len(inputs) == len(basis) and {max(tm) for tm, _ in inputs} == {lk for lk, _, _ in basis}
    out = _pair_syzygies(basis, reps, codec)
    if out is None:
        raise InvariantError("S-pair of a Groebner basis must reduce to zero")
    # columns of Id - A*B
    for j, (d, quots) in enumerate(exprs):
        col, _ = _combine([(d, 0, ({codec.rep(j): 1}, 1))], 1, quots, reps)
        if col:
            out.append(col)
    return out, minimal


def syzygies(obj: Union[Ideal, SubmoduleBasis], context: Context = None) -> SubmoduleBasis:
    """Generators of the syzygy module of the given generators: they are
    packed by the base codec of obj's order (pot or top; a Schreyer
    order is refused), _syzygy_level computes the level, and its kept
    generators are unpacked once, into the PolyVectors returned.

    Over a quotient context the relation multiples of each unit vector
    are appended and the ambient syzygies are projected back down.
    """
    if isinstance(obj, Ideal):
        ring, order, rank = obj.ring, obj.ring.default_order, 1
    elif isinstance(obj, SubmoduleBasis):
        ring, order, rank = obj.ring, obj.order, obj.rank
    else:
        raise TypeError("expected an Ideal or SubmoduleBasis")
    if order.module_rule == "schreyer":
        raise ValueError("syzygies are computed under a pot or top module order")
    s = len(obj.gens)
    if s == 0:
        return SubmoduleBasis(ring, 0, ())
    codec = order.codec(ring.n)
    kept, _ = _syzygy_level([to_terms(g, codec) for g in obj.gens], rank, context, order, codec)
    zero = PolyVector(ring, [ring.zero()] * s)
    return SubmoduleBasis(ring, s, [from_terms(zero, p, lc, codec) for p, lc in kept])


def _syzygy_level(inputs: list, rank: int, context: Context, order, codec, degrees=None) -> tuple:
    """(kept, shifts) for the s engine inputs (tm, den) of codec, the base
    codec of order (pot or top), generating a submodule of ring^rank:
    kept the generators of their syzygy module that syzygies returns,
    each a pair (p, lc) for the vector p / lc, p a primitive integer term
    map of codec over positions 0..s-1; shifts the degrees of e_0..e_{s-1}
    when the level was pruned by graded Nakayama (below), else None.
    degrees are the basis degrees of the inputs' module when they are
    known (the shifts of the level before); else they are found here.

    The candidates (Schreyer's syzygies plus a reduced basis of their
    span, deduplicated and sorted descending under the Schreyer order)
    are pruned by one greedy rule: in list order, candidate v_i is
    dropped when it lies in the span N of the candidates kept before it
    and all candidates after it.  No kept generator is then produced by
    the other kept ones.  Each candidate is a pair (p, lc) of the
    Schreyer codec made from codec, from Schreyer's construction to the
    end of pruning.  The kept ones move back to codec by
    Codec.to_parent, which is exact: a Schreyer term of position q packs
    the key of lead_q * x^e above the field of -q, so it is base(q) plus
    the shift of x^e moved up one field, and the shift moved down again
    lands on codec's term of (q, e).  So a resolution carries its levels
    packed: the kept pairs of one level are the inputs of the next, and
    the shifts its degrees (resolution_levels).

    The reduced basis of the candidates' span needs no Buchberger loop
    when there is no context and the inputs F are a minimal Groebner
    basis: as many as the elements of their reduced basis G, with the
    same leads.  The candidates are then a Groebner basis of Syz(F) under
    the Schreyer order of F's leads.  Write e_k for the input with the
    lead of g_k.  The representation rep_k of g_k over F is e_k plus
    terms strictly below e_k in that order, because the interreduction
    only cancels tail terms, which lie below the lead.  The quotients of
    the standard expression in a pair syzygy S_ij of G lie below the lcm
    as well, so A*S_ij keeps the Schreyer lead of the inputs' own pair
    syzygy of e_i and e_j.  By Schreyer's theorem (see the module
    docstring) the inputs' pair syzygies are a Groebner basis of Syz(F),
    so the leads of the A*S_ij generate its lead module, and the
    candidates, all of them syzygies of F, are a Groebner basis of it:
    every S-pair among them reduces to zero, the loop would add nothing,
    and _reduced gets the same divisor list on either path.  Under a
    context the candidates are reduced modulo the relations and cut to
    the first s coordinates, which the theorem does not cover.

    Without a context, when every candidate is homogeneous for the
    grading in which e_p has the degree of the lead term of input p (its
    total degree plus the degree of its basis vector, for basis degrees
    that make every input homogeneous when there are such, else plus
    zero), the rule is decided by graded Nakayama instead of one module
    Groebner basis per candidate.  N and v_i span the whole module, and
    R*v_i lives in degrees >= D = deg v_i, so N contains every candidate
    of degree < D and the submodule L they generate.  Hence v_i is in N
    exactly when it is in L_D plus the Q-span of the degree-D candidates
    among the generators of N, that is when its normal form modulo a
    Groebner basis of L is a Q-combination of theirs.  That costs one
    basis per candidate degree plus Gaussian elimination over Q, and
    keeps the same candidates, for any such grading.  The kept
    generators are then homogeneous for those shifts, which are the
    basis degrees of the next level.  Other inputs run the per-candidate
    loop, and return no shifts.
    """
    s = len(inputs)
    if context is not None:
        inputs = inputs + _relation_terms(context, rank, codec, order)
    # canonical output: dedupe, sort descending under the Schreyer order
    # induced by the input generators' leading terms
    lead_terms = [max(tm) for tm, _ in inputs[:s]]
    sch_codec = codec.schreyer(order.schreyer(map(codec.decode, lead_terms)).term_key, lead_terms)
    seen = set()
    cands = []  # (p, lc): terms of sch_codec
    # z * e_p for each relation basis element z and p < s, as engine inputs
    # of sch_codec (members) and as kernel divisors of either codec: a
    # Groebner basis of I_Z * F under any module order that is the ring
    # order at each position
    relations, members = {}, []
    if context is not None:
        ambient = _relation_terms(context, s, codec, order)
        members = [(sch_codec.from_parent(tm, codec), den) for tm, den in ambient]
        for c, terms in ((codec, ambient), (sch_codec, members)):
            relations[c] = [(max(tm), tm[max(tm)], tm) for tm, _ in terms]

    def offer(tm, tm_codec):
        """Reduce the integer term map tm of tm_codec modulo the context,
        make it monic under the order of tm_codec and keep it, as terms of
        the Schreyer order, unless it is zero or already a candidate."""
        if context is not None:
            _, tm, _ = kernel.reduce_terms(tm, relations[tm_codec], tm_codec, False)
        if not tm:
            return
        lk = max(tm)
        p, _ = kernel.primitive(tm, lk)
        lc = p[lk]
        if tm_codec is not sch_codec:
            p = sch_codec.from_parent(p, tm_codec)
        sig = (frozenset(p.items()), lc)
        if sig not in seen:
            seen.add(sig)
            cands.append((p, lc))

    # syzygy coordinates beyond s belong to the relation multiples: drop them
    raw, minimal = _syzygies_termmaps(inputs, codec, rank)
    for tm in raw:
        offer(_from_reps(tm, codec, s), codec)
    # the transformation formula can emit several multiples of one simpler
    # syzygy; a reduced basis of the same span recovers it, so offer those
    # vectors as candidates too
    if cands:
        if minimal and context is None:
            # Schreyer's theorem: the candidates are a Groebner basis
            # already; their divisors as _engine makes them (a candidate's
            # coefficient at its Schreyer lead may be negative)
            basis = []
            for p, _ in cands:
                lk = max(p)
                p = kernel.primitive(p, lk)[0]
                basis.append((lk, p[lk], p))
            _reduced(basis, None, sch_codec)
        else:
            basis = _engine(cands, sch_codec, s, False)[0]
        for _, _, tm in basis:
            offer(tm, sch_codec)
    cands.sort(key=lambda cand: max(cand[0]), reverse=True)
    # drop generators the rest already produce (keeps iterated syzygy
    # computations from accumulating redundancy step after step)
    kept = shifts = None
    if context is None:
        if degrees is None:
            # an ideal has one basis vector, whose degree shifts nothing
            degrees = (_basis_degrees(inputs, rank, codec) if rank > 1 else None) or [0] * rank
        shifts = codec.degrees(lead_terms, degrees)
        kept = _graded_prune(cands, sch_codec, s, shifts)
    if kept is None:
        shifts, kept = None, []
        for i in range(len(cands)):
            others = [cands[k] for k in kept] + cands[i + 1 :]
            if others and _member_terms(cands[i][0], others, s, sch_codec, members):
                continue
            kept.append(i)
        kept = [cands[i] for i in kept]
    return [(sch_codec.to_parent(p, codec), lc) for p, lc in kept], shifts


# (ring, rank, context, inputs, kept, shifts, columns) of each level
# computed by resolution_levels in the open shared_levels() scope; None
# outside one.  columns are the kept generators as PolyVectors, built
# when a resolution first goes past the level.
_LEVELS = contextvars.ContextVar("levels", default=None)


@contextlib.contextmanager
def shared_levels():
    """A scope in which resolution_levels computes each distinct level
    once: a level equal to one computed earlier in the scope reuses its
    syzygies.  The levels are dropped when the scope closes."""
    token = _LEVELS.set([])
    try:
        yield
    finally:
        _LEVELS.reset(token)


def resolution_levels(ring, rank: int, cols: Sequence[PolyVector], context: Context, cap: int):
    """(levels, complete): the column lists of the iterated syzygies of
    cols, a list of PolyVectors of ring^rank, under the ring's default
    order: levels[0] is cols and levels[k] generates the syzygies of
    levels[k - 1], each as _syzygy_level keeps them.  Stops when a
    syzygy module is zero (complete) or at cap levels (not complete,
    unless the syzygies of the last level are zero); there are no levels
    when cols is empty.

    The levels are carried packed.  cols are packed once; then each
    level's kept pairs (p, lc), terms of the base codec, are the next
    level's engine inputs as they are: p / lc is in lowest terms
    (gcd(lc, content p) = 1), which is what packing its PolyVector would
    give.  A level pruned by graded Nakayama hands on its shifts as the
    next level's basis degrees.  A level under a context hands on none,
    and the next needs none; a level with a candidate that is not
    homogeneous hands on none, and the next level looks for its own
    (_basis_degrees).  PolyVectors are built once per level returned,
    for its differential.

    A level whose ring, rank, context and packed inputs equal those of a
    level computed earlier reuses that level's result instead of
    computing it again.  This is exact: _syzygy_level is a deterministic
    function of those, and its kept generators do not depend on the
    grading it is handed.  Earlier means earlier in this call, or,
    inside a shared_levels() scope, earlier in the scope: a script runs
    in one such scope, so the resolutions that recipe builds are not
    computed again by the statements after it.  Over a hypersurface the
    resolution turns 2-periodic (Eisenbud 1980), and from then on every
    level is such a repeat.  The levels are matched by an equality scan,
    not by hashing."""
    if not cols:
        return [], True
    order = ring.default_order
    codec = order.codec(ring.n)
    inputs = [to_terms(v, codec) for v in cols]
    known = _LEVELS.get()
    if known is None:
        known = []
    levels = [list(cols)]
    degrees = None
    while True:
        level = next(
            (
                lv
                for lv in known
                if lv[1] == rank and lv[0] == ring and lv[2] == context and lv[3] == inputs
            ),
            None,
        )
        if level is None:
            kept, shifts = _syzygy_level(inputs, rank, context, order, codec, degrees)
            level = [ring, rank, context, inputs, kept, shifts, None]
            known.append(level)
        _, _, _, _, kept, shifts, columns = level
        if not kept:
            return levels, True
        if len(levels) >= cap:
            return levels, False
        if columns is None:
            zero = PolyVector(ring, [ring.zero()] * len(inputs))
            columns = level[6] = [from_terms(zero, p, lc, codec) for p, lc in kept]
        levels.append(columns)
        rank, inputs, degrees = len(inputs), kept, shifts


def _basis_degrees(inputs: Sequence[tuple], rank: int, codec):
    """Degrees a of the basis vectors e_0..e_{rank-1} for which the term
    map of every engine input (tm, den, terms of codec) is homogeneous
    (sum(m) + a[pos] is one value over its terms), or None when there are
    none.  Positions that no input links are put at degree 0 relative to
    each other; that shifts every degree of one linked class by a
    constant, which no homogeneity test sees."""
    links = [[] for _ in range(rank)]  # (q, a[q] - a[p]) for each position p
    for tm, _ in inputs:
        (p, m), *rest = codec.decode_terms(tm)
        for q, mq in rest:
            links[p].append((q, sum(m) - sum(mq)))
            links[q].append((p, sum(mq) - sum(m)))
    degrees = [None] * rank
    for root in range(rank):
        if degrees[root] is not None:
            continue
        degrees[root] = 0
        stack = [root]
        while stack:
            p = stack.pop()
            for q, step in links[p]:
                if degrees[q] is None:
                    degrees[q] = degrees[p] + step
                    stack.append(q)
                elif degrees[q] != degrees[p] + step:
                    return None
    return degrees


def _graded_prune(cands: list, codec, rank: int, shifts: list):
    """The candidates (p, lc) the greedy rule of _syzygy_level keeps, by
    graded Nakayama (see there), or None when some candidate is not
    homogeneous for the shifts (e_p has degree shifts[p], read by
    Codec.degrees).  Their terms, and every engine run here, are of
    codec, the Schreyer order's.

    Within one degree the rule is greedy deletion of dependent normal
    forms in list order, which keeps the same vectors as greedy
    insertion of independent ones in reverse order: both pick the basis
    that is lexicographically last.
    """
    terms = [p for p, _ in cands]
    degrees = []
    for tm in terms:
        ds = set(codec.degrees(tm, shifts))
        if len(ds) != 1:
            return None
        degrees.append(ds.pop())
    kept = set()
    for D in sorted(set(degrees)):
        lower = [cand for cand, d in zip(cands, degrees) if d < D]
        divisors = _engine(lower, codec, rank, False)[0] if lower else []
        pivots: dict = {}  # leading key -> primitive row, echelon over Q
        for i in reversed(range(len(terms))):
            if degrees[i] != D:
                continue
            _, nf, _ = kernel.reduce_terms(terms[i], divisors, codec, False)
            while nf:
                lk = max(nf)
                row = pivots.get(lk)
                if row is None:
                    pivots[lk] = kernel.primitive(nf, lk)[0]
                    kept.add(i)
                    break
                a, b = _cofactors(nf[lk], row[lk])
                nf = {k: v * a for k, v in nf.items()}
                kernel.add_scaled_inplace(nf, row, -b, 0)
    return [cands[i] for i in sorted(kept)]


# -- lifting through a module map -------------------------------------------


class ModuleLifter:
    """Solves sum(q_i * gens_i) = target repeatedly over one generator list.
    A zero generator gets coefficient 0."""

    def __init__(self, ring, rank: int, gens: Sequence[PolyVector], order=None):
        self.ring = ring
        self.rank = rank
        self.order = order or ring.default_order
        self.gens = list(gens)
        # the engine runs on the nonzero generators, one position each
        self._nonzero = [i for i, v in enumerate(self.gens) if not v.is_zero()]
        self._coeffs = PolyVector(ring, [ring.zero()] * len(self._nonzero))
        if self._nonzero:
            self._codec = self.order.codec(ring.n)
            inputs = [to_terms(self.gens[i], self._codec) for i in self._nonzero]
            self._divisors, self._reps, _ = _engine(inputs, self._codec, rank, True)

    def lift(self, target: PolyVector):
        """Coefficients over gens, or None when target is not in the image."""
        if target.rank != self.rank:
            raise ValueError("target rank mismatch")
        coeffs = [self.ring.zero()] * len(self.gens)
        if not self._nonzero:
            return coeffs if target.is_zero() else None
        codec = self._codec
        num, den = to_terms(target, codec)
        quots, rem, mult = kernel.reduce_terms(num, self._divisors, codec, True)
        if rem:
            return None
        # target = sum_k quots[k] * basis[k] / (mult * den), and _combine
        # subtracts the quotient sum: divide by -(mult * den)
        out, d = _combine([], -mult * den, quots, self._reps)
        out = _from_reps(out, codec, len(self._nonzero))
        for i, q in zip(self._nonzero, from_terms(self._coeffs, out, d, codec).entries):
            coeffs[i] = q
        return coeffs


def module_lift(gens: Sequence[PolyVector], target: PolyVector, order=None):
    """One-shot lift; see ModuleLifter."""
    return ModuleLifter(target.ring, target.rank, gens, order).lift(target)


# -- elimination, intersection, quotient, saturation ------------------------


def elimination(I: Ideal, keep: Sequence[str]) -> Ideal:
    """Generators of I intersected with Q[keep], via a block order that
    makes the dropped variables infinitely expensive."""
    ring = I.ring
    keep = list(keep)
    for nm in keep:
        if nm not in ring.names:
            raise ValueError(f"unknown variable {nm!r}")
    keep_idx = [i for i, nm in enumerate(ring.names) if nm in keep]
    elim_idx = [i for i in range(ring.n) if i not in keep_idx]
    if not keep_idx:
        raise ValueError("must keep at least one variable")
    target = PolynomialRing(tuple(ring.names[i] for i in keep_idx), ring.default_order)
    if not elim_idx:
        return Ideal(target, I.groebner())

    base = ring.default_order

    def block_key(key):
        exps = key[1]
        hi = tuple(exps[i] for i in elim_idx)
        lo = tuple(exps[i] for i in keep_idx)
        return (-key[0], *base.ring_key(hi), *base.ring_key(lo))

    gens = [g for g in I.gens]
    if not gens:
        return Ideal(target, ())
    codec = kernel.Codec(block_key, ring.n, 0)
    basis, _, _ = _engine([to_terms(g, codec) for g in gens], codec, 1, False)
    kept = []
    for _, lc, tm in basis:
        num = codec.ring_terms(tm)
        if all(m[i] == 0 for m in num for i in elim_idx):
            num = {tuple(m[i] for i in keep_idx): c for m, c in num.items()}
            kept.append(Polynomial.from_kernel(target, num, lc))
    return Ideal(target, kept)


def _fresh_name(names):
    cand = "t"
    while cand in names:
        cand += "_"
    return cand


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via t*I + (1-t)*J and elimination of the tag variable."""
    ring = I.ring
    if J.ring != ring:
        raise RingMismatchError("ideals live in different rings")
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    tname = _fresh_name(ring.names)
    ext = ring.extend((tname,))
    t = ext.var(tname)
    gens = [t * transport(f, ext) for f in I.gens]
    gens += [(ext.one() - t) * transport(g, ext) for g in J.gens]
    elim = elimination(Ideal(ext, gens), ring.names)
    if elim.ring != ring:
        raise InvariantError("elimination left the ring of the intersected ideals")
    return elim


def ideal_quotient(I: Ideal, f: Polynomial, context: Context = None) -> Ideal:
    """The transporter (I : f) = {g : g*f in I}, over the context if given."""
    if f.is_zero():
        raise ValueError("quotient by the zero polynomial")
    ring = I.ring
    if context is not None:
        amb = ideal_quotient(lifted_ideal(I, context), f)
        gens = []
        for g in amb.gens:
            r = context.reduce(g)
            if not r.is_zero():
                gens.append(r)
        return Ideal(ring, gens)
    if I.is_zero():
        return Ideal(ring, ())
    inter = ideal_intersect(I, Ideal(ring, (f,)))
    by_f = _exact_divider(f)
    return Ideal(ring, [by_f(g).monic() for g in inter.gens])


def _exact_divider(g: Polynomial):
    """f -> f / g for the f that g divides in Q[x], with g encoded once for
    all of them; a remainder is a broken invariant of the caller."""
    run = divider([g])

    def quotient(f: Polynomial) -> Polynomial:
        if f.is_zero():
            return f
        (q,), r = run(f)
        if not r.is_zero():
            raise InvariantError("a division that must be exact left a remainder")
        return q

    return quotient


def saturation(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f^infinity), iterating transporters until they stabilize."""
    cur = I
    cur_gb = cur.groebner()
    for _ in range(_SATURATION_CAP):
        nxt = ideal_quotient(cur, f)
        nxt_gb = nxt.groebner()
        if list(nxt_gb) == list(cur_gb):
            return cur
        cur, cur_gb = nxt, nxt_gb
    raise RuntimeError(f"saturation did not stabilize within {_SATURATION_CAP} steps")


# -- dimension ---------------------------------------------------------------


def _support(m) -> int:
    """The variables dividing the monomial m, as a bit mask."""
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def _cover_number(supports, n: int):
    """The fewest of the n variables that meet every support (bit masks),
    or None when a support is empty: no variable divides a constant.

    For the supports of the generators of a monomial ideal this is its
    codimension: the minimal primes of a monomial ideal are generated by
    the variable sets that meet every generator."""
    best = None
    for mask in range(1 << n):
        size = mask.bit_count()
        if (best is None or size < best) and all(s & mask for s in supports):
            best = size
    return best


def dimension(I: Ideal):
    """(Krull dimension of ring/I, codimension of V(I)).

    The unit ideal gets (-1, inf); (0) gets (n, 0).  The value is exact,
    decided by a certificate when it can be and by a Groebner basis
    otherwise:

    - Lower bound.  The lead monomials of the generators lie in the
      leading-term ideal in(I), and codim I = codim in(I), so codim I is
      at least the cover number of their supports.
    - Upper bound.  When every term of every generator is divisible by
      some x_i with i in S, I lies in the prime (x_i : i in S) of
      codimension |S|, so codim I <= |S|; and by Krull's height theorem
      codim I <= mu, the number of generators.  A constant term leaves
      no such S, and the certificate does not apply.
    - When the lower bound equals min(|S|, mu), it is codim I.

    Otherwise codim I is the cover number of the lead supports of the
    reduced basis: the largest variable set independent modulo in(I) has
    the n - codim variables outside a smallest cover.
    """
    leads = {_support(g.lm()) for g in I.gens}
    terms = {_support(m) for g in I.gens for m in g.num}
    return certified_dimension(I, leads, terms)


def certified_dimension(I: Ideal, leads: set, terms: set):
    """dimension(I) through its certificate, given the supports of the lead
    monomials of I's generators under the default order (leads) and of
    every term of the generators of an ideal that contains I (terms): I's
    own generators, or the entries of a matrix, whose ideal holds every
    r x r minor with r >= 1."""
    n = I.ring.n
    if 0 not in terms:  # a constant term: no prime (x_i : i in S) contains I
        codim = _cover_number(leads, n)
        if codim == min(_cover_number(terms, n), len(I.gens)):
            return (n - codim, codim)
    codim = _cover_number({_support(g.lm()) for g in I.groebner()}, n)
    if codim is None:
        return (-1, INFINITE_CODIM)
    return (n - codim, codim)
