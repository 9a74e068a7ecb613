"""Free complexes over Q[x] and Q[x]/I_Z: resolutions and their diagnostics.

Complexes store explicit ranks and row-major differential matrices, with
entries kept in normal form modulo the context relations.  Resolutions
iterate syzygy computations; minimality is reached by eliminating pivot
entries that are nonzero rational constants, one Schur-complement step
each (an entry that is a unit locally but not a constant only raises a
diagnostic flag -- constant terms of nonconstant entries are not
inverted here).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from residua import kernel
from residua.groebner import (
    INFINITE_CODIM,
    Context,
    Ideal,
    InvariantError,
    QuotientContext,
    SubmoduleBasis,
    _cover_number,
    certified_dimension,
    _support,
    dimension,
    ideal_member,
    syzygies,
)
from residua.polyring import MonomialOrder, Polynomial, PolynomialRing, PolyVector, transport

Matrix = Tuple[Tuple[Polynomial, ...], ...]


# ---------------------------------------------------------------------------
# matrix helpers (shapes supplied by callers; zero-size matrices are legal)


def zero_matrix(ring: PolynomialRing, rows: int, cols: int) -> Matrix:
    z = ring.zero()
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def identity_matrix(ring: PolynomialRing, n: int) -> Matrix:
    return tuple(
        tuple(ring.one() if i == j else ring.zero() for j in range(n)) for i in range(n)
    )


def mat_mul(ring: PolynomialRing, A: Matrix, B: Matrix, rows: int, mid: int, cols: int) -> Matrix:
    out = []
    for i in range(rows):
        nonzero = [(k, a) for k, a in enumerate(A[i][:mid]) if not a.is_zero()]
        row = []
        for j in range(cols):
            acc = ring.zero()
            for k, a in nonzero:
                b = B[k][j]
                if not b.is_zero():
                    acc = acc + a * b
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_is_zero(A: Matrix) -> bool:
    return all(e.is_zero() for row in A for e in row)


def mat_columns(ring: PolynomialRing, A: Matrix, rows: int, cols: int):
    return [PolyVector(ring, tuple(A[i][j] for i in range(rows))) for j in range(cols)]


def columns_to_matrix(ring: PolynomialRing, cols: Sequence[PolyVector], rows: int) -> Matrix:
    return tuple(tuple(v.entries[i] for v in cols) for i in range(rows))


def _poly_sort_key(p: Polynomial, order: MonomialOrder):
    return tuple((order.ring_key(m), c) for m, c in p.sorted_terms(order))


def canonical_matrix(ring: PolynomialRing, A: Matrix, rows: int, cols: int) -> Matrix:
    """Comparison form: columns scaled monic, columns and rows sorted
    descending by leading term, iterated to a fixed point (row moves shift
    which entry leads a column, so one pass is not enough).  For equality
    tests only -- the sorting ignores any chain structure around the
    matrix.  Eight passes without a fixed point raise InvariantError."""
    order = ring.default_order

    def col_key(v: PolyVector):
        lt = v.leading(order)
        # a zero column's head (-1,) compares with flat order keys: it is a
        # prefix of every pot key at position 1 and below every top key
        head = ((-1,),) if lt is None else (order.term_key(lt[0]),)
        return (head, tuple(_poly_sort_key(e, order) for e in v.entries))

    def row_key(row):
        keys = [order.ring_key(e.lm(order)) for e in row if not e.is_zero()]
        head = max(keys) if keys else None
        return (head is not None, head, tuple(_poly_sort_key(e, order) for e in row))

    cur = tuple(tuple(row) for row in A)
    for _ in range(8):
        columns = [v.monic(order) for v in mat_columns(ring, cur, rows, cols)]
        columns.sort(key=col_key, reverse=True)
        rows_list = [tuple(v.entries[i] for v in columns) for i in range(rows)]
        rows_list.sort(key=row_key, reverse=True)
        nxt = tuple(rows_list)
        if nxt == cur:
            return cur
        cur = nxt
    raise InvariantError("canonical matrix form reached no fixed point in 8 passes")


def matrices_equal_canonically(ring, A, B, rows_a, cols_a, rows_b, cols_b) -> bool:
    if rows_a != rows_b or cols_a != cols_b:
        return False
    return canonical_matrix(ring, A, rows_a, cols_a) == canonical_matrix(ring, B, rows_b, cols_b)


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """... -> E_k -> E_{k-1} -> ... -> E_0 with diffs[k-1] = phi_k.

    Validates shapes and phi_k . phi_{k+1} = 0 (modulo the context) at
    construction; entries are stored in normal form mod the context.  Each
    distinct pair (phi_k, phi_{k+1}) is multiplied out once: a pair equal
    to one already checked has the same product (equal matrices have equal
    shapes, or a zero-size side that makes the product empty), so the
    periodic tail of a resolution over a quotient costs one product per
    period.  Pairs are compared by equality, not by hash.
    """

    __slots__ = ("ring", "context", "ranks", "diffs", "complete", "not_locally_minimal")

    def __init__(
        self,
        ring: PolynomialRing,
        ranks: Sequence[int],
        diffs: Sequence[Matrix],
        context: Context = None,
        complete: bool = True,
        not_locally_minimal: bool = False,
    ):
        ranks = tuple(int(r) for r in ranks)
        if not ranks or any(r < 0 for r in ranks):
            raise ValueError("ranks must be a nonempty tuple of nonnegative integers")
        if len(diffs) != len(ranks) - 1:
            raise ValueError("need exactly one differential per adjacent rank pair")
        if context is not None and context.ring != ring:
            raise ValueError("context ring mismatch")
        norm = []
        for k, M in enumerate(diffs, start=1):
            rows, cols = ranks[k - 1], ranks[k]
            M = tuple(tuple(row) for row in M)
            if len(M) != rows or any(len(row) != cols for row in M):
                raise ValueError(f"differential {k} has the wrong shape")
            for row in M:
                for e in row:
                    if e.ring != ring:
                        raise ValueError("matrix entry from a different ring")
            if context is not None:
                M = tuple(tuple(context.reduce(e) for e in row) for row in M)
            norm.append(M)
        checked = []  # the distinct (phi_k, phi_{k+1}) pairs found to compose to zero
        for k in range(1, len(norm)):
            pair = (norm[k - 1], norm[k])
            if pair in checked:
                continue
            prod = mat_mul(ring, norm[k - 1], norm[k], ranks[k - 1], ranks[k], ranks[k + 1])
            if context is not None:
                prod = tuple(tuple(context.reduce(e) for e in row) for row in prod)
            if not mat_is_zero(prod):
                raise ValueError(f"differentials {k} and {k + 1} do not compose to zero")
            checked.append(pair)
        self.ring = ring
        self.context = context
        self.ranks = ranks
        self.diffs = tuple(norm)
        self.complete = bool(complete)
        self.not_locally_minimal = bool(not_locally_minimal)

    @property
    def length(self) -> int:
        return len(self.diffs)

    def diff(self, k: int) -> Matrix:
        """phi_k for 1 <= k <= length; IndexError outside that range."""
        if 1 <= k <= self.length:
            return self.diffs[k - 1]
        raise IndexError(f"no differential {k}")

    def rank(self, k: int) -> int:
        return self.ranks[k] if 0 <= k < len(self.ranks) else 0

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.ring == other.ring
            and self.context == other.context
            and self.ranks == other.ranks
            and self.diffs == other.diffs
            and self.complete == other.complete
        )

    def __repr__(self):
        tail = "" if self.complete else ", truncated"
        return f"ChainComplex(ranks={list(self.ranks)}{tail})"


# ---------------------------------------------------------------------------
# resolutions


def free_resolution(
    I: Ideal, context: Context = None, cap: int = 16, minimal: bool = False
) -> ChainComplex:
    """Iterated-syzygy resolution of ring/I (or of the quotient module when
    a context is given): E_0 has rank one, phi_1 is the generator row, and
    each phi_{k+1} generates the syzygies of the columns of phi_k.  Stops
    early when the syzygy module vanishes, else truncates at cap.

    A level whose rank and column list equal those of an earlier level
    reuses that level's syzygies instead of computing them again.  This is
    exact: syzygies is a deterministic function of the ring, the rank, the
    generators and the context, so the reused module is the one the call
    would return.  Over a hypersurface the resolution turns 2-periodic
    (Eisenbud 1980), and from then on every level is such a repeat.  The
    levels are matched by an equality scan, not by hashing.

    With minimal=True the constant pivots are stripped from the level
    lists before any complex is built, so a minimal resolution builds and
    checks one ChainComplex: phi . phi = 0 is validated on the returned
    complex only.  Each pivot step is an invertible change of basis, so
    raw levels that do not compose to zero still raise, there or in the
    pivot step's own InvariantError checks."""
    if cap < 1:
        raise ValueError("cap must be positive")
    ring = I.ring
    if context is not None and context.ring != ring:
        raise ValueError("context ring mismatch")
    gens = []
    for g in I.gens:
        if context is not None:
            g = context.reduce(g)
        if not g.is_zero():
            gens.append(g)
    ranks = [1]
    diffs = []
    complete = False
    cols = [PolyVector(ring, (g,)) for g in gens]
    levels = []  # (rows, columns, syzygies) of each level computed
    while cols:
        rows = ranks[-1]
        diffs.append(columns_to_matrix(ring, cols, rows))
        ranks.append(len(cols))
        syz = next((s for r, c, s in levels if r == rows and c == cols), None)
        if syz is None:
            syz = syzygies(SubmoduleBasis(ring, rows, cols), context=context)
            levels.append((rows, cols, syz))
        if not syz.gens:
            complete = True
            break
        if len(diffs) >= cap:
            break
        cols = list(syz.gens)
    else:
        complete = True
    if minimal:
        return _minimal_complex(ring, context, ranks, diffs, complete)
    return ChainComplex(ring, ranks, diffs, context=context, complete=complete)


def minimalize(C: ChainComplex) -> ChainComplex:
    """Eliminate differential entries that are nonzero rational constants.

    Each pivot c at (i, j) of phi_k splits off a trivial two-term summand
    and the complex shrinks by one rank on each side of the pivot: phi_k
    is replaced by its Schur complement, M[r][s] - M[r][j] * M[i][s] / c
    without row i and column j, and phi_{k+1} and phi_{k-1} only lose row
    j and column i.  Pivots are taken level by level from phi_1, in row-
    major order within a level.  Entries that are invertible locally
    without being constants (nonzero constant term) are left in place and
    flagged via not_locally_minimal.
    """
    return _minimal_complex(C.ring, C.context, C.ranks, C.diffs, C.complete)


def _minimal_complex(ring, ctx, ranks, diffs, complete) -> ChainComplex:
    """minimalize on plain level lists: strip the constant pivots, then
    build (and so check) the one ChainComplex that is returned.

    A constant pivot c at (i, j) of phi_k is one Schur-complement step:
    phi_k loses row i and column j and each other entry M[r][s] becomes
    M[r][s] - M[r][j] * M[i][s] / c, phi_{k+1} loses row j and phi_{k-1}
    loses column i.  That is the change of basis that clears row i and
    column j of phi_k.  On phi_{k+1} and phi_{k-1} it rewrites only the
    row and the column that are deleted, into row i of phi_k phi_{k+1} and
    column j of phi_{k-1} phi_k (over c); the complex property makes both
    zero modulo the context, and an InvariantError reports when they are
    not.  A step puts no constant into phi_1 .. phi_{k-1}, so the scan
    goes on at level k."""
    ranks = list(ranks)
    diffs = [[list(row) for row in M] for M in diffs]

    def reduce_entry(p):
        return ctx.reduce(p) if ctx is not None else p

    def vanishes(prod):
        return all(reduce_entry(e).is_zero() for row in prod for e in row)

    k = 1
    while k <= len(diffs):
        M = diffs[k - 1]
        pivot = next(
            (
                (i, j)
                for i, row in enumerate(M)
                for j, e in enumerate(row)
                if not e.is_zero() and e.is_constant()
            ),
            None,
        )
        if pivot is None:
            k += 1
            continue
        i, j = pivot
        unit_row = [e * (1 / M[i][j].constant_term()) for e in M[i]]
        col = [(row[j],) for row in M]
        if k < len(diffs):
            if not vanishes(mat_mul(ring, (unit_row,), diffs[k], 1, ranks[k], ranks[k + 1])):
                raise InvariantError("a unit pivot left a nonzero row in the next map")
            del diffs[k][j]
        if k >= 2:
            if not vanishes(mat_mul(ring, diffs[k - 2], col, ranks[k - 2], ranks[k - 1], 1)):
                raise InvariantError("a unit pivot left a nonzero column in the previous map")
            for row in diffs[k - 2]:
                del row[i]
        # entries are in normal form, so one with a zero correction stays as it is
        diffs[k - 1] = [
            [
                e if a.is_zero() or f.is_zero() else reduce_entry(e - f * a)
                for s, (e, f) in enumerate(zip(row, unit_row))
                if s != j
            ]
            for r, (row, (a,)) in enumerate(zip(M, col))
            if r != i
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
        ring,
        ranks,
        [tuple(tuple(row) for row in M) for M in diffs],
        context=ctx,
        complete=complete,
        not_locally_minimal=flagged,
    )


# ---------------------------------------------------------------------------
# Koszul and tensor complexes


def koszul_complex(fs: Sequence[Polynomial], context: Context = None) -> ChainComplex:
    """Exterior-algebra contraction complex on the tuple fs; a resolution
    exactly when fs is a regular sequence."""
    fs = list(fs)
    if not fs:
        raise ValueError("koszul complex of an empty tuple")
    ring = fs[0].ring
    if any(f.ring != ring for f in fs):
        raise ValueError("koszul entries must share one ring")
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


def tensor_complexes(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    """Total complex of the double complex C (x) D.

    Level k is the direct sum of C_p (x) D_q over p+q=k, blocks ordered by
    descending p, each block row-major in (C index, D index).  The
    differential is phi (x) id + (-1)^p id (x) psi.
    """
    if C.ring != D.ring or C.context != D.context:
        raise ValueError("tensor factors must share one ring and context")
    if not (C.complete and D.complete):
        raise ValueError("tensor factors must be complete complexes")
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


def extend_ring(C: ChainComplex, target: PolynomialRing) -> ChainComplex:
    """Base change along a ring inclusion (matching variables by name)."""
    ctx = None
    if C.context is not None:
        ctx = QuotientContext(
            target, Ideal(target, tuple(transport(g, target) for g in C.context.relations.gens))
        )
    diffs = [
        tuple(tuple(transport(e, target) for e in row) for row in M) for M in C.diffs
    ]
    return ChainComplex(
        target,
        C.ranks,
        diffs,
        context=ctx,
        complete=C.complete,
        not_locally_minimal=C.not_locally_minimal,
    )


# ---------------------------------------------------------------------------
# rank loci and exactness diagnostics


# Minors and ranks work on integer term maps {exponent tuple: int}: each row
# is scaled by the lcm of its entries' denominators, so a minor on rows rs
# is the integer minor divided by the product of those rows' scales.


def _integer_rows(M, rows, cols):
    """Row-scaled integer term maps of the rows x cols block of M, and the
    scale of each row."""
    scales = [math.lcm(*[e.den for e in row[:cols]]) for row in M[:rows]]
    entries = [
        [{m: c * (s // e.den) for m, c in e.num.items()} for e in row[:cols]]
        for row, s in zip(M, scales)
    ]
    return entries, scales


class _MinorTable:
    """Minors of one integer matrix, each expanded along its first row.

    Row and column sets are bit masks of equal, nonzero popcount; every
    sub-minor is kept by (rows, cols), so the minors of one matrix share
    them.  A table serves one call and is then dropped."""

    __slots__ = ("entries", "nonzero", "memo")

    def __init__(self, entries):
        self.entries = entries
        self.nonzero = [[(1 << c, e) for c, e in enumerate(row) if e] for row in entries]
        self.memo = {}

    def minor(self, rows, cols):
        low = rows & -rows
        rest = rows ^ low
        if not rest:
            return self.entries[low.bit_length() - 1][cols.bit_length() - 1]
        d = self.memo.get((rows, cols))
        if d is None:
            acc = {}
            for bit, e in self.nonzero[low.bit_length() - 1]:
                if cols & bit:
                    sub = self.minor(rest, cols ^ bit)
                    if sub:
                        # the sign of the entry's place among the columns
                        odd = (cols & (bit - 1)).bit_count() & 1
                        kernel.add_product(acc, e, sub, -1 if odd else 1)
            d = self.memo[(rows, cols)] = acc
        return d


def _exact_quotient(f, divisor, codec):
    """f / g on term maps of codec at position 0, for the kernel divisor
    (lead term, lead coefficient, term map) of g, when g divides f in
    Z[x]; a remainder or a multiplier other than 1 is a broken invariant
    of the caller."""
    quots, rem, mult = kernel.reduce_terms(f, (divisor,), codec, True)
    if rem or mult != 1:
        raise InvariantError("fraction-free elimination met an inexact division")
    base = codec.base(0)
    return {m + base: c for m, c in quots[0].items()}


def determinant(ring: PolynomialRing, M: Matrix, n: int) -> Polynomial:
    """Determinant of the leading n x n block, by first-row expansion over
    integer term maps with shared sub-minors."""
    if n == 0:
        return ring.one()
    entries, scales = _integer_rows(M, n, n)
    d = _MinorTable(entries).minor((1 << n) - 1, (1 << n) - 1)
    return Polynomial.from_kernel(ring, d, math.prod(scales))


def _minors(ring, M, rows, cols, r):
    """Each distinct r x r minor of M up to a scalar, as (the monic minor,
    its lead monomial under the default order): rows and columns
    enumerated lexicographically, each minor at its first occurrence.  For
    r <= 0 the one minor is 1; for r > min(rows, cols) there is none.
    Lazy, so that minors_codim can stop early; minors lists them all."""
    if r <= 0:
        yield ring.one(), (0,) * ring.n
        return
    minor = _MinorTable(_integer_rows(M, rows, cols)[0]).minor
    key = ring.default_order.ring_key
    seen = set()
    col_sets = [sum(cs) for cs in itertools.combinations([1 << c for c in range(cols)], r)]
    for rs in itertools.combinations([1 << i for i in range(rows)], r):
        row_set = sum(rs)
        for col_set in col_sets:
            d = minor(row_set, col_set)
            if not d:
                continue
            # minors equal up to a scalar have one monic form
            sig = frozenset(kernel.primitive(d, max(d))[0].items())
            if sig not in seen:
                seen.add(sig)
                lead = max(d, key=key)
                yield Polynomial.from_kernel(ring, d, d[lead]), lead


def _entry_supports(M, rows, cols, r) -> set:
    """The supports of the terms of the entries of M, which generate an
    ideal containing every r x r minor when r >= 1; {0} (a constant) when
    r <= 0, where the one minor is 1."""
    if r <= 0:
        return {0}
    monomials = {m for row in M[:rows] for e in row[:cols] for m in e.num}
    return {_support(m) for m in monomials}


def minors(ring, M, rows, cols, r) -> list:
    """Every (monic minor, lead monomial) of _minors, in its order."""
    return list(_minors(ring, M, rows, cols, r))


def minors_ideal(ring, M, rows, cols, r) -> Ideal:
    """Ideal of the monic r x r minors, rows/columns enumerated
    lexicographically, each generator kept at its first occurrence."""
    return Ideal(ring, [g for g, _ in minors(ring, M, rows, cols, r)])


def generic_rank(ring, M, rows, cols) -> int:
    """Rank over the fraction field, by fraction-free (Bareiss) elimination
    on the row-scaled integer matrix; each pivot is the first nonzero entry
    of the remaining block in column-major order."""
    codec = ring.default_order.codec(ring.n)
    base = codec.base(0)
    A = [[codec.encode(e) for e in row] for row in _integer_rows(M, rows, cols)[0]]
    live_rows = list(range(rows))
    live_cols = list(range(cols))
    prev = None  # the kernel divisor of the previous pivot; None before the first
    rank = 0
    while True:
        pivot = next(((i, j) for j in live_cols for i in live_rows if A[i][j]), None)
        if pivot is None:
            return rank
        pi, pj = pivot
        live_rows.remove(pi)
        live_cols.remove(pj)
        p, prow = A[pi][pj], A[pi]
        for i in live_rows:
            row = A[i]
            a = row[pj]
            for j in live_cols:
                # p * row[j] - a * prow[j], a product of terms t1 + t2 - base
                acc = {}
                for t, c in p.items():
                    kernel.add_scaled_inplace(acc, row[j], c, t - base)
                for t, c in a.items():
                    kernel.add_scaled_inplace(acc, prow[j], -c, t - base)
                if prev is None:  # no division checks these products
                    for t in acc:
                        codec.check(t)
                row[j] = _exact_quotient(acc, prev, codec) if acc and prev else acc
        lead = max(p)
        prev = (lead, p[lead], p)
        rank += 1


def expected_ranks(C: ChainComplex):
    """Alternating-sum ranks r_k = sum_{i>=k} (-1)^{i-k} rank(E_i), k=1..N."""
    if not C.complete:
        raise ValueError("expected ranks are undefined for a truncated complex")
    n = C.length
    out = [0] * (n + 2)
    for k in range(n, 0, -1):
        out[k] = C.ranks[k] - out[k + 1]
    return out[1 : n + 1]


@dataclass(frozen=True)
class ResolutionDiagnostics:
    """Per-level Fitting loci of a complex's differentials."""

    ranks_used: tuple
    loci: tuple  # Ideal per level (context relations appended)
    codims: tuple
    level_ok: tuple  # codim Z_k >= k, the singular-locus bound
    containments: tuple  # generator membership of locus k in locus k+1, or None


def fitting_loci(C: ChainComplex):
    """-> (ranks r_k, Fitting-ideal loci Z_k = V(I_{r_k}(phi_k))), k = 1..N.

    r_k comes from expected_ranks for complete complexes and falls back to
    the generic rank for truncated ones (where the alternating sum has no
    meaning).  Over a quotient context the relation generators are added
    to every minor ideal.
    """
    rk, loci = _fitting_loci(C)
    return rk, tuple(I for I, _, _ in loci)


def _fitting_loci(C: ChainComplex):
    """fitting_loci, each locus with the lead supports of its generators
    and the term supports of the entries of phi_k and the relations, which
    groebner.certified_dimension takes for its certificate."""
    ring = C.ring
    extra = C.context.relations.gens if C.context is not None else ()
    if C.complete:
        rk = expected_ranks(C)
    else:
        rk = [
            generic_rank(ring, C.diff(k), C.ranks[k - 1], C.ranks[k])
            for k in range(1, C.length + 1)
        ]
    extra_leads = {_support(g.lm()) for g in extra}
    extra_terms = {_support(m) for g in extra for m in g.num}
    loci = []
    for k in range(1, C.length + 1):
        rows, cols, r = C.ranks[k - 1], C.ranks[k], rk[k - 1]
        pairs = minors(ring, C.diff(k), rows, cols, r)
        leads = {_support(lead) for _, lead in pairs} | extra_leads
        terms = _entry_supports(C.diff(k), rows, cols, r) | extra_terms
        loci.append((Ideal(ring, tuple(g for g, _ in pairs) + tuple(extra)), leads, terms))
    return tuple(rk), tuple(loci)


def rank_loci(C: ChainComplex) -> ResolutionDiagnostics:
    """The Fitting loci of fitting_loci with their ambient codimensions,
    the bound codim Z_k >= k, and whether locus k sits inside locus k+1."""
    rk, certified = _fitting_loci(C)
    codims = tuple(certified_dimension(*locus)[1] for locus in certified)
    loci = tuple(I for I, _, _ in certified)
    ok = tuple(cd >= k for k, cd in enumerate(codims, 1))
    contain = []
    for k in range(len(loci) - 1):
        a, b = loci[k], loci[k + 1]
        if not a.gens or not b.gens or INFINITE_CODIM in (codims[k], codims[k + 1]):
            contain.append(None)
        else:
            contain.append(all(ideal_member(g, b) for g in a.gens))
    return ResolutionDiagnostics(rk, loci, codims, ok, tuple(contain))


@dataclass(frozen=True)
class ExactnessLevel:
    level: int
    rank_ok: bool
    codim: object  # int or inf
    required: int
    codim_ok: bool


@dataclass(frozen=True)
class ExactnessReport:
    passes: bool
    generic_ranks: tuple
    levels: tuple


def buchsbaum_eisenbud_check(C: ChainComplex) -> ExactnessReport:
    """Exactness of 0 -> E_N -> ... -> E_0 via rank additivity plus the
    codimension bounds codim I_{r_k}(phi_k) >= k, with r_k the generic rank.

    Only finite complexes over the ambient ring are eligible: quotient
    rings admit infinite resolutions (truncations of which look periodic),
    and the criterion says nothing about those.
    """
    if not C.complete:
        raise ValueError(
            "exactness criterion needs a complete finite complex; truncated "
            "input is out of its scope"
        )
    if C.context is not None:
        raise ValueError(
            "exactness criterion applies over the ambient polynomial ring only; "
            "quotient-ring resolutions can be infinite and escape it"
        )
    ring = C.ring
    n = C.length
    rho = [0] * (n + 2)
    for k in range(1, n + 1):
        rho[k] = generic_rank(ring, C.diff(k), C.ranks[k - 1], C.ranks[k])
    levels = []
    passes = True
    for k in range(1, n + 1):
        rank_ok = rho[k] + rho[k + 1] == C.ranks[k]
        cd = minors_codim(ring, C.diff(k), C.ranks[k - 1], C.ranks[k], rho[k])
        codim_ok = cd >= k
        levels.append(ExactnessLevel(k, rank_ok, cd, k, codim_ok))
        passes = passes and rank_ok and codim_ok
    return ExactnessReport(passes, tuple(rho[1 : n + 1]), tuple(levels))


def minors_codim(ring, M, rows, cols, r):
    """codim of the ideal of the r x r minors of M.  Every such minor lies
    in the prime (x_i : i in S) of the entries, so once the lead supports
    of the minors met so far have cover number |S|, that is the codim (a
    subideal has no larger codimension) and the rest are not enumerated;
    otherwise groebner.certified_dimension decides on all of them."""
    n = ring.n
    terms = _entry_supports(M, rows, cols, r)
    prime = None if 0 in terms else _cover_number(terms, n)
    gens, leads = [], set()
    for g, lead in _minors(ring, M, rows, cols, r):
        gens.append(g)
        s = _support(lead)
        if s not in leads:
            leads.add(s)
            if prime is not None and _cover_number(leads, n) == prime:
                return prime
    return certified_dimension(Ideal(ring, gens), leads, terms)[1]


@dataclass(frozen=True)
class ProperIntersectionReport:
    passes: bool
    pairs: tuple  # (k, l, codim, required, ok)
    failures: tuple


def proper_intersection_check(
    C: ChainComplex, D: ChainComplex, codim_c: int, codim_d: int
) -> ProperIntersectionReport:
    """codim(Z^C_k cap Z^D_l) >= k + l for k >= codim_c, l >= codim_d --
    the geometric condition for the tensor complex to stay a resolution."""
    if C.ring != D.ring or C.context != D.context:
        raise ValueError("complexes must share one ring and context")
    dc = _fitting_loci(C)[1]
    dd = _fitting_loci(D)[1]
    ring = C.ring
    pairs = []
    failures = []
    for k in range(max(1, codim_c), C.length + 1):
        for l in range(max(1, codim_d), D.length + 1):
            (I, leads_i, terms_i), (J, leads_j, terms_j) = dc[k - 1], dd[l - 1]
            sum_ideal = Ideal(ring, I.gens + J.gens)
            cd = certified_dimension(sum_ideal, leads_i | leads_j, terms_i | terms_j)[1]
            ok = cd >= k + l
            pairs.append((k, l, cd, k + l, ok))
            if not ok:
                failures.append((k, l, cd, k + l))
    return ProperIntersectionReport(not failures, tuple(pairs), tuple(failures))


@dataclass(frozen=True)
class PeriodicityReport:
    detected: bool
    offset: Optional[int] = None
    period: Optional[int] = None


def detect_periodicity(C: ChainComplex) -> PeriodicityReport:
    """Smallest (offset, period) with phi_{k+period} = phi_k canonically for
    all computed k > offset.  Complete complexes report no periodicity;
    truncated input needs at least four computed differentials.

    Each differential is put in canonical form at most once per call, when
    a comparison first needs it; the comparisons run in the order of
    matrices_equal_canonically over (offset, period, k), so a matrix whose
    canonical form raises InvariantError raises at the same point."""
    if C.complete:
        return PeriodicityReport(False)
    n = C.length
    if n < 4:
        raise ValueError("periodicity detection needs at least 4 computed differentials")
    ranks = C.ranks
    forms = [None] * (n + 1)  # forms[k]: canonical_matrix of phi_k, once needed

    def form(k):
        if forms[k] is None:
            forms[k] = canonical_matrix(C.ring, C.diff(k), ranks[k - 1], ranks[k])
        return forms[k]

    def same(k, l):
        return ranks[k - 1] == ranks[l - 1] and ranks[k] == ranks[l] and form(k) == form(l)

    for offset in range(0, n - 1):
        for period in range(1, n // 2 + 1):
            ks = range(offset + 1, n - period + 1)
            if ks and all(same(k, k + period) for k in ks):
                return PeriodicityReport(True, offset, period)
    return PeriodicityReport(False)


@dataclass(frozen=True)
class CMReport:
    is_cm: bool
    resolution_length: int
    codim: object


def cohen_macaulay_check(I: Ideal, cap: int = 0) -> CMReport:
    """ring/I Cohen-Macaulay iff the minimal free resolution length equals
    the codimension (ambient polynomial ring only)."""
    dim, codim = dimension(I)
    if codim == INFINITE_CODIM:
        raise ValueError("Cohen-Macaulay check needs a proper ideal")
    cap = cap or max(16, I.ring.n + 1)
    res = free_resolution(I, cap=cap, minimal=True)
    if not res.complete:
        raise InvariantError("resolution over the ambient ring must terminate")
    return CMReport(res.length == codim, res.length, codim)
