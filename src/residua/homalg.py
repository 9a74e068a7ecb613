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

import functools
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
    _exact_divider,
    certified_dimension,
    _support,
    dimension,
    ideal_member,
    product_vanishes,
    resolution_levels,
)
from residua.polyring import Polynomial, PolynomialRing, PolyVector, transport

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


def mat_columns(ring: PolynomialRing, A: Matrix, rows: int, cols: int):
    return [PolyVector(ring, tuple(A[i][j] for i in range(rows))) for j in range(cols)]


def columns_to_matrix(ring: PolynomialRing, cols: Sequence[PolyVector], rows: int) -> Matrix:
    return tuple(tuple(v.entries[i] for v in cols) for i in range(rows))


def matrices_equal_canonically(ring, A, B, rows_a, cols_a, rows_b, cols_b) -> bool:
    """Whether B is A up to a permutation of its rows, a permutation of its
    columns and a nonzero scalar on each column, decided exactly.

    Each entry is read as (label, c): c its leading coefficient and label
    its monic form, which column scaling keeps, interned as a small int.
    The rows of B are matched to rows of A one at a time, over rows with
    the same sorted labels, backtracking.  A partial match is dropped when
    its columns, cut to the matched rows and each divided by the
    coefficient of its first nonzero entry, differ from those of B as
    sorted tuples, and so is a row of A equal to one already tried in its
    place.  A match that passes the cut at every row is an equivalence, and
    every equivalence passes each cut, so the answer is exact; the worst
    case is exponential, as it is for bipartite graph isomorphism, which
    the problem contains."""
    if rows_a != rows_b or cols_a != cols_b:
        return False
    rows, cols = rows_a, cols_a
    labels = {}

    def read(M):
        return [
            tuple((labels.setdefault(e.monic(), len(labels)), e.lc() or 0) for e in M[i][:cols])
            for i in range(rows)
        ]

    def extend(cut, row):
        # cut: per column the coefficient of its first nonzero entry (None
        # while there is none) and the entries so far divided by it
        leads = [lead or c or None for (lead, _), (_, c) in zip(cut, row)]
        return [(d, col + ((l, c / d if d else c),)) for d, (_, col), (l, c) in zip(leads, cut, row)]

    a, b = read(A), read(B)
    sig_a, sig_b = ([sorted(l for l, _ in row) for row in M] for M in (a, b))
    # cuts_b[k]: the columns of B cut to its rows 0..k, scaled, sorted
    cuts_b, cut = [], [(None, ())] * cols
    for row in b:
        cut = extend(cut, row)
        cuts_b.append(sorted(col for _, col in cut))

    def extensions(matched, cut):
        # the partial matches one row longer that pass the cut test
        k, tried = len(matched), set()
        for p in range(rows):
            if sig_a[p] != sig_b[k] or p in matched or a[p] in tried:
                continue
            tried.add(a[p])
            nxt = extend(cut, a[p])
            if sorted(col for _, col in nxt) == cuts_b[k]:
                yield matched + [p], nxt

    # depth first on a stack of generators, so tall matrices keep off the
    # recursion limit
    stack = [iter([([], [(None, ())] * cols)])]
    while stack:
        matched, cut = next(stack[-1], (None, None))
        if matched is None:
            stack.pop()
        elif len(matched) == rows:
            return True
        else:
            stack.append(extensions(matched, cut))
    return False


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

    __slots__ = ("ring", "context", "ranks", "diffs", "complete")

    def __init__(
        self,
        ring: PolynomialRing,
        ranks: Sequence[int],
        diffs: Sequence[Matrix],
        context: Context = None,
        complete: bool = True,
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
            if not product_vanishes(*pair, ranks[k - 1], ranks[k], ranks[k + 1], context):
                raise ValueError(f"differentials {k} and {k + 1} do not compose to zero")
            checked.append(pair)
        self.ring = ring
        self.context = context
        self.ranks = ranks
        self.diffs = tuple(norm)
        self.complete = bool(complete)

    @property
    def length(self) -> int:
        return len(self.diffs)

    @property
    def not_locally_minimal(self) -> bool:
        """Some entry has a nonzero constant term, so is a unit of the local
        ring at 0: the complex is not minimal there."""
        return any(e.constant_term() != 0 for M in self.diffs for row in M for e in row)

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

    The columns of the differentials come from groebner.resolution_levels,
    which carries each level to the next in the engine's own form and
    builds each level's columns once.  A level equal to one computed
    earlier in the call, or inside a shared_levels() scope earlier in the
    scope, is not computed again: a script runs in one such scope, so the
    resolutions that recipe builds are not computed again by the
    statements after it.

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
    cols = [PolyVector(ring, (g,)) for g in gens]
    levels, complete = resolution_levels(ring, 1, cols, context, cap)
    ranks = [1] + [len(level) for level in levels]
    diffs = [columns_to_matrix(ring, level, rows) for level, rows in zip(levels, ranks)]
    if minimal:
        return _minimal_complex(ring, context, ranks, diffs, complete)
    return ChainComplex(ring, ranks, diffs, context=context, complete=complete)


def ambient_resolution(I: Ideal):
    """-> (the minimal resolution F of ring/I over the ambient ring, the
    projective dimension of ring/I).  F runs to its end: Hilbert's syzygy
    theorem bounds its length by n, so the automatic cap of max(16, n + 1)
    levels never stops it, and a resolution it stops is an InvariantError.

    Inhomogeneous generators can leave F longer than the projective
    dimension (constant pivots are the only units stripped), so that is
    read off F's Fitting ideals instead (Buchsbaum & Eisenbud, J. Algebra
    25, 1973): pd at a prime p is below k exactly when I_{r_k}(phi_k),
    r_k the expected ranks, is not inside p, so pd is the largest k whose
    I_{r_k}(phi_k) is not the unit ideal, or 0.  The search runs from the
    last map down; a map whose entries all vanish at the origin has no
    unit minor there, so its minors are not computed."""
    F = free_resolution(I, cap=max(16, I.ring.n + 1), minimal=True)
    if not F.complete:
        raise InvariantError("resolution over the ambient ring must terminate")
    for k, r in reversed(list(enumerate(expected_ranks(F), 1))):
        vanishes = r > 0 and all(e.constant_term() == 0 for row in F.diff(k) for e in row)
        if vanishes or not ideal_member(I.ring.one(), _locus(F, k, r)[0]):
            return F, k
    return F, 0


def minimalize(C: ChainComplex) -> ChainComplex:
    """Eliminate differential entries that are nonzero rational constants.

    Each pivot c at (i, j) of phi_k splits off a trivial two-term summand
    and the complex shrinks by one rank on each side of the pivot: phi_k
    is replaced by its Schur complement, M[r][s] - M[r][j] * M[i][s] / c
    without row i and column j, and phi_{k+1} and phi_{k-1} only lose row
    j and column i.  Pivots are taken level by level from phi_1, in row-
    major order within a level.  Entries that are invertible locally
    without being constants (nonzero constant term) are left in place;
    not_locally_minimal reads them off the result.  A complete complex
    ends at its last nonzero module: trailing levels of rank 0 are dropped.
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
    goes on at level k.  A complete complex then loses its trailing levels
    of rank 0 after its last nonzero module (the ranks (0, 0) of the unit
    ideal stay)."""
    ranks = list(ranks)
    diffs = [[list(row) for row in M] for M in diffs]

    def reduce_entry(p):
        return ctx.reduce(p) if ctx is not None else p

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
            if not product_vanishes((unit_row,), diffs[k], 1, ranks[k], ranks[k + 1], ctx):
                raise InvariantError("a unit pivot left a nonzero row in the next map")
            del diffs[k][j]
        if k >= 2:
            if not product_vanishes(diffs[k - 2], col, ranks[k - 2], ranks[k - 1], 1, ctx):
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
    while complete and ranks[-1] == 0 and any(ranks):
        ranks.pop()
        diffs.pop()
    return ChainComplex(ring, ranks, diffs, context=ctx, complete=complete)


# ---------------------------------------------------------------------------
# Koszul and tensor complexes


def koszul_complex(fs: Sequence[Polynomial], context: Context = None) -> ChainComplex:
    """Koszul complex on the tuple fs; a resolution exactly when fs is a
    regular sequence.

    K(f_1, ..., f_p) = K(f_1) (x) (K(f_2) (x) ... (x) K(f_p)), where K(f)
    is the one-map complex R --f--> R (Eisenbud, Commutative Algebra,
    17.1).  Folded from the right, the basis of level k is the k-subsets
    of the indices in lexicographic order, and subset S maps to S minus
    its l-th element (from 0) with sign (-1)^l."""
    fs = list(fs)
    if not fs:
        raise ValueError("koszul complex of an empty tuple")
    ring = fs[0].ring
    if any(f.ring != ring for f in fs):
        raise ValueError("koszul entries must share one ring")
    K = ChainComplex(ring, (1, 1), (((fs[-1],),),), context=context)
    for f in reversed(fs[:-1]):
        K = tensor_complexes(ChainComplex(ring, (1, 1), (((f,),),), context=context), K)
    return K


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

    def basis(k):
        """Row of each basis triple (p, i, j) of level k: C_p index i,
        D_{k-p} index j, in the block order above."""
        triples = (
            (p, i, j)
            for p in range(k, -1, -1)
            for i in range(C.rank(p))
            for j in range(D.rank(k - p))
        )
        return {t: r for r, t in enumerate(triples)}

    def nonzero_columns(E):
        """(row, entry) of the nonzero entries of each column of each
        differential of E, in the order of E.diffs."""
        return [
            [
                [(r, A[r][c]) for r in range(len(A)) if not A[r][c].is_zero()]
                for c in range(E.rank(k))
            ]
            for k, A in enumerate(E.diffs, start=1)
        ]

    phi, psi = nonzero_columns(C), nonzero_columns(D)
    rows = basis(0)
    ranks, diffs = [len(rows)], []
    for k in range(1, C.length + D.length + 1):
        cols = basis(k)
        M = [[ring.zero()] * len(cols) for _ in rows]
        for c, (p, i, j) in enumerate(cols):
            if p >= 1:
                for i2, e in phi[p - 1][i]:
                    M[rows[p - 1, i2, j]][c] = e
            if p < k:
                for j2, e in psi[k - p - 1][j]:
                    M[rows[p, i, j2]][c] = -e if p % 2 else e
        ranks.append(len(cols))
        diffs.append(M)
        rows = cols
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
    return ChainComplex(target, C.ranks, diffs, context=ctx, complete=C.complete)


# ---------------------------------------------------------------------------
# rank loci and exactness diagnostics


# Minors work on integer term maps {exponent tuple: int}: each row is
# scaled by the lcm of its entries' denominators, so a minor on rows rs is
# the integer minor divided by the product of those rows' scales.  One
# kernel.MinorTable per call holds the scaled block and its sub-minors.


def _integer_rows(M, rows, cols):
    """Row-scaled integer term maps of the rows x cols block of M, and the
    scale of each row."""
    scales = [math.lcm(*[e.den for e in row[:cols]]) for row in M[:rows]]
    entries = [
        [{m: c * (s // e.den) for m, c in e.num.items()} for e in row[:cols]]
        for row, s in zip(M, scales)
    ]
    return entries, scales


def determinant(ring: PolynomialRing, M: Matrix, n: int) -> Polynomial:
    """Determinant of the leading n x n block: the full minor of a
    kernel.MinorTable, by first-row expansion with shared sub-minors.
    Raises ValueError when M has no n x n block."""
    if n == 0:
        return ring.one()
    entries, scales = _integer_rows(M, n, n)
    table = kernel.MinorTable(entries, n, n)
    d = table.unpack(table.minor((1 << n) - 1, (1 << n) - 1))
    return Polynomial.from_kernel(ring, d, math.prod(scales))


def _class_firsts(values):
    """(i, d) for each nonzero d of values that is the first of its class up
    to a scalar; minors equal up to a scalar have one monic form."""
    met = set()
    for i, d in enumerate(values):
        if d and (sig := frozenset(kernel.primitive(d, max(d))[0].items())) not in met:
            met.add(sig)
            yield i, d


def _minor_scan(minor, rows, cols, r):
    """The r x r minors of a kernel.MinorTable's minor, as its packed term
    maps, rows and columns enumerated lexicographically, less those the
    rank-one compound shows to be zero or a scalar multiple of an earlier
    one.  The table does not expand a block with an empty row or column,
    so the zero minors the scan meets are mostly free.

    At the first nonzero minor c on (R0, C0) the bordering (r+1)-minors
    are tested, once.  If all vanish, phi has rank r over the fraction
    field, its r-th exterior power has rank one, and minor(R, C) * c =
    minor(R, C0) * minor(R0, C).  So (R, C) is zero when a factor is, and
    a multiple of (R', C') when R' and C' have factors of the same classes:
    only the first row set and column set of each nonzero class are
    evaluated (R0 and C0 are the first).  Otherwise every minor is."""
    row_sets = [sum(s) for s in itertools.combinations([1 << i for i in range(rows)], r)]
    col_sets = [sum(s) for s in itertools.combinations([1 << j for j in range(cols)], r)]
    scan = ((R, C) for R in row_sets for C in col_sets)
    for R0, C0 in scan:
        c = minor(R0, C0)
        yield c
        if c:
            break
    else:
        return
    out_rows = [1 << i for i in range(rows) if not R0 >> i & 1]
    out_cols = [1 << j for j in range(cols) if not C0 >> j & 1]
    if not any(minor(R0 | i, C0 | j) for i in out_rows for j in out_cols):
        us = [row_sets[i] for i, _ in _class_firsts(minor(R, C0) for R in row_sets)]
        vs = [col_sets[j] for j, _ in _class_firsts(minor(R0, C) for C in col_sets)]
        scan = itertools.islice(((R, C) for R in us for C in vs), 1, None)
    for R, C in scan:
        yield minor(R, C)


def minors(ring, M, rows, cols, r) -> list:
    """Each distinct r x r minor of M up to a scalar, as (the monic minor,
    its lead monomial under the default order): rows and columns
    enumerated lexicographically, each minor at its first occurrence.  For
    r <= 0 the one minor is 1; for r > min(rows, cols) there is none.

    The minors come from one kernel.MinorTable through _minor_scan, which
    evaluates only one pair per class of factor minors when M has rank
    exactly r; the output is that of evaluating them all.  Only the minors
    returned are unpacked to ring term maps.  Raises ValueError when M has
    no rows x cols block."""
    if r <= 0:
        return [(ring.one(), (0,) * ring.n)]
    table = kernel.MinorTable(_integer_rows(M, rows, cols)[0], rows, cols)
    key = ring.default_order.ring_key
    out = []
    for _, d in _class_firsts(_minor_scan(table.minor, rows, cols, r)):
        d = table.unpack(d)
        lead = max(d, key=key)
        out.append((Polynomial.from_kernel(ring, d, d[lead]), lead))
    return out


def minors_ideal(ring, M, rows, cols, r) -> Ideal:
    """Ideal of the monic r x r minors, rows/columns enumerated
    lexicographically, each generator kept at its first occurrence."""
    return Ideal(ring, [g for g, _ in minors(ring, M, rows, cols, r)])


def generic_rank(ring, M, rows, cols) -> int:
    """Rank over the fraction field: _fraction_free_rank on the Polynomial
    entries, each division an exact quotient in Q[x] by a pivot encoded
    once.  be-check and the truncated branch of fitting_loci call it only
    for the levels that _generic_ranks cannot settle at its integer point."""
    return _fraction_free_rank([list(row[:cols]) for row in M[:rows]], cols, _exact_divider)


def _fraction_free_rank(A, cols, divider) -> int:
    """Rank of the matrix with the rows A (a list of lists, overwritten) by
    fraction-free elimination (Bareiss 1968) over an integral domain.  Each
    pivot p is the first nonzero entry of its column among the rows not yet
    used; each later row's entries x right of that column become
    (p * x - a * y) / prev, for its entry a in the column, the pivot row's
    entry y and the previous pivot prev.  Every entry so made is a minor of
    the input, so the division is exact; it goes through divider(prev),
    made once per pivot.  No product or difference is formed with a zero
    operand: the sparse matrices of a resolution are mostly zeros."""
    rank, divide = 0, None
    for j in range(cols):
        pivot = next((i for i in range(rank, len(A)) if A[i][j] != 0), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        p, top = A[rank][j], A[rank][j + 1 :]
        for row in A[rank + 1 :]:
            a = row[j]
            if a == 0:
                new = [x if x == 0 else p * x for x in row[j + 1 :]]
            else:
                new = [_cross(p, x, a, y) for x, y in zip(row[j + 1 :], top)]
            row[j + 1 :] = new if divide is None else [e if e == 0 else divide(e) for e in new]
        divide = divider(p)
        rank += 1
    return rank


def _cross(p, x, a, y):
    """p * x - a * y for nonzero p and a, forming no product or difference
    with a zero operand."""
    if y == 0:
        return x if x == 0 else p * x
    if x == 0:
        return -(a * y)
    return p * x - a * y


# The integer point at which _generic_ranks evaluates the differentials,
# repeated for rings of more variables.  Any point gives a lower bound on
# the rank; this one avoids the small coordinates near 0 at which seeded
# and hand-written entries tend to vanish.
_RANK_POINT = (3, -5, 7, -11, 13, -17, 19, -23)


def _point_rank(M, rows, cols, point) -> int:
    """Rank of the row-scaled integer matrix of M evaluated at the integer
    point: _fraction_free_rank with floor division, which is exact there."""
    value = functools.cache(lambda m: math.prod(map(pow, point, m)))
    A = []
    for row in M[:rows]:
        s = math.lcm(*[e.den for e in row[:cols]])
        A.append([s // e.den * sum(c * value(m) for m, c in e.num.items()) for e in row[:cols]])
    return _fraction_free_rank(A, cols, lambda d: lambda e: e // d)


def _generic_ranks(C: ChainComplex) -> tuple:
    """generic_rank of each phi_k, k = 1..N, certified at one integer point
    where it can be.

    phi_k at _RANK_POINT has rank l_k <= rho_k, since a minor nonzero at a
    point is a nonzero polynomial.  Without a context phi_k phi_{k+1} = 0
    holds exactly (the constructor checks it), so over the fraction field
    rho_k + rho_{k+1} <= rank E_k, and rho_k <= u_k = min(rank E_{k-1} -
    l_{k-1}, rank E_k - l_{k+1}) with l_0 = l_{N+1} = 0.  Where l_k = u_k
    that is rho_k; every other level runs generic_rank, and so does every
    level over a context, where phi phi vanishes only modulo the
    relations."""
    ring, ranks, n = C.ring, C.ranks, C.length
    exact = C.context is None
    low = [0] * (n + 2)
    if exact:
        point = tuple(itertools.islice(itertools.cycle(_RANK_POINT), ring.n))
        for k in range(1, n + 1):
            low[k] = _point_rank(C.diff(k), ranks[k - 1], ranks[k], point)
    return tuple(
        low[k]
        if exact and low[k] == min(ranks[k - 1] - low[k - 1], ranks[k] - low[k + 1])
        else generic_rank(ring, C.diff(k), ranks[k - 1], ranks[k])
        for k in range(1, n + 1)
    )


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
    """fitting_loci, each locus as the _locus triple that
    groebner.certified_dimension takes for its certificate."""
    rk = expected_ranks(C) if C.complete else _generic_ranks(C)
    return tuple(rk), tuple(_locus(C, k, r) for k, r in enumerate(rk, 1))


def _locus(C: ChainComplex, k: int, r: int):
    """(the ideal of the r x r minors of phi_k plus the context relations,
    the supports of its generators' lead monomials, the supports of the
    terms of the entries of phi_k and of the relations).  The entries
    generate an ideal that holds every r x r minor when r >= 1; for r <= 0
    the one minor is 1, whose support stands in for theirs."""
    ring, M, rows, cols = C.ring, C.diff(k), C.ranks[k - 1], C.ranks[k]
    extra = list(C.context.relations.gens) if C.context is not None else []
    pairs = minors(ring, M, rows, cols, r)
    entries = [e for row in M for e in row] if r > 0 else [ring.one()]
    leads = {_support(lead) for _, lead in pairs} | {_support(g.lm()) for g in extra}
    terms = {_support(m) for m in {m for e in entries + extra for m in e.num}}
    return Ideal(ring, tuple(g for g, _ in pairs) + tuple(extra)), leads, terms


def rank_loci(C: ChainComplex) -> ResolutionDiagnostics:
    """The Fitting loci of fitting_loci with their ambient codimensions,
    the bound codim Z_k >= k, and whether locus k sits inside locus k+1
    (None when either locus has no generator or infinite codim).

    Each containment is first tried by degree (_contained), which settles
    False without a Groebner basis when locus k+1 is homogeneous and
    locus k has a homogeneous generator of lower degree than all of its
    generators; otherwise every generator of locus k is tested with
    ideal_member.  Truncated complexes take their ranks from
    _generic_ranks."""
    rk, certified = _fitting_loci(C)
    codims = tuple(certified_dimension(*locus)[1] for locus in certified)
    loci = tuple(I for I, _, _ in certified)
    degrees = tuple(_generator_degrees(I) for I in loci)
    ok = tuple(cd >= k for k, cd in enumerate(codims, 1))
    contain = []
    for k in range(len(loci) - 1):
        a, b = loci[k], loci[k + 1]
        if not a.gens or not b.gens or INFINITE_CODIM in (codims[k], codims[k + 1]):
            contain.append(None)
        else:
            contain.append(_contained(a, b, degrees[k], degrees[k + 1]))
    return ResolutionDiagnostics(rk, loci, codims, ok, tuple(contain))


def _generator_degrees(I: Ideal) -> tuple:
    """The degree of each generator of I, or None for one that is not
    homogeneous."""
    return tuple(
        degrees.pop() if len(degrees := {sum(m) for m in g.num}) == 1 else None for g in I.gens
    )


def _contained(a: Ideal, b: Ideal, degrees_a: tuple, degrees_b: tuple) -> bool:
    """Whether every generator of a lies in b, for b with generators and
    the _generator_degrees of both.

    A nonzero homogeneous g of degree d lies in an ideal b of homogeneous
    generators only through those of degree <= d: the degree-d part of g
    = sum a_i h_i is sum (a_i)_{d - deg h_i} h_i.  So when b's generators
    are all homogeneous and a has a homogeneous generator below the least
    of their degrees, the answer is False and no basis is built; in every
    other case each generator goes through ideal_member."""
    if None not in degrees_b and any(d is not None and d < min(degrees_b) for d in degrees_a):
        return False
    return all(ideal_member(g, b) for g in a.gens)


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

    The generic ranks come from _generic_ranks: the rank of each phi_k at
    one integer point, which is r_k whenever it meets the bound that
    phi_{k-1} phi_k = phi_k phi_{k+1} = 0 put on r_k; only the other
    levels run generic_rank.  Each codim is certified_dimension of the
    level's _locus, the route of rank_loci.

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
    n = C.length
    rho = [0, *_generic_ranks(C), 0]
    levels = []
    passes = True
    for k in range(1, n + 1):
        rank_ok = rho[k] + rho[k + 1] == C.ranks[k]
        cd = certified_dimension(*_locus(C, k, rho[k]))[1]
        codim_ok = cd >= k
        levels.append(ExactnessLevel(k, rank_ok, cd, k, codim_ok))
        passes = passes and rank_ok and codim_ok
    return ExactnessReport(passes, tuple(rho[1 : n + 1]), tuple(levels))


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
    """Smallest (offset, period) with phi_{k+period} equal to phi_k up to
    row and column permutations and column scaling
    (matrices_equal_canonically) for all computed k > offset.  Complete
    complexes report no periodicity; truncated input needs at least four
    computed differentials."""
    if C.complete:
        return PeriodicityReport(False)
    n = C.length
    if n < 4:
        raise ValueError("periodicity detection needs at least 4 computed differentials")
    r = C.ranks

    def same(k, l):
        return matrices_equal_canonically(C.ring, C.diff(k), C.diff(l), r[k - 1], r[k], r[l - 1], r[l])

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


def cohen_macaulay_check(I: Ideal) -> CMReport:
    """is_cm: the global criterion pd(ring/I) = codim I (ambient polynomial
    ring only); resolution_length is that projective dimension, read off
    ambient_resolution.  The criterion holds when ring/I is Cohen-Macaulay
    with every component of one codimension, and for homogeneous I it is
    the graded Cohen-Macaulay property.  It is not Cohen-Macaulayness at
    every point: (x^2 - x, x*y), a line and a point, is Cohen-Macaulay at
    each point but has pd 2 and codim 1, so is_cm is false."""
    dim, codim = dimension(I)
    if codim == INFINITE_CODIM:
        raise ValueError("Cohen-Macaulay check needs a proper ideal")
    pd = ambient_resolution(I)[1]
    return CMReport(pd == codim, pd, codim)
