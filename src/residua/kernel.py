"""Term-arithmetic kernel: the few functions that polynomial products,
division, Buchberger, syzygies, resolutions and minors spend their time
in.  They work on plain data:

    term           = int, the packed order key of (position, exponents)
                     under one Codec: int comparison is the order
    shift          = int, the packed exponents of a monomial x^m: the
                     term of t * x^m is t + shift, and the shift from a
                     term a to a term b it divides is b - a
    term map       = dict {term: coefficient}       empty dict = zero
    ring term map  = dict {exponent-tuple: coefficient}
    divisor        = (lead term, lead coeff, term map)

A Codec packs the order key of a monomial order (MonomialOrder.term_key,
the public definition of the order) into fixed-width biased fields of
one int, and back.  Every entry of an order key is affine in the
exponents at a fixed position, so packing turns a product into an add, a
comparison into an int compare, and a divisibility test into one masked
subtraction.  Division and the engine work on term maps of one codec
within a call; the (position, exponents) form appears only at the
polynomial boundary (polyring.to_terms and from_terms).  A syzygy
computation moves its terms from the input codec to the Schreyer codec
made from it (Codec.schreyer, one layout per parent) by a shift and an
add per term, with no decoding (Codec.from_parent), and moves the
syzygies it keeps back the same way (Codec.to_parent); under grevlex and
grlex the degree of a term is read off one field (Codec.degrees).  Sums,
products and powers of polynomials work on ring term maps: add_product
and power are the one addition and multiplication of Polynomial and the
parser.
Determinants and minors go through MinorTable, which packs the exponent
tuples of one matrix into ints of its own width.

Term maps are integer.  Division is fraction-free: a step scales the work
set by an integer instead of dividing by a divisor's lead coefficient, and
the Buchberger engine keeps its basis elements primitive.  A polynomial
stores its integer ring term map over one denominator (polyring), so it
enters and leaves the engine with one packing each way, and the
representations the engine tracks are integer maps over one denominator
as well; integer_terms brings a term map with Fraction coefficients to
that form, for outside input (polyring).

Exponent limit: with FIELD_BITS = 64 every field of a packed order key
must stay below 2^60 in absolute value (LIMIT).  Input whose terms have
total degree LIMIT or more raises ExponentOverflowError (a ValueError)
when it is packed, and a computation whose terms or S-pair lcms grow
past it stops with the same error instead of carrying into the next
field.  MinorTable's packing is sized per matrix and has no limit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, lshift, mul
from types import MappingProxyType

BACKEND = "py"  # the one kernel there is; benchmark stamps record it

FIELD_BITS = 64  # width of one packed order-key field


class ExponentOverflowError(ValueError):
    """A term whose order key does not fit the packed fields: input
    beyond the exponent limit, or a computation whose terms grew past it."""


def exp_add(a, b):
    return tuple(map(add, a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def exp_divides(a, b):
    """True when x^a divides x^b componentwise."""
    return all(map(le, a, b))


# the attributes _layout sets: a packing, shared by the Schreyer codecs of one parent
_LAYOUT = (
    "lin", "limit", "rep_shift", "_bias", "_bias_all", "_pos_shift", "_full",
    "_doff", "_dmask", "_dpat", "_goff", "_gmask", "_gpat",
    "_var_shifts", "_sign", "_shifts", "_lins", "_var_fields", "_deg_shift",
)


class Codec:
    """Packed terms of one monomial order over n variables.

    keyfn maps (pos, exps) to the order key, a flat tuple of L ints, each
    affine in exps at a fixed pos (MonomialOrder.term_key), and the entry
    at index pos_field is -pos.  A term packs the key into L fields of W =
    FIELD_BITS bits, field 0 most significant, each entry plus the bias
    2^(W-1):

        term(pos, e) = base(pos) + sum(e_i * lin[i])

    base(pos) packs keyfn((pos, 0)) and lin[i], the unbiased packed
    difference keyfn((pos, unit_i)) - keyfn((pos, 0)), does not depend on
    pos.  While every field stays in [0, 2^W), int order is tuple order.
    A codec probes keyfn for these; the codec of a Schreyer order comes
    from its parent's codec (schreyer), which lays out its children once,
    takes the parent's terms by a shift (from_parent) and gives them back
    by the inverse shift (to_parent).

    The guard keeps every field in range.  A term is in range when every
    entry lies in [-LIMIT, LIMIT), LIMIT = 2^(W-4): packing checks its
    input (total degree below LIMIT, and under a Schreyer order, whose
    base shifts the exponent fields, the packed term too), division checks
    every term it pops and the engine every S-pair lcm.  Terms of kernel
    maps are in range, and a product s + (t - a) of three of them moves
    each entry by less than 3 * LIMIT, so no field carries.  The signature
    terms of groebner._signature_loop, which lie above the terms they
    sign, are checked against 2 * LIMIT instead (check(t, wide=True)):
    one of them times the quotient of two terms stays below 4 * LIMIT.

    A term a divides a term b when one masked test on b - a passes
    (dividing): the positions agree (the pos field of the difference is
    0) and no exponent field of the difference has the wrong sign.  The
    exponent field of variable i is the last field in which lin[i] is +-1
    and every other lin is 0; within one order they all carry one sign
    (-e for grevlex, +e for lex and grlex).

    Representations tracked by the engine are keyed by rep(j) + shift:
    position j above all L fields, the monomial's shift in the fields
    (bias included), so they take the same shifts as terms.
    """

    __slots__ = ("keyfn", "_shifted", "_zero", "_bases", "_child_layout", *_LAYOUT)

    def __init__(self, keyfn, n: int, pos_field: int):
        self.keyfn = keyfn
        self._zero = (0,) * n
        k0 = keyfn((0, self._zero))
        lins = []
        for i in range(n):
            unit = tuple(int(j == i) for j in range(n))
            lins.append([a - b for a, b in zip(keyfn((0, unit)), k0)])
        var_fields = [None] * n
        for j, col in enumerate(zip(*lins)):
            sizes = list(map(abs, col))
            if sum(sizes) == 1:  # the last such field wins
                var_fields[sizes.index(1)] = j
        if None in var_fields:
            raise ValueError("the order key has no field for a variable's exponent")
        self._layout(lins, var_fields, pos_field % len(k0))
        self._shifted = False
        self._bases = []
        self._child_layout = None

    def _layout(self, lins: list, var_fields: list, pos_field: int) -> None:
        """Set the packing of keys whose entry j moves by lins[i][j] per
        unit of exponent i, with variable i's exponent in field
        var_fields[i] and -pos in field pos_field."""
        signs = {lins[i][j] for i, j in enumerate(var_fields)}
        if len(signs) != 1:
            raise ValueError("the exponent fields of one order must carry one sign")
        W, L = FIELD_BITS, len(lins[0])
        self._lins, self._var_fields, self._sign = lins, var_fields, signs.pop()
        self._shifts = shifts = [W * (L - 1 - j) for j in range(L)]
        ones = sum(1 << s for s in shifts)
        top = 1 << (W - 1)
        self._bias, self._bias_all, self._full = top, top * ones, (1 << W) - 1
        self._pos_shift = shifts[pos_field]
        self.lin = tuple(sum(d << s for d, s in zip(diff, shifts)) for diff in lins)
        doff = dmask = dpat = 0
        for j, s in enumerate(shifts):
            off, mask, pat = top, 0, 0
            if j == pos_field:
                mask, pat = self._full, top
            elif j in var_fields:
                # d >= 0 sets the top bit of d + 2^(W-1); d <= 0 clears it in d + 2^(W-1) - 1
                off, mask, pat = (top, top, top) if self._sign > 0 else (top - 1, top, 0)
            doff, dmask, dpat = doff | off << s, dmask | mask << s, dpat | pat << s
        self._doff, self._dmask, self._dpat = doff, dmask, dpat
        # in range: entry + 2^(W-1) + LIMIT has top three bits 100
        self.limit = 1 << (W - 4)
        self._goff, self._gmask, self._gpat = self.limit * ones, (7 << (W - 3)) * ones, top * ones
        self._var_shifts = [shifts[j] for j in var_fields]
        self.rep_shift = W * L
        # the total degree field of grevlex and grlex (the first entry of
        # ring_key): one unit per unit of every exponent
        deg = [j for j in range(L) if j != pos_field and lins and all(d[j] == 1 for d in lins)]
        self._deg_shift = shifts[deg[0]] if deg else None

    def schreyer(self, keyfn, leads: list) -> "Codec":
        """The codec of the Schreyer order keyfn induced by the lead terms
        leads of this codec.  Its key of (pos, e) is this order's key of
        leads[pos] * x^e followed by -pos (MonomialOrder.term_key), so it
        packs one field more, and base(pos) is leads[pos] moved up one
        field above bias - pos; nothing is probed.

        Each lin is this codec's moved up one field, so a term t of this
        codec at position q is the child's term
        base(q) + ((t - self.base(q)) << FIELD_BITS) (from_parent).  The
        layout depends only on this codec's lins and variable fields: it
        is made once, on the first call, and every child shares it; each
        child has its own keyfn and bases."""
        c = object.__new__(Codec)
        if self._child_layout is None:
            c._layout([diff + [0] for diff in self._lins], self._var_fields, len(self._lins[0]))
            self._child_layout = tuple(getattr(c, name) for name in _LAYOUT)
        else:
            for name, value in zip(_LAYOUT, self._child_layout):
                setattr(c, name, value)
        c.keyfn, c._zero, c._shifted, c._child_layout = keyfn, self._zero, True, None
        c._bases = [(lead << FIELD_BITS) + c._bias - pos for pos, lead in enumerate(leads)]
        return c

    def from_parent(self, tm: dict, parent: "Codec") -> dict:
        """The term map tm of parent, the codec this Schreyer codec was
        made from (schreyer), at positions below the number of its leads,
        as checked terms of this codec: by the shift identity of
        schreyer, no term is decoded."""
        if not tm:
            return {}
        bases, W = self._bases, FIELD_BITS
        parent.base(len(bases) - 1)  # probes the parent's bases up to the last position
        pbases = parent._bases
        ps, full, bias = parent._pos_shift, parent._full, parent._bias
        goff, gmask, gpat = self._goff, self._gmask, self._gpat
        out = {}
        for t, c in tm.items():
            q = bias - (t >> ps & full)
            u = bases[q] + ((t - pbases[q]) << W)
            if (u + goff) & gmask != gpat:
                self.check(u)
            out[u] = c
        return out

    def to_parent(self, tm: dict, parent: "Codec") -> dict:
        """The term map tm of this Schreyer codec as checked terms of
        parent, the codec it was made from (schreyer), at the same
        positions: the inverse of from_parent.  A term u at position q is
        the parent's term parent.base(q) + ((u - base(q)) >> FIELD_BITS),
        exactly, since u - base(q) is the shift of x^e moved up one field;
        q is read from the low field, and nothing is decoded."""
        if not tm:
            return {}
        bases, W, full, bias = self._bases, FIELD_BITS, self._full, self._bias
        parent.base(len(bases) - 1)  # probes the parent's bases up to the last position
        pbases = parent._bases
        goff, gmask, gpat = parent._goff, parent._gmask, parent._gpat
        out = {}
        for u, c in tm.items():
            q = bias - (u & full)  # a Schreyer codec's position field is the last
            t = pbases[q] + ((u - bases[q]) >> W)
            if (t + goff) & gmask != gpat:
                parent.check(t)
            out[t] = c
        return out

    def degrees(self, terms, offsets: list) -> list:
        """sum(e) + offsets[pos] for each term (pos, e) of terms (a term map
        or a list of terms), in order.  Under grevlex and grlex one field
        of the key holds the total degree of the monomial the key packs,
        and it is read without decoding: in a Schreyer codec that is the
        parent's degree of lead_pos * x^e, which exceeds sum(e) by the same
        field of base(pos).  Lex has no degree field and decodes."""
        if self._deg_shift is None:
            return [sum(m) + offsets[pos] for pos, m in self.decode_terms(terms)]
        ds, ps, full, bias = self._deg_shift, self._pos_shift, self._full, self._bias
        self.base(len(offsets) - 1)  # probes the bases up to the last position
        adjust = [off - (b >> ds & full) for b, off in zip(self._bases, offsets)]
        return [(t >> ds & full) + adjust[bias - (t >> ps & full)] for t in terms]

    def base(self, pos: int) -> int:
        """The term of the unit vector e_pos (monomial 1)."""
        bases = self._bases
        while len(bases) <= pos:
            p = len(bases)
            key = self.keyfn((p, self._zero))
            b = self._bias_all + sum(k << s for k, s in zip(key, self._shifts))
            # a key with exponent entries at e = 0 (a Schreyer order's) needs
            # the guard test on packed input, not only the degree bound
            self._shifted |= b != self._bias_all - (p << self._pos_shift)
            bases.append(b)
        return bases[pos]

    def rep(self, j: int) -> int:
        """The representation key of e_j (monomial 1)."""
        return (j << self.rep_shift) + self._bias_all

    def encode(self, num: dict, pos: int = 0) -> dict:
        """The term map at position pos of the ring term map num; raises
        ExponentOverflowError for a term beyond the exponent limit."""
        if not num:
            return {}
        if max(map(sum, num)) >= self.limit:
            raise ExponentOverflowError(
                f"a term of total degree {max(map(sum, num))} is beyond the exponent limit {self.limit}"
            )
        b, lin = self.base(pos), self.lin
        tm = {sum(map(mul, m, lin), b): c for m, c in num.items()}
        if self._shifted:
            for t in tm:
                self.check(t)
        return tm

    def term(self, pos: int, exps: tuple) -> int:
        """The checked term of (pos, exps)."""
        return self.check(sum(map(mul, exps, self.lin), self.base(pos)))

    def check(self, t: int, wide: bool = False) -> int:
        """t, or ExponentOverflowError when a field of t is out of range,
        or with wide beyond twice the limit (a signature term)."""
        goff, gmask, gpat = self._goff, self._gmask, self._gpat
        if (t + goff) & gmask != gpat and not (
            # within twice the limit: entry + 2^(W-1) + 2 * LIMIT has top two bits 10
            wide and (t + 2 * goff) & gmask & (gmask << 1) == gpat
        ):
            raise ExponentOverflowError("a term grew beyond the exponent limit")
        return t

    def exponents(self, shift: int) -> tuple:
        """The exponent tuple of the monomial with the given shift."""
        v, full, bias = shift + self._bias_all, self._full, self._bias
        if self._sign > 0:
            return tuple([(v >> s & full) - bias for s in self._var_shifts])
        return tuple([bias - (v >> s & full) for s in self._var_shifts])

    def decode(self, t: int) -> tuple:
        """(pos, exps) of the term t."""
        pos = self._bias - ((t >> self._pos_shift) & self._full)
        return pos, self.exponents(t - self._bases[pos])

    def _exponent_tuples(self, biased: list):
        """The exponent tuples of shifts given plus the bias, built one
        variable (one field) at a time: a column per variable, zipped."""
        full, bias = self._full, self._bias
        if self._sign > 0:
            cols = [[(v >> s & full) - bias for v in biased] for s in self._var_shifts]
        else:
            cols = [[bias - (v >> s & full) for v in biased] for s in self._var_shifts]
        return zip(*cols)

    def ring_terms(self, tm: dict) -> dict:
        """The ring term map of a term map at position 0."""
        if not tm:
            return {}
        off = self._bias_all - self.base(0)
        return dict(zip(self._exponent_tuples([t + off for t in tm]), tm.values()))

    def decode_terms(self, tm: dict):
        """(pos, exps) of each term of tm, in its order."""
        full, bias, bases, ps, ba = self._full, self._bias, self._bases, self._pos_shift, self._bias_all
        pos = [bias - (t >> ps & full) for t in tm]
        return zip(pos, self._exponent_tuples([t - bases[p] + ba for t, p in zip(tm, pos)]))

    def dividing(self, terms: list, b: int) -> list:
        """The indices of the terms that divide the term b."""
        b, dmask, dpat = b + self._doff, self._dmask, self._dpat
        return [k for k, a in enumerate(terms) if (b - a) & dmask == dpat]

    def divides_tail(self, leads: list, tm: dict, lead: int) -> bool:
        """Whether one of leads, terms sorted ascending, divides a term of
        the term map tm other than lead: the test of dividing, per term
        against the leads at or below it (a term divides only terms at or
        above it)."""
        doff, dmask, dpat = self._doff, self._dmask, self._dpat
        for t in tm:
            if t != lead:
                b = t + doff
                for a in leads:
                    if a > t:
                        break
                    if (b - a) & dmask == dpat:
                        return True
        return False


def add_scaled_inplace(dst, src, coeff, shift):
    """dst += coeff * x^m * src for the shift of x^m, on term maps of one
    codec or representation maps keyed from Codec.rep, dropping cancelled
    terms."""
    get = dst.get
    for t, c in src.items():
        k = t + shift
        acc = get(k)
        if acc is None:
            dst[k] = coeff * c
        else:
            acc = acc + coeff * c
            if acc:
                dst[k] = acc
            else:
                del dst[k]


def add_product(dst, a, b, coeff=1):
    """dst += coeff * a * b on ring term maps, dropping cancelled terms; a's
    terms run outside, b's inside, so new keys come in that order.  Returns
    dst."""
    get = dst.get
    for m1, c1 in a.items():
        c1 *= coeff
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            acc = get(m)
            if acc is None:
                dst[m] = c1 * c2
            else:
                acc += c1 * c2
                if acc:
                    dst[m] = acc
                else:
                    del dst[m]
    return dst


def power(tm, e, one):
    """tm ** e as a new ring term map, by square and multiply from one, the
    ring term map of 1; a single term is raised in one step."""
    if len(tm) == 1:
        ((m, c),) = tm.items()
        return {tuple([x * e for x in m]): c**e}
    out = dict(one)
    while e:
        if e & 1:
            out = add_product({}, out, tm)
        if e > 1:
            tm = add_product({}, tm, tm)
        e >>= 1
    return out


ZERO = MappingProxyType({})  # the one zero minor of every MinorTable, never mutated


class _Unions(dict):
    """{lines: the union of support[i] over the bits i of lines}, filled on
    demand: with support the nonzero columns of each row, the columns with
    a nonzero entry in the rows lines; with support the nonzero rows of
    each column, the rows with one in the columns lines."""

    __slots__ = ("support",)

    def __init__(self, support):
        super().__init__({0: 0})
        self.support = support

    def __missing__(self, lines):
        low = lines & -lines
        u = self[lines] = self.support[low.bit_length() - 1] | self[lines ^ low]
        return u


class MinorTable:
    """Minors of one rows x cols matrix of integer ring term maps, each
    expanded along its first row.

    Row and column sets are bit masks of equal, nonzero popcount; every
    sub-minor is kept by (rows, cols) in one memo, so the minors of one
    matrix share them.  A table serves one call and is then dropped.

    Terms are packed: the exponent tuple e is the int sum(e_i << W * (n - 1
    - i)), so a product of terms is an int addition and int order is lex
    order.  A term of a minor is a product of at most r = min(rows, cols)
    entry terms, so none of its exponents exceeds r * e_max, e_max the
    largest exponent of an entry: fields of W = (r * e_max).bit_length()
    bits hold it, no sum carries into the next field, and there is no
    exponent limit.  minor returns packed term maps; unpack gives the ring
    term map of one.

    On a memo miss, a block with a row that has no nonzero entry in its
    columns, or a column that has none in its rows, is zero without
    expansion: a single row or column fails Hall's condition, so the block
    has no nonzero permutation term.  Every zero minor is the shared ZERO,
    and the memo keeps only the blocks that were expanded."""

    __slots__ = ("shifts", "mask", "cols", "entries", "nonzero", "row_reach", "col_reach", "memo")

    def __init__(self, entries, rows, cols):
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError(f"the minors of a {rows} x {cols} block need {rows} rows of {cols} entries")
        monomials = {m for row in entries for e in row for m in e}
        W = (min(rows, cols) * max((x for m in monomials for x in m), default=0)).bit_length()
        n = len(next(iter(monomials), ()))
        self.shifts, self.mask = [W * (n - 1 - i) for i in range(n)], (1 << W) - 1
        packed = {m: sum(map(lshift, m, self.shifts)) for m in monomials}
        self.entries = [[{packed[m]: c for m, c in e.items()} if e else ZERO for e in row] for row in entries]
        self.cols = cols
        self.nonzero = [[(1 << j, e) for j, e in enumerate(row) if e] for row in self.entries]
        self.row_reach = _Unions([sum(bit for bit, _ in row) for row in self.nonzero])
        self.col_reach = _Unions(
            [sum(1 << i for i, row in enumerate(self.entries) if row[j]) for j in range(cols)]
        )
        self.memo = {}

    def unpack(self, d):
        """The ring term map of the packed term map d."""
        shifts, mask = self.shifts, self.mask
        return {tuple([t >> s & mask for s in shifts]): c for t, c in d.items()}

    def minor(self, rows, cols):
        """The packed term map of the minor on the rows and columns."""
        low = rows & -rows
        rest = rows ^ low
        if not rest:
            return self.entries[low.bit_length() - 1][cols.bit_length() - 1]
        key = rows << self.cols | cols
        d = self.memo.get(key)
        if d is None:
            if cols & ~self.row_reach[rows] or rows & ~self.col_reach[cols]:
                return ZERO
            acc = {}
            get = acc.get
            for bit, e in self.nonzero[low.bit_length() - 1]:
                if cols & bit:
                    sub = self.minor(rest, cols ^ bit)
                    if sub:
                        # the sign of the entry's place among the columns
                        odd = (cols & (bit - 1)).bit_count() & 1
                        for t1, c1 in e.items():
                            if odd:
                                c1 = -c1
                            for t2, c2 in sub.items():
                                t = t1 + t2
                                c = get(t)
                                if c is None:
                                    acc[t] = c1 * c2
                                else:
                                    c += c1 * c2
                                    if c:
                                        acc[t] = c
                                    else:
                                        del acc[t]
            d = self.memo[key] = acc or ZERO
        return d


def integer_terms(tm):
    """(n, d): the integer term map n = d * tm, d the lcm of the
    denominators of tm's int or Fraction coefficients; gcd(d, content of
    n) = 1."""
    d = lcm(*[c.denominator for c in tm.values()])
    return {k: c.numerator * (d // c.denominator) for k, c in tm.items()}, d


def primitive(tm, lead):
    """(p, c): the integer term map tm = c * p, with p of content 1 and a
    positive coefficient at the key lead."""
    c = gcd(*tm.values())
    if tm[lead] < 0:
        c = -c
    if c == 1:
        return tm, 1
    return {k: v // c for k, v in tm.items()}, c


def reduce_terms(f, divisors, codec, want_quotients, below=None):
    """Full multivariate pseudo-division of an integer term map by integer
    divisors, all terms of codec.  With below, a list of one int per
    divisor, divisor i may cancel only terms t < below[i] (the signature
    engine's regular reduction, groebner._signature_loop); without it,
    any term its lead divides.

    Returns (quotients, remainder, multiplier): integer term maps and a
    positive int m with m * f = sum(q_i * g_i) + remainder, no remainder
    term divisible by any divisor lead, and every step strictly
    decreasing, so lead(q_i * g_i) <= lead(f).  The remainder lists its
    terms in decreasing order, lead first.  Quotients map shifts to
    coefficients, or are None when want_quotients is false.

    Each step cancels the largest term of the work set against the first
    divisor whose lead divides it, exactly as division over Q does, so
    (remainder / m, q_i / m) is the rational division of f by the g_i.
    The work set is a heap of negated terms, and every term popped from
    it passes the codec's guard before it is divided.
    """
    work = dict(f)
    get = work.get
    heap = [-t for t in work]
    heapify(heap)
    doff, dmask, dpat = codec._doff, codec._dmask, codec._dpat
    goff, gmask, gpat = codec._goff, codec._gmask, codec._gpat
    # t - (lead - doff) is the shift plus doff, which one mask tests
    divs = [(lk - doff, lc, g) for lk, lc, g in divisors]
    mult = 1
    rem = []  # (term, coefficient, multiplier when it left the work set)
    steps = []  # (divisor index, shift, coefficient, multiplier after the step)
    while heap:
        t = -heappop(heap)
        c = get(t)
        if c is None:  # cancelled, or pushed twice
            continue
        if (t + goff) & gmask != gpat:
            codec.check(t)
        for i, (lkd, lc, g) in enumerate(divs):
            m = t - lkd
            if m & dmask != dpat or below and t >= below[i]:
                continue
            m -= doff
            h = gcd(c, lc)
            a, b = lc // h, c // h
            if a < 0:
                a, b = -a, -b
            if a != 1:
                mult *= a
                for k in work:
                    work[k] *= a
            # work -= b * x^m * g, pushing the terms it adds
            for s, cs in g.items():
                k = s + m
                acc = get(k)
                if acc is None:
                    work[k] = -b * cs
                    heappush(heap, -k)
                else:
                    acc -= b * cs
                    if acc:
                        work[k] = acc
                    else:
                        del work[k]
            if want_quotients:
                steps.append((i, m, b, mult))
            break
        else:
            rem.append((t, c, mult))
            del work[t]
    remainder = {t: c if at == mult else c * (mult // at) for t, c, at in rem}
    quots = None
    if want_quotients:
        quots = [{} for _ in divisors]
        for i, m, b, at in steps:
            quots[i][m] = b if at == mult else b * (mult // at)
    return quots, remainder, mult
