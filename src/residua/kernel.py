"""Term-arithmetic kernel: the few functions that polynomial products,
division, Buchberger, syzygies, resolutions and minors spend their time
in.  They work on plain data:

    term key       = (position, exponent-tuple)   position 0 for ring elements
    term map       = dict {term key: coefficient} empty dict = zero
    ring term map  = dict {exponent-tuple: coefficient}
    divisor        = (lead key, lead coeff, term map)
    order key      = flat tuple of ints, one length per order (the order's
                     term_key of a term key); HeapKeys memoizes them negated

Division and the engine work on term maps, under one HeapKeys memo per
order within a top-level call.  Sums, products and powers work on ring
term maps: add_product and power are the one addition and multiplication
of Polynomial, the parser, determinants, minors and generic ranks.

Term maps are integer.  Division is fraction-free: a step scales the work
set by an integer instead of dividing by a divisor's lead coefficient, and
the Buchberger engine keeps its basis elements primitive.  A polynomial
stores its integer ring term map over one denominator (polyring), so it
enters and leaves the engine without conversion; integer_terms brings a
term map with Fraction coefficients to that form, for outside input and
for the Fraction representations the engine tracks.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub

BACKEND = "py"  # the one kernel there is; benchmark stamps record it


def exp_add(a, b):
    return tuple(map(add, a, b))


def exp_sub(a, b):
    return tuple(map(sub, a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def exp_divides(a, b):
    """True when x^a divides x^b componentwise."""
    return all(map(le, a, b))


def leading_key(terms, keyfn):
    """Largest term key under keyfn, or None for the zero map."""
    if not terms:
        return None
    return max(terms, key=keyfn)


def add_scaled_inplace(dst, src, coeff, mono, fresh=None):
    """dst += coeff * x^mono * src, dropping cancelled terms.  The keys it
    adds to dst are appended to the list fresh when one is given."""
    get = dst.get
    for (pos, e), c in src.items():
        k = (pos, tuple(map(add, e, mono)))
        acc = get(k)
        if acc is None:
            dst[k] = coeff * c
            if fresh is not None:
                fresh.append(k)
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


class HeapKeys(dict):
    """Memo of heap keys of one order, term key -> negated order key, so
    the largest term has the smallest heap key.  keyfn is the order: it
    maps a term key to a flat tuple of ints, all of one length.  One memo
    serves each order within a call, shared by the engine and every
    reduction after it."""

    __slots__ = ("keyfn",)

    def __init__(self, keyfn):
        super().__init__()
        self.keyfn = keyfn

    def __missing__(self, t):
        v = self[t] = tuple([-x for x in self.keyfn(t)])
        return v


def reduce_terms(f, divisors, keys, want_quotients):
    """Full multivariate pseudo-division of an integer term map by integer
    divisors.

    Returns (quotients, remainder, multiplier): integer term maps and a
    positive int m with m * f = sum(q_i * g_i) + remainder, no remainder
    term divisible by any divisor lead, and every step strictly
    decreasing, so lead(q_i * g_i) <= lead(f).  The remainder lists its
    terms in decreasing order, lead first.  Quotients are ring term maps
    {exponent-tuple: int} (no position), or None when want_quotients is
    false.  keys is the HeapKeys memo of the order.

    Each step cancels the largest term of the work set against the first
    divisor whose lead divides it, exactly as division over Q does, so
    (remainder / m, q_i / m) is the rational division of f by the g_i.
    """
    work = dict(f)
    heap = [(keys[t], t) for t in work]
    heapify(heap)
    mult = 1
    rem = []  # (term, coefficient, multiplier when it left the work set)
    steps = []  # (divisor index, monomial, coefficient, multiplier after the step)
    while heap:
        t = heappop(heap)[1]
        c = work.get(t)
        if c is None:  # cancelled, or pushed twice
            continue
        tpos, texp = t
        for i, (lk, lc, g) in enumerate(divisors):
            if lk[0] != tpos or not all(map(le, lk[1], texp)):
                continue
            h = gcd(c, lc)
            a, b = lc // h, c // h
            if a < 0:
                a, b = -a, -b
            if a != 1:
                mult *= a
                for k in work:
                    work[k] *= a
            m = tuple(map(sub, texp, lk[1]))
            fresh = []
            add_scaled_inplace(work, g, -b, m, fresh)
            for k in fresh:
                heappush(heap, (keys[k], k))
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
