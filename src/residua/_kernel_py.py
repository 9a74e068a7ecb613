"""Pure-Python term-arithmetic kernel.

Everything downstream (division, Buchberger, syzygies, resolutions) spends
its time in these few functions, so they work on plain data only:

    term key  = (position, exponent-tuple)        position 0 for ring elements
    term map  = dict {term key: Fraction}         empty dict = zero
    divisor   = (lead key, lead coeff, term map)

A compiled twin lives in _kernel_c.pyx; residua.kernel picks one at import.
Both must stay behaviourally identical bit for bit.
"""

from __future__ import annotations


def exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def exp_divides(a, b):
    """True when x^a divides x^b componentwise."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def leading_key(terms, keyfn):
    """Largest term key under keyfn, or None for the zero map."""
    if not terms:
        return None
    return max(terms, key=keyfn)


def add_scaled_inplace(dst, src, coeff, mono):
    """dst += coeff * x^mono * src, dropping cancelled terms."""
    pos_mono = mono
    for key, c in src.items():
        k = (key[0], tuple(x + y for x, y in zip(key[1], pos_mono)))
        acc = dst.get(k)
        if acc is None:
            dst[k] = coeff * c
        else:
            acc = acc + coeff * c
            if acc:
                dst[k] = acc
            else:
                del dst[k]


def reduce_terms(f, divisors, keyfn, want_quotients):
    """Full multivariate division of a term map by a divisor list.

    Returns (quotients, remainder) with f = sum(q_i * g_i) + remainder,
    no remainder term divisible by any divisor lead, and every reduction
    step strictly decreasing, so lead(q_i * g_i) <= lead(f).  Quotients
    are ring term maps {exponent-tuple: Fraction} (no position), or None
    when want_quotients is false.
    """
    work = dict(f)
    rem = {}
    quots = [{} for _ in divisors] if want_quotients else None
    # order keys are pure in the term key, so memoize them across steps
    key_cache = {}

    def cached_key(t):
        v = key_cache.get(t)
        if v is None:
            v = keyfn(t)
            key_cache[t] = v
        return v

    while work:
        t = max(work, key=cached_key)
        c = work[t]
        tpos = t[0]
        texp = t[1]
        hit = False
        for i, (lk, lc, g) in enumerate(divisors):
            if lk[0] != tpos:
                continue
            if not exp_divides(lk[1], texp):
                continue
            m = tuple(x - y for x, y in zip(texp, lk[1]))
            factor = c / lc
            add_scaled_inplace(work, g, -factor, m)
            if want_quotients:
                q = quots[i]
                q[m] = q.get(m, 0) + factor
            hit = True
            break
        if not hit:
            rem[t] = c
            del work[t]
    return quots, rem
