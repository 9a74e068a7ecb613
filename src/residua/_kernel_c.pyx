# cython: language_level=3
# cython: boundscheck=False
# cython: wraparound=False
"""Compiled term-arithmetic kernel: the Cython twin of _kernel_py.

Same data contracts, same operation order, bit-for-bit identical results;
coefficients stay exact Python Fractions, only the loop plumbing compiles.
"""


def exp_add(tuple a, tuple b):
    cdef Py_ssize_t i, n = len(a)
    if len(b) < n:
        n = len(b)
    cdef list out = [None] * n
    for i in range(n):
        out[i] = a[i] + b[i]
    return tuple(out)


def exp_sub(tuple a, tuple b):
    cdef Py_ssize_t i, n = len(a)
    if len(b) < n:
        n = len(b)
    cdef list out = [None] * n
    for i in range(n):
        out[i] = a[i] - b[i]
    return tuple(out)


def exp_lcm(tuple a, tuple b):
    cdef Py_ssize_t i, n = len(a)
    if len(b) < n:
        n = len(b)
    cdef list out = [None] * n
    for i in range(n):
        out[i] = a[i] if a[i] >= b[i] else b[i]
    return tuple(out)


def exp_divides(tuple a, tuple b):
    """True when x^a divides x^b componentwise."""
    cdef Py_ssize_t i, n = len(a)
    if len(b) < n:
        n = len(b)
    for i in range(n):
        if a[i] > b[i]:
            return False
    return True


cdef inline bint _divides(tuple a, tuple b):
    cdef Py_ssize_t i, n = len(a)
    if len(b) < n:
        n = len(b)
    for i in range(n):
        if a[i] > b[i]:
            return False
    return True


cdef inline tuple _shift(tuple exps, tuple mono):
    cdef Py_ssize_t i, n = len(exps)
    if len(mono) < n:
        n = len(mono)
    cdef list out = [None] * n
    for i in range(n):
        out[i] = exps[i] + mono[i]
    return tuple(out)


def leading_key(dict terms, keyfn):
    """Largest term key under keyfn, or None for the zero map."""
    if not terms:
        return None
    return max(terms, key=keyfn)


def add_scaled_inplace(dict dst, dict src, coeff, tuple mono):
    """dst += coeff * x^mono * src, dropping cancelled terms."""
    cdef tuple key, k
    for key, c in src.items():
        k = (key[0], _shift(<tuple> key[1], mono))
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
    cdef dict work = dict(f)
    cdef dict rem = {}
    cdef list divs = list(divisors)
    cdef list quots = None
    if want_quotients:
        quots = [{} for _ in divs]
    cdef Py_ssize_t i, j, n, ndiv = len(divs)
    cdef tuple t, texp, lk, lkexp, m
    cdef dict q
    cdef bint hit
    cdef list out
    # order keys are pure in the term key, so memoize them across steps
    cdef dict key_cache = {}
    cdef object best_t, best_k, k0

    while work:
        # max(work, key=...) with the key cache, first-wins on ties
        best_t = None
        best_k = None
        for t0 in work:
            k0 = key_cache.get(t0)
            if k0 is None:
                k0 = keyfn(t0)
                key_cache[t0] = k0
            if best_k is None or k0 > best_k:
                best_k = k0
                best_t = t0
        t = <tuple> best_t
        c = work[t]
        tpos = t[0]
        texp = <tuple> t[1]
        hit = False
        for i in range(ndiv):
            div = divs[i]
            lk = <tuple> div[0]
            if lk[0] != tpos:
                continue
            lkexp = <tuple> lk[1]
            if not _divides(lkexp, texp):
                continue
            n = len(texp)
            if len(lkexp) < n:
                n = len(lkexp)
            out = [None] * n
            for j in range(n):
                out[j] = texp[j] - lkexp[j]
            m = tuple(out)
            factor = c / div[1]
            add_scaled_inplace(work, <dict> div[2], -factor, m)
            if want_quotients:
                q = <dict> quots[i]
                q[m] = q.get(m, 0) + factor
            hit = True
            break
        if not hit:
            rem[t] = c
            del work[t]
    return quots, rem
