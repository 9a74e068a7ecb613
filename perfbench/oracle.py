"""Reference answers that share no code with residua.

Polynomials are plain term maps {exponent tuple: Fraction}.  Groebner
bases, normal forms and membership come from sympy (imported lazily, only
when answers are checked, so it never touches set-up time or the peak
memory of the timed phase).  Betti numbers come from structure theorems
the benchmark's inputs are built to satisfy:

* Eliahou-Kervaire: for a strongly stable monomial ideal I with minimal
  generators G(I), beta_i(I) = sum over u in G(I) of C(max(u) - 1, i),
  where max(u) is the largest index of a variable dividing u.
* Shamash: if f lies in m * I and I is generated by a regular sequence of
  length c, then over S = R/(f) the Betti numbers of S/IS are the
  coefficients of (1 + t)^c / (1 - t^2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


# -- term-map arithmetic ------------------------------------------------------


def t_add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def t_scale(p, c):
    return {m: v * c for m, v in p.items()} if c else {}


def t_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def t_mono(exps, c=1):
    return {tuple(exps): Fraction(c)}


def canon(p):
    """Order-free canonical form of a term map: sorted [exps, "coeff"] pairs."""
    return [[list(m), str(c)] for m, c in sorted(p.items())]


# -- sympy bridge --------------------------------------------------------------


@lru_cache(maxsize=None)
def _symbols(names):
    import sympy

    return sympy.symbols(names)


def _to_poly(names, p):
    import sympy

    gens = _symbols(tuple(names))
    rep = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.items()}
    return sympy.Poly.from_dict(rep or {(0,) * len(names): 0}, *gens, domain="QQ")


def _from_poly(P):
    return {tuple(m): Fraction(int(c.p), int(c.q)) for m, c in P.terms() if c}


class ReferenceIdeal:
    """An ideal's reduced basis, normal forms, membership and leading terms,
    all from one sympy Groebner basis."""

    def __init__(self, names, gens):
        import sympy

        self.names = tuple(names)
        self._gens = _symbols(self.names)
        self._G = sympy.groebner(
            [_to_poly(names, g) for g in gens], *self._gens, order="grevlex", domain="QQ"
        )

    def reduced_basis(self):
        """The reduced basis as monic term maps, in canonical order."""
        out = []
        for P in self._G.polys:
            lc = P.terms(order="grevlex")[0][1]
            out.append(canon(t_scale(_from_poly(P), 1 / Fraction(int(lc.p), int(lc.q)))))
        return sorted(out, key=repr)

    def normal_form(self, f):
        _, r = self._G.reduce(_to_poly(self.names, f))
        return _from_poly(r)

    def contains(self, f):
        return not self.normal_form(f)

    def leading_supports(self):
        """Supports of the grevlex leading monomials of the basis."""
        return [
            frozenset(i for i, e in enumerate(P.monoms(order="grevlex")[0]) if e)
            for P in self._G.polys
        ]


def monomial_codim(n, supports):
    """Codimension of a monomial ideal given the supports of its generators:
    n minus the largest variable set containing no generator's support.
    An empty support (a unit) gives infinity."""
    supports = [frozenset(s) for s in supports]
    if any(not s for s in supports):
        return math.inf
    for size in range(n, -1, -1):
        if any(not any(s <= free for s in supports) for free in _subsets(n, size)):
            return n - size


def _subsets(n, size):
    return (frozenset(c) for c in combinations(range(n), size))


def codim(names, gens):
    """Codimension of V(gens) from the leading-term ideal of a sympy basis."""
    return monomial_codim(len(names), ReferenceIdeal(names, gens).leading_supports())


def sympy_equal(text_a, expr_b, names):
    """Does the residua polynomial text equal a sympy expression?"""
    import sympy

    loc = dict(zip(names, _symbols(tuple(names))))
    a = sympy.sympify(text_a.replace("^", "**"), locals=loc)
    return sympy.expand(a - expr_b) == 0


# -- structure theorems -------------------------------------------------------


def eliahou_kervaire(gens):
    """Betti numbers of R/I for a strongly stable monomial ideal with the
    given minimal generators (exponent tuples)."""
    top = [max(i for i, e in enumerate(u) if e) for u in gens]
    out = [1]
    i = 0
    while True:
        b = sum(math.comb(t, i) for t in top)
        if not b:
            return out
        out.append(b)
        i += 1


def shamash(c, cap):
    """Betti numbers 0..cap of S/IS, I a length-c regular sequence, f in m*I."""
    return [
        sum(math.comb(c, k - 2 * j) for j in range(k // 2 + 1) if k - 2 * j <= c)
        for k in range(cap + 1)
    ]


def borel_closure(monos, n):
    """Minimal generators of the smallest strongly stable ideal (x1 > ... > xn)
    containing the given monomials."""
    seen = set()
    todo = [tuple(m) for m in monos]
    while todo:
        m = todo.pop()
        if m in seen:
            continue
        seen.add(m)
        for j in range(n):
            if m[j]:
                for i in range(j):
                    mm = list(m)
                    mm[j] -= 1
                    mm[i] += 1
                    todo.append(tuple(mm))
    minimal = []
    for m in sorted(seen, key=lambda e: (sum(e), e)):
        if not any(all(a <= b for a, b in zip(k, m)) for k in minimal):
            minimal.append(m)
    return sorted(minimal, reverse=True)


def alternating_ranks(betti):
    """Expected ranks r_k = sum_{i >= k} (-1)^(i-k) beta_i, k = 1 .. len - 1."""
    n = len(betti) - 1
    out = [0] * (n + 2)
    for k in range(n, 0, -1):
        out[k] = betti[k] - out[k + 1]
    return out[1 : n + 1]
