"""Multivariate polynomial rings over Q with exact arithmetic.

Monomials are plain exponent tuples; polynomials are term maps keyed by
monomial with Fraction coefficients, canonical under the ring's default
monomial order.  Module elements (PolyVector) carry a position index so
one division kernel serves both the ring and free-module cases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from residua import kernel

Mono = tuple  # exponent tuple, length == ring.n
Coeff = Fraction

LESS, EQUAL, GREATER = -1, 0, 1


class RingMismatchError(ValueError):
    """Raised when operands live in different rings."""


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A ring monomial order plus its extension rule to free modules.

    kind: 'lex' | 'grlex' | 'grevlex' (grevlex ties break on the last
    variable, smallest exponent wins).  module_rule: 'pot' compares the
    position first (lower position = greater), 'top' compares the ring
    monomial first, 'schreyer' compares monomial * parent-lead under the
    parent order with position as tie break.

    The order is given by its keys: ring_key and term_key return one flat
    tuple of ints, bigger term -> bigger key, and all keys of one order
    (over one number of variables) have the same length, so tuples compare
    the order directly:

        ring_key   lex (*e)   grlex (deg, *e)   grevlex (deg, -e_n, ..., -e_1)
        term_key   pot (-pos, *ring_key)        top (*ring_key, -pos)
                   schreyer (*parent.term_key(pos's lead * e), -pos)
    """

    kind: str = "grevlex"
    module_rule: str = "pot"
    schreyer_leads: Optional[tuple] = None  # ((pos, exps), ...) of parent gens
    schreyer_parent: Optional["MonomialOrder"] = None

    def __post_init__(self):
        if self.kind not in ("lex", "grlex", "grevlex"):
            raise ValueError(f"unknown order kind: {self.kind!r}")
        if self.module_rule not in ("pot", "top", "schreyer"):
            raise ValueError(f"unknown module rule: {self.module_rule!r}")
        if self.module_rule == "schreyer" and (
            self.schreyer_leads is None or self.schreyer_parent is None
        ):
            raise ValueError("schreyer rule needs parent leads and parent order")

    def ring_key(self, exps: Mono) -> tuple:
        """Sort key: bigger monomial -> bigger key."""
        if self.kind == "lex":
            return exps
        if self.kind == "grlex":
            return (sum(exps), *exps)
        # grevlex: compare total degree, then reversed exponents, negated
        return (sum(exps), *[-e for e in reversed(exps)])

    def term_key(self, key) -> tuple:
        """Sort key for a module term key (pos, exps)."""
        pos, exps = key
        if self.module_rule == "pot":
            return (-pos, *self.ring_key(exps))
        if self.module_rule == "top":
            return (*self.ring_key(exps), -pos)
        ppos, pexps = self.schreyer_leads[pos]
        shifted = (ppos, kernel.exp_add(pexps, exps))
        return (*self.schreyer_parent.term_key(shifted), -pos)

    def with_module_rule(self, rule: str) -> "MonomialOrder":
        return MonomialOrder(self.kind, rule)

    def schreyer(self, leads: Iterable[tuple]) -> "MonomialOrder":
        """Order induced on a syzygy module by the parent generators' leads
        (the parent may itself be a Schreyer order)."""
        return MonomialOrder(self.kind, "schreyer", tuple(leads), self)


GREVLEX = MonomialOrder("grevlex")
GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")

_ORDER_BY_NAME = {"lex": LEX, "grlex": GRLEX, "grevlex": GREVLEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return _ORDER_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown monomial order: {name!r}") from None


def compare_monomials(order: MonomialOrder, m1: Mono, m2: Mono) -> int:
    """-1, 0, or 1 for less, equal, greater under the given order."""
    if len(m1) != len(m2):
        raise ValueError("monomial length mismatch")
    k1, k2 = order.ring_key(tuple(m1)), order.ring_key(tuple(m2))
    if k1 < k2:
        return LESS
    if k1 > k2:
        return GREATER
    return EQUAL


# ---------------------------------------------------------------------------
# rings


@dataclass(frozen=True)
class PolynomialRing:
    """Q[names] with a default monomial order (value semantics)."""

    names: tuple
    default_order: MonomialOrder = GREVLEX

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValueError("a ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", nm):
                raise ValueError(f"bad variable name: {nm!r}")

    @property
    def n(self) -> int:
        return len(self.names)

    def zero_mono(self) -> Mono:
        return (0,) * self.n

    def const(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self, {} if c == 0 else {self.zero_mono(): c})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def var(self, name: str) -> "Polynomial":
        try:
            i = self.names.index(name)
        except ValueError:
            raise ValueError(f"no variable {name!r} in {self}") from None
        exps = [0] * self.n
        exps[i] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self) -> tuple:
        return tuple(self.var(nm) for nm in self.names)

    def poly(self, text: str) -> "Polynomial":
        return poly_parse(text, self)

    def extend(self, extra_names: Iterable[str]) -> "PolynomialRing":
        return PolynomialRing(self.names + tuple(extra_names), self.default_order)

    def __repr__(self):
        return "Q[" + ",".join(self.names) + "]"


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Element of a PolynomialRing; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring.zero_mono(), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading(self, order: Optional[MonomialOrder] = None):
        """(monomial, coefficient) of the leading term; None when zero."""
        if not self.terms:
            return None
        order = order or self.ring.default_order
        m = max(self.terms, key=order.ring_key)
        return (m, self.terms[m])

    def lm(self, order=None):
        lt = self.leading(order)
        return None if lt is None else lt[0]

    def lc(self, order=None):
        lt = self.leading(order)
        return None if lt is None else lt[1]

    def monic(self, order=None) -> "Polynomial":
        lt = self.leading(order)
        if lt is None or lt[1] == 1:
            return self
        inv = 1 / lt[1]
        return Polynomial(self.ring, {m: c * inv for m, c in self.terms.items()})

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError("operands from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m, 0) + c
            if acc:
                terms[m] = acc
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {m: co * c for m, co in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial(self.ring, kernel.add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return Polynomial(self.ring, kernel.power(self.terms, e, self.ring.one().terms))

    # -- structure

    def evaluate(self, values: dict):
        """Substitute values (numbers or polynomials) for variable names."""
        ring = self.ring
        subs = []
        for nm in ring.names:
            v = values.get(nm)
            if v is None:
                subs.append(ring.var(nm))
            elif isinstance(v, Polynomial):
                subs.append(v)
            else:
                subs.append(None)  # plain number; handled below
        out = None
        for m, c in sorted(self.terms.items()):
            acc: Union[Polynomial, Fraction] = Fraction(c)
            for i, e in enumerate(m):
                if not e:
                    continue
                v = subs[i]
                if v is None:
                    acc = acc * Fraction(values[ring.names[i]]) ** e
                else:
                    acc = v**e * acc
            out = acc if out is None else out + acc
        if out is None:
            target = next((s.ring for s in subs if isinstance(s, Polynomial)), None)
            return target.zero() if target else Fraction(0)
        return out

    def differentiate(self, name: str) -> "Polynomial":
        i = self.ring.names.index(name)
        terms = {}
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                terms[tuple(mm)] = c * m[i]
        return Polynomial(self.ring, terms)

    # -- comparison / hashing / printing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self.terms.items()))))

    def sorted_terms(self, order=None):
        order = order or self.ring.default_order
        return sorted(self.terms.items(), key=lambda it: order.ring_key(it[0]), reverse=True)

    def __str__(self):
        return poly_str(self)

    __repr__ = __str__


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _mono_str(ring: PolynomialRing, m: Mono) -> str:
    parts = []
    for nm, e in zip(ring.names, m):
        if e == 1:
            parts.append(nm)
        elif e > 1:
            parts.append(f"{nm}^{e}")
    return "*".join(parts)


def poly_str(p: Polynomial) -> str:
    """Canonical text: terms descending under the default order, explicit * and ^."""
    if p.is_zero():
        return "0"
    chunks = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        mono = _mono_str(p.ring, m)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{_coeff_str(mag)}*{mono}"
        else:
            body = _coeff_str(mag)
        if i == 0:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(chunks)


def transport(p: Polynomial, target: PolynomialRing) -> Polynomial:
    """Re-express p in a ring whose variables include p's, matching by name."""
    src = p.ring
    if src == target:
        return p
    try:
        idx = [target.names.index(nm) for nm in src.names]
    except ValueError:
        missing = [nm for nm in src.names if nm not in target.names]
        raise ValueError(f"target ring lacks variables {missing}") from None
    terms = {}
    for m, c in p.terms.items():
        mm = [0] * target.n
        for j, e in zip(idx, m):
            mm[j] = e
        terms[tuple(mm)] = c
    return Polynomial(target, terms)


# ---------------------------------------------------------------------------
# vectors in a free module O^r


class PolyVector:
    """Element of ring^rank, stored as a tuple of polynomials."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PolynomialRing, entries: Iterable[Polynomial]):
        entries = tuple(entries)
        for p in entries:
            if p.ring != ring:
                raise RingMismatchError("vector entry from a different ring")
        self.ring = ring
        self.entries = entries

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def leading(self, order: Optional[MonomialOrder] = None):
        """((pos, monomial), coefficient) of the leading module term."""
        tm = to_terms(self)
        if not tm:
            return None
        order = order or self.ring.default_order
        k = max(tm, key=order.term_key)
        return (k, tm[k])

    def monic(self, order=None) -> "PolyVector":
        lt = self.leading(order)
        if lt is None or lt[1] == 1:
            return self
        inv = 1 / lt[1]
        return PolyVector(self.ring, tuple(p * inv for p in self.entries))

    def __add__(self, other):
        if not isinstance(other, PolyVector) or other.rank != self.rank:
            return NotImplemented
        return PolyVector(self.ring, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, PolyVector) or other.rank != self.rank:
            return NotImplemented
        return PolyVector(self.ring, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return PolyVector(self.ring, tuple(-a for a in self.entries))

    def scale(self, q) -> "PolyVector":
        return PolyVector(self.ring, tuple(p * q for p in self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, PolyVector)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring.names, self.entries))

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.entries) + ")"

    __repr__ = __str__


# -- the kernel term-map layer: keys (position, exponents), position 0 in a ring


def to_terms(x) -> dict:
    """Kernel term map of a Polynomial or PolyVector."""
    if isinstance(x, Polynomial):
        return {(0, m): c for m, c in x.terms.items()}
    return {(pos, m): c for pos, p in enumerate(x.entries) for m, c in p.terms.items()}


def from_terms(like, tm: dict):
    """The element with term map tm, of the same kind, ring and rank as like."""
    ring = like.ring
    if isinstance(like, Polynomial):
        return Polynomial(ring, {m: c for (_, m), c in tm.items()})
    per = [{} for _ in like.entries]
    for (pos, m), c in tm.items():
        per[pos][m] = c
    return PolyVector(ring, tuple(Polynomial(ring, t) for t in per))


def kernel_divisors(elements, order: MonomialOrder) -> tuple:
    """(divisors, dens): the integer kernel divisor (lead key, lead
    coefficient, term map) of each nonzero element, and d_i with divisor
    i = d_i * element i."""
    out, dens = [], []
    for g in elements:
        tm = to_terms(g)
        if not tm:
            raise ValueError("zero divisor in division")
        num, d = kernel.integer_terms(tm)
        lk = max(num, key=order.term_key)
        out.append((lk, num[lk], num))
        dens.append(d)
    return out, dens


# ---------------------------------------------------------------------------
# division


def divide(f, divisors, order: Optional[MonomialOrder] = None):
    """Multivariate division: f = sum(q_i * g_i) + r.

    f and divisors are all Polynomial or all PolyVector of one rank.  No
    term of r is divisible by any divisor's leading term; quotients are
    polynomials.  Deterministic: divisors tried in the order given.
    """
    if not isinstance(f, (Polynomial, PolyVector)):
        raise TypeError("divide expects a Polynomial or PolyVector")
    divisors = list(divisors)
    if not divisors:
        raise ValueError("empty divisor list")
    for g in divisors:
        if not isinstance(g, type(f)) or g.ring != f.ring:
            raise RingMismatchError("divisor mismatch")
        if isinstance(f, PolyVector) and g.rank != f.rank:
            raise ValueError("divisor rank mismatch")
    order = order or f.ring.default_order
    num, den = kernel.integer_terms(to_terms(f))
    divs, dens = kernel_divisors(divisors, order)
    quots, rem, mult = kernel.reduce_terms(num, divs, kernel.HeapKeys(order.term_key), True)
    # mult * den * f = sum(q_i * d_i * g_i) + rem
    d = mult * den
    return [
        Polynomial(f.ring, {m: Fraction(c * di, d) for m, c in q.items()})
        for q, di in zip(quots, dens)
    ], from_terms(f, kernel.rational_terms(rem, d))


# ---------------------------------------------------------------------------
# parsing
#
#   expr   := ('+'|'-')? term (('+'|'-') term)*
#   term   := factor ('*'? factor)*            juxtaposition multiplies
#   factor := atom ('^' uint)*
#   atom   := ident | uint ('/' uint)? | '(' expr ')'
#
# The parser computes on ring term maps and builds one Polynomial per
# expression, not one per factor and power.  Its products and powers call
# kernel.add_product and kernel.power, as Polynomial's * and ** do, and
# its sums add the terms in the order of Polynomial's +, so the parsed
# polynomial has the same terms in the same dict order.

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1):
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _PolyParser:
    """Recursive descent over the token list.  The methods return ring
    term maps {exponents: coefficient}, integer or Fraction, with zero
    terms dropped; parse builds the one Polynomial at the end."""

    def __init__(self, text: str, ring: PolynomialRing):
        self.text = text
        self.ring = ring
        self.zero = ring.zero_mono()
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Polynomial:
        tm = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {val!r}", pos)
        return Polynomial(self.ring, {m: Fraction(c) for m, c in tm.items()})

    def expr(self) -> dict:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        tm = self.term()
        if negate:
            tm = {k: -c for k, c in tm.items()}
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                kernel.add_product(tm, self.term(), {self.zero: 1}, 1 if val == "+" else -1)
            else:
                return tm

    def term(self) -> dict:
        tm = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
            elif not (kind in ("num", "name") or (kind == "op" and val == "(")):
                return tm
            tm = kernel.add_product({}, tm, self.factor())

    def factor(self) -> dict:
        tm = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.take()
                ekind, eval_, epos = self.take()
                if ekind != "num":
                    raise ParseError("exponent must be a nonnegative integer", epos)
                tm = kernel.power(tm, int(eval_), {self.zero: 1})
            else:
                return tm

    def atom(self) -> dict:
        kind, val, pos = self.take()
        if kind == "num":
            c = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "num" or int(v3) == 0:
                    raise ParseError("expected a nonzero integer denominator", p3)
                c = Fraction(c, int(v3))
            return {self.zero: c} if c else {}
        if kind == "name":
            if val not in self.ring.names:
                raise ParseError(f"unknown identifier {val!r}", pos)
            exps = [0] * self.ring.n
            exps[self.ring.names.index(val)] = 1
            return {tuple(exps): 1}
        if kind == "op" and val == "(":
            tm = self.expr()
            self.expect_op(")")
            return tm
        raise ParseError(f"unexpected {val!r}" if kind else "unexpected end of input", pos)


def poly_parse(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse an expression in the ring's variables; raises ParseError."""
    return _PolyParser(text, ring).parse()
