"""Multivariate polynomial rings over Q with exact arithmetic.

Monomials are plain exponent tuples.  A polynomial is stored in the
kernel's form: an integer term map keyed by monomial over one positive
denominator, in lowest terms, so each polynomial has one representation
and the engine takes it as it is.  Fraction coefficients are a view, built
on access for callers that ask for them.  Module elements (PolyVector)
carry a position index so one division kernel serves both the ring and
free-module cases.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Union

from residua import kernel

Mono = tuple  # exponent tuple, length == ring.n

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

    Every entry is affine in e at a fixed position, so codec(n) packs
    term_key into one int per term (kernel.Codec), and the engine compares,
    multiplies and divides terms as ints in exactly this order.
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

    def codec(self, n: int) -> kernel.Codec:
        """The kernel codec of this order over n variables: one shared per
        base order and n, a new one for a Schreyer order."""
        return _codec(self, n)

    def with_module_rule(self, rule: str) -> "MonomialOrder":
        return MonomialOrder(self.kind, rule)

    def schreyer(self, leads: Iterable[tuple]) -> "MonomialOrder":
        """Order induced on a syzygy module by the parent generators' leads
        (the parent may itself be a Schreyer order)."""
        return MonomialOrder(self.kind, "schreyer", tuple(leads), self)


@functools.lru_cache(maxsize=64)
def _base_codec(order: MonomialOrder, n: int) -> kernel.Codec:
    return kernel.Codec(order.term_key, n, 0 if order.module_rule == "pot" else -1)


def _codec(order: MonomialOrder, n: int) -> kernel.Codec:
    if order.module_rule != "schreyer":
        return _base_codec(order, n)
    parent = _codec(order.schreyer_parent, n)
    return parent.schreyer(order.term_key, [parent.term(*lead) for lead in order.schreyer_leads])


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
        num = {self.zero_mono(): c.numerator} if c else {}
        return Polynomial.from_kernel(self, num, c.denominator)

    def zero(self) -> "Polynomial":
        return Polynomial.from_kernel(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def var(self, name: str) -> "Polynomial":
        try:
            i = self.names.index(name)
        except ValueError:
            raise ValueError(f"no variable {name!r} in {self}") from None
        exps = [0] * self.n
        exps[i] = 1
        return Polynomial.from_kernel(self, {tuple(exps): 1})

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
    """Element of a PolynomialRing; immutable by convention.

    A polynomial is stored in the kernel's form num / den: num an integer
    ring term map {exponents: int} without zero terms, den a positive int
    with gcd(den, content of num) = 1.  Each polynomial has exactly one
    such pair, and equality and hashing compare it.  The Fraction term
    map .terms is a view built on access.  An element of a reduced basis
    built by the engine also keeps its kernel divisor, as (codec,
    divisor) in _kernel, for kernel_divisors to reuse.
    """

    __slots__ = ("ring", "num", "den", "_kernel")

    def __init__(self, ring: PolynomialRing, terms: dict):
        """The polynomial with term map {exponent tuple: int or Fraction};
        zero coefficients are dropped.  Raises ValueError when a monomial
        is not a tuple of ring.n non-negative ints or a coefficient is not
        an int or Fraction."""
        if set(map(type, terms)) - {tuple} or set(map(len, terms)) - {ring.n}:
            raise ValueError(f"a monomial is not a tuple of {ring.n} exponents")
        exps = list(chain.from_iterable(terms))
        if set(map(type, exps)) - {int} or min(exps, default=0) < 0:
            raise ValueError("an exponent is not a non-negative int")
        if set(map(type, terms.values())) - {int, Fraction}:
            raise ValueError("a coefficient is not an int or Fraction")
        num, self.den = kernel.integer_terms(terms)
        self.ring = ring
        self.num = {m: c for m, c in num.items() if c}

    @staticmethod
    def from_kernel(ring: PolynomialRing, num: dict, den: int = 1) -> "Polynomial":
        """The polynomial num / den, for an integer ring term map num
        without zero terms and a nonzero int den: the constructor of every
        internal producer.  A sign flip and one gcd bring the pair to
        lowest terms; num is kept, not copied, when it is there already."""
        if den < 0:
            num, den = {m: -c for m, c in num.items()}, -den
        if den != 1 and (g := gcd(den, *num.values())) != 1:
            num, den = {m: c // g for m, c in num.items()}, den // g
        p = object.__new__(Polynomial)
        p.ring, p.num, p.den = ring, num, den
        return p

    @property
    def terms(self) -> dict:
        """The Fraction term map {exponents: coefficient} (a new dict)."""
        return {m: Fraction(c, self.den) for m, c in self.num.items()}

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.num)

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get(self.ring.zero_mono(), 0), self.den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(m) for m in self.num)

    def lm(self, order=None):
        """The leading monomial; None when zero."""
        if not self.num:
            return None
        return max(self.num, key=(order or self.ring.default_order).ring_key)

    def leading(self, order: Optional[MonomialOrder] = None):
        """(monomial, coefficient) of the leading term; None when zero."""
        m = self.lm(order)
        return None if m is None else (m, Fraction(self.num[m], self.den))

    def lc(self, order=None):
        lt = self.leading(order)
        return None if lt is None else lt[1]

    def monic(self, order=None) -> "Polynomial":
        m = self.lm(order)
        if m is None or self.num[m] == self.den:
            return self
        return Polynomial.from_kernel(self.ring, self.num, self.num[m])

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError("operands from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other, sign: int = 1):
        """self + sign * other, as the parser sums: both term maps added
        into one by kernel.add_product, scaled to the lcm of the dens."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)
        zero = self.ring.zero_mono()
        num = kernel.add_product({}, self.num, {zero: den // self.den})
        kernel.add_product(num, other.num, {zero: den // other.den}, sign)
        return Polynomial.from_kernel(self.ring, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_kernel(self.ring, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        num = kernel.add_product({}, self.num, other.num)
        return Polynomial.from_kernel(self.ring, num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        num = kernel.power(self.num, e, {self.ring.zero_mono(): 1})
        return Polynomial.from_kernel(self.ring, num, self.den**e)

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
        for m, c in sorted(self.num.items()):
            acc: Union[Polynomial, Fraction] = Fraction(c, self.den)
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
        num = {}
        for m, c in self.num.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                num[tuple(mm)] = c * m[i]
        return Polynomial.from_kernel(self.ring, num, self.den)

    # -- comparison / hashing / printing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.num
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.ring.names, tuple(sorted(self.num.items())), self.den))

    def monomials(self, order=None) -> list:
        """The monomials of the terms, descending under order."""
        return sorted(self.num, key=(order or self.ring.default_order).ring_key, reverse=True)

    def sorted_terms(self, order=None):
        """(monomial, coefficient) pairs, descending under order."""
        return [(m, Fraction(self.num[m], self.den)) for m in self.monomials(order)]

    def __str__(self):
        return poly_str(self)

    __repr__ = __str__


def _coeff_str(c: int, den: int) -> str:
    """Text of the rational c / den (den > 0) in lowest terms."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


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
    num, den = p.num, p.den
    chunks = []
    for i, m in enumerate(p.monomials()):
        c = num[m]
        mono = _mono_str(p.ring, m)
        if mono and abs(c) == den:
            body = mono
        elif mono:
            body = f"{_coeff_str(abs(c), den)}*{mono}"
        else:
            body = _coeff_str(abs(c), den)
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
    num = {}
    for m, c in p.num.items():
        mm = [0] * target.n
        for j, e in zip(idx, m):
            mm[j] = e
        num[tuple(mm)] = c
    return Polynomial.from_kernel(target, num, p.den)


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
        keys = [(pos, m) for pos, p in enumerate(self.entries) for m in p.num]
        if not keys:
            return None
        pos, m = max(keys, key=(order or self.ring.default_order).term_key)
        p = self.entries[pos]
        return ((pos, m), Fraction(p.num[m], p.den))

    def monic(self, order=None) -> "PolyVector":
        lt = self.leading(order)
        if lt is None or lt[1] == 1:
            return self
        return self.scale(1 / lt[1])

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


# -- the kernel term-map layer: packed terms of one kernel.Codec


def to_terms(x, codec: kernel.Codec) -> tuple:
    """(tm, den) of a Polynomial or PolyVector x: the integer term map tm
    of codec and the positive int den with x = tm / den, in lowest terms.
    Raises kernel.ExponentOverflowError beyond the exponent limit."""
    if isinstance(x, Polynomial):
        return codec.encode(x.num), x.den
    den = lcm(*[p.den for p in x.entries])
    tm = {}
    for pos, p in enumerate(x.entries):
        s = den // p.den
        tm.update((t, c * s) for t, c in codec.encode(p.num, pos).items())
    return tm, den


def from_terms(like, tm: dict, den: int, codec: kernel.Codec):
    """The element tm / den, for an integer term map tm of codec without
    zero terms and a positive int den, of the same kind, ring and rank as
    like."""
    ring = like.ring
    if isinstance(like, Polynomial):
        return Polynomial.from_kernel(ring, codec.ring_terms(tm), den)
    per = [{} for _ in like.entries]
    for (pos, m), c in zip(codec.decode_terms(tm), tm.values()):
        per[pos][m] = c
    return PolyVector(ring, tuple(Polynomial.from_kernel(ring, t, den) for t in per))


def kernel_divisors(elements, codec: kernel.Codec) -> tuple:
    """(divisors, dens): the integer kernel divisor (lead term, lead
    coefficient, term map) of each nonzero element under codec, and d_i
    with divisor i = d_i * element i.  An engine-built basis element of
    the same codec brings its divisor along."""
    out, dens = [], []
    for g in elements:
        kept = getattr(g, "_kernel", None)
        if kept is not None and kept[0] is codec:
            out.append(kept[1])
            dens.append(g.den)
            continue
        tm, d = to_terms(g, codec)
        if not tm:
            raise ValueError("zero divisor in division")
        lk = max(tm)
        out.append((lk, tm[lk], tm))
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
    return divider(divisors, order)(f)


def divider(divisors, order: Optional[MonomialOrder] = None):
    """f -> divide(f, divisors, order), with the divisors encoded once for
    every f divided."""
    divisors = list(divisors)
    if not divisors:
        raise ValueError("empty divisor list")
    like = divisors[0]
    if not isinstance(like, (Polynomial, PolyVector)):
        raise RingMismatchError("divisor mismatch")
    _check_divisors(like, divisors)
    codec = (order or like.ring.default_order).codec(like.ring.n)
    divs, dens = kernel_divisors(divisors, codec)
    exponents = codec.exponents

    def run(f):
        _check_divisors(f, (like,))
        num, den = to_terms(f, codec)
        quots, rem, mult = kernel.reduce_terms(num, divs, codec, True)
        # mult * den * f = sum(q_i * d_i * g_i) + rem
        d = mult * den
        return [
            Polynomial.from_kernel(f.ring, {exponents(m): c * di for m, c in q.items()}, d)
            for q, di in zip(quots, dens)
        ], from_terms(f, rem, d, codec)

    return run


def _check_divisors(f, divisors):
    for g in divisors:
        if not isinstance(g, type(f)) or g.ring != f.ring:
            raise RingMismatchError("divisor mismatch")
        if isinstance(f, PolyVector) and g.rank != f.rank:
            raise ValueError("divisor rank mismatch")


# ---------------------------------------------------------------------------
# parsing
#
#   expr   := ('+'|'-')? term (('+'|'-') term)*
#   term   := factor ('*'? factor)*            juxtaposition multiplies
#   factor := atom ('^' uint)*
#   atom   := ident | uint ('/' uint)? | '(' expr ')'
#
# The parser computes on ring term maps and builds one Polynomial per
# expression, not one per factor and power.  Its products, powers and
# sums call kernel.add_product and kernel.power as Polynomial's *, ** and
# + do, so the parsed polynomial has the same terms in the same dict order.

# ASCII whitespace only: under re.ASCII any other space is a bad character
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/])|(\S))", re.A)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        num, name, op, bad = m.groups()
        if num:
            tokens.append(("num", num, m.start(1)))
        elif name:
            tokens.append(("name", name, m.start(2)))
        elif op:
            tokens.append(("op", op, m.start(3)))
        else:
            raise ParseError(f"unexpected character {bad!r}", m.start(4))
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
        return Polynomial.from_kernel(self.ring, *kernel.integer_terms(tm))

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
