"""Polynomial arithmetic, monomial orders, parsing, and division."""

import functools
import itertools
import random
import re
import string
from fractions import Fraction

import pytest

from conftest import random_poly
from residua import polyring
from residua.polyring import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    PolynomialRing,
    PolyVector,
    RingMismatchError,
    compare_monomials,
    divide,
    poly_parse,
    poly_str,
    transport,
)

R2 = PolynomialRing(("x", "y"))
R3 = PolynomialRing(("x", "y", "z"))


# ---------------------------------------------------------------------------
# orders


def test_grevlex_degree_first():
    # x^2 vs x*y: same degree, tie broken on the last variable (smallest wins)
    assert compare_monomials(GREVLEX, (2, 0), (1, 1)) == 1
    assert compare_monomials(GREVLEX, (1, 1), (2, 0)) == -1
    assert compare_monomials(GREVLEX, (2, 1), (2, 1)) == 0


def test_lex_ignores_degree():
    # x > y^2 under lex
    assert compare_monomials(LEX, (1, 0), (0, 2)) == 1


def test_grlex_vs_grevlex_differ():
    # x*z vs y^2 in three variables: grevlex says less, grlex says greater
    assert compare_monomials(GREVLEX, (1, 0, 1), (0, 2, 0)) == -1
    assert compare_monomials(MonomialOrder("grlex"), (1, 0, 1), (0, 2, 0)) == 1


def test_compare_length_mismatch():
    with pytest.raises(ValueError):
        compare_monomials(GREVLEX, (1, 0), (1, 0, 0))


def enumerate_monos(n, max_deg):
    for exps in itertools.product(range(max_deg + 1), repeat=n):
        if sum(exps) <= max_deg:
            yield exps


@pytest.mark.parametrize("order", [LEX, GRLEX, GREVLEX])
def test_orders_are_strict_total_and_multiplicative(order):
    monos = list(enumerate_monos(3, 3))
    keys = [order.ring_key(m) for m in monos]
    # strict total: distinct monomials have distinct keys
    assert len(set(keys)) == len(keys)
    # 1 is minimal (these are global orders)
    one = order.ring_key((0, 0, 0))
    assert all(one <= k for k in keys)
    # multiplicative: m1 > m2 implies m1*m > m2*m
    rng = random.Random(7)
    for _ in range(200):
        m1, m2, m = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        c = compare_monomials(order, m1, m2)
        shifted = compare_monomials(
            order, tuple(a + b for a, b in zip(m1, m)), tuple(a + b for a, b in zip(m2, m))
        )
        assert c == shifted


def test_module_order_pot_prefers_low_position():
    # e_0 with a small monomial still beats e_1 with a big one
    assert GREVLEX.term_key((0, (0, 1))) > GREVLEX.term_key((1, (3, 0)))


def test_module_order_top_prefers_big_monomial():
    top = GREVLEX.with_module_rule("top")
    assert top.term_key((1, (3, 0))) > top.term_key((0, (0, 1)))
    # ties on the monomial go to the lower position
    assert top.term_key((0, (1, 0))) > top.term_key((1, (1, 0)))


def test_schreyer_order_uses_parent_leads():
    # parent leads x*e0 and y^3*e0: position 1 carries the bigger weight
    sch = GREVLEX.schreyer([(0, (1, 0)), (0, (0, 3))])
    # m*lead: (1,0)+(1,0)=x^2  vs  (0,0)+(0,3)=y^3 -> y^3 has higher degree
    assert sch.term_key((1, (0, 0))) > sch.term_key((0, (1, 0)))
    # equal products fall back to the lower position
    sch2 = GREVLEX.schreyer([(0, (1, 0)), (0, (1, 0))])
    assert sch2.term_key((0, (0, 0))) > sch2.term_key((1, (0, 0)))


def reference_ring_cmp(kind, a, b):
    """-1, 0, 1 comparing exponent tuples as the MonomialOrder docstring
    says: lex, degree then lex, or degree then the last differing
    variable, where the smaller exponent wins."""
    if kind != "lex" and sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    if kind == "grevlex":
        for x, y in reversed(list(zip(a, b))):
            if x != y:
                return 1 if x < y else -1
        return 0
    return (a > b) - (a < b)


def reference_term_cmp(order, s, t):
    """-1, 0, 1 comparing term keys (pos, exps) under a module order: the
    lower position is greater under pot and breaks ties under top and
    schreyer; schreyer compares the terms times their leads first."""
    (p, a), (q, b) = s, t
    by_pos = (p < q) - (p > q)
    if order.module_rule == "pot":
        return by_pos or reference_ring_cmp(order.kind, a, b)
    if order.module_rule == "top":
        return reference_ring_cmp(order.kind, a, b) or by_pos
    (lp, la), (lq, lb) = order.schreyer_leads[p], order.schreyer_leads[q]
    shifted = ((lp, tuple(map(sum, zip(la, a)))), (lq, tuple(map(sum, zip(lb, b)))))
    return reference_term_cmp(order.schreyer_parent, *shifted) or by_pos


def _orders_under_test():
    rng = random.Random(11)

    def leads():
        # positions 0 and 1 share a lead, so the position tie-break decides
        first = (rng.randrange(3), tuple(rng.randrange(3) for _ in range(3)))
        return (first, first, (rng.randrange(3), tuple(rng.randrange(3) for _ in range(3))))

    orders = [o.with_module_rule(r) for o in (LEX, GRLEX, GREVLEX) for r in ("pot", "top")]
    orders.append(GREVLEX.schreyer(leads()).schreyer(leads()))
    return orders


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("order", _orders_under_test(), ids=lambda o: f"{o.kind}-{o.module_rule}")
def test_order_keys_are_flat_and_sort_like_the_reference_comparator(order, seed):
    rng = random.Random(seed)
    terms = [
        (rng.randrange(3), tuple(rng.randrange(3) for _ in range(3))) for _ in range(60)
    ]
    keys = [order.term_key(t) for t in terms]
    assert all(type(k) is tuple and all(type(x) is int for x in k) for k in keys)
    assert len({len(k) for k in keys}) == 1
    ring_keys = [order.ring_key(e) for _, e in terms]
    assert all(type(k) is tuple and all(type(x) is int for x in k) for k in ring_keys)
    assert len({len(k) for k in ring_keys}) == 1
    reference = functools.cmp_to_key(lambda s, t: reference_term_cmp(order, s, t))
    assert sorted(terms, key=order.term_key) == sorted(terms, key=reference)


# ---------------------------------------------------------------------------
# arithmetic


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(150):
        f = random_poly(rng, R3)
        g = random_poly(rng, R3)
        h = random_poly(rng, R3)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - g == f + (-g)
        assert f + R3.zero() == f
        assert f * R3.one() == f
        assert (f * R3.zero()).is_zero()


def test_pow_matches_repeated_mul():
    rng = random.Random(5)
    for _ in range(20):
        f = random_poly(rng, R2)
        acc = R2.one()
        for e in range(5):
            assert f**e == acc
            acc = acc * f


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        R2.poly("x") + R3.poly("z")


def test_constant_helpers():
    p = R2.poly("x^2 - 3")
    assert p.constant_term() == -3
    assert not p.is_constant()
    assert R2.const(Fraction(5, 2)).is_constant()
    assert R2.zero().total_degree() == -1


def test_leading_term_depends_on_order():
    p = R2.poly("x + y^2")
    assert p.lm(LEX) == (1, 0)
    assert p.lm(GREVLEX) == (0, 2)
    assert p.monic(LEX) == p  # already monic in x


def test_differentiate():
    h = R2.poly("x^3 - y^2")
    assert h.differentiate("x") == R2.poly("3x^2")
    assert h.differentiate("y") == R2.poly("-2y")


def test_evaluate_with_polynomials():
    # x = t, y = t^2 kills y - x^2
    rt = PolynomialRing(("t",))
    p = R2.poly("y - x^2")
    assert p.evaluate({"x": rt.poly("t"), "y": rt.poly("t^2")}).is_zero()
    assert R2.poly("x*y + 1").evaluate({"x": 2, "y": Fraction(1, 2)}) == 2


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_square():
    assert R2.poly("(x+y)^2") == R2.poly("x^2 + 2*x*y + y^2")


def test_parse_juxtaposition_and_rationals():
    assert R2.poly("2x") == R2.poly("2*x")
    assert R2.poly("3/2 x y^2") == R2.poly("3/2*x*y^2")
    assert R2.poly("(x+1)(x-1)") == R2.poly("x^2 - 1")
    assert R2.poly("-x + y") == R2.poly("y") - R2.poly("x")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        R2.poly("x + q")
    assert "q" in str(err.value)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        R2.poly("x +")
    with pytest.raises(ParseError):
        R2.poly("x ^ y")
    with pytest.raises(ParseError):
        R2.poly("(x")


def test_print_canonical():
    assert str(R2.poly("y^2 + x^3 - 1")) == "x^3 + y^2 - 1"
    assert str(R2.poly("-x")) == "-x"
    assert str(R2.zero()) == "0"
    assert str(R2.poly("x*y*2 - 1/2")) == "2*x*y - 1/2"


def test_parse_print_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(200):
        p = random_poly(rng, R3, max_deg=4, max_terms=6)
        assert poly_parse(poly_str(p), R3) == p
        assert poly_parse(poly_str(p), R3).__str__() == poly_str(p)


# ---------------------------------------------------------------------------
# the term-map parser against the Polynomial-based one it replaced


class ReferenceParser:
    """The parser as it was when every factor and power built a Polynomial."""

    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.tokens = polyring._tokenize(text)
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

    def parse(self):
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {val!r}", pos)
        return p

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.take()
                ekind, eval_, epos = self.take()
                if ekind != "num":
                    raise ParseError("exponent must be a nonnegative integer", epos)
                p = p ** int(eval_)
            else:
                return p

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "num" or int(v3) == 0:
                    raise ParseError("expected a nonzero integer denominator", p3)
                return self.ring.const(Fraction(num, int(v3)))
            return self.ring.const(num)
        if kind == "name":
            if val not in self.ring.names:
                raise ParseError(f"unknown identifier {val!r}", pos)
            return self.ring.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val!r}" if kind else "unexpected end of input", pos)


_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/]))", re.A)


def reference_tokenize(text):
    """The tokenizer as it was, one match per token from the last one's end,
    with whitespace ASCII only."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip(string.whitespace)
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


def tokenize_outcome(tokenize, text):
    try:
        return ("ok", tokenize(text))
    except ParseError as e:
        return ("error", str(e), e.position)


def parse_outcome(parse, text):
    """What a parser makes of text: its terms in dict order with their
    coefficient types, or the ParseError's type, message and position."""
    try:
        p = parse(text, R3)
    except ParseError as e:
        return ("error", type(e), str(e), e.position)
    return ("ok", p.ring, list(p.terms.items()), [type(c) for c in p.terms.values()])


def assert_parses_like_reference(text):
    assert tokenize_outcome(polyring._tokenize, text) == tokenize_outcome(reference_tokenize, text)
    got = parse_outcome(poly_parse, text)
    assert got == parse_outcome(lambda t, r: ReferenceParser(t, r).parse(), text)
    if got[0] == "ok":
        assert all(t is Fraction for t in got[3])


@pytest.mark.parametrize(
    "text",
    [
        # malformed: the ParseError must match in type, message and position
        "x^", "3/0", "x^-1", "x + q", "xy", "2*-x", "(x", "x)", "", "  ", "x &", "1/", "^2",
        "x \t\u00a0", "x.y", "2 \u00e9",
        # zero constants, zero powers, and products whose term order depends
        # on the order of the convolution and of the squarings
        "(x+1)^0", "0/3", "0^0", "(0)^2", "0 + x + 1", "(x+1)(y-2)", "(2 + 2y - y^2)^3",
        "-(x-y)^3*2", "(x^2 + x*y - 1/2y^2)^2", "2 3 x^2^3",
    ],
)
def test_parser_matches_reference_on_fixed_inputs(text):
    assert_parses_like_reference(text)


@pytest.mark.parametrize("text", ["\u0663x + 1", "\uff11"])
def test_parser_takes_only_ascii_digits(text):
    # \d would read ARABIC-INDIC DIGIT THREE as 3 and FULLWIDTH DIGIT ONE as 1
    with pytest.raises(ParseError, match=f"^unexpected character {text[0]!r}") as e:
        poly_parse(text, R3)
    assert e.value.position == 0


@pytest.mark.parametrize("text, at", [("x +\u3000y", 3), ("\u00a0x", 0), ("x\u2028+ y", 1)])
def test_parser_takes_only_ascii_whitespace(text, at):
    # \s would skip IDEOGRAPHIC SPACE, NO-BREAK SPACE and LINE SEPARATOR
    with pytest.raises(ParseError, match=re.escape(f"unexpected character {text[at]!r}")) as e:
        poly_parse(text, R3)
    assert e.value.position == at
    assert poly_parse(text.replace(text[at], " \t"), R3) == poly_parse(text.replace(text[at], ""), R3)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the differential fuzz needs hypothesis
    st = None

if st is not None:
    ATOMS = st.one_of(
        st.sampled_from(["x", "y", "z"]),
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    )

    def _join(parts):
        """Concatenate (separator, piece) pairs; an empty separator
        (juxtaposition) only before a parenthesis, so that two atoms never
        fuse into one token."""
        out = ""
        for sep, piece in parts:
            if out and not sep and not piece.startswith("("):
                sep = " "
            out += (sep if out else "") + piece
        return out

    def expressions(depth):
        """Sums of up to three products of up to two factors; a factor is an
        atom, an atom to a power, or a parenthesised expression of lower
        depth, maybe signed, maybe to a power."""
        atom_power = st.tuples(ATOMS, st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}")
        factors = [ATOMS, atom_power]
        if depth:
            sub = st.tuples(st.sampled_from(["", "", "-", "+", " - "]), expressions(depth - 1))
            paren = sub.map(lambda t: f"({t[0]}{t[1]})")
            power = st.tuples(paren, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}")
            factors += [paren, power]
        factor = st.one_of(factors)
        product = st.lists(
            st.tuples(st.sampled_from(["*", " * ", " ", ""]), factor), min_size=1, max_size=2
        ).map(_join)
        return st.lists(
            st.tuples(st.sampled_from([" + ", " - ", "+", "-"]), product), min_size=1, max_size=3
        ).map(_join)

    TOP = st.tuples(st.sampled_from(["", "-", "+", " -"]), expressions(2)).map("".join)
    # unknown characters after whitespace pin the error to the character
    BAD = ["^", "/0", "^-1", " q", "(", ")", "*", "+", "/", "^x", "&", "x^", " xy", "--", "1/",
           " &", "\t&", " \u00e9"]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(TOP)
    def test_parser_matches_reference_on_random_expressions(text):
        assert_parses_like_reference(text)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(TOP, st.sampled_from(BAD), st.integers(0, 10**6))
    def test_parser_matches_reference_on_malformed_input(text, bad, at):
        at %= len(text) + 1
        assert_parses_like_reference(text[:at] + bad + text[at:])


# ---------------------------------------------------------------------------
# division


def test_divide_lex_example():
    rxy = PolynomialRing(("x", "y"), LEX)
    f = rxy.poly("x*y + 1")
    (q,), r = divide(f, [rxy.poly("y + 1")], LEX)
    assert q == rxy.poly("x")
    assert r == rxy.poly("1 - x")
    # no remainder term divisible by the divisor lead y
    assert all(m[1] == 0 for m in r.terms)


def test_divide_identity_randomized():
    rng = random.Random(31)
    for _ in range(120):
        f = random_poly(rng, R3)
        gs = []
        while len(gs) < rng.randint(1, 3):
            g = random_poly(rng, R3)
            if not g.is_zero():
                gs.append(g)
        order = rng.choice([LEX, GRLEX, GREVLEX])
        qs, r = divide(f, gs, order)
        recombined = r
        for q, g in zip(qs, gs):
            recombined = recombined + q * g
        assert recombined == f
        # remainder irreducible, and lead(q*g) never exceeds lead(f)
        leads = [g.lm(order) for g in gs]
        for m in r.terms:
            assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)
        if not f.is_zero():
            fk = order.ring_key(f.lm(order))
            for q, g in zip(qs, gs):
                if not q.is_zero():
                    assert order.ring_key((q * g).lm(order)) <= fk


def test_divide_vectors():
    e1 = PolyVector(R2, (R2.poly("x"), R2.poly("y")))
    f = PolyVector(R2, (R2.poly("x^2"), R2.poly("x*y")))
    (q,), r = divide(f, [e1])
    assert q == R2.poly("x")
    assert r.is_zero()


def test_divide_errors():
    with pytest.raises(ValueError):
        divide(R2.poly("x"), [])
    with pytest.raises(ValueError):
        divide(R2.poly("x"), [R2.zero()])
    v = PolyVector(R2, (R2.poly("x"),))
    w = PolyVector(R2, (R2.poly("x"), R2.poly("y")))
    with pytest.raises(ValueError):
        divide(w, [v])


# ---------------------------------------------------------------------------
# transport


def test_transport_by_name():
    big = PolynomialRing(("t", "x", "y"))
    p = transport(R2.poly("x^2 - y"), big)
    assert p.ring == big
    assert str(p) == "x^2 - y"
    with pytest.raises(ValueError):
        transport(big.poly("t"), R2)
