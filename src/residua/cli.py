"""Script-driven front end.

A small line-oriented command language over the engine: declarations bind
rings, quotients, ideals, tuples and matrices to names; commands run the
algebra and print one deterministic result line each.  `--json` emits the
whole run as a canonical JSON document (sorted keys, rationals as strings,
matrices as nested arrays of polynomial text), byte-identical across runs.
One rule encodes every result: a polynomial is its text, and a report
dataclass is an object of its fields, less those that hold the
statement's own scope or arguments, or internal data (`context`, `data`,
`source`, `target`, `J`); homotopies and homotopy failures add
`homotopic`.

Exit codes: 0 success, 1 any statement failed during execution, 2 the
script did not parse.  Execution errors are reported with their line
number and later statements still run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import string
import sys
import time
from fractions import Fraction

from residua.groebner import Ideal, QuotientContext, shared_levels
from residua.homalg import (
    ChainComplex,
    buchsbaum_eisenbud_check,
    cohen_macaulay_check,
    detect_periodicity,
    free_resolution,
    koszul_complex,
    minimalize,
    proper_intersection_check,
    tensor_complexes,
)
from residua.polyring import Polynomial, PolynomialRing, _coeff_str, order_by_name
from residua.residues import (
    ChainMap,
    CurrentRecipe,
    Homotopy,
    HomotopyFailure,
    annihilator_member,
    build_current_recipe,
    chain_homotopy,
    coleff_herrera,
    comparison_morphism,
    maximal_lifting,
    poincare_residue,
    regular_sequence_check,
    structure_form_shape,
    transformation_law_check,
)

KEYWORDS = frozenset(["ring", "quotient", "ideal", "tuple", "matrix", "recipe", "over", "last"])


class ParseFailure(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CommandError(Exception):
    pass


# ---------------------------------------------------------------------------
# tokens for command arguments


class Last:
    __slots__ = ()


class IntTok:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class PairTok:  # NAME:INT, a decomposition part
    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = value


class KwargTok:
    __slots__ = ("key", "text")

    def __init__(self, key, text):
        self.key = key
        self.text = text


class OverTok:
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class PolyTok:  # inline polynomial expression
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class WordTok:  # bare identifier not bound to anything
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class TupleTok:  # ( p, q, ... )
    __slots__ = ("items",)

    def __init__(self, items):
        self.items = items


class MatrixTok:  # [[ .. ], [ .. ]]
    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


# ---------------------------------------------------------------------------
# parsing

# Names, digits and whitespace are ASCII, as ring variables: patterns use
# re.ASCII, text is stripped of WS only, and lines end at LINE_BREAK only.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
WS = string.whitespace
LINE_BREAK = re.compile(r"\r\n|\r|\n")
NAME_RE = re.compile(rf"^{NAME}$", re.A)
RING_RE = re.compile(r"^Q\s*\[([^\]]*)\]$", re.A)
CALL_RE = re.compile(r"^([a-z][a-z-]*)\s*\((.*)\)$", re.A | re.S)
KWARG_RE = re.compile(rf"^({NAME})\s*=\s*(\S.*)$", re.A)
PAIR_RE = re.compile(rf"^({NAME})\s*:\s*([0-9]+)$", re.A)
INT_RE = re.compile(r"^-?[0-9]+$", re.A)
DECL_RE = re.compile(
    rf"^(ring|quotient|ideal|tuple|matrix|recipe)\s+({NAME})\s*=\s*(\S.*)$", re.A
)
BIND_RE = re.compile(rf"^({NAME})\s*=\s*([a-z][a-z-]*\s*\(.*\))$", re.A | re.S)
SCOPED_RE = re.compile(rf"^({NAME})\s*:\s*(\(.*\)|\[.*\])$", re.A | re.S)
OVER_RE = re.compile(r"over\b", re.A)


def _split_top(text: str, sep: str = ","):
    """Split at top-level separators, honouring () and [] nesting."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError("unbalanced brackets")
    parts.append(text[start:])
    return parts


def _classify_arg(text: str):
    text = text.strip(WS)
    if not text:
        raise ValueError("empty argument")
    if OVER_RE.match(text):
        spec = text[4:].strip(WS)
        if not spec:
            raise ValueError("'over' needs a ring or quotient")
        return OverTok(spec)
    if text == "last":
        return Last()
    m = PAIR_RE.match(text)
    if m:
        return PairTok(m.group(1), int(m.group(2)))
    m = KWARG_RE.match(text)
    if m:
        return KwargTok(m.group(1), m.group(2).strip(WS))
    if INT_RE.match(text):
        return IntTok(int(text))
    if NAME_RE.match(text):
        return WordTok(text)
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip(WS)
        items = [] if not inner else [s.strip(WS) for s in _split_top(inner)]
        if any(not s for s in items):
            raise ValueError("empty entry in tuple")
        return TupleTok(items)
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip(WS)
        rows = []
        for piece in _split_top(inner):
            piece = piece.strip(WS)
            if not (piece.startswith("[") and piece.endswith("]")):
                raise ValueError("matrix rows must be bracketed")
            entries = [s.strip(WS) for s in _split_top(piece[1:-1])]
            if any(not s for s in entries):
                raise ValueError("empty entry in matrix row")
            rows.append(entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and of equal length")
        return MatrixTok(rows)
    return PolyTok(text)


def _parse_call(text: str, line: int):
    m = CALL_RE.match(text.strip(WS))
    if not m:
        raise ParseFailure(line, f"not a command: {text.strip(WS)!r}")
    cmd, argtext = m.group(1), m.group(2).strip(WS)
    if cmd not in COMMANDS:
        raise ParseFailure(line, f"unknown command {cmd!r}")
    args = []
    if argtext:
        try:
            pieces = _split_top(argtext)
            args = [_classify_arg(p) for p in pieces]
        except ValueError as e:
            raise ParseFailure(line, str(e)) from None
    return cmd, args


def parse_script(text: str):
    """Whole-script parse; raises ParseFailure on the first bad statement."""
    statements = []
    for lineno, raw in enumerate(LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].strip(WS)
        if not line:
            continue
        try:
            chunks = [c.strip(WS) for c in _split_top(line, ";")]
        except ValueError as e:
            raise ParseFailure(lineno, str(e)) from None
        for chunk in chunks:
            if not chunk:
                continue
            statements.append(_parse_statement(chunk, lineno))
    return statements


def _parse_statement(chunk: str, line: int):
    m = DECL_RE.match(chunk)
    if m:
        kind, name, rhs = m.groups()
        if name in KEYWORDS or name in COMMANDS:
            raise ParseFailure(line, f"{name!r} is reserved")
        if kind == "ring":
            if not RING_RE.match(rhs):
                raise ParseFailure(line, f"bad ring: {rhs!r} (expected Q[a,b,...])")
            return ("ring", line, name, rhs)
        if kind == "quotient":
            return ("quotient", line, name, rhs)
        if kind == "recipe":
            return ("bind", line, name) + _parse_call(rhs, line)
        sm = SCOPED_RE.match(rhs)
        if not sm:
            raise ParseFailure(line, f"bad {kind}: expected SCOPE:(...) or SCOPE:[...]")
        scope, body = sm.groups()
        try:
            tok = _classify_arg(body)
        except ValueError as e:
            raise ParseFailure(line, str(e)) from None
        if kind in ("ideal", "tuple"):
            if not isinstance(tok, TupleTok):
                raise ParseFailure(line, f"{kind} body must be a parenthesized list")
        else:
            if not isinstance(tok, MatrixTok):
                raise ParseFailure(line, "matrix body must be [[...],[...]]")
        return (kind, line, name, scope, tok)
    m = BIND_RE.match(chunk)
    if m:
        name, call = m.groups()
        if name in KEYWORDS or name in COMMANDS:
            raise ParseFailure(line, f"{name!r} is reserved")
        return ("bind", line, name) + _parse_call(call, line)
    return ("call", line) + _parse_call(chunk, line)


# ---------------------------------------------------------------------------
# canonical JSON


def encode(v):
    """Engine value -> canonical JSON-ready structure (plain dict/list/str).

    A polynomial on its own encodes as its term list, which
    `parse_polynomial` reads back; every other value follows `_encode`.
    """
    if isinstance(v, Polynomial):
        return {
            "vars": list(v.ring.names),
            "terms": [
                {"coeff": _coeff_str(v.num[m], v.den), "exps": list(m)} for m in v.monomials()
            ],
        }
    return _encode(v)


# report fields that hold the statement's own scope or arguments, or internal data
_UNREPORTED = frozenset(["context", "data", "source", "target", "J"])


def _encode(v):
    """The one rule: polynomials as text, tuples as lists, and a report
    dataclass as its fields less `_UNREPORTED`."""
    if isinstance(v, Polynomial):
        return str(v)
    if isinstance(v, (tuple, list)):
        return [_encode(x) for x in v]
    if v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return "inf" if v == float("inf") else v
    if isinstance(v, Fraction):
        return _coeff_str(v.numerator, v.denominator)
    if isinstance(v, Ideal):
        return {"gens": _encode(v.gens)}
    if isinstance(v, QuotientContext):
        return {"vars": list(v.ring.names), "relations": _encode(v.relations.gens)}
    if isinstance(v, ChainComplex):
        out = {"ranks": list(v.ranks), "diffs": _encode(v.diffs)}
        if not v.complete:
            out["truncated"] = True
        return out
    if dataclasses.is_dataclass(v):
        out = {
            f.name: _encode(getattr(v, f.name))
            for f in dataclasses.fields(v)
            if f.name not in _UNREPORTED
        }
        if isinstance(v, (Homotopy, HomotopyFailure)):
            out["homotopic"] = isinstance(v, Homotopy)
        return out
    raise TypeError(f"no canonical encoding for {type(v).__name__}")


# round-trip parsers ---------------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def parse_polynomial(ring: PolynomialRing, obj) -> Polynomial:
    if tuple(obj["vars"]) != ring.names:
        raise ValueError("variable names do not match the ring")
    terms = {}
    for t in obj["terms"]:
        terms[tuple(t["exps"])] = Fraction(t["coeff"])
    return Polynomial(ring, terms)


def parse_ideal(ring: PolynomialRing, obj) -> Ideal:
    return Ideal(ring, tuple(ring.poly(g) for g in obj["gens"]))


def parse_matrix(ring: PolynomialRing, rows):
    return tuple(tuple(ring.poly(e) for e in row) for row in rows)


def parse_complex(ring: PolynomialRing, obj, context=None) -> ChainComplex:
    return ChainComplex(
        ring,
        tuple(obj["ranks"]),
        tuple(parse_matrix(ring, M) for M in obj["diffs"]),
        context=context,
        complete=not obj.get("truncated", False),
    )


# ---------------------------------------------------------------------------
# bound values that carry their declaration scope


class VIdeal:
    __slots__ = ("gens", "ring", "context")

    def __init__(self, gens, ring, context):
        self.gens = tuple(gens)
        self.ring = ring
        self.context = context


class VTuple:
    __slots__ = ("polys", "ring", "context")

    def __init__(self, polys, ring, context):
        self.polys = tuple(polys)
        self.ring = ring
        self.context = context


class VMatrix:
    __slots__ = ("rows", "ring")

    def __init__(self, rows, ring):
        self.rows = rows
        self.ring = ring


# ---------------------------------------------------------------------------
# execution engine


def _ring_and_context(scope):
    """PolynomialRing or QuotientContext -> (ring, context or None)."""
    if isinstance(scope, QuotientContext):
        return scope.ring, scope
    return scope, None


class Engine:
    def __init__(self, cap=None, order=None):
        self.env = {}
        self.last = None
        self.have_last = False
        self.cap = cap  # global override from --cap, else None
        self.order = order  # default order for new rings, from --order

    # -- scope helpers

    def make_ring(self, spec: str) -> PolynomialRing:
        m = RING_RE.match(spec.strip(WS))
        if not m:
            raise CommandError(f"bad ring spec {spec!r}")
        names = tuple(s.strip(WS) for s in m.group(1).split(",")) if m.group(1).strip(WS) else ()
        try:
            if self.order is not None:
                return PolynomialRing(names, self.order)
            return PolynomialRing(names)
        except ValueError as e:
            raise CommandError(str(e)) from None

    def make_scope(self, spec: str):
        """NAME | Q[...] | base/(gens) -> PolynomialRing or QuotientContext."""
        spec = spec.strip(WS)
        if NAME_RE.match(spec):
            val = self.lookup(spec)
            if isinstance(val, (PolynomialRing, QuotientContext)):
                return val
            raise CommandError(f"{spec!r} is not a ring or quotient")
        if RING_RE.match(spec):
            return self.make_ring(spec)
        parts = _split_top(spec, "/")
        if len(parts) == 2:
            base = self.make_scope(parts[0])
            if isinstance(base, QuotientContext):
                raise CommandError("cannot quotient a quotient")
            body = parts[1].strip(WS)
            if not (body.startswith("(") and body.endswith(")")):
                raise CommandError("quotient relations must be parenthesized")
            gens = [s.strip(WS) for s in _split_top(body[1:-1]) if s.strip(WS)]
            if not gens:
                raise CommandError("quotient needs at least one relation")
            rel = Ideal(base, tuple(self.parse_poly(base, g) for g in gens))
            return QuotientContext(base, rel)
        raise CommandError(f"bad scope {spec!r}")

    def lookup(self, name: str):
        if name not in self.env:
            raise CommandError(f"undefined identifier {name!r}")
        return self.env[name]

    def parse_poly(self, ring: PolynomialRing, text: str) -> Polynomial:
        try:
            return ring.poly(text)
        except ValueError as e:
            raise CommandError(f"bad polynomial {text!r} over {ring}: {e}") from None

    # -- argument resolution

    def split_args(self, tokens):
        """-> (positional tokens, kwargs dict, scope-or-None from 'over')."""
        pos, kwargs, scope = [], {}, None
        for tok in tokens:
            if isinstance(tok, OverTok):
                if scope is not None:
                    raise CommandError("more than one 'over' clause")
                scope = self.make_scope(tok.text)
            elif isinstance(tok, KwargTok):
                if tok.key in kwargs:
                    raise CommandError(f"duplicate keyword {tok.key!r}")
                kwargs[tok.key] = tok.text
            else:
                pos.append(tok)
        return pos, kwargs, scope

    def ring_and_context(self, pos, scope):
        """Working ring/context: the 'over' clause, else the first argument
        that carries one."""
        if scope is not None:
            return _ring_and_context(scope)
        for tok in pos:
            v = self.token_value(tok)
            if isinstance(v, (VIdeal, VTuple)):
                return v.ring, v.context
            if isinstance(v, (VMatrix, Ideal)):
                return v.ring, None
            if isinstance(v, (PolynomialRing, QuotientContext)):
                return _ring_and_context(v)
            if isinstance(v, ChainComplex):
                return v.ring, v.context
            if isinstance(v, CurrentRecipe):
                return v.context.ring, v.context
        raise CommandError("no ring in scope; add an 'over' clause or a reference")

    def token_value(self, tok):
        if isinstance(tok, Last):
            if not self.have_last:
                raise CommandError("'last' used before any command result")
            return self.last
        if isinstance(tok, WordTok) and tok.text in self.env:
            return self.env[tok.text]
        return None

    # -- coercions

    def as_gens(self, tok, ring):
        v = self.token_value(tok)
        if isinstance(v, VIdeal):
            return v.gens
        if isinstance(v, VTuple):
            return v.polys
        if isinstance(v, Ideal):
            return v.gens
        if isinstance(tok, TupleTok):
            return tuple(self.parse_poly(ring, s) for s in tok.items)
        if isinstance(tok, (PolyTok, WordTok, IntTok)):
            return (self.as_poly(tok, ring),)
        raise CommandError("expected an ideal, a tuple, or inline generators")

    def as_poly(self, tok, ring):
        v = self.token_value(tok)
        if isinstance(v, Polynomial):
            return v
        if v is not None:
            raise CommandError("expected a polynomial")
        if isinstance(tok, (PolyTok, WordTok)):
            return self.parse_poly(ring, tok.text)
        if isinstance(tok, IntTok):
            return ring.const(tok.value)
        raise CommandError("expected a polynomial")

    def as_typed(self, tok, cls, what):
        v = self.token_value(tok)
        if isinstance(v, cls):
            return v
        raise CommandError(f"expected {what}")

    def as_int(self, tok):
        if isinstance(tok, IntTok):
            return tok.value
        raise CommandError("expected an integer")

    def as_matrix(self, tok, ring):
        v = self.token_value(tok)
        if isinstance(v, VMatrix):
            return v.rows
        if isinstance(tok, MatrixTok):
            return tuple(tuple(self.parse_poly(ring, e) for e in row) for row in tok.rows)
        raise CommandError("expected a matrix")

    def kw_int(self, kwargs, key, default):
        if key not in kwargs:
            return default
        text = kwargs.pop(key)
        if not INT_RE.match(text):
            raise CommandError(f"{key} must be an integer")
        return int(text)

    def kw_bool(self, kwargs, key, default):
        if key not in kwargs:
            return default
        text = kwargs.pop(key)
        if text not in ("true", "false"):
            raise CommandError(f"{key} must be true or false")
        return text == "true"

    def kw_order(self, kwargs):
        if "order" not in kwargs:
            return None
        text = kwargs.pop("order")
        try:
            return order_by_name(text)
        except ValueError as e:
            raise CommandError(str(e)) from None

    def no_more_kwargs(self, kwargs):
        if kwargs:
            raise CommandError(f"unknown keyword {sorted(kwargs)[0]!r}")

    def default_cap(self, kwargs):
        return self.kw_int(kwargs, "cap", self.cap if self.cap is not None else 16)

    # -- statement execution

    def execute(self, stmt):
        kind = stmt[0]
        if kind == "ring":
            _, _, name, spec = stmt
            self.env[name] = self.make_ring(spec)
            return None
        if kind == "quotient":
            _, _, name, spec = stmt
            scope = self.make_scope(spec)
            if not isinstance(scope, QuotientContext):
                raise CommandError("quotient declaration needs base/(relations)")
            self.env[name] = scope
            return None
        if kind in ("ideal", "tuple", "matrix"):
            _, _, name, scopename, tok = stmt
            ring, ctx = _ring_and_context(self.make_scope(scopename))
            if kind == "matrix":
                self.env[name] = VMatrix(self.as_matrix(tok, ring), ring)
            else:
                gens = self.as_gens(tok, ring)
                self.env[name] = (VIdeal if kind == "ideal" else VTuple)(gens, ring, ctx)
            return None
        # a command, bound to a name or not
        cmd, args = stmt[-2:]
        value = self.run_command(cmd, args)
        if kind == "bind":
            self.env[stmt[2]] = value
        self.last, self.have_last = value, True
        return (cmd, value)

    def run_command(self, cmd, tokens):
        pos, kwargs, scope = self.split_args(tokens)
        handler = HANDLERS[cmd]
        try:
            return handler(self, pos, kwargs, scope)
        except CommandError:
            raise
        except (ValueError, RuntimeError, ZeroDivisionError) as e:
            raise CommandError(str(e) or type(e).__name__) from None


def _need(pos, n, usage):
    if len(pos) != n:
        raise CommandError(f"usage: {usage}")


# -- command handlers
#
# A handler family calls its engine function by its name in this module,
# looked up when the command runs, as the other handlers do: so a replaced
# or wrapped module attribute is the one called.


def _tuple_over_scope(usage, engine_fn):
    def handler(eng, pos, kwargs, scope):
        _need(pos, 1, usage)
        ring, ctx = eng.ring_and_context(pos, scope)
        fs = eng.as_gens(pos[0], ring)
        eng.no_more_kwargs(kwargs)
        return globals()[engine_fn](fs, context=ctx)

    return handler


def _one_complex(usage, engine_fn):
    def handler(eng, pos, kwargs, scope):
        _need(pos, 1, usage)
        eng.no_more_kwargs(kwargs)
        return globals()[engine_fn](eng.as_typed(pos[0], ChainComplex, "a complex"))

    return handler


def _two_with_order(usage, cls, what, engine_fn):
    def handler(eng, pos, kwargs, scope):
        _need(pos, 2, usage)
        order = eng.kw_order(kwargs)
        eng.no_more_kwargs(kwargs)
        a = eng.as_typed(pos[0], cls, what)
        b = eng.as_typed(pos[1], cls, what)
        return globals()[engine_fn](a, b, order=order)

    return handler


def h_resolve(eng, pos, kwargs, scope):
    _need(pos, 1, "resolve(gens, [over SCOPE], [cap=N], [minimal=true])")
    ring, ctx = eng.ring_and_context(pos, scope)
    gens = eng.as_gens(pos[0], ring)
    cap = eng.default_cap(kwargs)
    minimal = eng.kw_bool(kwargs, "minimal", False)
    eng.no_more_kwargs(kwargs)
    return free_resolution(Ideal(ring, gens), context=ctx, cap=cap, minimal=minimal)


def h_tensor(eng, pos, kwargs, scope):
    _need(pos, 2, "tensor(complex, complex)")
    eng.no_more_kwargs(kwargs)
    C = eng.as_typed(pos[0], ChainComplex, "a complex")
    D = eng.as_typed(pos[1], ChainComplex, "a complex")
    return tensor_complexes(C, D)


def h_lift(eng, pos, kwargs, scope):
    _need(pos, 2, "lift(ideal, quotient)")
    eng.no_more_kwargs(kwargs)
    Z = eng.as_typed(pos[1], QuotientContext, "a quotient")
    gens = eng.as_gens(pos[0], Z.ring)
    return maximal_lifting(Ideal(Z.ring, gens), Z)


def h_proper_check(eng, pos, kwargs, scope):
    _need(pos, 4, "proper-check(complex, complex, codim, codim)")
    eng.no_more_kwargs(kwargs)
    C = eng.as_typed(pos[0], ChainComplex, "a complex")
    D = eng.as_typed(pos[1], ChainComplex, "a complex")
    return proper_intersection_check(C, D, eng.as_int(pos[2]), eng.as_int(pos[3]))


def h_cm_check(eng, pos, kwargs, scope):
    _need(pos, 1, "cm-check(gens, [over RING], [cap=N])")
    ring, ctx = eng.ring_and_context(pos, scope)
    if ctx is not None:
        raise CommandError("cm-check works over the ambient ring")
    gens = eng.as_gens(pos[0], ring)
    cap = eng.kw_int(kwargs, "cap", eng.cap if eng.cap is not None else 0)
    eng.no_more_kwargs(kwargs)
    return cohen_macaulay_check(Ideal(ring, gens), cap=cap)


def h_translaw(eng, pos, kwargs, scope):
    _need(pos, 3, "translaw(tuple, tuple, matrix)")
    ring, _ = eng.ring_and_context(pos, scope)
    fs = eng.as_gens(pos[0], ring)
    gs = eng.as_gens(pos[1], ring)
    A = eng.as_matrix(pos[2], ring)
    eng.no_more_kwargs(kwargs)
    return transformation_law_check(fs, gs, A)


def h_presidue(eng, pos, kwargs, scope):
    _need(pos, 2, "presidue(poly, var, [over RING])")
    ring, _ = eng.ring_and_context(pos, scope)
    h = eng.as_poly(pos[0], ring)
    if not isinstance(pos[1], WordTok):
        raise CommandError("the distinguished variable must be a plain name")
    eng.no_more_kwargs(kwargs)
    return poincare_residue(h, pos[1].text)


def h_shape(eng, pos, kwargs, scope):
    if not pos:
        raise CommandError("usage: shape(quotient, [W:dim, ...], [cap=N])")
    Z = eng.as_typed(pos[0], QuotientContext, "a quotient")
    decomposition = None
    if len(pos) > 1:
        decomposition = []
        for tok in pos[1:]:
            if not isinstance(tok, PairTok):
                raise CommandError("decomposition parts look like NAME:dim")
            v = eng.lookup(tok.name)
            if not isinstance(v, VIdeal):
                raise CommandError(f"{tok.name!r} is not an ideal")
            decomposition.append((Ideal(v.ring, v.gens), tok.value))
    cap = eng.default_cap(kwargs)
    eng.no_more_kwargs(kwargs)
    return structure_form_shape(Z, decomposition, cap=cap)


def h_recipe(eng, pos, kwargs, scope):
    _need(pos, 2, "recipe(quotient, ideal, [cap=N])")
    Z = eng.as_typed(pos[0], QuotientContext, "a quotient")
    gens = eng.as_gens(pos[1], Z.ring)
    cap = eng.default_cap(kwargs)
    eng.no_more_kwargs(kwargs)
    return build_current_recipe(Z, Ideal(Z.ring, gens), cap=cap)


def h_annmember(eng, pos, kwargs, scope):
    _need(pos, 2, "annmember(recipe, poly)")
    eng.no_more_kwargs(kwargs)
    X = eng.as_typed(pos[0], CurrentRecipe, "a recipe")
    g = eng.as_poly(pos[1], X.context.ring)
    return annihilator_member(X, g)


HANDLERS = {
    "resolve": h_resolve,
    "minimalize": _one_complex("minimalize(complex)", "minimalize"),
    "koszul": _tuple_over_scope("koszul(tuple, [over SCOPE])", "koszul_complex"),
    "tensor": h_tensor,
    "lift": h_lift,
    "compare": _two_with_order(
        "compare(source, target, [order=NAME])", ChainComplex, "a complex", "comparison_morphism"
    ),
    "homotopy": _two_with_order(
        "homotopy(map, map, [order=NAME])", ChainMap, "a chain map", "chain_homotopy"
    ),
    "be-check": _one_complex("be-check(complex)", "buchsbaum_eisenbud_check"),
    "proper-check": h_proper_check,
    "period": _one_complex("period(complex)", "detect_periodicity"),
    "cm-check": h_cm_check,
    "regseq": _tuple_over_scope("regseq(tuple, [over SCOPE])", "regular_sequence_check"),
    "ch": _tuple_over_scope("ch(tuple, [over SCOPE])", "coleff_herrera"),
    "translaw": h_translaw,
    "presidue": h_presidue,
    "shape": h_shape,
    "recipe": h_recipe,
    "annmember": h_annmember,
}

COMMANDS = frozenset(HANDLERS)


# ---------------------------------------------------------------------------
# the runner


def run_script(text: str, cap=None, order=None):
    """-> (exit code, report lines for stdout, JSON document dict).

    The statements run in one shared_levels() scope, so a resolution level
    that an earlier statement computed is not computed again."""
    statements = parse_script(text)  # ParseFailure propagates: exit 2
    engine = Engine(cap=cap, order=order)
    lines = []
    entries = []
    failed = False
    with shared_levels():
        for stmt in statements:
            lineno = stmt[1]
            try:
                outcome = engine.execute(stmt)
            except CommandError as e:
                failed = True
                lines.append(f"{lineno}: error: {e}")
                entries.append({"line": lineno, "error": str(e)})
                continue
            if outcome is None:
                continue
            cmd, value = outcome
            payload = encode(value)
            if stmt[0] == "bind":
                lines.append(f"{lineno}: {stmt[2]} = {cmd} -> {json.dumps(payload, sort_keys=True)}")
            else:
                lines.append(f"{lineno}: {cmd} -> {json.dumps(payload, sort_keys=True)}")
            entries.append({"line": lineno, "command": cmd, "result": payload})
    code = 1 if failed else 0
    doc = {"exit": code, "statements": entries}
    return code, lines, doc


def corpus_text() -> str:
    from importlib import resources

    return resources.files("residua").joinpath("corpus.rcs").read_text(encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="residua", description="run a residue-engine script"
    )
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--script", metavar="PATH", help="script file ('-' for stdin)")
    src.add_argument("--corpus", action="store_true", help="run the bundled example corpus")
    parser.add_argument("--json", metavar="PATH", help="write the canonical JSON report ('-' for stdout)")
    parser.add_argument("--cap", type=int, metavar="N", help="resolution cap for commands without their own")
    parser.add_argument("--order", choices=("lex", "grlex", "grevlex"), help="default order for new rings")
    args = parser.parse_args(argv)

    if args.corpus:
        text = corpus_text()
    elif args.script and args.script != "-":
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            print(f"cannot read script: {e}", file=sys.stderr)
            return 2
    else:
        text = sys.stdin.read()

    order = order_by_name(args.order) if args.order else None
    started = time.perf_counter()
    try:
        code, lines, doc = run_script(text, cap=args.cap, order=order)
    except ParseFailure as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.json == "-":
        sys.stdout.write(blob)
    else:
        for ln in lines:
            print(ln)
        if args.json:
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(blob)
            except OSError as e:
                print(f"cannot write JSON report: {e}", file=sys.stderr)
                return 2
    print(f"# elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
