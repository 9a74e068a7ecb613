"""The four workloads: seeded input generation, the timed job, and checks.

A workload is a fixed list of job specs drawn from the seed (one "pass").
Every spec carries plain data only; `build` turns it into fresh residua
objects before each pass, so no cached basis survives from one pass to
the next, and `run` is the timed job.  `answer` reduces a job's output to
canonical JSON, which must repeat byte for byte on every pass, and
`check` compares a first-pass answer with a reference that shares no code
with residua (see oracle.py).

A pass holds at least 100 jobs, so that ten or more lie beyond the 90th
percentile.  Its menu is fixed: a small set of shapes, repeated SETS
times, the same for every seed; the seed draws coefficients, variable
orders and substitutions, which leave the cost of a job nearly unchanged.
That keeps the figures of two seeds comparable.  The shapes of each menu
fall into cost classes sized so that the median and the 90th percentile
each sit inside a class rather than on the edge between two.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from itertools import combinations_with_replacement

import oracle
from oracle import canon, t_add, t_mono, t_mul

VARS = ("x", "y", "z", "w")


def _nonzero(rng, bound=9):
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _monomials(n, d):
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _dense(rng, n, d, lower=0.5):
    """Every degree-d monomial with a nonzero coefficient, lower degrees at
    the given density: generic enough that the basis shape does not depend
    on the draw."""
    p = {m: Fraction(_nonzero(rng)) for m in _monomials(n, d)}
    for k in range(d):
        for m in _monomials(n, k):
            if rng.random() < lower:
                p[m] = Fraction(_nonzero(rng))
    return p


def _permute(m, perm):
    out = [0] * len(m)
    for i, e in enumerate(m):
        out[perm[i]] = e
    return tuple(out)


def _complex_answer(C):
    return {
        "ranks": list(C.ranks),
        "complete": C.complete,
        "diffs": [[[str(e) for e in row] for row in M] for M in C.diffs],
    }


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r:.300}, expected {want!r:.300}"


# ---------------------------------------------------------------------------


class Groebner:
    """Reduced grevlex bases of dense ideals, then a few normal forms."""

    name = "groebner"
    # (variables, generator degrees); bases take about 15, 25, 45, 45 and
    # 90 ms here
    SHAPES = ((3, (2, 2, 2)), (3, (2, 2, 3)), (4, (2, 2, 2)), (3, (2, 3, 3)), (4, (2, 2, 3)))
    SETS = 20

    def generate(self, rng, mods):
        specs = []
        for _ in range(self.SETS):
            for n, degs in self.SHAPES:
                gens = [_dense(rng, n, d) for d in degs]
                member = t_add(*(t_mul(g, _dense(rng, n, 1)) for g in gens))
                probes = [_dense(rng, n, 3), _dense(rng, n, 3), member]
                specs.append({"names": VARS[:n], "gens": gens, "probes": probes})
        return specs

    def build(self, spec, mods):
        R = mods.polyring.PolynomialRing(spec["names"])
        P = mods.polyring.Polynomial
        return mods.groebner.Ideal(R, [P(R, g) for g in spec["gens"]]), [P(R, f) for f in spec["probes"]]

    def run(self, inputs, mods):
        ideal, probes = inputs
        basis = mods.groebner.groebner_basis(ideal)
        return basis, [mods.groebner.normal_form(f, basis) for f in probes]

    def answer(self, out):
        basis, nfs = out
        return {
            "basis": sorted((canon(g.terms) for g in basis), key=repr),
            "nf": [canon(r.terms) for r in nfs],
        }

    def check(self, spec, ans):
        names, gens = spec["names"], spec["gens"]
        ref = oracle.ReferenceIdeal(names, gens)
        want = {
            "basis": ref.reduced_basis(),
            "nf": [canon(ref.normal_form(f)) for f in spec["probes"]],
        }
        if ans["nf"][-1]:
            return "a member of the ideal has a nonzero normal form"
        return _mismatch("basis and normal forms", ans, want)


# ---------------------------------------------------------------------------


class Resolutions:
    """Minimal free resolutions in Q[x,y,z,w]: strongly stable monomial
    ideals, binomial multiples of them, and complete intersections over a
    hypersurface that lies in m times the ideal (capped)."""

    name = "resolutions"
    # Borel generators of strongly stable ideals with 5-8 minimal
    # generators of degree 2-3, and of ideals M with generators of degree
    # 1-2 that are resolved as b*M for a seeded linear binomial b (same
    # Betti numbers); (regular-sequence length, cap) of the quotient jobs.
    # Shapes listed more than once get independent draws.  They make cost
    # classes of 5, 8 and 3 jobs (about 10, 15-40 and 50 ms here), so the
    # median and the 90th percentile each sit inside a class.
    MONOMIAL = (
        ((0, 1, 1, 0),), ((1, 1, 1, 0),),
        ((0, 2, 0, 0), (1, 0, 0, 1)), ((0, 0, 2, 0),), ((0, 0, 2, 0),), ((0, 1, 1, 0), (1, 0, 0, 1)),
        ((0, 1, 0, 1),), ((0, 1, 0, 1),), ((0, 1, 0, 1),),
    )
    BINOMIAL = (((0, 1, 1, 0),), ((0, 0, 2, 0),), ((0, 0, 2, 0),), ((0, 2, 0, 0), (1, 0, 0, 1)))
    QUOTIENT = ((2, 5), (2, 5), (3, 4))
    SETS = 7

    def generate(self, rng, mods):
        specs = []
        for _ in range(self.SETS):
            specs += self._menu(rng)
        return specs

    def _menu(self, rng):
        specs = []
        for borel in self.MONOMIAL:
            gens = oracle.borel_closure(borel, 4)
            perm = rng.sample(range(4), 4)
            specs.append({
                "gens": [t_mono(_permute(m, perm)) for m in gens],
                "relation": None,
                "cap": 16,
                "betti": oracle.eliahou_kervaire(gens),
            })
        for borel in self.BINOMIAL:
            gens = oracle.borel_closure(borel, 4)
            perm = rng.sample(range(4), 4)
            i, j = rng.sample(range(4), 2)
            b = t_add(t_mono(_unit(i)), t_mono(_unit(j), _nonzero(rng, 5)))
            specs.append({
                "gens": [t_mul(b, t_mono(_permute(m, perm))) for m in gens],
                "relation": None,
                "cap": 16,
                "betti": oracle.eliahou_kervaire(gens),
            })
        for c, cap in self.QUOTIENT:
            gens, f = _regular_sequence_and_relation(rng, c)
            specs.append({"gens": gens, "relation": f, "cap": cap, "betti": oracle.shamash(c, cap)})
        return specs

    def build(self, spec, mods):
        R = mods.polyring.PolynomialRing(VARS)
        P = mods.polyring.Polynomial
        ideal = mods.groebner.Ideal(R, [P(R, g) for g in spec["gens"]])
        ctx = None
        if spec["relation"] is not None:
            ctx = mods.groebner.QuotientContext(R, mods.groebner.Ideal(R, (P(R, spec["relation"]),)))
        return ideal, ctx, spec["cap"]

    def run(self, inputs, mods):
        ideal, ctx, cap = inputs
        return mods.homalg.free_resolution(ideal, context=ctx, cap=cap, minimal=True)

    def answer(self, out):
        return _complex_answer(out)

    def check(self, spec, ans):
        quotient = spec["relation"] is not None
        return _mismatch("ranks", ans["ranks"], spec["betti"]) or _mismatch(
            "complete", ans["complete"], not quotient
        )


def _unit(i, n=4):
    return tuple(1 if k == i else 0 for k in range(n))


def _regular_sequence_and_relation(rng, c):
    """c polynomials on disjoint sets of variables (so a regular sequence)
    and f = sum l_k g_k with linear monomials l_k, so f lies in m * (g)."""
    order = rng.sample(range(4), 4)
    sizes = [1] * c
    if c == 2 or rng.random() < 0.5:
        sizes[rng.randrange(c)] = 2
    gens = []
    at = 0
    for size in sizes:
        vs = order[at : at + size]
        at += size
        if size == 1:
            e = [0] * 4
            e[vs[0]] = rng.choice((1, 2))
            gens.append(t_mono(e))
        elif rng.random() < 0.5:
            gens.append(t_mono(_add_units(vs[0], vs[1])))
        else:
            gens.append(t_add(t_mono(_add_units(vs[0], vs[0])), t_mono(_add_units(vs[1], vs[1]), _nonzero(rng, 5))))
    while True:
        f = t_add(*(t_mul(t_mono(_unit(rng.randrange(4)), rng.randint(1, 5)), g) for g in gens))
        if f:
            return gens, f


def _add_units(i, j):
    e = [0] * 4
    e[i] += 1
    e[j] += 1
    return tuple(e)


# ---------------------------------------------------------------------------


class RankLoci:
    """be-check, rank_loci and proper-check on seeded complexes: minimal
    resolutions of strongly stable ideals in Q[x,y,z] after a seeded
    unipotent change of coordinates, and Koszul complexes of seeded sparse
    quadrics in Q[x,y,z,w].  The complexes are built during set-up (they
    hold no cached bases) and each job is one check."""

    name = "rank_loci"
    # (Borel generators in 3 variables, instances per menu); resolutions
    # with ranks (1,4,4,1), (1,5,6,2) and (1,6,8,3).  Each instance gets
    # its own change of coordinates and is checked by be-check and by
    # rank_loci.  With the Koszul and proper-check jobs this makes cost
    # classes of 6, 8 and 4 jobs (under 10, about 25 and about 110 ms here).
    RESOLVED = ((((0, 2, 0), (1, 0, 1)), 1), (((0, 1, 1),), 4), (((0, 0, 2),), 2))
    KOSZUL = (3, 3)  # quadric tuple lengths, one be-check and one rank_loci
    PROPER = ((2, 2), (1, 3))  # tuple lengths of the proper-check pairs
    SETS = 6

    def generate(self, rng, mods):
        resolved = []
        for borel, copies in self.RESOLVED:
            gens = oracle.borel_closure(borel, 3)
            ideal = mods.groebner.Ideal(_ring(mods, 3), [_poly(mods, 3, t_mono(m)) for m in gens])
            resolved.append((gens, mods.homalg.free_resolution(ideal, minimal=True), copies))
        specs = []
        for _ in range(self.SETS):
            specs += self._menu(rng, mods, resolved)
        return specs

    def _menu(self, rng, mods, resolved):
        specs = []
        for gens, C0, copies in resolved:
            betti = oracle.eliahou_kervaire(gens)
            cd = oracle.monomial_codim(3, [[i for i, e in enumerate(m) if e] for m in gens])
            for _ in range(copies):
                C = _change_coordinates(rng, C0, mods)
                for check in ("be-check", "rank_loci"):
                    specs.append({"check": check, "complexes": (C,), "kind": "resolution",
                                  "ranks": oracle.alternating_ranks(betti), "codim": cd})
        for check, c in zip(("be-check", "rank_loci"), self.KOSZUL):
            fs = _sparse_quadrics(rng, c)
            specs.append({"check": check, "kind": "koszul",
                          "complexes": (_koszul(fs, mods),), "tuples": (fs,)})
        for c, d in self.PROPER:
            fs, gs = _sparse_quadrics(rng, c), _sparse_quadrics(rng, d)
            specs.append({"check": "proper-check", "kind": "koszul",
                          "complexes": (_koszul(fs, mods), _koszul(gs, mods)), "tuples": (fs, gs)})
        return specs

    def build(self, spec, mods):
        return spec["check"], spec["complexes"]

    def run(self, inputs, mods):
        check, complexes = inputs
        if check == "be-check":
            return mods.homalg.buchsbaum_eisenbud_check(*complexes)
        if check == "rank_loci":
            return mods.homalg.rank_loci(*complexes)
        return mods.homalg.proper_intersection_check(*complexes, 1, 1)

    def answer(self, out):
        fields = {
            "ExactnessReport": lambda r: {
                "passes": r.passes,
                "generic_ranks": list(r.generic_ranks),
                "levels": [[l.level, l.rank_ok, l.codim, l.required, l.codim_ok] for l in r.levels],
            },
            "ResolutionDiagnostics": lambda r: {
                "ranks_used": list(r.ranks_used),
                "loci": [[str(g) for g in I.gens] for I in r.loci],
                "codims": list(r.codims),
                "level_ok": list(r.level_ok),
                "containments": list(r.containments),
            },
            "ProperIntersectionReport": lambda r: {
                "passes": r.passes,
                "pairs": [list(p) for p in r.pairs],
            },
        }
        return fields[type(out).__name__](out)

    def check(self, spec, ans):
        if spec["check"] == "proper-check":
            fs, gs = spec["tuples"]
            cd = oracle.codim(VARS, fs + gs)
            pairs = [[k, l, cd, k + l, cd >= k + l]
                     for k in range(1, len(fs) + 1) for l in range(1, len(gs) + 1)]
            return _mismatch("pairs", ans["pairs"], pairs) or _mismatch(
                "passes", ans["passes"], all(p[4] for p in pairs))
        if spec["check"] == "be-check":
            levels = ans["levels"]
            got = {"ranks": ans["generic_ranks"], "codims": [l[2] for l in levels],
                   "verdicts": [l[4] for l in levels], "ranks_ok": all(l[1] for l in levels),
                   "passes": ans["passes"]}
        else:
            got = {"ranks": ans["ranks_used"], "codims": ans["codims"], "verdicts": ans["level_ok"],
                   "ranks_ok": True, "passes": all(ans["level_ok"])}
        if spec["kind"] == "koszul":
            # outside V(f) the Koszul complex is split exact, on V(f) every
            # differential vanishes: each locus is V(f)
            (fs,) = spec["tuples"]
            c = len(fs)
            ranks = [math.comb(c - 1, k - 1) for k in range(1, c + 1)]
            codims = [oracle.codim(VARS, fs)] * c
            verdicts = [cd >= k for k, cd in enumerate(codims, start=1)]
        else:
            # a resolution: exact, so every level passes; the first locus is
            # V(I), the others are not pinned
            ranks = spec["ranks"]
            codims = [spec["codim"]] + got["codims"][1:]
            verdicts = [True] * len(ranks)
        want = {"ranks": ranks, "codims": codims, "verdicts": verdicts, "ranks_ok": True,
                "passes": all(verdicts)}
        return _mismatch("exactness report", got, want)


def _sparse_quadrics(rng, c):
    """c quadrics in 4 variables, each a monomial or a binomial."""
    out = []
    quads = _monomials(4, 2)
    for _ in range(c):
        m1, m2 = rng.sample(quads, 2)
        q = t_mono(m1)
        if rng.random() < 0.5:
            q = t_add(q, t_mono(m2, _nonzero(rng, 5)))
        out.append(q)
    return out


def _koszul(fs, mods):
    return mods.homalg.koszul_complex([_poly(mods, 4, f) for f in fs])


def _ring(mods, n):
    return mods.polyring.PolynomialRing(VARS[:n])


def _poly(mods, n, terms):
    return mods.polyring.Polynomial(_ring(mods, n), terms)


def _change_coordinates(rng, C, mods):
    """The complex C over Q[x,y,z] carried through the seeded unipotent
    substitution x_i -> x_i + sum_{j > i} a_ij x_j."""
    n = 3
    images = []
    for i in range(n):
        img = t_mono(_unit(i, n))
        for j in range(i + 1, n):
            # coefficients 1-4: larger or signed ones swing the cost of a check 2x
            img = t_add(img, t_mono(_unit(j, n), rng.randint(1, 4)))
        images.append(img)

    def subst(p):
        out = {}
        for m, c in p.terms.items():
            t = {(0,) * n: c}
            for img, e in zip(images, m):
                for _ in range(e):
                    t = t_mul(t, img)
            out = t_add(out, t)
        return _poly(mods, n, out)

    diffs = [tuple(tuple(subst(e) for e in row) for row in M) for M in C.diffs]
    return mods.homalg.ChainComplex(_ring(mods, n), C.ranks, diffs)


# ---------------------------------------------------------------------------


class Scripts:
    """Seeded scripts through cli.run_script on plane curves z^a - w^b: a
    recipe, 15 annihilator queries, a Poincare residue, two resolutions and
    their comparison, and a periodic resolution over the curve.  The
    bundled corpus runs once per pass as well."""

    name = "scripts"
    CURVES = ((2, 3), (3, 4), (2, 5), (3, 5), (3, 2), (4, 3))
    QUERIES = 15
    CAP = 6
    SETS = 17

    def generate(self, rng, mods):
        R = mods.polyring.PolynomialRing(("z", "w"))
        text = lambda t: mods.polyring.poly_str(mods.polyring.Polynomial(R, t))
        specs = []
        for a, b in self.CURVES * self.SETS:
            h = t_add(t_mono((a, 0)), t_mono((0, b), -1))
            # monomials, so J + (h) is weighted homogeneous and its minimal
            # resolution has length 2
            j1 = t_mono((rng.randint(1, 2), rng.randint(0, 1)), _nonzero(rng, 5))
            j2 = t_mono((rng.randint(0, 1), rng.randint(1, 2)), _nonzero(rng, 5))
            queries = []
            for k in range(self.QUERIES):
                if k % 2 == 0:  # a member of J + (h)
                    g = t_add(*(t_mul(_small(rng), p) for p in (j1, j2, h)))
                else:
                    g = _small(rng, degree=4, constant=k % 3 == 0)
                queries.append(g or t_mono((1, 1)))
            J = ", ".join(text(p) for p in (j1, j2))
            lines = [
                "ring R = Q[z,w]",
                f"quotient Z = R/({text(h)})",
                f"ideal J = Z:({J})",
                "recipe X = recipe(Z, J)",
                *(f"annmember(X, {text(g)})" for g in queries),
                f"presidue({text(h)}, w, over R)",
                f"E = resolve(({J}, {text(h)}), over R, minimal=true)",
                f"F = resolve(({text(h)}), over R)",
                "compare(F, E)",
                f"resolve((z, w), over Z, cap={self.CAP})",
                "period(last)",
            ]
            specs.append({"text": "\n".join(lines) + "\n", "curve": (a, b), "h": h,
                          "J": (j1, j2), "queries": queries})
        specs.append({"text": mods.cli.corpus_text(), "corpus": True})
        return specs

    def build(self, spec, mods):
        return spec["text"]

    def run(self, inputs, mods):
        return mods.cli.run_script(inputs)

    def answer(self, out):
        code, _, doc = out
        return {"exit": code, "json": json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"}

    def check(self, spec, ans):
        if spec.get("corpus"):
            path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")
            with open(path, encoding="utf-8") as fh:
                return _mismatch("corpus JSON", ans["json"], fh.read())
        if ans["exit"] != 0:
            return f"script exited {ans['exit']}"
        results = [s["result"] for s in json.loads(ans["json"])["statements"]]
        recipe, rest = results[0], results[1:]
        answers, (residue, E, F, cmp, periodic, period) = rest[: self.QUERIES], rest[self.QUERIES :]
        ref = oracle.ReferenceIdeal(("z", "w"), list(spec["J"]) + [spec["h"]])
        a, b = spec["curve"]
        problems = [
            _mismatch("annmember answers", answers, [ref.contains(g) for g in spec["queries"]]),
            _mismatch("recipe F ranks", recipe["F"]["ranks"], [1, 1]),
            _mismatch("recipe E length", len(recipe["E"]["ranks"]), 3),
            _mismatch("recipe Cohen-Macaulay flags", (recipe["z_cohen_macaulay"], recipe["j_cohen_macaulay"]), (True, True)),
            _mismatch("F ranks", F["ranks"], [1, 1]),
            _mismatch("E length", len(E["ranks"]), 3),
            _mismatch("comparison levels", len(cmp["levels"]), 2),
            _mismatch("periodic resolution ranks", periodic["ranks"], oracle.shamash(2, self.CAP)),
            _mismatch("period detected", (period["detected"], period["period"] in (1, 2)), (True, True)),
            _residue_problem(residue, a, b),
        ]
        return next((p for p in problems if p), None)


def _small(rng, degree=2, constant=False):
    """A sparse polynomial in z, w of degree <= degree; no constant term
    unless asked for."""
    p = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, degree)
        i = rng.randint(0, d)
        p = t_add(p, t_mono((i, d - i), _nonzero(rng, 5)))
    if constant:
        p = t_add(p, t_mono((0, 0), _nonzero(rng, 5)))
    return p


def _residue_problem(residue, a, b):
    """The Poincare residue along w of h = z^a - w^b: dz / (dh/dw) up to a
    sign, with the denominator's leading coefficient made positive."""
    import sympy

    w = sympy.Symbol("w")
    if residue["wedge"] != ["z"]:
        return f"residue wedge {residue['wedge']!r}"
    if not oracle.sympy_equal(residue["denominator"], b * w ** (b - 1), ("z", "w")):
        return f"residue denominator {residue['denominator']!r}"
    # (-1)^(k-1) for the 2nd variable, times -1 to flip dh/dw = -b w^(b-1)
    return _mismatch("residue numerator", residue["numerator"], "1")


WORKLOADS = {w.name: w for w in (Groebner(), Resolutions(), RankLoci(), Scripts())}
