"""Work that the resolution engine skips because its result is known.

- The tracked engine of _syzygies_termmaps.  Inputs that are
  structurally reduced (distinct leads, no lead dividing another lead or
  a tail term) are tried as their own basis: when every S-pair reduces
  to zero they are their own reduced basis, and the pair syzygies built
  on them are the generators.  On every family below and on seeded
  reduced bases, structurally reduced sets that are not bases, sets that
  are not reduced, rank-2 modules and inputs under a context, the
  generator maps equal those of the frozen engine-first version, and a
  corrupted fast-path remainder only sends the call to the engine.
- The candidate basis of syzygies.  When there is no context and the
  inputs are a minimal Groebner basis, the candidates are a Groebner
  basis by Schreyer's theorem, and _syzygy_level reduces them without
  the loop.  On every ambient syzygy level of the (x,y,z,w)^3 minimal
  resolution, of seeded strongly stable ideals, of Koszul resolutions
  and of seeded reduced and minimal bases, the basis it makes where it
  does so equals _engine's, and each call's generators equal those made
  with the shortcut turned off.  It does not fire on a set that is not a
  Groebner basis, nor under a context.
- The composition check.  groebner.product_vanishes decides A . B = 0
  modulo the context on integer term maps; it gives the verdict of the
  frozen rule it replaced (mat_mul, then each entry reduced modulo the
  context) on seeded matrices, and builds no Polynomial.
"""

import random
import sys
from fractions import Fraction

import pytest

from residua import groebner, homalg, kernel
from residua.groebner import Ideal, QuotientContext, SubmoduleBasis, product_vanishes, syzygies
from residua.homalg import free_resolution, mat_mul
from residua.polyring import Polynomial, PolynomialRing, PolyVector, from_terms, to_terms

from conftest import (
    level_args,
    random_nonzero_poly,
    random_poly,
    reference_level,
    reference_syzygies_termmaps,
    syzygy_level,
)

XY = PolynomialRing(("x", "y"))
XYZ = PolynomialRing(("x", "y", "z"))
XYZW = PolynomialRing(("x", "y", "z", "w"))


# ---------------------------------------------------------------------------
# the Schreyer-certified candidate basis


def monomial(ring, exps):
    return Polynomial(ring, {tuple(exps): 1})


def strongly_stable(ring, borel):
    """The monomials of the strongly stable ideal generated by the
    exponent tuples borel: closed under moving a factor x_j to x_i, i < j."""
    seen, todo = set(), [tuple(b) for b in borel]
    while todo:
        m = todo.pop()
        if m in seen:
            continue
        seen.add(m)
        for j in range(1, len(m)):
            if m[j]:
                for i in range(j):
                    up = list(m)
                    up[j] -= 1
                    up[i] += 1
                    todo.append(tuple(up))
    return Ideal(ring, [monomial(ring, m) for m in sorted(seen, reverse=True)])


def cube():
    gens = [
        XYZW.poly(f"x^{a}*y^{b}*z^{c}*w^{3 - a - b - c}")
        for a in range(4)
        for b in range(4 - a)
        for c in range(4 - a - b)
    ]
    return Ideal(XYZW, gens)


def seeded_stable(seed):
    rng = random.Random(seed)
    borel = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(2, 3)
        cut = sorted(rng.sample(range(d + 3), 3))
        parts = [cut[0], cut[1] - cut[0] - 1, cut[2] - cut[1] - 1, d + 2 - cut[2]]
        borel.append(parts)
    return strongly_stable(XYZW, borel)


def koszul(texts):
    return Ideal(XYZW, [XYZW.poly(t) for t in texts])


def reduced_basis(seed):
    """The reduced basis of a seeded ideal of Q[x,y,z], as generators: its
    first syzygies take the shortcut, with candidates that S-pair
    reductions give many terms."""
    rng = random.Random(seed)
    gens = [random_nonzero_poly(rng, XYZ, 2, 3) for _ in range(rng.randint(2, 3))]
    return Ideal(XYZ, Ideal(XYZ, gens).groebner())


def minimal_basis(seed):
    """A seeded reduced basis of Q[x,y,z] with a rational multiple of each
    later element added to every element but the last: the leads stay (a
    later lead is smaller), so a minimal Groebner basis that is not
    reduced."""
    rng = random.Random(seed)
    basis = reduced_basis(100 + seed).gens
    gens = []
    for i, g in enumerate(basis):
        for h in basis[i + 1 :]:
            g = g + h * Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))
        gens.append(g)
    return Ideal(XYZ, gens)


# a candidate whose coefficient at its Schreyer lead is negative once it is
# made primitive under the ring's module order
SIGNED = Ideal(XYZ, [XYZ.poly(t) for t in ("x*y + 3*y", "x*z + 2/7", "y*z - 2/21*y")])


FAMILIES = {
    "(x,y,z,w)^3": [cube()],
    "strongly stable": [seeded_stable(seed) for seed in range(6)],
    "koszul": [
        koszul(["x", "y", "z", "w"]),
        koszul(["x^2", "y^3", "z*w"]),
        koszul(["x^2 - y*z", "y^2 - z*w", "z^3"]),
    ],
    "reduced bases": [SIGNED] + [reduced_basis(seed) for seed in range(12)],
    "minimal bases": [Ideal(XY, (XY.poly("x + y"), XY.poly("y")))]
    + [minimal_basis(seed) for seed in range(8)],
}


def ambient_calls(I):
    """The SubmoduleBasis of each syzygy level of I's minimal resolution,
    unpacked from the engine inputs each _syzygy_level call receives."""
    calls = []
    original = groebner._syzygy_level

    def spy(inputs, rank, context, order, codec, degrees=None, relations=None):
        zero = PolyVector(I.ring, [I.ring.zero()] * rank)
        calls.append(SubmoduleBasis(I.ring, rank, [from_terms(zero, tm, den, codec) for tm, den in inputs]))
        return original(inputs, rank, context, order, codec, degrees, relations)

    groebner._syzygy_level = spy
    try:
        free_resolution(I, minimal=True)
    finally:
        groebner._syzygy_level = original
    return calls


def shortcut_bases(monkeypatch):
    """Record (the candidates of a syzygy level, their rank, codec, the
    basis _reduced made of them) of each _reduced call that _syzygy_level
    makes itself: the candidate basis without the loop."""
    made = []
    original = groebner._reduced

    def spy(divisors, reps, codec):
        frame = sys._getframe(1)
        if frame.f_code.co_name != "_syzygy_level":
            return original(divisors, reps, codec)
        cands = list(frame.f_locals["cands"])
        original(divisors, reps, codec)
        made.append((cands, frame.f_locals["s"], codec, list(divisors)))

    monkeypatch.setattr(groebner, "_reduced", spy)
    return made


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_shortcut_basis_is_the_loops_basis(monkeypatch, family):
    made = shortcut_bases(monkeypatch)
    for I in FAMILIES[family]:
        for basis in ambient_calls(I):
            syzygies(basis)
    assert made
    for cands, s, codec, after in made:
        assert after == groebner._engine(cands, codec, s, False)[0]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_shortcut_keeps_every_syzygy_generator(monkeypatch, family):
    calls = [basis for I in FAMILIES[family] for basis in ambient_calls(I)]
    ours = [syzygies(basis).gens for basis in calls]
    original = groebner._syzygies_termmaps
    monkeypatch.setattr(groebner, "_syzygies_termmaps", lambda *a: (original(*a)[0], False))
    assert ours == [syzygies(basis).gens for basis in calls]


def engine_callers(monkeypatch):
    """The name of the caller of each _engine call: "_syzygy_level" for a
    candidate loop, "_syzygies_termmaps" for the tracked engine."""
    callers = []
    original = groebner._engine

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(groebner, "_engine", spy)
    return callers


def own_reports(monkeypatch):
    """What _syzygies_termmaps reports on whether the inputs are a minimal
    Groebner basis, call by call."""
    reports = []
    original = groebner._syzygies_termmaps

    def spy(*args):
        out = original(*args)
        reports.append(out[1])
        return out

    monkeypatch.setattr(groebner, "_syzygies_termmaps", spy)
    return reports


def test_the_shortcut_fires_only_on_a_minimal_basis(monkeypatch):
    callers = engine_callers(monkeypatch)
    reports = own_reports(monkeypatch)

    def runs(gens):
        callers.clear()
        reports.clear()
        syz = syzygies(Ideal(gens[0].ring, gens))
        return len(syz.gens), callers.count("_syzygies_termmaps"), callers.count("_syzygy_level"), reports

    # (x, y) is its own reduced basis: neither the tracked engine nor the
    # candidate loop runs
    assert runs((XY.poly("x"), XY.poly("y"))) == (1, 0, 0, [True])
    # (x + y, y) is a minimal Groebner basis, not a reduced one ((x, y)
    # is): the tracked engine runs, the candidate loop does not
    assert runs((XY.poly("x + y"), XY.poly("y"))) == (1, 1, 0, [True])
    # xy - z^2 and x^2 - yz are structurally reduced, but their S-pair
    # leaves y^2 z - x z^2: not a Groebner basis, so both run
    _, engines, loops, minimal = runs((XYZ.poly("x*y - z^2"), XYZ.poly("x^2 - y*z")))
    assert (engines, loops, minimal) == (1, 1, [False])


def test_the_shortcut_does_not_fire_under_a_context(monkeypatch):
    callers = engine_callers(monkeypatch)
    reports = own_reports(monkeypatch)
    # the inputs x*y, x*z and the relation y*z are their own reduced basis,
    # but the candidates are reduced modulo the relation and cut to two
    # coordinates, which no theorem keeps a Groebner basis
    ctx = QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly("y*z"),)))
    syzygies(Ideal(XYZ, (XYZ.poly("x*y"), XYZ.poly("x*z"))), context=ctx)
    assert (callers.count("_syzygies_termmaps"), callers.count("_syzygy_level"), reports) == (0, 1, [True])


# ---------------------------------------------------------------------------
# the inputs tried as their own basis


def termmap_inputs(obj, context=None):
    """(inputs, codec, rank) that syzygies hands to _syzygies_termmaps."""
    if isinstance(obj, Ideal):
        order, rank = obj.ring.default_order, 1
    else:
        order, rank = obj.order, obj.rank
    codec = order.codec(obj.ring.n)
    inputs = [to_terms(g, codec) for g in obj.gens]
    if context is not None:
        inputs += groebner._relation_terms(context, rank, codec, order)
    return inputs, codec, rank


def structurally_reduced(gens):
    """Distinct leads, none dividing another lead or a tail term, read off
    the polynomials' own leads and exponents."""
    leads = [g.lm() for g in gens]
    return len(set(leads)) == len(leads) and not any(
        kernel.exp_divides(a, m) for g, lead in zip(gens, leads) for a in leads if a != lead for m in g.num
    )


def seeded_ideals(want, count=8):
    """count seeded ideals of Q[x,y,z] whose generators pass want."""
    out = []
    for seed in range(1000):
        rng = random.Random(seed)
        gens = [random_nonzero_poly(rng, XYZ, 2, 3) for _ in range(rng.randint(2, 3))]
        if len({g.lm() for g in gens}) == len(gens) and want(gens):
            out.append(Ideal(XYZ, gens))
            if len(out) == count:
                return out
    raise AssertionError("too few seeded ideals")


def not_a_basis(gens):
    """Structurally reduced, and their reduced basis has other leads."""
    return structurally_reduced(gens) and {g.lm() for g in Ideal(XYZ, gens).groebner()} != {
        g.lm() for g in gens
    }


def seeded_modules(count=8):
    """Seeded submodules of Q[x,y,z]^2 under pot and top, each generator
    with one or two nonzero entries."""
    out = []
    rng = random.Random(7)
    for k in range(count):
        order = XYZ.default_order.with_module_rule(("pot", "top")[k % 2])
        gens = []
        for _ in range(rng.randint(2, 3)):
            entries = [random_nonzero_poly(rng, XYZ, 2, 2), random_nonzero_poly(rng, XYZ, 2, 2)]
            if rng.random() < 0.5:
                entries[rng.randrange(2)] = XYZ.zero()
            gens.append(PolyVector(XYZ, entries))
        out.append((SubmoduleBasis(XYZ, 2, gens, order), None))
    return out


def seeded_contexts(count=8):
    """Seeded ideals of Q[x,y,z] over the quotient by one of three
    hypersurfaces."""
    out = []
    rng = random.Random(11)
    for k in range(count):
        ctx = QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly(("x*y", "x^2 - y*z", "z^2 + x")[k % 3]),)))
        gens = [random_nonzero_poly(rng, XYZ, 2, 3) for _ in range(rng.randint(1, 3))]
        out.append((Ideal(XYZ, gens), ctx))
    return out


TERMMAP_KINDS = {
    "reduced basis": [(I, None) for I in map(reduced_basis, range(40)) if len(I.gens) > 1][:8],
    "structurally reduced, not a basis": [(I, None) for I in seeded_ideals(not_a_basis)],
    "not reduced": [(I, None) for I in seeded_ideals(lambda gens: not structurally_reduced(gens))],
    "rank 2": seeded_modules(),
    "context": seeded_contexts(),
}


def assert_reference_maps(raw, minimal_pairs, ref):
    """The generator maps of _syzygies_termmaps against the frozen
    reference's: the same list, or, where only the minimal pairs are
    formed, the same list with some pairs left out."""
    if not minimal_pairs:
        assert raw == ref
        return
    rest = iter(ref)
    assert all(any(tm == other for other in rest) for tm in raw)


def assert_reference_level(obj, context=None):
    """The level keeps the generators that the frozen reference keeps:
    every candidate formed, each tested by the greedy rule."""
    args = level_args(obj, context)
    assert syzygy_level(*args)[0] == reference_level(*args)


@pytest.mark.parametrize("kind", sorted(TERMMAP_KINDS))
def test_termmaps_are_the_engine_first_reference_on_seeded_inputs(monkeypatch, kind):
    callers = engine_callers(monkeypatch)
    runs = []
    for obj, ctx in TERMMAP_KINDS[kind]:
        args = termmap_inputs(obj, ctx)
        before = len(callers)
        raw, minimal = groebner._syzygies_termmaps(*args, ctx is None)
        runs.append(len(callers) - before)
        assert_reference_maps(raw, minimal and ctx is None, reference_syzygies_termmaps(*args))
        assert_reference_level(obj, ctx)
    # the tracked engine runs exactly on the kinds made for it; the
    # modules and the contexts take either path
    assert set(runs) == {"reduced basis": {0}, "rank 2": {0, 1}, "context": {0, 1}}.get(kind, {1})


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_termmaps_are_the_engine_first_reference_on_the_families(family):
    for I in FAMILIES[family]:
        for basis in ambient_calls(I):
            args = termmap_inputs(basis)
            raw, minimal = groebner._syzygies_termmaps(*args, True)
            assert_reference_maps(raw, minimal, reference_syzygies_termmaps(*args))
            assert_reference_level(basis)


@pytest.mark.parametrize(
    "I",
    [koszul(["x^2 - y*z", "y^2 - z*w", "z^3"]), reduced_basis(3), SIGNED],
    ids=["koszul", "reduced", "signed"],
)
def test_a_corrupted_fast_path_remainder_falls_back_to_the_engine(monkeypatch, I):
    want = syzygies(I).gens
    armed = [True]
    real = kernel.reduce_terms

    def corrupted(f, divisors, codec, want_quotients, below=None):
        quots, rem, mult = real(f, divisors, codec, want_quotients, below)
        # the first S-polynomial of the fast path that reduces to zero
        if armed[0] and f and not rem and sys._getframe(1).f_code.co_name == "_pair_syzygies":
            armed[0] = False
            rem = dict(f)
        return quots, rem, mult

    callers = engine_callers(monkeypatch)
    assert syzygies(I).gens == want and "_syzygies_termmaps" not in callers
    monkeypatch.setattr(kernel, "reduce_terms", corrupted)
    assert syzygies(I).gens == want
    assert not armed[0] and callers.count("_syzygies_termmaps") == 1


# ---------------------------------------------------------------------------
# phi . phi = 0 on integer term maps


def reference_composes_to_zero(ring, context, A, B, rows, mid, cols):
    """The composition rule as it was before it ran on term maps, frozen:
    the Polynomial product, then each entry reduced modulo the context."""
    prod = mat_mul(ring, A, B, rows, mid, cols)
    return all(
        (e if context is None else context.reduce(e)).is_zero() for row in prod for e in row
    )


CONTEXTS = [None, "x*y", "x^2 - y*z", "z^2 + x"]


def context_of(text):
    return None if text is None else QuotientContext(XYZ, Ideal(XYZ, (XYZ.poly(text),)))


def scaled(rng, p):
    return p * Fraction(rng.choice([1, 1, 2, -3]), rng.choice([1, 2, 3, 5]))


def seeded_product(seed):
    """(context, A, B, rows, mid, cols): random entries with fractional
    coefficients, or B built from the Koszul syzygies of a row that every
    row of A is a multiple of, so that about half the products vanish."""
    rng = random.Random(seed)
    rows, mid, cols = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
    ctx = context_of(rng.choice(CONTEXTS))
    if rng.random() < 0.5 or mid < 2:
        A = [[scaled(rng, random_poly(rng, XYZ, 2, 3)) for _ in range(mid)] for _ in range(rows)]
        B = [[scaled(rng, random_poly(rng, XYZ, 2, 3)) for _ in range(cols)] for _ in range(mid)]
    else:
        r = [scaled(rng, random_poly(rng, XYZ, 2, 3)) for _ in range(mid)]
        A = [[scaled(rng, XYZ.one()) * e for e in r] for _ in range(rows)]
        B = [[XYZ.zero()] * cols for _ in range(mid)]
        for j in range(cols):
            i, k = rng.sample(range(mid), 2)
            c = scaled(rng, random_poly(rng, XYZ, 1, 2))
            B[i][j], B[k][j] = r[k] * c, -(r[i] * c)
    if ctx is not None:
        A = [[ctx.reduce(e) for e in row] for row in A]
        B = [[ctx.reduce(e) for e in row] for row in B]
    return ctx, tuple(map(tuple, A)), tuple(map(tuple, B)), rows, mid, cols


def verdicts(ctx, A, B, rows, mid, cols):
    return (
        product_vanishes(A, B, rows, mid, cols, ctx),
        reference_composes_to_zero(XYZ, ctx, A, B, rows, mid, cols),
    )


def test_product_vanishes_gives_the_frozen_verdict_on_seeded_matrices():
    seen = set()
    for seed in range(400):
        ours, ref = verdicts(*seeded_product(seed))
        assert ours == ref, seed
        seen.add(ours)
    assert seen == {True, False}


def matrix(rows):
    return tuple(tuple(XYZ.poly(e) for e in row) for row in rows)


@pytest.mark.parametrize(
    "A, B, shape",
    [
        # fractional entries: x/2 * y/3 - y/3 * x/2 = 0, and a near miss
        (matrix([["1/2*x", "1/3*y"]]), matrix([["1/3*y"], ["-1/2*x"]]), (1, 2, 1)),
        (matrix([["1/2*x", "1/3*y"]]), matrix([["1/3*y"], ["-1/3*x"]]), (1, 2, 1)),
        # zero-size shapes
        ((), (), (0, 0, 0)),
        (((),) * 2, (), (2, 0, 3)),
        (matrix([["x", "y"]]), matrix([[], []]), (1, 2, 0)),
        ((), matrix([["x"], ["y"]]), (0, 2, 1)),
        # only the last entry of the product is not zero
        (
            matrix([["x", "y", "0"], ["x", "y", "1/2"]]),
            matrix([["y", "y"], ["-x", "-x"], ["0", "2/3*z"]]),
            (2, 3, 2),
        ),
    ],
)
def test_product_vanishes_on_the_examples(A, B, shape):
    for ctx in (None, context_of("x*y")):
        ours, ref = verdicts(ctx, A, B, *shape)
        assert ours == ref


def test_a_product_that_vanishes_only_modulo_the_relations():
    ctx = context_of("x*y")
    A, B = matrix([["x", "z"]]), matrix([["y"], ["0"]])
    assert verdicts(None, A, B, 1, 2, 1) == (False, False)
    assert verdicts(ctx, A, B, 1, 2, 1) == (True, True)


def test_product_vanishes_builds_no_polynomial(monkeypatch):
    ctx = context_of("x*y")
    A, B = matrix([["x", "z"]]), matrix([["y"], ["0"]])
    product_vanishes(A, B, 1, 2, 1, ctx)  # caches the relations' divisors

    def refuse(*args, **kwargs):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(Polynomial, "from_kernel", staticmethod(refuse))
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    assert product_vanishes(A, B, 1, 2, 1, ctx)
    assert not product_vanishes(A, B, 1, 2, 1, None)

