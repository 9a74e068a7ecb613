"""Residue-current recipes on singular varieties.

The currents themselves are analytic objects; what this layer builds is
every algebraically determined ingredient of one -- the maximal lifting
of the prescribed annihilator, the two minimal resolutions, the
comparison morphism between them, the shape of the structure form, and
the annihilator membership oracle the main theorems reduce to.  Factors
of 2*pi*i ride along as integer exponents, never as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from residua.groebner import (
    Context,
    Ideal,
    InvariantError,
    ModuleLifter,
    QuotientContext,
    dimension,
    ideal_intersect,
    ideal_member,
    ideal_quotient,
    ideals_equal,
    lifted_ideal,
)
from residua.homalg import (
    ChainComplex,
    Matrix,
    determinant,
    fitting_loci,
    free_resolution,
    identity_matrix,
    mat_add,
    mat_columns,
    mat_is_zero,
    mat_mul,
    mat_sub,
    zero_matrix,
)
from residua.polyring import Polynomial, PolynomialRing, PolyVector


class LiftingError(ValueError):
    """A column could not be lifted through the target differential."""

    def __init__(self, level: int, message: str):
        super().__init__(message)
        self.level = level


# ---------------------------------------------------------------------------
# chain maps and homotopies


@dataclass(frozen=True)
class ChainMap:
    """a: (F, psi) -> (E, phi) with phi_k a_k = a_{k-1} psi_k at every level."""

    source: ChainComplex
    target: ChainComplex
    levels: tuple  # levels[k]: rank E_k x rank F_k, k = 0 .. length(F)

    def verify(self) -> bool:
        F, E = self.source, self.target
        ring = F.ring
        if len(self.levels) != F.length + 1:
            return False
        for k, M in enumerate(self.levels):
            if len(M) != E.rank(k) or any(len(row) != F.ranks[k] for row in M):
                return False
        for k in range(1, F.length + 1):
            if k <= E.length:
                left = mat_mul(
                    ring, E.diff(k), self.levels[k], E.rank(k - 1), E.rank(k), F.ranks[k]
                )
            else:
                left = zero_matrix(ring, E.rank(k - 1), F.ranks[k])
            right = mat_mul(
                ring, self.levels[k - 1], F.diff(k), E.rank(k - 1), F.ranks[k - 1], F.ranks[k]
            )
            if left != right:
                return False
        return True


@dataclass(frozen=True)
class Homotopy:
    """s with b_k - a_k = phi_{k+1} s_k + s_{k-1} psi_k (s_{-1} = 0)."""

    source: ChainComplex
    target: ChainComplex
    maps: tuple  # maps[k]: rank E_{k+1} x rank F_k, k = 0 .. length(F)

    def verify(self, a: ChainMap, b: ChainMap) -> bool:
        F, E = self.source, self.target
        ring = F.ring
        if a.source != F or b.source != F or a.target != E or b.target != E:
            return False
        for k in range(F.length + 1):
            total = zero_matrix(ring, E.rank(k), F.ranks[k])
            if k + 1 <= E.length:
                total = mat_add(
                    total,
                    mat_mul(
                        ring, E.diff(k + 1), self.maps[k], E.rank(k), E.rank(k + 1), F.ranks[k]
                    ),
                )
            if k >= 1:
                total = mat_add(
                    total,
                    mat_mul(
                        ring, self.maps[k - 1], F.diff(k), E.rank(k), F.ranks[k - 1], F.ranks[k]
                    ),
                )
            if total != mat_sub(b.levels[k], a.levels[k]):
                return False
        return True


@dataclass(frozen=True)
class HomotopyFailure:
    """Witness that no homotopy step exists at the given level: the residual
    matrix has a column outside the image of the next target differential."""

    level: int
    residual: Matrix


def comparison_morphism(F: ChainComplex, E: ChainComplex, order=None) -> ChainMap:
    """Chain map F -> E over the identity in degree zero.

    Exists whenever E is exact and the image ideal of F's first
    differential sits inside E's; each level is solved column by column
    through Groebner division, so the output is deterministic for a fixed
    order.  When F and E are the same complex the identity map is
    returned directly.
    """
    if F.ring != E.ring:
        raise ValueError("complexes must share one ring")
    if F.context is not None or E.context is not None:
        raise ValueError("comparison morphisms are built over the ambient ring")
    if not (F.complete and E.complete):
        raise ValueError("both complexes must be complete")
    if F.ranks[0] != E.ranks[0]:
        raise ValueError("degree-zero ranks must agree")
    ring = F.ring
    if F == E:
        return ChainMap(F, E, tuple(identity_matrix(ring, r) for r in F.ranks))
    order = order or ring.default_order
    levels = [identity_matrix(ring, F.ranks[0])]
    for k in range(1, F.length + 1):
        target = mat_mul(
            ring, levels[k - 1], F.diff(k), E.rank(k - 1), F.ranks[k - 1], F.ranks[k]
        )
        levels.append(_lift_columns(E, k, target, F.ranks[k], order))
    return ChainMap(F, E, tuple(levels))


def chain_homotopy(a: ChainMap, b: ChainMap, order=None):
    """Homotopy certifying a ~ b, or a HomotopyFailure witness.

    Solves phi_{k+1} s_k = (b_k - a_k) - s_{k-1} psi_k level by level;
    solvable whenever the target is exact and the degree-zero maps agree.
    """
    if a.source != b.source or a.target != b.target:
        raise ValueError("homotopy needs two maps between the same complexes")
    if a.levels[0] != b.levels[0]:
        raise ValueError("homotopy needs matching degree-zero maps")
    F, E = a.source, a.target
    ring = F.ring
    order = order or ring.default_order
    maps = []
    for k in range(F.length + 1):
        d = mat_sub(b.levels[k], a.levels[k])
        if k >= 1:
            d = mat_sub(
                d,
                mat_mul(ring, maps[k - 1], F.diff(k), E.rank(k), F.ranks[k - 1], F.ranks[k]),
            )
        try:
            maps.append(_lift_columns(E, k + 1, d, F.ranks[k], order))
        except LiftingError:
            return HomotopyFailure(k, d)
    return Homotopy(F, E, tuple(maps))


def _lift_columns(E: ChainComplex, k: int, M: Matrix, ncols: int, order) -> Matrix:
    """L with phi_k L = M for E's k-th differential phi_k, the zero map
    when k is past E's length.  A LiftingError at level k names the first
    column of M outside the image of phi_k."""
    ring = E.ring
    if k > E.length:
        if not mat_is_zero(M):
            raise LiftingError(
                k, f"level {k}: target complex ended but the composite map has not"
            )
        return zero_matrix(ring, 0, ncols)
    lifter = ModuleLifter(
        ring, E.rank(k - 1), mat_columns(ring, E.diff(k), E.rank(k - 1), E.rank(k)), order
    )
    cols = []
    for j in range(ncols):
        q = lifter.lift(PolyVector(ring, tuple(M[i][j] for i in range(E.rank(k - 1)))))
        if q is None:
            raise LiftingError(
                k,
                f"level {k}: column {j} is not in the image of the target "
                "differential (target not exact, or the degree-zero map "
                "does not extend)",
            )
        cols.append(q)
    return tuple(tuple(q[i] for q in cols) for i in range(E.rank(k)))


# ---------------------------------------------------------------------------
# liftings and regular sequences


def maximal_lifting(J: Ideal, Z: QuotientContext) -> Ideal:
    """Full preimage of J under O -> O_Z: the given representatives plus
    the relations of Z.  Largest ideal restricting to J."""
    if J.ring != Z.ring:
        raise ValueError("ideal and context live over different rings")
    return lifted_ideal(J, Z)


@dataclass(frozen=True)
class RegularSequenceReport:
    is_regular: bool
    failing_index: Optional[int]  # 1-based position of the first zerodivisor
    proper: bool


def regular_sequence_check(fs: Sequence[Polynomial], context: Context = None) -> RegularSequenceReport:
    """Each f_i a non-zerodivisor modulo I_Z + (f_1 .. f_{i-1}), and the
    whole tuple proper: tested by ideal quotients, (I : f_i) = I."""
    fs = list(fs)
    if not fs:
        raise ValueError("regular sequence check needs a nonempty tuple")
    ring = fs[0].ring
    base = list(context.relations.gens) if context is not None else []
    for i, f in enumerate(fs):
        prev = Ideal(ring, tuple(base + fs[:i]))
        if f.is_zero():
            return RegularSequenceReport(False, i + 1, True)
        if not ideals_equal(ideal_quotient(prev, f), prev):
            return RegularSequenceReport(False, i + 1, True)
    whole = Ideal(ring, tuple(base + fs))
    if ideal_member(ring.one(), whole):
        return RegularSequenceReport(False, None, False)
    return RegularSequenceReport(True, None, True)


# ---------------------------------------------------------------------------
# formal currents


@dataclass(frozen=True)
class FormalCurrent:
    """A current named by its algebraic data: the annihilator ideal (over an
    optional quotient context), the span of levels carrying components, and
    the symbolic power of 2*pi*i."""

    kind: str  # 'coleff_herrera' | 'aw_current' | 'poincare_residue'
    annihilator: Ideal
    context: Context
    degree_span: Tuple[int, int]
    twopi_exponent: int
    data: object = field(default=None, compare=False)

    def annihilates(self, g: Polynomial) -> bool:
        return ideal_member(g, self.annihilator, self.context)


def coleff_herrera(fs: Sequence[Polynomial], context: Context = None) -> FormalCurrent:
    """The canonical current of a complete intersection tuple; its
    annihilator is exactly the ideal the tuple generates (duality)."""
    fs = tuple(fs)
    rep = regular_sequence_check(fs, context)
    if not rep.is_regular:
        if rep.failing_index is not None:
            raise ValueError(
                f"not a regular sequence: position {rep.failing_index} is a zerodivisor"
            )
        raise ValueError("not a regular sequence: the tuple generates the unit ideal")
    p = len(fs)
    ring = fs[0].ring
    return FormalCurrent("coleff_herrera", Ideal(ring, fs), context, (p, p), 0, data=fs)


@dataclass(frozen=True)
class TransformationLawReport:
    is_transformation: bool
    det: Optional[Polynomial]
    invertible_at_origin: bool
    ideals_match: Optional[bool]  # None when not checked


def transformation_law_check(
    fs: Sequence[Polynomial], gs: Sequence[Polynomial], A: Matrix
) -> TransformationLawReport:
    """Checks f = g.A entrywise, computes det A, and -- when det A is
    invertible at the origin -- certifies that both tuples generate the
    same ideal, which is all the transformation law claims algebraically."""
    fs, gs = list(fs), list(gs)
    p = len(fs)
    if len(gs) != p or len(A) != p or any(len(row) != p for row in A):
        raise ValueError("need |f| = |g| = p and a p x p matrix")
    ring = fs[0].ring
    for j in range(p):
        acc = ring.zero()
        for i in range(p):
            acc = acc + gs[i] * A[i][j]
        if acc != fs[j]:
            return TransformationLawReport(False, None, False, None)
    det = determinant(ring, A, p)
    invertible = det.constant_term() != 0
    match = None
    if invertible:
        match = ideals_equal(Ideal(ring, tuple(fs)), Ideal(ring, tuple(gs)))
    return TransformationLawReport(True, det, invertible, match)


# ---------------------------------------------------------------------------
# Poincare residue


@dataclass(frozen=True)
class MeromorphicForm:
    """numerator/denominator * dz_{wedge}, times (2*pi*i)^twopi_exponent,
    on the hypersurface of the context."""

    context: QuotientContext
    wedge: tuple  # ordered variable names of the dz part
    numerator: Polynomial
    denominator: Polynomial
    twopi_exponent: int

    def __post_init__(self):
        if self.context.reduce(self.denominator).is_zero():
            raise ValueError("denominator vanishes on the hypersurface")

    def verify(self) -> bool:
        """The defining relation (dh/2pi*i) ^ form = dz, checked mod (h)."""
        ring = self.context.ring
        h = self.context.relations.gens[0]
        missing = [name for name in ring.names if name not in self.wedge]
        if len(missing) != 1:
            return False
        k = ring.names.index(missing[0]) + 1
        sign = 1 if (k - 1) % 2 == 0 else -1
        dh = h.differentiate(missing[0])
        return ideal_member(dh * self.numerator * sign - self.denominator, Ideal(ring, (h,)))


def poincare_residue(h: Polynomial, distinguished: str) -> MeromorphicForm:
    """The form determined by (dh / 2*pi*i) ^ form = dz on V(h).

    If the distinguished variable is the k-th of n, the form is
    2*pi*i * (-1)^(k-1) * dz-without-dz_k / (dh/dz_k); the sign lives in
    the numerator and the denominator is normalized to a positive leading
    coefficient.
    """
    ring = h.ring
    if distinguished not in ring.names:
        raise ValueError(f"unknown variable {distinguished!r}")
    dh = h.differentiate(distinguished)
    ctx = QuotientContext(ring, Ideal(ring, (h,)))
    if ctx.reduce(dh).is_zero():
        raise ValueError(
            f"derivative of the defining function in {distinguished!r} vanishes "
            "on the hypersurface"
        )
    k = ring.names.index(distinguished) + 1
    sign = 1 if (k - 1) % 2 == 0 else -1
    lead = dh.lc()
    flip = 1 if lead > 0 else -1
    wedge = tuple(name for name in ring.names if name != distinguished)
    return MeromorphicForm(ctx, wedge, ring.const(sign * flip), dh * flip, 1)


# ---------------------------------------------------------------------------
# structure-form shapes


@dataclass(frozen=True)
class ShapeComponent:
    index: int
    bidegree: Tuple[int, int]  # (d, r) in the pure case, (0, e) otherwise
    level: int  # bundle level: p + r, respectively n - e
    support: Optional[tuple] = None  # dims f >= e carrying the component


@dataclass(frozen=True)
class PairBound:
    e: int
    e_prime: int
    codim: object
    required: int
    ok: bool


@dataclass(frozen=True)
class StructureFormShape:
    pure: bool
    d: int
    p: int
    components: tuple
    pair_bounds: tuple = ()


def structure_form_shape(
    Z: QuotientContext, decomposition=None, cap: int = 16
) -> StructureFormShape:
    """Bidegrees and bundle levels of the generalized residue form of Z.

    Pure case: one component of bidegree (d, r) in level p+r for each
    r up to length(F) - p.  A non-pure Z needs a user-supplied
    decomposition [(ideal, dim), ...]; it is validated (containment,
    intersection, dimensions) and the component of bidimension (0, e)
    lands in level n - e, supported on the union of the parts of
    dimension at least e.  For each pair e > e', the intersection bound
    codim(W^e + Z_{n-e'}) >= n - e' + 1 is reported where computable.
    """
    ring = Z.ring
    n = ring.n
    I_Z = Z.relations
    d, p = dimension(I_Z)
    if d < 0:
        raise ValueError("the context relations generate the unit ideal")
    F = free_resolution(I_Z, cap=cap, minimal=True)
    if not F.complete:
        raise ValueError("resolution of the relations did not terminate within the cap")
    if decomposition is None:
        return _pure_shape(d, p, F)

    parts = [(Ideal(ring, tuple(W.gens)), int(e)) for W, e in decomposition]
    if not parts:
        raise ValueError("empty decomposition")
    for W, e in parts:
        for g in I_Z.gens:
            if not ideal_member(g, W):
                raise ValueError(f"component of declared dimension {e} does not contain the relations")
        if dimension(W)[0] != e:
            raise ValueError(
                f"component declared dimension {e} but has dimension {dimension(W)[0]}"
            )
    meet = parts[0][0]
    for W, _ in parts[1:]:
        meet = ideal_intersect(meet, W)
    if not ideals_equal(meet, I_Z):
        raise ValueError("decomposition does not intersect to the relations ideal")

    parts.sort(key=lambda we: we[1], reverse=True)
    dims = [e for _, e in parts]
    if len(set(dims)) == 1 and dims[0] == d:
        return _pure_shape(d, p, F)

    comps = tuple(
        ShapeComponent(e, (0, e), n - e, tuple(f for f in dims if f >= e)) for _, e in parts
    )
    loci = fitting_loci(F)[1]
    bounds = []
    for W, e in parts:
        for _, ep in parts:
            if e <= ep:
                continue
            level = n - ep
            if not (1 <= level <= F.length):
                continue
            S = Ideal(ring, W.gens + loci[level - 1].gens)
            cd = dimension(S)[1]
            bounds.append(PairBound(e, ep, cd, level + 1, cd >= level + 1))
    return StructureFormShape(False, d, p, comps, tuple(bounds))


def _pure_shape(d: int, p: int, F: ChainComplex) -> StructureFormShape:
    """The pure case: bidegree (d, r) in level p + r for r = 0 .. length(F) - p."""
    comps = tuple(ShapeComponent(r, (d, r), p + r) for r in range(0, F.length - p + 1))
    return StructureFormShape(True, d, p, comps)


# ---------------------------------------------------------------------------
# the recipe


@dataclass(frozen=True)
class CurrentRecipe:
    """Everything algebraic about the current with prescribed annihilator J
    on Z: the maximal lifting, both minimal resolutions, the comparison
    morphism between them, the structure-form shape, and the current
    descriptor whose oracle the acceptance theorems reduce to."""

    context: QuotientContext
    J: Ideal
    lifted: Ideal
    E: ChainComplex
    F: ChainComplex
    a: ChainMap
    shape: StructureFormShape
    current: FormalCurrent
    z_cohen_macaulay: bool
    j_cohen_macaulay: bool


def build_current_recipe(Z: QuotientContext, J: Ideal, cap: int = 16) -> CurrentRecipe:
    ring = Z.ring
    if J.ring != ring:
        raise ValueError("ideal and context live over different rings")
    lifted = maximal_lifting(J, Z)
    if ideal_member(ring.one(), lifted):
        raise ValueError("the prescribed annihilator is not proper over the context")
    E = free_resolution(lifted, cap=cap, minimal=True)
    F = free_resolution(Z.relations, cap=cap, minimal=True)
    if not (E.complete and F.complete):
        raise ValueError("a resolution did not terminate within the cap")
    a = comparison_morphism(F, E)
    # the shape is read off this F, not resolved again by
    # structure_form_shape, whose errors cannot fire here: a unit I_Z makes
    # lifted the unit ideal, and F is complete
    d_z, codim_z = dimension(Z.relations)
    shape = _pure_shape(d_z, codim_z, F)
    _, codim_j = dimension(lifted)
    current = FormalCurrent("aw_current", J, Z, (codim_j, E.length), 0, data=E)
    return CurrentRecipe(
        Z,
        J,
        lifted,
        E,
        F,
        a,
        shape,
        current,
        F.length == codim_z,
        E.length == codim_j,
    )


def annihilator_member(recipe: CurrentRecipe, g: Polynomial) -> bool:
    """Does g annihilate the current?  Decided twice -- membership in the
    maximal lifting over the ambient ring, and membership in J over the
    quotient -- and the two answers must agree."""
    ambient = ideal_member(g, recipe.lifted)
    quotient = ideal_member(recipe.context.reduce(g), recipe.J, recipe.context)
    if ambient != quotient:
        raise InvariantError(
            "annihilator oracle mismatch between the ambient and quotient routes"
        )
    return ambient
