import random

import pytest

from residua import residues
from residua.groebner import Ideal, QuotientContext, ideal_member, ideals_equal, normal_form
from residua.homalg import free_resolution, koszul_complex, matrices_equal_canonically
from residua.polyring import PolynomialRing
from residua.residues import (
    ChainMap,
    FormalCurrent,
    Homotopy,
    HomotopyFailure,
    LiftingError,
    MeromorphicForm,
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

from conftest import random_poly

ZW = PolynomialRing(("z", "w"))
XY = PolynomialRing(("x", "y"))
XYZ = PolynomialRing(("x", "y", "z"))


def P(ring, s):
    return ring.poly(s)


def cusp_context():
    return QuotientContext(ZW, Ideal(ZW, (P(ZW, "z^3 - w^2"),)))


# ---------------------------------------------------------------------------
# maximal lifting


def test_maximal_lifting_of_the_maximal_ideal_on_the_cusp():
    Z = cusp_context()
    J = Ideal(ZW, (P(ZW, "z"), P(ZW, "w")))
    lifted = maximal_lifting(J, Z)
    assert lifted.gens == (P(ZW, "z"), P(ZW, "w"), P(ZW, "z^3 - w^2"))
    assert ideals_equal(lifted, J)  # the relation already lies inside


def test_maximal_lifting_of_zero_is_the_relations_ideal():
    Z = cusp_context()
    lifted = maximal_lifting(Ideal(ZW, ()), Z)
    assert ideals_equal(lifted, Z.relations)


def test_maximal_lifting_is_maximal_on_random_members():
    rng = random.Random(7)
    Z = cusp_context()
    J = Ideal(ZW, (P(ZW, "z"), P(ZW, "w")))
    lifted = maximal_lifting(J, Z)
    h = P(ZW, "z^3 - w^2")
    for _ in range(20):
        g = ZW.zero()
        for j in J.gens:
            g = g + random_poly(rng, ZW, max_deg=2, max_terms=3) * j
        g = g + random_poly(rng, ZW, max_deg=1, max_terms=2) * h
        assert ideal_member(g, lifted)
    for _ in range(5):
        g = ZW.one() + random_poly(rng, ZW, max_deg=2, max_terms=2) * h
        assert not ideal_member(g, lifted)


# ---------------------------------------------------------------------------
# comparison morphisms


def test_comparison_morphism_reproduces_the_cusp_lifting():
    F = free_resolution(Ideal(ZW, (P(ZW, "z^3 - w^2"),)))
    E = free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))))
    a = comparison_morphism(F, E)
    assert a.verify()
    assert a.levels[0] == ((ZW.one(),),)
    assert a.levels[1] == ((P(ZW, "z^2"),), (P(ZW, "-w"),))


def test_comparison_morphism_identity_when_complexes_coincide():
    E = free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))))
    a = comparison_morphism(E, E)
    assert a.verify()
    assert a.levels[1] == ((ZW.one(), ZW.zero()), (ZW.zero(), ZW.one()))


def test_comparison_morphism_power_into_smaller_power():
    R = XY
    F = free_resolution(Ideal(R, (P(R, "x^2"),)))
    E = free_resolution(Ideal(R, (P(R, "x"),)))
    a = comparison_morphism(F, E)
    assert a.verify()
    assert a.levels[1] == ((P(R, "x"),),)


def test_comparison_morphism_fails_without_containment():
    F = free_resolution(Ideal(XY, (P(XY, "x"),)))
    E = free_resolution(Ideal(XY, (P(XY, "x^2"),)))
    with pytest.raises(LiftingError):
        comparison_morphism(F, E)  # x is not a member of (x^2)


def test_comparison_morphism_past_the_target_length_is_zero():
    F = free_resolution(Ideal(XY, (P(XY, "x^2"), P(XY, "x*y"))))
    E = free_resolution(Ideal(XY, (P(XY, "x"),)))
    assert (F.length, E.length) == (2, 1)
    a = comparison_morphism(F, E)
    assert a.levels[2] == ()
    assert a.verify()


def test_comparison_morphism_into_a_truncation_fails_past_its_length():
    F = free_resolution(Ideal(XY, (P(XY, "x"), P(XY, "y"))))
    E = type(F)(XY, F.ranks[:2], F.diffs[:1])  # drop the syzygy level
    with pytest.raises(LiftingError) as failure:
        comparison_morphism(F, E)
    assert failure.value.level == 2
    assert str(failure.value) == "level 2: target complex ended but the composite map has not"


def test_comparison_morphisms_under_different_orders_are_homotopic():
    from residua.polyring import order_by_name

    # grevlex ranks y^2 above x, lex the other way round, so the lift of
    # x*y^2 lands on different generators -- but the two maps are homotopic
    F = free_resolution(Ideal(XY, (P(XY, "x*y^2"),)))
    E = free_resolution(Ideal(XY, (P(XY, "x"), P(XY, "y^2"))))
    a = comparison_morphism(F, E)
    b = comparison_morphism(F, E, order=order_by_name("lex"))
    assert a.verify() and b.verify()
    assert a.levels[1] == ((XY.zero(),), (P(XY, "x"),))
    assert b.levels[1] == ((P(XY, "y^2"),), (XY.zero(),))
    s = chain_homotopy(a, b)
    assert isinstance(s, Homotopy)
    assert s.verify(a, b)


def test_verify_rejects_wrong_chain_maps_and_homotopies():
    from residua.polyring import order_by_name

    F = free_resolution(Ideal(XY, (P(XY, "x*y^2"),)))
    E = free_resolution(Ideal(XY, (P(XY, "x"), P(XY, "y^2"))))
    a = comparison_morphism(F, E)
    b = comparison_morphism(F, E, order=order_by_name("lex"))
    s = chain_homotopy(a, b)
    assert a.verify() and b.verify() and s.verify(a, b)
    a0, a1 = a.levels
    one = XY.one()
    perturbed = ((a1[0][0] + one,), a1[1])
    assert not ChainMap(F, E, (a0, perturbed)).verify()
    assert not ChainMap(F, E, (a0, a1[:1])).verify()  # one row short
    assert not ChainMap(F, E, (a0, tuple(row + (one,) for row in a1))).verify()
    assert not ChainMap(F, E, (a0,)).verify()
    assert not ChainMap(F, E, (a0, a1, ())).verify()
    s0, s1 = s.maps
    assert not Homotopy(F, E, (s0, ((s1[0][0] + one,),))).verify(a, b)
    assert not Homotopy(F, E, (((s0[0][0] + one,), s0[1]), s1)).verify(a, b)
    # maps between other complexes: F -> F and E -> E
    for c in (comparison_morphism(F, F), comparison_morphism(E, E)):
        assert c.verify()
        assert not s.verify(c, c) and not s.verify(a, c) and not s.verify(c, b)
    # misshapen homotopy maps and chain maps read False instead of raising
    # or of comparing truncated matrices
    assert not Homotopy(F, E, s.maps[:1]).verify(a, b)
    assert not Homotopy(F, E, (*s.maps, s1)).verify(a, b)
    assert not Homotopy(F, E, (s0[:1], s1)).verify(a, b)  # one row short
    assert not Homotopy(F, E, (s0, tuple(row + (one,) for row in s1))).verify(a, b)
    b0, b1 = b.levels
    assert not s.verify(a, ChainMap(F, E, (b0,)))
    assert not s.verify(ChainMap(F, E, (a0, a1, ())), b)
    assert not s.verify(a, ChainMap(F, E, (b0, b1 + ((one,),))))  # an extra row
    assert not s.verify(a, ChainMap(F, E, (b0, tuple(row + (one,) for row in b1))))


# ---------------------------------------------------------------------------
# homotopies


def test_zero_homotopy_between_equal_maps():
    F = free_resolution(Ideal(ZW, (P(ZW, "z^3 - w^2"),)))
    E = free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))))
    a = comparison_morphism(F, E)
    s = chain_homotopy(a, a)
    assert isinstance(s, Homotopy)
    assert s.verify(a, a)
    assert all(e.is_zero() for M in s.maps for row in M for e in row)


def test_homotopy_recovers_a_constructed_perturbation():
    F = free_resolution(Ideal(ZW, (P(ZW, "z^3 - w^2"),)))
    E = free_resolution(Ideal(ZW, (P(ZW, "z"), P(ZW, "w"))))
    a = comparison_morphism(F, E)
    c = P(ZW, "z*w - 3")
    phi2 = E.diffs[1]
    b_level1 = tuple((a.levels[1][i][0] + phi2[i][0] * c,) for i in range(2))
    b = ChainMap(F, E, (a.levels[0], b_level1))
    assert b.verify()
    s = chain_homotopy(a, b)
    assert isinstance(s, Homotopy)
    assert s.verify(a, b)
    assert s.maps[1] == ((c,),)


def test_homotopy_failure_witness_on_inexact_target():
    E = free_resolution(Ideal(XY, (P(XY, "x"), P(XY, "y"))))
    E_trunc = type(E)(XY, E.ranks[:2], E.diffs[:1])  # drop the syzygy level
    F = free_resolution(Ideal(XY, (P(XY, "x*y"),)))
    a = ChainMap(F, E_trunc, (((XY.one(),),), ((P(XY, "y"),), (XY.zero(),))))
    b = ChainMap(F, E_trunc, (((XY.one(),),), ((XY.zero(),), (P(XY, "x"),))))
    assert a.verify() and b.verify()
    s = chain_homotopy(a, b)
    assert isinstance(s, HomotopyFailure)
    assert s.level == 1
    assert s.residual == ((P(XY, "-y"),), (P(XY, "x"),))


# ---------------------------------------------------------------------------
# regular sequences and the complete-intersection current


def test_regular_sequence_examples():
    assert regular_sequence_check((P(ZW, "z"), P(ZW, "w"))).is_regular
    rep = regular_sequence_check((P(XY, "x"), P(XY, "x")))
    assert not rep.is_regular and rep.failing_index == 2
    ctx = QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),)))
    assert regular_sequence_check((P(XY, "x + y"),), context=ctx).is_regular
    rep = regular_sequence_check((P(XY, "x"),), context=ctx)
    assert not rep.is_regular and rep.failing_index == 1


def test_regular_sequence_rejects_zero_and_improper():
    rep = regular_sequence_check((P(XY, "x"), XY.zero()))
    assert not rep.is_regular and rep.failing_index == 2
    rep = regular_sequence_check((P(XY, "x"), P(XY, "x - 1")))
    assert not rep.is_regular and rep.failing_index is None and not rep.proper


def test_coleff_herrera_current_fields_and_oracle():
    mu = coleff_herrera((P(ZW, "z"), P(ZW, "w")))
    assert mu.kind == "coleff_herrera"
    assert mu.degree_span == (2, 2)
    assert mu.twopi_exponent == 0
    assert mu.annihilates(P(ZW, "z^3 - w^2"))
    assert not mu.annihilates(ZW.one())
    principal = coleff_herrera((P(ZW, "z^3 - w^2"),))
    assert principal.degree_span == (1, 1)
    with pytest.raises(ValueError):
        coleff_herrera((P(XY, "x"), P(XY, "x")))


# ---------------------------------------------------------------------------
# transformation law


def test_transformation_law_examples():
    f = (P(ZW, "z"), P(ZW, "w"))
    g = (P(ZW, "z + w"), P(ZW, "w"))
    A = ((ZW.one(), ZW.zero()), (ZW.const(-1), ZW.one()))
    rep = transformation_law_check(f, g, A)
    assert rep.is_transformation and rep.det == ZW.one()
    assert rep.invertible_at_origin and rep.ideals_match

    ident = ((ZW.one(), ZW.zero()), (ZW.zero(), ZW.one()))
    rep = transformation_law_check(f, f, ident)
    assert rep.is_transformation and rep.det == ZW.one() and rep.ideals_match

    f2 = (P(ZW, "z^2"), P(ZW, "w"))
    A2 = ((P(ZW, "z"), ZW.zero()), (ZW.zero(), ZW.one()))
    rep = transformation_law_check(f2, f, A2)
    assert rep.is_transformation and rep.det == P(ZW, "z")
    assert not rep.invertible_at_origin and rep.ideals_match is None

    rep = transformation_law_check(f2, f, ident)
    assert not rep.is_transformation


def test_transformation_law_refuses_an_empty_tuple():
    with pytest.raises(ValueError, match="nonempty tuple"):
        transformation_law_check([], [], ())


def test_transformation_law_oracles_decide_identically():
    rng = random.Random(19)
    f = (P(ZW, "z"), P(ZW, "w"))
    g = (P(ZW, "z + w"), P(ZW, "w"))
    mu_f = coleff_herrera(f)
    mu_g = coleff_herrera(g)
    for _ in range(40):
        q = random_poly(rng, ZW, max_deg=3, max_terms=4)
        assert mu_f.annihilates(q) == mu_g.annihilates(q)


# ---------------------------------------------------------------------------
# Poincare residue


def test_poincare_residue_of_the_cusp():
    form = poincare_residue(P(ZW, "z^3 - w^2"), "w")
    assert form.numerator == ZW.one()
    assert form.denominator == P(ZW, "2*w")
    assert form.twopi_exponent == 1
    assert form.wedge == ("z",)
    assert form.verify()


def test_poincare_residue_of_a_smooth_coordinate_hypersurface():
    form = poincare_residue(P(ZW, "w"), "w")
    assert form.numerator == ZW.const(-1)
    assert form.denominator == ZW.one()
    assert form.wedge == ("z",)
    assert form.verify()


def test_poincare_residue_first_position_gets_positive_sign():
    form = poincare_residue(P(ZW, "z^3 - w^2"), "z")
    assert form.numerator == ZW.one()
    assert form.denominator == P(ZW, "3*z^2")
    assert form.wedge == ("w",)
    assert form.verify()


def test_poincare_residue_rejects_vanishing_derivative():
    with pytest.raises(ValueError):
        poincare_residue(P(XY, "y^2"), "x")


def test_poincare_residue_wedge_relation_randomized():
    rng = random.Random(41)
    count = 0
    while count < 30:
        h = random_poly(rng, XYZ, max_deg=3, max_terms=4)
        name = rng.choice(XYZ.names)
        dh = h.differentiate(name)
        if h.is_zero() or dh.is_zero():
            continue
        ctx = QuotientContext(XYZ, Ideal(XYZ, (h,)))
        if ctx.reduce(dh).is_zero() or ctx.reduce(XYZ.one()).is_zero():
            continue
        form = poincare_residue(h, name)
        assert form.verify()
        count += 1


# ---------------------------------------------------------------------------
# structure-form shapes


def test_structure_form_shape_pure_cusp():
    shape = structure_form_shape(cusp_context())
    assert shape.pure and shape.d == 1 and shape.p == 1
    assert len(shape.components) == 1
    comp = shape.components[0]
    assert comp.index == 0 and comp.bidegree == (1, 0) and comp.level == 1


def test_structure_form_shape_smooth_hypersurface():
    Z = QuotientContext(ZW, Ideal(ZW, (P(ZW, "w"),)))
    shape = structure_form_shape(Z)
    assert shape.pure and shape.components[0].bidegree == (1, 0)


def test_structure_form_shape_nonpure_two_lines_and_plane():
    Z = QuotientContext(XYZ, Ideal(XYZ, (P(XYZ, "x*z"), P(XYZ, "y*z"))))
    decomposition = [
        (Ideal(XYZ, (P(XYZ, "z"),)), 2),
        (Ideal(XYZ, (P(XYZ, "x"), P(XYZ, "y"))), 1),
    ]
    shape = structure_form_shape(Z, decomposition)
    assert not shape.pure
    assert [c.index for c in shape.components] == [2, 1]
    assert shape.components[0].bidegree == (0, 2)
    assert shape.components[0].level == 1
    assert shape.components[0].support == (2,)
    assert shape.components[1].bidegree == (0, 1)
    assert shape.components[1].level == 2
    assert shape.components[1].support == (2, 1)
    assert len(shape.pair_bounds) == 1
    bound = shape.pair_bounds[0]
    assert bound.e == 2 and bound.e_prime == 1
    assert bound.codim == 3 and bound.required == 3 and bound.ok


def test_structure_form_shape_rejects_bad_decompositions():
    Z = QuotientContext(XYZ, Ideal(XYZ, (P(XYZ, "x*z"), P(XYZ, "y*z"))))
    with pytest.raises(ValueError):
        structure_form_shape(Z, [(Ideal(XYZ, (P(XYZ, "z"),)), 2)])  # intersection too big
    with pytest.raises(ValueError):
        structure_form_shape(
            Z,
            [
                (Ideal(XYZ, (P(XYZ, "z"),)), 1),  # wrong declared dimension
                (Ideal(XYZ, (P(XYZ, "x"), P(XYZ, "y"))), 1),
            ],
        )
    with pytest.raises(ValueError):
        structure_form_shape(
            Z,
            [
                (Ideal(XYZ, (P(XYZ, "x"),)), 2),  # does not contain y*z
                (Ideal(XYZ, (P(XYZ, "x"), P(XYZ, "y"))), 1),
            ],
        )


# ---------------------------------------------------------------------------
# the recipe


def test_cusp_recipe_end_to_end():
    Z = cusp_context()
    J = Ideal(ZW, (P(ZW, "z"), P(ZW, "w")))
    recipe = build_current_recipe(Z, J)
    assert ideals_equal(recipe.lifted, J)
    assert recipe.E.ranks == (1, 2, 1)
    K = koszul_complex((P(ZW, "z"), P(ZW, "w")))
    assert matrices_equal_canonically(ZW, recipe.E.diffs[0], K.diffs[0], 1, 2, 1, 2)
    assert matrices_equal_canonically(ZW, recipe.E.diffs[1], K.diffs[1], 2, 1, 2, 1)
    assert recipe.F.ranks == (1, 1)
    assert recipe.a.verify()
    assert recipe.a.levels[1] == ((P(ZW, "z^2"),), (P(ZW, "-w"),))
    assert recipe.current.kind == "aw_current"
    assert recipe.current.degree_span == (2, 2)
    assert recipe.current.twopi_exponent == 0
    assert recipe.z_cohen_macaulay and recipe.j_cohen_macaulay
    assert annihilator_member(recipe, P(ZW, "z"))
    assert annihilator_member(recipe, P(ZW, "w"))
    assert annihilator_member(recipe, P(ZW, "z^3 - w^2"))
    assert not annihilator_member(recipe, ZW.one())


def test_recipe_zero_ideal_degenerates_to_identity():
    Z = cusp_context()
    recipe = build_current_recipe(Z, Ideal(ZW, ()))
    assert ideals_equal(recipe.lifted, Z.relations)
    assert recipe.E == recipe.F
    assert recipe.a.levels == (((ZW.one(),),), ((ZW.one(),),))
    assert not annihilator_member(recipe, P(ZW, "z"))
    assert annihilator_member(recipe, P(ZW, "z^3 - w^2"))


@pytest.mark.parametrize(
    "Z, J",
    [
        (cusp_context(), Ideal(ZW, (P(ZW, "z"), P(ZW, "w")))),
        (QuotientContext(XY, Ideal(XY, (P(XY, "x*y"),))), Ideal(XY, (P(XY, "x"), P(XY, "y")))),
    ],
    ids=["cusp", "two_lines"],
)
def test_recipe_resolves_each_ideal_once_and_keeps_the_shape(monkeypatch, Z, J):
    cap = 8
    calls = []
    original = residues.free_resolution

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(residues, "free_resolution", spy)
    recipe = build_current_recipe(Z, J, cap=cap)
    assert len(calls) == 2
    monkeypatch.undo()
    assert recipe.shape == structure_form_shape(Z, cap=cap)


def test_recipe_resolution_ends_at_its_last_nonzero_module():
    # on the node zw = 0, J = (z, zw) lifts to (z): E is z alone
    Z = QuotientContext(ZW, Ideal(ZW, (P(ZW, "z*w"),)))
    recipe = build_current_recipe(Z, Ideal(ZW, (P(ZW, "z"), P(ZW, "z*w"))))
    assert recipe.E.ranks == (1, 1)
    assert recipe.current.degree_span == (1, 1)
    assert recipe.j_cohen_macaulay and recipe.z_cohen_macaulay


def test_recipe_refuses_improper_annihilator():
    Z = cusp_context()
    with pytest.raises(ValueError):
        build_current_recipe(Z, Ideal(ZW, (ZW.one(),)))


def test_recipe_on_a_hypersurface_matches_membership_mod_h():
    rng = random.Random(3)
    h = P(XY, "x*y - 1")
    Z = QuotientContext(XY, Ideal(XY, (h,)))
    f = P(XY, "x + y")
    recipe = build_current_recipe(Z, Ideal(XY, (f,)))
    for _ in range(30):
        q = random_poly(rng, XY, max_deg=2, max_terms=3)
        r = random_poly(rng, XY, max_deg=2, max_terms=3)
        member = q * f + r * h
        assert annihilator_member(recipe, member)
    assert not annihilator_member(recipe, XY.one())


def test_recipe_oracle_agrees_with_coleff_herrera():
    rng = random.Random(77)
    h = P(ZW, "z^3 - w^2")
    Z = QuotientContext(ZW, Ideal(ZW, (h,)))
    f = (P(ZW, "z + w"),)
    assert regular_sequence_check(f, context=Z).is_regular
    mu = coleff_herrera(f, context=Z)
    recipe = build_current_recipe(Z, Ideal(ZW, f))
    for _ in range(60):
        g = random_poly(rng, ZW, max_deg=3, max_terms=4)
        assert mu.annihilates(g) == annihilator_member(recipe, g)
