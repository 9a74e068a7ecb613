"""Ambient resolutions run to their end, and the answers read off them
are projective dimensions, not the lengths of the computed complexes.

homalg.ambient_resolution resolves an ideal minimally over the ambient
ring with its own cap and reads the projective dimension pd off the
Fitting ideals of the resolution.  With inhomogeneous generators the
complex can be longer than pd, so cm-check, the pure shape and the
recipe's degree span and Cohen-Macaulay flags must read pd: the
generators (g*a, g - g*a) of the ideal (g) must give the answers of g.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_nonzero_poly
from residua import homalg
from residua.groebner import Ideal, InvariantError, QuotientContext
from residua.homalg import ambient_resolution, cohen_macaulay_check
from residua.polyring import Polynomial, PolynomialRing
from residua.residues import build_current_recipe, structure_form_shape

XY = PolynomialRing(("x", "y"))
XYZ = PolynomialRing(("x", "y", "z"))
ZW = PolynomialRing(("z", "w"))


def ideal(ring, *gens):
    return Ideal(ring, tuple(ring.poly(g) for g in gens))


def rewritten(gens, a):
    """(g*a, g - g*a) for each g: the same ideal, written inhomogeneously
    when a is not a constant."""
    return tuple(p for g in gens for p in (g * a, g - g * a))


def homogeneous(rng, ring, degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.n
        for _ in range(degree):
            e[rng.randrange(ring.n)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(ring, terms)


def recipe_answers(recipe):
    """What a recipe reads off the projective dimensions."""
    return recipe.current.degree_span, recipe.z_cohen_macaulay, recipe.j_cohen_macaulay, recipe.shape


def test_cm_check_of_a_rewritten_ideal_is_that_of_the_ideal():
    # (x*y, x - x*y) is (x); its minimal resolution has 3 modules
    F, pd = ambient_resolution(ideal(XY, "x*y", "x - x*y"))
    assert F.length == 2 and pd == 1
    report = cohen_macaulay_check(ideal(XY, "x*y", "x - x*y"))
    assert report == cohen_macaulay_check(ideal(XY, "x"))
    assert report.is_cm and report.resolution_length == 1


def test_shape_of_a_rewritten_quotient_is_that_of_the_quotient():
    shape = structure_form_shape(QuotientContext(XY, ideal(XY, "x*y", "x - x*y")))
    assert shape == structure_form_shape(QuotientContext(XY, ideal(XY, "x")))
    assert [c.level for c in shape.components] == [1]


def test_cusp_recipe_of_a_rewritten_ideal_is_that_of_the_ideal():
    # both lift to (z, w^2); the last map of the first E is (w - 1, w,
    # 1 - z^3)^T, which has no constant entry but generates the unit ideal
    Z = QuotientContext(ZW, ideal(ZW, "z^3 - w^2"))
    rewritten_recipe = build_current_recipe(Z, ideal(ZW, "z*w", "z - z*w"))
    recipe = build_current_recipe(Z, ideal(ZW, "z"))
    assert rewritten_recipe.E.ranks == (1, 3, 3, 1) and recipe.E.ranks == (1, 2, 1)
    assert recipe_answers(rewritten_recipe) == recipe_answers(recipe)
    assert rewritten_recipe.current.degree_span == (2, 2)
    assert rewritten_recipe.j_cohen_macaulay and rewritten_recipe.z_cohen_macaulay


def test_answers_do_not_depend_on_how_the_ideal_is_written():
    rng = random.Random(34)
    longer = 0
    for trial in range(24):
        R = (XY, XYZ)[trial % 2]
        B = tuple(homogeneous(rng, R, rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
        a = random_nonzero_poly(rng, R, max_deg=1, max_terms=2)
        C = rewritten(B, a)
        F, pd = ambient_resolution(Ideal(R, C))
        longer += F.length > pd
        # a homogeneous ideal's minimal resolution is as long as its pd
        G, pd_b = ambient_resolution(Ideal(R, B))
        assert G.length == pd_b == pd
        assert cohen_macaulay_check(Ideal(R, C)) == cohen_macaulay_check(Ideal(R, B))
        Z_B, Z_C = (QuotientContext(R, Ideal(R, gens)) for gens in (B, C))
        assert structure_form_shape(Z_C) == structure_form_shape(Z_B)
        # a recipe on a homogeneous Z, with J written both ways
        Z = QuotientContext(R, Ideal(R, (homogeneous(rng, R, 2),)))
        assert recipe_answers(build_current_recipe(Z, Ideal(R, C))) == recipe_answers(
            build_current_recipe(Z, Ideal(R, B))
        )
    # the sample holds complexes longer than their pd, so the test bites
    assert longer >= 3


@pytest.mark.parametrize("R", [XY, XYZ], ids=["two", "three"])
def test_ambient_resolution_finishes_every_sampled_ideal_within_pd_n(R):
    rng = random.Random(7 + R.n)
    for _ in range(40):
        gens = tuple(random_nonzero_poly(rng, R, max_deg=3, max_terms=4) for _ in range(rng.randint(1, 3)))
        F, pd = ambient_resolution(Ideal(R, gens))
        assert F.complete and 0 <= pd <= R.n and pd <= F.length


def test_pd_computes_minors_only_for_a_map_with_a_constant_term(monkeypatch):
    calls = []
    locus = homalg._locus

    def spy(C, k, r):
        calls.append(k)
        return locus(C, k, r)

    monkeypatch.setattr(homalg, "_locus", spy)
    # the Koszul resolution of (x, y, z): every entry vanishes at the origin
    assert ambient_resolution(ideal(XYZ, "x", "y", "z"))[1] == 3
    assert calls == []
    # the rewritten cusp ideal: phi_3 has constant terms and unit minors,
    # phi_2 has constant terms and minors that are not all units
    assert ambient_resolution(ideal(ZW, "z*w", "z - z*w", "z^3 - w^2"))[1] == 2
    assert calls == [3, 2]


def test_zero_and_unit_ideals_have_projective_dimension_zero():
    assert ambient_resolution(Ideal(XY, ()))[1] == 0
    assert ambient_resolution(ideal(XY, "x + 1", "x"))[1] == 0


@pytest.mark.parametrize("command", ["shape", "recipe"])
def test_an_ambient_resolution_that_does_not_finish_is_an_invariant_error(monkeypatch, command):
    # shape and recipe share the one report of the helper, as cm-check
    # does (test_homalg)
    real = homalg.free_resolution
    monkeypatch.setattr(homalg, "free_resolution", lambda I, cap, minimal: real(I, cap=1, minimal=minimal))
    Z = QuotientContext(XYZ, ideal(XYZ, "x*y", "x*z"))
    run = {
        "shape": lambda: structure_form_shape(Z),
        "recipe": lambda: build_current_recipe(Z, ideal(XYZ, "x")),
    }[command]
    with pytest.raises(InvariantError, match="resolution over the ambient ring must terminate"):
        run()
