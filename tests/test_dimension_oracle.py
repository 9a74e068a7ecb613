"""Dimension and codimension against sympy.

groebner.dimension decides the codimension from the lead monomials of
the generators when it can, and from a Groebner basis otherwise.  Both
paths are compared with the codimension read off a sympy grevlex basis,
which shares no code with residua, on seeded ideals in Q[x,y,z] whose
generators may have constant terms.  Skipped when sympy or hypothesis is
missing.
"""

from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua.groebner import INFINITE_CODIM, Ideal, dimension
from residua.homalg import ChainComplex, free_resolution, rank_loci
from residua.polyring import Polynomial, PolynomialRing

R = PolynomialRing(("x", "y", "z"))
X = sympy.symbols("x y z")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

MONOMIALS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3]
COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3]))
POLYS = st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, min_size=1, max_size=3).map(
    lambda terms: Polynomial(R, terms)
)
IDEALS = st.lists(POLYS, max_size=4).map(lambda gens: Ideal(R, gens))


def ideal(*gens):
    return Ideal(R, [R.poly(g) for g in gens])


def to_sympy(p):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(X, m)))
            for m, c in p.terms.items()
        )
    )


def sympy_dimension(I):
    """(dim, codim) from the leading monomials of a sympy grevlex basis:
    the largest variable set with no leading monomial in its subring."""
    if not I.gens:
        return (3, 0)
    basis = sympy.groebner([to_sympy(g) for g in I.gens], *X, order="grevlex")
    leads = [sympy.Poly(g, *X).monoms(order="grevlex")[0] for g in basis.exprs]
    if any(not any(m) for m in leads):
        return (-1, INFINITE_CODIM)
    for size in range(3, -1, -1):
        for free in combinations(range(3), size):
            if all(any(e for i, e in enumerate(m) if i not in free) for m in leads):
                return (size, 3 - size)
    raise AssertionError("the empty variable set is always independent")


@SETTINGS
@given(IDEALS)
@example(ideal("x", "x + 1"))
@example(ideal("x^2 - y^2", "x*y"))
@example(ideal("x^2 + y", "y^2 + z"))
@example(Ideal(R, ()))
def test_dimension_matches_sympy(I):
    assert dimension(I) == sympy_dimension(I)


def test_certificate_decides_without_a_basis():
    # leads x^2, y^2 need two variables; every term needs x, y and z, but
    # two generators bound the codimension by 2
    I = ideal("x^2 + y", "y^2 + z")
    assert dimension(I) == (1, 2)
    assert not I._gb_cache


@pytest.mark.parametrize(
    "I",
    [
        ideal("x^2 - y^2", "x*y"),  # leads x^2, x*y: lower bound 1 below codim 2
        ideal("x", "x + 1"),  # a constant term: the certificate does not apply
    ],
    ids=["lower-bound-short", "constant-term"],
)
def test_basis_path_when_the_certificate_cannot_decide(I):
    assert dimension(I) == sympy_dimension(I)
    assert I._gb_cache


def borel_yz_resolution():
    """The minimal resolution of the strongly stable ideal generated by
    y*z, (x^2, xy, xz, y^2, yz), carried through the unipotent change of
    coordinates x -> x + y + 2z, y -> y + 3z."""
    x, y, z = R.gens()
    images = (x + y + z * 2, y + z * 3, z)
    C = free_resolution(ideal("x^2", "x*y", "x*z", "y^2", "y*z"), minimal=True)

    def subst(p):
        out = R.zero()
        for m, c in p.terms.items():
            term = R.one() * c
            for img, e in zip(images, m):
                term = term * img**e
            out = out + term
        return out

    diffs = [tuple(tuple(subst(e) for e in row) for row in M) for M in C.diffs]
    return ChainComplex(R, C.ranks, diffs)


def test_coordinate_changed_locus_takes_the_basis_path():
    # level 1 of rank_loci is the ideal itself, of codim 2; its terms
    # involve all three variables and it has five generators, so the upper
    # bound min(3, 5) misses and the codim comes from a basis
    diag = rank_loci(borel_yz_resolution())
    assert diag.loci[0]._gb_cache
    assert diag.codims[0] == 2
    assert list(diag.codims) == [sympy_dimension(I)[1] for I in diag.loci]
