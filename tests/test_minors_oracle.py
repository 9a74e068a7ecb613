"""Determinants, minor ideals and generic ranks against sympy.

Differential tests: seeded small matrices over Q[x,y,z] (fractional
coefficients, zero rows and columns, empty and one-row shapes,
rank-deficient stacks) go through residua.homalg and through sympy's
Matrix.det and Matrix.rank, which share no code with residua.  On the
same matrices the codims of be-check, rank_loci and proper-check, which
stop early or skip the Groebner basis where a certificate allows, must
equal dimension of the whole minor ideal (itself checked against sympy
in test_dimension_oracle.py).  Skipped when sympy or hypothesis is
missing.
"""

from fractions import Fraction
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua.groebner import Ideal, dimension
from residua.homalg import (
    ChainComplex,
    minors_codim,
    buchsbaum_eisenbud_check,
    determinant,
    generic_rank,
    minors_ideal,
    proper_intersection_check,
    rank_loci,
)
from residua.polyring import Polynomial, PolynomialRing

R = PolynomialRing(("x", "y", "z"))
X = sympy.symbols("x y z")
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MONOMIALS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]
COEFFS = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.sampled_from([1, 1, 1, 2, 3, 5]),
)
POLYS = st.one_of(
    st.just({}),
    st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, min_size=1, max_size=3),
).map(lambda terms: Polynomial(R, terms))


@st.composite
def matrices(draw, shapes):
    """(M, rows, cols) with (rows, cols) from shapes: independent random
    rows, or a few random rows stacked with polynomial combinations of them
    (rank at most their number); some columns may be zeroed."""
    rows, cols = draw(shapes)
    base = draw(st.integers(0, rows))
    M = [[draw(POLYS) for _ in range(cols)] for _ in range(base)]
    while len(M) < rows:
        if M and draw(st.booleans()):
            mult = [draw(POLYS) for _ in M]
            M.append([sum((m * r[j] for m, r in zip(mult, M)), R.zero()) for j in range(cols)])
        else:
            M.append([draw(POLYS) for _ in range(cols)])
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in M:
            if j < cols:
                row[j] = R.zero()
    order = draw(st.permutations(range(rows)))
    return tuple(tuple(M[i]) for i in order), rows, cols


def case(rows, cols=None):
    """An explicit example: (matrix parsed from text rows, rows, cols)."""
    M = tuple(tuple(R.poly(e) for e in row) for row in rows)
    return M, len(rows), len(rows[0]) if rows else cols


def to_sympy(p):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(X, m)))
            for m, c in p.terms.items()
        )
    )


def sympy_matrix(M, rows, cols):
    return sympy.Matrix(rows, cols, [to_sympy(M[i][j]) for i in range(rows) for j in range(cols)])


def sympy_terms(expr):
    """{exponents: Fraction} of an expanded sympy polynomial in x, y, z."""
    poly = sympy.Poly(sympy.expand(expr), *X)
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms() if c}


def sympy_monic(expr):
    terms = sympy_terms(expr)
    if not terms:
        return None
    lc = sympy.Poly(sympy.expand(expr), *X).LC(order="grevlex")
    lc = Fraction(int(lc.p), int(lc.q))
    return frozenset((m, c / lc) for m, c in terms.items())


def sympy_rank(A):
    return A.rank(iszerofunc=lambda e: sympy.cancel(e) == 0)


@SETTINGS
@given(matrices(st.integers(0, 4).map(lambda n: (n, n))))
@example(case([], 0))
@example(case([["1/2*x - 3"]]))
@example(case([["x", "y"], ["2/3*x", "2/3*y"]]))
@example(case([["x", "0", "z"], ["0", "0", "0"], ["y", "1", "x*y"]]))
def test_determinant_matches_sympy(case):
    M, n, _ = case
    assert determinant(R, M, n).terms == sympy_terms(sympy_matrix(M, n, n).det())


@SETTINGS
@given(matrices(st.tuples(st.integers(0, 3), st.integers(0, 4))))
@example(case([], 0))
@example(case([["x", "0", "-1/4*y^2", "3"]]))
@example(case([["x", "y", "z"], ["0", "0", "0"]]))
@example(case([["2*x", "y"], ["-x", "-1/2*y"], ["x", "1/2*y"]]))
def test_minor_ideals_match_sympy(case):
    M, rows, cols = case
    A = sympy_matrix(M, rows, cols)
    for r in range(1, min(rows, cols) + 1):
        want = set()
        for rs in combinations(range(rows), r):
            for cs in combinations(range(cols), r):
                monic = sympy_monic(A.extract(list(rs), list(cs)).det())
                if monic is not None:
                    want.add(monic)
        gens = [frozenset(g.terms.items()) for g in minors_ideal(R, M, rows, cols, r).gens]
        assert len(gens) == len(set(gens))
        assert set(gens) == want


@SETTINGS
@given(matrices(st.tuples(st.integers(0, 4), st.integers(0, 5))))
@example(case([], 0))
@example(case([], 3))
@example(case([["0", "0", "0"]]))
@example(case([["0", "1/3*x*y", "0"]]))
@example(case([["x", "y"], ["y", "x"], ["x + y", "x + y"]]))
def test_generic_rank_matches_sympy(case):
    M, rows, cols = case
    assert generic_rank(R, M, rows, cols) == sympy_rank(sympy_matrix(M, rows, cols))


@SETTINGS
@given(matrices(st.tuples(st.integers(0, 3), st.integers(0, 4))))
@example(case([], 0))
@example(case([["x", "y", "z"], ["y", "z", "x"]]))
@example(case([["x", "y"], ["1 + x", "z"]]))
@example(case([["x", "0", "-1/4*y^2", "3"]]))
def test_minor_codims_match_dimension(case):
    # be-check stops enumerating minors once their leads certify the codim,
    # and rank_loci and proper-check certify from leads and matrix entries:
    # each must give the codim dimension finds on the whole minor ideal
    M, rows, cols = case
    for r in range(min(rows, cols) + 2):
        assert minors_codim(R, M, rows, cols, r) == dimension(minors_ideal(R, M, rows, cols, r))[1]
    C = ChainComplex(R, (rows, cols), (M,))
    rho = generic_rank(R, M, rows, cols)
    (level,) = buchsbaum_eisenbud_check(C).levels
    assert level.codim == dimension(minors_ideal(R, M, rows, cols, rho))[1]
    diag = rank_loci(C)
    assert diag.codims == (dimension(diag.loci[0])[1],)
    ((_, _, cd, _, _),) = proper_intersection_check(C, C, 1, 1).pairs
    assert cd == dimension(Ideal(R, diag.loci[0].gens * 2))[1]
