"""matrices_equal_canonically against a brute-force oracle.

matrices_equal_canonically decides whether B is A up to a permutation of
its rows, a permutation of its columns and a nonzero scalar on each
column.  The oracle here shares no code with its search: it tries every
row and column permutation and checks one scalar per column with
polynomial arithmetic.  Seeded permuted-and-scaled pairs must compare
equal, perturbed pairs as the oracle says, and circulant 0/1 matrices
are decided against an invariant computed on integers.  Skipped when
hypothesis is missing.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua.homalg import koszul_complex, matrices_equal_canonically
from residua.polyring import MonomialOrder, Polynomial, PolynomialRing

XY = PolynomialRing(("x", "y"))
XYZ = PolynomialRing(("x", "y", "z"))


def M(ring, rows):
    return tuple(tuple(ring.poly(e) for e in row) for row in rows)


def equal(ring, A, B):
    rows, cols = len(A), len(A[0]) if A else 0
    return matrices_equal_canonically(ring, A, B, rows, cols, len(B), len(B[0]) if B else 0)


def column_multiple(a, b):
    """Whether the column b is d * a for one nonzero rational d."""
    nonzero = [(p, q) for p, q in zip(a, b) if p.terms]
    if not nonzero:
        return all(not q.terms for q in b)
    p, q = nonzero[0]
    m = next(iter(p.terms))
    d = q.terms.get(m, 0) / p.terms[m]
    return d != 0 and all(q == p * d for p, q in zip(a, b))


def brute_force_equal(A, B, rows, cols):
    """Whether some row and column permutation of A, with one scalar per
    column, is B: every pair of permutations is tried."""
    for sigma in itertools.permutations(range(rows)):
        for tau in itertools.permutations(range(cols)):
            if all(
                column_multiple([A[sigma[i]][tau[j]] for i in range(rows)], [B[i][j] for i in range(rows)])
                for j in range(cols)
            ):
                return True
    return False


def permuted_and_scaled(rng, A, rows, cols):
    sigma, tau = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
    scales = [Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 3])) for _ in range(cols)]
    return tuple(tuple(A[sigma[i]][tau[j]] * scales[j] for j in range(cols)) for i in range(rows))


def perturbed(rng, B, rows, cols, pool):
    """B with one entry scaled by 2 or replaced by another pool entry."""
    i, j = rng.randrange(rows), rng.randrange(cols)
    e, others = B[i][j], [p for p in pool if p != B[i][j]]
    new = rng.choice(others) if others and (e.is_zero() or rng.random() < 0.5) else e * 2
    return tuple(
        tuple(new if (r, c) == (i, j) else B[r][c] for c in range(cols)) for r in range(rows)
    )


# no fixed point in the 8 passes of the sort-based form this search replaced
CYCLE = M(XY, [["2*x", "2*x", "0"], ["2*x - y", "x + y", "2*x"]])
# rescaled after that form's first pass: its row sort moved a row and changed the lead
RESCALED = M(XY, [["y", "0"], ["2", "2*x - y"], ["2*x", "x + y"]])


def koszul_pair():
    """phi_2 of the Koszul complex of six variables, and a copy with its
    rows reversed, its columns rotated and each column scaled."""
    ring = PolynomialRing(tuple("abcdef"))
    K = koszul_complex(ring.gens())
    A, rows, cols = K.diff(2), K.ranks[1], K.ranks[2]
    B = tuple(
        tuple(A[rows - 1 - i][(j + 1) % cols] * (j + 2) for j in range(cols)) for i in range(rows)
    )
    return ring, A, B


def test_named_pairs():
    assert equal(XY, CYCLE, CYCLE)
    assert equal(XY, RESCALED, RESCALED)
    rng = random.Random(7)
    for A in (CYCLE, RESCALED):
        for _ in range(20):
            assert equal(XY, A, permuted_and_scaled(rng, A, len(A), len(A[0])))
    ring, A, B = koszul_pair()
    assert equal(ring, A, B)
    # a column takes one scalar, not one per entry
    assert not equal(XY, M(XY, [["x"], ["y"]]), M(XY, [["x"], ["2*y"]]))
    assert not equal(XY, M(XY, [["x", "x"], ["y", "x"]]), M(XY, [["x", "x"], ["y", "2*x"]]))
    # zero columns, under a term-over-position order as well
    top = PolynomialRing(("x", "y"), MonomialOrder("grevlex", "top"))
    for ring in (XY, top):
        A = M(ring, [("0", "0", "x"), ("0", "y", "y")])
        assert equal(ring, A, M(ring, [("0", "x", "0"), ("y", "y", "0")]))
        assert not equal(ring, A, M(ring, [("0", "x", "0"), ("y", "x", "0")]))
    A = M(XY, [("0", "x", "0"), ("0", "y", "0"), ("0", "0", "x + y")])
    assert equal(XY, A, M(XY, [("x", "0", "0"), ("0", "x + y", "0"), ("y", "0", "0")]))
    # shapes must agree, and empty matrices of one shape are equal
    assert not matrices_equal_canonically(XY, CYCLE, CYCLE, 2, 3, 3, 2)
    assert matrices_equal_canonically(XY, (), (), 0, 2, 0, 2)
    assert matrices_equal_canonically(XY, ((), ()), ((), ()), 2, 0, 2, 0)


def _seeded_pairs(seed, count):
    rng = random.Random(seed)
    pool = [XYZ.poly(s) for s in (
        "0", "0", "1", "x", "y", "z", "x + y", "x - 2*z", "x*y", "y^2 - z", "3*x*z + 1", "x^2",
    )]
    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = tuple(tuple(rng.choice(pool) * rng.choice([1, 1, -1, 2]) for _ in range(cols)) for _ in range(rows))
        B = permuted_and_scaled(rng, A, rows, cols)
        yield A, B, perturbed(rng, B, rows, cols, pool), rows, cols


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_permuted_and_scaled_pairs_are_equal_and_perturbed_ones_as_the_oracle_says(seed):
    unequal = 0
    for A, B, C, rows, cols in _seeded_pairs(seed, 150):
        assert matrices_equal_canonically(XYZ, A, B, rows, cols, rows, cols)
        expected = brute_force_equal(A, C, rows, cols)
        assert matrices_equal_canonically(XYZ, A, C, rows, cols, rows, cols) == expected
        unequal += not expected
    # the perturbations mostly break the equivalence, so both answers are tested
    assert unequal > 100


def circulant(n, offsets):
    one, zero = XY.one(), XY.zero()
    return tuple(tuple(one if (j - i) % n in offsets else zero for j in range(n)) for i in range(n))


def closed_walks(n, offsets, length):
    """trace((M M^T)^length) of the 0/1 circulant M: invariant under row
    and column permutations, computed on integers."""
    M = [[int((j - i) % n in offsets) for j in range(n)] for i in range(n)]
    G = [[sum(a * b for a, b in zip(M[i], M[j])) for j in range(n)] for i in range(n)]
    P = G
    for _ in range(length - 1):
        P = [[sum(P[i][k] * G[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return sum(P[i][i] for i in range(n))


@pytest.mark.parametrize("n", range(14, 21))
def test_circulant_pairs_are_decided(n):
    # the closed walks of length 6 differ, so (0, 1, 3) and (0, 1, 4) are
    # not equivalent; a permuted copy of either is
    assert closed_walks(n, (0, 1, 3), 3) != closed_walks(n, (0, 1, 4), 3)
    A, B = circulant(n, (0, 1, 3)), circulant(n, (0, 1, 4))
    start = time.perf_counter()
    assert not matrices_equal_canonically(XY, A, B, n, n, n, n)
    rng = random.Random(n)
    assert matrices_equal_canonically(XY, A, permuted_and_scaled(rng, A, n, n), n, n, n, n)
    assert matrices_equal_canonically(XY, B, permuted_and_scaled(rng, B, n, n), n, n, n, n)
    assert time.perf_counter() - start < 10


def test_tall_matrices_are_decided():
    # the search keeps one partial match per row, far more than the
    # recursion limit
    n = 1200
    A = tuple((XY.poly(f"x^{i}"),) for i in range(n))
    B = tuple((p * 3,) for (p,) in reversed(A))
    assert matrices_equal_canonically(XY, A, B, n, 1, n, 1)
    C = B[:-1] + ((B[-1][0] * 2,),)
    assert not matrices_equal_canonically(XY, A, C, n, 1, n, 1)


def test_repeated_rows_that_differ_by_a_scalar_are_decided_quickly():
    # one column of nine equal entries against a copy with one of them
    # doubled: every row of A fits every row of B by its labels, and a
    # search that tried each of them would visit 9! full matches
    start = time.perf_counter()
    A = tuple((XY.poly("x"),) for _ in range(9))
    B = A[:-1] + ((XY.poly("2*x"),),)
    assert not matrices_equal_canonically(XY, A, B, 9, 1, 9, 1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("cols", [1, 2])
def test_rows_with_equal_labels_and_distinct_coefficients_are_decided_quickly(cols):
    # twelve rows that share their labels but not their coefficients: a
    # search that pruned on labels alone would walk all 12! row orders
    # before it saw the one changed coefficient
    n, rng = 12, random.Random(cols)
    A = tuple(tuple(XY.poly(f"{i + 1}*x") * (1 + j * i) for j in range(cols)) for i in range(n))
    start = time.perf_counter()
    B = permuted_and_scaled(rng, A, n, cols)
    assert matrices_equal_canonically(XY, A, B, n, cols, n, cols)
    C = tuple(row if i else (XY.poly(f"{n + 1}*x"),) + row[1:] for i, row in enumerate(A))
    assert not matrices_equal_canonically(XY, C, B, n, cols, n, cols)
    assert not matrices_equal_canonically(XY, A, permuted_and_scaled(rng, C, n, cols), n, cols, n, cols)
    assert time.perf_counter() - start < 2


RINGS = [XY, PolynomialRing(("x", "y"), MonomialOrder("lex")), PolynomialRing(("x", "y"), MonomialOrder("grevlex", "top"))]
MONOMIALS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 1, 2]))
TERMS = st.one_of(st.just({}), st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, min_size=1, max_size=2))


@st.composite
def pairs(draw):
    """(ring, A, B, rows, cols): B a permuted and scaled copy of A, such a
    copy with one entry changed, or drawn from the same few entries."""
    ring = draw(st.sampled_from(RINGS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pool = [Polynomial(ring, t) for t in draw(st.lists(TERMS, min_size=1, max_size=3))]
    scales = st.sampled_from([1, 1, -1, 2, Fraction(1, 3)])

    def matrix():
        return tuple(tuple(draw(st.sampled_from(pool)) * draw(scales) for _ in range(cols)) for _ in range(rows))

    A = matrix()
    kind = draw(st.sampled_from(["copy", "changed", "drawn"]))
    if kind == "drawn":
        return ring, A, matrix(), rows, cols
    rng = random.Random(draw(st.integers(0, 2**16)))
    B = permuted_and_scaled(rng, A, rows, cols)
    if kind == "changed" and rows and cols:
        B = perturbed(rng, B, rows, cols, pool + [Polynomial(ring, {(0, 0): 1})])
    return ring, A, B, rows, cols


def case(rows_a, rows_b):
    return XY, M(XY, rows_a), M(XY, rows_b), len(rows_a), len(rows_a[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pairs())
@example(case([["x"], ["y"]], [["x"], ["2*y"]]))
@example(case([["2*x", "2*x", "0"], ["2*x - y", "x + y", "2*x"]], [["x + y", "2*x - y", "2*x"], ["2*x", "2*x", "0"]]))
@example(case([["x", "0"], ["0", "x"], ["x", "x"]], [["x", "x"], ["x", "0"], ["0", "2*x"]]))
def test_matrices_equal_canonically_agrees_with_brute_force(pair):
    ring, A, B, rows, cols = pair
    assert matrices_equal_canonically(ring, A, B, rows, cols, rows, cols) == brute_force_equal(A, B, rows, cols)
