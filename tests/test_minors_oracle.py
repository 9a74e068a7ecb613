"""Determinants, minor ideals and generic ranks against sympy.

Differential tests: seeded small matrices over Q[x,y,z] (fractional
coefficients, zero rows and columns, empty and one-row shapes,
rank-deficient stacks) go through residua.homalg and through sympy's
Matrix.det and Matrix.rank, which share no code with residua.  On the
same matrices the codims of be-check, rank_loci and proper-check, which
skip the Groebner basis where a certificate allows, must equal
dimension of the whole minor ideal (itself checked against sympy
in test_dimension_oracle.py).  Skipped when sympy or hypothesis is
missing.

The minor scan itself is checked against reference_minors, the
exhaustive enumeration it replaced, which is frozen here: the scan must
yield the same (monic minor, lead) sequence whether the matrix has rank
below, equal to or above r.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from residua import homalg, kernel
from residua.groebner import Ideal, QuotientContext, certified_dimension, dimension
from residua.homalg import (
    ChainComplex,
    buchsbaum_eisenbud_check,
    determinant,
    fitting_loci,
    free_resolution,
    generic_rank,
    koszul_complex,
    minors_ideal,
    proper_intersection_check,
    rank_loci,
)
from residua.polyring import Polynomial, PolynomialRing

from conftest import random_poly

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


def to_sympy(p, symbols=X):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(v**e for v, e in zip(symbols, m)))
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
    # be-check, rank_loci and proper-check certify from the leads of the
    # minors and the terms of the matrix entries: each must give the codim
    # dimension finds on the whole minor ideal
    M, rows, cols = case
    C = ChainComplex(R, (rows, cols), (M,))
    for r in range(min(rows, cols) + 2):
        got = certified_dimension(*homalg._locus(C, 1, r))[1]
        assert got == dimension(minors_ideal(R, M, rows, cols, r))[1]
    rho = generic_rank(R, M, rows, cols)
    (level,) = buchsbaum_eisenbud_check(C).levels
    assert level.codim == dimension(minors_ideal(R, M, rows, cols, rho))[1]
    diag = rank_loci(C)
    assert diag.codims == (dimension(diag.loci[0])[1],)
    ((_, _, cd, _, _),) = proper_intersection_check(C, C, 1, 1).pairs
    assert cd == dimension(Ideal(R, diag.loci[0].gens * 2))[1]


# ---------------------------------------------------------------------------
# the minor scan against the exhaustive enumeration it replaced


class ReferenceTable:
    """Minors of one matrix of integer ring term maps by first-row
    expansion with every sub-minor kept by (rows, cols): the tuple-keyed
    table that kernel.MinorTable replaced, frozen.  It packs no term and
    skips no block."""

    def __init__(self, entries):
        self.entries = entries
        self.memo = {}

    def minor(self, rows, cols):
        low = rows & -rows
        rest = rows ^ low
        if not rest:
            return self.entries[low.bit_length() - 1][cols.bit_length() - 1]
        d = self.memo.get((rows, cols))
        if d is None:
            d = {}
            for c, e in enumerate(self.entries[low.bit_length() - 1]):
                bit = 1 << c
                if e and cols & bit:
                    sub = self.minor(rest, cols ^ bit)
                    odd = (cols & (bit - 1)).bit_count() & 1
                    kernel.add_product(d, e, sub, -1 if odd else 1)
            self.memo[(rows, cols)] = d
        return d


def reference_minors(ring, M, rows, cols, r):
    """The exhaustive minors, frozen: every r x r minor is evaluated, rows
    and columns lexicographically, and each class up to a scalar is
    yielded at its first occurrence."""
    if r <= 0:
        yield ring.one(), (0,) * ring.n
        return
    minor = ReferenceTable(homalg._integer_rows(M, rows, cols)[0]).minor
    key = ring.default_order.ring_key
    seen = set()
    col_sets = [sum(cs) for cs in combinations([1 << c for c in range(cols)], r)]
    for rs in combinations([1 << i for i in range(rows)], r):
        row_set = sum(rs)
        for col_set in col_sets:
            d = minor(row_set, col_set)
            if not d:
                continue
            # minors equal up to a scalar have one monic form
            sig = frozenset(kernel.primitive(d, max(d))[0].items())
            if sig not in seen:
                seen.add(sig)
                lead = max(d, key=key)
                yield Polynomial.from_kernel(ring, d, d[lead]), lead


def trace(pairs):
    """Each (minor, lead) as its terms in order and its lead."""
    return [(list(g.terms.items()), lead) for g, lead in pairs]


def assert_scan_matches_reference(M, rows, cols, rs):
    for r in rs:
        got = trace(homalg.minors(R, M, rows, cols, r))
        assert got == trace(reference_minors(R, M, rows, cols, r)), r


@st.composite
def low_rank(draw):
    """(M, rows, cols): a rows x k times k x cols product, so of rank at
    most k, with a row and a column possibly zeroed."""
    rows, cols, k = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    A = [[draw(POLYS) for _ in range(k)] for _ in range(rows)]
    B = [[draw(POLYS) for _ in range(cols)] for _ in range(k)]
    M = [
        [sum((A[i][l] * B[l][j] for l in range(k)), R.zero()) for j in range(cols)]
        for i in range(rows)
    ]
    if draw(st.booleans()):
        M[draw(st.integers(0, rows - 1))] = [R.zero()] * cols
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in M:
            row[j] = R.zero()
    return tuple(map(tuple, M)), rows, cols


@SETTINGS
@given(st.one_of(matrices(st.tuples(st.integers(0, 4), st.integers(0, 5))), low_rank()))
@example(case([], 0))
@example(case([["x", "0"], ["0", "y"]]))  # rank 2: at r = 1 the bordering minor is x*y
@example(case([["x", "y", "z"], ["x*z", "y*z", "z^2"]]))  # its 2-minors cancel to zero
@example(case([["0", "0", "0"], ["x", "y", "1/2*z"], ["2*y", "0", "x - z"]]))  # a zero row
@example(
    case(  # dense, rank 3
        [
            ["x + 1", "y - 2/3", "x*z + 3", "y^2 + x"],
            ["2*y + z", "x^2 - 1", "z + 5", "x*y + 1/2"],
            ["z^2 + 1", "x + y + z", "3*x - y", "y*z - 7"],
        ]
    )
)
def test_minor_scan_matches_the_exhaustive_enumeration(case):
    # every r from 0 to min + 1: rank below, equal to and above r, and
    # r = min(rows, cols), where there is no bordering minor
    M, rows, cols = case
    assert_scan_matches_reference(M, rows, cols, range(min(rows, cols) + 2))


def test_minor_scan_matches_the_exhaustive_enumeration_on_seeded_products():
    # rank k products with fractional scales up to 5 x 6, all r
    rng = random.Random(22)
    for _ in range(12):
        rows, cols, k = rng.randint(2, 5), rng.randint(2, 6), rng.randint(1, 3)
        A = [[random_poly(rng, R, 1, 2) * Fraction(1, rng.randint(1, 4)) for _ in range(k)]
             for _ in range(rows)]
        B = [[random_poly(rng, R, 1, 2) for _ in range(cols)] for _ in range(k)]
        M = tuple(
            tuple(sum((A[i][l] * B[l][j] for l in range(k)), R.zero()) for j in range(cols))
            for i in range(rows)
        )
        assert_scan_matches_reference(M, rows, cols, range(min(rows, cols) + 2))


def test_minor_scan_evaluates_one_pair_per_class_on_the_cube_resolution():
    gens = [R.poly(m) for m in "x^3 x^2*y x^2*z x*y^2 x*y*z x*z^2 y^3 y^2*z y*z^2 z^3".split()]
    C = free_resolution(Ideal(R, gens), minimal=True)
    assert C.ranks == (1, 10, 15, 6)
    for k, r in enumerate((1, 9, 6), 1):
        assert_scan_matches_reference(C.diff(k), C.ranks[k - 1], C.ranks[k], (r,))
    # phi_2 has rank 9: its six bordering 10-minors vanish, and the 55
    # distinct minors come from about a tenth of its 50,050 9-minors
    table = kernel.MinorTable(homalg._integer_rows(C.diff(2), 10, 15)[0], 10, 15)
    sizes = {}

    def minor(rs, cs):
        sizes[rs.bit_count()] = sizes.get(rs.bit_count(), 0) + 1
        return table.minor(rs, cs)

    assert sum(map(bool, homalg._minor_scan(minor, 10, 15, 9))) == 280
    assert sizes[10] == 6 and sizes[9] < 6000


# ---------------------------------------------------------------------------
# the packed table and its zero skip, against the frozen reference and sympy


def assert_table_matches(M, rows, cols):
    """Every square minor of M from kernel.MinorTable equals the frozen
    ReferenceTable's, term for term and in the same order; the largest ones
    also equal sympy's determinant of the block, times its row scales."""
    entries, scales = homalg._integer_rows(M, rows, cols)
    table, ref = kernel.MinorTable(entries, rows, cols), ReferenceTable(entries)
    A = sympy_matrix(M, rows, cols)
    for r in range(1, min(rows, cols) + 1):
        for rs in combinations(range(rows), r):
            for cs in combinations(range(cols), r):
                R, C = sum(1 << i for i in rs), sum(1 << j for j in cs)
                got = table.unpack(table.minor(R, C))
                assert list(got.items()) == list(ref.minor(R, C).items()), (rs, cs)
                if r == min(rows, cols):
                    scale = math.prod(scales[i] for i in rs)
                    want = sympy_terms(A.extract(list(rs), list(cs)).det())
                    assert got == {m: c * scale for m, c in want.items()}, (rs, cs)


NONZERO = st.dictionaries(st.sampled_from(MONOMIALS), COEFFS, min_size=1, max_size=3).map(
    lambda terms: Polynomial(R, terms)
)


@st.composite
def sparse_matrices(draw):
    """(M, rows, cols): 2..4 x 2..5 with 40 to 60 percent of the entries
    zero, the others nonzero."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    cells = rows * cols
    zeros = draw(st.integers(-(-2 * cells // 5), 3 * cells // 5))
    holes = set(draw(st.permutations(range(cells)))[:zeros])
    M = tuple(
        tuple(R.zero() if i * cols + j in holes else draw(NONZERO) for j in range(cols))
        for i in range(rows)
    )
    return M, rows, cols


@SETTINGS
@given(sparse_matrices())
@example(case([["x", "y", "z"], ["0", "x", "y"], ["0", "0", "x"]]))  # a row with one nonzero
@example(case([["x", "0", "0", "y"], ["0", "y", "z", "0"], ["x", "0", "z", "0"]]))
def test_packed_minors_of_sparse_matrices_match_the_reference(case):
    assert_table_matches(*case)


def test_packed_minors_of_a_dense_matrix_match_the_reference():
    M, rows, cols = case(
        [
            ["x + 1", "y - 2/3", "x*z + 3", "y^2 + x"],
            ["2*y + z", "x^2 - 1", "z + 5", "x*y + 1/2"],
            ["z^2 + 1", "x + y + z", "3*x - y", "y*z - 7"],
            ["x", "y", "z", "-2"],
        ]
    )
    assert_table_matches(M, rows, cols)


def test_a_minor_that_cancels_is_expanded_and_comes_out_zero():
    # every row and column of the block has a nonzero entry: the block is
    # expanded, and its two permutation terms 2xy and -2xy cancel
    M, rows, cols = case([["x", "y", "1"], ["2*x", "2*y", "1"], ["x + y", "x", "z"]])
    table = kernel.MinorTable(homalg._integer_rows(M, rows, cols)[0], rows, cols)
    assert table.minor(0b011, 0b011) is kernel.ZERO
    assert list(table.memo.values()) == [kernel.ZERO]
    assert_table_matches(M, rows, cols)


def test_a_block_with_two_rows_on_one_column_comes_out_exactly_zero():
    # rows 2 and 3 have their only nonzero entries in column 1: each row
    # and column of the whole block has a nonzero entry, so it is expanded,
    # and each of its 2 x 2 sub-blocks has an empty row or column
    M, rows, cols = case([["x", "y", "z"], ["x", "0", "0"], ["y", "0", "0"]])
    table = kernel.MinorTable(homalg._integer_rows(M, rows, cols)[0], rows, cols)
    assert table.minor(0b111, 0b111) is kernel.ZERO
    assert list(table.memo.values()) == [kernel.ZERO]
    assert sympy_matrix(M, rows, cols).det() == 0
    assert determinant(R, M, 3).is_zero()


# ---------------------------------------------------------------------------
# generic ranks certified at one integer point, against sympy


def sympy_generic_ranks(C):
    """The rank of each differential of C over the fraction field, by
    sympy's DomainMatrix."""
    from sympy.polys.matrices import DomainMatrix

    symbols = sympy.symbols(C.ring.names)
    ranks = []
    for k in range(1, C.length + 1):
        rows, cols = C.ranks[k - 1], C.ranks[k]
        entries = [to_sympy(e, symbols) for row in C.diff(k) for e in row]
        M = sympy.Matrix(rows, cols, entries)
        ranks.append(DomainMatrix.from_Matrix(M).to_field().rank() if rows and cols else 0)
    return tuple(ranks)


def change_coordinates(rng, C):
    """C over Q[x,y,z] carried through x -> x + a y + b z, y -> y + c z with
    seeded coefficients a, b, c in 1..4."""
    x, y, z = R.gens()
    a, b, c = (rng.randint(1, 4) for _ in range(3))
    images = {"x": x + a * y + b * z, "y": y + c * z}
    diffs = [tuple(tuple(e.evaluate(images) for e in row) for row in M) for M in C.diffs]
    return ChainComplex(R, C.ranks, diffs)


def seeded_resolutions(seed, count):
    """Minimal resolutions of seeded monomial ideals in Q[x,y,z] after a
    seeded unipotent change of coordinates."""
    rng = random.Random(seed)
    monomials = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if 2 <= a + b + c <= 3]
    out = []
    for _ in range(count):
        gens = [Polynomial(R, {m: 1}) for m in rng.sample(monomials, rng.randint(3, 6))]
        out.append(change_coordinates(rng, free_resolution(Ideal(R, gens), minimal=True)))
    return out


S = PolynomialRing(("x", "y", "z", "w"))


def sparse_quadrics(rng, count):
    """count quadrics in Q[x,y,z,w], each a monomial or a binomial."""
    quads = list(combinations_with_replacement(range(4), 2))
    out = []
    for _ in range(count):
        (i, j), (k, l) = rng.sample(quads, 2)
        q = S.gens()[i] * S.gens()[j]
        if rng.random() < 0.5:
            q = q + rng.choice((-3, -1, 2, 5)) * S.gens()[k] * S.gens()[l]
        out.append(q)
    return out


def point_zero_koszul():
    """The Koszul complex of (x - a, y - b) for the point (a, b, ...) of
    homalg._RANK_POINT, at which every entry vanishes."""
    x, y, _ = R.gens()
    a, b = homalg._RANK_POINT[:2]
    return koszul_complex([x - a, y - b])


def counted_generic_rank(monkeypatch):
    """Replace homalg.generic_rank by a counting wrapper; returns the count."""
    calls = []
    rank = homalg.generic_rank

    def counted(*args):
        calls.append(args)
        return rank(*args)

    monkeypatch.setattr(homalg, "generic_rank", counted)
    return calls


def test_point_ranks_match_sympy_on_seeded_resolutions(monkeypatch):
    calls = counted_generic_rank(monkeypatch)
    complexes = seeded_resolutions(24, 8)
    assert max(C.length for C in complexes) == 3
    for C in complexes:
        assert buchsbaum_eisenbud_check(C).generic_ranks == sympy_generic_ranks(C)
    # the point settles every level of these exact complexes
    assert not calls


def test_point_ranks_match_sympy_on_koszul_complexes_of_sparse_quadrics(monkeypatch):
    rng = random.Random(24)
    calls = counted_generic_rank(monkeypatch)
    for c in (2, 2, 3, 3, 4):
        C = koszul_complex(sparse_quadrics(rng, c))
        assert buchsbaum_eisenbud_check(C).generic_ranks == sympy_generic_ranks(C)
    assert not calls


def test_generic_ranks_fall_back_where_the_point_is_a_zero(monkeypatch):
    # every entry vanishes at the point, so its ranks (0, 0) stay below the
    # bounds (1, 1) and both levels run generic_rank
    calls = counted_generic_rank(monkeypatch)
    C = point_zero_koszul()
    assert buchsbaum_eisenbud_check(C).generic_ranks == sympy_generic_ranks(C) == (1, 1)
    assert len(calls) == 2
    # phi_1 vanishes at the point and phi_2 does not, so only phi_1 falls back
    x, y, _ = R.gens()
    a = homalg._RANK_POINT[0]
    D = ChainComplex(R, (1, 2, 1), ([[(x - a) * x, (x - a) * y]], [[y], [-x]]))
    del calls[:]
    assert buchsbaum_eisenbud_check(D).generic_ranks == sympy_generic_ranks(D) == (1, 1)
    assert len(calls) == 1


def test_truncated_fitting_loci_take_generic_ranks(monkeypatch):
    x, y, z = R.gens()
    calls = counted_generic_rank(monkeypatch)
    # a truncated resolution over the ambient ring: certified at the point
    C = free_resolution(Ideal(R, [x * y, y * z, x * z, x**2 - y * z]), cap=2)
    assert not C.complete
    assert fitting_loci(C)[0] == sympy_generic_ranks(C)
    assert not calls
    # over a context phi phi vanishes only modulo the relations: every
    # level runs generic_rank
    curve = QuotientContext(R, Ideal(R, [y**2 - x**3 - x]))
    D = free_resolution(Ideal(R, [x, y]), context=curve, cap=4)
    assert not D.complete
    assert fitting_loci(D)[0] == sympy_generic_ranks(D)
    assert len(calls) == D.length
