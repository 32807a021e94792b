"""Exact matrix kernels against slow, obvious oracles written out here.

Ranks read off the Smith normal form are checked against Fraction
elimination, the Bareiss determinant against cofactor expansion, the
row-wise product against the sum-of-products definition, the sparse
GF(p) solver against the dense one and brute force, the sparse GF(p) column
reduction against dense row reduction, brute-force spans and Fraction ranks,
the kernels the same reduction gives over Q against dense Gauss-Jordan on
Fractions, and Z homology against GF(p) homology through the universal
coefficient theorem.
"""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from exoticaffine.fpgroups import snf_diagonal
from exoticaffine.linalg import (
    apply_columns_mod,
    coefficient,
    det,
    exact_quotient,
    mat_mul_rows,
    mat_vec,
    mul_columns_mod,
    rank_mod,
    reduce_columns_mod,
)
from gfp_oracle import (
    column_space_basis_mod,
    dense,
    nullspace_q,
    rref_mod,
    solve_columns_mod,
    solve_many_mod,
    sparse_columns,
)
from exoticaffine import linalg, smithhom
import smith_oracle
from exoticaffine.smithhom import (
    ChainComplex,
    SimplicialComplex,
    barycentric_subdivide,
    chain_complex,
    cone_complex,
    homology,
    polygon,
    simplicial_homology,
    suspension_complex,
)


def fraction_rank(matrix) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cofactor_det(m) -> int:
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def dependent_matrix(rng, rows, cols):
    """Entries in [-20, 20]; every third row combines the two before it."""
    out = []
    for i in range(rows):
        if i % 3 == 2:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            out.append([a * x + b * y for x, y in zip(out[i - 2], out[i - 1])])
        else:
            out.append([rng.randint(-20, 20) for _ in range(cols)])
    return out


def boundary_like(rng, rows, cols):
    """Entries +-1 in d + 1 random rows of each column, as in a simplicial
    boundary matrix of dimension d."""
    d = rng.randint(1, 3)
    m = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for i in rng.sample(range(rows), min(d + 1, rows)):
            m[i][j] = rng.choice((-1, 1))
    return m


def dense_dependent(rng, rows, cols, p):
    """Entries in [-p, p]; every third column combines the two before it."""
    m = [[rng.randint(-p, p) for _ in range(cols)] for _ in range(rows)]
    for j in range(2, cols, 3):
        a, b = rng.randint(0, p - 1), rng.randint(0, p - 1)
        for row in m:
            row[j] = a * row[j - 2] + b * row[j - 1]
    return m


def random_matrices(rng, count, max_rows, max_cols):
    """(p, matrix) pairs, p in {2, 3, 5}, half boundary-like, half dense."""
    for t in range(count):
        p = rng.choice((2, 3, 5))
        rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
        if t % 2:
            yield p, boundary_like(rng, rows, cols)
        else:
            yield p, dense_dependent(rng, rows, cols, p)


def brute_force_rank(matrix, p) -> int:
    """log_p of the number of vectors in the column span, all enumerated."""
    span = {
        tuple(sum(c * x for c, x in zip(coeffs, row)) % p for row in matrix)
        for coeffs in itertools.product(range(p), repeat=len(matrix[0]))
    }
    rank = 0
    while p**rank < len(span):
        rank += 1
    return rank


class TestColumnReduction:
    def test_tracked_combinations_and_lows(self):
        rng = random.Random(2005)
        for p, m in random_matrices(rng, 200, 9, 9):
            cols = sparse_columns(m, p)
            reduced, combos, lows = reduce_columns_mod(cols, p, track=True)
            for j, combo in enumerate(combos):
                # reduced[j] = column j plus earlier columns
                assert combo[j] == 1 and max(combo) == j, (m, p)
                rebuilt = [
                    sum(x * m[i][c] for c, x in combo.items()) % p for i in range(len(m))
                ]
                assert rebuilt == [reduced[j].get(i, 0) for i in range(len(m))], (m, p)
            nonzero = [j for j, col in enumerate(reduced) if col]
            assert sorted(lows.values()) == nonzero
            assert all(lows[max(reduced[j])] == j for j in nonzero)
            # a column reduces to zero exactly when it depends on earlier ones
            assert nonzero == rref_mod(m, p)[1], (m, p)
            untracked, none, same_lows = reduce_columns_mod(cols, p)
            assert (untracked, none, same_lows) == (reduced, None, lows)

    def test_column_space_basis_is_rref_pivot_columns(self):
        rng = random.Random(2006)
        for p, m in random_matrices(rng, 200, 9, 9):
            pivots = rref_mod(m, p)[1]
            expect = [[row[j] % p for row in m] for j in pivots]
            basis = column_space_basis_mod(sparse_columns(m, p), p)
            assert [list(c) for c in zip(*dense(basis, len(m)))] == expect, (m, p)

    def test_rank_against_brute_force_span(self):
        rng = random.Random(2007)
        for _ in range(150):
            p = rng.choice((2, 3, 5))
            max_cols = {2: 8, 3: 6, 5: 4}[p]
            rows, cols = rng.randint(1, 6), rng.randint(1, max_cols)
            if rng.random() < 0.5:
                m = boundary_like(rng, rows, cols)
            else:
                m = dense_dependent(rng, rows, cols, p)
            assert rank_mod(sparse_columns(m, p), p) == brute_force_rank(m, p), (m, p)

    def test_rank_against_fraction_rank(self):
        rng = random.Random(2008)
        for _ in range(150):
            p = rng.choice((2, 3, 5))
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            r = rng.randint(0, min(rows, cols))
            # left factor with an identity in r of its rows, right factor
            # with an identity in r of its columns: rank r over every field
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rows)]
            for k, i in enumerate(rng.sample(range(rows), r)):
                left[i] = [int(k == t) for t in range(r)]
            right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(r)]
            for k, j in enumerate(rng.sample(range(cols), r)):
                for t in range(r):
                    right[t][j] = int(k == t)
            m = [
                [sum(left[i][t] * right[t][j] for t in range(r)) for j in range(cols)]
                for i in range(rows)
            ]
            assert rank_mod(sparse_columns(m, p, cols), p) == fraction_rank(m) == r, (m, p)
        for p, m in random_matrices(rng, 150, 8, 8):
            assert rank_mod(sparse_columns(m, p), p) <= fraction_rank(m), (m, p)

    def test_empty_shapes(self):
        assert rank_mod(sparse_columns([], 3), 3) == 0
        assert rank_mod(sparse_columns([[], []], 3), 3) == 0
        assert column_space_basis_mod(sparse_columns([[0, 3]], 3), 3) == []
        assert column_space_basis_mod([], 3) == []
        assert sparse_columns([], 3, 2) == [{}, {}]
        assert reduce_columns_mod([], 5, track=True) == ([], [], {})

    def test_products_that_vanish(self):
        """A product that is zero (mod p, or a literal 0 over Z and Q) on a
        row the sum has not reached yet adds nothing; one that cancels a
        row already there removes it."""
        # 1 * 2 = 0 mod 2: boundary squared vanishes
        smithhom.ChainComplex(2, (1, 1, 1), ([], [{0: 1}], [{0: 2}]))
        assert apply_columns_mod([{0: 1}], {0: 3}, 3) == {}
        assert mul_columns_mod([{0: 0}], [{0: 1}], None) == [{}]
        assert apply_columns_mod([{0: 1}, {0: 2}], {0: 1, 1: 1}, 3) == {}


class TestExactRationals:
    """One stored form per rational: an int when integral, else a Fraction
    with denominator greater than 1; never a float or a bool."""

    def test_coefficient(self):
        for value, expected in [
            (3, 3),
            (Fraction(4, 2), 2),
            (Fraction(-6, 3), -2),
            (True, 1),
            ("3/6", Fraction(1, 2)),
            ("-4", -4),
            (0.5, Fraction(1, 2)),
            (Fraction(2, 3), Fraction(2, 3)),
        ]:
            got = coefficient(value)
            assert got == expected and type(got) is type(expected), (value, got)

    def test_exact_quotient(self):
        big = 2**60 + 1  # a float quotient would round this away
        for a, b, expected in [
            (6, 3, 2),
            (-6, 4, Fraction(-3, 2)),
            (big, 2, Fraction(big, 2)),
            (2 * big, 2, big),
            (Fraction(3, 2), Fraction(1, 2), 3),
            (1, Fraction(1, 3), 3),
            (Fraction(1, 3), 2, Fraction(1, 6)),
        ]:
            got = exact_quotient(a, b)
            assert got == expected and type(got) is type(expected), (a, b, got)
        with pytest.raises(ZeroDivisionError):
            exact_quotient(1, 0)


def q_kernel(cols, ncols):
    """The kernel over Q as dense vectors: the tracked combination of each
    column that reduces to zero."""
    reduced, combos, _ = reduce_columns_mod(cols, None, track=True)
    return [
        [combo.get(j, 0) for j in range(ncols)]
        for col, combo in zip(reduced, combos)
        if not col
    ]


def rational_matrix(rng, rows, cols):
    """Fraction entries with small denominators; every third row combines
    the two before it and about one column in five is zero."""
    m = [
        [Fraction(x, rng.randint(1, 4)) for x in row]
        for row in dependent_matrix(rng, rows, cols)
    ]
    for j in range(cols):
        if rng.random() < 0.2:
            for row in m:
                row[j] = Fraction(0)
    return m


class TestRationalKernel:
    """reduce_columns_mod with p = None: the kernel read off the tracked
    combinations is the reduced echelon kernel of Gauss-Jordan over Q."""

    def test_matches_dense_oracle_in_order(self):
        rng = random.Random(2010)
        for _ in range(400):
            rows, cols = rng.randint(1, 7), rng.randint(1, 8)
            m = rational_matrix(rng, rows, cols)
            got = q_kernel(sparse_columns(m, None), cols)
            assert got == nullspace_q(m, cols), m
            assert all(isinstance(x, (int, Fraction)) for v in got for x in v)
            for v in got:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)

    def test_empty_shapes(self):
        assert reduce_columns_mod([], None, track=True) == ([], [], {})
        assert q_kernel([], 0) == nullspace_q([], 0) == []
        # no rows: every column is free, the kernel is the identity
        assert q_kernel(sparse_columns([], None, 3), 3) == nullspace_q([], 3)
        assert nullspace_q([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_zero_columns(self):
        m = [[Fraction(0), Fraction(2), Fraction(0)], [Fraction(0), Fraction(-1), Fraction(0)]]
        assert q_kernel(sparse_columns(m, None), 3) == [[1, 0, 0], [0, 0, 1]]
        assert q_kernel(sparse_columns(m, None), 3) == nullspace_q(m, 3)

    def test_dependent_rational_columns(self):
        # c2 = 3/2 c0 - 1/3 c1 and c3 = c1 / 5
        c0, c1 = [Fraction(1, 2), Fraction(2), Fraction(0)], [Fraction(3), Fraction(0), Fraction(-7, 4)]
        c2 = [Fraction(3, 2) * a - Fraction(1, 3) * b for a, b in zip(c0, c1)]
        c3 = [b / 5 for b in c1]
        m = [list(row) for row in zip(c0, c1, c2, c3)]
        expect = [
            [Fraction(-3, 2), Fraction(1, 3), 1, 0],
            [0, Fraction(-1, 5), 0, 1],
        ]
        assert q_kernel(sparse_columns(m, None), 4) == expect == nullspace_q(m, 4)

    def test_rows_keyed_by_tuples(self):
        # rows may be any comparable keys, as in the derivation image columns
        rng = random.Random(2011)
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = rational_matrix(rng, rows, cols)
            keys = sorted(rng.sample([(a, b) for a in range(3) for b in range(5)], rows))
            tuple_cols = [{keys[i]: m[i][j] for i in range(rows) if m[i][j]} for j in range(cols)]
            assert q_kernel(tuple_cols, cols) == nullspace_q(m, cols), m

    def check_contract(self, cols):
        """The documented return contract, exactly: each reduced column is
        its tracked combination of the input columns, with coefficient 1 on
        itself, and every entry is a nonzero int or a Fraction with a
        denominator greater than 1."""
        reduced, combos, lows = reduce_columns_mod(cols, None, track=True)
        for j, (col, combo) in enumerate(zip(reduced, combos)):
            assert combo[j] == 1, (j, combo)
            rows = set(col).union(*(cols[k] for k in combo))
            spanned = {i: sum(x * cols[k].get(i, 0) for k, x in combo.items()) for i in rows}
            assert col == {i: x for i, x in spanned.items() if x}, (j, col, combo)
            for x in [*col.values(), *combo.values()]:
                assert (type(x) is int and x) or (type(x) is Fraction and x.denominator > 1), x
        assert sorted(lows.values()) == [j for j, col in enumerate(reduced) if col]
        assert all(max(reduced[j]) == low for low, j in lows.items())

    def test_mixed_int_and_fraction_entries(self):
        """Columns holding ints, Fractions and integral Fractions such as
        Fraction(4, 2), which is Fraction(2, 1) and not the int 2."""
        rng = random.Random(2013)
        kinds = [
            lambda x: x,
            lambda x: Fraction(x, rng.randint(1, 4)),
            lambda x: Fraction(2 * x, 2),
        ]
        seen = set()
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            m = [[rng.choice(kinds)(x) for x in row] for row in dependent_matrix(rng, rows, cols)]
            seen |= {(type(x), x.denominator) for row in m for x in row if x}
            sparse = sparse_columns(m, None)
            assert q_kernel(sparse, cols) == nullspace_q(m, cols), m
            self.check_contract(sparse)
        assert {(int, 1), (Fraction, 1), (Fraction, 4)} <= seen

    def test_dependent_integer_matrix_entry_growth(self):
        """12 x 12 integer matrices of rank at most 8: fraction-free
        elimination multiplies entries together, and the content division
        and the final normalisation must still give the exact Q kernel."""
        rng = random.Random(2014)
        for _ in range(10):
            scales = [rng.randint(1, 9) ** 3 for _ in range(12)]
            m = [[x * k for x, k in zip(row, scales)] for row in dependent_matrix(rng, 12, 12)]
            sparse = sparse_columns(m, None)
            kernel = q_kernel(sparse, 12)
            assert len(kernel) >= 4
            assert kernel == nullspace_q(m, 12), m
            for v in kernel:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
            self.check_contract(sparse)
            assert rank_mod(sparse, None) == 12 - len(kernel)

    def test_solutions_over_q(self):
        rng = random.Random(2012)
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = rational_matrix(rng, rows, cols)
            basis = sparse_columns(m, None)
            x = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(cols)}
            target = {i: sum(m[i][j] * c for j, c in x.items()) for i in range(rows)}
            (sol,) = solve_columns_mod(basis, [target], None)
            got = [sum(m[i][j] * c for j, c in sol.items()) for i in range(rows)]
            assert got == [target[i] for i in range(rows)], m


class TestSnfRank:
    def test_nonzero_diagonal_count_is_rank(self):
        rng = random.Random(2001)
        for _ in range(150):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = dependent_matrix(rng, rows, cols)
            rank = fraction_rank(m)
            assert sum(1 for d in snf_diagonal(m) if d != 0) == rank, m
            # homology of C_1 --m--> C_0 reads its ranks from the same SNF
            h0, h1 = homology(ChainComplex("Z", (rows, cols), ([], sparse_columns(m, None))))
            assert (h0.free_rank, h1.free_rank) == (rows - rank, cols - rank), m

    def test_unit_and_zero_matrices(self):
        for n in range(1, 5):
            unit = [[int(i == j) for j in range(n)] for i in range(n)]
            assert sum(1 for d in snf_diagonal(unit) if d != 0) == n == fraction_rank(unit)
            zero = [[0] * n for _ in range(n + 1)]
            assert snf_diagonal(zero) == [0] * n and fraction_rank(zero) == 0


class TestDeterminant:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(2002)
        assert det([]) == cofactor_det([]) == 1
        for _ in range(300):
            n = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                m[-1] = list(m[0])  # singular
            assert det(m) == cofactor_det(m), m

    def test_zero_leading_pivot(self):
        m = [[0, 2, 1], [3, 0, 4], [5, 6, 0]]
        assert det(m) == cofactor_det(m) == 58


class TestProduct:
    def test_matches_definition(self):
        """Row by row, a product of two or three factors equals the sum of
        products entry by entry; the left factor may be any iterable of
        rows, another product's rows included."""
        rng = random.Random(2003)
        for _ in range(100):
            n, k, m, l = (rng.randint(0, 5) for _ in range(4))
            a, b, c = ([[rng.choice((0, 0, 1, -2, 7)) for _ in range(y)] for _ in range(x)]
                       for x, y in ((n, k), (k, m), (m, l)))
            ab = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
            if k:  # with no inner index the row length is not defined
                assert list(mat_mul_rows(a, b)) == list(mat_mul_rows(iter(a), b)) == ab
            abc = [[sum(ab[i][t] * c[t][j] for t in range(m)) for j in range(l)] for i in range(n)]
            if k and m:
                assert list(mat_mul_rows(mat_mul_rows(a, b), c)) == abc


def sparse_solve(a, targets, p):
    """solve_columns_mod on a dense matrix and dense targets; dense solutions."""
    ncols = len(a[0]) if a else 0
    rhs = [[b[i] for b in targets] for i in range(len(a))]
    solutions = solve_columns_mod(
        sparse_columns(a, p, ncols), sparse_columns(rhs, p, len(targets)), p
    )
    return [None if x is None else [x.get(j, 0) for j in range(ncols)] for x in solutions]


class TestSolveMod:
    """The sparse solver against the dense oracle solver and brute force."""

    def test_solutions_satisfy_the_system(self):
        rng = random.Random(2003)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-p, p) for _ in range(cols)] for _ in range(rows)]
            x0 = [rng.randint(0, p - 1) for _ in range(cols)]
            in_image = [v % p for v in mat_vec(a, x0)]
            anywhere = [rng.randint(0, p - 1) for _ in range(rows)]
            got_image, got_any = solve_many_mod(a, [in_image, anywhere], p)
            assert got_image is not None
            for b, x in ((in_image, got_image), (anywhere, got_any)):
                if x is not None:
                    assert [v % p for v in mat_vec(a, x)] == [v % p for v in b]
            # the sparse solver, also on the basis with a zero column put in
            # front and for the zero target
            targets = [in_image, anywhere, [0] * rows]
            for basis in (a, [[0] + row for row in a]):
                oracle = solve_many_mod(basis, targets, p)
                for b, x, y in zip(targets, sparse_solve(basis, targets, p), oracle):
                    assert (x is None) == (y is None), (basis, b, p)
                    if x is not None:
                        assert [v % p for v in mat_vec(basis, x)] == [v % p for v in b]

    def test_none_exactly_when_inconsistent(self):
        rng = random.Random(2004)
        for _ in range(150):
            p = rng.choice([2, 3])
            rows, cols = rng.randint(1, 4), rng.randint(1, 3)
            a = [[rng.randint(0, p - 1) for _ in range(cols)] for _ in range(rows)]
            b = [rng.randint(0, p - 1) for _ in range(rows)]
            solvable = any(
                [v % p for v in mat_vec(a, x)] == b
                for x in itertools.product(range(p), repeat=cols)
            )
            assert (solve_many_mod(a, [b], p)[0] is not None) == solvable, (a, b, p)
            assert (sparse_solve(a, [b], p)[0] is not None) == solvable, (a, b, p)


def _torus():
    """3x3 grid with opposite sides glued: the 9-vertex torus."""
    faces = []
    for i, j in itertools.product(range(3), repeat=2):
        a, b = f"{i}{j}", f"{(i + 1) % 3}{j}"
        c, d = f"{i}{(j + 1) % 3}", f"{(i + 1) % 3}{(j + 1) % 3}"
        faces += [(a, b, d), (a, c, d)]
    return SimplicialComplex.build(faces)


def _klein():
    """3x3 grid with the top edge glued to the bottom one reversed."""

    def v(i, j):
        return f"{i % 3}{j}" if j < 3 else f"{(-i) % 3}0"

    faces = []
    for i, j in itertools.product(range(3), repeat=2):
        faces += [(v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                  (v(i, j), v(i, j + 1), v(i + 1, j + 1))]
    return SimplicialComplex.build(faces)


RP2_FACES = [
    ("1", "2", "3"), ("1", "3", "4"), ("1", "4", "5"), ("1", "5", "6"), ("1", "2", "6"),
    ("2", "3", "5"), ("2", "4", "5"), ("2", "4", "6"), ("3", "4", "6"), ("3", "5", "6"),
]


def _rp2():
    return SimplicialComplex.build(RP2_FACES)


def _random_complex(rng):
    """The six-vertex RP^2 with each triangle kept with probability 0.95,
    plus up to three random simplices on its vertices and two more: Z/2
    torsion in about half, a second component or free H_1 in others."""
    vertices = [str(v) for v in range(1, 9)]
    faces = [s for s in RP2_FACES if rng.random() < 0.95]
    faces += [rng.sample(vertices, rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
    return SimplicialComplex.build(faces)


def _alternating(values) -> int:
    return sum((-1) ** d * x for d, x in enumerate(values))


def _cellular(*boundaries):
    """Cellular chain complex with one cell per dimension and integer
    boundaries d_1, d_2, ... as sparse columns: torsion Z/d wherever
    d_k = d > 1."""
    dims = (1,) * (len(boundaries) + 1)
    return dims, ([],) + tuple([{0: d} if d else {}] for d in boundaries)


CELLULAR = {
    "moore3": _cellular(0, 3),
    "moore6": _cellular(0, 6),
    "lens4": _cellular(0, 4, 0),
}


def _uct_expected(h_z, p):
    def divisible(k):
        return sum(1 for t in h_z[k].torsion if t % p == 0) if k >= 0 else 0

    return [h_z[k].free_rank + divisible(k) + divisible(k - 1) for k in range(len(h_z))]


class TestUniversalCoefficients:
    COMPLEXES = {
        "circle": polygon(5),
        "disc": cone_complex(polygon(4), "o"),
        "sphere": suspension_complex(polygon(3)),
        "rp2": _rp2(),
        "rp2_subdivided": barycentric_subdivide(_rp2())[0],
        "torus": _torus(),
        "klein": _klein(),
    }

    def test_known_groups(self):
        h = {name: [str(g) for g in simplicial_homology(k)] for name, k in self.COMPLEXES.items()}
        assert h["rp2"] == h["rp2_subdivided"] == ["Z", "Z/2", "0"]
        assert h["torus"] == ["Z", "Z + Z", "Z"]
        assert h["klein"] == ["Z", "Z + Z/2", "0"]

    def test_simplicial(self):
        for name, k in self.COMPLEXES.items():
            h_z = simplicial_homology(k)
            for p in (2, 3):
                assert simplicial_homology(k, p) == _uct_expected(h_z, p), (name, p)

    def test_homology_basis(self):
        for name, k in self.COMPLEXES.items():
            h_z = simplicial_homology(k)
            for p in (2, 3, 5):
                c = chain_complex(k, p)
                h = smithhom._homology_basis(c.dims, c.boundaries, p)
                assert h.dims == _uct_expected(h_z, p), (name, p)

    def test_random_complexes_and_subdivisions(self):
        """On seeded random complexes and their first barycentric
        subdivision: the universal coefficient theorem, the Euler
        characteristic as the alternating sum of Betti numbers over Z and
        over GF(p), and homology unchanged by subdivision."""
        rng = random.Random(2014)
        with_torsion = 0
        for _ in range(12):
            k = _random_complex(rng)
            sub, _ = barycentric_subdivide(k)
            h_z = simplicial_homology(k)
            assert simplicial_homology(sub) == h_z, k
            with_torsion += any(g.torsion for g in h_z)
            chi = k.euler_characteristic()
            assert sub.euler_characteristic() == chi, k
            assert _alternating(g.free_rank for g in h_z) == chi, k
            for p in (2, 3, 5):
                dims = simplicial_homology(k, p)
                assert dims == _uct_expected(h_z, p), (k, p)
                assert _alternating(dims) == chi, (k, p)
                assert simplicial_homology(sub, p) == dims, (k, p)
        assert with_torsion

    def test_classes_match_the_solver(self):
        """classify_many on the homology bases of the seeded random
        complexes of the test above and of the named ones, against solving
        on the reps and the boundary basis, non-cycles included."""
        rng = random.Random(2014)
        complexes = [_random_complex(rng) for _ in range(12)] + list(self.COMPLEXES.values())
        probe = random.Random(1403)
        refused = 0
        for k in complexes:
            for p in (2, 3, 5):
                c = chain_complex(k, p)
                h = smithhom._homology_basis(c.dims, c.boundaries, p)
                for d, n in enumerate(c.dims):
                    label = (k, p, d)
                    refused += smith_oracle.assert_classes_match_solver(h, d, range(n), probe, label)
        assert refused

    def test_rp2_subdivided_twice(self):
        """RP^2 subdivided twice (181/540/360 simplices): Z homology, the
        universal coefficient theorem at p = 2, 3, and homology unchanged
        by subdivision."""
        k = _rp2()
        sub = barycentric_subdivide(barycentric_subdivide(k)[0])[0]
        assert [sub.n_simplices(d) for d in range(3)] == [181, 540, 360]
        h_z = simplicial_homology(sub)
        assert [str(g) for g in h_z] == ["Z", "Z/2", "0"]
        assert h_z == simplicial_homology(k)
        for p in (2, 3):
            assert simplicial_homology(sub, p) == _uct_expected(h_z, p) == simplicial_homology(k, p)

    def test_cellular_torsion(self):
        for name, (dims, boundaries) in CELLULAR.items():
            h_z = homology(ChainComplex("Z", dims, boundaries))
            assert any(g.torsion for g in h_z), name
            for p in (2, 3):
                mod_p = tuple([{i: x % p for i, x in col.items() if x % p} for col in b]
                              for b in boundaries)
                dims_p = homology(ChainComplex(p, dims, mod_p))
                assert dims_p == _uct_expected(h_z, p), (name, p)


class TestEveryKernelHasACaller:
    def test_public_functions_are_used_in_the_package(self):
        """Every public top-level function of linalg is referenced in the
        package outside its own def: imported from .linalg, read as
        linalg.<name>, or called by another function of linalg.  A kernel
        that only the tests call belongs in the tests."""
        package = Path(linalg.__file__).parent
        tree = ast.parse((package / "linalg.py").read_text())
        public = {node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        used = set()
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            used |= {node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id != own}
        for path in package.glob("*.py"):
            if path.name == "linalg.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                    used |= {alias.name for alias in node.names}
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "linalg"):
                    used.add(node.attr)
        assert public, "no public function found in linalg"
        assert public <= used, sorted(public - used)
