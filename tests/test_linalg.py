"""Exact matrix kernels against slow, obvious oracles written out here.

Ranks read off the Smith normal form are checked against Fraction
elimination, the Bareiss determinant against cofactor expansion, the sparse
GF(p) solver against the dense one and brute force, the sparse GF(p) column
reduction against dense row reduction, brute-force spans and Fraction ranks,
and Z homology against GF(p) homology through the universal coefficient
theorem.
"""

import itertools
import random
from fractions import Fraction

from exoticaffine.fpgroups import snf_diagonal
from exoticaffine.linalg import (
    column_space_basis_mod,
    det,
    mat_vec,
    rank_mod,
    reduce_columns_mod,
    solve_columns_mod,
    sparse_columns,
)
from gfp_oracle import dense, rref_mod, solve_many_mod
from exoticaffine import smithhom
from exoticaffine.smithhom import (
    ChainComplex,
    SimplicialComplex,
    barycentric_subdivide,
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


class TestSnfRank:
    def test_nonzero_diagonal_count_is_rank(self):
        rng = random.Random(2001)
        for _ in range(150):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = dependent_matrix(rng, rows, cols)
            rank = fraction_rank(m)
            assert sum(1 for d in snf_diagonal(m) if d != 0) == rank, m
            # homology of C_1 --m--> C_0 reads its ranks from the same SNF
            h0, h1 = homology(ChainComplex("Z", (rows, cols), ((), m)))
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


def _rp2():
    faces = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return SimplicialComplex.build([tuple(str(v) for v in s) for s in faces])


def _cellular(*boundaries):
    """Cellular chain complex with one cell per dimension and integer
    boundaries d_1, d_2, ...: torsion Z/d wherever d_k = d > 1."""
    dims = (1,) * (len(boundaries) + 1)
    return dims, ((),) + tuple(((d,),) for d in boundaries)


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
                dims = [k.n_simplices(d) for d in range(k.dimension + 1)]
                h = smithhom._homology_basis(dims, smithhom._boundaries_mod(k, p), p)
                assert h.dims == _uct_expected(h_z, p), (name, p)

    def test_cellular_torsion(self):
        for name, (dims, boundaries) in CELLULAR.items():
            h_z = homology(ChainComplex("Z", dims, boundaries))
            assert any(g.torsion for g in h_z), name
            for p in (2, 3):
                mod_p = tuple(tuple(tuple(x % p for x in row) for row in b) for b in boundaries)
                dims_p = homology(ChainComplex(p, dims, mod_p))
                assert dims_p == _uct_expected(h_z, p), (name, p)
