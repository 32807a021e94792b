"""Exact matrix kernels against slow, obvious oracles written out here.

Ranks read off the Smith normal form are checked against Fraction
elimination, the Bareiss determinant against cofactor expansion, the GF(p)
solver against brute force, and Z homology against GF(p) homology through
the universal coefficient theorem.
"""

import itertools
import random
from fractions import Fraction

from exoticaffine.fpgroups import snf_diagonal
from exoticaffine.linalg import det, mat_vec, solve_many_mod
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


class TestSolveMod:
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

    def test_cellular_torsion(self):
        for name, (dims, boundaries) in CELLULAR.items():
            h_z = homology(ChainComplex("Z", dims, boundaries))
            assert any(g.torsion for g in h_z), name
            for p in (2, 3):
                mod_p = tuple(tuple(tuple(x % p for x in row) for row in b) for b in boundaries)
                dims_p = homology(ChainComplex(p, dims, mod_p))
                assert dims_p == _uct_expected(h_z, p), (name, p)
