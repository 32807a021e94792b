"""Exact matrix kernels: one implementation of each, shared by every module.

Matrices are sequences of rows (lists or tuples) of Python ints or
Fractions; vectors are sequences of entries.  Row reduction has one loop per
field: Fraction arithmetic over Q, and integers reduced mod p over GF(p).
Ranks and column bases over GF(p) come from a sparse column reduction
instead, since the chain matrices they serve have a few nonzeros per column.
Integer Smith normal form lives in fpgroups, which certifies it.
"""

from __future__ import annotations


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Sparsity-aware product; the chain matrices here are mostly zeros."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    nz_b = [
        [(j, bt[j]) for j in range(cols) if bt[j]] for bt in b
    ]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            x = ai[t]
            if x:
                for j, y in nz_b[t]:
                    oi[j] += x * y
    return out


def mat_vec(a, v) -> list:
    """a @ v, skipping the zero entries of v."""
    nz_v = [(t, x) for t, x in enumerate(v) if x]
    return [sum(row[t] * x for t, x in nz_v) for row in a]


def det(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _kernel_basis(red, pivots, ncols) -> list[list]:
    """Right-nullspace basis read off a reduced echelon form (free var = 1)."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# over Q


def rref_q(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q; returns every row (the first
    len(pivots) are the pivot rows) and the pivot columns."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace_q(rows, ncols: int) -> list[list]:
    """Basis of the right nullspace over Q in reduced echelon form.

    The rows must hold Fractions (or be empty), so that division is exact.
    """
    if not rows:
        return identity(ncols)
    return _kernel_basis(*rref_q(rows), ncols)


# ---------------------------------------------------------------------------
# over GF(p)


def rref_mod(rows, p, pivot_cols=None) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p), pivoting only in the first
    `pivot_cols` columns (all by default); the remaining columns ride along
    as right-hand sides.  Returns every row (the first len(pivots) are the
    pivot rows) and the pivot columns."""
    rows = [[x % p for x in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if pivot_cols is not None:
        ncols = pivot_cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def sparse_columns(matrix, p, ncols=None) -> list[dict[int, int]]:
    """The columns of a row-major matrix as {row: value} dicts mod p.

    `ncols` is needed only when the matrix may have no rows."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    cols: list[dict[int, int]] = [{} for _ in range(ncols)]
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x % p:
                cols[j][i] = x % p
    return cols


def _add_multiple(dst: dict, src: dict, f: int, p: int):
    """dst += f * src (mod p) on sparse vectors, dropping the zeros."""
    for i, x in src.items():
        y = (dst.get(i, 0) + f * x) % p
        if y:
            dst[i] = y
        else:
            del dst[i]


def apply_columns_mod(cols, vec, p) -> dict[int, int]:
    """The matrix with sparse columns `cols` applied to the sparse vector
    `vec` over GF(p), as a sparse vector."""
    out: dict[int, int] = {}
    for j, y in vec.items():
        _add_multiple(out, cols[j], y, p)
    return out


def reduce_columns_mod(cols, p, track=False):
    """Lowest-nonzero column reduction over GF(p), left to right.

    `cols` are sparse columns ({row: value} dicts).  Each column in turn has
    multiples of earlier reduced columns subtracted until its lowest
    nonzero row is owned by no earlier column, or it is zero.  Returns
    (reduced, combos, lows):

    - reduced[j] is the reduced column j; it is zero exactly when input
      column j lies in the span of the columns before it, so the nonzero
      reduced columns form a basis of the column space;
    - with `track`, combos[j] is the {column: coefficient} combination of
      input columns that gives reduced[j], with coefficient 1 on column j
      itself (without `track`, combos is None);
    - lows maps each pivot row to the column whose lowest nonzero it is.

    This is the reduction of persistent homology (Edelsbrunner, Letscher
    and Zomorodian 2002; Zomorodian and Carlsson 2005).
    """
    reduced: list[dict[int, int]] = []
    combos: list[dict[int, int]] | None = [] if track else None
    lows: dict[int, int] = {}
    for j, col in enumerate(cols):
        col = {i: x % p for i, x in col.items() if x % p}
        combo = {j: 1}
        while col:
            low = max(col)
            owner = lows.get(low)
            if owner is None:
                lows[low] = j
                break
            other = reduced[owner]
            f = -col[low] * pow(other[low], -1, p) % p
            _add_multiple(col, other, f, p)
            if track:
                _add_multiple(combo, combos[owner], f, p)
        reduced.append(col)
        if track:
            combos.append(combo)
    return reduced, combos, lows


def rank_mod(matrix, p) -> int:
    """Rank over GF(p): the number of nonzero reduced columns."""
    reduced, _, _ = reduce_columns_mod(sparse_columns(matrix, p), p)
    return sum(1 for col in reduced if col)


def solve_many_mod(matrix, rhs_cols, p) -> list:
    """Solutions x_j with matrix @ x_j = rhs_cols[j] (mod p); None entries
    mark inconsistent systems.  One elimination serves every right side."""
    nrows = len(matrix)
    n_a = len(matrix[0]) if matrix else 0
    if n_a == 0:
        return [
            [] if all(x % p == 0 for x in col) else None for col in rhs_cols
        ]
    aug = [list(matrix[i]) + [col[i] for col in rhs_cols] for i in range(nrows)]
    aug, pivots = rref_mod(aug, p, n_a)
    r = len(pivots)
    solutions = []
    for j in range(len(rhs_cols)):
        col = n_a + j
        if any(aug[i][col] for i in range(r, nrows)):
            solutions.append(None)
            continue
        x = [0] * n_a
        for ri, pc in enumerate(pivots):
            x[pc] = aug[ri][col]
        solutions.append(x)
    return solutions


def column_space_basis_mod(matrix, p) -> list[list[int]]:
    """Columns of `matrix` spanning its column space over GF(p), as vectors:
    those independent of the columns before them, the pivot columns of the
    reduced row echelon form."""
    reduced, _, _ = reduce_columns_mod(sparse_columns(matrix, p), p)
    pivots = [j for j, col in enumerate(reduced) if col]
    return [[matrix[i][j] % p for i in range(len(matrix))] for j in pivots]
