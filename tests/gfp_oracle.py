"""Dense Gauss-Jordan elimination over GF(p) and over Q, kept as the oracle
for the sparse column reduction of exoticaffine.linalg, the two helpers
that turn sparse columns into a dense matrix and back, the whole dense
product of two matrices, and the column-space
basis and the sparse solver that the ambient-basis Smith oracle builds its
subcomplexes and maps from."""

from fractions import Fraction

from exoticaffine.linalg import _add_multiple, _entries, _ratio, mat_mul_rows, reduce_columns_mod


def sparse_columns(matrix, p, ncols=None) -> list[dict]:
    """The columns of a row-major matrix as {row: value} dicts, mod p
    unless p is None.

    `ncols` is needed only when the matrix may have no rows."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    cols: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            y = x if p is None else x % p
            if y:
                cols[j][i] = y
    return cols


def column_space_basis_mod(cols, p) -> list[dict]:
    """The sparse columns that span the column space over GF(p): those
    independent of the columns before them."""
    reduced, _, _ = reduce_columns_mod(cols, p)
    return [col for col, red in zip(cols, reduced) if red]


def solve_columns_mod(basis, targets, p) -> list:
    """Sparse solutions {basis column: coefficient} of basis @ x = target
    over GF(p) (over Q when p is None), one per target; None where the
    target is not in the column span.  The basis is reduced once, with the
    combinations tracked; each target is then reduced against the lowest
    nonzeros of the reduced basis only, and the multiples taken give its
    solution."""
    if not targets:
        return []
    reduced, combos, lows = reduce_columns_mod(basis, p, track=True)
    solutions = []
    for target in targets:
        col = _entries(target, p)
        x: dict = {}
        while col:
            low = max(col)
            owner = lows.get(low)
            if owner is None:
                break
            other = reduced[owner]
            f = _ratio(col[low], other[low], p)
            _add_multiple(col, other, -f, p)
            _add_multiple(x, combos[owner], f, p)
        solutions.append(None if col else x)
    return solutions



def dense(cols, nrows=None) -> list[list[int]]:
    """The row-major matrix whose columns are the sparse {row: value}
    columns `cols`; square unless `nrows` is given."""
    if nrows is None:
        nrows = len(cols)
    matrix = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            matrix[i][j] = x
    return matrix


def mat_mul(a, b) -> list[list[int]]:
    """a @ b as a list of rows."""
    return list(mat_mul_rows(a, b))


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


def rref_q(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q; returns every row (the first
    len(pivots) are the pivot rows) and the pivot columns.  The entries are
    exact rationals (ints or Fractions, never floats); they are made
    Fractions here, so that every division is exact."""
    assert not any(isinstance(x, float) for r in rows for x in r), rows
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def nullspace_q(rows, ncols: int) -> list[list]:
    """Basis of the right nullspace over Q in reduced echelon form: one
    vector per free column, in column order, with 1 on that column and
    zeros on the other free columns."""
    if not rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref_q(rows)
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
