"""Dense GF(p) elimination, kept as the oracle for the sparse column kernels
of exoticaffine.linalg, and the one helper that reads sparse columns as a
dense matrix."""


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
