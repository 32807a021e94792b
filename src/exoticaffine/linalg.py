"""Exact matrix kernels: one implementation of each, shared by every module.

Over Z and Q, matrices are sequences of rows (lists or tuples) of Python ints
or Fractions; vectors are sequences of entries.  Row reduction over Q runs on
Fractions.  Over GF(p) a matrix is a list of sparse columns, {row: value}
dicts, since the chain matrices there have a few nonzeros per column: one
lowest-nonzero column reduction gives ranks, column bases and solutions.
`sparse_columns` turns a row-major matrix into such columns.  Integer Smith
normal form lives in fpgroups, which certifies it.
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


def mul_columns_mod(a, b, p) -> list[dict[int, int]]:
    """a @ b over GF(p) on sparse columns: a applied to each column of b."""
    return [apply_columns_mod(a, col, p) for col in b]


def rank_mod(cols, p) -> int:
    """Rank over GF(p) of sparse columns: the number of nonzero reduced
    columns."""
    reduced, _, _ = reduce_columns_mod(cols, p)
    return sum(1 for col in reduced if col)


def solve_columns_mod(basis, targets, p) -> list:
    """Sparse solutions {basis column: coefficient} of basis @ x = target
    over GF(p), one per target; None where the target is not in the column
    span.  The basis is reduced once, with the combinations tracked; each
    target is then reduced against the lowest nonzeros of the reduced basis
    only, and the multiples taken give its solution."""
    if not targets:
        return []
    reduced, combos, lows = reduce_columns_mod(basis, p, track=True)
    solutions = []
    for target in targets:
        col = {i: x % p for i, x in target.items() if x % p}
        x: dict[int, int] = {}
        while col:
            low = max(col)
            owner = lows.get(low)
            if owner is None:
                break
            other = reduced[owner]
            f = col[low] * pow(other[low], -1, p) % p
            _add_multiple(col, other, -f, p)
            _add_multiple(x, combos[owner], f, p)
        solutions.append(None if col else x)
    return solutions


def column_space_basis_mod(cols, p) -> list[dict[int, int]]:
    """The sparse columns that span the column space over GF(p): those
    independent of the columns before them."""
    reduced, _, _ = reduce_columns_mod(cols, p)
    return [col for col, red in zip(cols, reduced) if red]
