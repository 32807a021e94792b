"""Exact matrix kernels: one implementation of each, shared by every module.

Dense matrices over Z are sequences of rows (lists or tuples) of Python ints;
vectors are sequences of entries.  An exact rational is stored as an int
when it is integral and as a Fraction otherwise (`coefficient`), and
`exact_quotient` divides two of them without ever making a float.  For
elimination, over GF(p) and over Q alike, a matrix is a list of sparse
columns, {row: value} dicts, since the chain matrices and derivation images
here have a few nonzeros per column: one lowest-nonzero column reduction
gives ranks, column bases and kernels, and a column is eliminated against
the lowest nonzeros of columns in that echelon form.  Over Q the reduction
is fraction-free: it works on integer multiples of the columns.  Integer
Smith normal form lives in fpgroups, which certifies it by products with
the inverses it tracks, read one row at a time from mat_mul_rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm


def coefficient(c):
    """The exact rational c as an int when it is integral, else as a
    Fraction.  c may be anything Fraction() accepts except text in exponent
    notation, a ValueError: rational text comes from outside the program,
    and '1e9999999' names an integer that takes seconds to build."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if type(c) is str and ("e" in c or "E" in c):
            raise ValueError(f"{c!r}: exponent notation is not read")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def exact_quotient(a, b):
    """a / b for exact rationals: an int when b divides a, else a Fraction.
    (a / b on two ints would be a float.)"""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return coefficient(a / b)


def identity(n: int) -> list[list[int]]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul_rows(a, b):
    """The rows of a @ b, one at a time.  `a` may be any iterable of rows,
    so a product of several factors can be checked row by row without any
    whole intermediate matrix.  Sparsity-aware: each row of b is read only
    at its nonzero entries; the chain matrices here are mostly zeros."""
    cols = len(b[0]) if b else 0
    support = [list(compress(range(cols), bt)) for bt in b]
    for ai in a:
        out = [0] * cols
        for x, bt, js in zip(ai, b, support):
            if x:
                for j in js:
                    out[j] += x * bt[j]
        yield out


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


# ---------------------------------------------------------------------------
# sparse columns over GF(p), or over Q when p is None


def _entries(col: dict, p) -> dict:
    """The nonzero entries of a sparse column, reduced mod p unless p is None."""
    if p is None:
        return {i: x for i, x in col.items() if x}
    return {i: y for i, x in col.items() if (y := x % p)}


def _ratio(a, b, p):
    """a / b in GF(p), or in Q when p is None."""
    return Fraction(a, b) if p is None else a * pow(b, -1, p) % p


def _add_multiple(dst: dict, src: dict, f, p):
    """dst += f * src (mod p unless p is None) on sparse vectors, dropping
    the zeros.  The reduction is inline: a helper call per entry would
    double the cost of this, the innermost loop of every elimination."""
    for i, x in src.items():
        y = dst.get(i, 0) + f * x
        if p is not None:
            y %= p
        if y:
            dst[i] = y
        elif i in dst:
            del dst[i]


def apply_columns_mod(cols, vec, p) -> dict:
    """The matrix with sparse columns `cols` applied to the sparse vector
    `vec` over GF(p), as a sparse vector."""
    out: dict = {}
    for j, y in vec.items():
        _add_multiple(out, cols[j], y, p)
    return out


def _integral_column(col) -> tuple[dict, int]:
    """A column over Q as (its nonzero entries times den, den), den the
    least common multiple of their denominators: an integer column."""
    den = lcm(*(x.denominator for x in col.values()))
    return {i: x.numerator * (den // x.denominator) for i, x in col.items() if x}, den


def _scale(vec: dict, a: int):
    """vec *= a in place."""
    for i in vec:
        vec[i] *= a


def _divide_content(col: dict, combo: dict):
    """Divide the integer column and its combination by the gcd of all
    their entries, in place; combo is never empty."""
    g = gcd(*col.values(), *combo.values())
    if g > 1:
        for vec in (col, combo):
            for i in vec:
                vec[i] //= g


def reduce_columns_mod(cols, p, track=False):
    """Lowest-nonzero column reduction over GF(p), or over Q when p is None
    (int or Fraction entries), left to right.

    `cols` are sparse columns ({row: value} dicts; the rows may be any
    mutually comparable keys).  Each column in turn has multiples of earlier
    reduced columns subtracted until its lowest nonzero row is owned by no
    earlier column, or it is zero.  Returns (reduced, combos, lows):

    - reduced[j] is the reduced column j; it is zero exactly when input
      column j lies in the span of the columns before it, so the nonzero
      reduced columns form a basis of the column space;
    - with `track`, combos[j] is the {column: coefficient} combination of
      input columns that gives reduced[j], with coefficient 1 on column j
      itself and otherwise nonzero only on earlier nonzero reduced columns
      (without `track`, combos is None).  So the combinations of the zero
      reduced columns are the kernel basis of the reduced echelon form,
      free column by free column;
    - lows maps each pivot row to the column whose lowest nonzero it is.

    This is the reduction of persistent homology (Edelsbrunner, Letscher
    and Zomorodian 2002; Zomorodian and Carlsson 2005).  Over Q it runs on
    integers, in the manner of Bareiss's integer-preserving elimination
    (Math. Comp. 22 (1968) 565-578): each column's denominators are cleared
    once, a pivot is cancelled by col = a col - b other with a, b the pivot
    pair over their gcd, and the column and its combination are divided by
    their content.  Each stays a multiple of the column and combination
    described above, and one division by the coefficient on column j at the
    end gives them exactly.
    """
    reduced: list[dict] = []
    combos: list[dict] = []
    lows: dict = {}
    for j, col in enumerate(cols):
        if p is None:
            col, den = _integral_column(col)
            combo = {j: den}
        else:
            col = _entries(col, p)
            combo = {j: 1}
        while col:
            low = max(col)
            owner = lows.get(low)
            if owner is None:
                lows[low] = j
                break
            other = reduced[owner]
            if p is None:
                # col = a col - b other cancels the pivot, with a > 0
                a, b = other[low], col[low]
                g = gcd(a, b) if a > 0 else -gcd(a, b)
                a, b = a // g, b // g
                if a != 1:
                    _scale(col, a)
                    _scale(combo, a)
                _add_multiple(col, other, -b, None)
                if track:
                    _add_multiple(combo, combos[owner], -b, None)
                _divide_content(col, combo)
            else:
                f = -_ratio(col[low], other[low], p)
                _add_multiple(col, other, f, p)
                if track:
                    _add_multiple(combo, combos[owner], f, p)
        reduced.append(col)
        combos.append(combo)
    if p is None:
        for j, combo in enumerate(combos):
            lead = combo[j]
            if lead != 1:
                reduced[j] = {i: exact_quotient(x, lead) for i, x in reduced[j].items()}
                if track:
                    combos[j] = {k: exact_quotient(x, lead) for k, x in combo.items()}
    return reduced, combos if track else None, lows


def mul_columns_mod(a, b, p) -> list[dict]:
    """a @ b over GF(p) on sparse columns: a applied to each column of b."""
    return [apply_columns_mod(a, col, p) for col in b]


def rank_mod(cols, p) -> int:
    """Rank over GF(p) of sparse columns: the number of nonzero reduced
    columns."""
    reduced, _, _ = reduce_columns_mod(cols, p)
    return sum(1 for col in reduced if col)


def eliminate_mod(col, owners, p) -> tuple[dict, dict]:
    """Eliminate a sparse column against sparse columns with distinct
    lowest nonzero rows, over GF(p) (over Q when p is None).

    `owners` maps the lowest nonzero row of each column to (name, column).
    While the lowest nonzero left has an owner, the multiple of that column
    which cancels it is subtracted.  Returns what is left, zero exactly when
    col lies in the span of the columns, and {name: multiple} of the columns
    subtracted."""
    col = _entries(col, p)
    taken: dict = {}
    while col:
        low = max(col)
        if low not in owners:
            break
        name, other = owners[low]
        f = _ratio(col[low], other[low], p)
        _add_multiple(col, other, -f, p)
        taken[name] = f
    return col, taken
