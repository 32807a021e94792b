"""Finitely presented group arithmetic at desk scale.

Words are sequences of signed 1-based generator indices; nothing here solves
the word problem.  The decidable core is integer Smith normal form with
recorded unimodular transforms, certified by the exact inverses tracked
alongside them (no determinant is taken), abelianization via the relator
exponent-sum matrix, the named presentations of the Pham-Brieskorn circle of
groups, the triangle-group trichotomy, the homology-sphere criterion, and the
covering matrix exponent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from . import dualgraph
from .linalg import identity, mat_mul_rows


class GroupError(Exception):
    pass


class InvalidParams(GroupError):
    pass


class NotCoprime(GroupError):
    pass


class WrongShape(GroupError):
    pass


Word = tuple[int, ...]


class Presentation:
    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]):
        self.generators = generators
        self.relators = relators
        n = len(generators)
        for word in relators:
            for letter in word:
                if letter == 0 or abs(letter) > n:
                    raise GroupError(f"letter {letter} out of range in relator {word}")

    def spell(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            letter = word[i]
            j = i
            while j < len(word) and word[j] == letter:
                j += 1
            count = (j - i) * (1 if letter > 0 else -1)
            name = self.generators[abs(letter) - 1]
            parts.append(name if count == 1 else f"{name}^{count}")
            i = j
        return "*".join(parts)


def presentation_from_json(data) -> Presentation:
    """{"gens": [names], "rels": [[signed 1-based generator indices]]}."""
    gens = data.get("gens") if isinstance(data, dict) else None
    rels = data.get("rels") if isinstance(data, dict) else None
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise GroupError('a presentation needs a "gens" list of generator names')
    if not isinstance(rels, list) or not all(
        isinstance(w, list) and all(type(x) is int for x in w) for w in rels
    ):
        raise GroupError('a presentation needs a "rels" list of integer words')
    return Presentation(tuple(gens), tuple(tuple(w) for w in rels))


class AbelianGroup:
    """Z^free_rank + Z/d1 + ... with the divisibility chain d1 | d2 | ..."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        self.free_rank = free_rank
        self.torsion = torsion
        for d in torsion:
            if d <= 1:
                raise GroupError("torsion coefficients must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise GroupError("torsion coefficients must form a divisibility chain")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.free_rank, self.torsion) == (other.free_rank, other.torsion)
        return NotImplemented

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self) -> str:
        return f"AbelianGroup(free_rank={self.free_rank!r}, torsion={self.torsion!r})"

    @property
    def trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """U, S, V with U*M*V = S diagonal, d1 | d2 | ..., U and V unimodular.

    M must be a rectangular list of rows of ints.  Row operations accumulate
    in U and column operations in V; the inverse of each is applied to U^-1
    and V^-1 on the other side, so both inverses are known exactly.  Before
    returning, S is checked diagonal with a non-negative divisibility chain,
    and the exact products U*U^-1 = I, V*V^-1 = I and U*M = S*V^-1 are
    checked one row at a time.  Two integer matrices whose product is I both
    have determinant +-1, so the first two certify U and V unimodular, and
    with V*V^-1 = I the third is U*M*V = S.
    """
    s = _int_rows(matrix)
    rows = len(s)
    cols = len(s[0]) if rows else 0
    u, u_inv = identity(rows), identity(rows)
    v, v_inv = identity(cols), identity(cols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, c):
        s[dst] = [a + c * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + c * b for a, b in zip(u[dst], u[src])]
        for r in u_inv:
            r[src] -= c * r[dst]

    def add_col(src, dst, c):
        for r in s:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]
        v_inv[src] = [a - c * b for a, b in zip(v_inv[src], v_inv[dst])]

    def negate_row(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    n = min(rows, cols)
    for k in range(n):
        while True:
            # the first entry of least |a|, in row-major order: a unit
            # cannot be beaten, so the search stops at the first one
            pivot = None
            best = None
            for i in range(k, rows):
                row = s[i]
                for j in range(k, cols):
                    a = row[j]
                    if a and (best is None or abs(a) < best):
                        best = abs(a)
                        pivot = (i, j)
                        if best == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                break
            i, j = pivot
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            dirty = False
            p = s[k][k]
            for i in range(k + 1, rows):
                if s[i][k]:
                    q = s[i][k] // p
                    add_row(k, i, -q)
                    if s[i][k]:
                        dirty = True
            row = s[k]
            for j in range(k + 1, cols):
                if row[j]:
                    q = row[j] // p
                    add_col(k, j, -q)
                    if row[j]:
                        dirty = True
            if not dirty:
                # no sweep left a remainder, so row k and column k are clear;
                # the pivot must divide the rest of the block for the chain,
                # and a unit divides everything
                if abs(p) == 1:
                    break
                offender = None
                for i in range(k + 1, rows):
                    for j in range(k + 1, cols):
                        if s[i][j] % p != 0:
                            offender = i
                            break
                    if offender:
                        break
                if offender is None:
                    break
                add_row(offender, k, 1)
        if k < rows and k < cols and s[k][k] < 0:
            negate_row(k)
    _validate_snf(matrix, u, s, v, u_inv, v_inv)
    return u, s, v


def _int_rows(matrix) -> list[list[int]]:
    """A row-by-row copy of the matrix; WrongShape unless it is a
    rectangular list of rows of ints (a bool is not an int here)."""
    if not isinstance(matrix, (list, tuple)) or not (
        {type(row) for row in matrix} <= {list, tuple}
    ):
        raise WrongShape("matrix must be a list of rows")
    rows = [list(row) for row in matrix]
    if len(set(map(len, rows))) > 1:
        raise WrongShape("matrix rows must all have the same length")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise WrongShape("matrix entries must be integers")
    return rows


def _is_identity(rows, n: int) -> bool:
    """Whether n rows, given one at a time, are those of the n x n identity."""
    return all(len(row) == n and row[i] == 1 and row.count(0) == n - 1
               for i, row in enumerate(rows))


def _validate_snf(m, u, s, v, u_inv, v_inv):
    """Certify U*M*V = S with S in Smith normal form and U, V unimodular,
    U^-1 and V^-1 being their claimed inverses; GroupError otherwise.  Every
    product is checked row by row against the row it must equal, so no
    whole product matrix is built."""
    diag = []
    for i, row in enumerate(s):
        d = row[i] if i < len(row) else 0
        if row.count(0) != len(row) - (d != 0):
            raise GroupError("SNF matrix S is not diagonal")
        if d < 0:
            raise GroupError("SNF diagonal entry is negative")
        if i < len(row):
            diag.append(d)
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise GroupError("SNF zero ordering violated")
        if a not in (0,) and b % a != 0:
            raise GroupError("SNF divisibility chain violated")
    if not (_is_identity(mat_mul_rows(u, u_inv), len(u))
            and _is_identity(mat_mul_rows(v, v_inv), len(v))):
        raise GroupError("SNF transforms are not unimodular")
    # with V V^-1 = I, U M V = S is U M = S V^-1, whose row i is d_i times
    # row i of V^-1, and zero past the diagonal
    if len(u) != len(s):
        raise GroupError("SNF identity U*M*V = S failed")
    zero = [0] * len(v_inv)
    for i, got in enumerate(mat_mul_rows(u, m)):
        d = diag[i] if i < len(diag) else 0
        if got != ([d * x for x in v_inv[i]] if d else zero):
            raise GroupError("SNF identity U*M*V = S failed")


def snf_diagonal(matrix) -> list[int]:
    _, s, _ = smith_normal_form(matrix)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


# ---------------------------------------------------------------------------
# abelianization


def relator_matrix(p: Presentation) -> list[list[int]]:
    """Rows = relators, columns = generators, entries = exponent sums."""
    rows = []
    for word in p.relators:
        row = [0] * len(p.generators)
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return rows


def abelianization(p: Presentation) -> AbelianGroup:
    """H1 of the presentation: cokernel of the relator exponent matrix."""
    if not p.relators:
        return AbelianGroup(len(p.generators), ())
    diag = snf_diagonal(relator_matrix(p))
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d > 1)
    return AbelianGroup(len(p.generators) - len(nonzero), torsion)


# ---------------------------------------------------------------------------
# named presentations


def _power(letter: int, k: int) -> Word:
    if k >= 0:
        return (letter,) * k
    return (-letter,) * (-k)


def _inverse(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


def bezout_alpha(k: int, l: int) -> tuple[int, int, Word]:
    """Canonical (p, q) with k p + l q = 1 and the word for alpha = a^q b^p.

    Among all solutions, |p| is minimized; a tie (only when l = 2|p|) is
    broken toward positive p.  Generators: a = 1, b = 2.
    """
    _positive(k, l)
    if gcd(k, l) != 1:
        raise NotCoprime(f"gcd({k},{l}) != 1")
    # p = k^-1 mod l; the least |p| in that class is r or r - l
    r = pow(k, -1, l)
    p = min((r, r - l), key=lambda c: (abs(c), -c))
    q = (1 - k * p) // l
    assert k * p + l * q == 1
    word = _power(1, q) + _power(2, p)
    return p, q, word


def named_presentation(name: str, **params) -> Presentation:
    """Presentations: bkl(k,l), bkls(k,l,s), gkls(k,l,s), tkls(k,l,s),
    b3quot(s), xtquot(t)."""
    key = name.lower()
    if key == "bkl":
        k, l = _params(key, params, "k", "l")
        _positive(k, l)
        return Presentation(("a", "b"), (_power(1, k) + _power(2, -l),))
    if key == "bkls":
        k, l, s = _params(key, params, "k", "l", "s")
        _positive(k, l, s)
        p, q, alpha = bezout_alpha(k, l)
        return Presentation(("a", "b"), (_power(1, k) + _power(2, -l), alpha * s))
    if key == "gkls":
        k, l, s = _params(key, params, "k", "l", "s")
        _positive(k, l, s)
        central = (1, 2, 3)
        return Presentation(
            ("g1", "g2", "g3"),
            (
                _power(1, k) + _inverse(central),
                _power(2, l) + _inverse(central),
                _power(3, s) + _inverse(central),
            ),
        )
    if key == "tkls":
        k, l, s = _params(key, params, "k", "l", "s")
        _positive(k, l, s)
        return Presentation(
            ("b1", "b2", "b3"),
            (
                _power(1, 2),
                _power(2, 2),
                _power(3, 2),
                (1, 2) * k,
                (2, 3) * l,
                (3, 1) * s,
            ),
        )
    if key == "b3quot":
        (s,) = _params(key, params, "s")
        _positive(s)
        braid = (1, 2, 1, -2, -1, -2)
        return Presentation(("s1", "s2"), (braid, _power(1, s), _power(2, s)))
    if key == "xtquot":
        (t,) = _params(key, params, "t")
        m00, n00, m10, n10, m01, n01, m11, n11 = _covering(dualgraph._xt_validate, t)
        # generators a0, a1, b0, b1 = 1, 2, 3, 4
        commutators = []
        for ai in (1, 2):
            for bj in (3, 4):
                commutators.append((ai, bj, -ai, -bj))
        relators = commutators + [
            _power(1, m00) + _power(3, n00),
            _power(2, m10) + _power(3, n10),
            _power(1, m01) + _power(4, n01),
            _power(2, m11) + _power(4, n11),
        ]
        return Presentation(("a0", "a1", "b0", "b1"), tuple(relators))
    raise InvalidParams(f"unknown presentation {name!r}")


def _params(key: str, params: dict, *names: str) -> list:
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise InvalidParams(f"{key} needs {', '.join(missing)}")
    return [params[n] for n in names]


def _positive(*values):
    if any(v < 1 for v in values):
        raise InvalidParams("parameters must be positive integers")


def _covering(check, t):
    """check(t) for one of dualgraph's covering-matrix functions; a bad T
    raises this module's WrongShape with dualgraph's message."""
    try:
        return check(t)
    except dualgraph.WrongShape as exc:
        raise WrongShape(str(exc)) from None


# ---------------------------------------------------------------------------
# classification helpers


def triangle_classification(k: int, l: int, s: int) -> str:
    """Finite / Nilpotent / ContainsF2 by comparing 1/k + 1/l + 1/s with 1."""
    if min(k, l, s) < 2:
        raise InvalidParams("triangle parameters must be >= 2")
    total = Fraction(1, k) + Fraction(1, l) + Fraction(1, s)
    if total > 1:
        return "Finite"
    if total == 1:
        return "Nilpotent"
    return "ContainsF2"


def homology_sphere_check(k: int, l: int, s: int) -> bool:
    """The link of x^k - y^l - z^s is a homology sphere iff k, l, s are
    pairwise coprime.

    Note this is a statement about the manifold, not about the central
    extension built by named_presentation("gkls"): that group is perfect only
    when |kls - kl - ks - ls| = 1 (e.g. (2,3,5) and (2,3,7)), a strictly
    stronger condition than coprimality ((2,5,7) gives H1 = Z/11).  The
    implication "abelianization trivial => pairwise coprime" does hold.
    """
    if min(k, l, s) < 2:
        raise InvalidParams("parameters must be >= 2")
    return gcd(k, l) == 1 and gcd(k, s) == 1 and gcd(l, s) == 1


def gkls_abelianization_order(k: int, l: int, s: int) -> int:
    """|k l s - k l - k s - l s|, the order of H1 of the gkls presentation.

    0 means H1 is infinite, of free rank 1.  For k,l,s >= 2 that happens
    exactly when 1/k + 1/l + 1/s = 1, i.e. at (2,3,6), (2,4,4) and (3,3,3)
    up to order, where H1 is Z, Z + Z/2 and Z + Z/3 respectively.
    """
    return abs(k * l * s - k * l - k * s - l * s)


def xt_exponent(t) -> int:
    """Delta = m00 n10 m11 n01 - m01 n11 m10 n00 = -det T, the exponent
    killing a0."""
    return -_covering(dualgraph.xt_certificate, t).determinant
