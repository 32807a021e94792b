"""Desk-scale Smith theory for finite simplicial complexes with cyclic actions.

Simplices are sorted tuples of string vertex ids; orientation signs come from
sorting permutations, so all chain matrices are deterministic.  Homology is
exact: Smith normal form over Z (via fpgroups), sparse column reduction over
GF(p) (via linalg).  Every matrix is a list of sparse {row: value} columns:
the boundaries of the one ChainComplex over Z or GF(p) (Z homology copies
each into dense rows only for its certified Smith normal form), sigma, tau,
homology representatives, induced maps and the transfer.  The Smith
sequences run in orbit-shift coordinates, where each subcomplex they use is
a set of coordinates and tau a shift (see _OrbitShiftComplex).

Regularity of an action is validated, never assumed.  Four conditions are
checked: (R1) a simplex mapped to itself by a nontrivial power is fixed
pointwise, (R2) every nontrivial power has the same fixed set, (R3) no
simplex carries two vertices of one orbit, (R4) distinct simplex orbits have
distinct vertex-orbit sets.  (R1)-(R2) suffice for the Smith operator and
exact-sequence machinery; (R3)-(R4) additionally make the orbit space a
simplicial complex and the transfer well defined.  barycentric_subdivide is
the repair tool: the second subdivision of any simplicial action is regular.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb, gcd, isqrt, lcm

from .fpgroups import AbelianGroup, snf_diagonal
from .linalg import eliminate_mod, mul_columns_mod, rank_mod, reduce_columns_mod


class SmithError(Exception):
    pass


class NotAComplex(SmithError):
    pass


class NotRegular(SmithError):
    def __init__(self, violations):
        super().__init__(f"action is not regular: {violations}")
        self.violations = violations


class NotPrime(SmithError):
    pass


class BadPrime(SmithError):
    pass


class NotASimplex(SmithError, ValueError):
    """A vertex tuple that is not a simplex of the complex."""


# ---------------------------------------------------------------------------
# simplicial complexes


class SimplicialComplex:
    """Finite complex; simplices[k] is the sorted tuple of k-simplices."""

    # no __slots__: the cached properties below are kept in __dict__

    def __init__(self, simplices: tuple[tuple[tuple[str, ...], ...], ...]):
        self.simplices = simplices

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.simplices == other.simplices
        return NotImplemented

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex(simplices={self.simplices!r})"

    @staticmethod
    def build(simplices) -> "SimplicialComplex":
        closed: set[tuple[str, ...]] = set()
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not s:
                raise NotAComplex("empty simplex")
            for r in range(1, len(s) + 1):
                closed.update(itertools.combinations(s, r))
        if not closed:
            return SimplicialComplex(((),))
        top = max(len(s) for s in closed) - 1
        by_dim = tuple(
            tuple(sorted(s for s in closed if len(s) == k + 1)) for k in range(top + 1)
        )
        return SimplicialComplex(by_dim)

    @property
    def dimension(self) -> int:
        return len(self.simplices) - 1

    def vertices(self) -> tuple[str, ...]:
        return tuple(s[0] for s in self.simplices[0]) if self.simplices[0] else ()

    def n_simplices(self, k: int) -> int:
        if 0 <= k <= self.dimension:
            return len(self.simplices[k])
        return 0

    @cached_property
    def _orbit_walks(self) -> dict:
        """By order and permutation, the walk of an action's last check."""
        return {}

    @cached_property
    def _positions(self) -> tuple[dict[tuple[str, ...], int], ...]:
        """Per dimension, the index of each simplex, built once."""
        return tuple({s: i for i, s in enumerate(level)} for level in self.simplices)

    def index(self, simplex: tuple[str, ...]) -> int:
        try:
            return self._positions[len(simplex) - 1][simplex]
        except (IndexError, KeyError):
            raise NotASimplex(f"{simplex!r} is not a simplex of the complex") from None

    def all_simplices(self):
        for level in self.simplices:
            yield from level

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(level) for k, level in enumerate(self.simplices))


def _vertex_id(v) -> str:
    if not isinstance(v, str):
        raise SmithError(f"vertex id {v!r} is not a string")
    return v


def complex_from_json(data) -> SimplicialComplex:
    simplices = data.get("simplices") if isinstance(data, dict) else None
    if not isinstance(simplices, list) or not all(isinstance(s, list) for s in simplices):
        raise NotAComplex('a complex needs a "simplices" list of vertex lists')
    return SimplicialComplex.build([tuple(_vertex_id(v) for v in s) for s in simplices])


def complex_to_json(k: SimplicialComplex) -> dict:
    return {"simplices": [list(s) for s in k.all_simplices()]}


def polygon(n: int, stem: str = "p") -> SimplicialComplex:
    """Boundary of an n-gon: the circle triangulated with n vertices."""
    if n < 3:
        raise SmithError("polygon needs at least 3 vertices")
    names = [f"{stem}{i}" for i in range(n)]
    return SimplicialComplex.build(
        [(names[i], names[(i + 1) % n]) for i in range(n)]
    )


def cone_complex(base: SimplicialComplex, apex: str = "apex") -> SimplicialComplex:
    """Cone over the base: every simplex joined to the apex (disc over a circle)."""
    if apex in base.vertices():
        raise SmithError(f"apex {apex!r} already a vertex of the base")
    simplices = list(base.all_simplices())
    simplices.append((apex,))
    simplices.extend(tuple(sorted(s + (apex,))) for s in base.all_simplices())
    return SimplicialComplex.build(simplices)


def suspension_complex(
    base: SimplicialComplex, north: str = "north", south: str = "south"
) -> SimplicialComplex:
    """Suspension: two cones glued along the base (sphere over a circle)."""
    cones = [cone_complex(base, apex) for apex in (north, south)]
    return SimplicialComplex.build(s for cone in cones for s in cone.all_simplices())


# ---------------------------------------------------------------------------
# cyclic actions


class CyclicAction:
    """Order-s action given by the vertex permutation of a chosen generator."""

    __slots__ = ("order", "perm")

    def __init__(self, order: int, perm: dict[str, str]):
        self.order = order
        self.perm = perm
        if order < 1:
            raise SmithError(f"group order {order} is not positive")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.order, self.perm) == (other.order, other.perm)
        return NotImplemented

    def __repr__(self) -> str:
        return f"CyclicAction(order={self.order!r}, perm={self.perm!r})"

    def orbit_of_vertex(self, v: str) -> tuple[str, ...]:
        out = [v]
        cur = self.perm[v]
        while cur != v:
            out.append(cur)
            cur = self.perm[cur]
        return tuple(sorted(out))


def action_from_json(data) -> CyclicAction:
    if not (isinstance(data, dict) and type(data.get("order")) is int
            and isinstance(data.get("perm"), dict)):
        raise SmithError('an action needs an integer "order" and a "perm" object')
    perm = {_vertex_id(u): _vertex_id(v) for u, v in data["perm"].items()}
    return CyclicAction(data["order"], perm)


def action_to_json(a: CyclicAction) -> dict:
    return {"order": a.order, "perm": dict(a.perm)}


def rotation_action(n: int, step: int, stem: str = "p", extra_fixed=()) -> CyclicAction:
    """Rotation of the n-gon by `step`; order n / gcd(n, step)."""
    names = [f"{stem}{i}" for i in range(n)]
    perm = {names[i]: names[(i + step) % n] for i in range(n)}
    for v in extra_fixed:
        perm[v] = v
    return CyclicAction(n // gcd(n, step), perm)


def trivial_action(k: SimplicialComplex, order: int) -> CyclicAction:
    return CyclicAction(order, {v: v for v in k.vertices()})


def validate_action(k: SimplicialComplex, a: CyclicAction):
    """The permutation must be a simplicial automorphism of the stated order.
    Returns each vertex's orbit length and smallest orbit vertex, and per
    dimension the (row, sign) the generator sends each simplex to."""
    if set(a.perm) != set(k.vertices()):
        raise SmithError("permutation domain differs from the vertex set")
    if sorted(a.perm.values()) != sorted(a.perm):
        raise SmithError("vertex map is not a permutation")
    length, rep = {}, {}
    for v in k.vertices():
        if v not in rep:
            orbit = a.orbit_of_vertex(v)
            for u in orbit:
                length[u], rep[u] = len(orbit), orbit[0]
    if any(a.order % n for n in length.values()):
        raise SmithError(f"generator does not have order dividing {a.order}")
    t = tuple(tuple(_simplex_images(k, k, a.perm, d)) for d in range(k.dimension + 1))
    return length, {v: rep[v] for v in k.vertices()}, t


class _Orbits:
    __slots__ = ("t", "rep", "violations")

    def __init__(self, t: tuple, rep: dict, violations: tuple):
        self.t = t  # per dimension, the (row, sign) the generator sends each simplex to
        self.rep = rep  # the smallest vertex of each vertex's orbit
        self.violations = violations  # what check_regularity returned


def check_regularity(k: SimplicialComplex, a: CyclicAction) -> list[str]:
    """Violated regularity conditions; empty when the action is regular.

    One walk of the generator's cycles per dimension: a simplex on a cycle
    of length L is mapped to itself by the powers L divides, and fixed
    pointwise by those the lcm of its vertices' orbit lengths divides (R1).
    g^j fixes {v : length(v) divides j}, which for 0 < j < N (N the true
    order) is g's fixed set iff every moved vertex has orbit length N (R2).
    (R3) and (R4) key each simplex orbit by its vertex orbits, once over all
    dimensions.  The walk is kept on k."""
    length, rep, t = validate_action(k, a)
    order = lcm(*length.values())
    found = set()
    if any(1 < n < order for n in length.values()):
        found.add("R2: fixed sets of nontrivial powers differ")
    keys: set[frozenset] = set()
    for level, images in zip(k.simplices, t):
        seen = [False] * len(level)
        for j, s in enumerate(level):
            if seen[j]:
                continue
            steps, i = 0, j
            while not seen[i]:
                seen[i] = True
                i = images[i][0]
                steps += 1
            key = frozenset(rep[v] for v in s)
            if steps < lcm(*(length[v] for v in s)):
                found.add("R1: setwise-invariant simplex not pointwise fixed")
            if len(key) < len(s):
                found.add("R3: simplex carries two vertices of one orbit")
            if key in keys:
                found.add("R4: two simplex orbits share one vertex-orbit set")
            keys.add(key)
    violations = sorted(found)
    k._orbit_walks[_action_key(a)] = _Orbits(t, rep, tuple(violations))
    return violations


def _action_key(a: CyclicAction):
    return a.order, tuple(a.perm.items())


def _orbits(k: SimplicialComplex, a: CyclicAction) -> _Orbits:
    """The walk of the last regularity check of (k, a), made now if none was."""
    key = _action_key(a)
    if key not in k._orbit_walks:
        check_regularity(k, a)
    return k._orbit_walks[key]


# ---------------------------------------------------------------------------
# barycentric subdivision


def _bary_name(s: tuple[str, ...]) -> str:
    return s[0] if len(s) == 1 else "(" + "+".join(s) + ")"


def barycentric_subdivide(
    k: SimplicialComplex, a: CyclicAction | None = None
) -> tuple[SimplicialComplex, CyclicAction | None]:
    """One barycentric subdivision; the action extends over barycenters.

    The r-simplices are the flags s_0 < ... < s_r of simplices of k, on
    their barycenters.  Every sub-chain of a flag is a flag, so the flags of
    each length are already closed under faces.  The action is validated
    by its orbit walk, which also names the image of each simplex.
    """
    flags_at: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    levels: list[list[tuple[str, ...]]] = [[] for _ in k.simplices]
    for s in k.all_simplices():
        own = [(_bary_name(s),)]
        for r in range(1, len(s)):
            for face in itertools.combinations(s, r):
                own.extend(flag + own[0] for flag in flags_at[face])
        flags_at[s] = own
        for flag in own:
            levels[len(flag) - 1].append(tuple(sorted(flag)))
    new_k = SimplicialComplex(tuple(tuple(sorted(set(level))) for level in levels))
    if a is None:
        return new_k, None
    perm = {
        _bary_name(s): _bary_name(level[row])
        for level, images in zip(k.simplices, _orbits(k, a).t)
        for s, (row, _) in zip(level, images)
    }
    return new_k, CyclicAction(a.order, perm)


def ensure_regular(
    k: SimplicialComplex, a: CyclicAction, max_rounds: int = 2
) -> tuple[SimplicialComplex, CyclicAction, int]:
    """Subdivide until the regularity validator passes (at most max_rounds)."""
    return _ensure_regular(k, a, max_rounds)


def _ensure_regular(k, a, max_rounds=2):
    """ensure_regular, which traces of the public name do not count."""
    rounds = 0
    while _orbits(k, a).violations:
        if rounds >= max_rounds:
            raise NotRegular(list(_orbits(k, a).violations))
        k, a = barycentric_subdivide(k, a)
        rounds += 1
    return k, a, rounds


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """Boundary matrices over Z or Z_p; boundaries[k] maps C_k to C_{k-1}."""

    __slots__ = ("coefficients", "dims", "boundaries")

    def __init__(self, coefficients: object, dims: tuple[int, ...], boundaries: tuple):
        self.coefficients = coefficients  # "Z" or a prime int
        self.dims = dims
        self.boundaries = boundaries  # boundaries[k]: dims[k] sparse columns on dims[k-1] rows
        p = None if coefficients == "Z" else int(coefficients)
        for k in range(2, len(boundaries)):
            if any(mul_columns_mod(boundaries[k - 1], boundaries[k], p)):
                raise NotAComplex("boundary squared is nonzero")


def _sort_sign(values) -> int:
    """Parity sign of the permutation sorting the values (0 on duplicates)."""
    if len(set(values)) != len(values):
        return 0
    inversions = sum(x > y for x, y in itertools.combinations(values, 2))
    return -1 if inversions % 2 else 1


def boundary_columns(k: SimplicialComplex, dim: int) -> list[dict[int, int]]:
    """The boundary of each dim-simplex as a sparse integer column
    {face index: +-1}; zero columns below dimension 1."""
    if dim < 1 or dim > k.dimension:
        return [{} for _ in range(k.n_simplices(dim))]
    faces = k._positions[dim - 1]
    return [
        {faces[s[:drop] + s[drop + 1 :]]: (-1) ** drop for drop in range(len(s))}
        for s in k.simplices[dim]
    ]


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _prime(p) -> int:
    p = int(p)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def chain_complex(k: SimplicialComplex, coefficients="Z") -> ChainComplex:
    """The chain complex as sparse boundary columns ([] in dimension 0),
    over Z or reduced mod p."""
    p = None if coefficients == "Z" else _prime(coefficients)
    boundaries = [[]] + [boundary_columns(k, d) for d in range(1, k.dimension + 1)]
    if p is not None:
        boundaries = [[{i: x % p for i, x in col.items()} for col in b] for b in boundaries]
    dims = tuple(k.n_simplices(d) for d in range(k.dimension + 1))
    return ChainComplex(coefficients, dims, tuple(boundaries))


# ---------------------------------------------------------------------------
# homology


def homology(c: ChainComplex):
    """Over Z: list of AbelianGroup; over Z_p: list of vector-space dims."""
    if c.coefficients != "Z":
        return _dims_mod(c.dims, c.boundaries, int(c.coefficients))
    # one certified Smith normal form per boundary, on a dense copy made for
    # it alone, gives its rank and torsion
    diags = [
        snf_diagonal(_rows(b, c.dims[k - 1])) if k >= 1 and b and c.dims[k - 1] else []
        for k, b in enumerate(c.boundaries)
    ] + [[]]
    ranks = [sum(1 for d in diag if d != 0) for diag in diags]
    return [
        AbelianGroup(
            c.dims[k] - ranks[k] - ranks[k + 1],
            tuple(d for d in diags[k + 1] if d > 1),
        )
        for k in range(len(c.dims))
    ]


def _rows(cols, nrows) -> list[list[int]]:
    """The row-major matrix with the given sparse columns."""
    matrix = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            matrix[i][j] = x
    return matrix


def _dims_mod(dims, boundaries, p) -> list[int]:
    """Betti numbers over GF(p), ranking each boundary's sparse columns once."""
    ranks = [rank_mod(b, p) for b in boundaries] + [0]
    return [dims[k] - ranks[k] - ranks[k + 1] for k in range(len(dims))]


def simplicial_homology(k: SimplicialComplex, coefficients="Z"):
    """Over Z: list of AbelianGroup; over Z_p: list of vector-space dims."""
    return homology(chain_complex(k, coefficients))


def reduced_is_trivial(k: SimplicialComplex, p: int) -> bool:
    dims = simplicial_homology(k, p)
    return bool(dims) and dims[0] == 1 and all(d == 0 for d in dims[1:])


# ---------------------------------------------------------------------------
# chain maps


def _simplex_images(src, dst, vmap, d) -> list[tuple[int, int]]:
    """(row, sign) of the one nonzero in each column of the d-th chain map
    of a simplicial map; sign 0 (and row -1) on degenerate images.  Refuses
    the first simplex, in complex order, whose image is not a simplex."""
    positions = dst._positions[d]
    out = []
    for s in src.simplices[d]:
        images = [vmap[v] for v in s]
        sign = _sort_sign(images)
        row = positions.get(tuple(sorted(images))) if sign else -1
        if row is None:
            raise SmithError(f"image of simplex {s} is not a simplex")
        out.append((row, sign))
    return out


def _orbit(t, j, steps):
    """(row, sign) of t^m e_j for m = 0, ..., steps - 1: the signed orbit of
    simplex j under the signed permutation t."""
    i, c = j, 1
    for _ in range(steps):
        yield i, c
        i, sign = t[i]
        c *= sign


def _column(terms, p) -> dict[int, int]:
    """Sparse column {row: value} summing the (row, value) terms over GF(p)."""
    col: dict[int, int] = {}
    for i, x in terms:
        col[i] = col.get(i, 0) + x
    return {i: x % p for i, x in col.items() if x % p}


def chain_map_from_vertex_map(
    src: SimplicialComplex, dst: SimplicialComplex, vmap: dict[str, str]
) -> list[list[dict[int, int]]]:
    """Sparse integer columns per dimension of a simplicial map: the signed
    image of each simplex; degenerate images give 0."""
    return [
        [{i: sign} if sign else {} for i, sign in _simplex_images(src, dst, vmap, d)]
        for d in range(src.dimension + 1)
    ]


# ---------------------------------------------------------------------------
# Smith operators


class SmithOperators:
    __slots__ = ("p", "sigma", "tau", "t")

    def __init__(self, p: int, sigma: tuple, tau: tuple, t: tuple):
        self.p = p
        self.sigma = sigma  # per dimension, the sparse columns of 1 + t + ... + t^{p-1} over Z_p
        self.tau = tau  # per dimension, the sparse columns of 1 - t over Z_p
        self.t = t  # per dimension, the (row, sign) that t sends each simplex to

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            mine = (self.p, self.sigma, self.tau, self.t)
            return mine == (other.p, other.sigma, other.tau, other.t)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"SmithOperators(p={self.p!r}, sigma={self.sigma!r}, tau={self.tau!r}, t={self.t!r})"
        )


def _prime_order(a: CyclicAction) -> int:
    if not _is_prime(a.order):
        raise NotPrime(f"group order {a.order} is not prime")
    return a.order


def smith_operators(k: SimplicialComplex, a: CyclicAction) -> SmithOperators:
    """sigma and tau as chain maps over Z_p, with the ring identities
    sigma*tau = tau*sigma = 0 and sigma = tau^{p-1} verified exactly.

    Needs prime order and the (R1)-(R2) half of regularity.
    """
    _prime_order(a)
    check_regularity(k, a)  # afresh: the operators come from this call's walk
    return _smith_operators(k, a)


def _smith_operators(k, a) -> SmithOperators:
    """smith_operators on the walk of the regularity check of (k, a)."""
    p, ts = a.order, _operator_walk(k, a)
    sigma = tuple([_column(_orbit(t, j, p), p) for j in range(len(t))] for t in ts)
    tau = tuple([_column(((j, 1), (i, -sign)), p) for j, (i, sign) in enumerate(t)] for t in ts)
    return SmithOperators(p, sigma, tau, ts)


def _operator_walk(k, a) -> tuple:
    """The signed permutations t of the walk of (k, a), per dimension, once
    the Smith operators they define are known to be sound: (R1)-(R2) hold
    and the ring identities are checked."""
    orbits = _orbits(k, a)
    violations = [v for v in orbits.violations if v.startswith(("R1", "R2"))]
    if violations:
        raise NotRegular(violations)
    for t in orbits.t:
        _check_operator_identities(a.order, t)
    return orbits.t


def _check_operator_identities(p, t):
    """sigma*tau = tau*sigma = 0 and sigma = tau^{p-1} for the operators
    that _smith_operators builds from the signed permutation t of one
    dimension: sigma = 1 + t + ... + t^{p-1} and tau = 1 - t.

    Both products are 1 - t^p, and tau^{p-1} = sum_m C(p-1, m) (-1)^m t^m
    is sigma, since C(p-1, m) (-1)^m = 1 mod p.  So the identities hold
    exactly when p steps of each simplex's orbit bring it back to itself
    with a sign = 1 mod p (at p = 2 a sign of -1 passes)."""
    for j in range(len(t)):
        *_, (i, c) = _orbit(t, j, p + 1)
        if i != j or (c - 1) % p:
            raise SmithError("sigma * tau != 0")


def operator_power(ops: SmithOperators, i: int) -> list:
    """Sparse columns per dimension of tau^i (tau^0 = 1; tau^{p-1} = sigma;
    i >= p gives 0).

    Column j of (1 - t)^i is sum_m C(i, m) (-1)^m t^m e_j, read off the
    first i + 1 steps of j's orbit.
    """
    binomials = [(-1) ** m * comb(i, m) for m in range(i + 1)]
    return [
        [
            _column(((r, b * c) for b, (r, c) in zip(binomials, _orbit(t, j, i + 1))), ops.p)
            for j in range(len(t))
        ]
        for t in ops.t
    ]


# ---------------------------------------------------------------------------
# C(Y; Z_p) in orbit-shift coordinates


class _OrbitShiftComplex:
    """C(Y; Z_p) of a regular Z_p action in orbit-shift coordinates.

    In dimension d the nf fixed simplices come first, one coordinate each.
    Then each of the F free orbits, o-th in the order of its smallest simplex
    e, has u_i = tau^i e (i < p) at index nf + (p - 1 - i) * F + o.  tau
    sends u_i to u_{i+1} (u_p = 0) and kills the fixed simplices, so tau^j
    is a shift by j levels, and each subcomplex of the Smith sequences is a
    range of coordinates per dimension, starting at 0 or at nf (see levels).
    """

    # no __slots__: _reductions is a cached property, kept in __dict__

    def __init__(self, p: int, counts: list, chains: ChainComplex, _homologies: dict | None = None):
        self.p = p
        self.counts = counts  # counts[d]: (nf, F)
        self.chains = chains  # the boundaries in these coordinates
        self._homologies = {} if _homologies is None else _homologies

    def levels(self, j, fixed=False) -> tuple[range, ...]:
        """Per dimension, the coordinates of level >= j, and the fixed ones
        when asked: im tau^j is levels(j) for j >= 1, sigma C is
        levels(p - 1), and rhobar C + C(Y^w) for rho = tau^j is
        levels(p - j, fixed=True)."""
        return tuple(range(0 if fixed else nf, nf + (self.p - j) * f) for nf, f in self.counts)

    def shift(self, d, vec, j) -> dict:
        return _shift(vec, j, self.p, *self.counts[d])

    def restricted(self, coords) -> list:
        """The boundary columns of a coordinate set, rows named as in the
        whole complex; refused when they leave the set."""
        out = [b[r.start : r.stop] for b, r in zip(self.chains.boundaries, coords)]
        for rows, cols in zip(coords, out[1:]):
            if any(col and (min(col) < rows.start or max(col) >= rows.stop) for col in cols):
                raise SmithError("subspace is not closed under the boundary")
        return out

    def homology(self, coords) -> _HomologyBasis:
        """Homology of a coordinate set, in the coordinates of the whole
        complex; built once per set.

        A range from 0 is reduced by the start of the reduction of all the
        columns.  So is a closed range from nf: it has no fixed rows, and a
        fixed column has only fixed rows, so owns none of the range's lows.
        """
        if coords not in self._homologies:
            self.restricted(coords)  # refuses a set the boundary leaves
            self._homologies[coords] = _homology_of(coords, self._reductions, self.p)
        return self._homologies[coords]

    @cached_property
    def _reductions(self) -> list:
        return [reduce_columns_mod(b, self.p, track=True) for b in self.chains.boundaries]


def _shift(vec, j, p, nf, f) -> dict:
    """tau^j of a sparse vector in orbit-shift coordinates with nf fixed and
    f free coordinates per level: a shift by j levels (j < 0 shifts back)
    that drops what leaves the levels; the fixed coordinates stay only when
    j = 0."""
    if j == 0:
        return dict(vec)
    step, end = j * f, nf + p * f
    return {i - step: x for i, x in vec.items() if i >= nf and nf <= i - step < end}


def _orbit_shift_complex(k: SimplicialComplex, a: CyclicAction) -> _OrbitShiftComplex:
    """C(k; Z_p) in orbit-shift coordinates, from the orbit walk of (k, a),
    once _operator_walk has refused what the Smith operators do not
    describe: after it, an orbit that is not fixed has p simplices, and p
    steps bring each back with sign +1.

    A simplex on a free orbit is c t^m e for its orbit's e and a sign c, and
    t^m e = (1 - tau)^m e = sum_i C(m, i) (-1)^i u_i.  The boundary commutes
    with tau, so the boundary of u_i is tau^i of that of e: the boundary of
    each representative, rewritten so, gives its whole orbit's columns.
    """
    p = a.order
    binomials = [[(-1) ** i * comb(m, i) for i in range(m + 1)] for m in range(p)]
    counts, boundaries, below = [], [], {}
    for d, t in enumerate(_operator_walk(k, a)):
        fixed = [j for j, (i, _) in enumerate(t) if i == j]
        nf, f = len(fixed), (len(t) - len(fixed)) // p
        coords = {j: {m: 1} for m, j in enumerate(fixed)}  # each simplex in coordinates
        reps = []
        for j in range(len(t)):
            if j not in coords:
                for m, (i, c) in enumerate(_orbit(t, j, p)):
                    coords[i] = {
                        nf + (p - 1 - l) * f + len(reps): c * b for l, b in enumerate(binomials[m])
                    }
                reps.append(j)
        cols = []
        if d:
            faces = boundary_columns(k, d)
            cols = [
                _column(((y, x * v) for i, x in faces[e].items() for y, v in below[i].items()), p)
                for e in fixed + reps
            ]
            levels = reversed(range(p))
            cols[nf:] = [_shift(col, l, p, *counts[-1]) for l in levels for col in cols[nf:]]
        boundaries.append(cols)
        counts.append((nf, f))
        below = coords
    dims = tuple(nf + p * f for nf, f in counts)
    return _OrbitShiftComplex(p, counts, ChainComplex(p, dims, tuple(boundaries)))


# ---------------------------------------------------------------------------
# homology with representatives over GF(p)


class _HomologyBasis:
    __slots__ = ("p", "dims", "reps", "boundary_basis", "owners")

    def __init__(self, p: int, dims: list, reps: list, boundary_basis: list, owners: list):
        self.p = p
        self.dims = dims
        self.reps = reps  # reps[d]: sparse cycles spanning H_d
        self.boundary_basis = boundary_basis  # sparse basis of im(boundary_{d+1})
        # owners[d]: the lowest nonzero row of each column of reps[d] +
        # boundary_basis[d] -> (its index there, the column); all distinct
        self.owners = owners

    def classify_many(self, d: int, vecs) -> list:
        """The class of each cycle, as sparse coordinates on reps[d]: the
        multiples of the reps taken in eliminating it against the owners."""
        n = len(self.reps[d])
        out = []
        for vec in vecs:
            left, taken = eliminate_mod(vec, self.owners[d], self.p)
            if left:
                raise SmithError("vector is not a cycle in this complex")
            out.append({i: c for i, c in taken.items() if i < n})
        return out


def _homology_basis(dims, boundaries, p) -> _HomologyBasis:
    reductions = [reduce_columns_mod(b, p, track=True) for b in boundaries]
    return _homology_of([range(n) for n in dims], reductions, p)


def _homology_of(coords, reductions, p) -> _HomologyBasis:
    """Homology of the subcomplex on the columns coords[d] of each boundary,
    where reductions[d], the tracked reduction of boundary d, restricted to
    those columns is their own reduction.

    The cycles of C_d are the combinations behind the zero columns of
    reduced boundary_d, each with its lowest nonzero, a 1, on its own
    column.  The nonzero reduced columns of boundary_{d+1} are a basis of
    its image, and each has its lowest nonzero on a cycle's own column.
    Lowest entries are distinct, so the cycles whose column is not such a
    low complete that image basis to a basis of the cycles: they represent
    homology.  Together with the image basis they are in echelon form, so a
    cycle's class needs no further reduction of them (classify_many).
    """
    reps, bnd_bases, owners = [], [], []
    for d, cols in enumerate(coords):
        reduced, combos, _ = reductions[d]
        if d >= 1:
            cycles = {j: combos[j] for j in cols if not reduced[j]}
        else:
            cycles = {j: {j: 1} for j in cols}
        pivots = {}  # lowest row -> reduced column of boundary_{d+1}, in column order
        if d + 1 < len(coords):
            up = coords[d + 1]
            reduced_up, _, lows_up = reductions[d + 1]
            pivots = {i: reduced_up[j] for i, j in lows_up.items() if j in up}
        rep_lows = [j for j in cycles if j not in pivots]
        reps.append([cycles[j] for j in rep_lows])
        bnd_bases.append(list(pivots.values()))
        owners.append(dict(zip(rep_lows + list(pivots), enumerate(reps[-1] + bnd_bases[-1]))))
    return _HomologyBasis(p, [len(r) for r in reps], reps, bnd_bases, owners)


def _induced_on_homology(src: _HomologyBasis, dst: _HomologyBasis, maps):
    """Per dimension, the sparse columns of the induced map on homology."""
    ndims = min(len(src.dims), len(dst.dims), len(maps))
    return [
        dst.classify_many(d, mul_columns_mod(maps[d], src.reps[d], src.p))
        for d in range(ndims)
    ]


def _exact_at(incoming, outgoing, middle_dim, p) -> bool:
    """im(incoming) = ker(outgoing) inside a middle space of that dimension."""
    if rank_mod(incoming, p) + rank_mod(outgoing, p) != middle_dim:
        return False
    return not any(mul_columns_mod(outgoing, incoming, p))


# ---------------------------------------------------------------------------
# orbit complex and the transfer


def orbit_complex(
    k: SimplicialComplex, a: CyclicAction
) -> tuple[SimplicialComplex, dict[str, str]]:
    """Quotient complex and the vertex projection; refuses non-regular input."""
    violations = list(_orbits(k, a).violations)
    if violations:
        raise NotRegular(violations)
    return _orbit_complex(k, a)


def _orbit_complex(k, a):
    """orbit_complex of an action known to be regular."""
    rep = _orbits(k, a).rep
    simplices = {tuple(sorted({rep[v] for v in s})) for s in k.all_simplices()}
    return SimplicialComplex.build(simplices), dict(rep)


class TransferReport:
    # no __slots__: the CLI prints vars(report), in this order
    def __init__(
        self,
        group_order: int,
        prime: int,
        mu_is_chain_map: bool,
        chain_level_pi_mu_is_s: bool,
        action_homologically_trivial: bool,
        pi_mu_is_s_on_homology: bool,
        mu_pi_is_sigma_on_homology: bool,
        projection_iso_on_homology: bool,
        homology_dims_y: list,
        homology_dims_x: list,
    ):
        self.group_order = group_order
        self.prime = prime
        self.mu_is_chain_map = mu_is_chain_map
        self.chain_level_pi_mu_is_s = chain_level_pi_mu_is_s
        self.action_homologically_trivial = action_homologically_trivial
        self.pi_mu_is_s_on_homology = pi_mu_is_s_on_homology
        self.mu_pi_is_sigma_on_homology = mu_pi_is_sigma_on_homology
        self.projection_iso_on_homology = projection_iso_on_homology
        self.homology_dims_y = homology_dims_y
        self.homology_dims_x = homology_dims_x

    @property
    def all_identities_hold(self) -> bool:
        return (
            self.mu_is_chain_map
            and self.chain_level_pi_mu_is_s
            and self.pi_mu_is_s_on_homology
            and self.mu_pi_is_sigma_on_homology
        )


def _transfer_maps(k, a, x, vrep, pi, q):
    """Per-dimension sparse columns over Z_q of mu, of sigma = the sum of the
    s powers of the generator g, and of g, from orbit walks on the signed
    permutation t of each dimension's simplices.  mu's column for an orbit
    simplex is sigma's column for its smallest preimage, times the sign pi
    gives that preimage."""
    s_order = a.order
    mu, sigma, g = [], [], []
    for d, t in enumerate(_orbits(k, a).t):
        sig = [_column(_orbit(t, j, s_order), q) for j in range(len(t))]
        fibers: dict[tuple, list] = {}
        for jy, sim in enumerate(k.simplices[d]):
            fibers.setdefault(tuple(sorted({vrep[v] for v in sim})), []).append(jy)
        cols = []
        for jx, xs in enumerate(x.simplices[d]):
            jy = fibers[xs][0]  # simplices are sorted: the smallest preimage
            if set(fibers[xs]) != {i for i, _ in _orbit(t, jy, s_order)}:
                raise NotRegular(["fiber is not a single orbit"])
            cols.append({i: pi[d][jy][jx] * v % q for i, v in sig[jy].items()})
        mu.append(cols)
        sigma.append(sig)
        g.append([_column([image], q) for image in t])
    return mu, sigma, g


def _scalar(n, c, q) -> list[dict[int, int]]:
    """Sparse columns of c times the n x n identity over Z_q, c a unit."""
    return [{j: c % q} for j in range(n)]


def transfer_check(k: SimplicialComplex, a: CyclicAction, q: int) -> TransferReport:
    """Build the transfer mu over Z_q and verify its composition identities.

    mu sends an orbit simplex to sigma of its lexicographically smallest
    preimage, sign-adjusted so that pi mu = |w| holds on the nose.  Checks:
    mu is a chain map, pi mu = s at chain level, pi_* mu_* = s and
    mu_* pi_* = sigma_* on homology over Z_q, homological triviality of the
    generator, and (then) that pi_* is an isomorphism.
    """
    _prime(q)
    s_order = a.order
    if s_order % q == 0:
        raise BadPrime(f"{q} divides the group order {s_order}")
    x, vrep = orbit_complex(k, a)  # raises NotRegular when not regular
    if x.dimension != k.dimension:
        raise NotRegular(["quotient drops dimension"])
    pi = chain_map_from_vertex_map(k, x, vrep)
    mu, sigma_maps, g = _transfer_maps(k, a, x, vrep, pi, q)
    chain_pi_mu = all(
        mul_columns_mod(pi[d], mu[d], q) == _scalar(len(mu[d]), s_order, q)
        for d in range(k.dimension + 1)
    )

    cy, cx = chain_complex(k, q), chain_complex(x, q)
    bd_y, bd_x = cy.boundaries, cx.boundaries
    mu_chain_map = all(
        mul_columns_mod(bd_y[d], mu[d], q) == mul_columns_mod(mu[d - 1], bd_x[d], q)
        for d in range(1, k.dimension + 1)
    )

    hy = _homology_basis(cy.dims, bd_y, q)
    hx = _homology_basis(cx.dims, bd_x, q)
    pi_star = _induced_on_homology(hy, hx, pi)
    mu_star = _induced_on_homology(hx, hy, mu)
    pimu_ok = all(
        mul_columns_mod(pi_star[d], mu_star[d], q) == _scalar(n, s_order, q)
        for d, n in enumerate(hx.dims)
    )
    sigma_star = _induced_on_homology(hy, hy, sigma_maps)
    mupi_ok = all(
        mul_columns_mod(mu_star[d], pi_star[d], q) == sigma_star[d]
        for d in range(len(hy.dims))
    )
    g_star = _induced_on_homology(hy, hy, g)
    trivial = all(g_star[d] == _scalar(n, 1, q) for d, n in enumerate(hy.dims))
    iso = hy.dims == hx.dims and all(
        rank_mod(pi_star[d], q) == n for d, n in enumerate(hy.dims)
    )
    return TransferReport(
        group_order=s_order,
        prime=q,
        mu_is_chain_map=mu_chain_map,
        chain_level_pi_mu_is_s=chain_pi_mu,
        action_homologically_trivial=trivial,
        pi_mu_is_s_on_homology=pimu_ok,
        mu_pi_is_sigma_on_homology=mupi_ok,
        projection_iso_on_homology=iso and trivial,
        homology_dims_y=hy.dims,
        homology_dims_x=hx.dims,
    )


# ---------------------------------------------------------------------------
# special Smith homology and the exact sequences


def special_smith_homology(k: SimplicialComplex, a: CyclicAction, i: int) -> list:
    """Dimensions of H^rho(Y; Z_p) for rho = tau^i (tau^{p-1} = sigma)."""
    p = _prime_order(a)
    cx = _orbit_shift_complex(k, a)
    if not 1 <= i <= p - 1:
        raise SmithError("rho = tau^i needs 1 <= i <= p-1")
    rho_c = cx.levels(i)
    return _dims_mod([len(r) for r in rho_c], cx.restricted(rho_c), p)


def relative_homology_dims(k: SimplicialComplex, sub_vertices, p: int) -> list:
    """Dims of H(K, A; Z_p), A the full subcomplex on sub_vertices."""
    sub_vertices = set(sub_vertices)
    keep = [
        [j for j, s in enumerate(level) if not sub_vertices.issuperset(s)]
        for level in k.simplices
    ]
    # A is a subcomplex, so these boundaries square to zero as those of K do
    amb = chain_complex(k, p).boundaries
    boundaries: list = [[]]
    for d in range(1, k.dimension + 1):
        rows = {i: r for r, i in enumerate(keep[d - 1])}
        boundaries.append(
            [{rows[i]: x for i, x in amb[d][j].items() if i in rows} for j in keep[d]]
        )
    return _dims_mod([len(cols) for cols in keep], boundaries, p)


class SequenceReport:
    # no __slots__: the CLI prints vars(report), in this order
    def __init__(
        self,
        p: int,
        subdivisions_for_quotient: int,
        ses_exact: bool,
        les_rho_exact: bool,
        les_tau_exact: bool,
        special_matches_pair: bool,
        special_dims_sigma: list,
        pair_dims: list,
        prop4_premises: bool,
        prop4_conclusion: bool,
    ):
        self.p = p
        self.subdivisions_for_quotient = subdivisions_for_quotient
        self.ses_exact = ses_exact
        self.les_rho_exact = les_rho_exact  # sequences through H(Y) and the fixed set
        self.les_tau_exact = les_tau_exact  # tau-power sequences into H^sigma
        self.special_matches_pair = special_matches_pair
        self.special_dims_sigma = special_dims_sigma
        self.pair_dims = pair_dims
        self.prop4_premises = prop4_premises
        self.prop4_conclusion = prop4_conclusion

    @property
    def prop4_implication_holds(self) -> bool:
        return (not self.prop4_premises) or self.prop4_conclusion

    @property
    def all_exact(self) -> bool:
        return self.ses_exact and self.les_rho_exact and self.les_tau_exact


def verify_smith_sequences(k: SimplicialComplex, a: CyclicAction) -> SequenceReport:
    """Exactness of the Smith sequences, degree by degree, over Z_p.

    For each rho = tau^j the chain-level short exact sequence
    0 -> rhobar C + C(Y^w) -> C(Y) -> rho C -> 0 and its long homology
    sequence; for each j the sequence 0 -> sigma C -> tau^j C -> tau^{j+1} C
    -> 0 likewise.  Every subcomplex is a set of orbit-shift coordinates.
    Also compares H^sigma with the pair homology of the quotient (on a
    regular subdivision when the quotient needs one) and instantiates the
    Z_p-acyclicity transfer statement.
    """
    # regularity is checked once per complex and action, here for (k, a)
    # and in _ensure_regular for each subdivision
    p = _prime_order(a)
    cx = _orbit_shift_complex(k, a)

    ses_ok = les_rho_ok = les_tau_ok = True
    for j in range(1, p):
        # rho = tau^j: A_j = rhobar C + C(Y^w) is the kernel of the shift by j
        a_j, rho_c = cx.levels(p - j, fixed=True), cx.levels(j)
        for d, n in enumerate(cx.chains.dims):
            inc = [{x: 1} for x in a_j[d]]
            ses_ok &= (
                rank_mod(inc, p) == len(inc)
                and len(inc) + len(rho_c[d]) == n
                and not any(cx.shift(d, col, j) for col in inc)
            )
        les_rho_ok &= _les_exact(cx, a_j, cx.levels(0, fixed=True), rho_c, j)
        les_tau_ok &= _les_exact(cx, cx.levels(p - 1), cx.levels(j), cx.levels(j + 1), 1)

    # H^sigma of the regular subdivision, or of k when it is regular
    kq, aq, rounds = _ensure_regular(k, a)
    cq = _orbit_shift_complex(kq, aq) if rounds else cx
    sigma_c = cq.levels(p - 1)
    sigma_dims = _dims_mod([len(r) for r in sigma_c], cq.restricted(sigma_c), p)
    xq, vrep = _orbit_complex(kq, aq)
    fixed_image = {vrep[v] for v in kq.vertices() if aq.perm[v] == v}
    pair = relative_homology_dims(xq, fixed_image, p)
    special_ok = all(
        x == y for x, y in itertools.zip_longest(sigma_dims, pair, fillvalue=0)
    )

    fixed_simplices = [s for s in k.all_simplices() if all(a.perm[v] == v for v in s)]
    premises = (
        bool(fixed_simplices)
        and reduced_is_trivial(SimplicialComplex.build(fixed_simplices), p)
        and reduced_is_trivial(xq, p)
    )
    return SequenceReport(
        p=p,
        subdivisions_for_quotient=rounds,
        ses_exact=ses_ok,
        les_rho_exact=les_rho_ok,
        les_tau_exact=les_tau_ok,
        special_matches_pair=special_ok,
        special_dims_sigma=sigma_dims,
        pair_dims=pair,
        prop4_premises=premises,
        prop4_conclusion=reduced_is_trivial(k, p),
    )


def _les_exact(cx: _OrbitShiftComplex, a, b, c, j) -> bool:
    """... -> H_n(A) -> H_n(B) -> H_n(C) -> H_{n-1}(A) -> ... is exact.

    0 -> A -> B -> C -> 0 is a short exact sequence of coordinate sets of
    cx: A -> B is the inclusion and B -> C is tau^j, a shift by j levels.
    """
    p = cx.p
    h_a, h_b, h_c = cx.homology(a), cx.homology(b), cx.homology(c)
    ndim = len(b)
    i_star, q_star, delta_star = [], [], []
    for d in range(ndim):
        images = cx.shift(d, dict.fromkeys(b[d], 1), j)
        if any(x not in b[d] for x in a[d]) or any(y not in c[d] for y in images):
            return False  # A is not in B, or the shift does not map B into C
        i_star.append(h_b.classify_many(d, h_a.reps[d]))
        q_star.append(h_c.classify_many(d, [cx.shift(d, z, j) for z in h_b.reps[d]]))
        # connecting map: lift each class of C back through the shift, take
        # the boundary of the lift and read it in A
        lifts = [cx.shift(d, z, -j) for z in h_c.reps[d]]
        if any(len(lift) < len(z) or any(x not in b[d] for x in lift)
               for lift, z in zip(lifts, h_c.reps[d])):
            return False  # a class of C that the shift does not reach from B
        if d == 0:
            delta_star.append([{} for _ in lifts])  # H_{-1}(A) = 0
            continue
        chains = mul_columns_mod(cx.chains.boundaries[d], lifts, p)
        if any(i not in a[d - 1] for col in chains for i in col):
            return False
        delta_star.append(h_a.classify_many(d - 1, chains))

    for d in range(ndim):
        if not _exact_at(i_star[d], q_star[d], h_b.dims[d], p):
            return False
        if not _exact_at(q_star[d], delta_star[d], h_c.dims[d], p):
            return False
        if d >= 1 and not _exact_at(delta_star[d], i_star[d - 1], h_a.dims[d - 1], p):
            return False
    # at the very top of the ladder nothing comes in: i_* must be injective
    return rank_mod(i_star[-1], p) == h_a.dims[-1]
