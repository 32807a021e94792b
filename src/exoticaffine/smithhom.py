"""Desk-scale Smith theory for finite simplicial complexes with cyclic actions.

Simplices are sorted tuples of string vertex ids; orientation signs come from
sorting permutations, so all chain matrices are deterministic.  Homology is
exact: Smith normal form over Z (via fpgroups), sparse column reduction over
the field with p elements (via linalg) for mod-p questions.  Over Z a chain
matrix is a list of dense rows (boundary_matrix, ChainComplex).  Over GF(p)
every matrix is a list of sparse {row: value} columns, as linalg computes on
them: the boundaries, sigma and tau, subcomplex bases, homology
representatives, induced maps and the transfer.

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
from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd

from .fpgroups import AbelianGroup, snf_diagonal
from .linalg import (
    apply_columns_mod,
    column_space_basis_mod,
    mat_mul,
    mul_columns_mod,
    rank_mod,
    reduce_columns_mod,
    solve_columns_mod,
    sparse_columns,
)


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


# ---------------------------------------------------------------------------
# simplicial complexes


@dataclass(frozen=True)
class SimplicialComplex:
    """Finite complex; simplices[k] is the sorted tuple of k-simplices."""

    simplices: tuple[tuple[tuple[str, ...], ...], ...]

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
    def _positions(self) -> tuple[dict[tuple[str, ...], int], ...]:
        """Per dimension, the index of each simplex, built once."""
        return tuple({s: i for i, s in enumerate(level)} for level in self.simplices)

    def index(self, simplex: tuple[str, ...]) -> int:
        try:
            return self._positions[len(simplex) - 1][simplex]
        except (IndexError, KeyError):
            raise ValueError(f"{simplex!r} is not a simplex of the complex") from None

    def all_simplices(self):
        for level in self.simplices:
            yield from level

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(level) for k, level in enumerate(self.simplices))


def complex_from_json(data) -> SimplicialComplex:
    return SimplicialComplex.build([tuple(s) for s in data["simplices"]])


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
    for apex in (north, south):
        if apex in base.vertices():
            raise SmithError(f"apex {apex!r} already a vertex of the base")
    simplices = list(base.all_simplices())
    for apex in (north, south):
        simplices.append((apex,))
        simplices.extend(tuple(sorted(s + (apex,))) for s in base.all_simplices())
    return SimplicialComplex.build(simplices)


# ---------------------------------------------------------------------------
# cyclic actions


@dataclass(frozen=True)
class CyclicAction:
    """Order-s action given by the vertex permutation of a chosen generator."""

    order: int
    perm: dict[str, str]

    def __post_init__(self):
        if self.order < 1:
            raise SmithError(f"group order {self.order} is not positive")

    def power(self, k: int) -> dict[str, str]:
        out = {v: v for v in self.perm}
        for _ in range(k % self.order):
            out = {v: self.perm[out[v]] for v in out}
        return out

    def map_simplex(self, s: tuple[str, ...], k: int = 1) -> tuple[str, ...]:
        out = list(s)
        for _ in range(k % self.order):
            out = [self.perm[v] for v in out]
        return tuple(sorted(out))

    def orbit_of_vertex(self, v: str) -> tuple[str, ...]:
        out = [v]
        cur = self.perm[v]
        while cur != v:
            out.append(cur)
            cur = self.perm[cur]
        return tuple(sorted(out))


def action_from_json(data) -> CyclicAction:
    return CyclicAction(int(data["order"]), dict(data["perm"]))


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
    """The permutation must be a simplicial automorphism of the stated order."""
    verts = set(k.vertices())
    if set(a.perm) != verts:
        raise SmithError("permutation domain differs from the vertex set")
    if sorted(a.perm.values()) != sorted(a.perm):
        raise SmithError("vertex map is not a permutation")
    g = dict(a.perm)  # the generator to the power a.order, not reduced mod a.order
    for _ in range(a.order - 1):
        g = {v: a.perm[g[v]] for v in g}
    if any(g[v] != v for v in g):
        raise SmithError(f"generator does not have order dividing {a.order}")
    all_simplices = set(k.all_simplices())
    for s in all_simplices:
        if a.map_simplex(s) not in all_simplices:
            raise SmithError(f"image of simplex {s} is not a simplex")


def check_regularity(k: SimplicialComplex, a: CyclicAction) -> list[str]:
    """Violated regularity conditions; empty when the action is regular."""
    validate_action(k, a)
    violations = []
    identity = {v: v for v in k.vertices()}
    fixed_sets = set()
    r1_hit = False
    for j in range(1, a.order):
        g = a.power(j)
        if g == identity:
            continue
        fixed_sets.add(frozenset(v for v in g if g[v] == v))
        if not r1_hit:
            for s in k.all_simplices():
                if tuple(sorted(g[v] for v in s)) == s and any(g[v] != v for v in s):
                    violations.append(
                        "R1: setwise-invariant simplex not pointwise fixed"
                    )
                    r1_hit = True
                    break
    if len(fixed_sets) > 1:
        violations.append("R2: fixed sets of nontrivial powers differ")
    orbit_rep = {v: min(a.orbit_of_vertex(v)) for v in k.vertices()}
    for s in k.all_simplices():
        reps = [orbit_rep[v] for v in s]
        if len(set(reps)) != len(reps):
            violations.append("R3: simplex carries two vertices of one orbit")
            break
    seen: set[tuple] = set()
    done: set[tuple] = set()
    for s in k.all_simplices():
        if s in done:
            continue
        orbit = {a.map_simplex(s, j) for j in range(a.order)}
        done |= orbit
        key = tuple(sorted({orbit_rep[v] for v in s}))
        if key in seen:
            violations.append("R4: two simplex orbits share one vertex-orbit set")
            break
        seen.add(key)
    return sorted(set(violations))


# ---------------------------------------------------------------------------
# barycentric subdivision


def _bary_name(s: tuple[str, ...]) -> str:
    return s[0] if len(s) == 1 else "(" + "+".join(s) + ")"


def barycentric_subdivide(
    k: SimplicialComplex, a: CyclicAction | None = None
) -> tuple[SimplicialComplex, CyclicAction | None]:
    """One barycentric subdivision; the action extends over barycenters."""
    chains_at: dict[tuple[str, ...], list[tuple]] = {}
    for s in k.all_simplices():
        own: list[tuple] = [(s,)]
        for r in range(1, len(s)):
            for face in itertools.combinations(s, r):
                own.extend(ch + (s,) for ch in chains_at[face])
        chains_at[s] = own
    simplices = []
    for s in k.all_simplices():
        simplices.extend(
            tuple(sorted(_bary_name(f) for f in ch)) for ch in chains_at[s]
        )
    new_k = SimplicialComplex.build(simplices)
    new_a = None
    if a is not None:
        perm = {_bary_name(s): _bary_name(a.map_simplex(s)) for s in k.all_simplices()}
        new_a = CyclicAction(a.order, perm)
    return new_k, new_a


def ensure_regular(
    k: SimplicialComplex, a: CyclicAction, max_rounds: int = 2
) -> tuple[SimplicialComplex, CyclicAction, int]:
    """Subdivide until the regularity validator passes (at most max_rounds)."""
    return _ensure_regular(k, a, check_regularity(k, a), max_rounds)


def _ensure_regular(k, a, violations, max_rounds=2):
    """ensure_regular, given the violations of (k, a) already found."""
    rounds = 0
    while violations:
        if rounds >= max_rounds:
            raise NotRegular(violations)
        k, a = barycentric_subdivide(k, a)
        rounds += 1
        violations = check_regularity(k, a)
    return k, a, rounds


# ---------------------------------------------------------------------------
# chain complexes


@dataclass(frozen=True)
class ChainComplex:
    """Boundary matrices over Z or Z_p; boundaries[k] maps C_k to C_{k-1}."""

    coefficients: object  # "Z" or a prime int
    dims: tuple[int, ...]
    boundaries: tuple  # boundaries[k]: tuple of rows, shape dims[k-1] x dims[k]

    def __post_init__(self):
        p = None if self.coefficients == "Z" else int(self.coefficients)
        for k in range(1, len(self.dims) - 1):
            prod = mat_mul(self.boundaries[k], self.boundaries[k + 1])
            for row in prod:
                for x in row:
                    if (x if p is None else x % p) != 0:
                        raise NotAComplex("boundary squared is nonzero")


def _sort_sign(values) -> int:
    """Parity sign of the permutation sorting the values (0 on duplicates)."""
    n = len(values)
    if len(set(values)) != n:
        return 0
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if values[i] > values[j]
    )
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


def boundary_matrix(k: SimplicialComplex, dim: int) -> list[list[int]]:
    matrix = [[0] * k.n_simplices(dim) for _ in range(k.n_simplices(dim - 1))]
    for j, col in enumerate(boundary_columns(k, dim)):
        for i, x in col.items():
            matrix[i][j] = x
    return matrix


def _boundaries_mod(k: SimplicialComplex, p: int) -> list[list[dict[int, int]]]:
    """Per dimension the boundary columns over GF(p) ([] in dimension 0),
    with boundary^2 = 0 checked."""
    boundaries = [[]] + [
        [{i: x % p for i, x in col.items()} for col in boundary_columns(k, d)]
        for d in range(1, k.dimension + 1)
    ]
    for d in range(2, len(boundaries)):
        if any(mul_columns_mod(boundaries[d - 1], boundaries[d], p)):
            raise NotAComplex("boundary squared is nonzero")
    return boundaries


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _prime(p) -> int:
    p = int(p)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def _dims(k: SimplicialComplex) -> list[int]:
    return [k.n_simplices(d) for d in range(k.dimension + 1)]


def chain_complex(k: SimplicialComplex, coefficients="Z") -> ChainComplex:
    """The chain complex as dense boundary matrices, over Z or reduced mod p."""
    p = None if coefficients == "Z" else _prime(coefficients)
    boundaries: list = [()]
    for d in range(1, k.dimension + 1):
        m = boundary_matrix(k, d)
        boundaries.append(tuple(tuple(x if p is None else x % p for x in row) for row in m))
    return ChainComplex(coefficients, tuple(_dims(k)), tuple(boundaries))


# ---------------------------------------------------------------------------
# homology


def homology(c: ChainComplex):
    """Over Z: list of AbelianGroup; over Z_p: list of vector-space dims."""
    top = len(c.dims) - 1
    if c.coefficients == "Z":
        # one Smith normal form per boundary gives its rank and torsion
        diags = [
            snf_diagonal(b) if k >= 1 and b and b[0] else []
            for k, b in enumerate(c.boundaries)
        ] + [[]]
        ranks = [sum(1 for d in diag if d != 0) for diag in diags]
        return [
            AbelianGroup(
                c.dims[k] - ranks[k] - ranks[k + 1],
                tuple(d for d in diags[k + 1] if d > 1),
            )
            for k in range(top + 1)
        ]
    p = int(c.coefficients)
    return _dims_mod(
        c.dims, [sparse_columns(b, p, n) for b, n in zip(c.boundaries, c.dims)], p
    )


def _dims_mod(dims, boundaries, p) -> list[int]:
    """Betti numbers over GF(p), ranking each boundary's sparse columns once."""
    ranks = [rank_mod(b, p) for b in boundaries] + [0]
    return [dims[k] - ranks[k] - ranks[k + 1] for k in range(len(dims))]


def simplicial_homology(k: SimplicialComplex, coefficients="Z"):
    """Over Z: list of AbelianGroup; over Z_p: list of vector-space dims,
    from the sparse boundary columns."""
    if coefficients == "Z":
        return homology(chain_complex(k))
    p = _prime(coefficients)
    return _dims_mod(_dims(k), _boundaries_mod(k, p), p)


def reduced_is_trivial(k: SimplicialComplex, p: int) -> bool:
    dims = simplicial_homology(k, p)
    return bool(dims) and dims[0] == 1 and all(d == 0 for d in dims[1:])


# ---------------------------------------------------------------------------
# chain maps


def _simplex_images(src, dst, vmap, d) -> list[tuple[int, int]]:
    """(row, sign) of the one nonzero in each column of the d-th chain map
    of a simplicial map; sign 0 (and row -1) on degenerate images."""
    positions = dst._positions[d]
    out = []
    for s in src.simplices[d]:
        images = [vmap[v] for v in s]
        sign = _sort_sign(images)
        out.append((positions[tuple(sorted(images))], sign) if sign else (-1, 0))
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


@dataclass(frozen=True)
class SmithOperators:
    p: int
    sigma: tuple  # per dimension, the sparse columns of 1 + t + ... + t^{p-1} over Z_p
    tau: tuple  # per dimension, the sparse columns of 1 - t over Z_p
    t: tuple  # per dimension, the (row, sign) that t sends each simplex to


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
    return _smith_operators(k, a, check_regularity(k, a))


def _smith_operators(k, a, violations) -> SmithOperators:
    """smith_operators, given the regularity violations of (k, a)."""
    violations = [v for v in violations if v.startswith(("R1", "R2"))]
    if violations:
        raise NotRegular(violations)
    p = a.order
    sigma, tau, ts = [], [], []
    for d in range(k.dimension + 1):
        t = _simplex_images(k, k, a.perm, d)
        sig = [_column(_orbit(t, j, p), p) for j in range(len(t))]
        ta = [_column(((j, 1), (i, -sign)), p) for j, (i, sign) in enumerate(t)]
        _check_operator_identities(p, sig, ta)
        sigma.append(sig)
        tau.append(ta)
        ts.append(tuple(t))
    return SmithOperators(p, tuple(sigma), tuple(tau), tuple(ts))


def _check_operator_identities(p, sigma, tau):
    """sigma*tau = tau*sigma = 0 and sigma = tau^{p-1} on the sparse columns
    of one dimension.  Built from t, both products are 1 - t^p: they fail
    exactly where walking a simplex's orbit p steps does not bring it back
    with sign +1."""
    if any(apply_columns_mod(sigma, col, p) for col in tau):
        raise SmithError("sigma * tau != 0")
    if any(apply_columns_mod(tau, col, p) for col in sigma):
        raise SmithError("tau * sigma != 0")
    for j, col in enumerate(sigma):
        power = {j: 1}
        for _ in range(p - 1):
            power = apply_columns_mod(tau, power, p)
        if power != col:
            raise SmithError("sigma != tau^(p-1)")


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
# subcomplexes of C(Y; Z_p)


@dataclass
class _SubComplex:
    """Subcomplex given per dimension by a basis of sparse ambient columns."""

    p: int
    bases: list  # bases[d]: sparse columns in C_d(Y)
    boundaries: list  # induced boundary, sparse columns in basis coordinates

    def dims(self):
        return [len(b) for b in self.bases]

    @cached_property
    def homology(self) -> _HomologyBasis:
        """Homology with representatives in basis coordinates, built once."""
        return _homology_basis(self.dims(), self.boundaries, self.p)


def _induced_boundaries(bases, p, ambient_boundaries) -> _SubComplex:
    boundaries: list = [[]]
    for d in range(1, len(bases)):
        images = mul_columns_mod(ambient_boundaries[d], bases[d], p)
        induced = solve_columns_mod(bases[d - 1], images, p)
        if any(x is None for x in induced):
            raise SmithError("subspace is not closed under the boundary")
        boundaries.append(induced)
    return _SubComplex(p, bases, boundaries)


def _image_subcomplex(matrices, p, ambient_boundaries) -> _SubComplex:
    bases = [column_space_basis_mod(m, p) for m in matrices]
    return _induced_boundaries(bases, p, ambient_boundaries)


def _fixed_inclusion_bases(k: SimplicialComplex, a: CyclicAction):
    """Per dimension, the basis columns of the fixed subcomplex C(Y^w)."""
    fixed_vertices = {v for v in k.vertices() if a.perm[v] == v}
    return [
        [{j: 1} for j, s in enumerate(level) if fixed_vertices.issuperset(s)]
        for level in k.simplices
    ]


# ---------------------------------------------------------------------------
# homology with representatives over GF(p)


@dataclass
class _HomologyBasis:
    p: int
    dims: list
    reps: list  # reps[d]: sparse cycles spanning H_d
    boundary_basis: list  # sparse basis of im(boundary_{d+1})

    def classify_many(self, d: int, vecs) -> list:
        """The class of each cycle, as sparse coordinates on reps[d]."""
        reps = self.reps[d]
        out = []
        for x in solve_columns_mod(reps + self.boundary_basis[d], vecs, self.p):
            if x is None:
                raise SmithError("vector is not a cycle in this complex")
            out.append({i: c for i, c in x.items() if i < len(reps)})
        return out


def _homology_basis(dims, boundaries, p) -> _HomologyBasis:
    """Cycles, boundaries and class representatives from one sparse column
    reduction of each boundary.

    The cycles of C_d are the combinations behind the zero columns of
    reduced boundary_d; the nonzero reduced columns of boundary_{d+1} are a
    basis of its image, and each has its lowest nonzero on a cycle's own
    column.  Lowest entries are distinct, so the cycles whose column is not
    such a low complete that image basis to a basis of the cycles: they
    represent homology.
    """
    top = len(dims) - 1
    reductions = [None] + [
        reduce_columns_mod(boundaries[d], p, track=True) for d in range(1, top + 1)
    ]
    reps, bnd_bases = [], []
    for d in range(top + 1):
        if d >= 1:
            reduced, combos, _ = reductions[d]
            cycles = {j: combos[j] for j, col in enumerate(reduced) if not col}
        else:
            cycles = {j: {j: 1} for j in range(dims[0])}
        if d + 1 <= top:
            reduced_up, _, lows_up = reductions[d + 1]
            bnd = [col for col in reduced_up if col]
        else:
            lows_up, bnd = {}, []
        reps.append([z for j, z in cycles.items() if j not in lows_up])
        bnd_bases.append(bnd)
    return _HomologyBasis(p, [len(r) for r in reps], reps, bnd_bases)


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
    violations = check_regularity(k, a)
    if violations:
        raise NotRegular(violations)
    return _orbit_complex(k, a)


def _orbit_complex(k, a):
    """orbit_complex of an action known to be regular."""
    rep = {v: min(a.orbit_of_vertex(v)) for v in k.vertices()}
    simplices = {tuple(sorted({rep[v] for v in s})) for s in k.all_simplices()}
    return SimplicialComplex.build(simplices), rep


@dataclass
class TransferReport:
    group_order: int
    prime: int
    mu_is_chain_map: bool
    chain_level_pi_mu_is_s: bool
    action_homologically_trivial: bool
    pi_mu_is_s_on_homology: bool
    mu_pi_is_sigma_on_homology: bool
    projection_iso_on_homology: bool
    homology_dims_y: list
    homology_dims_x: list

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
    for d in range(k.dimension + 1):
        t = _simplex_images(k, k, a.perm, d)
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

    bd_y = _boundaries_mod(k, q)
    bd_x = _boundaries_mod(x, q)
    mu_chain_map = all(
        mul_columns_mod(bd_y[d], mu[d], q) == mul_columns_mod(mu[d - 1], bd_x[d], q)
        for d in range(1, k.dimension + 1)
    )

    hy = _homology_basis(_dims(k), bd_y, q)
    hx = _homology_basis(_dims(x), bd_x, q)
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
    ops = smith_operators(k, a)
    p = ops.p
    if not 1 <= i <= p - 1:
        raise SmithError("rho = tau^i needs 1 <= i <= p-1")
    rho = ops.sigma if i == p - 1 else operator_power(ops, i)
    sub = _image_subcomplex(rho, p, _boundaries_mod(k, p))
    return _dims_mod(sub.dims(), sub.boundaries, p)


def relative_homology_dims(k: SimplicialComplex, sub_vertices, p: int) -> list:
    """Dims of H(K, A; Z_p), A the full subcomplex on sub_vertices."""
    sub_vertices = set(sub_vertices)
    keep = [
        [
            j
            for j, s in enumerate(k.simplices[d])
            if not all(v in sub_vertices for v in s)
        ]
        for d in range(k.dimension + 1)
    ]
    # A is a subcomplex, so these boundaries square to zero as those of K do
    amb = _boundaries_mod(k, p)
    boundaries: list = [[]]
    for d in range(1, k.dimension + 1):
        rows = {i: r for r, i in enumerate(keep[d - 1])}
        boundaries.append(
            [{rows[i]: x for i, x in amb[d][j].items() if i in rows} for j in keep[d]]
        )
    return _dims_mod([len(cols) for cols in keep], boundaries, p)


@dataclass
class SequenceReport:
    p: int
    subdivisions_for_quotient: int
    ses_exact: bool
    les_rho_exact: bool  # sequences through H(Y) and the fixed set
    les_tau_exact: bool  # tau-power sequences into H^sigma
    special_matches_pair: bool
    special_dims_sigma: list
    pair_dims: list
    prop4_premises: bool
    prop4_conclusion: bool

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
    -> 0 likewise.  Also compares H^sigma with the pair homology of the
    quotient (on a regular subdivision when the quotient needs one) and
    instantiates the Z_p-acyclicity transfer statement.
    """
    # regularity is checked once per complex: here for (k, a), and in
    # _ensure_regular for each subdivision
    p = _prime_order(a)
    violations = check_regularity(k, a)
    ops = _smith_operators(k, a, violations)
    amb = _boundaries_mod(k, p)
    fixed_inc = _fixed_inclusion_bases(k, a)
    # the tower tau^0 = 1, ..., tau^{p-1} = sigma, tau^p = 0 and the image
    # subcomplex of each, built once
    taus = [operator_power(ops, j) for j in range(p + 1)]
    images = [_image_subcomplex(t, p, amb) for t in taus]

    ses_ok = les_rho_ok = les_tau_ok = True
    for j in range(1, p):
        # rho = tau^j: A_j = rhobar C + C(Y^w), basis [rhobar basis | fixed]
        a_j = _induced_boundaries(
            [rbar + fixed for rbar, fixed in zip(images[p - j].bases, fixed_inc)],
            p,
            amb,
        )
        # the image basis of rho has rank(rho) columns
        r_inc, rank_rho = a_j.dims(), images[j].dims()
        for d, n in enumerate(_dims(k)):
            inc = a_j.bases[d]
            if rank_mod(inc, p) != r_inc[d]:
                ses_ok = False
            if r_inc[d] + rank_rho[d] != n:
                ses_ok = False
            if any(mul_columns_mod(taus[j][d], inc, p)):
                ses_ok = False
        les_rho_ok &= _les_exact(a_j, images[0], images[j], taus[j], amb, p)
        les_tau_ok &= _les_exact(
            images[p - 1], images[j], images[j + 1], ops.tau, amb, p
        )

    # H^sigma of the regular subdivision; without one, sigma C is images[p - 1]
    kq, aq, rounds = _ensure_regular(k, a, violations)
    if rounds:
        sigma_q = _smith_operators(kq, aq, []).sigma
        sigma_c = _image_subcomplex(sigma_q, p, _boundaries_mod(kq, p))
    else:
        sigma_c = images[p - 1]
    sigma_dims = _dims_mod(sigma_c.dims(), sigma_c.boundaries, p)
    xq, vrep = _orbit_complex(kq, aq)
    fixed_image = {vrep[v] for v in kq.vertices() if aq.perm[v] == v}
    pair = relative_homology_dims(xq, fixed_image, p)
    ndim = max(len(sigma_dims), len(pair))
    special_ok = (sigma_dims + [0] * (ndim - len(sigma_dims))) == (
        pair + [0] * (ndim - len(pair))
    )

    fixed_simplices = [s for s in k.all_simplices() if all(a.perm[v] == v for v in s)]
    if fixed_simplices:
        fixed_acyclic = reduced_is_trivial(SimplicialComplex.build(fixed_simplices), p)
    else:
        fixed_acyclic = False
    premises = bool(fixed_simplices) and fixed_acyclic and reduced_is_trivial(xq, p)
    conclusion = reduced_is_trivial(k, p)

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
        prop4_conclusion=conclusion,
    )


def _les_exact(a, b, c, q, amb, p) -> bool:
    """... -> H_n(A) -> H_n(B) -> H_n(C) -> H_{n-1}(A) -> ... is exact.

    0 -> A -> B -> C -> 0 is a short exact sequence of subcomplexes of
    C(Y; Z_p), each given by its ambient basis; A -> B is the inclusion and
    q[d] is the chain map B -> C in ambient coordinates.
    """
    h_a, h_b, h_c = a.homology, b.homology, c.homology
    ndim = len(b.bases)
    i_maps, q_maps, q_on_bases = [], [], []
    for d in range(ndim):
        q_on_b = mul_columns_mod(q[d], b.bases[d], p)
        i_cols = solve_columns_mod(b.bases[d], a.bases[d], p)
        q_cols = solve_columns_mod(c.bases[d], q_on_b, p)
        if any(x is None for x in i_cols + q_cols):
            return False
        i_maps.append(i_cols)
        q_maps.append(q_cols)
        q_on_bases.append(q_on_b)

    i_star = _induced_on_homology(h_a, h_b, i_maps)
    q_star = _induced_on_homology(h_b, h_c, q_maps)

    # connecting map: lift each class of C through q, take the boundary of
    # the lift and read it in A
    delta_star = []
    for d in range(ndim):
        vecs = mul_columns_mod(c.bases[d], h_c.reps[d], p)
        lifts = solve_columns_mod(q_on_bases[d], vecs, p)
        if any(x is None for x in lifts):
            return False
        if d == 0:
            delta_star.append([{} for _ in lifts])  # H_{-1}(A) = 0
            continue
        chains = mul_columns_mod(b.bases[d], lifts, p)
        coords = solve_columns_mod(a.bases[d - 1], mul_columns_mod(amb[d], chains, p), p)
        if any(x is None for x in coords):
            return False
        delta_star.append(h_a.classify_many(d - 1, coords))

    for d in range(ndim):
        if not _exact_at(i_star[d], q_star[d], h_b.dims[d], p):
            return False
        if not _exact_at(q_star[d], delta_star[d], h_c.dims[d], p):
            return False
        if d >= 1:
            if not _exact_at(delta_star[d], i_star[d - 1], h_a.dims[d - 1], p):
                return False
    # at the very top of the ladder nothing comes in: i_* must be injective
    top = ndim - 1
    return rank_mod(i_star[top], p) == h_a.dims[top]
