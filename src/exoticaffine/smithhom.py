"""Desk-scale Smith theory for finite simplicial complexes with cyclic actions.

Simplices are sorted tuples of string vertex ids; orientation signs come from
sorting permutations, so all chain matrices are deterministic.  Homology is
exact: Smith normal form over Z (via fpgroups), sparse column reduction over
the field with p elements (via linalg) for mod-p questions.

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
from math import gcd

from .fpgroups import AbelianGroup, snf_diagonal
from .linalg import (
    column_space_basis_mod,
    identity,
    mat_mul,
    mat_vec,
    rank_mod,
    reduce_columns_mod,
    solve_many_mod,
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

    def index(self, simplex: tuple[str, ...]) -> int:
        return self.simplices[len(simplex) - 1].index(simplex)

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
    identity = {v: v for v in verts}
    if a.power(a.order) != identity:
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
    rounds = 0
    while violations := check_regularity(k, a):
        if rounds >= max_rounds:
            raise NotRegular(violations)
        k, a = barycentric_subdivide(k, a)
        rounds += 1
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


def _mat_mod(matrix, p):
    return [[x % p for x in row] for row in matrix]


def _sort_sign(values) -> int:
    """Parity sign of the permutation sorting the values (0 on duplicates)."""
    n = len(values)
    if len(set(values)) != n:
        return 0
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if values[i] > values[j]
    )
    return -1 if inversions % 2 else 1


def boundary_matrix(k: SimplicialComplex, dim: int) -> list[list[int]]:
    rows = k.n_simplices(dim - 1)
    cols = k.n_simplices(dim)
    matrix = [[0] * cols for _ in range(rows)]
    if dim < 1 or dim > k.dimension:
        return matrix
    for j, s in enumerate(k.simplices[dim]):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1 :]
            matrix[k.index(face)][j] += (-1) ** drop
    return matrix


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def chain_complex(k: SimplicialComplex, coefficients="Z") -> ChainComplex:
    if coefficients != "Z":
        p = int(coefficients)
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
    dims = tuple(k.n_simplices(d) for d in range(k.dimension + 1))
    boundaries: list = [()]
    for d in range(1, k.dimension + 1):
        m = boundary_matrix(k, d)
        if coefficients != "Z":
            m = _mat_mod(m, int(coefficients))
        boundaries.append(tuple(tuple(row) for row in m))
    return ChainComplex(coefficients, dims, tuple(boundaries))


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
    return _dims_mod(c.dims, c.boundaries, int(c.coefficients))


def _dims_mod(dims, boundaries, p) -> list[int]:
    """Betti numbers over GF(p), ranking each boundary matrix once."""
    ranks = [rank_mod(b, p) if k >= 1 else 0 for k, b in enumerate(boundaries)]
    ranks.append(0)
    return [dims[k] - ranks[k] - ranks[k + 1] for k in range(len(dims))]


def simplicial_homology(k: SimplicialComplex, coefficients="Z"):
    return homology(chain_complex(k, coefficients))


def reduced_is_trivial(k: SimplicialComplex, p: int) -> bool:
    dims = simplicial_homology(k, p)
    return bool(dims) and dims[0] == 1 and all(d == 0 for d in dims[1:])


# ---------------------------------------------------------------------------
# chain maps


def _simplex_images(src, dst, vmap, d) -> list[tuple[int, int]]:
    """(row, sign) of the one nonzero in each column of the d-th chain map
    of a simplicial map; sign 0 (and row -1) on degenerate images."""
    out = []
    for s in src.simplices[d]:
        images = [vmap[v] for v in s]
        sign = _sort_sign(images)
        out.append((dst.index(tuple(sorted(images))), sign) if sign else (-1, 0))
    return out


def chain_map_from_vertex_map(
    src: SimplicialComplex, dst: SimplicialComplex, vmap: dict[str, str]
) -> list[list[list[int]]]:
    """Matrices per dimension of a simplicial map; degenerate images give 0."""
    out = []
    for d in range(src.dimension + 1):
        m = [[0] * src.n_simplices(d) for _ in range(dst.n_simplices(d))]
        for j, (i, sign) in enumerate(_simplex_images(src, dst, vmap, d)):
            if sign:
                m[i][j] = sign
        out.append(m)
    return out


def action_chain_maps(k: SimplicialComplex, a: CyclicAction, power: int = 1):
    return chain_map_from_vertex_map(k, k, a.power(power))


# ---------------------------------------------------------------------------
# Smith operators


@dataclass(frozen=True)
class SmithOperators:
    p: int
    sigma: tuple  # per-dimension matrices of 1 + t + ... + t^{p-1} over Z_p
    tau: tuple  # per-dimension matrices of 1 - t over Z_p


def smith_operators(k: SimplicialComplex, a: CyclicAction) -> SmithOperators:
    """sigma and tau as chain maps over Z_p, with the ring identities
    sigma*tau = tau*sigma = 0 and sigma = tau^{p-1} verified exactly.

    Needs prime order and the (R1)-(R2) half of regularity.
    """
    p = a.order
    if not _is_prime(p):
        raise NotPrime(f"group order {p} is not prime")
    violations = [v for v in check_regularity(k, a) if v.startswith(("R1", "R2"))]
    if violations:
        raise NotRegular(violations)
    sigma, tau = [], []
    for d in range(k.dimension + 1):
        n = k.n_simplices(d)
        # t is a signed permutation matrix: t e_j = sign e_i for (i, sign) = t_cols[j]
        t_cols = _simplex_images(k, k, a.perm, d)
        # column j of sigma is sum_{m<p} t^m e_j: follow j's orbit p steps
        acc = [[0] * n for _ in range(n)]
        for j in range(n):
            i, c = j, 1
            for _ in range(p):
                acc[i][j] = (acc[i][j] + c) % p
                i, sign = t_cols[i]
                c *= sign
        ta = identity(n)
        for j, (i, sign) in enumerate(t_cols):
            ta[i][j] = (ta[i][j] - sign) % p
        sigma.append(tuple(tuple(r) for r in acc))
        tau.append(tuple(tuple(r) for r in ta))
    ops = SmithOperators(p, tuple(sigma), tuple(tau))
    _verify_operator_identities(ops)
    return ops


def _verify_operator_identities(ops: SmithOperators):
    p = ops.p
    for sig, ta in zip(ops.sigma, ops.tau):
        sig = [list(r) for r in sig]
        ta = [list(r) for r in ta]
        if any(x % p for row in mat_mul(sig, ta) for x in row):
            raise SmithError("sigma * tau != 0")
        if any(x % p for row in mat_mul(ta, sig) for x in row):
            raise SmithError("tau * sigma != 0")
        power = identity(len(sig))
        for _ in range(p - 1):
            power = _mat_mod(mat_mul(ta, power), p)
        if power != _mat_mod(sig, p):
            raise SmithError("sigma != tau^(p-1)")


def operator_power(ops: SmithOperators, i: int) -> list:
    """Matrices of tau^i (tau^0 = 1; tau^{p-1} = sigma; i >= p gives 0)."""
    out = []
    for ta in ops.tau:
        n = len(ta)
        m = identity(n)
        ta = [list(r) for r in ta]
        for _ in range(i):
            m = _mat_mod(mat_mul(ta, m), ops.p)
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# subcomplexes of C(Y; Z_p)


@dataclass
class _SubComplex:
    """Subcomplex given per dimension by a basis matrix (columns = basis)."""

    p: int
    bases: list  # bases[d]: dims[d] x r_d
    boundaries: list  # induced boundary in basis coordinates

    def dims(self):
        return [len(b[0]) if b and b[0] else 0 for b in self.bases]

    @cached_property
    def homology(self) -> _HomologyBasis:
        """Homology with representatives in basis coordinates, built once."""
        return _homology_basis(self.dims(), self.boundaries, self.p)


def _columns(matrix) -> list[list]:
    return [list(col) for col in zip(*matrix)]


def _from_columns(cols, nrows) -> list[list]:
    return [[col[i] for col in cols] for i in range(nrows)]


def _induced_boundaries(bases, p, ambient_boundaries) -> _SubComplex:
    boundaries: list = [[]]
    for d in range(1, len(bases)):
        r_prev = len(bases[d - 1][0]) if bases[d - 1] and bases[d - 1][0] else 0
        r_cur = len(bases[d][0]) if bases[d] and bases[d][0] else 0
        prod = mat_mul(ambient_boundaries[d], bases[d])
        images = [[row[j] % p for row in prod] for j in range(r_cur)]
        induced = [[0] * r_cur for _ in range(r_prev)]
        for j, coords in enumerate(solve_many_mod(bases[d - 1], images, p)):
            if coords is None:
                raise SmithError("subspace is not closed under the boundary")
            for i in range(r_prev):
                induced[i][j] = coords[i]
        boundaries.append(induced)
    return _SubComplex(p, bases, boundaries)


def _image_subcomplex(k, matrices, p, ambient_boundaries) -> _SubComplex:
    bases = []
    for d in range(k.dimension + 1):
        cols = column_space_basis_mod(matrices[d], p)
        bases.append(_from_columns(cols, k.n_simplices(d)))
    return _induced_boundaries(bases, p, ambient_boundaries)


def _fixed_inclusion_bases(k: SimplicialComplex, a: CyclicAction):
    """Per-dimension inclusion matrices of the fixed subcomplex C(Y^w)."""
    fixed_vertices = {v for v in k.vertices() if a.perm[v] == v}
    bases = []
    for d in range(k.dimension + 1):
        n = k.n_simplices(d)
        cols = []
        for j, s in enumerate(k.simplices[d]):
            if all(v in fixed_vertices for v in s):
                col = [0] * n
                col[j] = 1
                cols.append(col)
        bases.append(_from_columns(cols, n))
    return bases


# ---------------------------------------------------------------------------
# homology with representatives over GF(p)


@dataclass
class _HomologyBasis:
    p: int
    dims: list
    reps: list  # reps[d]: cycle vectors spanning H_d
    boundary_basis: list  # basis of im(boundary_{d+1})

    def classify_many(self, d: int, vecs) -> list:
        reps = self.reps[d]
        bnd = self.boundary_basis[d]
        if not reps and not bnd:
            for vec in vecs:
                if any(x % self.p for x in vec):
                    raise SmithError("nonzero vector in zero homology")
            return [[] for _ in vecs]
        cols = reps + bnd
        matrix = _from_columns(cols, len(cols[0]))
        out = []
        for x in solve_many_mod(matrix, list(vecs), self.p):
            if x is None:
                raise SmithError("vector is not a cycle in this complex")
            out.append([v % self.p for v in x[: len(reps)]])
        return out


def _dense(sparse: dict, n: int) -> list[int]:
    vec = [0] * n
    for i, x in sparse.items():
        vec[i] = x
    return vec


def _homology_basis(dims, boundaries, p) -> _HomologyBasis:
    """Cycles, boundaries and class representatives from one sparse column
    reduction of each boundary matrix.

    The cycles of C_d are the combinations behind the zero columns of
    reduced boundary_d; the nonzero reduced columns of boundary_{d+1} are a
    basis of its image, and each has its lowest nonzero on a cycle's own
    column.  Lowest entries are distinct, so the cycles whose column is not
    such a low complete that image basis to a basis of the cycles: they
    represent homology.
    """
    top = len(dims) - 1
    reductions = [None] + [
        reduce_columns_mod(sparse_columns(boundaries[d], p, dims[d]), p, track=True)
        for d in range(1, top + 1)
    ]
    reps, bnd_bases, hdims = [], [], []
    for d in range(top + 1):
        n = dims[d]
        if d >= 1:
            reduced, combos, _ = reductions[d]
            cycles = {j: combos[j] for j, col in enumerate(reduced) if not col}
        else:
            cycles = {j: {j: 1} for j in range(n)}
        if d + 1 <= top:
            reduced_up, _, lows_up = reductions[d + 1]
            bnd = [_dense(col, n) for col in reduced_up if col]
        else:
            lows_up, bnd = {}, []
        reps_d = [_dense(z, n) for j, z in cycles.items() if j not in lows_up]
        reps.append(reps_d)
        bnd_bases.append(bnd)
        hdims.append(len(reps_d))
    return _HomologyBasis(p, hdims, reps, bnd_bases)


def _induced_on_homology(src: _HomologyBasis, dst: _HomologyBasis, matrices):
    """Per-dimension matrices of the induced map on homology classes."""
    out = []
    ndims = min(len(src.dims), len(dst.dims), len(matrices))
    for d in range(ndims):
        m = matrices[d]
        images = [[x % src.p for x in mat_vec(m, rep)] for rep in src.reps[d]]
        cols = dst.classify_many(d, images) if images else []
        out.append(_from_columns(cols, dst.dims[d]))
    return out


def _exact_at(incoming, outgoing, middle_dim, p) -> bool:
    """im(incoming) = ker(outgoing) inside a middle space of that dimension."""
    rank_in = rank_mod(incoming, p) if middle_dim else 0
    rank_out = rank_mod(outgoing, p) if middle_dim else 0
    if rank_in + rank_out != middle_dim:
        return False
    if rank_in and rank_out:
        prod = _mat_mod(mat_mul(outgoing, incoming), p)
        if any(any(row) for row in prod):
            return False
    return True


# ---------------------------------------------------------------------------
# orbit complex and the transfer


def orbit_complex(
    k: SimplicialComplex, a: CyclicAction
) -> tuple[SimplicialComplex, dict[str, str]]:
    """Quotient complex and the vertex projection; refuses non-regular input."""
    violations = check_regularity(k, a)
    if violations:
        raise NotRegular(violations)
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


def transfer_check(k: SimplicialComplex, a: CyclicAction, q: int) -> TransferReport:
    """Build the transfer mu over Z_q and verify its composition identities.

    mu sends an orbit simplex to sigma of its lexicographically smallest
    preimage, sign-adjusted so that pi mu = |w| holds on the nose.  Checks:
    mu is a chain map, pi mu = s at chain level, pi_* mu_* = s and
    mu_* pi_* = sigma_* on homology over Z_q, homological triviality of the
    generator, and (then) that pi_* is an isomorphism.
    """
    if not _is_prime(q):
        raise NotPrime(f"{q} is not prime")
    s_order = a.order
    if s_order % q == 0:
        raise BadPrime(f"{q} divides the group order {s_order}")
    x, vrep = orbit_complex(k, a)  # raises NotRegular when not regular
    if x.dimension != k.dimension:
        raise NotRegular(["quotient drops dimension"])
    pi = chain_map_from_vertex_map(k, x, vrep)
    powers = [action_chain_maps(k, a, j) for j in range(s_order)]
    mu = []
    for d in range(k.dimension + 1):
        rows = k.n_simplices(d)
        cols = x.n_simplices(d)
        m = [[0] * cols for _ in range(rows)]
        fibers: dict[tuple, list] = {}
        for sim in k.simplices[d]:
            fibers.setdefault(tuple(sorted({vrep[v] for v in sim})), []).append(sim)
        for jx, xs in enumerate(x.simplices[d]):
            fiber = fibers[xs]
            c0 = min(fiber)
            jy = k.index(c0)
            eps = pi[d][jx][jy]
            orbit = {a.map_simplex(c0, j) for j in range(s_order)}
            if set(fiber) != orbit:
                raise NotRegular(["fiber is not a single orbit"])
            for j in range(s_order):
                for i in range(rows):
                    m[i][jx] = (m[i][jx] + eps * powers[j][d][i][jy]) % q
        mu.append(m)

    chain_pi_mu = True
    for d in range(k.dimension + 1):
        n = x.n_simplices(d)
        prod = _mat_mod(mat_mul(pi[d], mu[d]), q)
        expect = [[(s_order * e) % q for e in row] for row in identity(n)]
        if prod != expect:
            chain_pi_mu = False

    bd_y = [list(map(list, b)) for b in chain_complex(k, q).boundaries]
    bd_x = [list(map(list, b)) for b in chain_complex(x, q).boundaries]
    mu_chain_map = True
    for d in range(1, k.dimension + 1):
        left = _mat_mod(mat_mul(bd_y[d], mu[d]), q)
        right = _mat_mod(mat_mul(mu[d - 1], bd_x[d]), q)
        if left != right:
            mu_chain_map = False

    dims_y = [k.n_simplices(d) for d in range(k.dimension + 1)]
    dims_x = [x.n_simplices(d) for d in range(x.dimension + 1)]
    hy = _homology_basis(dims_y, bd_y, q)
    hx = _homology_basis(dims_x, bd_x, q)
    pi_star = _induced_on_homology(hy, hx, pi)
    mu_star = _induced_on_homology(hx, hy, mu)

    pimu_ok = True
    for d in range(len(hx.dims)):
        n = hx.dims[d]
        prod = _mat_mod(mat_mul(pi_star[d], mu_star[d]), q) if n else []
        expect = [[(s_order * e) % q for e in row] for row in identity(n)]
        if prod != expect:
            pimu_ok = False

    sigma_matrices = []
    for d in range(k.dimension + 1):
        n = dims_y[d]
        acc = [[0] * n for _ in range(n)]
        for j in range(s_order):
            acc = [
                [(u + v) % q for u, v in zip(r1, r2)]
                for r1, r2 in zip(acc, powers[j][d])
            ]
        sigma_matrices.append(acc)
    sigma_star = _induced_on_homology(hy, hy, sigma_matrices)
    mupi_ok = True
    for d in range(len(hy.dims)):
        n = hy.dims[d]
        prod = _mat_mod(mat_mul(mu_star[d], pi_star[d]), q) if n else []
        if prod != _mat_mod(sigma_star[d], q):
            mupi_ok = False

    g_star = _induced_on_homology(hy, hy, powers[1 % s_order])
    trivial = all(
        g_star[d] == identity(hy.dims[d]) for d in range(len(hy.dims))
    )
    iso = hy.dims == hx.dims
    if iso:
        for d in range(len(hx.dims)):
            if hy.dims[d] and rank_mod(pi_star[d], q) != hy.dims[d]:
                iso = False
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


def special_smith_homology(
    k: SimplicialComplex, a: CyclicAction, i: int, _ops: SmithOperators | None = None
) -> list:
    """Dimensions of H^rho(Y; Z_p) for rho = tau^i (tau^{p-1} = sigma)."""
    ops = _ops if _ops is not None else smith_operators(k, a)
    p = ops.p
    if not 1 <= i <= p - 1:
        raise SmithError("rho = tau^i needs 1 <= i <= p-1")
    amb = [list(map(list, b)) for b in chain_complex(k, p).boundaries]
    sub = _image_subcomplex(k, operator_power(ops, i), p, amb)
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
    amb = [list(map(list, b)) for b in chain_complex(k, p).boundaries]
    boundaries: list = [()]
    for d in range(1, k.dimension + 1):
        rows, cols = keep[d - 1], keep[d]
        boundaries.append(
            tuple(tuple(amb[d][i][j] % p for j in cols) for i in rows)
        )
    dims = tuple(len(keep[d]) for d in range(k.dimension + 1))
    return homology(ChainComplex(p, dims, tuple(boundaries)))


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
    ops = smith_operators(k, a)
    p = ops.p
    amb = [list(map(list, b)) for b in chain_complex(k, p).boundaries]
    dims = [k.n_simplices(d) for d in range(k.dimension + 1)]
    fixed_inc = _fixed_inclusion_bases(k, a)
    # the tower tau^0 = 1, ..., tau^{p-1} = sigma, tau^p = 0, each power
    # from the one before, and the image subcomplex of each, built once
    taus = [operator_power(ops, 0)]
    for _ in range(p):
        taus.append([_mat_mod(mat_mul(t, m), p) for t, m in zip(ops.tau, taus[-1])])
    images = [_image_subcomplex(k, t, p, amb) for t in taus]

    ses_ok = les_rho_ok = les_tau_ok = True
    for j in range(1, p):
        # rho = tau^j: A_j = rhobar C + C(Y^w), basis [rhobar basis | fixed]
        a_j = _induced_boundaries(
            [
                [r + f for r, f in zip(rbar, fixed)]
                for rbar, fixed in zip(images[p - j].bases, fixed_inc)
            ],
            p,
            amb,
        )
        # the image basis of rho has rank(rho) columns
        r_inc, rank_rho = a_j.dims(), images[j].dims()
        for d, n in enumerate(dims):
            inc = a_j.bases[d]
            if n and rank_mod(inc, p) != r_inc[d]:
                ses_ok = False
            if r_inc[d] + rank_rho[d] != n:
                ses_ok = False
            if n and r_inc[d]:
                prod = _mat_mod(mat_mul(taus[j][d], inc), p)
                if any(any(row) for row in prod):
                    ses_ok = False
        les_rho_ok &= _les_exact(a_j, images[0], images[j], taus[j], amb, p)
        les_tau_ok &= _les_exact(
            images[p - 1], images[j], images[j + 1], ops.tau, amb, p
        )

    kq, aq, rounds = ensure_regular(k, a)
    ops_q = ops if rounds == 0 else smith_operators(kq, aq)
    sigma_dims = special_smith_homology(kq, aq, p - 1, _ops=ops_q)
    xq, vrep = orbit_complex(kq, aq)
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
    r_b, r_c = b.dims(), c.dims()
    i_mats, q_mats, q_on_bases = [], [], []
    for d in range(ndim):
        q_on_b = _mat_mod(mat_mul(q[d], b.bases[d]), p)
        i_cols = solve_many_mod(b.bases[d], _columns(a.bases[d]), p)
        q_cols = solve_many_mod(c.bases[d], _columns(q_on_b), p)
        if any(x is None for x in i_cols + q_cols):
            return False
        i_mats.append(_from_columns(i_cols, r_b[d]))
        q_mats.append(_from_columns(q_cols, r_c[d]))
        q_on_bases.append(q_on_b)

    i_star = _induced_on_homology(h_a, h_b, i_mats)
    q_star = _induced_on_homology(h_b, h_c, q_mats)

    # connecting map: lift each class of C through q, take the boundary of
    # the lift and read it in A
    delta_star = []
    for d in range(ndim):
        vecs = [[x % p for x in mat_vec(c.bases[d], rep)] for rep in h_c.reps[d]]
        lifts = solve_many_mod(q_on_bases[d], vecs, p) if vecs else []
        if any(x is None for x in lifts):
            return False
        if d == 0:
            delta_star.append([])  # H_{-1}(A) = 0
            continue
        chains = [mat_vec(b.bases[d], x) for x in lifts]
        bnds = [[x % p for x in mat_vec(amb[d], chain)] for chain in chains]
        coords = solve_many_mod(a.bases[d - 1], bnds, p) if bnds else []
        if any(x is None for x in coords):
            return False
        cols = h_a.classify_many(d - 1, coords) if coords else []
        delta_star.append(_from_columns(cols, h_a.dims[d - 1]))

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
    if h_a.dims[top] and rank_mod(i_star[top], p) != h_a.dims[top]:
        return False
    return True
