"""Weighted dual-graph calculus for SNC boundary divisors.

Graphs are simple (no loops or multi-edges): vertices carry integer
self-intersection weights, edges record transversal intersections.  Blow-ups
come in two kinds: outer (at a smooth point of a component) and inner (at a
double point, subdividing the edge).  Castelnuovo contraction inverts both.
A contraction that would create a multi-edge is refused; that keeps every
graph the dual graph of an SNC divisor.

Also here: the Euclidean resolution chain for x^m/y^n, exact intersection
determinants (a forest's in one leaf-to-root pass, fraction-free elimination
only for a graph with a cycle), the unimodularity certificate for the 4x4
covering matrices T, the Diophantine contractibility test, and the greedy
construction of an ample divisor supported on the whole boundary.
"""

from __future__ import annotations

from .linalg import det, mat_vec


class GraphError(Exception):
    pass


class UnknownSite(GraphError):
    pass


class NotContractible(GraphError):
    def __init__(self, reason: str):
        super().__init__(f"not contractible: {reason}")
        self.reason = reason


class WrongShape(GraphError):
    pass


class InvalidParams(GraphError):
    pass


class Disconnected(GraphError):
    pass


def _edge_text(e) -> str:
    """An edge as a set literal with sorted endpoints, the same in every run."""
    return "{" + ", ".join(sorted(map(repr, e))) + "}"


class WeightedGraph:
    """Simple weighted graph; vertices maps id -> weight, edges are 2-sets,
    adjacent maps id -> neighbours (built once: a graph is never mutated)."""

    __slots__ = ("vertices", "edges", "adjacent")

    def __init__(self, vertices: dict[str, int], edges: frozenset[frozenset]):
        self.vertices = vertices
        self.edges = edges
        self.adjacent = adjacent = {v: [] for v in vertices}
        for e in edges:
            if len(e) != 2:
                raise GraphError(f"edge {_edge_text(e)} is not a 2-set")
            u, v = e
            if u not in adjacent or v not in adjacent:
                raise GraphError(f"edge endpoint {v if u in adjacent else u!r} is not a vertex")
            adjacent[u].append(v)
            adjacent[v].append(u)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertices, self.edges) == (other.vertices, other.edges)
        return NotImplemented

    def __repr__(self) -> str:
        return f"WeightedGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    def ids(self) -> list[str]:
        return sorted(self.vertices)

    def weight(self, v: str) -> int:
        return self.vertices[v]

    def neighbors(self, v: str) -> list[str]:
        return sorted(self.adjacent[v])

    def valence(self, v: str) -> int:
        return len(self.adjacent[v])

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def is_connected(self) -> bool:
        return _component_count(self.vertices, self.adjacent.__getitem__) <= 1

    def has_cycle(self) -> bool:
        # a simple graph is a forest iff |E| = |V| - #components
        components = _component_count(self.vertices, self.adjacent.__getitem__)
        return len(self.edges) != len(self.vertices) - components

    def fresh_id(self, stem: str = "e") -> str:
        k = 1
        while f"{stem}{k}" in self.vertices:
            k += 1
        return f"{stem}{k}"


def _component_count(nodes, neighbors) -> int:
    """Number of connected components of the graph on `nodes` whose
    adjacency is `neighbors(node)`."""
    seen: set = set()
    components = 0
    for start in nodes:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return components


def graph(vertices, edges=()) -> WeightedGraph:
    return WeightedGraph(dict(vertices), frozenset(frozenset(e) for e in edges))


def chain_graph(weights, stem: str = "v") -> WeightedGraph:
    """Linear chain v1 - v2 - ... with the given weights."""
    ids = [f"{stem}{i + 1}" for i in range(len(weights))]
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    return graph(zip(ids, weights), edges)


# ---------------------------------------------------------------------------
# blow-up and contraction


def blow_up(g: WeightedGraph, site) -> WeightedGraph:
    """Outer blow-up at a vertex id, inner blow-up at an edge (u, v).

    Outer: attach a new (-1)-vertex to the site, dropping its weight by one.
    Inner: subdivide the edge with a new (-1)-vertex, dropping both endpoint
    weights by one.
    """
    new_id = g.fresh_id()
    if isinstance(site, str):
        if site not in g.vertices:
            raise UnknownSite(f"vertex {site!r} not in graph")
        vertices = dict(g.vertices)
        vertices[site] -= 1
        vertices[new_id] = -1
        edges = set(g.edges) | {frozenset((site, new_id))}
        return WeightedGraph(vertices, frozenset(edges))
    u, v = tuple(site)
    e = frozenset((u, v))
    if e not in g.edges:
        raise UnknownSite(f"edge {_edge_text(e)} not in graph")
    vertices = dict(g.vertices)
    vertices[u] -= 1
    vertices[v] -= 1
    vertices[new_id] = -1
    edges = set(g.edges) - {e} | {frozenset((u, new_id)), frozenset((v, new_id))}
    return WeightedGraph(vertices, frozenset(edges))


def _contraction_refusal(g: WeightedGraph, v: str) -> str | None:
    """Why Castelnuovo contraction of v is refused, or None if it is not."""
    if g.weight(v) != -1:
        return "weight"
    nbrs = g.neighbors(v)
    if len(nbrs) > 2:
        return "valence"
    if len(nbrs) == 2 and g.has_edge(nbrs[0], nbrs[1]):
        return "multi-edge"
    return None


def contract(g: WeightedGraph, v: str) -> WeightedGraph:
    """Castelnuovo contraction of a (-1)-vertex of valence <= 2."""
    if v not in g.vertices:
        raise UnknownSite(f"vertex {v!r} not in graph")
    refusal = _contraction_refusal(g, v)
    if refusal:
        raise NotContractible(refusal)
    nbrs = g.neighbors(v)
    vertices = {w: wt for w, wt in g.vertices.items() if w != v}
    for n in nbrs:
        vertices[n] += 1
    edges = {e for e in g.edges if v not in e}
    if len(nbrs) == 2:
        edges.add(frozenset(nbrs))
    return WeightedGraph(vertices, frozenset(edges))


def minimalize(g: WeightedGraph) -> tuple[WeightedGraph, list[str]]:
    """Contract (-1)-vertices of valence <= 2 until none qualifies.

    Deterministic order: smallest eligible id first.  Returns the minimal
    graph and the log of contracted ids.
    """
    log = []
    while True:
        candidate = next((v for v in g.ids() if _contraction_refusal(g, v) is None), None)
        if candidate is None:
            return g, log
        g = contract(g, candidate)
        log.append(candidate)


def ramanujam_verdict(g: WeightedGraph) -> str:
    """Ramanujam's criterion on the minimalized graph.

    IsomorphicToC2 iff the minimal graph is a linear chain (connected,
    acyclic, valences <= 2; the empty graph counts); NotATree for cycles.
    """
    minimal, _ = minimalize(g)
    if minimal.has_cycle():
        return "NotATree"
    connected = len(minimal.vertices) - len(minimal.edges) <= 1  # a forest's components
    if connected and all(len(nbrs) <= 2 for nbrs in minimal.adjacent.values()):
        return "IsomorphicToC2"
    return "NotC2"


def ramanujam_graph() -> WeightedGraph:
    """The resolution graph of the Ramanujam surface boundary divisor."""
    g = chain_graph([-3, -1, -3, -1, -2, -2, -2, -2])
    return graph({**g.vertices, "b1": -2, "b2": -2}, [*g.edges, ("v2", "b1"), ("v4", "b2")])


# ---------------------------------------------------------------------------
# resolution chains


class ResolutionChain:
    __slots__ = ("graph", "order", "labels")

    def __init__(
        self, graph: WeightedGraph, order: tuple[str, ...], labels: dict[str, tuple[int, int]]
    ):
        self.graph = graph
        self.order = order  # creation order of the exceptional vertices
        self.labels = labels  # pullback multiplicities of (x), (y)


def resolution_chain(m: int, n: int) -> ResolutionChain:
    """Exceptional chain of the minimal resolution of x^m / y^n.

    Subtractive Euclid on (a, b) starting at (m, n): each state blows up the
    current indeterminacy point; the new curve's multiplicity label is the sum
    of the two labels at the point.  Terminates when a = b (that blow-up
    separates zeros from poles).  Exactly one (-1)-vertex results, and the
    intersection matrix is unimodular.
    """
    if m < 1 or n < 1:
        raise InvalidParams("resolution_chain needs m, n >= 1")
    vertices: dict[str, int] = {}
    edges: set[frozenset] = set()
    labels: dict[str, tuple[int, int]] = {}
    order: list[str] = []
    left: str | None = None  # internal curve on the zero side (None = D1)
    right: str | None = None  # internal curve on the pole side (None = D2)
    left_label = (1, 0)
    right_label = (0, 1)
    a, b = m, n
    idx = 0
    while True:
        idx += 1
        new = f"E{idx}"
        vertices[new] = -1
        labels[new] = (left_label[0] + right_label[0], left_label[1] + right_label[1])
        order.append(new)
        if left is not None and right is not None:
            edges.discard(frozenset((left, right)))
        if left is not None:
            vertices[left] -= 1
            edges.add(frozenset((left, new)))
        if right is not None:
            vertices[right] -= 1
            edges.add(frozenset((right, new)))
        if a == b:
            break
        if a > b:
            left, left_label = new, labels[new]
            a -= b
        else:
            right, right_label = new, labels[new]
            b -= a
    return ResolutionChain(WeightedGraph(vertices, frozenset(edges)), tuple(order), labels)


# ---------------------------------------------------------------------------
# intersection matrices


class IntersectionMatrix:
    __slots__ = ("basis", "entries", "determinant")

    def __init__(
        self, basis: tuple[str, ...], entries: tuple[tuple[int, ...], ...], determinant: int
    ):
        self.basis = basis
        self.entries = entries
        self.determinant = determinant


def intersection_matrix(g: WeightedGraph) -> IntersectionMatrix:
    """Symmetric matrix with vertex weights on the diagonal, 1 for each edge."""
    return IntersectionMatrix(tuple(g.ids()), _entries(g), intersection_determinant(g))


def intersection_determinant(g: WeightedGraph) -> int:
    """det of the intersection matrix, with no dense matrix for a forest."""
    determinant = _forest_det(g)
    if determinant is None:  # a cycle: no leaf-to-root order, so eliminate
        determinant = det(_entries(g))
    return determinant


def _entries(g: WeightedGraph) -> tuple[tuple[int, ...], ...]:
    basis = g.ids()
    index = {v: i for i, v in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for i, v in enumerate(basis):
        rows[i][i] = g.vertices[v]
        for w in g.adjacent[v]:
            rows[i][index[w]] = 1
    return tuple(map(tuple, rows))


def _forest_det(g: WeightedGraph) -> int | None:
    """The intersection determinant of a forest in one leaf-to-root pass, or
    None when g has a cycle.

    Expanding along a vertex v of a tree T gives
    det T = w_v det(T - v) - sum over children c of det(T - v - c).  So each
    vertex carries A_v = det of its subtree and B_v = det of that subtree
    without v; its children fold in as (P, S) <- (P A_c, S A_c + B_c P) from
    (1, 0), and A_v = w_v P - S, B_v = P.  On a chain this is the continuant
    d_k = w_k d_{k-1} - d_{k-2} of Hirzebruch-Jung continued fractions.  No
    division, so a zero weight is no special case.
    """
    parent: dict[str, str | None] = {}
    fold: dict[str, tuple[int, int]] = {}
    determinant = 1
    for root in g.vertices:
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for v in order:  # breadth first; order grows as it is read
            for w in g.adjacent[v]:
                if w != parent[v]:
                    if w in parent:  # a second path to w
                        return None
                    parent[w] = v
                    order.append(w)
        for v in reversed(order):
            p, s = fold.pop(v, (1, 0))
            a = g.vertices[v] * p - s
            up = parent[v]
            if up is None:
                determinant *= a
            else:
                q, t = fold.get(up, (1, 0))
                fold[up] = (q * a, t * a + p * q)
    return determinant


# ---------------------------------------------------------------------------
# X_T certificates and the tom Dieck-Petrie Diophantine test


def _xt_validate(t) -> tuple[int, int, int, int, int, int, int, int]:
    """Check the sparsity pattern rows (m00,0,n00,0),(m10,0,0,n10),
    (0,m01,n01,0),(0,m11,0,n11); return the eight entries."""
    if len(t) != 4 or any(len(row) != 4 for row in t):
        raise WrongShape("need a 4x4 matrix")
    for row in t:
        for entry in row:
            if not isinstance(entry, int) or entry < 0:
                raise WrongShape("entries must be non-negative integers")
    pattern = [(0, 0), (0, 2), (1, 0), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3)]
    for i in range(4):
        for j in range(4):
            if (i, j) not in pattern and t[i][j] != 0:
                raise WrongShape(f"entry ({i},{j}) must be zero in this shape")
    m00, n00 = t[0][0], t[0][2]
    m10, n10 = t[1][0], t[1][3]
    m01, n01 = t[2][1], t[2][2]
    m11, n11 = t[3][1], t[3][3]
    return m00, n00, m10, n10, m01, n01, m11, n11


def xt_matrix(m00, n00, m10, n10, m01, n01, m11, n11) -> list[list[int]]:
    return [
        [m00, 0, n00, 0],
        [m10, 0, 0, n10],
        [0, m01, n01, 0],
        [0, m11, 0, n11],
    ]


class XtCertificate:
    __slots__ = ("verdict", "determinant")

    def __init__(self, verdict: str, determinant: int):
        self.verdict = verdict  # "Acyclic" | "NotUnimodular"
        self.determinant = determinant


def xt_certificate(t) -> XtCertificate:
    """Acyclic iff |det T| = 1 for the covering data matrix T.

    Cofactor expansion of the sparsity pattern leaves two products:
    det T = m01 n11 m10 n00 - m00 n10 m11 n01."""
    m00, n00, m10, n10, m01, n01, m11, n11 = _xt_validate(t)
    determinant = m01 * n11 * m10 * n00 - m00 * n10 * m11 * n01
    return XtCertificate("Acyclic" if abs(determinant) == 1 else "NotUnimodular", determinant)


def tdp_contractibility(m1: int, n1: int, m2: int, n2: int) -> bool:
    """m1 n2 + m2 n1 - m1 m2 = +-1 together with m_i > n_i."""
    return abs(m1 * n2 + m2 * n1 - m1 * m2) == 1 and m1 > n1 and m2 > n2


# ---------------------------------------------------------------------------
# Fujita's ample-support procedure


def ample_support_divisor(q: IntersectionMatrix | list, h: list[int]):
    """Greedy search for a > 0 with (Q a) > 0 componentwise.

    Seeded from the positive part of h; repeatedly adjoins the smallest-id
    component D_j with D_j . A > 0 using the minimal multiplier m_j that
    keeps all accumulated conditions strict.  Returns the vector, or the
    string "Infeasible" when the procedure gets stuck.
    """
    entries = q.entries if isinstance(q, IntersectionMatrix) else q
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise WrongShape("intersection matrix must be square")
    for i in range(n):
        for j in range(n):
            if entries[i][j] != entries[j][i]:
                raise WrongShape("intersection matrix must be symmetric")
    if n == 0:
        return []
    if not _q_connected(entries):
        raise Disconnected("the divisor graph must be connected")
    if len(h) != n:
        raise WrongShape("seed vector length mismatch")
    a = [hi if hi > 0 else 0 for hi in h]
    if all(x == 0 for x in a):
        return "Infeasible"

    for _ in range(8 * n + 16):
        support = [i for i in range(n) if a[i] > 0]
        values = mat_vec(entries, a)
        if len(support) == n and all(v > 0 for v in values):
            return a
        progressed = False
        for j in range(n):
            if a[j] > 0 or values[j] <= 0:
                continue
            mj = _minimal_multiplier(entries, a, values, support, j)
            if mj is None:
                continue
            a = [mj * x for x in a]
            a[j] += 1
            progressed = True
            break
        if not progressed:
            return "Infeasible"
    return "Infeasible"


def _minimal_multiplier(entries, a, values, support, j):
    """Smallest m >= 1 with m*(Qa)_i + Q_ij > 0 for i in support + {j}."""
    lower = 1
    for i in support + [j]:
        vi = values[i]
        qij = entries[i][j]
        if vi > 0:
            # m > (-qij)/vi; qij >= 0 off-diagonal but q_jj may be negative
            need = (-qij) // vi + 1
            lower = max(lower, need)
        else:
            if qij <= 0:
                return None
            if vi < 0:
                return None  # larger m only hurts
    for i in support + [j]:
        if lower * values[i] + entries[i][j] <= 0:
            return None
    return lower


def _q_connected(entries) -> bool:
    n = len(entries)
    return _component_count(
        range(n), lambda i: [j for j in range(n) if j != i and entries[i][j] != 0]
    ) <= 1


# ---------------------------------------------------------------------------
# DOT export


def to_dot(g: WeightedGraph) -> str:
    lines = ["graph dualgraph {"]
    for v in g.ids():
        lines.append(f'  "{v}" [label="{v}\\n{g.weight(v)}"];')
    for e in sorted(tuple(sorted(e)) for e in g.edges):
        lines.append(f'  "{e[0]}" -- "{e[1]}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON


def graph_to_json(g: WeightedGraph) -> dict:
    return {
        "vertices": [{"id": v, "w": g.weight(v)} for v in g.ids()],
        "edges": sorted([sorted(e) for e in g.edges]),
    }


def graph_from_json(data) -> WeightedGraph:
    """Malformed graph JSON is a WrongShape."""
    entries = data.get("vertices") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise WrongShape('a graph needs a "vertices" list')
    vertices = {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and type(entry.get("w")) is int):
            raise WrongShape(f"vertex {entry!r} needs a string id and an integer weight w")
        if entry["id"] in vertices:
            raise WrongShape(f"vertex id {entry['id']!r} is repeated")
        vertices[entry["id"]] = entry["w"]
    edges = data.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and e[0] != e[1]
        and all(isinstance(v, str) and v in vertices for v in e)
        for e in edges
    ):
        raise WrongShape('"edges" must be pairs of distinct vertex ids')
    seen: set[frozenset] = set()
    for e in edges:
        if frozenset(e) in seen:
            raise WrongShape(f"edge {e!r} is repeated")
        seen.add(frozenset(e))
    return graph(vertices, seen)
