"""Blow-ups, contractions, Ramanujam verdicts, resolution chains, certificates."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from exoticaffine.dualgraph import (
    Disconnected,
    InvalidParams,
    NotContractible,
    UnknownSite,
    WrongShape,
    ample_support_divisor,
    blow_up,
    chain_graph,
    contract,
    graph,
    graph_from_json,
    graph_to_json,
    intersection_determinant,
    intersection_matrix,
    minimalize,
    ramanujam_graph,
    ramanujam_verdict,
    resolution_chain,
    tdp_contractibility,
    to_dot,
    xt_certificate,
    xt_matrix,
)
from exoticaffine import dualgraph, fpgroups
from exoticaffine.cli import main
from exoticaffine.dualgraph import _q_connected
from exoticaffine.linalg import det


def random_tree(rng, max_vertices=12):
    n = rng.randint(1, max_vertices)
    vertices = {f"v{i}": rng.randint(-5, 2) for i in range(n)}
    edges = []
    ids = list(vertices)
    for i in range(1, n):
        edges.append((ids[i], ids[rng.randrange(i)]))
    return graph(vertices, edges)


class TestBlowUp:
    def test_outer_on_plane_boundary(self):
        g = graph({"v1": 1})
        g2 = blow_up(g, "v1")
        assert g2.vertices == {"v1": 0, "e1": -1}
        assert g2.has_edge("v1", "e1")

    def test_inner_on_chain(self):
        g = chain_graph([-3, 0])
        g2 = blow_up(g, ("v1", "v2"))
        assert g2.vertices == {"v1": -4, "v2": -1, "e1": -1}
        assert g2.has_edge("v1", "e1") and g2.has_edge("e1", "v2")
        assert not g2.has_edge("v1", "v2")

    def test_unknown_site(self):
        g = chain_graph([-1, -1])
        with pytest.raises(UnknownSite):
            blow_up(g, ("v1", "v9"))
        with pytest.raises(UnknownSite):
            blow_up(g, "v9")


class TestContract:
    def test_middle_of_chain(self):
        g = chain_graph([-2, -1, -2])
        g2 = contract(g, "v2")
        assert g2.vertices == {"v1": -1, "v3": -1}
        assert g2.has_edge("v1", "v3")

    def test_wrong_weight(self):
        g = chain_graph([-2, -2])
        with pytest.raises(NotContractible) as exc:
            contract(g, "v1")
        assert exc.value.reason == "weight"

    def test_isolated_minus_one(self):
        g = graph({"v1": -1})
        g2 = contract(g, "v1")
        assert g2.vertices == {} and not g2.edges

    def test_multi_edge_refused(self):
        g = graph({"a": -1, "b": 0, "c": 0}, [("a", "b"), ("a", "c"), ("b", "c")])
        with pytest.raises(NotContractible) as exc:
            contract(g, "a")
        assert exc.value.reason == "multi-edge"

    def test_high_valence_refused(self):
        g = graph({"a": -1, "b": 0, "c": 0, "d": 0}, [("a", "b"), ("a", "c"), ("a", "d")])
        with pytest.raises(NotContractible) as exc:
            contract(g, "a")
        assert exc.value.reason == "valence"

    def test_round_trip_identity(self):
        rng = random.Random(79)
        for _ in range(60):
            g = random_tree(rng)
            ids = g.ids()
            v = ids[rng.randrange(len(ids))]
            assert contract(blow_up(g, v), g.fresh_id()) == g
            edges = sorted(tuple(sorted(e)) for e in g.edges)
            if edges:
                e = edges[rng.randrange(len(edges))]
                assert contract(blow_up(g, e), g.fresh_id()) == g


class TestMinimalize:
    def test_double_contraction(self):
        g = chain_graph([-2, -1, -2])
        minimal, log = minimalize(g)
        assert log == ["v2", "v1"]
        assert list(minimal.vertices.values()) == [0]

    def test_ramanujam_graph_already_minimal(self):
        g = ramanujam_graph()
        minimal, log = minimalize(g)
        assert log == [] and minimal == g

    def test_empty(self):
        g = graph({})
        minimal, log = minimalize(g)
        assert minimal.vertices == {} and log == []

    def test_fixed_point(self):
        rng = random.Random(83)
        for _ in range(40):
            g = random_tree(rng)
            minimal, _ = minimalize(g)
            again, log = minimalize(minimal)
            assert log == [] and again == minimal


class TestRamanujamVerdict:
    def test_hirzebruch_boundaries(self):
        for n in range(0, 11):
            g = chain_graph([-n, 0])
            assert ramanujam_verdict(g) == "IsomorphicToC2"

    def test_plane_boundary(self):
        assert ramanujam_verdict(graph({"v1": 1})) == "IsomorphicToC2"

    def test_ramanujam_surface(self):
        assert ramanujam_verdict(ramanujam_graph()) == "NotC2"

    def test_cycle(self):
        g = graph({"a": -2, "b": -2, "c": -2}, [("a", "b"), ("b", "c"), ("c", "a")])
        assert ramanujam_verdict(g) == "NotATree"


class TestResolutionChain:
    def test_one_one(self):
        rc = resolution_chain(1, 1)
        assert rc.graph.vertices == {"E1": -1}
        assert rc.labels["E1"] == (1, 1)

    def test_two_one(self):
        rc = resolution_chain(2, 1)
        assert rc.graph.vertices == {"E1": -2, "E2": -1}
        assert rc.graph.has_edge("E1", "E2")
        assert rc.labels == {"E1": (1, 1), "E2": (1, 2)}

    def test_three_two(self):
        # Euclid trace 3,2 -> 1,2 -> 1,1: three blow-ups, interior (-1)
        rc = resolution_chain(3, 2)
        assert rc.graph.vertices == {"E1": -3, "E2": -2, "E3": -1}
        assert rc.graph.has_edge("E1", "E3") and rc.graph.has_edge("E3", "E2")
        assert not rc.graph.has_edge("E1", "E2")
        assert intersection_matrix(rc.graph).determinant in (1, -1)
        assert rc.labels["E3"] == (2, 3)

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            resolution_chain(0, 1)

    def test_chain_shape_and_unimodularity(self):
        rng = random.Random(89)
        for _ in range(40):
            m = rng.randint(1, 12)
            n = rng.randint(1, 12)
            rc = resolution_chain(m, n)
            g = rc.graph
            minus_ones = [v for v in g.ids() if g.weight(v) == -1]
            assert len(minus_ones) == 1
            assert all(g.valence(v) <= 2 for v in g.ids())
            assert g.is_connected() and not g.has_cycle()
            # function order m*p - n*q vanishes exactly on the last curve
            last = rc.order[-1]
            for v in g.ids():
                p, q = rc.labels[v]
                order = m * p - n * q
                assert (order == 0) == (v == last)
            if gcd(m, n) == 1:
                assert abs(intersection_matrix(g).determinant) == 1
                assert rc.labels[last] == (n, m)


class TestIntersectionMatrix:
    def test_hirzebruch(self):
        g = chain_graph([-4, 0])
        im = intersection_matrix(g)
        assert im.entries == ((-4, 1), (1, 0))
        assert im.determinant == -1

    def test_single_plus_one(self):
        assert intersection_matrix(graph({"v1": 1})).determinant == 1

    def test_ramanujam_unimodular(self):
        assert abs(intersection_matrix(ramanujam_graph()).determinant) == 1

    def test_det_preserved_by_blowup_and_contract(self):
        rng = random.Random(97)
        for _ in range(40):
            g = random_tree(rng)
            d = abs(intersection_matrix(g).determinant)
            ids = g.ids()
            v = ids[rng.randrange(len(ids))]
            g2 = blow_up(g, v)
            assert abs(intersection_matrix(g2).determinant) == d
            edges = sorted(tuple(sorted(e)) for e in g.edges)
            if edges:
                g3 = blow_up(g, edges[rng.randrange(len(edges))])
                assert abs(intersection_matrix(g3).determinant) == d


class TestXtCertificate:
    def test_all_ones_not_unimodular(self):
        cert = xt_certificate(xt_matrix(1, 1, 1, 1, 1, 1, 1, 1))
        assert cert.verdict == "NotUnimodular" and cert.determinant == 0

    def test_acyclic_instance(self):
        cert = xt_certificate(xt_matrix(2, 1, 1, 1, 1, 1, 1, 1))
        assert cert.verdict == "Acyclic" and abs(cert.determinant) == 1

    def test_negative_entry_wrong_shape(self):
        t = xt_matrix(2, 1, 1, 1, 1, 1, 1, 1)
        t[0][0] = -2
        with pytest.raises(WrongShape):
            xt_certificate(t)

    def test_off_pattern_entry_wrong_shape(self):
        t = xt_matrix(1, 1, 1, 1, 1, 1, 1, 1)
        t[0][1] = 1
        with pytest.raises(WrongShape):
            xt_certificate(t)


class TestTdpContractibility:
    def test_examples(self):
        assert tdp_contractibility(3, 2, 2, 1)
        assert tdp_contractibility(2, 1, 3, 2)
        assert not tdp_contractibility(2, 1, 2, 1)

    def test_formula_on_grid(self):
        for m1 in range(1, 7):
            for n1 in range(1, 7):
                for m2 in range(1, 7):
                    for n2 in range(1, 7):
                        expected = (
                            abs(m1 * n2 + m2 * n1 - m1 * m2) == 1
                            and m1 > n1
                            and m2 > n2
                        )
                        assert tdp_contractibility(m1, n1, m2, n2) == expected


class TestAmpleSupport:
    def test_already_ample(self):
        im = intersection_matrix(graph({"v1": 1}))
        assert ample_support_divisor(im, [1]) == [1]

    def test_augmentation_example(self):
        q = [[0, 1], [1, -1]]
        a = ample_support_divisor(q, [1, 0])
        assert a == [2, 1]
        qa = [sum(q[i][j] * a[j] for j in range(2)) for i in range(2)]
        assert all(v > 0 for v in qa)

    def test_negative_definite_infeasible(self):
        q = [[-2, 1], [1, -2]]
        assert ample_support_divisor(q, [1, 0]) == "Infeasible"
        assert ample_support_divisor(q, [1, 1]) == "Infeasible"

    def test_small_search_oracle(self):
        # brute-force oracle: whenever the greedy finds a, check positivity;
        # on graphs where small search finds nothing, greedy must not succeed
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(1, 3)
            q = [[0] * n for _ in range(n)]
            for i in range(n):
                q[i][i] = rng.randint(-3, 2)
            for i in range(n):
                for j in range(i + 1, n):
                    q[i][j] = q[j][i] = 1  # connected
            h = [rng.randint(-1, 2) for _ in range(n)]
            try:
                result = ample_support_divisor(q, h)
            except Disconnected:
                continue
            feasible = _search_positive(q, n)
            if result != "Infeasible":
                qa = [sum(q[i][j] * result[j] for j in range(n)) for i in range(n)]
                assert all(x > 0 for x in result) and all(v > 0 for v in qa)
                assert feasible

    def test_disconnected_rejected(self):
        q = [[1, 0], [0, 1]]
        with pytest.raises(Disconnected):
            ample_support_divisor(q, [1, 1])


def _search_positive(q, n, bound=6):
    import itertools

    for a in itertools.product(range(1, bound + 1), repeat=n):
        if all(sum(q[i][j] * a[j] for j in range(n)) > 0 for i in range(n)):
            return True
    return False


class TestDotAndJson:
    def test_single_vertex(self):
        text = to_dot(graph({"v1": -1}))
        assert '"v1" [label="v1\\n-1"];' in text

    def test_edge(self):
        text = to_dot(chain_graph([-1, -2]))
        assert '"v1" -- "v2";' in text

    def test_empty(self):
        assert to_dot(graph({})) == "graph dualgraph {\n}"

    def test_json_round_trip(self):
        rng = random.Random(103)
        for _ in range(20):
            g = random_tree(rng)
            assert graph_from_json(graph_to_json(g)) == g


def _scan_neighbors(g, v):
    """The neighbours of v by a scan of every edge, as WeightedGraph.neighbors
    found them before each graph kept its adjacency."""
    out = []
    for e in g.edges:
        if v in e:
            (other,) = e - {v}
            out.append(other)
    return sorted(out)


# The walks that is_connected, has_cycle and _q_connected each ran before
# they shared one component count; kept here as oracles.
def _old_is_connected(g):
    if not g.vertices:
        return True
    seen = set()
    stack = [next(iter(sorted(g.vertices)))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(_scan_neighbors(g, v))
    return len(seen) == len(g.vertices)


def _old_has_cycle(g):
    components = 0
    seen = set()
    for start in sorted(g.vertices):
        if start in seen:
            continue
        components += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(_scan_neighbors(g, v))
    return len(g.edges) != len(g.vertices) - components


def _old_q_connected(entries):
    n = len(entries)
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and entries[i][j] != 0 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def random_graph(rng, max_vertices=9):
    n = rng.randint(0, max_vertices)
    vertices = {f"v{i}": rng.randint(-4, 1) for i in range(n)}
    ids = list(vertices)
    density = rng.random()
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < density / 2]
    return graph(vertices, edges)


class TestComponentCount:
    def test_graph_walks_match_old_walks(self):
        rng = random.Random(131)
        for _ in range(300):
            g = random_graph(rng)
            assert g.is_connected() == _old_is_connected(g)
            assert g.has_cycle() == _old_has_cycle(g)

    def test_intersection_matrix_walk_matches_old_walk(self):
        rng = random.Random(137)
        for _ in range(300):
            entries = intersection_matrix(random_graph(rng)).entries
            assert _q_connected(entries) == _old_q_connected(entries)

    def test_neighbors_match_an_edge_scan(self):
        rng = random.Random(167)
        contracted = 0
        for _ in range(200):
            g = random_graph(rng)
            graphs = [g, graph_from_json(graph_to_json(g))]
            if g.vertices:
                graphs.append(blow_up(g, rng.choice(g.ids())))
            if g.edges:
                graphs.append(blow_up(g, tuple(rng.choice(sorted(map(sorted, g.edges))))))
            for v in graphs[-1].ids():  # each contraction the latest graph allows
                try:
                    graphs.append(contract(graphs[-1], v))
                    contracted += 1
                except NotContractible:
                    pass
            for h in graphs:
                for v in h.ids():
                    assert h.neighbors(v) == _scan_neighbors(h, v)
        assert contracted >= 200

    def test_ramanujam_verdict_on_random_graphs(self):
        # the verdict read off the minimal graph with the old walks
        rng = random.Random(139)
        for _ in range(200):
            g = random_graph(rng)
            minimal, _ = minimalize(g)
            if _old_has_cycle(minimal):
                expected = "NotATree"
            elif _old_is_connected(minimal) and all(minimal.valence(v) <= 2 for v in minimal.ids()):
                expected = "IsomorphicToC2"
            else:
                expected = "NotC2"
            assert ramanujam_verdict(g) == expected


def random_forest(rng, max_vertices=14):
    """Up to four seeded trees (any may be a single vertex, and there may be
    none), weights from -4 to 4."""
    vertices, edges = {}, []
    for c in range(rng.randint(0, 4)):
        ids = [f"c{c}v{i}" for i in range(rng.randint(1, max_vertices // 2))]
        vertices.update((v, rng.randint(-4, 4)) for v in ids)
        edges += [(ids[i], ids[rng.randrange(i)]) for i in range(1, len(ids))]
    return graph(vertices, edges)


def continuant(weights):
    """d_k = w_k d_(k-1) - d_(k-2) from d_0 = 1, d_(-1) = 0."""
    d, before = 1, 0
    for w in weights:
        d, before = w * d - before, d
    return d


class TestForestDeterminant:
    """A forest's determinant comes from one leaf-to-root pass; elimination
    (linalg.det) is its oracle, and the path taken for a graph with a cycle."""

    @pytest.fixture
    def det_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dualgraph, "det", lambda m: calls.append(m) or det(m))
        return calls

    def test_matches_elimination_on_seeded_forests(self, det_calls):
        rng = random.Random(151)
        forests = [graph({}), graph({"v": 0}), graph({"v": -3})]
        forests += [random_forest(rng) for _ in range(1200)]
        components = set()
        for g in forests:
            im = intersection_matrix(g)
            assert im.determinant == det(im.entries)
            components.add(len(g.vertices) - len(g.edges))
        assert det_calls == [] and components >= {0, 1, 2, 3, 4}

    def test_chain_is_the_continuant(self, det_calls):
        rng = random.Random(157)
        for _ in range(300):
            weights = [rng.randint(-5, 5) for _ in range(rng.randint(0, 30))]
            assert intersection_matrix(chain_graph(weights)).determinant == continuant(weights)
        assert det_calls == []

    def test_a_cycle_is_eliminated_once(self, det_calls):
        rng = random.Random(163)
        cyclic = 0
        for _ in range(400):
            g = random_graph(rng)
            before = len(det_calls)
            im = intersection_matrix(g)
            assert im.determinant == det(im.entries)
            assert len(det_calls) - before == g.has_cycle()
            cyclic += g.has_cycle()
        assert cyclic >= 100


class CountingEdges(frozenset):
    """An edge set that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestNoWalkScansTheEdges:
    def test_long_chain(self, capsys, monkeypatch):
        ids = [f"v{i}" for i in range(1000)]
        edges = CountingEdges(frozenset(pair) for pair in zip(ids, ids[1:]))
        g = dualgraph.WeightedGraph(dict.fromkeys(ids, -2), edges)
        assert edges.passes == 1  # the one pass that builds the adjacency
        edges.passes = 0
        assert not g.has_cycle() and g.is_connected()
        assert [g.valence(v) for v in ids[:3]] == [1, 2, 2]
        assert g.neighbors("v1") == ["v0", "v2"]
        assert ramanujam_verdict(g) == "IsomorphicToC2"
        assert intersection_determinant(g) == continuant([-2] * 1000) == 1001
        assert edges.passes == 0

        def no_matrix(g):
            raise AssertionError("graph chain built the dense matrix")

        monkeypatch.setattr(dualgraph, "intersection_matrix", no_matrix)
        assert main(["graph", "chain", "--m", "89", "--n", "55"]) == 0
        assert json.loads(capsys.readouterr().out)["determinant"] in ("1", "-1")


def hirzebruch_jung(a, b):
    """a/b = c1 - 1/(c2 - 1/(... - 1/ck)) with every c >= 2, for 0 < b < a coprime."""
    out = []
    while b:
        c = -(-a // b)
        out.append(c)
        a, b = b, c * b - a
    return out


def plumbing_graph(e0, arms):
    """Star: a centre of weight e0 and, for each (a, b), the chain of weights
    -c_j of a/b = [c_1, ..., c_k], c_1 next to the centre."""
    vertices, edges = {"centre": e0}, []
    for i, (a, b) in enumerate(arms):
        previous = "centre"
        for j, c in enumerate(hirzebruch_jung(a, b)):
            vertices[f"arm{i}.{j}"] = -c
            edges.append((previous, f"arm{i}.{j}"))
            previous = f"arm{i}.{j}"
    return graph(vertices, edges)


def seifert_presentation(e0, arms):
    """<q_1 .. q_n, h | [h, q_i], q_i^a_i h^b_i, q_1 ... q_n h^-e0>."""
    n = len(arms)
    h = n + 1

    def power(letter, k):
        return (letter if k > 0 else -letter,) * abs(k)

    rels = [(h, i, -h, -i) for i in range(1, n + 1)]
    rels += [power(i, a) + power(h, b) for i, (a, b) in enumerate(arms, start=1)]
    rels.append(tuple(range(1, n + 1)) + power(h, -e0))
    return fpgroups.Presentation(tuple(f"q{i}" for i in range(1, h)) + ("h",), tuple(rels))


class TestPlumbingAgainstSeifertHomology:
    """|det| of the star-shaped plumbing graph (the forest pass) is the order
    of H1 of the Seifert manifold (the group layer's SNF); det 0 goes with
    free rank 1."""

    def test_seeded_invariants(self):
        rng = random.Random(173)
        euler_zero = 0
        for _ in range(300):
            arms = []
            for _ in range(rng.randint(1, 4)):
                a = rng.randint(2, 11)
                arms.append((a, rng.choice([b for b in range(1, a) if gcd(a, b) == 1])))
            e0 = rng.randint(-4, 1)
            if len(arms) % 2 == 0 and rng.random() < 0.3:
                # pairs b/a + (a - b)/a = 1, so e = e0 + sum b_i/a_i = 0
                arms = [arm for a, b in arms[::2] for arm in ((a, b), (a, a - b))]
                e0 = -len(arms) // 2
            determinant = intersection_matrix(plumbing_graph(e0, arms)).determinant
            h1 = fpgroups.abelianization(seifert_presentation(e0, arms))
            assert (determinant == 0) == (e0 + sum(Fraction(b, a) for a, b in arms) == 0)
            if determinant == 0:
                assert h1.free_rank == 1
                euler_zero += 1
            else:
                assert h1.free_rank == 0 and h1.order() == abs(determinant)
        assert euler_zero >= 20

    def test_brieskorn_homology_spheres(self):
        triples = [
            (k, l, s)
            for k in range(2, 14)
            for l in range(k + 1, 14)
            for s in range(l + 1, 14)
            if gcd(k, l) == gcd(k, s) == gcd(l, s) == 1
        ]
        assert len(triples) == 79
        for triple in triples:
            a = triple[0] * triple[1] * triple[2]
            arms = [(ai, -pow(a // ai, -1, ai) % ai) for ai in triple]
            e0, rest = divmod(-(1 + sum(b * (a // ai) for ai, b in arms)), a)
            assert rest == 0
            assert abs(intersection_matrix(plumbing_graph(e0, arms)).determinant) == 1
            assert fpgroups.abelianization(seifert_presentation(e0, arms)).trivial


def _minimalize_by_contract(g):
    """Contract the smallest id that contract accepts, until none is left."""
    log = []
    while True:
        for v in g.ids():
            try:
                smaller = contract(g, v)
            except NotContractible:
                continue
            g = smaller
            log.append(v)
            break
        else:
            return g, log


class TestMinimalizeAsksContract:
    def test_random_blowup_sequences(self):
        rng = random.Random(149)
        for _ in range(150):
            g = random_graph(rng, max_vertices=6)
            for _ in range(rng.randint(0, 6)):
                edges = sorted(tuple(sorted(e)) for e in g.edges)
                if edges and rng.random() < 0.5:
                    g = blow_up(g, edges[rng.randrange(len(edges))])
                elif g.vertices:
                    ids = g.ids()
                    g = blow_up(g, ids[rng.randrange(len(ids))])
            assert minimalize(g) == _minimalize_by_contract(g)

    def test_refusal_reasons(self):
        with pytest.raises(NotContractible, match="weight"):
            contract(chain_graph([-2]), "v1")
        star = graph({"c": -1, "a": -2, "b": -2, "d": -2}, [("c", "a"), ("c", "b"), ("c", "d")])
        with pytest.raises(NotContractible, match="valence"):
            contract(star, "c")
        triangle = graph({"a": -1, "b": -2, "c": -2}, [("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(NotContractible, match="multi-edge"):
            contract(triangle, "a")
        assert minimalize(star)[1] == [] and minimalize(triangle)[1] == []
