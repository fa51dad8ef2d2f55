import itertools

import networkx as nx
import numpy as np
import pytest

from entrokit.graphs import (
    WeightedGraph,
    _is_planar,
    _sorted_edges,
    correlation_matrix,
    distance_graph,
    mst,
    pmfg,
)


def random_complete_graph(n, seed, levels=None):
    """Random distances in [0.1, 2.0]; with ``levels``, only that many distinct values."""
    rng = np.random.default_rng(seed)
    nodes = tuple(f"N{i:03d}" for i in range(n))
    m = n * (n - 1) // 2
    if levels is None:
        distances = rng.uniform(0.1, 2.0, m)
    else:
        distances = np.linspace(0.1, 2.0, levels)[rng.integers(0, levels, m)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple((nodes[i], nodes[j], float(d)) for (i, j), d in zip(pairs, distances))
    return WeightedGraph(nodes=nodes, edges=edges)


def nx_pmfg(graph):
    """The greedy PMFG loop on networkx's planarity test: the reference for ``pmfg``."""
    target = 3 * (len(graph.nodes) - 2)
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    kept = []
    for i, j, d in _sorted_edges(graph):
        g.add_edge(i, j)
        if nx.check_planarity(g)[0]:
            kept.append((i, j, d))
            if len(kept) == target:
                break
        else:
            g.remove_edge(i, j)
    return tuple(kept)


def is_planar(n, edges):
    """``_is_planar`` on integer adjacency lists built from an edge list."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return _is_planar(adj)


def nx_is_planar(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.check_planarity(g)[0]


def subdivide(n, edges, times, rng):
    """Replace a random edge by a path through a new vertex, ``times`` times."""
    edges = list(edges)
    for _ in range(times):
        a, b = edges.pop(int(rng.integers(len(edges))))
        edges += [(a, n), (n, b)]
        n += 1
    return n, edges


K5 = list(itertools.combinations(range(5), 2))
K33 = [(a, b) for a in range(3) for b in range(3, 6)]


def brute_force_mst_weight(graph):
    """Exhaustive search over all spanning trees (edge subsets of size n-1)."""
    n = len(graph.nodes)
    best = None
    for subset in itertools.combinations(graph.edges, n - 1):
        parent = {v: v for v in graph.nodes}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        ok = True
        for i, j, _ in subset:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            weight = sum(d for _, _, d in subset)
            best = weight if best is None else min(best, weight)
    return best


def verify_planar_embedding(edges, nodes):
    """Independent certificate check: Euler bound plus Euler's formula on the
    combinatorial embedding's face traversal."""
    n, e = len(nodes), len(edges)
    assert e <= 3 * n - 6
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from((i, j) for i, j, _ in edges)
    planar, embedding = nx.check_planarity(g)
    assert planar
    half_edges = {(u, v) for u, v in embedding.edges()}
    faces = 0
    while half_edges:
        u, v = next(iter(half_edges))
        faces += 1
        for fu, fv in _face_walk(embedding, u, v):
            half_edges.discard((fu, fv))
    components = nx.number_connected_components(g)
    assert n - e + faces == 1 + components  # Euler's formula per component


def _face_walk(embedding, u, v):
    walk = []
    start = (u, v)
    while True:
        walk.append((u, v))
        u, v = embedding.next_face_half_edge(u, v)
        if (u, v) == start:
            return walk


class TestCorrelationMatrix:
    def test_identical_series(self):
        returns = np.array([[0.1, -0.2, 0.3, 0.0], [0.1, -0.2, 0.3, 0.0]])
        rho = correlation_matrix(("A", "B"), returns)
        assert rho[0, 1] == pytest.approx(1.0)
        graph = distance_graph(("A", "B"), rho)
        assert graph.edges[0][2] == pytest.approx(0.0)

    def test_anticorrelated(self):
        returns = np.array([[0.1, -0.2, 0.3], [-0.1, 0.2, -0.3]])
        rho = correlation_matrix(("A", "B"), returns)
        assert rho[0, 1] == pytest.approx(-1.0)
        assert distance_graph(("A", "B"), rho).edges[0][2] == pytest.approx(2.0)

    def test_hand_computed_pairwise(self):
        x = np.array([1.0, 2.0, 4.0, 3.0])
        y = np.array([1.0, 3.0, 2.0, 4.0])
        expected = np.corrcoef(x, y)[0, 1]
        rho = correlation_matrix(("X", "Y"), np.vstack([x, y]))
        assert rho[0, 1] == pytest.approx(expected)

    def test_zero_variance_named(self):
        returns = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-variance series: FLAT$"):
            correlation_matrix(("A", "FLAT", "NIL"), returns)
        # equal nonzero returns: np.std of this row is about 2e-19, not 0
        rng = np.random.default_rng(5)
        returns = np.vstack([rng.normal(size=200), np.full(200, 0.001), rng.normal(size=200)])
        with pytest.raises(ValueError, match="zero-variance series: B$"):
            correlation_matrix(("A", "B", "C"), returns)

    def test_errors_in_order(self):
        with pytest.raises(ValueError, match="need at least 2 series"):
            correlation_matrix(("A",), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="need at least 3 aligned observations"):
            correlation_matrix(("A", "B"), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="3 return rows for 2 tickers"):
            correlation_matrix(("A", "B"), np.zeros((3, 4)))

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(4)
        rho = correlation_matrix(tuple("ABCDEFG"), rng.normal(size=(7, 33)))
        assert np.array_equal(rho, rho.T)
        assert np.all(np.diag(rho) == 1.0)


class TestMst:
    def test_unique_three_node_tree(self):
        graph = WeightedGraph(
            nodes=("A", "B", "C"),
            edges=(("A", "B", 0.1), ("B", "C", 0.2), ("A", "C", 0.9)),
        )
        tree = mst(graph)
        assert {(i, j) for i, j, _ in tree.edges} == {("A", "B"), ("B", "C")}

    def test_edge_count(self):
        for n in (4, 7, 12):
            tree = mst(random_complete_graph(n, seed=n))
            assert len(tree.edges) == n - 1

    def test_matches_exhaustive_minimum(self):
        for seed in range(4):
            graph = random_complete_graph(6, seed=seed)
            tree = mst(graph)
            total = sum(d for _, _, d in tree.edges)
            assert total == pytest.approx(brute_force_mst_weight(graph))

    def test_disconnected_rejected(self):
        graph = WeightedGraph(nodes=("A", "B", "C"), edges=(("A", "B", 0.5),))
        with pytest.raises(ValueError):
            mst(graph)

    def test_deterministic_under_ties(self):
        graph = WeightedGraph(
            nodes=("A", "B", "C"),
            edges=(("A", "B", 0.5), ("A", "C", 0.5), ("B", "C", 0.5)),
        )
        t1, t2 = mst(graph), mst(graph)
        assert t1.edges == t2.edges == (("A", "B", 0.5), ("A", "C", 0.5))

    def test_distance_increase_never_adds_edge(self):
        graph = random_complete_graph(8, seed=42)
        tree = mst(graph)
        kept = {(i, j) for i, j, _ in tree.edges}
        for idx, (i, j, d) in enumerate(graph.edges):
            if (i, j) in kept:
                continue
            bumped = list(graph.edges)
            bumped[idx] = (i, j, d + 0.5)
            tree2 = mst(WeightedGraph(nodes=graph.nodes, edges=tuple(bumped)))
            assert (i, j) not in {(a, b) for a, b, _ in tree2.edges}


class TestPmfg:
    def test_k4_keeps_all_edges(self):
        filtered = pmfg(random_complete_graph(4, seed=0))
        assert len(filtered.edges) == 6

    def test_k5_drops_exactly_one(self):
        graph = random_complete_graph(5, seed=1)
        filtered = pmfg(graph)
        assert len(filtered.edges) == 9
        dropped = set((i, j) for i, j, _ in graph.edges) - set(
            (i, j) for i, j, _ in filtered.edges
        )
        # greedy insertion keeps the 9 shortest edges of K5; the longest goes
        longest = max(graph.edges, key=lambda e: e[2])
        assert dropped == {(longest[0], longest[1])}

    def test_edge_count_formula(self):
        for n in (3, 6, 10, 25):
            filtered = pmfg(random_complete_graph(n, seed=n))
            assert len(filtered.edges) == 3 * (n - 2)

    def test_contains_mst(self):
        for seed in range(3):
            graph = random_complete_graph(12, seed=100 + seed)
            tree_edges = {(i, j) for i, j, _ in mst(graph).edges}
            pmfg_edges = {(i, j) for i, j, _ in pmfg(graph).edges}
            assert tree_edges <= pmfg_edges

    def test_planarity_certificate(self):
        for n in (8, 15, 30):
            graph = random_complete_graph(n, seed=200 + n)
            filtered = pmfg(graph)
            verify_planar_embedding(filtered.edges, filtered.nodes)

    def test_too_small(self):
        with pytest.raises(ValueError):
            pmfg(random_complete_graph(2, seed=0))

    def test_incomplete_graph_rejected(self):
        graph = random_complete_graph(5, seed=0)
        graph = WeightedGraph(nodes=graph.nodes, edges=graph.edges[1:])
        with pytest.raises(ValueError, match=r"complete graph \(10 edges, got 9\)"):
            pmfg(graph)

    @pytest.mark.parametrize("n", [4, 5, 8, 13, 21, 40])
    @pytest.mark.parametrize("levels", [None, 3, 12])
    def test_matches_networkx_greedy(self, n, levels):
        graph = random_complete_graph(n, seed=300 + n, levels=levels)
        assert pmfg(graph).edges == nx_pmfg(graph)


class TestIsPlanar:
    """``_is_planar`` against ``networkx.check_planarity`` as the oracle."""

    def test_every_labelled_graph_up_to_five_vertices(self):
        planar = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
                expected = nx_is_planar(n, edges)
                assert is_planar(n, edges) == expected, (n, edges)
                planar += expected
        assert planar == 1 + 2 + 8 + 64 + 1023  # only K5 itself fails on 5 vertices

    def test_random_gnp(self):
        rng = np.random.default_rng(2009)
        verdicts = []
        for _ in range(2000):
            n = int(rng.integers(1, 31))
            p = rng.uniform(0.0, min(1.0, 8.0 / n))
            pairs = [pr for pr in itertools.combinations(range(n), 2) if rng.random() < p]
            edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
            rng.shuffle(edges)
            expected = nx_is_planar(n, edges)
            assert is_planar(n, edges) == expected, (n, edges)
            verdicts.append(expected)
        assert 0.2 < np.mean(verdicts) < 0.8  # both verdicts are exercised

    def test_kuratowski_graphs_and_subdivisions(self):
        rng = np.random.default_rng(5)
        for n, edges in ((5, K5), (6, K33)):
            assert not is_planar(n, edges)
            for k in range(len(edges)):
                assert is_planar(n, edges[:k] + edges[k + 1 :])
            for times in (1, 3, 10, 40):
                big_n, sub = subdivide(n, edges, times, rng)
                assert not is_planar(big_n, sub)
                assert nx_is_planar(big_n, sub) is False
                # subdividing an edge-deleted Kuratowski graph keeps it planar
                big_n, sub = subdivide(n, edges[1:], times, rng)
                assert is_planar(big_n, sub)

    def test_disconnected_and_isolated_vertices(self):
        k4 = list(itertools.combinations(range(4), 2))

        def shift(edges, k):
            return [(a + k, b + k) for a, b in edges]

        assert is_planar(0, [])
        assert is_planar(7, [])
        assert is_planar(12, k4 + shift(k4, 4) + shift(k4, 8))
        assert is_planar(11, k4 + shift(k4, 6))  # isolated vertices 4, 5 and 10
        assert not is_planar(9, k4 + shift(K5, 4))
        assert not is_planar(13, shift(K33, 7) + k4)  # K3,3 after isolated vertices
        assert not is_planar(8, shift(K5, 3))

    def test_long_path_cycle_and_ladder(self):
        n = 5000  # far deeper than the recursion limit
        path = [(k, k + 1) for k in range(n - 1)]
        assert is_planar(n, path)
        assert is_planar(n, path + [(n - 1, 0)])
        half = n // 2  # a ladder: two paths joined by rungs, with deep back edges
        ladder = [(k, k + 1) for k in range(half - 1)]
        ladder += [(half + k, half + k + 1) for k in range(half - 1)]
        ladder += [(k, half + k) for k in range(half)]
        assert is_planar(n, ladder)
        assert not is_planar(n, ladder + [(0, n - 1), (half - 1, half)])
        assert nx_is_planar(n, ladder + [(0, n - 1), (half - 1, half)]) is False
