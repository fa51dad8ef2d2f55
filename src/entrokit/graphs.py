"""Correlation-distance graphs over instruments: MST and PMFG filtering.

Correlations between return series are mapped to the ultrametric-compatible
distance d = sqrt(2*(1 - rho)) in [0, 2]; the minimum spanning tree and the
planar maximally filtered graph are the two standard backbones extracted
from the resulting complete graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import networkx as nx

from .series import ReturnSeries

__all__ = [
    "CorrelationMatrix",
    "WeightedGraph",
    "FilteredGraph",
    "correlation_matrix",
    "distance_graph",
    "mst",
    "pmfg",
]

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    tickers: tuple[str, ...]
    rho: np.ndarray

    def __post_init__(self) -> None:
        r = self.rho
        if r.shape != (len(self.tickers), len(self.tickers)):
            raise ValueError("matrix shape does not match ticker count")
        if np.max(np.abs(r - r.T)) > SYMMETRY_TOL:
            raise ValueError("correlation matrix is not symmetric")
        if not np.allclose(np.diag(r), 1.0, atol=SYMMETRY_TOL):
            raise ValueError("correlation matrix diagonal must be 1")


@dataclass(frozen=True)
class WeightedGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (i, j, distance), i < j


@dataclass(frozen=True)
class FilteredGraph:
    kind: str  # "mst" or "pmfg"
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    node_attributes: dict = field(default_factory=dict)  # ticker -> {sector, entropy}


def correlation_matrix(series: list[ReturnSeries]) -> CorrelationMatrix:
    """Pearson correlations of aligned log-return series."""
    if len(series) < 2:
        raise ValueError("need at least 2 series")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    if lengths.pop() < 3:
        raise ValueError("need at least 3 aligned observations")
    for s in series:
        if np.std(s.as_array()) == 0:
            raise ValueError(f"zero-variance series: {s.ticker}")
    data = np.vstack([s.as_array() for s in series])
    rho = np.corrcoef(data)
    rho = (rho + rho.T) / 2.0
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(tickers=tuple(s.ticker for s in series), rho=rho)


def distance_graph(corr: CorrelationMatrix) -> WeightedGraph:
    """Complete graph with d_ij = sqrt(2*(1 - rho_ij))."""
    n = len(corr.tickers)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.sqrt(max(2.0 * (1.0 - corr.rho[i, j]), 0.0)))
            edges.append((corr.tickers[i], corr.tickers[j], d))
    return WeightedGraph(nodes=corr.tickers, edges=tuple(edges))


def _sorted_edges(graph: WeightedGraph) -> list[tuple[str, str, float]]:
    # lexicographic tie-break keeps outputs deterministic under equal distances
    return sorted(graph.edges, key=lambda e: (e[2], e[0], e[1]))


def mst(graph: WeightedGraph, node_attributes: dict | None = None) -> FilteredGraph:
    """Kruskal minimum spanning tree of the distance graph."""
    parent = {v: v for v in graph.nodes}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    kept = []
    for i, j, d in _sorted_edges(graph):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            kept.append((i, j, d))
    if len(kept) != len(graph.nodes) - 1:
        raise ValueError("graph is disconnected; MST undefined")
    return FilteredGraph(
        kind="mst",
        nodes=graph.nodes,
        edges=tuple(kept),
        node_attributes=dict(node_attributes or {}),
    )


def pmfg(graph: WeightedGraph, node_attributes: dict | None = None) -> FilteredGraph:
    """Planar maximally filtered graph: greedy ascending-distance insertion.

    Each candidate edge is kept only if the graph stays planar, until the
    3*(n-2) planar limit is reached.  Every candidate edge gets a full
    planarity test, rejected ones included.
    """
    n = len(graph.nodes)
    if n < 3:
        raise ValueError("PMFG needs at least 3 nodes")
    expected = n * (n - 1) // 2
    if len(graph.edges) != expected:
        raise ValueError(f"PMFG requires a complete graph ({expected} edges, got {len(graph.edges)})")
    target = 3 * (n - 2)
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    kept = []
    for i, j, d in _sorted_edges(graph):
        g.add_edge(i, j)
        planar, _ = nx.check_planarity(g)
        if planar:
            kept.append((i, j, d))
            if len(kept) == target:
                break
        else:
            g.remove_edge(i, j)
    return FilteredGraph(
        kind="pmfg",
        nodes=graph.nodes,
        edges=tuple(kept),
        node_attributes=dict(node_attributes or {}),
    )
