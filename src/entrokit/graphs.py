"""Correlation-distance graphs over instruments: MST and PMFG filtering.

Correlations between return series are mapped to the ultrametric-compatible
distance d = sqrt(2*(1 - rho)) in [0, 2]; the minimum spanning tree and the
planar maximally filtered graph are the two standard backbones extracted
from the resulting complete graph.  Each is a ``WeightedGraph`` on the
complete graph's nodes, holding the edges it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedGraph",
    "correlation_matrix",
    "distance_graph",
    "mst",
    "pmfg",
]


@dataclass(frozen=True)
class WeightedGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (i, j, distance), i < j


def correlation_matrix(tickers: tuple[str, ...], returns: np.ndarray) -> np.ndarray:
    """Pearson correlations of the aligned log returns, one row of ``returns`` per ticker.

    ``returns`` is the N x T matrix of the N ``tickers``; the result is the
    symmetric N x N matrix rho with a unit diagonal.
    """
    if len(tickers) < 2:
        raise ValueError("need at least 2 series")
    if returns.shape[0] != len(tickers):
        raise ValueError(f"{returns.shape[0]} return rows for {len(tickers)} tickers")
    if returns.shape[1] < 3:
        raise ValueError("need at least 3 aligned observations")
    flat = np.ptp(returns, axis=1) == 0  # np.std of equal values can round to a tiny nonzero
    if flat.any():
        raise ValueError(f"zero-variance series: {tickers[int(np.argmax(flat))]}")
    rho = np.corrcoef(returns)
    rho = (rho + rho.T) / 2.0
    np.fill_diagonal(rho, 1.0)
    return rho


def distance_graph(tickers: tuple[str, ...], rho: np.ndarray) -> WeightedGraph:
    """Complete graph on ``tickers`` with d_ij = sqrt(2*(1 - rho_ij))."""
    i, j = np.triu_indices(len(tickers), k=1)
    d = np.sqrt(np.maximum(2.0 * (1.0 - rho[i, j]), 0.0))
    names = np.array(tickers, dtype=object)
    return WeightedGraph(tuple(tickers), tuple(zip(names[i].tolist(), names[j].tolist(), d.tolist())))


def _sorted_edges(graph: WeightedGraph) -> list[tuple[str, str, float]]:
    # lexicographic tie-break keeps outputs deterministic under equal distances
    return sorted(graph.edges, key=lambda e: (e[2], e[0], e[1]))


def mst(graph: WeightedGraph) -> WeightedGraph:
    """Kruskal minimum spanning tree of the distance graph, on the same nodes."""
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
    return WeightedGraph(graph.nodes, tuple(kept))


def pmfg(graph: WeightedGraph) -> WeightedGraph:
    """Planar maximally filtered graph of the distance graph, on the same nodes.

    Candidate edges are taken in ascending (distance, i, j) order and each
    is kept only if the graph stays planar, until the 3*(n-2) planar limit
    is reached.  Tickers are mapped to ints once; the graph lives in integer
    adjacency lists, each candidate is appended to them, tested with the
    left-right planarity test (Brandes 2009, ``_is_planar``) and popped
    again on rejection.  Every candidate edge gets a full test, rejected
    ones included.
    """
    n = len(graph.nodes)
    if n < 3:
        raise ValueError("PMFG needs at least 3 nodes")
    expected = n * (n - 1) // 2
    if len(graph.edges) != expected:
        raise ValueError(f"PMFG requires a complete graph ({expected} edges, got {len(graph.edges)})")
    target = 3 * (n - 2)
    index = {node: k for k, node in enumerate(graph.nodes)}
    adj: list[list[int]] = [[] for _ in range(n)]
    kept = []
    for i, j, d in _sorted_edges(graph):
        a, b = index[i], index[j]
        adj[a].append(b)
        adj[b].append(a)
        if _is_planar(adj):
            kept.append((i, j, d))
            if len(kept) == target:
                break
        else:
            adj[a].pop()
            adj[b].pop()
    return WeightedGraph(graph.nodes, tuple(kept))


# Conflict pairs of the LR test are 4-lists [left low, left high, right low,
# right high] of back-edge ids; None marks an empty end.
_LL, _LH, _RL, _RH = 0, 1, 2, 3


def _is_planar(adj: list[list[int]]) -> bool:
    """Left-right planarity test of a simple graph on vertices 0..len(adj)-1.

    ``adj[v]`` lists the neighbours of v, each edge in both lists.  This is
    the boolean part of Brandes' LR algorithm ("The Left-Right Planarity
    Test", 2009), as in ``networkx.check_planarity`` without building the
    embedding: a DFS orients the graph and computes lowpoints and nesting
    depths, a second DFS in nesting order checks that the back edges admit
    a left/right partition.  Both passes use explicit stacks, so depth is
    not limited by the recursion limit.
    """
    n = len(adj)
    m = sum(len(nbrs) for nbrs in adj) // 2
    if n > 2 and m > 3 * n - 6:
        return False

    # orientation: edge e runs tail[e] -> head[e]; tree edges down, back edges up
    height = [-1] * n
    parent_edge = [-1] * n
    tail = [0] * m
    head = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    count = 0  # edges oriented so far
    roots = []
    nxt = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            pe = parent_edge[v]
            parent = tail[pe] if pe >= 0 else -1
            nbrs = adj[v]
            degree = len(nbrs)
            i = nxt[v]
            while i < degree:
                w = nbrs[i]
                i += 1
                hw = height[w]
                if hw < 0:  # tree edge, finished when w is
                    tail[count] = v
                    head[count] = w
                    lowpt[count] = lowpt2[count] = hv
                    parent_edge[w] = count
                    count += 1
                    height[w] = hv + 1
                    stack.append(w)
                    break
                if hw > hv or w == parent:
                    continue  # oriented already, from the other end
                tail[count] = v  # back edge to an ancestor, so pe >= 0
                head[count] = w
                lowpt[count] = hw
                lowpt2[count] = hv
                nesting[count] = 2 * hw
                count += 1
                # fold (hw, hv) into the lowpoints of pe; hv exceeds both of them
                low = lowpt[pe]
                if hw < low:
                    lowpt2[pe] = low
                    lowpt[pe] = hw
                elif low < hw < lowpt2[pe]:
                    lowpt2[pe] = hw
            else:
                stack.pop()
                if pe >= 0:
                    low, low2 = lowpt[pe], lowpt2[pe]
                    nesting[pe] = 2 * low + (low2 < hv - 1)
                    ge = parent_edge[parent]
                    if ge >= 0:  # fold the lowpoints of pe into those of ge
                        if low < lowpt[ge]:
                            lowpt2[ge] = min(lowpt[ge], low2)
                            lowpt[ge] = low
                        elif low > lowpt[ge]:
                            lowpt2[ge] = min(lowpt2[ge], low)
                        else:
                            lowpt2[ge] = min(lowpt2[ge], low2)
                continue
            nxt[v] = i

    # outgoing edges of each vertex in nesting-depth order (ties by id)
    out: list[list[int]] = [[] for _ in range(n)]
    for e in sorted(range(m), key=nesting.__getitem__):
        out[tail[e]].append(e)

    # testing: S is the stack of conflict pairs; ref links the back edges of
    # an interval from its high end down to its low end
    S: list[list] = []
    ref: list = [None] * m
    stack_bottom: list = [None] * m
    nxt = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            pe = parent_edge[v]
            edges = out[v]
            degree = len(edges)
            i = nxt[v]
            while i < degree:
                ei = edges[i]
                stack_bottom[ei] = S[-1] if S else None
                w = head[ei]
                if parent_edge[w] == ei:  # tree edge, integrated when w is done
                    nxt[v] = i
                    stack.append(w)
                    break
                S.append([None, None, ei, ei])
                if i > 0 and not _add_constraints(ei, pe, S, lowpt, ref, stack_bottom[ei]):
                    return False
                i += 1
            else:
                stack.pop()
                if pe < 0:
                    continue
                u = tail[pe]
                _remove_back_edges(S, u, height[u], lowpt, head, ref)
                k = nxt[u]
                if k > 0 and lowpt[pe] < height[u] and not _add_constraints(
                    pe, parent_edge[u], S, lowpt, ref, stack_bottom[pe]
                ):
                    return False
                nxt[u] = k + 1
    return True


def _add_constraints(ei, e, S, lowpt, ref, bottom) -> bool:
    """Merge the return edges of ei, a child edge of e, into one conflict pair.

    ``bottom`` is the top of S from before ei was entered.  False when the
    constraints cannot be met, that is, the graph is not planar.
    """
    P = [None, None, None, None]
    low_e = lowpt[e]
    while True:  # return edges of ei above lowpt(e) go into P's right interval
        Q = S.pop()
        if Q[_LL] is not None or Q[_LH] is not None:
            Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[_LL] is not None or Q[_LH] is not None:
                return False
        if lowpt[Q[_RL]] > low_e:
            if P[_RL] is None and P[_RH] is None:
                P[_RH] = Q[_RH]
            else:
                ref[P[_RL]] = Q[_RH]
            P[_RL] = Q[_RL]
        if (S[-1] if S else None) is bottom:
            break
    low_i = lowpt[ei]
    while S:  # conflicting return edges of earlier siblings go into P's left
        Q = S[-1]
        if not (
            (Q[_LH] is not None and lowpt[Q[_LH]] > low_i)
            or (Q[_RH] is not None and lowpt[Q[_RH]] > low_i)
        ):
            break
        S.pop()
        if Q[_RH] is not None and lowpt[Q[_RH]] > low_i:
            Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[_RH] is not None and lowpt[Q[_RH]] > low_i:
                return False
        if P[_RL] is not None:
            ref[P[_RL]] = Q[_RH]
        if Q[_RL] is not None:
            P[_RL] = Q[_RL]
        if P[_LL] is None and P[_LH] is None:
            P[_LH] = Q[_LH]
        elif P[_LL] is not None:
            ref[P[_LL]] = Q[_LH]
        P[_LL] = Q[_LL]
    if P != [None, None, None, None]:
        S.append(P)
    return True


def _remove_back_edges(S, u, hu, lowpt, head, ref) -> None:
    """Drop from S the back edges that end at u, of height hu."""
    while S:  # whole pairs whose lowest return edge ends at u
        P = S[-1]
        if P[_LL] is None and P[_LH] is None:
            lowest = lowpt[P[_RL]]
        elif P[_RL] is None and P[_RH] is None:
            lowest = lowpt[P[_LL]]
        else:
            lowest = min(lowpt[P[_LL]], lowpt[P[_RL]])
        if lowest != hu:
            break
        S.pop()
    if S:  # trim both intervals of the next pair from their high ends
        P = S[-1]
        while P[_LH] is not None and head[P[_LH]] == u:
            P[_LH] = ref[P[_LH]]
        if P[_LH] is None:
            P[_LL] = None
        while P[_RH] is not None and head[P[_RH]] == u:
            P[_RH] = ref[P[_RH]]
        if P[_RH] is None:
            P[_RL] = None
