"""Rabbit-Order (Arai et al., IPDPS'16; Sections IV-B and VI-C).

Rabbit-Order builds communities bottom-up: visiting vertices in
increasing-degree order, each vertex merges into the neighbour with the
maximum modularity gain

    dQ(u, v) = 2 * ( w_uv / (2m)  -  deg_u * deg_v / (2m)^2 )

(merging stops when no neighbour has positive gain; such vertices seed
the *top-level set*).  A second phase assigns new IDs by DFS over each
merge tree, so the members of one community receive consecutive IDs —
the mechanism that reduces the AID of low-degree vertices (Figure 3).

The reference implementation is non-deterministic across runs (the
paper observed +-5 % variation); this implementation is deterministic
for a given ``seed``, which perturbs the visiting order among
equal-degree vertices.

Cost: one stable sort of the 2|E| edge endpoints builds every vertex's
neighbour list (O(|E| log |E|)).  The merge pass reads each vertex's
list once, at its visit, through a path-compressing union-find, and a
merge appends the merged vertex's per-community sums to its target's
list.  An edge is therefore re-read once per merge its endpoint's
community takes part in before the target's visit: O(|E| * h) for
merge chains of height h, near-linear on the power-law minis.  The DFS
is O(|V|).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReorderingError
from repro.graph.graph import Graph
from repro.graph.permute import sort_order_to_relabeling
from repro.obs import span

from repro.reorder.base import ReorderingAlgorithm

__all__ = ["RabbitOrder"]


class RabbitOrder(ReorderingAlgorithm):
    """Community-by-merging ordering with DFS ID assignment.

    Parameters
    ----------
    seed:
        Seeds the tie-breaking among equal-degree vertices, reproducing
        (deterministically) the run-to-run variation of the reference
        implementation.
    max_community_weight:
        Optional cap on the weighted degree of a merged community —
        the cache-aware improvement suggested in Section VIII-C ("RO can
        use cache size as an indicator of the maximum number of vertices
        in a community").  ``None`` (default) reproduces plain RO.
    """

    name = "rabbit"

    def __init__(self, seed: int = 0, *, max_community_weight: float | None = None):
        self.seed = seed
        if max_community_weight is not None and max_community_weight <= 0:
            raise ReorderingError("max_community_weight must be positive")
        self.max_community_weight = max_community_weight

    def compute(self, graph: Graph, details: dict) -> np.ndarray:
        n = graph.num_vertices
        if graph.num_edges == 0:
            return np.arange(n, dtype=np.int64)

        # Undirected weighted adjacency (directions merged, weight = edge
        # multiplicity).  A vertex's strength is its total degree: a
        # self-loop counts twice, once as an out- and once as an in-edge.
        with span("reorder.rabbit.adjacency"):
            neighbours, weights = _undirected_adjacency(graph)
        strength = graph.total_degrees().astype(np.float64).tolist()
        two_m = 2.0 * float(graph.num_edges)  # 2m in the gain formula
        two_m_squared = two_m * two_m

        parent = list(range(n))
        visited = [False] * n
        children: list[list[int]] = [[] for _ in range(n)]
        top_level: list[int] = []

        # Visit in increasing-degree order, seed-perturbed tie-breaks.
        rng = np.random.default_rng(self.seed)
        tie_break = rng.permutation(n)
        visit_order = np.lexsort((tie_break, graph.total_degrees()))

        cap = self.max_community_weight
        num_merges = 0
        with span("reorder.rabbit.merge") as merge_span:
            for v in visit_order.tolist():
                visited[v] = True
                # Resolve v's neighbour list through the union-find (path
                # compression inlined), summing weights per community root;
                # entries that now resolve to v itself are internal edges
                # and drop out.  Weights are integer edge counts, so the
                # sums do not depend on entry order, and roots enter
                # `resolved` in order of their first entry: the order the
                # first-strictly-better tie-break below relies on.
                resolved: dict[int, float] = {}
                for u, w in zip(neighbours[v], weights[v]):
                    root = parent[u]
                    if root != u:
                        while parent[root] != root:
                            root = parent[root]
                        while parent[u] != root:
                            parent[u], u = root, parent[u]
                    if root in resolved:
                        resolved[root] += w
                    elif root != v:
                        resolved[root] = w

                best_gain = 0.0
                best = -1
                deg_v = strength[v]
                for u, w in resolved.items():
                    if cap is not None and strength[u] + deg_v > cap:
                        continue
                    gain = 2.0 * (w / two_m - (strength[u] * deg_v) / two_m_squared)
                    if gain > best_gain:
                        best_gain = gain
                        best = u
                if best < 0:
                    top_level.append(v)
                    continue

                # Merge v into best: the union-find makes entries naming v
                # (or best itself) resolve to best, and so drop out, at
                # best's visit; v's resolved edges join best's lists for
                # that visit.  A best visited already stayed top-level and
                # never reads its lists again.
                parent[v] = best
                children[best].append(v)
                num_merges += 1
                strength[best] += deg_v
                if not visited[best]:
                    neighbours[best].extend(resolved)
                    weights[best].extend(resolved.values())
            merge_span.set(merges=num_merges)

        with span("reorder.rabbit.dfs"):
            order = _dfs_order(n, children, top_level)
        details["num_top_level"] = len(top_level)
        details["num_merges"] = num_merges
        return sort_order_to_relabeling(order)


def _undirected_adjacency(graph: Graph) -> tuple[list[list[int]], list[list[float]]]:
    """Per-vertex neighbour and weight lists over the undirected view.

    Each edge ``(u, v)`` with ``u != v`` lists ``v`` for ``u`` and ``u``
    for ``v``, weight 1, in edge-list order; a repeated pair simply
    repeats (self-loops only count toward strength).
    """
    n = graph.num_vertices
    src, dst = graph.edges()
    keep = src != dst
    # Interleaved (u, v), (v, u) per edge so that a stable sort by owner
    # keeps each vertex's entries in edge-list order.
    owner = np.stack([src[keep], dst[keep]], axis=1).ravel()
    other = np.stack([dst[keep], src[keep]], axis=1).ravel()
    flat = other[np.argsort(owner, kind="stable")].tolist()
    bounds = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(np.bincount(owner, minlength=n))]
    ).tolist()
    neighbours = [flat[bounds[i] : bounds[i + 1]] for i in range(n)]
    weights = [[1.0] * len(listed) for listed in neighbours]
    return neighbours, weights


def _dfs_order(n: int, children: list[list[int]], top_level: list[int]) -> np.ndarray:
    """Pre-order DFS over every merge tree, top-level roots first."""
    order = np.empty(n, dtype=np.int64)
    cursor = 0
    visited = np.zeros(n, dtype=bool)
    for root in top_level:
        if visited[root]:
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            order[cursor] = v
            cursor += 1
            # Reversed so the earliest-merged child is visited first.
            stack.extend(reversed(children[v]))
    # Isolated or unreached vertices (none in a cleaned graph, but kept
    # for safety) are appended in ID order.
    if cursor < n:
        rest = np.flatnonzero(~visited)
        order[cursor : cursor + rest.shape[0]] = rest
        cursor += rest.shape[0]
    if cursor != n:
        raise ReorderingError("DFS did not reach every vertex exactly once")
    return order
