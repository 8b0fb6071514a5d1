"""PageRank on the functional pull SpMV (Algorithm 1 of the paper).

This is the *semantic* side of the traversal: it computes the actual
vector values, independent of the memory simulation.  The ranks are
invariant under any valid relabeling, which
``examples/pagerank_locality.py`` asserts after Rabbit-Order.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph

__all__ = ["pagerank"]


def pagerank(
    graph: Graph,
    *,
    damping: float = 0.85,
    iterations: int = 20,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Power-iteration PageRank built on the pull SpMV kernel.

    One of the SpMV-underpinned analytics the paper lists (Section II-B);
    used by the examples as a realistic workload.  Each iteration pulls
    ``incoming[v] = sum of contrib[u] over in-neighbours u`` through the
    CSC.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    in_neighbours = graph.in_adj.targets
    owners = graph.in_adj.edge_sources()
    out_deg = graph.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    safe_deg = np.where(dangling, 1.0, out_deg)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(iterations):
        contrib = rank / safe_deg
        contrib[dangling] = 0.0
        incoming = np.bincount(owners, weights=contrib[in_neighbours], minlength=n)
        dangling_mass = rank[dangling].sum() / n
        new_rank = (1.0 - damping) / n + damping * (incoming + dangling_mass)
        if np.abs(new_rank - rank).sum() < tolerance:
            return new_rank
        rank = new_rank
    return rank
