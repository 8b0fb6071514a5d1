"""GOrder (Wei, Yu, Lu, Lin — SIGMOD'16; Sections IV-C and VI-B).

GOrder greedily appends vertices to the new order, always picking the
unplaced vertex with the highest *score* against a sliding window of
the ``w`` most recently placed vertices (default ``w = 5``):

    S(u, v) = S_s(u, v) + S_n(u, v)

where the sibling score ``S_s`` counts common in-neighbours and the
neighbourhood score ``S_n`` counts edges between ``u`` and ``v``.  The
goal is maximal temporal reuse of whatever the cache currently holds
(locality types II and III).

Like the reference implementation, the sibling-score expansion skips
*huge nodes* (in-neighbours whose out-degree exceeds ``sqrt(|V|)``):
expanding a hub's full out-list per step is prohibitively expensive and
adds a near-uniform constant to every candidate's score.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.errors import ReorderingError
from repro.graph.graph import Graph
from repro.graph.permute import sort_order_to_relabeling
from repro.obs import span

from repro.reorder.base import ReorderingAlgorithm

__all__ = ["GOrder"]


class GOrder(ReorderingAlgorithm):
    """Greedy window-scored ordering.

    Parameters
    ----------
    window:
        Sliding-window size; the paper uses GOrder's default of 5 and
        observes the fixed size is exactly why GOrder cannot separate
        the numerous equally-scored LDV.
    huge_threshold:
        Out-degree above which an in-neighbour is not expanded for the
        sibling score, mirroring GOrder's huge-node rule; defaults to
        ``sqrt(|E|)`` when None (a budget that keeps the expansion cost
        near-linear while covering all but the extreme hubs).
    adaptive:
        The Section VIII-C improvement: "GO can be improved by
        dynamically changing size of sliding window based on the
        contents of the window".  When enabled, the window grows (up to
        ``max_window``) while low-degree vertices are being placed —
        LDV need more context to be distinguished — and shrinks back
        toward ``window`` when hubs enter and dominate the scores.
    """

    name = "gorder"

    def __init__(
        self,
        window: int = 5,
        *,
        huge_threshold: int | None = None,
        adaptive: bool = False,
        max_window: int = 32,
    ):
        if window < 1:
            raise ReorderingError(f"window must be >= 1, got {window}")
        if max_window < window:
            raise ReorderingError(
                f"max_window {max_window} must be >= window {window}"
            )
        self.window = window
        self.huge_threshold = huge_threshold
        self.adaptive = adaptive
        self.max_window = max_window

    def compute(self, graph: Graph, details: dict) -> np.ndarray:
        n = graph.num_vertices
        # Offsets as Python ints: the per-vertex slicing below is scalar.
        out_off = graph.out_adj.offsets.tolist()
        out_tgt = graph.out_adj.targets
        in_off = graph.in_adj.offsets.tolist()
        in_tgt = graph.in_adj.targets
        threshold = self.huge_threshold
        if threshold is None:
            threshold = max(int(math.sqrt(graph.num_edges)), int(math.sqrt(n)))
        expandable = (graph.out_degrees() <= threshold).tolist()

        # score[u] = S(u, window); placed vertices are masked at -inf,
        # which no later +-1 changes.  An unplaced score is a count of
        # window contributions, so it is >= 0 and argmax never picks a
        # placed vertex.
        score = np.zeros(n, dtype=np.float64)
        order = np.empty(n, dtype=np.int64)
        # Window members' contributions, computed once on entry and
        # subtracted again on exit.
        window: deque[np.ndarray] = deque()

        def contributions(v: int) -> np.ndarray:
            """Vertices whose score changes by 1 when v joins the window."""
            in_neighbours = in_tgt[in_off[v] : in_off[v + 1]]
            parts = [
                out_tgt[out_off[v] : out_off[v + 1]],  # S_n: v -> u
                in_neighbours,  # S_n: u -> v
            ]
            # S_s: common in-neighbour x of u and v (skip huge x).
            for x in in_neighbours.tolist():
                if expandable[x]:
                    parts.append(out_tgt[out_off[x] : out_off[x + 1]])
            return np.concatenate(parts)

        # Start from the maximum-degree vertex (paper, Section IV-C).
        total_deg = graph.total_degrees()
        average_degree = graph.average_degree
        window_size = self.window
        max_window_seen = self.window
        start = int(np.argmax(total_deg))
        cursor = 0
        current = start
        # One span for the whole greedy pass: the loop body is per-vertex
        # hot, so per-iteration spans would distort what they measure.
        with span("reorder.gorder.greedy", huge_threshold=threshold):
            while True:
                order[cursor] = current
                cursor += 1
                score[current] = -np.inf
                if cursor == n:
                    break

                entering = contributions(current)
                window.append(entering)
                np.add.at(score, entering, 1.0)
                if self.adaptive:
                    # Grow while placing LDV, shrink when a hub enters.
                    if total_deg[current] <= average_degree:
                        window_size = min(window_size + 1, self.max_window)
                    else:
                        window_size = max(self.window, window_size - 2)
                    max_window_seen = max(max_window_seen, window_size)
                while len(window) > window_size:
                    np.add.at(score, window.popleft(), -1.0)

                current = int(np.argmax(score))

        details["window"] = self.window
        details["huge_threshold"] = threshold
        if self.adaptive:
            details["max_window_used"] = max_window_seen
        return sort_order_to_relabeling(order)
