"""Reference copies of the hot reordering loops, kept as test oracles.

Each function below is the straightforward formulation a faster
production loop must match bit for bit: Rabbit-Order's merge over
per-vertex neighbour dicts, label propagation's per-vertex mode vote by
``np.unique`` + ``lexsort``, GOrder's greedy pass that recomputes a
vertex's window contribution when it leaves the window, SlashBurn's
loop that filters the full edge list by the active mask on every pass,
and HisOrder's K-means that builds fresh ``(n, k)`` temporaries and
sums centroids with ``np.add.at`` every iteration.  They are not
imported by ``src/`` and are never tuned for speed.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.graph.permute import sort_order_to_relabeling
from repro.reorder.slashburn import SlashBurnIteration, _spoke_order, _top_k_active

__all__ = [
    "gorder_oracle",
    "kmeans_oracle",
    "mode_labels_oracle",
    "rabbit_oracle",
    "slashburn_oracle",
]


# -- Rabbit-Order ------------------------------------------------------------


def rabbit_oracle(
    graph: Graph, seed: int = 0, max_community_weight: "float | None" = None
) -> "tuple[np.ndarray, dict]":
    """``(relabeling, details)`` of Rabbit-Order via per-vertex dicts."""
    n = graph.num_vertices
    details: dict = {}
    if graph.num_edges == 0:
        return np.arange(n, dtype=np.int64), details

    adjacency, self_weight, strength = _undirected_adjacency(graph)
    total_weight = float(graph.num_edges)
    two_m = 2.0 * total_weight

    parent = np.arange(n, dtype=np.int64)
    children: "list[list[int]]" = [[] for _ in range(n)]
    top_level: "list[int]" = []

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    rng = np.random.default_rng(seed)
    tie_break = rng.permutation(n)
    visit_order = np.lexsort((tie_break, graph.total_degrees()))

    cap = max_community_weight
    num_merges = 0
    for v in visit_order.tolist():
        if find(v) != v:
            continue
        resolved: "dict[int, float]" = {}
        internal = 0.0
        for u, w in adjacency[v].items():
            root = find(u)
            if root == v:
                internal += w
            else:
                resolved[root] = resolved.get(root, 0.0) + w
        self_weight[v] += internal
        adjacency[v] = resolved

        best_gain = 0.0
        best: "int | None" = None
        deg_v = strength[v]
        for u, w in resolved.items():
            if cap is not None and strength[u] + deg_v > cap:
                continue
            gain = 2.0 * (w / two_m - (strength[u] * deg_v) / (two_m * two_m))
            if gain > best_gain:
                best_gain = gain
                best = u
        if best is None:
            top_level.append(v)
            continue

        parent[v] = best
        children[best].append(v)
        num_merges += 1
        target = adjacency[best]
        for u, w in resolved.items():
            if u == best:
                self_weight[best] += self_weight[v] + 2.0 * w
            else:
                target[u] = target.get(u, 0.0) + w
        target.pop(v, None)
        strength[best] += strength[v]
        adjacency[v] = {}

    order = _dfs_order(n, children, top_level)
    details["num_top_level"] = len(top_level)
    details["num_merges"] = num_merges
    return sort_order_to_relabeling(order), details


def _undirected_adjacency(
    graph: Graph,
) -> "tuple[list[dict[int, float]], np.ndarray, np.ndarray]":
    n = graph.num_vertices
    src, dst = graph.edges()
    adjacency: "list[dict[int, float]]" = [dict() for _ in range(n)]
    self_weight = np.zeros(n, dtype=np.float64)
    for u, v in zip(src.tolist(), dst.tolist()):
        if u == v:
            self_weight[u] += 2.0
            continue
        adjacency[u][v] = adjacency[u].get(v, 0.0) + 1.0
        adjacency[v][u] = adjacency[v].get(u, 0.0) + 1.0
    strength = self_weight + np.asarray(
        [sum(d.values()) for d in adjacency], dtype=np.float64
    )
    return adjacency, self_weight, strength


def _dfs_order(n: int, children: "list[list[int]]", top_level: "list[int]") -> np.ndarray:
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
            stack.extend(reversed(children[v]))
    if cursor < n:
        rest = np.flatnonzero(~visited)
        order[cursor : cursor + rest.shape[0]] = rest
        cursor += rest.shape[0]
    assert cursor == n
    return order


# -- label propagation -------------------------------------------------------


def mode_labels_oracle(
    vertices: np.ndarray, labels: np.ndarray, num_vertices: int
) -> "tuple[np.ndarray, np.ndarray]":
    """``(voters, winner)``: most frequent label per vertex, ties -> smallest."""
    key = vertices.astype(np.int64) * np.int64(num_vertices) + labels
    unique_keys, counts = np.unique(key, return_counts=True)
    vertex_part = unique_keys // num_vertices
    label_part = unique_keys % num_vertices
    pick = np.lexsort((label_part, -counts, vertex_part))
    voters, first = np.unique(vertex_part[pick], return_index=True)
    return voters, label_part[pick][first]


# -- GOrder ------------------------------------------------------------------


def gorder_oracle(
    graph: Graph,
    window: int = 5,
    *,
    huge_threshold: "int | None" = None,
    adaptive: bool = False,
    max_window: int = 32,
) -> np.ndarray:
    """GOrder's relabeling, recomputing each leaver's contribution."""
    n = graph.num_vertices
    out_off = graph.out_adj.offsets
    out_tgt = graph.out_adj.targets
    in_off = graph.in_adj.offsets
    in_tgt = graph.in_adj.targets
    out_deg = graph.out_degrees()
    threshold = huge_threshold
    if threshold is None:
        threshold = max(int(math.sqrt(graph.num_edges)), int(math.sqrt(n)))

    score = np.zeros(n, dtype=np.float64)
    placed = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    members: "deque[int]" = deque()

    def contributions(v: int) -> np.ndarray:
        parts = [
            out_tgt[out_off[v] : out_off[v + 1]],
            in_tgt[in_off[v] : in_off[v + 1]],
        ]
        for x in in_tgt[in_off[v] : in_off[v + 1]].tolist():
            if out_deg[x] <= threshold:
                parts.append(out_tgt[out_off[x] : out_off[x + 1]])
        return np.concatenate(parts)

    total_deg = graph.total_degrees()
    average_degree = graph.average_degree
    window_size = window
    cursor = 0
    current = int(np.argmax(total_deg))
    while True:
        order[cursor] = current
        cursor += 1
        placed[current] = True
        score[current] = -np.inf
        if cursor == n:
            break

        members.append(current)
        np.add.at(score, contributions(current), 1.0)
        if adaptive:
            if total_deg[current] <= average_degree:
                window_size = min(window_size + 1, max_window)
            else:
                window_size = max(window, window_size - 2)
        while len(members) > window_size:
            leaver = members.popleft()
            np.add.at(score, contributions(leaver), -1.0)
            score[leaver] = -np.inf

        best = int(np.argmax(score))
        if placed[best]:
            best = int(np.flatnonzero(~placed)[0])
        current = best
    return sort_order_to_relabeling(order)


# -- SlashBurn ---------------------------------------------------------------


def slashburn_oracle(
    graph: Graph,
    k_ratio: float = 0.02,
    *,
    max_iterations: "int | None" = None,
    stop_at_sqrt_degree: bool = False,
    record_iterations: bool = False,
    remainder_order: str = "degree",
) -> "tuple[np.ndarray, dict]":
    """``(relabeling, details)`` of SlashBurn, filtering every edge per pass."""
    n = graph.num_vertices
    src, dst = graph.edges()
    k = max(1, int(k_ratio * n))
    sqrt_threshold = math.sqrt(n)

    order = np.full(n, -1, dtype=np.int64)
    front = 0
    back = n - 1
    active = np.ones(n, dtype=bool)
    iterations: "list[SlashBurnIteration]" = []
    iteration = 0

    while True:
        active_count = int(active.sum())
        if active_count == 0:
            break
        degrees = _active_degrees(n, src, dst, active)
        if stop_at_sqrt_degree and iteration > 0:
            max_degree = int(degrees[active].max(initial=0))
            if max_degree < sqrt_threshold:
                break
        if active_count <= k or (
            max_iterations is not None and iteration >= max_iterations
        ):
            break
        iteration += 1

        hubs = _top_k_active(degrees, active, k)
        order[front : front + hubs.shape[0]] = hubs
        front += hubs.shape[0]
        active[hubs] = False

        result = connected_components(n, src, dst, active=active)
        if result.num_components == 0:
            break
        gcc = result.giant_component_id(by="edges")
        spokes_mask = active & (result.labels != gcc)
        spokes = np.flatnonzero(spokes_mask)
        if spokes.size:
            block = _spoke_order(spokes, result.labels, result.sizes, degrees)
            order[back - block.shape[0] + 1 : back + 1] = block
            back -= block.shape[0]
            active[spokes] = False

        if record_iterations:
            gcc_degrees = _active_degrees(n, src, dst, active)
            members = np.flatnonzero(active)
            member_degrees = gcc_degrees[members]
            iterations.append(
                SlashBurnIteration(
                    iteration=iteration,
                    num_hubs_slashed=int(hubs.shape[0]),
                    num_spoke_vertices=int(spokes.shape[0]),
                    num_spoke_components=int(result.num_components - 1),
                    gcc_vertices=int(members.shape[0]),
                    gcc_edges=int(result.edge_counts[gcc]),
                    gcc_max_degree=int(member_degrees.max(initial=0)),
                    gcc_degrees=member_degrees,
                )
            )

    remainder = np.flatnonzero(active)
    if remainder.size:
        if remainder_order == "degree":
            degrees = _active_degrees(n, src, dst, active)
            tail = remainder[np.lexsort((remainder, -degrees[remainder]))]
        else:
            tail = remainder
        order[front : front + tail.shape[0]] = tail
        front += tail.shape[0]

    assert front == back + 1
    details: dict = {"num_iterations": iteration, "k": k}
    if record_iterations:
        details["iterations"] = iterations
    return sort_order_to_relabeling(order), details


def _active_degrees(
    n: int, src: np.ndarray, dst: np.ndarray, active: np.ndarray
) -> np.ndarray:
    keep = active[src] & active[dst]
    degrees = np.bincount(src[keep], minlength=n)
    degrees += np.bincount(dst[keep], minlength=n)
    return degrees.astype(np.int64)


# -- HisOrder K-means ----------------------------------------------------------


def kmeans_oracle(
    features: np.ndarray, k: int, *, seed: int, max_iters: int
) -> "tuple[np.ndarray, int]":
    """``(assignment, iterations)`` of the seeded dense K-means."""
    num_points = features.shape[0]
    rng = np.random.default_rng(seed)
    centroids = features[rng.choice(num_points, size=k, replace=False)].copy()
    assignment = np.zeros(num_points, dtype=np.int64)
    iters = 0
    for _ in range(max_iters):
        iters += 1
        dots = features @ centroids.T
        sq = (features**2).sum(axis=1, keepdims=True) + (centroids**2).sum(
            axis=1
        )
        new_assignment = np.argmin(sq - 2.0 * dots, axis=1).astype(np.int64)
        if iters > 1 and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, features)
        members = np.bincount(assignment, minlength=k).astype(np.float64)
        empty = members == 0
        if empty.any():
            dist = (sq - 2.0 * dots)[
                np.arange(num_points, dtype=np.int64), assignment
            ]
            for cluster in np.flatnonzero(empty).tolist():
                farthest = int(np.argmax(dist))
                sums[cluster] = features[farthest]
                members[cluster] = 1.0
                dist[farthest] = -np.inf
        centroids = sums / members[:, None]
    return assignment, iters
