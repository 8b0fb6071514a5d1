"""Trace-profiled reordering (HisOrder-style K-means over co-occurrence).

Every other RA in the registry reorders from graph *structure*; this one
reorders from observed *behaviour*.  It profiles one SpMV traversal with
the simulator's own trace generator (:func:`repro.sim.trace.spmv_trace`),
summarizes when each vertex's data is randomly touched as a per-vertex
histogram over coarse time windows, and K-means-clusters those
histograms so vertices that are co-activated — touched in the same
phases of the traversal — land in the same cluster and hence in one
contiguous new-ID block.  Clusters are emitted in temporal order (mean
first-touch first) and vertices inside a cluster keep first-touch order,
so the new layout follows the profiled access timeline.

Complexity: trace generation O(|E|), feature build O(|E|), K-means
O(iters * k * n * W) on dense numpy — all seeded and deterministic.
K-means dominates: each iteration is one BLAS product into a
preallocated ``(n, k)`` dot-product buffer, the distances written into a
second ``(n, k)`` buffer, and the centroid sums as one flat
``np.bincount`` over ``(cluster, column)`` bins, so an iteration
allocates nothing of size ``n * k`` and its heap stays at the two
buffers plus O(n * W).
Locality prediction (paper's I-V taxonomy): co-activation clustering is
a direct attack on type-III windowed temporal locality (reuse within a
phase) and yields type-IV/V spatial wins when co-activated vertices
share cache lines; unlike degree-ordering it does nothing special for
type-II hub reuse unless hubs co-activate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReorderingError
from repro.graph.graph import Graph
from repro.graph.permute import sort_order_to_relabeling
from repro.obs import span

from repro.reorder.base import ReorderingAlgorithm

__all__ = ["TraceProfiledOrder"]


class TraceProfiledOrder(ReorderingAlgorithm):
    """Cluster co-activated vertices from a profiled SpMV trace.

    Parameters
    ----------
    num_clusters:
        K for the K-means phase.  Default ``None`` derives
        ``min(64, ceil(sqrt(n)))`` from the graph size.
    num_windows:
        Number of equal-width time windows the trace is split into; the
        per-vertex feature is its random-access count per window.
    direction:
        Traversal profiled (``"pull"`` or ``"push"``).
    seed:
        Seeds centroid initialization; the ordering is deterministic
        for a fixed ``(graph, params, seed)``.
    max_iters:
        K-means iteration cap.
    """

    name = "hisorder"

    def __init__(
        self,
        num_clusters: "int | None" = None,
        *,
        num_windows: int = 32,
        direction: str = "pull",
        seed: int = 0,
        max_iters: int = 25,
    ) -> None:
        if num_clusters is not None and num_clusters < 1:
            raise ReorderingError(
                f"num_clusters must be >= 1, got {num_clusters}"
            )
        if num_windows < 1:
            raise ReorderingError(f"num_windows must be >= 1, got {num_windows}")
        if direction not in ("pull", "push"):
            raise ReorderingError(f"unknown traversal direction: {direction!r}")
        if max_iters < 1:
            raise ReorderingError(f"max_iters must be >= 1, got {max_iters}")
        self.num_clusters = num_clusters
        self.num_windows = num_windows
        self.direction = direction
        self.seed = seed
        self.max_iters = max_iters

    def _resolve_k(self, num_accessed: int) -> int:
        if self.num_clusters is not None:
            return min(self.num_clusters, num_accessed)
        derived = int(np.ceil(np.sqrt(num_accessed)))
        return max(1, min(64, derived, num_accessed))

    def compute(self, graph: Graph, details: dict) -> np.ndarray:
        from repro.sim.trace import spmv_trace

        n = graph.num_vertices
        with span(f"reorder.{self.name}.profile", direction=self.direction):
            profiled = spmv_trace(graph, direction=self.direction)
            mask = profiled.random_mask()
            touched = profiled.read_vertex[mask]
            when = np.flatnonzero(mask)
        details["trace_length"] = len(profiled)
        details["num_random_accesses"] = int(touched.shape[0])

        if touched.shape[0] == 0:
            # Nothing was randomly touched (edge-free graph): identity.
            details["num_clusters_used"] = 0
            details["kmeans_iters"] = 0
            details["num_unaccessed"] = n
            return np.arange(n, dtype=np.int64)

        with span(f"reorder.{self.name}.features", num_windows=self.num_windows):
            window = when * np.int64(self.num_windows) // np.int64(len(profiled))
            counts = np.zeros((n, self.num_windows), dtype=np.float64)
            np.add.at(counts, (touched, window), 1.0)
            first_touch = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            # Reversed so earlier positions overwrite later ones.
            first_touch[touched[::-1]] = when[::-1]
            accessed = np.flatnonzero(counts.sum(axis=1) > 0)
            features = counts[accessed]
            norms = np.sqrt((features**2).sum(axis=1, keepdims=True))
            features = features / norms

        k = self._resolve_k(accessed.shape[0])
        with span(f"reorder.{self.name}.kmeans", k=k) as sp:
            assignment, iters = _kmeans(
                features, k, seed=self.seed, max_iters=self.max_iters
            )
            sp.set(iters=iters)
        details["num_clusters_used"] = k
        details["kmeans_iters"] = iters

        # Clusters in temporal order: by mean first-touch position of
        # their members (ties by cluster ID); members by first touch,
        # ties by original ID (argsort stability over sorted `accessed`).
        member_first = first_touch[accessed].astype(np.float64)
        cluster_mean = np.zeros(k, dtype=np.float64)
        np.add.at(cluster_mean, assignment, member_first)
        cluster_mean /= np.maximum(np.bincount(assignment, minlength=k), 1)
        cluster_rank = np.empty(k, dtype=np.int64)
        cluster_rank[
            np.lexsort((np.arange(k, dtype=np.int64), cluster_mean))
        ] = np.arange(k, dtype=np.int64)
        ordered_accessed = accessed[
            np.lexsort((first_touch[accessed], cluster_rank[assignment]))
        ]
        unaccessed = np.setdiff1d(
            np.arange(n, dtype=np.int64), accessed, assume_unique=True
        )
        details["num_unaccessed"] = int(unaccessed.shape[0])
        order = np.concatenate([ordered_accessed, unaccessed])
        return sort_order_to_relabeling(order)


def _kmeans(
    features: np.ndarray, k: int, *, seed: int, max_iters: int
) -> "tuple[np.ndarray, int]":
    """Seeded dense K-means; returns (assignment, iterations run).

    Initial centroids are k distinct rows drawn by a seeded RNG;
    assignment ties go to the lowest cluster ID and empty clusters are
    reseeded to the point farthest from its centroid, so the result is
    a deterministic function of ``(features, k, seed, max_iters)``.

    The loop holds two preallocated ``(n, k)`` float64 buffers, one for
    the dot products and one for the distances, and computes into them
    the same operations in the same order as the plain expression
    ``row_sq + centroid_sq - 2.0 * (features @ centroids.T)``.  The
    centroid sums are one flat ``np.bincount`` over ``(cluster, column)``
    bins, which adds each bin's points in ascending index order starting
    from 0.0 — the order ``np.add.at`` uses — so every iteration's
    rounding, and hence the assignment, is the plain loop's.
    """
    num_points, width = features.shape
    rng = np.random.default_rng(seed)
    centroids = features[rng.choice(num_points, size=k, replace=False)].copy()
    assignment = np.zeros(num_points, dtype=np.int64)
    row_sq = (features**2).sum(axis=1, keepdims=True)
    dots = np.empty((num_points, k), dtype=np.float64)
    dist = np.empty((num_points, k), dtype=np.float64)
    bins = np.empty((num_points, width), dtype=np.int64)
    columns = np.arange(width, dtype=np.int64)
    flat_features = features.reshape(-1)
    iters = 0
    for _ in range(max_iters):
        iters += 1
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; argmin ties -> lowest ID.
        np.matmul(features, centroids.T, out=dots)
        np.add(row_sq, (centroids**2).sum(axis=1), out=dist)
        dots *= 2.0
        dist -= dots
        new_assignment = np.argmin(dist, axis=1)
        if iters > 1 and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        np.multiply(assignment[:, None], width, out=bins)
        bins += columns
        sums = np.bincount(
            bins.reshape(-1), weights=flat_features, minlength=k * width
        ).reshape(k, width)
        members = np.bincount(assignment, minlength=k).astype(np.float64)
        empty = members == 0
        if empty.any():
            # Reseed each empty cluster to the currently worst-fit point.
            worst = dist[np.arange(num_points, dtype=np.int64), assignment]
            for cluster in np.flatnonzero(empty).tolist():
                farthest = int(np.argmax(worst))
                sums[cluster] = features[farthest]
                members[cluster] = 1.0
                worst[farthest] = -np.inf
        centroids = sums / members[:, None]
    return assignment, iters
