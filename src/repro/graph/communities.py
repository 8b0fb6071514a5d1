"""Label-propagation community detection over the undirected view.

Per-community reordering (GraphBrewOrder-style, see
:class:`repro.reorder.community.CommunityOrder`) needs a community
partition that is cheap — one sort of the 2|E| votes per round, so
O(iterations * |E| log |E|) — and deterministic for a given seed.
This module provides a vectorized semi-synchronous label
propagation: every round each vertex adopts the most frequent label
among its undirected neighbours (ties broken toward the smallest
label), and odd rounds update only a seeded random subset of vertices,
which breaks the two-colouring oscillation plain synchronous LPA
exhibits on near-bipartite structures.

Unlike :mod:`repro.graph.components` (which answers *connectivity*),
the labels here split dense subgraphs apart: two vertices share a
label when their neighbourhoods overlap heavily, not merely when a
path connects them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CommunityResult", "label_propagation_communities", "modularity"]


@dataclass(frozen=True)
class CommunityResult:
    """A community partition plus summary statistics.

    ``labels[v]`` is the community ID of vertex ``v``; IDs are
    contiguous, ordered by first member.  ``sizes[c]`` counts members of
    community ``c`` and ``internal_edges[c]`` the edges with both
    endpoints inside ``c``.  ``rounds`` is the number of propagation
    rounds executed before convergence (or the iteration cap).
    """

    labels: np.ndarray
    sizes: np.ndarray
    internal_edges: np.ndarray
    rounds: int

    @property
    def num_communities(self) -> int:
        return int(self.sizes.shape[0])


def _mode_labels(
    vertices: np.ndarray, labels: np.ndarray, num_vertices: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-vertex most frequent incident label (ties -> smallest label).

    ``vertices``/``labels`` are parallel arrays of (endpoint, neighbour
    label) votes.  Returns ``(voters, winner)``: the vertices that
    received at least one vote and their winning label.
    """
    if vertices.shape[0] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    # One sort groups the votes by vertex, then label; runs of equal
    # keys are the (vertex, label) vote counts.
    key = np.sort(vertices.astype(np.int64) * np.int64(num_vertices) + labels)
    run_starts = np.flatnonzero(_run_starts(key))
    counts = np.diff(np.append(run_starts, key.shape[0]))
    vertex_part = key[run_starts] // num_vertices
    label_part = key[run_starts] % num_vertices
    # Per vertex, the first run (smallest label) holding the top count.
    new_vertex = _run_starts(vertex_part)
    group = np.cumsum(new_vertex) - 1
    vertex_starts = np.flatnonzero(new_vertex)
    top = np.maximum.reduceat(counts, vertex_starts)
    tied = np.flatnonzero(counts == top[group])
    first_tied = tied[_run_starts(group[tied])]
    return vertex_part[vertex_starts], label_part[first_tied]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal values begins in the non-empty ``values``."""
    return np.concatenate(([True], values[1:] != values[:-1]))


def label_propagation_communities(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    seed: int = 0,
    max_rounds: int = 16,
) -> CommunityResult:
    """Seeded semi-synchronous label propagation.

    Parameters
    ----------
    num_vertices, sources, targets:
        Graph as parallel edge arrays; direction is ignored (votes flow
        both ways along every edge).  Self-loops cast no votes.
    seed:
        Seeds the per-round random update subsets; the partition is a
        deterministic function of ``(graph, seed, max_rounds)``.
    max_rounds:
        Hard cap on propagation rounds (LPA converges in a handful of
        rounds on power-law graphs; the cap bounds adversarial inputs).

    Isolated vertices keep their own singleton communities.
    """
    if num_vertices < 0:
        raise GraphFormatError(f"negative vertex count: {num_vertices}")
    if max_rounds < 1:
        raise GraphFormatError(f"max_rounds must be >= 1, got {max_rounds}")
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise GraphFormatError("edge arrays must be 1-D and equal length")
    if sources.size and (
        min(sources.min(), targets.min()) < 0
        or max(sources.max(), targets.max()) >= num_vertices
    ):
        raise GraphFormatError(f"edge endpoint outside [0, {num_vertices})")

    labels = np.arange(num_vertices, dtype=np.int64)
    rounds = 0
    if sources.size:
        loop = sources == targets
        endpoint_u = np.concatenate([sources[~loop], targets[~loop]])
        endpoint_v = np.concatenate([targets[~loop], sources[~loop]])
        rng = np.random.default_rng(seed)
        for round_index in range(max_rounds):
            rounds = round_index + 1
            voters, winner = _mode_labels(
                endpoint_u, labels[endpoint_v], num_vertices
            )
            updated = labels.copy()
            updated[voters] = winner
            if round_index % 2 == 1:
                # Semi-synchronous round: a seeded random half holds its
                # label, breaking synchronous two-colour oscillation.
                hold = rng.random(num_vertices) < 0.5
                updated[hold] = labels[hold]
            if np.array_equal(updated, labels):
                break
            labels = updated

    # Renumber to contiguous community IDs ordered by first member.
    roots, contiguous = np.unique(labels, return_inverse=True)
    final = contiguous.astype(np.int64)
    sizes = np.bincount(final, minlength=roots.shape[0]).astype(np.int64)
    if sources.size:
        internal_mask = final[sources] == final[targets]
        internal = np.bincount(
            final[sources[internal_mask]], minlength=roots.shape[0]
        ).astype(np.int64)
    else:
        internal = np.zeros(roots.shape[0], dtype=np.int64)
    return CommunityResult(
        labels=final, sizes=sizes, internal_edges=internal, rounds=rounds
    )


def modularity(
    num_vertices: int,
    sources: np.ndarray,
    targets: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Newman modularity of a partition over the undirected view.

    ``Q = sum_c (e_c / m  -  (d_c / 2m)^2)`` with ``e_c`` the intra-
    community edge count, ``d_c`` the total degree of community ``c``
    and ``m`` the edge count.  Useful as the id-invariant quality score
    metamorphic tests compare across input relabelings.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != num_vertices:
        raise GraphFormatError("labels length must equal num_vertices")
    m = sources.shape[0]
    if m == 0:
        return 0.0
    num_communities = int(labels.max()) + 1 if num_vertices else 0
    intra = np.bincount(
        labels[sources[labels[sources] == labels[targets]]],
        minlength=num_communities,
    ).astype(np.float64)
    degree_sum = (
        np.bincount(labels[sources], minlength=num_communities)
        + np.bincount(labels[targets], minlength=num_communities)
    ).astype(np.float64)
    return float((intra / m - (degree_sum / (2.0 * m)) ** 2).sum())
