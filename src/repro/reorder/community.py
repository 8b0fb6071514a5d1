"""GraphBrewOrder-style per-community reordering.

Unlike RAs that treat the whole graph uniformly, :class:`CommunityOrder`
(1) detects communities with seeded label propagation
(:func:`repro.graph.communities.label_propagation_communities`),
(2) applies a *configurable inner RA from the registry* to each
community's induced subgraph, and (3) emits the communities size-sorted
(largest first), each occupying one contiguous new-ID range — the
"size-sorted merge" of GraphBrew.  Because the inner RA is any
registered algorithm, this composes with every entry in the registry.

Complexity: each LPA round sorts the 2|E| votes once, so detection is
O(rounds * |E| log |E|); one edge bucketing pass is O(|E| log |E|);
then the inner RA runs on each community's induced subgraph.  Community
sizes sum to |V| and internal edges to at most |E|, so the inner pass
costs no more than one run of the inner RA on the whole graph (for the
default Rabbit-Order, see :mod:`repro.reorder.rabbit`) plus a fixed
per-community overhead.
Locality prediction (paper's I-V taxonomy): packing communities
contiguously converts inter-community pollution into type-IV/V spatial
locality for LDV (like Rabbit-Order's DFS phase), while the inner RA
decides the type-II/III temporal behaviour inside each block.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReorderingError
from repro.graph.build import build_graph
from repro.graph.communities import CommunityResult, label_propagation_communities
from repro.graph.graph import Graph
from repro.graph.permute import invert_permutation, sort_order_to_relabeling
from repro.obs import span

from repro.reorder.base import ReorderingAlgorithm

__all__ = ["CommunityOrder"]


class CommunityOrder(ReorderingAlgorithm):
    """Label-propagation communities, inner RA per community, size-sorted.

    Parameters
    ----------
    inner:
        Registry name of the RA applied inside each community (default
        ``"rabbit"``, GraphBrew's default).  ``"community"`` itself is
        rejected — per-community recursion must be bounded.
    seed:
        Seeds the label propagation.
    max_rounds:
        Label-propagation round cap.
    inner_params:
        Extra keyword arguments for the inner RA's constructor.
    """

    name = "community"

    def __init__(
        self,
        inner: str = "rabbit",
        *,
        seed: int = 0,
        max_rounds: int = 16,
        inner_params: "dict | None" = None,
    ) -> None:
        if inner == self.name:
            raise ReorderingError(
                "per-community reordering cannot nest itself; pick a "
                "non-composite inner algorithm"
            )
        # Validate the inner name eagerly so a typo fails at construction
        # (and serve-job validation) time, not mid-reordering.
        from repro.reorder import algorithm_names

        if inner not in algorithm_names():
            raise ReorderingError(
                f"unknown inner algorithm {inner!r}; available: "
                f"{[n for n in algorithm_names() if n != self.name]}"
            )
        self.inner = inner
        self.seed = seed
        self.max_rounds = max_rounds
        self.inner_params = dict(inner_params) if inner_params else {}

    def communities(self, graph: Graph) -> CommunityResult:
        """The community partition this ordering would use (test hook)."""
        src, dst = graph.edges()
        return label_propagation_communities(
            graph.num_vertices, src, dst, seed=self.seed, max_rounds=self.max_rounds
        )

    def _inner_algorithm(self) -> ReorderingAlgorithm:
        from repro.reorder import get_algorithm

        return get_algorithm(self.inner, **self.inner_params)

    def compute(self, graph: Graph, details: dict) -> np.ndarray:
        n = graph.num_vertices
        src, dst = graph.edges()
        with span(f"reorder.{self.name}.detect"):
            partition = self.communities(graph)
        details["num_communities"] = partition.num_communities
        details["lpa_rounds"] = partition.rounds
        details["inner"] = self.inner

        labels = partition.labels
        # One stable sort gives every community's member slice at once;
        # local_id maps each vertex to its rank inside its community.
        members_by_label = np.argsort(labels, kind="stable").astype(np.int64)
        starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(partition.sizes)]
        )
        local_id = np.empty(n, dtype=np.int64)
        local_id[members_by_label] = np.arange(n, dtype=np.int64) - np.repeat(
            starts[:-1], partition.sizes
        )
        # Bucket the intra-community edges by community, one pass.
        intra = labels[src] == labels[dst]
        intra_src, intra_dst = src[intra], dst[intra]
        bucket = np.argsort(labels[intra_src], kind="stable")
        intra_src, intra_dst = intra_src[bucket], intra_dst[bucket]
        edge_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(partition.internal_edges)]
        )

        # Largest community first; ties by community ID for determinism.
        by_size = np.lexsort(
            (
                np.arange(partition.num_communities, dtype=np.int64),
                -partition.sizes,
            )
        )
        order = np.empty(n, dtype=np.int64)
        cursor = 0
        inner_runs = 0
        with span(f"reorder.{self.name}.inner", inner=self.inner) as sp:
            for community in by_size.tolist():
                members = members_by_label[
                    starts[community] : starts[community + 1]
                ]
                lo, hi = edge_starts[community], edge_starts[community + 1]
                if members.shape[0] > 1 and hi > lo:
                    block = _inner_order(
                        members,
                        local_id[intra_src[lo:hi]],
                        local_id[intra_dst[lo:hi]],
                        self._inner_algorithm(),
                    )
                    inner_runs += 1
                else:
                    block = members
                order[cursor : cursor + block.shape[0]] = block
                cursor += block.shape[0]
            sp.set(communities=partition.num_communities, inner_runs=inner_runs)
        if cursor != n:
            raise ReorderingError(
                f"community blocks covered {cursor} of {n} vertices"
            )
        details["inner_runs"] = inner_runs
        return sort_order_to_relabeling(order)


def _inner_order(
    members: np.ndarray,
    sub_src: np.ndarray,
    sub_dst: np.ndarray,
    algorithm: ReorderingAlgorithm,
) -> np.ndarray:
    """Members reordered by ``algorithm`` on their induced subgraph.

    ``sub_src``/``sub_dst`` are the community's internal edges in local
    IDs (the rank of each endpoint within ``members``).  Vertices the
    cleaning pass isolates (no intra-community edges of their own) keep
    their relative order after the reordered ones, mirroring the
    zero-degree convention of the EDR wrapper.
    """
    built = build_graph(
        members.shape[0], sub_src, sub_dst, drop_zero_degree=True, dedup=False
    )
    if built.graph.num_vertices == 0:
        return members
    result = algorithm(built.graph)
    connected_local = np.flatnonzero(built.old_to_new >= 0)
    sub_order = invert_permutation(result.relabeling)
    ordered = members[connected_local[sub_order]]
    isolated = members[built.old_to_new < 0]
    return np.concatenate([ordered, isolated])
