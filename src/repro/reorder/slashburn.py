"""SlashBurn and SlashBurn++ (Sections IV-A, VI-A and VIII-B1).

SlashBurn [Lim, Kang, Faloutsos, TKDE'14] views a power-law graph as
hubs connecting spokes: each iteration *slashes* the ``k`` highest-degree
vertices of the current giant connected component (GCC), assigns them
the next lowest IDs in degree order ("basic hub-ordering"), pushes the
vertices of the non-giant components to the highest remaining IDs, and
*burns* on into the GCC.

The paper shows the GCC stops being power-law after a few iterations
(Figure 2), after which further slashing destroys LDV neighbourhoods —
and proposes **SlashBurn++**: stop iterating once the GCC's maximum
degree falls below ``sqrt(|V|)`` and lay out the remainder in one pass
(Table VII).

The edge list shrinks as vertices retire: slashed hubs and burnt spokes
never become active again, so after each iteration the edges with an
inactive endpoint are dropped, and the next degree count and component
search scan only the remaining GCC's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ReorderingError
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.graph.permute import sort_order_to_relabeling
from repro.obs import metrics as obs_metrics
from repro.obs import span

from repro.reorder.base import ReorderingAlgorithm

__all__ = ["SlashBurnIteration", "SlashBurn", "SlashBurnPP", "slashburn_iterations"]


@dataclass(frozen=True)
class SlashBurnIteration:
    """Snapshot of the graph state after one slash-and-burn iteration."""

    iteration: int
    num_hubs_slashed: int
    num_spoke_vertices: int
    num_spoke_components: int
    gcc_vertices: int
    gcc_edges: int
    gcc_max_degree: int
    gcc_degrees: np.ndarray


class SlashBurn(ReorderingAlgorithm):
    """SlashBurn with basic hub-ordering and ``k = k_ratio * |V|``.

    Parameters
    ----------
    k_ratio:
        Hubs slashed per iteration as a fraction of the (original)
        vertex count; the paper uses 0.02.
    max_iterations:
        Optional hard iteration cap.
    stop_at_sqrt_degree:
        The SlashBurn++ early-stopping rule: stop once the GCC's max
        degree drops below ``sqrt(|V|)``.
    record_iterations:
        Store per-iteration :class:`SlashBurnIteration` snapshots in the
        result's ``details["iterations"]`` (used by Figure 2).
    remainder_order:
        How the final un-slashed residue is laid out.  ``"degree"``
        continues basic hub-ordering (plain SlashBurn's behaviour);
        ``"original"`` keeps the residue's previous relative order —
        treating it as one community left untouched, the natural choice
        for the early-stopping SlashBurn++ whose whole point is to stop
        perturbing the LDV network.
    """

    name = "slashburn"

    def __init__(
        self,
        k_ratio: float = 0.02,
        *,
        max_iterations: int | None = None,
        stop_at_sqrt_degree: bool = False,
        record_iterations: bool = False,
        remainder_order: str = "degree",
    ):
        if not 0.0 < k_ratio <= 1.0:
            raise ReorderingError(f"k_ratio must be in (0, 1], got {k_ratio}")
        if max_iterations is not None and max_iterations < 1:
            raise ReorderingError("max_iterations must be >= 1")
        if remainder_order not in ("degree", "original"):
            raise ReorderingError(
                f"remainder_order must be 'degree' or 'original', got "
                f"{remainder_order!r}"
            )
        self.k_ratio = k_ratio
        self.max_iterations = max_iterations
        self.stop_at_sqrt_degree = stop_at_sqrt_degree
        self.record_iterations = record_iterations
        self.remainder_order = remainder_order

    def compute(self, graph: Graph, details: dict) -> np.ndarray:
        n = graph.num_vertices
        src, dst = graph.edges()
        k = max(1, int(self.k_ratio * n))
        sqrt_threshold = math.sqrt(n)

        order = np.full(n, -1, dtype=np.int64)
        front = 0  # next low position for hubs
        back = n - 1  # next high position for spokes
        active = np.ones(n, dtype=bool)
        # Degrees within the active subgraph; src/dst hold exactly the
        # edges whose endpoints are both still active.
        degrees = _degrees(n, src, dst)
        iterations: list[SlashBurnIteration] = []
        iteration = 0

        while True:
            active_count = int(active.sum())
            if active_count == 0:
                break
            if self.stop_at_sqrt_degree and iteration > 0:
                max_degree = int(degrees[active].max(initial=0))
                if max_degree < sqrt_threshold:
                    break
            if active_count <= k or (
                self.max_iterations is not None and iteration >= self.max_iterations
            ):
                break
            iteration += 1

            with span("reorder.slashburn.iteration", iteration=iteration) as sp:
                # Slash: remove the k highest-degree active vertices, giving
                # them the next lowest IDs in decreasing degree order.
                hubs = _top_k_active(degrees, active, k)
                order[front : front + hubs.shape[0]] = hubs
                front += hubs.shape[0]
                active[hubs] = False

                # Burn: find components of the remainder; non-giant component
                # vertices move to the highest remaining IDs.
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
                sp.set(hubs=int(hubs.shape[0]), spokes=int(spokes.size))

                # Retire the edges of slashed and burnt vertices: no
                # vertex becomes active again, so no later pass needs them.
                keep = active[src] & active[dst]
                src, dst = src[keep], dst[keep]
                degrees = _degrees(n, src, dst)

            if self.record_iterations:
                iterations.append(
                    _snapshot(iteration, hubs, spokes, result, gcc, degrees, active)
                )

        # Remainder (the final GCC or the stopped residue).
        remainder = np.flatnonzero(active)
        if remainder.size:
            if self.remainder_order == "degree":
                tail = remainder[np.lexsort((remainder, -degrees[remainder]))]
            else:  # "original": leave the residue's layout untouched
                tail = remainder
            order[front : front + tail.shape[0]] = tail
            front += tail.shape[0]

        details["num_iterations"] = iteration
        details["k"] = k
        obs_metrics.registry.counter("reorder.iterations").inc(iteration)
        if self.record_iterations:
            details["iterations"] = iterations
        if front != back + 1:
            raise ReorderingError(
                f"SlashBurn assignment mismatch: front={front}, back={back}"
            )
        return sort_order_to_relabeling(order)


class SlashBurnPP(SlashBurn):
    """SlashBurn++ — SlashBurn with the sqrt-degree early stop.

    The residue left when iteration stops keeps its previous relative
    order (``remainder_order="original"``): the point of stopping early
    is to stop perturbing the LDV network, so the residue is treated as
    one untouched community.
    """

    name = "slashburn++"

    def __init__(
        self,
        k_ratio: float = 0.02,
        *,
        record_iterations: bool = False,
        remainder_order: str = "original",
    ):
        super().__init__(
            k_ratio,
            stop_at_sqrt_degree=True,
            record_iterations=record_iterations,
            remainder_order=remainder_order,
        )


def slashburn_iterations(
    graph: Graph, *, k_ratio: float = 0.02, max_iterations: int = 16
) -> list[SlashBurnIteration]:
    """Per-iteration GCC snapshots (Figure 2) without the final ordering."""
    algorithm = SlashBurn(
        k_ratio, max_iterations=max_iterations, record_iterations=True
    )
    result = algorithm(graph)
    return result.details["iterations"]


def _degrees(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Total (undirected) degree of each vertex over the given edges."""
    degrees = np.bincount(src, minlength=n)
    degrees += np.bincount(dst, minlength=n)
    return degrees.astype(np.int64)


def _top_k_active(degrees: np.ndarray, active: np.ndarray, k: int) -> np.ndarray:
    """The k highest-degree active vertices, decreasing degree, stable IDs."""
    candidates = np.flatnonzero(active)
    k = min(k, candidates.shape[0])
    picked = candidates[
        np.argpartition(-degrees[candidates], k - 1)[:k]
    ]
    return picked[np.lexsort((picked, -degrees[picked]))]


def _spoke_order(
    spokes: np.ndarray,
    labels: np.ndarray,
    sizes: np.ndarray,
    degrees: np.ndarray,
) -> np.ndarray:
    """Spoke vertices grouped by component (big first), hubs first inside."""
    component = labels[spokes]
    # Primary: big components first; then group by component; inside a
    # component hubs first, ties by ID (lexsort's last key is primary).
    order = np.lexsort((spokes, -degrees[spokes], component, -sizes[component]))
    return spokes[order]


def _snapshot(
    iteration: int,
    hubs: np.ndarray,
    spokes: np.ndarray,
    result,
    gcc: int,
    degrees: np.ndarray,
    active: np.ndarray,
) -> SlashBurnIteration:
    members = np.flatnonzero(active)
    member_degrees = degrees[members]
    return SlashBurnIteration(
        iteration=iteration,
        num_hubs_slashed=int(hubs.shape[0]),
        num_spoke_vertices=int(spokes.shape[0]),
        num_spoke_components=int(result.num_components - 1),
        gcc_vertices=int(members.shape[0]),
        gcc_edges=int(result.edge_counts[gcc]),
        gcc_max_degree=int(member_degrees.max(initial=0)),
        gcc_degrees=member_degrees,
    )
