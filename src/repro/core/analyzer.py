"""High-level facade over the paper's locality toolkit.

:class:`LocalityAnalyzer` bundles the per-graph metrics (AID,
asymmetricity, degree range decomposition, hub coverage, gap profile)
and the simulation-backed metrics (miss-rate distribution, ECS, hub
misses) behind one object, caching the simulation so a battery of
metrics reuses a single traversal.  Locality types need no cache
replay: they are counted off the traversal's trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.sim.simulator import (
    SimulationConfig,
    SimulationResult,
    count_locality_types,
    simulate_spmv,
)
from repro.sim.stats import LocalityTypeCounts

from repro.core.aid import AIDDistribution, aid_degree_distribution, aid_per_vertex
from repro.core.asymmetricity import (
    AsymmetricityDistribution,
    asymmetricity_degree_distribution,
    reciprocity,
)
from repro.core.degree_range import (
    DegreeRangeDecomposition,
    degree_range_decomposition,
)
from repro.core.ecs import ECSMeasurement, ecs_from_result, with_ecs_scans
from repro.core.gap import GapProfile, average_gap_profile
from repro.core.hub_coverage import HubCoverage, hub_coverage
from repro.core.hubs_misses import HubMissCount, hub_data_misses
from repro.core.missdist import MissRateDistribution, miss_rate_degree_distribution

__all__ = ["GraphSummary", "LocalityAnalyzer"]


@dataclass(frozen=True)
class GraphSummary:
    """One-screen structural summary of a graph."""

    name: str
    num_vertices: int
    num_edges: int
    average_degree: float
    max_in_degree: int
    max_out_degree: int
    reciprocity: float
    mean_in_aid: float
    favoured_direction: str


class LocalityAnalyzer:
    """Analyze one graph with the paper's metrics.

    Parameters
    ----------
    graph:
        The graph to analyze (already relabeled, if studying an RA).

    The simulation-backed metrics share one traversal, run on first use
    under :meth:`SimulationConfig.scaled_for` with ECS scans enabled.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._result: SimulationResult | None = None

    # -- structural metrics (no simulation needed) -------------------------

    def aid_distribution(self, direction: str = "in") -> AIDDistribution:
        return aid_degree_distribution(self.graph, direction=direction)

    def asymmetricity_distribution(self) -> AsymmetricityDistribution:
        return asymmetricity_degree_distribution(self.graph)

    def degree_range(self) -> DegreeRangeDecomposition:
        return degree_range_decomposition(self.graph)

    def hub_coverage(self) -> HubCoverage:
        return hub_coverage(self.graph)

    def gap_profile(self) -> GapProfile:
        return average_gap_profile(self.graph)

    def summary(self) -> GraphSummary:
        aid = aid_per_vertex(self.graph)
        coverage = self.hub_coverage()
        budget = max(1, self.graph.num_vertices // 100)
        return GraphSummary(
            name=self.graph.name,
            num_vertices=self.graph.num_vertices,
            num_edges=self.graph.num_edges,
            average_degree=self.graph.average_degree,
            max_in_degree=int(self.graph.in_degrees().max(initial=0)),
            max_out_degree=int(self.graph.out_degrees().max(initial=0)),
            reciprocity=reciprocity(self.graph),
            mean_in_aid=float(np.nanmean(aid)) if aid.size else float("nan"),
            favoured_direction=coverage.crossover_favours(budget),
        )

    # -- simulation-backed metrics -------------------------------------------

    @property
    def simulation(self) -> SimulationResult:
        """The cached traversal simulation (run on first use)."""
        if self._result is None:
            config = with_ecs_scans(self.graph, SimulationConfig.scaled_for(self.graph))
            self._result = simulate_spmv(self.graph, config)
        return self._result

    def miss_rate_distribution(self, by: str = "proc") -> MissRateDistribution:
        return miss_rate_degree_distribution(self.simulation, by=by)

    def effective_cache_size(self) -> ECSMeasurement:
        return ecs_from_result(self.simulation)

    def hub_misses(self, min_degree: int) -> HubMissCount:
        return hub_data_misses(self.simulation, min_degree)

    def locality_types(self) -> LocalityTypeCounts:
        """Locality types I–V of the traversal's trace; no cache is replayed."""
        return count_locality_types(self.graph, SimulationConfig.scaled_for(self.graph))
