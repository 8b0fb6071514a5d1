"""repro — locality analysis of graph reordering algorithms.

A from-scratch Python reproduction of *"Locality Analysis of Graph
Reordering Algorithms"* (Koohi Esfahani, Kilpatrick, Vandierendonck,
IISWC 2021): the paper's measurement toolkit (graph-specific cache
simulation, N2N AID, miss-rate degree distributions, effective cache
size), the three reordering algorithms it studies (SlashBurn, GOrder,
Rabbit-Order), its structural dataset analyses, and the improvements it
proposes (SlashBurn++, EDR restriction, the hybrid RO+GO ordering).

Quickstart::

    from repro import load_dataset, get_algorithm, LocalityAnalyzer

    graph = load_dataset("twtr-mini")
    result = get_algorithm("gorder")(graph)
    analyzer = LocalityAnalyzer(result.apply(graph))
    print(analyzer.miss_rate_distribution().series())
"""

from repro.core import (
    LocalityAnalyzer,
    aid_degree_distribution,
    aid_per_vertex,
    asymmetricity_degree_distribution,
    degree_range_decomposition,
    ecs_from_result,
    hub_coverage,
    hub_data_misses,
    miss_rate_degree_distribution,
)
from repro.errors import (
    ExperimentError,
    GraphFormatError,
    PermutationError,
    ReorderingError,
    ReproError,
    SimulationError,
)
from repro.generate import (
    DATASETS,
    dataset_names,
    load_dataset,
    social_network,
    web_graph,
)
from repro.graph import Graph, build_graph, validate_graph
from repro.reorder import (
    ReorderResult,
    ReorderingAlgorithm,
    algorithm_names,
    get_algorithm,
)
from repro.sim import (
    CacheConfig,
    SimulationConfig,
    SimulationResult,
    TLBConfig,
    pagerank,
    simulate_ihtl,
    simulate_spmv,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "LocalityAnalyzer",
    "aid_degree_distribution",
    "aid_per_vertex",
    "asymmetricity_degree_distribution",
    "degree_range_decomposition",
    "ecs_from_result",
    "hub_coverage",
    "hub_data_misses",
    "miss_rate_degree_distribution",
    "ExperimentError",
    "GraphFormatError",
    "PermutationError",
    "ReorderingError",
    "ReproError",
    "SimulationError",
    "DATASETS",
    "dataset_names",
    "load_dataset",
    "social_network",
    "web_graph",
    "Graph",
    "build_graph",
    "validate_graph",
    "ReorderResult",
    "ReorderingAlgorithm",
    "algorithm_names",
    "get_algorithm",
    "CacheConfig",
    "SimulationConfig",
    "SimulationResult",
    "TLBConfig",
    "pagerank",
    "simulate_ihtl",
    "simulate_spmv",
]
