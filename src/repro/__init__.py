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

Each name here and in the subpackages' ``__init__`` is one that a
script, example or sibling package imports from there; everything else
is imported from its defining module (``repro.sim.tlb``,
``repro.graph.permute``, ...).
"""

from repro.core.analyzer import LocalityAnalyzer
from repro.generate.datasets import load_dataset
from repro.reorder import algorithm_names, get_algorithm
from repro.reorder.base import ReorderingAlgorithm
from repro.sim.simulator import SimulationConfig, simulate_spmv
from repro.sim.spmv import pagerank

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "LocalityAnalyzer",
    "load_dataset",
    "ReorderingAlgorithm",
    "algorithm_names",
    "get_algorithm",
    "SimulationConfig",
    "pagerank",
    "simulate_spmv",
]
