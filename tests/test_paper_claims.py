"""The paper's verdict, gated: every experiment's shape checks plus the
ablation and validation claims, at the default ``REPRO_SCALE``.

Each experiment regenerates one paper table or figure and reports the
paper claims it checks (who wins, by what factor, where crossovers
fall; see EXPERIMENTS.md).  The checks are calibrated for
``REPRO_SCALE=1``; at other scales some are known not to hold, and this
file neither pins, skips nor xfails any scale.  The ablations sweep the
design knobs the paper calls out.  All cases share one in-memory
``Workloads``, so every graph, reordering and simulation is computed
once per run of this module.
"""

import pytest

from repro.bench.harness import experiment_ids, run_experiment
from repro.bench.workloads import Workloads
from repro.core.validation import validate_simulator
from repro.reorder.gorder import GOrder
from repro.reorder.rabbit import RabbitOrder
from repro.reorder.slashburn import SlashBurn
from repro.sim.cache import CacheConfig
from repro.sim.ihtl import simulate_ihtl
from repro.sim.simulator import SimulationConfig, simulate_spmv

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def workloads():
    return Workloads()


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_shapes_hold(workloads, experiment_id):
    report = run_experiment(experiment_id, workloads)
    assert report.text
    assert report.shape_checks, f"{experiment_id} checks no paper claim"
    failing = [claim for claim, holds in report.shape_checks.items() if not holds]
    assert report.all_shapes_hold, (
        f"{experiment_id}: paper shape checks failed: {failing}"
    )


def test_cache_policy_ablation(workloads):
    """LRU vs SRRIP vs BRRIP vs DRRIP: the paper's simulator models the
    dueling DRRIP policy of its Xeon's L3, which should track the better
    of its two constituent policies on every workload."""
    results = {}
    for dataset in ("twtr-mini", "sk-mini"):
        graph = workloads.graph(dataset)
        for policy in ("lru", "srrip", "brrip", "drrip"):
            config = SimulationConfig.scaled_for(graph, policy=policy)
            results[(dataset, policy)] = simulate_spmv(graph, config).l3_misses
    for dataset in ("twtr-mini", "sk-mini"):
        drrip = results[(dataset, "drrip")]
        best_static = min(results[(dataset, "srrip")], results[(dataset, "brrip")])
        # set dueling should land within 10% of the better static policy
        assert drrip <= best_static * 1.10, (dataset, drrip, best_static)


def test_gorder_window_ablation(workloads):
    """GOrder's window size, including the adaptive window Section VIII-C
    proposes for its weakness on LDV (Section VI-B)."""
    graph = workloads.graph("twtr-mini")
    config = SimulationConfig.scaled_for(graph)
    misses = []
    for algorithm in (
        GOrder(window=2),
        GOrder(window=5),
        GOrder(window=10),
        GOrder(window=5, adaptive=True),
    ):
        misses.append(simulate_spmv(algorithm(graph).apply(graph), config).l3_misses)
    # every configuration must produce a working ordering
    assert all(m > 0 for m in misses)


def test_slashburn_k_ablation(workloads):
    """SlashBurn's hubs-per-iteration k (the paper fixes 0.02|V|;
    Section VIII-C suggests deriving it from the cache size)."""
    graph = workloads.graph("twtr-mini")
    iterations = [
        SlashBurn(k_ratio)(graph).details["num_iterations"]
        for k_ratio in (0.005, 0.02, 0.08, 0.32)
    ]
    assert iterations == sorted(iterations, reverse=True)  # bigger k, fewer iters


def test_rabbit_cap_ablation(workloads):
    """Cache-aware Rabbit-Order community cap (Section VIII-C), as a
    weighted-degree budget from fractions of the simulated cache."""
    graph = workloads.graph("sk-mini")
    config = SimulationConfig.scaled_for(graph)
    cache_vertices = config.cache.capacity_bytes / 8  # data elems in cache
    merges = [
        RabbitOrder(max_community_weight=cap)(graph).details["num_merges"]
        for cap in (
            None,
            cache_vertices * graph.average_degree,
            cache_vertices * graph.average_degree / 4,
        )
    ]
    assert merges[0] >= merges[1] >= merges[2]  # tighter cap, fewer merges


_ORDERINGS = (
    "identity", "random", "degree", "hubsort", "hubcluster", "rcm",
    "slashburn", "gorder", "rabbit", "hybrid",
)


def test_lightweight_vs_structural(workloads):
    """Skew-based lightweight orderings ([21], [22]) and RCM next to the
    structural RAs on one social and one web graph."""
    by_key = {}
    for dataset in ("twtr-mini", "sk-mini"):
        graph = workloads.graph(dataset)
        config = SimulationConfig.scaled_for(graph)
        for name in _ORDERINGS:
            reordered = workloads.reordered_graph(dataset, name)
            by_key[(dataset, name)] = simulate_spmv(reordered, config).l3_misses
    for dataset in ("twtr-mini", "sk-mini"):
        # random scrambling is the worst ordering everywhere
        assert by_key[(dataset, "random")] == max(
            by_key[(dataset, name)] for name in _ORDERINGS
        )
        # hub-aware lightweight orderings beat the blind full degree sort
        # on the web graph, where preserving the crawl order matters
        if dataset == "sk-mini":
            assert by_key[(dataset, "hubcluster")] <= by_key[(dataset, "degree")]


def test_ihtl_hybrid(workloads):
    """Section VIII-A: iHTL processes the flipped blocks of the top
    in-hubs in push direction and the sparse rest in pull, which beats
    pure pull on web graphs, whose in-hubs dominate."""
    for dataset in ("sk-mini", "uu-mini"):
        graph = workloads.graph(dataset)
        cache = CacheConfig.scaled_for(graph.num_vertices)
        pull = simulate_spmv(graph, SimulationConfig(cache=cache, tlb=None)).l3_misses
        hybrid = simulate_ihtl(graph, cache).l3_misses
        assert hybrid < pull, f"iHTL must beat pure pull on {dataset}"


def test_simulator_validation(workloads):
    """Section V-B: the paper reports 15% absolute error against the real
    machine and 1.4% relative error between reordered versions; both
    error notions here are against an exact fully-associative LRU model
    (see ``repro.core.validation``)."""
    reports = []
    for dataset, algorithm in (("twtr-mini", "gorder"), ("sk-mini", "rabbit")):
        graph = workloads.graph(dataset)
        reordered = workloads.reordered_graph(dataset, algorithm)
        cache = CacheConfig.scaled_for(graph.num_vertices)
        reports.append(validate_simulator(graph, reordered, cache))
    for report in reports:
        assert report.absolute_error_percent < 20.0
        assert report.relative_disagreement_percent < 10.0
