"""Edge cases and failure injection across the whole stack."""

import numpy as np
import pytest

from repro import SimulationConfig, get_algorithm, simulate_spmv
from repro.core.aid import aid_per_vertex
from repro.core.analyzer import LocalityAnalyzer
from repro.core.asymmetricity import asymmetricity_per_vertex
from repro.core.degree_range import degree_range_decomposition
from repro.core.missdist import miss_rate_degree_distribution
from repro.graph.build import build_graph
from repro.graph.graph import Graph
from repro.sim import CacheConfig, Region, spmv_trace
from repro.sim.cache import SetAssociativeCache


def graph_of(n, edges, name=""):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph.from_edges(n, src, dst, name=name)


class TestDegenerateGraphs:
    def test_single_vertex_self_loop(self):
        g = graph_of(1, [(0, 0)])
        trace = spmv_trace(g)
        assert trace.num_random_accesses == 1
        sim = simulate_spmv(
            g, SimulationConfig(cache=CacheConfig(num_sets=1, ways=1))
        )
        assert sim.random_accesses == 1

    def test_single_edge_graph_all_algorithms(self):
        g = graph_of(2, [(0, 1)])
        from repro.reorder import algorithm_names

        for name in algorithm_names():
            result = get_algorithm(name)(g)
            assert sorted(result.relabeling.tolist()) == [0, 1]

    def test_two_disconnected_cliques(self):
        edges = [(u, v) for u in range(3) for v in range(3) if u != v]
        edges += [(u + 3, v + 3) for u, v in edges]
        g = graph_of(6, edges)
        for name in ("slashburn", "gorder", "rabbit", "hybrid"):
            result = get_algorithm(name)(g)
            assert sorted(result.relabeling.tolist()) == list(range(6))

    def test_metrics_on_tiny_graph(self):
        g = graph_of(2, [(0, 1), (1, 0)])
        assert aid_per_vertex(g)[0] == 0.0
        assert asymmetricity_per_vertex(g)[0] == 0.0
        dec = degree_range_decomposition(g)
        assert dec.percent[0, 0] == pytest.approx(100.0)

    def test_analyzer_on_tiny_graph(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)], name="triangle")
        analyzer = LocalityAnalyzer(g)
        summary = analyzer.summary()
        assert summary.num_edges == 3
        dist = analyzer.miss_rate_distribution()
        assert dist.accesses.sum() == 3


class TestExtremeCacheGeometries:
    def test_one_line_cache(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=1, ways=1, policy="lru"))
        out = cache.simulate(np.array([1, 1, 2, 1], dtype=np.int64))
        assert out.hits.tolist() == [0, 1, 0, 0]

    def test_empty_trace(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=2, ways=2))
        out = cache.simulate(np.zeros(0, dtype=np.int64))
        assert out.num_accesses == 0
        assert out.miss_rate == 0.0

    def test_cache_much_larger_than_graph(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        config = SimulationConfig(
            cache=CacheConfig(num_sets=1024, ways=16), num_threads=2
        )
        sim = simulate_spmv(g, config)
        # with everything cached, only cold misses remain
        assert sim.l3_misses <= len(np.unique(spmv_trace(g).lines))

    def test_more_threads_than_vertices(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        config = SimulationConfig(
            cache=CacheConfig(num_sets=2, ways=2), num_threads=16
        )
        sim = simulate_spmv(g, config)
        assert sim.random_accesses == 2


class TestZeroDegreeHandling:
    def test_build_then_simulate(self):
        # vertex 5 isolated; build drops it, simulation must still work
        result = build_graph(
            6, np.array([0, 1, 2]), np.array([1, 2, 0])
        )
        assert result.num_removed_vertices == 3
        sim = simulate_spmv(
            result.graph,
            SimulationConfig(cache=CacheConfig(num_sets=1, ways=2)),
        )
        assert sim.random_accesses == 3

    def test_in_degree_zero_vertices_tolerated(self):
        # vertex 0 has out-edges only: pull trace reads nothing for it
        g = graph_of(3, [(0, 1), (0, 2)])
        trace = spmv_trace(g)
        mask = trace.random_mask()
        assert 0 not in trace.proc_vertex[mask].tolist()

    def test_missdist_with_empty_bins(self):
        g = graph_of(3, [(0, 1), (0, 2)])
        sim = simulate_spmv(
            g, SimulationConfig(cache=CacheConfig(num_sets=1, ways=2))
        )
        dist = miss_rate_degree_distribution(sim)
        assert dist.accesses.sum() == 2


class TestPushDirectionEndToEnd:
    def test_push_simulation_counters(self, small_web):
        config = SimulationConfig.scaled_for(small_web, direction="push")
        sim = simulate_spmv(small_web, config)
        assert sim.random_region == Region.VERTEX_OUT
        assert sim.random_accesses == small_web.num_edges
        stats = sim.random_stats(by="read")
        assert np.array_equal(stats.accesses, small_web.in_degrees())

    def test_push_missdist_uses_out_degrees(self, small_web):
        config = SimulationConfig.scaled_for(small_web, direction="push")
        sim = simulate_spmv(small_web, config)
        dist = miss_rate_degree_distribution(sim, by="proc")
        assert dist.accesses.sum() == small_web.num_edges
