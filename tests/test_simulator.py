"""Integration-level tests for the end-to-end SpMV cache simulation."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graph.permute import random_permutation
from repro.sim.cache import CacheConfig
from repro.sim.simulator import SimulationConfig, simulate_spmv
from repro.sim.tlb import TLBConfig
from repro.sim.trace import spmv_trace
from repro.sim.timing import traversal_time_ms


@pytest.fixture(scope="module")
def web_sim(small_web):
    config = SimulationConfig.scaled_for(small_web, scan_interval=2000)
    return simulate_spmv(small_web, config)


class TestCounters:
    def test_access_accounting(self, web_sim, small_web):
        bounds = web_sim.partition_boundaries.tolist()
        per_thread = [
            spmv_trace(small_web, web_sim.space, vertex_range=(lo, hi))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        assert web_sim.num_accesses == sum(len(trace) for trace in per_thread)
        assert 0 <= web_sim.l3_misses <= web_sim.num_accesses

    def test_random_access_count(self, web_sim, small_web):
        assert web_sim.random_accesses == small_web.num_edges

    def test_random_misses_bounded(self, web_sim):
        assert 0 <= web_sim.random_misses <= web_sim.random_accesses
        assert web_sim.random_miss_rate == pytest.approx(
            web_sim.random_misses / web_sim.random_accesses
        )

    def test_stats_by_read_sum_to_edges(self, web_sim, small_web):
        stats = web_sim.random_stats(by="read")
        assert stats.total_accesses == small_web.num_edges
        # each vertex's data is read once per out-neighbour
        assert np.array_equal(stats.accesses, small_web.out_degrees())

    def test_stats_by_proc_match_in_degrees(self, web_sim, small_web):
        stats = web_sim.random_stats(by="proc")
        assert np.array_equal(stats.accesses, small_web.in_degrees())

    def test_miss_totals_agree_between_attributions(self, web_sim):
        assert (
            web_sim.random_stats(by="read").total_misses
            == web_sim.random_stats(by="proc").total_misses
        )


class TestECS:
    def test_ecs_in_range(self, web_sim):
        samples = web_sim.effective_cache_size_samples()
        assert samples.size > 0
        assert ((samples >= 0) & (samples <= 100)).all()
        assert 0 <= web_sim.effective_cache_size() <= 100

    def test_ecs_requires_scans(self, small_web):
        config = SimulationConfig.scaled_for(small_web)
        sim = simulate_spmv(small_web, config)
        with pytest.raises(SimulationError):
            sim.effective_cache_size()


class TestScheduleAndTiming:
    def test_idle_percent_reasonable(self, web_sim):
        assert 0.0 <= web_sim.schedule().idle_percent < 50.0

    def test_traversal_time_positive(self, web_sim):
        assert web_sim.traversal_time_ms() > 0

    def test_per_vertex_cost_shape(self, web_sim, small_web):
        cost = web_sim.per_vertex_cost()
        assert cost.shape == (small_web.num_vertices,)
        assert (cost >= 0).all()

    def test_timing_model_monotone_in_misses(self):
        fast = traversal_time_ms(1000, 10, 0, 0.0, 8)
        slow = traversal_time_ms(1000, 10_000, 0, 0.0, 8)
        assert slow > fast

    def test_timing_model_idle_inflates(self):
        assert traversal_time_ms(1000, 10, 0, 50.0, 8) > (
            traversal_time_ms(1000, 10, 0, 0.0, 8)
        )

    def test_timing_model_validation(self):
        with pytest.raises(SimulationError):
            traversal_time_ms(-1, 0, 0, 0.0, 8)
        with pytest.raises(SimulationError):
            traversal_time_ms(1, 1, 0, 100.0, 8)

    @pytest.mark.parametrize("num_threads", [2, 8])
    def test_time_divides_by_the_config_thread_count(self, small_web, num_threads):
        """The cycle formula (1.5 per edge, 40 per L3 miss, 30 per TLB
        miss, at 2.1 GHz) over the config's threads, inflated by idle."""
        config = SimulationConfig(
            cache=CacheConfig.scaled_for(small_web.num_vertices),
            tlb=TLBConfig.scaled_for(small_web.num_vertices),
            num_threads=num_threads,
        )
        sim = simulate_spmv(small_web, config)
        cycles = (
            sim.num_edges * 1.5 + sim.l3_misses * 40.0 + sim.tlb_misses * 30.0
        )
        busy = 1.0 - sim.schedule().idle_percent / 100.0
        expected_ms = cycles / num_threads / busy / 2.1e9 * 1e3
        assert sim.traversal_time_ms() == pytest.approx(expected_ms, rel=1e-12)


class TestConfiguration:
    def test_config_validation(self, small_web):
        cache = CacheConfig(num_sets=4, ways=2)
        with pytest.raises(SimulationError):
            SimulationConfig(cache=cache, num_threads=0)
        with pytest.raises(SimulationError):
            SimulationConfig(cache=cache, direction="both")
        # Bad intervals fail at construction, not inside a later run.
        for field, value in (("scan_interval", -1), ("num_threads", -8)):
            with pytest.raises(SimulationError, match=field):
                SimulationConfig(cache=cache, **{field: value})
            with pytest.raises(SimulationError, match=field):
                dataclasses.replace(SimulationConfig(cache=cache), **{field: value})
        with pytest.raises(SimulationError, match="scan_interval"):
            SimulationConfig.scaled_for(small_web, scan_interval=-5)

    def test_config_and_kwargs_exclusive(self, small_web):
        """A config is required, and scaling kwargs are not accepted."""
        config = SimulationConfig.scaled_for(small_web)
        with pytest.raises(TypeError):
            simulate_spmv(small_web, config, pressure=0.5)
        with pytest.raises(TypeError):
            simulate_spmv(small_web)  # type: ignore[call-arg]

    def test_tlb_optional(self, small_web):
        config = SimulationConfig(
            cache=CacheConfig.scaled_for(small_web.num_vertices), tlb=None
        )
        sim = simulate_spmv(small_web, config)
        assert sim.tlb_misses == 0

    def test_tlb_counts_when_enabled(self, small_web):
        config = SimulationConfig(
            cache=CacheConfig.scaled_for(small_web.num_vertices),
            tlb=TLBConfig.scaled_for(small_web.num_vertices),
        )
        sim = simulate_spmv(small_web, config)
        assert sim.tlb_misses > 0
        assert sim.tlb_misses < sim.num_accesses


class TestLocalityOrdering:
    def test_scrambling_increases_misses(self, small_web):
        """The headline mechanism: vertex order changes miss counts."""
        config = SimulationConfig.scaled_for(small_web)
        baseline = simulate_spmv(small_web, config)
        scrambled = small_web.permuted(
            random_permutation(small_web.num_vertices, seed=11)
        )
        worse = simulate_spmv(scrambled, config)
        assert worse.l3_misses > baseline.l3_misses

    def test_deterministic(self, small_web):
        config = SimulationConfig.scaled_for(small_web)
        a = simulate_spmv(small_web, config)
        b = simulate_spmv(small_web, config)
        assert a.l3_misses == b.l3_misses
        assert np.array_equal(a.region_hits, b.region_hits)
        assert np.array_equal(a.proc_stats.misses, b.proc_stats.misses)
