"""Unit tests for the miss-rate distribution, ECS, and hub-miss metrics."""

import numpy as np
import pytest

from repro.errors import ReproError, SimulationError
from repro.core.binning import log_bins
from repro.core.ecs import NUM_ECS_SCANS, ecs_from_result, with_ecs_scans
from repro.core.hubs_misses import hub_data_misses
from repro.core.missdist import miss_rate_degree_distribution
from repro.sim import SimulationConfig, simulate_spmv


@pytest.fixture(scope="module")
def sim(small_web):
    config = SimulationConfig.scaled_for(small_web, scan_interval=2000)
    return simulate_spmv(small_web, config)


class TestMissRateDistribution:
    def test_accesses_partition_random_accesses(self, sim, small_web):
        dist = miss_rate_degree_distribution(sim)
        assert dist.accesses.sum() == small_web.num_edges

    def test_misses_match_simulation(self, sim):
        dist = miss_rate_degree_distribution(sim)
        assert dist.misses.sum() == sim.random_misses

    def test_rates_bounded(self, sim):
        dist = miss_rate_degree_distribution(sim)
        x, y = dist.series()
        assert ((y >= 0) & (y <= 100)).all()

    def test_overall_rate_matches(self, sim):
        dist = miss_rate_degree_distribution(sim)
        assert dist.overall_miss_rate_percent == pytest.approx(
            sim.random_miss_rate * 100.0
        )

    def test_by_read_attribution(self, sim, small_web):
        dist = miss_rate_degree_distribution(sim, by="read")
        assert dist.accesses.sum() == small_web.num_edges
        assert dist.misses.sum() == sim.random_misses

    def test_unknown_attribution(self, sim):
        with pytest.raises(ReproError):
            miss_rate_degree_distribution(sim, by="magic")

    def test_explicit_bins(self, sim):
        bins = log_bins(10_000)
        dist = miss_rate_degree_distribution(sim, bins=bins)
        assert dist.bins is bins


class TestECS:
    def test_from_result(self, sim):
        ecs = ecs_from_result(sim)
        assert 0 <= ecs.average_percent <= 100
        assert ecs.samples.size > 0
        assert ecs.final_percent == ecs.samples[-1]

    def test_from_result_requires_scans(self, small_web):
        plain = simulate_spmv(small_web, SimulationConfig.scaled_for(small_web))
        with pytest.raises(SimulationError):
            ecs_from_result(plain)

    def test_measure_ecs_auto_interval(self, small_web):
        plain = SimulationConfig.scaled_for(small_web)
        config = with_ecs_scans(small_web, plain)
        ecs = ecs_from_result(simulate_spmv(small_web, config))
        assert 0 < ecs.average_percent < 100
        approx_len = small_web.num_edges + small_web.num_vertices // 4
        assert ecs.scan_interval == approx_len // NUM_ECS_SCANS


class TestHubMisses:
    def test_threshold_zero_counts_everything(self, sim, small_web):
        count = hub_data_misses(sim, 0)
        # degree > 0 excludes only vertices whose data is never read
        assert count.accesses == small_web.num_edges
        assert count.misses == sim.random_misses

    def test_monotone_in_threshold(self, sim):
        low = hub_data_misses(sim, 1)
        high = hub_data_misses(sim, 50)
        assert high.misses <= low.misses
        assert high.num_vertices_above <= low.num_vertices_above

    def test_huge_threshold_empty(self, sim):
        count = hub_data_misses(sim, 10**9)
        assert count.misses == 0
        assert count.miss_rate == 0.0

    def test_miss_rate_bounded(self, sim):
        count = hub_data_misses(sim, 10)
        assert 0.0 <= count.miss_rate <= 1.0
