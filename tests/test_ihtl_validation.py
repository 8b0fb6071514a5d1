"""Unit tests for the iHTL hybrid traversal and simulator validation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.core.validation import validate_simulator
from repro.graph.permute import random_permutation
from repro.sim.cache import CacheConfig
from repro.sim.ihtl import hubs_for_cache, ihtl_trace, simulate_ihtl, split_by_in_hubs
from repro.sim.simulator import SimulationConfig, simulate_spmv


class TestSplit:
    def test_edges_partitioned(self, small_web):
        split = split_by_in_hubs(small_web, 16)
        assert split.flipped_edges + split.sparse_edges == small_web.num_edges
        assert split.num_hubs == 16

    def test_hubs_are_top_in_degree(self, small_web):
        split = split_by_in_hubs(small_web, 8)
        in_deg = small_web.in_degrees()
        cutoff = np.sort(in_deg)[-8]
        assert (in_deg[split.hubs] >= cutoff).all()

    def test_flipped_block_targets_only_hubs(self, small_web):
        split = split_by_in_hubs(small_web, 8)
        _, dst = split.flipped.edges()
        assert set(np.unique(dst).tolist()) <= set(split.hubs.tolist())

    def test_bad_num_hubs(self, small_web):
        with pytest.raises(SimulationError):
            split_by_in_hubs(small_web, 0)
        with pytest.raises(SimulationError):
            split_by_in_hubs(small_web, small_web.num_vertices + 1)

    def test_hubs_for_cache_budget(self, small_web):
        cache = CacheConfig(num_sets=16, ways=4)
        hubs = hubs_for_cache(small_web, cache)
        assert 1 <= hubs <= cache.capacity_bytes // 8


class TestIHTLTrace:
    def test_covers_every_edge_once(self, small_web):
        trace, split = ihtl_trace(small_web, 16)
        random_count = int((trace.read_vertex >= 0).sum())
        assert random_count == small_web.num_edges

    def test_hybrid_beats_pure_pull_on_web(self, small_web):
        """The Section VIII-A claim: flipping in-hub blocks helps web
        graphs, whose in-hubs RAs cannot fix."""
        cache = CacheConfig.scaled_for(small_web.num_vertices)
        pure = simulate_spmv(
            small_web, SimulationConfig(cache=cache, tlb=None)
        )
        hybrid = simulate_ihtl(small_web, cache)
        assert hybrid.l3_misses < pure.l3_misses

    def test_cache_aware_default_hub_count(self, small_web):
        cache = CacheConfig.scaled_for(small_web.num_vertices)
        result = simulate_ihtl(small_web, cache)
        assert result.split.num_hubs == hubs_for_cache(small_web, cache)
        assert 0 <= result.random_miss_rate <= 1


class TestValidation:
    def test_report_fields(self, small_web):
        reordered = small_web.permuted(
            random_permutation(small_web.num_vertices, seed=5)
        )
        cache = CacheConfig.scaled_for(small_web.num_vertices)
        report = validate_simulator(small_web, reordered, cache)
        assert report.capacity_lines == cache.num_lines
        assert report.exact_baseline_misses > 0
        assert report.absolute_error_percent >= 0

    def test_associativity_error_bounded(self, small_web):
        """Set-associative LRU should track fully-associative LRU within
        the paper's 15% absolute-error ballpark."""
        cache = CacheConfig.scaled_for(small_web.num_vertices)
        report = validate_simulator(small_web, small_web, cache)
        assert report.absolute_error_percent < 20.0

    def test_models_agree_on_improvement_direction(self, small_web):
        """A scramble hurts in both the exact and the DRRIP model."""
        scrambled = small_web.permuted(
            random_permutation(small_web.num_vertices, seed=6)
        )
        cache = CacheConfig.scaled_for(small_web.num_vertices)
        report = validate_simulator(small_web, scrambled, cache)
        assert report.exact_improvement_percent < 0
        assert report.drrip_improvement_percent < 0
