"""Unit and property tests for the set-associative cache simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.cache import CacheConfig, Replay, SetAssociativeCache

traces = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=400)


def simulate(config, lines):
    cache = SetAssociativeCache(config)
    return cache.simulate(np.asarray(lines, dtype=np.int64))


class TestConfig:
    def test_capacity(self):
        config = CacheConfig(num_sets=4, ways=2, line_size=64, policy="lru")
        assert config.capacity_bytes == 512
        assert config.num_lines == 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(SimulationError):
            CacheConfig(num_sets=0, ways=2)
        with pytest.raises(SimulationError):
            CacheConfig(num_sets=2, ways=-1)

    def test_rejects_bad_line_size(self):
        with pytest.raises(SimulationError):
            CacheConfig(num_sets=2, ways=2, line_size=48)

    def test_rejects_unknown_policy(self):
        with pytest.raises(SimulationError):
            CacheConfig(num_sets=2, ways=2, policy="plru")

    def test_scaled_for_pressure(self):
        config = CacheConfig.scaled_for(100_000, pressure=0.10)
        data_lines = 100_000 * 8 // 64
        assert 0.04 < config.num_lines / data_lines < 0.25

    def test_scaled_for_rejects_bad_pressure(self):
        with pytest.raises(SimulationError):
            CacheConfig.scaled_for(1000, pressure=0)


class TestLRU:
    def config(self, sets=1, ways=2):
        return CacheConfig(num_sets=sets, ways=ways, policy="lru")

    def test_cold_misses(self):
        out = simulate(self.config(), [1, 2])
        assert out.num_misses == 2

    def test_simple_hit(self):
        out = simulate(self.config(), [1, 1])
        assert out.hits.tolist() == [0, 1]

    def test_eviction_order(self):
        # ways=2: after 1,2,3 the line 1 is evicted.
        out = simulate(self.config(), [1, 2, 3, 1])
        assert out.hits.tolist() == [0, 0, 0, 0]

    def test_recency_update(self):
        # Re-touching 1 keeps it; 2 is evicted by 3.
        out = simulate(self.config(), [1, 2, 1, 3, 1])
        assert out.hits.tolist() == [0, 0, 1, 0, 1]

    def test_sets_are_independent(self):
        # lines 0 and 1 map to different sets of a 2-set cache.
        out = simulate(self.config(sets=2, ways=1), [0, 1, 0, 1])
        assert out.hits.tolist() == [0, 0, 1, 1]

    def test_miss_rate_property(self):
        out = simulate(self.config(), [1, 1, 2])
        assert out.miss_rate == pytest.approx(2 / 3)

    @given(traces)
    @settings(max_examples=30, deadline=None)
    def test_large_cache_only_cold_misses(self, lines):
        config = CacheConfig(num_sets=64, ways=64, policy="lru")
        out = simulate(config, lines)
        assert out.num_misses == np.unique(lines).size

    @given(traces)
    @settings(max_examples=25, deadline=None)
    def test_lru_inclusion_property(self, lines):
        """A larger LRU cache never misses more (stack property)."""
        small = simulate(CacheConfig(num_sets=1, ways=2, policy="lru"), lines)
        large = simulate(CacheConfig(num_sets=1, ways=8, policy="lru"), lines)
        assert large.num_misses <= small.num_misses

    @given(traces)
    @settings(max_examples=25, deadline=None)
    def test_bulk_equals_single_access(self, lines):
        """One bulk call and one-element calls must agree."""
        bulk = simulate(CacheConfig(num_sets=2, ways=2, policy="lru"), lines)
        cache = SetAssociativeCache(CacheConfig(num_sets=2, ways=2, policy="lru"))
        single = [bool(cache.simulate([line]).hits[0]) for line in lines]
        assert bulk.hits.astype(bool).tolist() == single


class TestRRIP:
    def test_srrip_hit_promotes(self):
        config = CacheConfig(num_sets=1, ways=2, policy="srrip")
        out = simulate(config, [1, 1, 1])
        assert out.hits.tolist() == [0, 1, 1]

    def test_srrip_scan_resistance(self):
        """A one-shot scan should not evict a frequently reused line."""
        config = CacheConfig(num_sets=1, ways=4, policy="srrip")
        trace = [1, 1, 1] + [10, 11, 12, 13, 14] + [1]
        out = simulate(config, trace)
        assert out.hits[-1] == 1  # line 1 survived the scan

    def test_brrip_deterministic_per_seed(self):
        config = CacheConfig(num_sets=2, ways=2, policy="brrip", seed=5)
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 40, size=500)
        a = simulate(config, lines)
        b = simulate(config, lines)
        assert np.array_equal(a.hits, b.hits)

    def test_drrip_runs_and_bounds(self):
        config = CacheConfig(num_sets=64, ways=4, policy="drrip")
        rng = np.random.default_rng(1)
        lines = rng.integers(0, 4096, size=3000)
        out = simulate(config, lines)
        assert 0 <= out.num_hits <= 3000

    def test_drrip_degenerate_single_set(self):
        config = CacheConfig(num_sets=1, ways=2, policy="drrip")
        out = simulate(config, [1, 1])
        assert out.hits.tolist() == [0, 1]

    @given(traces)
    @settings(max_examples=20, deadline=None)
    def test_rrip_bulk_equals_single_access(self, lines):
        config = CacheConfig(num_sets=2, ways=2, policy="srrip")
        bulk = simulate(config, lines)
        cache = SetAssociativeCache(config)
        single = [bool(cache.simulate([line]).hits[0]) for line in lines]
        assert bulk.hits.astype(bool).tolist() == single

    @given(traces)
    @settings(max_examples=20, deadline=None)
    def test_all_policies_agree_on_infinite_cache(self, lines):
        cold = np.unique(lines).size
        for policy in ("lru", "srrip", "brrip", "drrip"):
            config = CacheConfig(num_sets=64, ways=61, policy=policy)
            assert simulate(config, lines).num_misses == cold


class TestSnapshots:
    @staticmethod
    def _snapshots(config, lines, scan_interval):
        replay = Replay(config, scan_interval=scan_interval)
        replay.feed(np.asarray(lines, dtype=np.int64))
        return replay.snapshots

    def test_scan_interval(self):
        config = CacheConfig(num_sets=2, ways=2, policy="lru")
        snapshots = self._snapshots(config, np.arange(10), scan_interval=4)
        assert [s.access_index for s in snapshots] == [4, 8]

    def test_snapshot_contents(self):
        config = CacheConfig(num_sets=1, ways=4, policy="lru")
        snapshots = self._snapshots(config, [7, 9], scan_interval=2)
        assert sorted(snapshots[0].resident_lines.tolist()) == [7, 9]

    def test_resident_lines_excludes_invalid(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=2, ways=2, policy="lru"))
        cache.simulate([3])
        assert cache.resident_lines().tolist() == [3]

    def test_state_persists_across_simulate_calls(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=1, ways=2, policy="lru"))
        cache.simulate(np.array([5], dtype=np.int64))
        out = cache.simulate(np.array([5], dtype=np.int64))
        assert out.hits.tolist() == [1]
