"""Property tests for set-sharded cache simulation (DESIGN.md §11).

The sharding invariants are exact, not statistical: for ANY geometry,
policy, shard count (including 1 and more shards than sets) and chunking
of the input stream, :class:`ShardedReplay` must reproduce a single
:class:`SetAssociativeCache` fed the same stream bit for bit —
per-access hit bits, per-set occupancy (resident lines in set-major
order), snapshot content at every global scan multiple, the DRRIP PSEL
trajectory, and the splitmix64 draw consumption implied by global access
positions.  The serial mode is the oracle for the process mode: both run
the same worker code, so one process-mode case per class is enough to
pin the pipe protocol.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import SimulationError
from repro.obs import metrics as obs_metrics
from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.sim.shard import ShardedReplay, _segment_bounds, shard_set_ranges

_POLICIES = ("lru", "srrip", "brrip", "drrip")


def _lines(seed: int, length: int, span: int) -> np.ndarray:
    """A skewed random trace: hot lines plus a uniform tail."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, max(1, span // 16), size=length // 2)
    cold = rng.integers(0, span, size=length - length // 2)
    mixed = np.concatenate([hot, cold])
    rng.shuffle(mixed)
    return mixed.astype(np.int64)


def _chunked(array: np.ndarray, chunk: int) -> list:
    return [array[i : i + chunk] for i in range(0, array.shape[0], chunk)]


def _reference(config: CacheConfig, lines: np.ndarray, scan_interval: int):
    """One cache fed in scan-aligned cuts: ``(cache, hits, snapshots)``.

    Snapshots are ``(access_index, resident_lines)`` pairs read after
    every cut that ends on a scan multiple.
    """
    cache = SetAssociativeCache(config)
    n = lines.shape[0]
    step = scan_interval or max(1, n)
    hits, snapshots = [], []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        hits.append(cache.simulate(lines[lo:hi]).hits)
        if scan_interval and hi % scan_interval == 0:
            snapshots.append((hi, cache.resident_lines()))
    return cache, np.concatenate(hits), snapshots


def _replay(chunks, config: CacheConfig, **kwargs):
    """Drive :class:`ShardedReplay` over ``chunks``: ``(hits, replay, totals)``."""
    with ShardedReplay(config, **kwargs) as replay:
        hits = [replay.feed(chunk) for chunk in chunks]
        totals = replay.finish()
    merged = np.concatenate(hits) if hits else np.zeros(0, dtype=np.uint8)
    return merged, replay, totals


class TestShardSetRanges:
    @settings(max_examples=60, deadline=None)
    @given(num_sets=st.integers(1, 256), num_shards=st.integers(1, 40))
    def test_contiguous_ascending_partition(self, num_sets, num_shards):
        ranges = shard_set_ranges(num_sets, num_shards)
        assert len(ranges) == num_shards
        assert ranges[0][0] == 0
        assert ranges[-1][1] == num_sets
        for (lo, hi), (next_lo, _) in zip(ranges, ranges[1:]):
            assert lo <= hi
            assert hi == next_lo
        assert sum(hi - lo for lo, hi in ranges) == num_sets

    def test_positive_shard_count_required(self):
        with pytest.raises(SimulationError):
            shard_set_ranges(16, 0)


class TestSegmentBounds:
    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 500),
        global_start=st.integers(0, 1000),
        scan_interval=st.integers(0, 64),
    )
    def test_cuts_cover_and_align(self, length, global_start, scan_interval):
        cuts = _segment_bounds(length, global_start, scan_interval)
        assert cuts[0] == 0
        assert cuts[-1] == length
        assert cuts == sorted(set(cuts))
        if scan_interval:
            # Every global scan multiple inside the chunk is a cut.
            for cut in cuts[1:-1]:
                assert (global_start + cut) % scan_interval == 0


class TestShardedBitExactness:
    @settings(max_examples=25, deadline=None)
    @given(
        policy=st.sampled_from(_POLICIES),
        geometry=st.sampled_from([(64, 4), (33, 2), (1, 4), (128, 8)]),
        num_shards=st.sampled_from([1, 2, 3, 8, 200]),
        chunk=st.sampled_from([64, 257, 1 << 20]),
        scan_interval=st.sampled_from([0, 97]),
        seed=st.integers(0, 3),
    )
    def test_serial_matches_single_process(
        self, policy, geometry, num_shards, chunk, scan_interval, seed
    ):
        num_sets, ways = geometry
        config = CacheConfig(
            num_sets=num_sets, ways=ways, policy=policy, seed=seed
        )
        lines = _lines(seed, 1500, num_sets * ways * 8)
        cache, ref_hits, ref_snapshots = _reference(config, lines, scan_interval)

        hits, replay, totals = _replay(
            _chunked(lines, chunk),
            config,
            num_shards=num_shards,
            scan_interval=scan_interval,
        )

        np.testing.assert_array_equal(hits, ref_hits)
        assert totals.psel == cache._psel
        np.testing.assert_array_equal(totals.resident_lines, cache.resident_lines())
        assert len(replay.snapshots) == len(ref_snapshots)
        for got, (index, resident) in zip(replay.snapshots, ref_snapshots):
            assert got.access_index == index
            np.testing.assert_array_equal(got.resident_lines, resident)
        # Draw consumption: positions are global, so the shard that saw
        # the final access has advanced its counter to the trace length,
        # and no shard can ever run ahead of it.
        assert max(totals.shard_access_pos) == lines.shape[0]
        assert all(pos <= lines.shape[0] for pos in totals.shard_access_pos)
        # Routing covers every access exactly once (leader replicas are
        # extra sends, so totals can only exceed the trace under DRRIP).
        assert sum(totals.shard_accesses) >= lines.shape[0]
        if policy != "drrip":
            assert sum(totals.shard_accesses) == lines.shape[0]

    @pytest.mark.parametrize("policy", _POLICIES)
    def test_process_mode_matches_serial(self, policy):
        config = CacheConfig(num_sets=32, ways=4, policy=policy, seed=11)
        lines = _lines(11, 2000, 2048)
        chunks = _chunked(lines, 333)
        serial = _replay(chunks, config, num_shards=3, scan_interval=128)
        process = _replay(chunks, config, num_shards=3, scan_interval=128, mode="process")
        np.testing.assert_array_equal(process[0], serial[0])
        assert process[2].psel == serial[2].psel
        assert process[2].shard_accesses == serial[2].shard_accesses
        assert process[2].shard_access_pos == serial[2].shard_access_pos
        np.testing.assert_array_equal(process[2].resident_lines, serial[2].resident_lines)
        assert len(process[1].snapshots) == len(serial[1].snapshots)
        for got, want in zip(process[1].snapshots, serial[1].snapshots):
            assert got.access_index == want.access_index
            np.testing.assert_array_equal(
                got.resident_lines, want.resident_lines
            )

    def test_empty_and_unknown_mode(self):
        config = CacheConfig(num_sets=8, ways=2)
        hits, replay, totals = _replay([], config, num_shards=2)
        assert hits.shape == (0,)
        assert replay.snapshots == []
        assert totals.shard_accesses == [0, 0]
        assert totals.resident_lines.shape == (0,)
        with pytest.raises(SimulationError):
            ShardedReplay(config, num_shards=2, mode="remote")

    def test_empty_chunks_are_skipped(self):
        config = CacheConfig(num_sets=8, ways=2, policy="drrip")
        lines = _lines(3, 400, 256)
        with_empties = [
            np.zeros(0, dtype=np.int64),
            lines[:100],
            np.zeros(0, dtype=np.int64),
            lines[100:],
        ]
        _, ref_hits, _ = _reference(config, lines, 0)
        hits, _, _ = _replay(with_empties, config, num_shards=3)
        np.testing.assert_array_equal(hits, ref_hits)


class TestShardObservability:
    def test_counters_count_routed_segments_and_barriers(self):
        config = CacheConfig(num_sets=16, ways=2)
        lines = _lines(5, 600, 512)
        chunks = _chunked(lines, 200)  # 3 chunks, no scan cuts
        with obs.recording(fresh=True):
            _replay(chunks, config, num_shards=4)
            routed = obs_metrics.registry.counter("sim.shard.chunks_routed").value
            barriers = obs_metrics.registry.counter("sim.shard.barrier_waits").value
        assert routed == 3 * 4  # segments x shards
        assert barriers == 0  # serial mode never blocks on a pipe

        with obs.recording(fresh=True):
            _replay(chunks, config, num_shards=2, mode="process")
            barriers = obs_metrics.registry.counter("sim.shard.barrier_waits").value
        assert barriers == 3  # one wait per routed segment

    def test_disabled_tracing_allocates_no_counters(self):
        config = CacheConfig(num_sets=16, ways=2)
        obs_metrics.registry.reset()
        _replay([_lines(6, 100, 256)], config, num_shards=2)
        assert "sim.shard.chunks_routed" not in obs_metrics.registry.snapshot()


class TestProcessShardFailures:
    def test_resource_tracker_stays_quiet(self):
        # Two process-mode replays in one interpreter: the second forks
        # workers while the tracker is already running, which is where a
        # double unregister used to print KeyError tracebacks.
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.sim.cache import CacheConfig
            from repro.sim.shard import ShardedReplay

            config = CacheConfig(num_sets=16, ways=2, policy="drrip")
            lines = np.arange(900, dtype=np.int64) * 7 % 509
            for _ in range(2):
                with ShardedReplay(config, num_shards=2, mode="process") as replay:
                    for lo in range(0, 900, 300):
                        replay.feed(lines[lo : lo + 300])
                    replay.finish()
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert "KeyError: '/psm_" not in proc.stderr
        assert "leaked shared_memory" not in proc.stderr

    def test_killed_worker_raises_simulation_error(self):
        config = CacheConfig(num_sets=16, ways=2, policy="drrip")
        lines = _lines(7, 600, 512)
        with ShardedReplay(config, num_shards=2, mode="process") as replay:
            replay.feed(lines[:300])
            victim = replay._procs[1].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            started = time.monotonic()
            with pytest.raises(SimulationError, match=r"shard worker 1 .*exit code -9"):
                replay.feed(lines[300:])
            assert time.monotonic() - started < 10
