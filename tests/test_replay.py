"""Property tests for the one-cache stream replay (DESIGN.md §11).

:class:`Replay` feeds one :class:`SetAssociativeCache` a stream in
arbitrary chunks and cuts resident-line snapshots at global
``scan_interval`` multiples.  The invariant is exact, not statistical:
for ANY geometry, policy and chunking of the input stream, it must
reproduce a single cache fed the whole stream in scan-aligned cuts bit
for bit — per-access hit bits, the DRRIP PSEL, the final resident
lines and the snapshot content at every scan multiple.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import CacheConfig, Replay, SetAssociativeCache, _segment_bounds

_POLICIES = ("lru", "srrip", "brrip", "drrip")


def _lines(seed: int, length: int, span: int) -> np.ndarray:
    """A skewed random trace: hot lines plus a uniform tail."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, max(1, span // 16), size=length // 2)
    cold = rng.integers(0, span, size=length - length // 2)
    mixed = np.concatenate([hot, cold])
    rng.shuffle(mixed)
    return mixed.astype(np.int64)


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


def _replay(chunks, config: CacheConfig, scan_interval: int = 0):
    """Drive :class:`Replay` over ``chunks``: ``(hits, replay)``."""
    replay = Replay(config, scan_interval=scan_interval)
    hits = [replay.feed(chunk) for chunk in chunks]
    merged = np.concatenate(hits) if hits else np.zeros(0, dtype=np.uint8)
    return merged, replay


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


class TestReplayBitExactness:
    @settings(max_examples=8, deadline=None)
    @given(
        geometry=st.sampled_from([(64, 4), (33, 2), (1, 4), (128, 8)]),
        splits=st.lists(st.integers(0, 1500), max_size=12),
        seed=st.integers(0, 3),
    )
    def test_any_chunking_matches_one_cache(self, geometry, splits, seed):
        num_sets, ways = geometry
        lines = _lines(seed, 1500, num_sets * ways * 8)
        bounds = [0, *sorted(splits), lines.shape[0]]
        chunks = [lines[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        for policy in _POLICIES:
            config = CacheConfig(num_sets=num_sets, ways=ways, policy=policy, seed=seed)
            for scan_interval in (0, 97):
                cache, ref_hits, ref_snapshots = _reference(config, lines, scan_interval)
                hits, replay = _replay(chunks, config, scan_interval)

                np.testing.assert_array_equal(hits, ref_hits)
                assert replay.cache._psel == cache._psel
                assert replay.cache._access_pos == lines.shape[0]
                np.testing.assert_array_equal(
                    replay.cache.resident_lines(), cache.resident_lines()
                )
                assert len(replay.snapshots) == len(ref_snapshots)
                for got, (index, resident) in zip(replay.snapshots, ref_snapshots):
                    assert got.access_index == index
                    np.testing.assert_array_equal(got.resident_lines, resident)

    def test_empty_stream(self):
        config = CacheConfig(num_sets=8, ways=2)
        hits, replay = _replay([], config, scan_interval=4)
        assert hits.shape == (0,)
        assert replay.snapshots == []
        assert replay.cache.resident_lines().shape == (0,)

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
        hits, _ = _replay(with_empties, config)
        np.testing.assert_array_equal(hits, ref_hits)
