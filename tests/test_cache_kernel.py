"""Kernel-vs-reference equivalence tests for the vectorized simulator.

The vectorized kernels in :mod:`repro.sim._kernels` promise bit-exact
agreement with the reference per-access loop: same hit bits, same
resident lines after every call, same final cache state (including DRRIP's PSEL counter and
the lifetime access position that keys the BRRIP bimodal draws) even
across chained calls.  These tests drive both paths directly
(``SetAssociativeCache._simulate_reference`` and
``_kernels.kernel_simulate``) over random geometries, policies and
traces and compare everything; ``TestDispatch`` pins the one rule
(``_kernels.use_kernel``) that picks between them, and
``TestNoFallback`` that the kernel replays whatever it is given, and
``TestBatchMemory`` that it does so in memory proportional to the batch.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.sim import CacheConfig, SetAssociativeCache, _kernels

POLICIES = ("lru", "srrip", "brrip", "drrip")

geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8, 32, 64]),  # num_sets
    st.sampled_from([1, 2, 3, 4, 8]),  # ways
)


def _kernel_hits(cache, lines):
    """Forced kernel replay of one batch; it never declines a real batch."""
    hits = _kernels.kernel_simulate(cache, lines)
    assert hits is not None
    return hits


def _both(config, lines, chain=1, cuts=None):
    """Run reference and kernel caches over the same chained trace.

    The trace is cut into ``chain`` even calls, or at explicit ``cuts``.
    """
    ref = SetAssociativeCache(config)
    ker = SetAssociativeCache(config)
    lines = np.asarray(lines, dtype=np.int64)
    outs = []
    if cuts is None:
        cuts = np.linspace(0, lines.shape[0], chain + 1).astype(int)
    for lo, hi in zip(cuts, cuts[1:]):
        part = lines[lo:hi]
        r = ref._simulate_reference(part).hits
        k = _kernel_hits(ker, part)
        outs.append((r, k, ref.resident_lines(), ker.resident_lines()))
    return ref, ker, outs


def _assert_same_state(ref, ker, policy):
    assert ref._tags == ker._tags
    if policy != "lru":
        assert ref._rrpv == ker._rrpv
    assert ref._psel == ker._psel
    assert ref._access_pos == ker._access_pos


class TestDispatch:
    def test_supported_size_gates(self):
        config = CacheConfig(num_sets=32, ways=8, policy="lru")
        small = np.arange(10, dtype=np.int64)
        big = np.arange(20_000, dtype=np.int64)
        assert not _kernels.use_kernel(config, small)
        assert _kernels.use_kernel(config, big)
        tiny_sets = CacheConfig(num_sets=2, ways=8, policy="lru")
        assert not _kernels.use_kernel(tiny_sets, big)

    def test_rrip_policies_gated_on_set_density(self):
        # RRIP replay steps one row per access of the busiest set, so all
        # three RRIP policies go to the kernel only when n >=
        # _RRIP_MIN_DENSITY * max_count.  A balanced trace has n/max_count
        # = num_sets, so 32 sets pass and 16 do not; LRU's chunked
        # streams are not gated on skew.
        wide = np.arange(40_000, dtype=np.int64)  # perfectly balanced
        skewed = np.zeros(40_000, dtype=np.int64)  # one set takes all
        assert 16 < _kernels._RRIP_MIN_DENSITY <= 32
        for policy in ("srrip", "brrip", "drrip"):
            for num_sets, spread in ((128, True), (32, True), (16, False)):
                config = CacheConfig(num_sets=num_sets, ways=8, policy=policy)
                assert _kernels.use_kernel(config, wide) is spread
                sets = _kernels.set_ids(wide, num_sets)
                assert _kernels.use_kernel(config, wide, sets) is spread
            big = CacheConfig(num_sets=128, ways=8, policy=policy)
            assert not _kernels.use_kernel(big, skewed)
        lru = CacheConfig(num_sets=32, ways=8, policy="lru")
        assert _kernels.use_kernel(lru, skewed)

    def test_auto_equals_reference_for_small_traces(self):
        config = CacheConfig(num_sets=4, ways=2, policy="lru")
        lines = np.arange(64, dtype=np.int64) % 16
        auto = SetAssociativeCache(config).simulate(lines)
        ref = SetAssociativeCache(config)._simulate_reference(lines)
        assert np.array_equal(auto.hits, ref.hits)

    def test_kernel_declines_impossible_batches(self):
        # The kernel guards itself: a batch it cannot replay comes back
        # None with every piece of cache state untouched.
        cases = (
            (8, np.zeros(0, dtype=np.int64)),  # empty batch
            (33, np.arange(64, dtype=np.int64)),  # ways > 32
            (8, np.array([5, -1, 7], dtype=np.int64)),  # negative line id
        )
        for ways, lines in cases:
            config = CacheConfig(num_sets=4, ways=ways, policy="drrip", seed=1)
            cache = SetAssociativeCache(config)
            cache._simulate_reference(np.arange(0, 400, 2, dtype=np.int64))
            before = (
                [t[:] for t in cache._tags],
                [r[:] for r in cache._rrpv],
                cache._psel,
                cache._access_pos,
            )
            assert _kernels.kernel_simulate(cache, lines) is None, ways
            after = (cache._tags, cache._rrpv, cache._psel, cache._access_pos)
            assert after == before, ways


class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        geom=geometries,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=4000),
        skew=st.booleans(),
    )
    def test_hits_and_state_match(self, policy, geom, seed, n, skew):
        num_sets, ways = geom
        rng = np.random.default_rng(seed)
        space = max(2, num_sets * ways * 4)
        if skew:
            lines = (rng.zipf(1.4, size=n) - 1) % space
        else:
            lines = rng.integers(0, space, size=n)
        config = CacheConfig(num_sets=num_sets, ways=ways, policy=policy, seed=seed % 7)
        ref, ker, outs = _both(config, lines)
        for r, k, _, _ in outs:
            assert np.array_equal(r, k)
        _assert_same_state(ref, ker, policy)

    @settings(max_examples=10, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scan=st.sampled_from([7, 100, 511]),
    )
    def test_snapshots_match(self, policy, seed, scan):
        # Snapshots are resident lines read between calls cut at scan
        # multiples (how Replay takes them).
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 600, size=1500)
        config = CacheConfig(num_sets=8, ways=4, policy=policy, seed=1)
        cuts = list(range(0, lines.shape[0], scan)) + [lines.shape[0]]
        _, _, outs = _both(config, lines, cuts=cuts)
        assert len(outs) == len(cuts) - 1
        for r, k, r_resident, k_resident in outs:
            assert np.array_equal(r, k)
            assert np.array_equal(r_resident, k_resident)

    @settings(max_examples=10, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chain=st.integers(min_value=2, max_value=4),
    )
    def test_chained_calls_round_trip_state(self, policy, seed, chain):
        # State written back by either path must let the other continue
        # bit-exactly, draw position and PSEL included.
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 300, size=2000)
        config = CacheConfig(num_sets=8, ways=4, policy=policy, seed=2)
        ref, ker, outs = _both(config, lines, chain=chain)
        for r, k, _, _ in outs:
            assert np.array_equal(r, k)
        _assert_same_state(ref, ker, policy)
        # Then alternate the paths on both caches, out of phase, so every
        # kernel -> reference and reference -> kernel handoff is crossed.
        for leg in range(3):
            tail = rng.integers(0, 300, size=257)
            if leg % 2 == 0:
                r = _kernel_hits(ref, tail)
                k = ker._simulate_reference(tail).hits
            else:
                r = ref._simulate_reference(tail).hits
                k = _kernel_hits(ker, tail)
            assert np.array_equal(r, k), leg
            _assert_same_state(ref, ker, policy)

    @settings(max_examples=10, deadline=None)
    @given(
        policy=st.sampled_from(POLICIES),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        flips=st.sampled_from(
            [
                ("kernel", "reference", "kernel"),
                ("reference", "kernel", "reference"),
                ("auto", "kernel", "reference"),
            ]
        ),
    )
    def test_chained_calls_survive_env_mode_flips(self, policy, seed, flips):
        # Switching paths between calls on one cache must not disturb
        # draw-position or PSEL state: reference->kernel->reference
        # handoffs replay the same per-access draw stream an all-reference
        # run would.  "auto" leaves the choice to simulate's own rule.
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 300, size=3000)
        config = CacheConfig(num_sets=8, ways=4, policy=policy, seed=3)
        ref = SetAssociativeCache(config)
        flipped = SetAssociativeCache(config)
        cuts = np.linspace(0, lines.shape[0], len(flips) + 1).astype(int)
        for i, mode in enumerate(flips):
            part = lines[cuts[i]:cuts[i + 1]]
            r = ref._simulate_reference(part).hits
            if mode == "kernel":
                k = _kernel_hits(flipped, part)
            elif mode == "reference":
                k = flipped._simulate_reference(part).hits
            else:
                k = flipped.simulate(part).hits
            assert np.array_equal(r, k), (policy, i, mode)
        _assert_same_state(ref, flipped, policy)

    def test_large_trace_exercises_kernel_dispatch(self):
        # Above every profitability threshold (including the RRIP
        # density rule, which a near-balanced load over 128 sets clears):
        # simulate must take the kernel path for all four policies and
        # still agree with the reference.
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 8192, size=40_000)
        for policy in POLICIES:
            config = CacheConfig(num_sets=128, ways=8, policy=policy)
            assert _kernels.use_kernel(config, lines)
            ref = SetAssociativeCache(config)
            ker = SetAssociativeCache(config)
            with obs.recording(fresh=True):
                r = ref._simulate_reference(lines)
                k = ker.simulate(lines)
                dispatched = obs_metrics.registry.counter(
                    "cache.kernel_batches"
                ).value
            assert dispatched == 1, policy
            assert np.array_equal(r.hits, k.hits)
            _assert_same_state(ref, ker, policy)


class TestNoFallback:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_forced_kernel_replays_one_set_trace(self, policy):
        # Every access in one set is the kernel's worst case: one column,
        # one row per access.  It still replays exactly, never declines.
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 24, size=20_000) * 64
        config = CacheConfig(num_sets=64, ways=8, policy=policy, seed=1)
        ref = SetAssociativeCache(config)
        ker = SetAssociativeCache(config)
        r = ref._simulate_reference(lines).hits
        k = _kernels.kernel_simulate(ker, lines)
        assert k is not None
        assert np.array_equal(r, k)
        _assert_same_state(ref, ker, policy)
        # Left to dispatch, the RRIP policies send it to the reference
        # loop, and the counters perfbench reads say so.
        with obs.recording(fresh=True):
            auto = SetAssociativeCache(config).simulate(lines).hits
            counters = obs_metrics.registry.snapshot()
        path = "kernel" if policy == "lru" else "reference"
        assert counters[f"cache.{path}_batches"]["value"] == 1
        assert np.array_equal(auto, r)


class TestWideTags:
    """Compressed tags (``line // num_sets``) must never alias.

    The kernel narrows tags to the smallest integer type that holds
    them; two lines whose tags differ by a multiple of 2**16 or 2**32
    would look equal after a too-narrow cast.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    def test_tags_past_int32_range(self, policy):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 128 * 64, size=10_000)
        lines = np.empty(20_000, dtype=np.int64)
        lines[0::2] = x
        lines[1::2] = x + 2**32 * 128
        config = CacheConfig(num_sets=128, ways=8, policy=policy)
        ref, ker, outs = _both(config, lines)
        for r, k, _, _ in outs:
            assert np.array_equal(r, k)
        _assert_same_state(ref, ker, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_wide_state_tags_meet_narrow_batch(self, policy):
        # The first batch leaves tags past int16 in the cache; the second
        # batch alone would fit int16, and its tags equal the first's
        # modulo 2**16.
        small = np.arange(20_000, dtype=np.int64) % 512
        lines = np.concatenate((small[:2000] + 2**16 * 128, small))
        config = CacheConfig(num_sets=128, ways=8, policy=policy)
        ref, ker, outs = _both(config, lines, cuts=[0, 2000, 22_000])
        for r, k, _, _ in outs:
            assert np.array_equal(r, k)
        _assert_same_state(ref, ker, policy)


class TestBatchMemory:
    """One replay's heap peak stays a small constant per access.

    Every n-length temporary of the grouping, dedup and ragged passes is
    narrow (int16/int32 tags and positions, bool masks) and freed after
    its last use; the int64 sort order is narrowed right after the sort.
    The bound catches int64 copies per access: keeping the sort order,
    a dedup index, run lengths and draw words as int64 takes 50-54
    B/access on this batch.
    """

    #: Heap peak per access of one one-cache ``kernel_replay``, its hit bits included.
    PEAK_BYTES_PER_ACCESS = 30

    @pytest.mark.parametrize("policy", ["lru", "srrip", "drrip"])
    def test_replay_peak_per_access(self, policy):
        rng = np.random.default_rng(7)
        n = 500_000
        # Random lines over 128 sets with short same-line runs, as in an
        # interleaved SpMV trace: nearly every run head is its own line.
        heads = rng.integers(0, 1 << 20, n)
        lines = np.repeat(heads, rng.integers(1, 3, n))[:n]
        config = CacheConfig(num_sets=128, ways=8, policy=policy)
        sets = _kernels.set_ids(lines, config.num_sets)
        assert _kernels.use_kernel(config, lines, sets)
        cache = SetAssociativeCache(config)
        tracemalloc.start()
        try:
            _kernels.kernel_replay([cache], lines, sets, (0, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES_PER_ACCESS * n, peak / n
