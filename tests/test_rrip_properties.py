"""Property tests for the BRRIP/DRRIP reference simulator paths.

PR 2's kernel tests compare the vectorized kernels against the reference
loop, but LRU/SRRIP dominated its coverage and both sides share the
repo's implementation.  Here the reference loop is checked against an
*independent* brute-force RRIP oracle written straight from the DRRIP
paper [Jaleel et al., ISCA'10]: per-set (tag, rrpv) pair lists, linear
victim scan, explicit aging, and a plainly-coded set-dueling PSEL.

The bimodal draw stream is likewise re-implemented from its written
specification (the splitmix64 counter-hash documented in
``repro.sim._draws``) rather than imported, so a draw bug would have to
be a shared misreading of the spec.  Draws are keyed by *access
position* — the oracle's lifetime access counter — never by miss rank,
and never from a finite recycled pool; the long-trace cases below run
past the old 2**16 pool size to pin that wraparound bugs cannot return.

Alongside bit-exactness, the oracle asserts the DRRIP structural
invariants on every access: the dueling counter stays saturated inside
``[0, PSEL_MAX]``, leaders update it in the right direction, followers
never touch it, and the SRRIP/BRRIP leader sets are disjoint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import _kernels
from repro.sim.cache import (
    _DUEL_PERIOD,
    _PSEL_INIT,
    _PSEL_MAX,
    _RRPV_MAX,
    CacheConfig,
    SetAssociativeCache,
)

_MASK64 = (1 << 64) - 1


def _oracle_mix(z: int) -> int:
    """splitmix64 finalizer, written independently from the draw spec."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _oracle_long_draw(seed: int, pos: int) -> bool:
    """Draw for access position ``pos``: long insert with probability 1/32.

    Per the spec: key = mix((seed+1)*GAMMA); word = mix(key + pos*GAMMA);
    long iff the 64-bit word falls in the lowest 1/32 of the space.
    """
    gamma = 0x9E3779B97F4A7C15
    key = _oracle_mix(((seed + 1) * gamma) & _MASK64)
    word = _oracle_mix((key + (pos * gamma)) & _MASK64)
    return word < (1 << 59)


def _leader_roles(num_sets: int, policy: str) -> list:
    """Set-dueling role layout (0 follower, 1 SRRIP leader, 2 BRRIP)."""
    roles = [0] * num_sets
    for s in range(0, num_sets, _DUEL_PERIOD):
        roles[s] = 1
        if s + 1 < num_sets:
            roles[s + 1] = 2
    if num_sets < 2 and policy == "drrip":
        roles = [1] * num_sets
    return roles


class RRIPOracle:
    """Brute-force RRIP simulator: one (tag, rrpv) pair list per set.

    Deliberately structured differently from the repo implementation
    (pair lists and linear scans instead of parallel tag/rrpv lists,
    scalar pure-Python draw hashing instead of vectorized NumPy), so a
    shared bug would have to be a shared misreading of the paper.
    """

    def __init__(self, num_sets: int, ways: int, policy: str, seed: int) -> None:
        assert policy in ("srrip", "brrip", "drrip")
        self.num_sets = num_sets
        self.policy = policy
        self.sets = [
            [[-1, _RRPV_MAX] for _ in range(ways)] for _ in range(num_sets)
        ]
        self.psel = _PSEL_INIT
        self.psel_seen = [self.psel]
        self.seed = seed
        self.pos = 0  # lifetime access counter: keys the bimodal draws
        self.roles = _leader_roles(num_sets, policy)

    def _insertion_uses_brrip(self, set_index: int) -> bool:
        if self.policy == "srrip":
            return False
        if self.policy == "brrip":
            return True
        role = self.roles[set_index]
        if role == 1:  # SRRIP leader: a miss here is a vote against SRRIP
            self.psel = min(_PSEL_MAX, self.psel + 1)
            self.psel_seen.append(self.psel)
            return False
        if role == 2:  # BRRIP leader
            self.psel = max(0, self.psel - 1)
            self.psel_seen.append(self.psel)
            return True
        return self.psel >= _PSEL_INIT

    def access(self, line: int) -> bool:
        pos = self.pos
        self.pos += 1
        ways = self.sets[line % self.num_sets]
        for entry in ways:
            if entry[0] == line:
                entry[1] = 0
                return True
        # Victim: first way at RRPV max, aging everything until found.
        while all(entry[1] < _RRPV_MAX for entry in ways):
            for entry in ways:
                entry[1] += 1
        victim = next(entry for entry in ways if entry[1] == _RRPV_MAX)
        if self._insertion_uses_brrip(line % self.num_sets):
            # Keyed by this access's position — a hit elsewhere in the
            # trace can never shift this decision (no miss-rank coupling).
            long = _oracle_long_draw(self.seed, pos)
            insert = _RRPV_MAX - 1 if long else _RRPV_MAX
        else:
            insert = _RRPV_MAX - 1
        victim[0] = line
        victim[1] = insert
        return False

    def simulate(self, lines: np.ndarray) -> np.ndarray:
        return np.asarray([self.access(int(line)) for line in lines], dtype=np.uint8)


geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8, 33, 64]),  # num_sets (33: ragged duel period)
    st.sampled_from([1, 2, 3, 4, 8]),  # ways
)

# Long-trace geometries are shrunk so the pure-Python oracle stays fast
# while every access still lands in a tiny, heavily-reused set — the
# regime where recycled draws corrupted insertions before the re-key.
long_geometries = st.sampled_from([(1, 2), (2, 2), (4, 1)])


def _random_trace(rng: np.random.Generator, n: int, space: int, skew: bool) -> np.ndarray:
    if skew:
        return ((rng.zipf(1.4, size=n) - 1) % space).astype(np.int64)
    return rng.integers(0, space, size=n, dtype=np.int64)


class TestOracleEquivalence:
    @settings(max_examples=220, deadline=None)
    @given(
        policy=st.sampled_from(["brrip", "drrip"]),
        geom=geometries,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=512),
        skew=st.booleans(),
    )
    def test_reference_matches_oracle(self, policy, geom, seed, n, skew):
        num_sets, ways = geom
        rng = np.random.default_rng(seed)
        lines = _random_trace(rng, n, max(2, num_sets * ways * 4), skew)
        config = CacheConfig(
            num_sets=num_sets, ways=ways, policy=policy, seed=seed % 11
        )
        cache = SetAssociativeCache(config)
        oracle = RRIPOracle(num_sets, ways, policy, seed=seed % 11)
        # Degenerate DRRIP geometries collapse to SRRIP in the repo
        # implementation; mirror the collapse via the role layout only.
        result = cache._simulate_reference(lines)
        oracle_hits = oracle.simulate(lines)
        assert np.array_equal(result.hits, oracle_hits)
        assert int(result.hits.sum()) == int(oracle_hits.sum())
        assert cache._psel == oracle.psel
        assert cache._access_pos == oracle.pos == n

    @settings(max_examples=8, deadline=None)
    @given(
        policy=st.sampled_from(["brrip", "drrip"]),
        geom=long_geometries,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=(1 << 16) + 1, max_value=(1 << 16) + 8192),
    )
    def test_long_traces_match_oracle_past_old_pool(self, policy, geom, seed, n):
        """Traces longer than the retired 2**16 draw pool stay bit-exact.

        Under the old miss-rank pool these traces wrapped the draw
        cursor and silently recycled insertion decisions; the position
        hash has no pool to wrap, and reference, kernel and oracle must
        agree access-for-access all the way through.
        """
        num_sets, ways = geom
        rng = np.random.default_rng(seed)
        lines = _random_trace(rng, n, max(2, num_sets * ways * 4), skew=False)
        config = CacheConfig(
            num_sets=num_sets, ways=ways, policy=policy, seed=seed % 11
        )
        ref = SetAssociativeCache(config)
        ker = SetAssociativeCache(config)
        oracle = RRIPOracle(num_sets, ways, policy, seed=seed % 11)
        result = ref._simulate_reference(lines)
        forced = _kernels.kernel_simulate(ker, lines)
        oracle_hits = oracle.simulate(lines)
        assert np.array_equal(result.hits, oracle_hits)
        assert np.array_equal(forced, oracle_hits)
        assert ref._psel == ker._psel == oracle.psel
        assert ref._access_pos == ker._access_pos == oracle.pos == n

    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(["brrip", "drrip"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=256),
    )
    def test_scalar_access_matches_oracle(self, policy, seed, n):
        """One-element ``simulate`` calls agree access-by-access."""
        rng = np.random.default_rng(seed)
        config = CacheConfig(num_sets=8, ways=2, policy=policy, seed=seed % 5)
        cache = SetAssociativeCache(config)
        oracle = RRIPOracle(8, 2, policy, seed=seed % 5)
        for line in _random_trace(rng, n, 64, skew=False).tolist():
            assert bool(cache.simulate([line]).hits[0]) == oracle.access(line)
            assert 0 <= cache._psel <= _PSEL_MAX
        assert cache._access_pos == oracle.pos == n

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=32, max_value=512),
    )
    def test_draws_keyed_by_position_not_miss_rank(self, seed, n):
        """A prefix of extra hits must not shift any later draw.

        This is the decoupling property the tentpole re-key buys: under
        the old miss-rank cursor, inserting hit-only accesses before a
        trace left every later draw index unchanged only if they missed.
        Here the *positions* shift, so the draw for a given line changes
        deterministically with its position — and two caches replaying
        the same tail at the same positions always agree, regardless of
        their unrelated miss history.
        """
        rng = np.random.default_rng(seed)
        tail = _random_trace(rng, n, 64, skew=False)
        config = CacheConfig(num_sets=4, ways=2, policy="brrip", seed=3)
        # Cache A warms up with lines it then re-hits (hit-heavy prefix);
        # cache B misses on every prefix access (distinct cold lines).
        # Both reach the tail at the same access position with wildly
        # different miss counts — under miss-rank draws their tail
        # insertions would diverge; under position draws they cannot.
        warm = np.asarray([4, 8] * 16, dtype=np.int64)  # 2 lines, 2 ways
        cold = (np.arange(32, dtype=np.int64) + 100) * 4  # one set, all miss
        a = SetAssociativeCache(config)
        b = SetAssociativeCache(config)
        a._simulate_reference(warm)
        b._simulate_reference(cold)
        assert a._access_pos == b._access_pos == 32
        # Restrict the tail to sets 1-3 so the divergent set-0 contents
        # cannot mask draw disagreements with tag-hit differences.
        tail = tail[tail % 4 != 0]
        ra = a._simulate_reference(tail)
        rb = b._simulate_reference(tail)
        assert np.array_equal(ra.hits, rb.hits)
        assert a._access_pos == b._access_pos


class TestDRRIPInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        geom=geometries,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=512),
        skew=st.booleans(),
    )
    def test_psel_saturation_bounds(self, geom, seed, n, skew):
        """The dueling counter never escapes [0, PSEL_MAX] at any step."""
        num_sets, ways = geom
        rng = np.random.default_rng(seed)
        oracle = RRIPOracle(num_sets, ways, "drrip", seed=0)
        oracle.simulate(_random_trace(rng, n, max(2, num_sets * ways * 4), skew))
        seen = oracle.psel_seen
        assert min(seen) >= 0
        assert max(seen) <= _PSEL_MAX
        assert seen[0] == _PSEL_INIT

    @settings(max_examples=50, deadline=None)
    @given(num_sets=st.sampled_from([1, 2, 4, 32, 33, 64, 96, 100, 256]))
    def test_leader_sets_disjoint_and_bounded(self, num_sets):
        """SRRIP and BRRIP leader sets never overlap, one pair per period."""
        cache = SetAssociativeCache(
            CacheConfig(num_sets=num_sets, ways=2, policy="drrip")
        )
        roles = np.asarray(cache._role)
        srrip_leaders = set(np.flatnonzero(roles == 1).tolist())
        brrip_leaders = set(np.flatnonzero(roles == 2).tolist())
        assert not srrip_leaders & brrip_leaders
        periods = -(-num_sets // _DUEL_PERIOD)  # ceil division
        if num_sets >= 2:
            assert len(srrip_leaders) == periods
            assert len(brrip_leaders) <= periods
            # Followers are the vast majority for realistic geometries.
            assert (roles == 0).sum() == num_sets - len(srrip_leaders) - len(
                brrip_leaders
            )
        else:
            # Degenerate geometry collapses to SRRIP-only behaviour.
            assert srrip_leaders == set(range(num_sets))
            assert not brrip_leaders

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=16, max_value=512),
    )
    def test_follower_misses_never_move_psel(self, seed, n):
        """Role invariant: only leader-set misses vote on the PSEL.

        Traffic confined to follower sets — however much it misses —
        must leave the dueling counter exactly at its initial value, in
        both the oracle and the repo implementation.
        """
        num_sets = 64
        rng = np.random.default_rng(seed)
        cache = SetAssociativeCache(
            CacheConfig(num_sets=num_sets, ways=2, policy="drrip", seed=1)
        )
        roles = np.asarray(cache._role)
        followers = np.flatnonzero(roles == 0)
        sets = rng.choice(followers, size=n)
        lines = sets + num_sets * rng.integers(0, 32, size=n)
        oracle = RRIPOracle(num_sets, 2, "drrip", seed=1)
        result = cache._simulate_reference(lines)
        oracle_hits = oracle.simulate(lines)
        assert np.array_equal(result.hits, oracle_hits)
        assert cache._psel == _PSEL_INIT
        assert oracle.psel == _PSEL_INIT
        assert oracle.psel_seen == [_PSEL_INIT]

    def test_leader_misses_move_psel_directionally(self):
        """SRRIP-leader thrash raises PSEL; BRRIP-leader thrash lowers it."""
        num_sets, ways = 64, 2
        for leader_set, cmp in ((0, "up"), (1, "down")):
            cache = SetAssociativeCache(
                CacheConfig(num_sets=num_sets, ways=ways, policy="drrip", seed=0)
            )
            working = [leader_set + num_sets * i for i in range(4 * ways)]
            cache._simulate_reference(np.asarray(working * 50, dtype=np.int64))
            if cmp == "up":
                assert cache._psel > _PSEL_INIT
            else:
                assert cache._psel < _PSEL_INIT

    def test_leaders_steer_followers(self):
        """A trace that thrashes SRRIP leaders flips followers to BRRIP.

        Deterministic construction: hammer only the SRRIP-leader sets
        with a cyclic working set larger than the set, driving PSEL up
        past the midpoint; a follower insertion must then use the BRRIP
        bimodal throttle — observable as a distant (RRPV max) insertion
        at a position whose draw is known to be short.
        """
        from repro.sim import _draws

        num_sets, ways = 64, 2
        config = CacheConfig(num_sets=num_sets, ways=ways, policy="drrip", seed=0)
        cache = SetAssociativeCache(config)
        leader = 0  # role 1 (SRRIP leader) by construction
        # Cyclic scan of 4*ways distinct lines mapping to the leader set:
        # every access misses under any RRIP variant.
        working = [leader + num_sets * i for i in range(4 * ways)]
        trace = np.asarray(working * 200, dtype=np.int64)
        cache._simulate_reference(trace)
        assert cache._psel > _PSEL_INIT  # SRRIP leaders voted against SRRIP
        # A follower-set miss must now take the BRRIP insertion path:
        # at a position whose draw is short (the ~31/32 case) the line
        # lands at RRPV max, where SRRIP would have inserted at max-1.
        follower = 2  # role 0 by construction (0 -> SRRIP, 1 -> BRRIP)
        assert cache._role[follower] == 0
        while _draws.long_insert(cache._draw_key, cache._access_pos):
            cache.simulate([follower + num_sets * 999])  # burn the rare long draw
        fresh = follower + num_sets * 1000
        assert not cache.simulate([fresh]).hits[0]
        way = cache._tags[follower].index(fresh)
        assert cache._rrpv[follower][way] == _RRPV_MAX

def _oracle_state(oracle: RRIPOracle) -> tuple:
    """Oracle sets as the cache's (tags, rrpv) lists, way for way."""
    tags = [[entry[0] for entry in ways] for ways in oracle.sets]
    rrpv = [[entry[1] for entry in ways] for ways in oracle.sets]
    return tags, rrpv


def _replay_against_oracle(config, batches, paths=None):
    """Feed ``batches`` to one cache and the oracle; compare every batch.

    ``paths`` picks the replay per batch ("kernel" forces
    ``kernel_simulate``, "reference" the reference loop); default is all
    kernel.  Hit bits, PSEL, access position and every set's (tag,
    RRPV) ways must agree after each batch.  Returns the oracle.
    """
    cache = SetAssociativeCache(config)
    oracle = RRIPOracle(config.num_sets, config.ways, config.policy, config.seed)
    for i, lines in enumerate(batches):
        lines = np.asarray(lines, dtype=np.int64)
        path = paths[i] if paths else "kernel"
        if path == "kernel":
            got = _kernels.kernel_simulate(cache, lines)
            assert got is not None
        else:
            got = cache._simulate_reference(lines).hits
        assert np.array_equal(got, oracle.simulate(lines)), (i, path)
        assert cache._psel == oracle.psel, (i, path)
        assert cache._access_pos == oracle.pos, (i, path)
        assert (cache._tags, cache._rrpv) == _oracle_state(oracle), (i, path)
    return oracle


class TestKernelAgainstOracle:
    """The forced kernel's per-set replay, checked against the oracle."""

    @settings(max_examples=20, deadline=None)
    @given(
        policy=st.sampled_from(["srrip", "brrip", "drrip"]),
        hot_set=st.sampled_from([0, 1, 2, 5]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_one_set_takes_most_of_the_batch(self, policy, hot_set, seed):
        # 90%+ of the accesses land in one set (a leader or a follower),
        # so one column runs far past every other.
        num_sets, ways = 8, 4
        rng = np.random.default_rng(seed)
        n = 1500
        lines = rng.integers(0, num_sets * ways * 4, size=n)
        hot = rng.random(n) < 0.92
        lines[hot] = hot_set + num_sets * rng.integers(0, 3 * ways, size=hot.sum())
        assert np.mean(lines % num_sets == hot_set) >= 0.9
        config = CacheConfig(num_sets=num_sets, ways=ways, policy=policy, seed=seed % 5)
        _replay_against_oracle(config, [lines[:700], lines[700:]])

    def test_drrip_psel_pinned_at_each_rail_across_batches(self):
        # Thrashing one leader set drives PSEL to a rail within the first
        # batch; the second batch keeps voting into the clamp while
        # followers read the pinned counter.
        num_sets, ways = 64, 2
        rng = np.random.default_rng(4)
        for leader, rail in ((1, 0), (0, _PSEL_MAX)):
            thrash = leader + num_sets * np.arange(4 * ways)
            batches = []
            for _ in range(2):
                lines = np.tile(thrash, 200)
                follow = rng.random(lines.shape[0]) < 0.3
                lines[follow] = 2 + rng.integers(0, 300, size=follow.sum())
                batches.append(lines)
            config = CacheConfig(num_sets=num_sets, ways=ways, policy="drrip", seed=2)
            oracle = _replay_against_oracle(config, batches)
            assert oracle.psel == rail
            assert oracle.psel_seen.count(rail) > 100

    @settings(max_examples=20, deadline=None)
    @given(
        num_sets=st.sampled_from([2, 3]),
        ways=st.sampled_from([1, 2, 4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_drrip_leaders_only_and_one_follower(self, num_sets, ways, seed):
        # Two sets are both leaders (no follower pass); three sets leave
        # one follower behind them.
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, num_sets * ways * 4, size=1200)
        config = CacheConfig(num_sets=num_sets, ways=ways, policy="drrip", seed=seed % 3)
        _replay_against_oracle(config, [lines[:400], lines[400:]])

    @settings(max_examples=15, deadline=None)
    @given(
        policy=st.sampled_from(["srrip", "brrip", "drrip"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_chained_batches_alternate_paths(self, policy, seed):
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 400, size=2400)
        batches = np.array_split(lines, 6)
        paths = ["kernel", "reference"] * 3
        config = CacheConfig(num_sets=33, ways=3, policy=policy, seed=seed % 7)
        _replay_against_oracle(config, batches, paths)

    @pytest.mark.parametrize("policy", ["srrip", "brrip", "drrip"])
    def test_batch_of_one_run_per_set(self, policy):
        # After a warm-up batch, every set's stream in the next batch is
        # one line repeated: one deduped access per column.
        num_sets, ways = 8, 2
        rng = np.random.default_rng(9)
        warm = rng.integers(0, 200, size=600)
        runs = np.tile(np.arange(num_sets) + num_sets * rng.integers(0, 25, size=num_sets), 40)
        config = CacheConfig(num_sets=num_sets, ways=ways, policy=policy, seed=1)
        _replay_against_oracle(config, [warm, runs, warm])


class TestMultiCacheKernelAgainstOracle:
    """K independent caches of one config replayed in lockstep passes.

    Each round replays every cache that still has a batch as one
    combined kernel batch (one column per (cache, set)), once per batch
    (``kernel_replay``) and once over all rounds (``LockstepReplay``,
    where DRRIP shares each follower pass with the next round's leader
    pass).  Each cache must end every round exactly where its own
    oracle, fed only its own accesses, does.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(["srrip", "brrip", "drrip"]),
        geom=st.tuples(st.sampled_from([1, 2, 8, 33, 64]), st.sampled_from([1, 2, 4, 8])),
        caches=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_group_matches_independent_oracles(self, policy, geom, caches, seed):
        num_sets, ways = geom
        rng = np.random.default_rng(seed)
        config = CacheConfig(num_sets=num_sets, ways=ways, policy=policy, seed=seed % 5)
        per_batch = [SetAssociativeCache(config) for _ in range(caches)]
        pipelined = [SetAssociativeCache(config) for _ in range(caches)]
        oracles = [RRIPOracle(num_sets, ways, policy, config.seed) for _ in range(caches)]
        streams = []
        for k, oracle in enumerate(oracles):
            # Some caches start with PSEL pinned at a rail, so their
            # first leader votes clamp at once.
            oracle.psel = per_batch[k]._psel = pipelined[k]._psel = (
                _PSEL_INIT, 0, _PSEL_MAX
            )[k % 3]
            # Each cache touches only some of its sets (the rest stay
            # empty) and runs out of batches after its own count of
            # rounds; a round may give it no accesses at all.
            used = rng.choice(num_sets, size=int(rng.integers(1, num_sets + 1)), replace=False)
            rounds = int(rng.integers(1, 5))
            streams.append([
                used[rng.integers(0, used.shape[0], size=n)]
                + num_sets * rng.integers(0, 3 * ways, size=n)
                for n in rng.integers(0, 300, size=rounds).tolist()
            ])
        # Combined batches of every round with accesses, and what each
        # cache's oracle gives for them: hits, then its compressed tags.
        batches = []
        for j in range(max(len(s) for s in streams)):
            parts = [s[j] if j < len(s) else s[0][:0] for s in streams]
            bounds = np.concatenate(([0], np.cumsum([p.shape[0] for p in parts])))
            if bounds[-1]:
                hits = np.concatenate([o.simulate(p) for o, p in zip(oracles, parts)])
                tags = np.asarray(
                    [[[line // num_sets if line >= 0 else -1 for line, _ in ways_]
                      for ways_ in o.sets] for o in oracles]
                ).reshape(caches * num_sets, ways)
                batches.append((np.concatenate(parts), bounds, hits, tags))

        replay = _kernels.LockstepReplay(pipelined)
        completed = []
        for lines, bounds, want, _ in batches:
            sets = _kernels.set_ids(lines, num_sets, bounds)
            got = _kernels.kernel_replay(per_batch, lines, sets, bounds)
            assert np.array_equal(got, want)
            completed += replay.kernel(lines, sets, bounds)
        completed += replay.finish()
        assert len(completed) == len(batches)
        for (hits, tags), (_, _, want, want_tags) in zip(completed, batches):
            assert np.array_equal(hits, want)
            assert np.array_equal(tags, want_tags)
        for group in (per_batch, pipelined):
            for cache, oracle in zip(group, oracles):
                assert (cache._tags, cache._rrpv) == _oracle_state(oracle)
                assert cache._psel == oracle.psel
                assert cache._access_pos == oracle.pos
