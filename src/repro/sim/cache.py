"""Set-associative cache simulator.

Modelled after the SimpleScalar cache simulator the paper bases its tool
on (Section V-B), with an implementation of the SRRIP and BRRIP
replacement policies and their set-dueling combination DRRIP
[Jaleel et al., ISCA'10] — the policy of the simulated L3 — plus plain
LRU for comparison and testing.

The simulator is functional (timing-less): it classifies every access of
a pre-generated trace as hit or miss.  Its resident lines can be read
between calls (:meth:`SetAssociativeCache.resident_lines`), which is how
:class:`Replay` — one cache fed a chunked access stream — snapshots them
for the Effective Cache Size metric (Section VI-F).

BRRIP's bimodal insertion decisions come from the per-access counter-hash
stream in :mod:`repro.sim._draws`: the draw for the access at lifetime
position ``p`` is a pure function of ``(seed, p)``, independent of the
hit/miss history, so cache sets are fully decoupled and the vectorized
kernels in :mod:`repro.sim._kernels` can replay every policy bit-exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs import enabled as _obs_enabled
from repro.obs import metrics as _obs_metrics
from repro.sim import _draws
from repro.sim.address_space import VERTEX_DATA_BYTES

__all__ = [
    "CacheConfig",
    "CacheSnapshot",
    "Replay",
    "SetAssociativeCache",
    "replay_group",
]

_POLICIES = ("lru", "srrip", "brrip", "drrip")
_RRPV_MAX = 3  # 2-bit re-reference prediction values
_DUEL_PERIOD = 32  # one SRRIP leader and one BRRIP leader per 32 sets
_PSEL_MAX = 1023
_PSEL_INIT = 512
LINE_SIZE = 64  # bytes per line of the paper's L3
SCALED_WAYS = 8  # associativity of the scaled L3 (DESIGN.md §2)

# After the constants above: the kernels import them from this module.
from repro.sim import _kernels  # noqa: E402


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level.

    ``capacity_bytes = num_sets * ways * line_size``.  The paper's L3 is
    22 MB, 11-way, 64-byte lines with DRRIP; experiment workloads scale
    the geometry down with the graphs (see DESIGN.md).
    """

    num_sets: int
    ways: int
    line_size: int = LINE_SIZE
    policy: str = "drrip"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sets <= 0 or self.ways <= 0:
            raise SimulationError("num_sets and ways must be positive")
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise SimulationError("line_size must be a power of two")
        if self.policy not in _POLICIES:
            raise SimulationError(
                f"unknown policy {self.policy!r}; expected one of {_POLICIES}"
            )

    @property
    def capacity_bytes(self) -> int:
        return self.num_sets * self.ways * self.line_size

    @property
    def num_lines(self) -> int:
        return self.num_sets * self.ways

    @classmethod
    def scaled_for(
        cls, num_vertices: int, *, pressure: float = 0.08, policy: str = "drrip"
    ) -> "CacheConfig":
        """``SCALED_WAYS``-way cache sized to hold ``pressure`` of the
        vertex-data lines.

        The paper's 22 MB L3 holds a few percent of the vertex-data
        working set of its billion-edge graphs; this constructor keeps
        that pressure ratio for scaled-down graphs (DESIGN.md §2).
        """
        if not 0 < pressure:
            raise SimulationError(f"pressure must be positive, got {pressure}")
        data_lines = max(1, num_vertices * VERTEX_DATA_BYTES // LINE_SIZE)
        target_lines = max(SCALED_WAYS, int(data_lines * pressure))
        num_sets = max(
            1, 1 << max(0, int(np.ceil(np.log2(target_lines / SCALED_WAYS))))
        )
        return cls(num_sets=num_sets, ways=SCALED_WAYS, policy=policy)


@dataclass
class CacheSnapshot:
    """Resident lines captured at one scan point (for ECS)."""

    access_index: int
    resident_lines: np.ndarray = field(repr=False)


def _line_ids(lines: "np.ndarray | list[int]") -> np.ndarray:
    """``lines`` as an integer array, keeping an integer array's width."""
    arr = np.asarray(lines)
    return arr if arr.dtype.kind in "iu" else arr.astype(np.int64)


def _segment_bounds(length: int, global_start: int, scan_interval: int) -> list[int]:
    """Split points so every global ``scan_interval`` multiple ends a segment."""
    if not scan_interval:
        return [0, length]
    first = scan_interval - (global_start % scan_interval)
    cuts = [0]
    cuts.extend(range(first, length, scan_interval))
    if cuts[-1] != length:
        cuts.append(length)
    return cuts


class Replay:
    """Incremental replay of one access stream through one cache.

    :meth:`feed` takes the stream's line chunks in program order and
    returns each chunk's hit bits at once, so a caller can attribute
    them and drop the chunk.  Resident-line snapshots accumulate in
    :attr:`snapshots` at every global ``scan_interval`` multiple, so
    they do not depend on how the stream is chunked.
    """

    def __init__(self, config: CacheConfig, *, scan_interval: int = 0) -> None:
        self.cache = SetAssociativeCache(config)
        self.snapshots: list[CacheSnapshot] = []
        self._scan_interval = scan_interval
        self._position = 0

    def feed(self, chunk: np.ndarray) -> np.ndarray:
        """Replay the next chunk of the stream; returns its hit bits.

        The chunk's line ids keep their integer width.
        """
        arr = _line_ids(chunk)
        if not arr.shape[0]:
            return np.zeros(0, dtype=np.uint8)
        scan = self._scan_interval
        cuts = _segment_bounds(arr.shape[0], self._position, scan)
        hits = []
        for lo, hi in zip(cuts, cuts[1:]):
            hits.append(self.cache.simulate(arr[lo:hi]).hits)
            end = self._position + hi
            if scan and end % scan == 0:
                self.snapshots.append(CacheSnapshot(end, self.cache.resident_lines()))
        self._position += arr.shape[0]
        return hits[0] if len(hits) == 1 else np.concatenate(hits)


def replay_group(
    caches: Sequence["SetAssociativeCache"],
    streams: Sequence[np.ndarray],
    scan_intervals: Sequence[int],
) -> list[list[CacheSnapshot]]:
    """Replay K independent caches of one config, each fed its whole stream.

    Cache ``k`` replays ``streams[k]`` exactly as a fresh :class:`Replay`
    with ``scan_intervals[k]`` fed it would, cut at each of its own scan
    multiples.  Batch ``j`` of every stream that has one forms one
    combined batch.  When that batch passes
    :func:`repro.sim._kernels.use_kernel` as a whole, the kernel replays
    all of it in lockstep, one column per (cache, set)
    (:class:`repro.sim._kernels.LockstepReplay`); otherwise each cache
    replays its part on its own.  Each stream is overwritten with its
    hit bits (0/1) as it is replayed, so the group holds nothing per
    access but the streams themselves.  Returns each cache's snapshots,
    one per scan multiple it reached.
    """
    config = caches[0].config
    if any(cache.config != config for cache in caches):
        raise SimulationError("a replay group needs one cache config")
    num_sets = config.num_sets
    cuts = [
        _segment_bounds(stream.shape[0], 0, scan)
        for stream, scan in zip(streams, scan_intervals)
    ]
    snapshots: list[list[CacheSnapshot]] = [[] for _ in caches]
    replay = _kernels.LockstepReplay(caches)
    # Batches fed but not yet completed: their index, parts and bounds.
    fed: deque[tuple[int, list[np.ndarray], np.ndarray]] = deque()
    set_of_row = np.arange(num_sets, dtype=np.int64)[:, None]

    def complete(done: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for hits, tags in done:
            j, parts, bounds = fed.popleft()
            for k, (part, lo, hi) in enumerate(zip(parts, bounds, bounds[1:])):
                if hi == lo:
                    continue
                part[:] = hits[lo:hi]
                end = cuts[k][j + 1]
                if scan_intervals[k] and end % scan_intervals[k] == 0:
                    # Cache k's resident lines, set-major as resident_lines().
                    rows = tags[k * num_sets : (k + 1) * num_sets].astype(np.int64)
                    lines = rows * num_sets + set_of_row
                    snapshots[k].append(CacheSnapshot(end, lines[rows >= 0]))

    for j in range(max((len(c) - 1 for c in cuts), default=0)):
        parts = [
            stream[c[j] : c[j + 1]] if j + 1 < len(c) else stream[:0]
            for stream, c in zip(streams, cuts)
        ]
        bounds = np.concatenate(([0], np.cumsum([p.shape[0] for p in parts])))
        lines = np.concatenate(parts)
        sets = _kernels.set_ids(lines, num_sets, bounds)
        fed.append((j, parts, bounds))
        if _kernels.use_kernel(config, lines, sets):
            if _obs_enabled():
                _obs_metrics.registry.counter("cache.accesses").inc(lines.shape[0])
                _obs_metrics.registry.counter("cache.kernel_batches").inc()
            complete(replay.kernel(lines, sets, bounds))
        else:
            complete(replay.reference(lines, bounds))
        del lines, sets
    complete(replay.finish())
    return snapshots


class SetAssociativeCache:
    """Stateful simulated cache; feed it line IDs, read back hit bits."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        num_sets, ways = config.num_sets, config.ways
        self._tags: list[list[int]] = [[-1] * ways for _ in range(num_sets)]
        self._rrpv: list[list[int]] = [[_RRPV_MAX] * ways for _ in range(num_sets)]
        self._psel = _PSEL_INIT
        # Lifetime access position: every access (any policy, hit or
        # miss) advances it by one, and the BRRIP bimodal draw for the
        # access at position p is the pure function _draws.long_insert
        # (_draw_key, p) — no finite pool, no consumption cursor.
        self._access_pos = 0
        self._draw_key = _draws.draw_key(config.seed)
        # Leader-set roles for DRRIP set dueling: 0 follower, 1 SRRIP
        # leader, 2 BRRIP leader.
        self._role = [0] * num_sets
        for s in range(0, num_sets, _DUEL_PERIOD):
            self._role[s] = 1
            if s + 1 < num_sets:
                self._role[s + 1] = 2
        if num_sets < 2 and config.policy == "drrip":
            # Degenerate geometry: fall back to SRRIP behaviour.
            self._role = [1] * num_sets

    def resident_lines(self) -> np.ndarray:
        """IDs of currently resident lines (set-major order, no invalids)."""
        flat = [t for ways in self._tags for t in ways if t >= 0]
        return np.asarray(flat, dtype=np.int64)

    # -- bulk simulation -------------------------------------------------------

    def simulate(self, lines: np.ndarray) -> "SimulatedAccesses":
        """Run the trace through the cache, mutating its state.

        ``lines`` are line IDs in program order, of any integer width
        (both paths narrow their tags themselves).  The batch alone
        picks the implementation (:func:`repro.sim._kernels.use_kernel`):
        the vectorized kernel when it is applicable and likely faster,
        the per-access reference loop otherwise.  Both are bit-exact.
        """
        lines = _line_ids(lines)
        # One guarded per-batch increment; the per-access loops below
        # stay uninstrumented so the disabled path is untouched.
        if _obs_enabled():
            _obs_metrics.registry.counter("cache.accesses").inc(lines.shape[0])
        sets = _kernels.set_ids(lines, self.config.num_sets)
        if _kernels.use_kernel(self.config, lines, sets):
            if _obs_enabled():
                _obs_metrics.registry.counter("cache.kernel_batches").inc()
            return SimulatedAccesses(
                hits=_kernels.kernel_replay([self], lines, sets, (0, lines.shape[0]))
            )
        if _obs_enabled():
            _obs_metrics.registry.counter("cache.reference_batches").inc()
        return self._simulate_reference(lines)

    def _simulate_reference(self, lines: np.ndarray) -> "SimulatedAccesses":
        """The original per-access loop — kept as the bit-exact oracle."""
        num_accesses = lines.shape[0]
        hits = np.zeros(num_accesses, dtype=np.uint8)
        policy = self.config.policy
        num_sets = self.config.num_sets
        tags = self._tags
        rrpv = self._rrpv
        role = self._role
        psel = self._psel
        lines_list = lines.tolist()

        if policy == "lru":
            for i, line in enumerate(lines_list):  # repro-lint: disable=RL003
                s = line % num_sets
                ts = tags[s]
                if line in ts:
                    ts.remove(line)
                    ts.append(line)
                    hits[i] = 1
                else:
                    del ts[0]
                    ts.append(line)
        else:
            srrip_only = policy == "srrip"
            brrip_only = policy == "brrip"
            # Per-access draws for this batch, precomputed with the same
            # vectorized hash the kernels use.  SRRIP never reads them.
            long_ins: list[bool] = (
                []
                if srrip_only
                else _draws.long_inserts(
                    self._draw_key, self._access_pos, num_accesses
                ).tolist()
            )
            for i, line in enumerate(lines_list):  # repro-lint: disable=RL003
                s = line % num_sets
                ts = tags[s]
                if line in ts:
                    rrpv[s][ts.index(line)] = 0
                    hits[i] = 1
                else:
                    rr = rrpv[s]
                    # Victim search: first way with RRPV == max, aging
                    # every way until one qualifies.
                    while True:
                        if _RRPV_MAX in rr:
                            victim = rr.index(_RRPV_MAX)
                            break
                        for w in range(len(rr)):
                            rr[w] += 1
                    # Insertion policy selection (set dueling for DRRIP).
                    if srrip_only:
                        use_brrip = False
                    elif brrip_only:
                        use_brrip = True
                    else:
                        r = role[s]
                        if r == 1:  # SRRIP leader: its misses vote against it
                            use_brrip = False
                            if psel < _PSEL_MAX:
                                psel += 1
                        elif r == 2:  # BRRIP leader
                            use_brrip = True
                            if psel > 0:
                                psel -= 1
                        else:
                            use_brrip = psel >= _PSEL_INIT
                    if use_brrip:
                        insert = (
                            _RRPV_MAX - 1 if long_ins[i] else _RRPV_MAX
                        )
                    else:
                        insert = _RRPV_MAX - 1
                    ts[victim] = line
                    rr[victim] = insert

        self._psel = psel
        self._access_pos += num_accesses
        return SimulatedAccesses(hits=hits)


@dataclass
class SimulatedAccesses:
    """Result of one :meth:`SetAssociativeCache.simulate` call."""

    hits: np.ndarray

    @property
    def num_accesses(self) -> int:
        return self.hits.shape[0]

    @property
    def num_hits(self) -> int:
        return int(self.hits.sum())

    @property
    def num_misses(self) -> int:
        return self.num_accesses - self.num_hits

    @property
    def miss_rate(self) -> float:
        if self.num_accesses == 0:
            return 0.0
        return self.num_misses / self.num_accesses
