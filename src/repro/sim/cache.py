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

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.lint.contracts import declares_effects
from repro.obs import enabled as _obs_enabled
from repro.obs import metrics as _obs_metrics
from repro.sim import _draws, _kernels

__all__ = [
    "CacheConfig",
    "CacheSnapshot",
    "Replay",
    "SetAssociativeCache",
    "count_cold_misses",
]

_POLICIES = ("lru", "srrip", "brrip", "drrip")
_RRPV_MAX = 3  # 2-bit re-reference prediction values
_BRRIP_LONG_PROB = 1.0 / 32.0  # probability BRRIP inserts with rrpv=2
_DUEL_PERIOD = 32  # one SRRIP leader and one BRRIP leader per 32 sets
_PSEL_MAX = 1023
_PSEL_INIT = 512

#: One-shot latch for the kernel-fallback warning (process-wide: the
#: point is to surface the *first* silent fallback, not to spam).
_FALLBACK_WARNED = False


@declares_effects("global-mutate")
def _warn_kernel_fallback(policy: str, mode: str) -> None:
    # Declared carve-out: the latch dedupes a process-local warning;
    # simulation results are already fixed when it flips.
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        f"cache kernel (mode={mode!r}, policy={policy!r}) exhausted its "
        "fixed-point budget and fell back to the reference loop; the "
        "batch pays kernel overhead *plus* the ~1 us/access reference "
        "cost. Counted in the 'sim.kernel_fallback' repro.obs metric; "
        "set REPRO_SIM_KERNEL=reference to skip the attempt.",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level.

    ``capacity_bytes = num_sets * ways * line_size``.  The paper's L3 is
    22 MB, 11-way, 64-byte lines with DRRIP; experiment workloads scale
    the geometry down with the graphs (see DESIGN.md).
    """

    num_sets: int
    ways: int
    line_size: int = 64
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
        cls,
        num_vertices: int,
        *,
        pressure: float = 0.08,
        ways: int = 8,
        line_size: int = 64,
        data_elem: int = 8,
        policy: str = "drrip",
    ) -> "CacheConfig":
        """Cache sized to hold ``pressure`` of the vertex-data lines.

        The paper's 22 MB L3 holds a few percent of the vertex-data
        working set of its billion-edge graphs; this constructor keeps
        that pressure ratio for scaled-down graphs (DESIGN.md §2).
        """
        if not 0 < pressure:
            raise SimulationError(f"pressure must be positive, got {pressure}")
        data_lines = max(1, num_vertices * data_elem // line_size)
        target_lines = max(ways, int(data_lines * pressure))
        num_sets = max(1, 1 << max(0, int(np.ceil(np.log2(target_lines / ways)))))
        return cls(num_sets=num_sets, ways=ways, line_size=line_size, policy=policy)


@dataclass
class CacheSnapshot:
    """Resident lines captured at one scan point (for ECS)."""

    access_index: int
    resident_lines: np.ndarray = field(repr=False)


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
        """Replay the next chunk of the stream; returns its hit bits."""
        arr = np.asarray(chunk, dtype=np.int64)
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

    # -- single-access reference API (tests, incremental use) ----------------

    def access(self, line: int) -> bool:
        """Access one cache line; returns True on hit.

        Scalar fast path: operates on the list state directly instead of
        routing a length-1 ndarray through :meth:`simulate`.
        """
        line = int(line)
        pos = self._access_pos
        self._access_pos = pos + 1
        s = line % self.config.num_sets
        ts = self._tags[s]
        if self.config.policy == "lru":
            if line in ts:
                ts.remove(line)
                ts.append(line)
                return True
            del ts[0]
            ts.append(line)
            return False
        rr = self._rrpv[s]
        if line in ts:
            rr[ts.index(line)] = 0
            return True
        while True:
            if _RRPV_MAX in rr:
                victim = rr.index(_RRPV_MAX)
                break
            for w in range(len(rr)):
                rr[w] += 1
        policy = self.config.policy
        if policy == "srrip":
            use_brrip = False
        elif policy == "brrip":
            use_brrip = True
        else:
            r = self._role[s]
            if r == 1:
                use_brrip = False
                if self._psel < _PSEL_MAX:
                    self._psel += 1
            elif r == 2:
                use_brrip = True
                if self._psel > 0:
                    self._psel -= 1
            else:
                use_brrip = self._psel >= _PSEL_INIT
        if use_brrip:
            long = _draws.long_insert(self._draw_key, pos)
            insert = _RRPV_MAX - 1 if long else _RRPV_MAX
        else:
            insert = _RRPV_MAX - 1
        ts[victim] = line
        rr[victim] = insert
        return False

    def resident_lines(self) -> np.ndarray:
        """IDs of currently resident lines (set-major order, no invalids)."""
        flat = [t for ways in self._tags for t in ways if t >= 0]
        return np.asarray(flat, dtype=np.int64)

    # -- bulk simulation -------------------------------------------------------

    def simulate(self, lines: np.ndarray, *, kernel: str = "auto") -> "SimulatedAccesses":
        """Run the trace through the cache, mutating its state.

        Parameters
        ----------
        lines:
            int64 array of line IDs in program order.
        kernel:
            Dispatch mode: ``"auto"`` (default) picks the vectorized
            kernel path when it is applicable and likely faster,
            ``"kernel"`` forces it whenever structurally possible, and
            ``"reference"`` forces the per-access loop.  The
            ``REPRO_SIM_KERNEL`` environment variable overrides this
            argument (escape hatch); both paths are bit-exact.
        """
        lines = np.asarray(lines, dtype=np.int64)
        # One guarded per-batch increment; the per-access loops below
        # stay uninstrumented so the disabled path is untouched.
        if _obs_enabled():
            _obs_metrics.registry.counter("cache.accesses").inc(lines.shape[0])
        mode = _kernels.kernel_mode(kernel)
        if mode != "reference" and _kernels.kernel_possible(self.config, lines):
            if mode == "kernel" or _kernels.kernel_profitable(self.config, lines):
                hits = _kernels.kernel_simulate(self, lines)
                if hits is not None:
                    if _obs_enabled():
                        _obs_metrics.registry.counter("cache.kernel_batches").inc()
                    return SimulatedAccesses(hits=hits)
                # The kernel attempted the batch and gave up (fixed-point
                # budget); the silent cost is kernel overhead plus the
                # full reference replay below, so make it observable.
                if _obs_enabled():
                    _obs_metrics.registry.counter("sim.kernel_fallback").inc()
                _warn_kernel_fallback(self.config.policy, mode)
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
            for i, line in enumerate(lines_list):
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
            # vectorized hash the kernels use (bit-exact with the scalar
            # access() path by construction).  SRRIP never reads them.
            long_ins: list[bool] = (
                []
                if srrip_only
                else _draws.long_inserts(
                    self._draw_key, self._access_pos, num_accesses
                ).tolist()
            )
            for i, line in enumerate(lines_list):
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


def count_cold_misses(lines: np.ndarray) -> int:
    """Number of distinct lines — the miss count of an infinite cache."""
    lines = np.asarray(lines, dtype=np.int64)
    return int(np.unique(lines).shape[0])
