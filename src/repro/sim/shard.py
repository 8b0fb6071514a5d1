"""Set-sharded cache simulation: N workers, one disjoint set range each.

A set-associative cache is embarrassingly partitionable by set index:
the access at position ``p`` touches exactly one set (``line mod
num_sets``), and with the counter-hash draw stream of PR 6 the BRRIP
bimodal draw for that access is a pure function of ``(seed, p)`` — not
of the hit/miss history of any other set.  So a worker that owns sets
``[lo, hi)`` can replay just the subsequence of accesses landing in its
range (passing their *global* positions to
:meth:`SetAssociativeCache.simulate`) and produce hit bits, occupancy
and draw consumption bit-identical to the single-process replay.

The one cross-set coupling is DRRIP set dueling: follower sets read the
PSEL counter, which leader-set **misses** update.  The resolution
(DESIGN.md §11) is replication, not communication: every worker also
replays all *leader-set* accesses (roles 1/2).  Leader behaviour never
reads PSEL, so each worker reconstructs the exact global PSEL
trajectory independently — the coordinator asserts all workers finish
with identical PSEL.  Hits for a set are taken from its owner only;
the leader replicas exist purely to drive PSEL.

Merge invariants (property-tested in ``tests/test_shard.py``):

- **set-disjointness** — owned ranges are contiguous, ascending and
  partition ``[0, num_sets)``; concatenating the workers' owned-range
  resident lines in shard order equals the reference's set-major
  :meth:`resident_lines` order.
- **draw keying** — draws are consumed by global access position, so a
  worker's sparse subsequence draws the same words the reference draws
  at those positions.
- **merge order** — each worker writes the hit bits of the accesses
  it owns into the segment's hit array at their segment offsets;
  snapshots are cut at global multiples of ``scan_interval`` (the
  coordinator slices incoming chunks so every snapshot boundary falls
  between worker batches).

Routing is decided in one place, :meth:`_ShardWorker.process`: every
worker is handed the *whole* segment and its global start, and computes
its own owned/leader mask, subsequence and global positions.  A worker
that owns every set replays the segment unmasked.  The coordinator
never looks at set indices; it only merges what the workers leave.

``mode="serial"`` calls the workers in-process — the fallback for 1-core
boxes and the differential-testing oracle for the process path.
``mode="process"`` runs the same method in one persistent OS process
per shard (one barrier per routed segment).  Segments travel through
POSIX shared memory, not pipes: the coordinator publishes each segment
and a zeroed hit array *once*, and workers write their owned hits
straight into the shared block — so per-segment transport is one
memcpy plus a few-byte control message each way, and only snapshots
come back over the pipe.  The resource tracker is started before the
workers fork so that they share it: a worker's attach re-registers the
block in the coordinator's tracker (a no-op), and the coordinator's
unlink unregisters it exactly once.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError
from repro.obs import enabled as _obs_enabled
from repro.obs import metrics as _obs_metrics
from repro.sim.cache import CacheConfig, CacheSnapshot, SetAssociativeCache

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["ReplayTotals", "ShardedReplay", "shard_set_ranges"]

_MODES = ("serial", "process")
#: Bytes per access in a shared segment block: int64 line, uint8 hit.
_BLOCK_BYTES = 9


def shard_set_ranges(num_sets: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, ascending set ranges ``[lo, hi)`` partitioning the cache.

    ``num_shards > num_sets`` is legal: trailing shards own empty ranges
    and simply idle (they still replicate DRRIP leaders).
    """
    if num_shards <= 0:
        raise SimulationError(f"num_shards must be positive, got {num_shards}")
    bounds = [i * num_sets // num_shards for i in range(num_shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(num_shards)]


def _replicates_leaders(config: CacheConfig) -> bool:
    """Whether every shard must also replay the DRRIP leader sets."""
    return config.policy == "drrip" and config.num_sets >= 2


@dataclass
class ReplayTotals:
    """Merged final state of one replay (:meth:`ShardedReplay.finish`)."""

    psel: int
    #: Accesses each shard replayed: owned plus replicated leader accesses.
    shard_accesses: list[int]
    #: Each shard's lifetime access position (next draw key) at the end.
    shard_access_pos: list[int]
    #: Merged resident lines in set-major order.
    resident_lines: np.ndarray = field(repr=False)


class _ShardWorker:
    """One shard's state: a full-geometry cache fed its share of each segment.

    The cache has the *full* configured geometry so set indexing, leader
    roles and draw keying are identical to the reference; only the owned
    sets (plus replicated leader sets under DRRIP) ever hold lines.
    """

    def __init__(self, config: CacheConfig, lo: int, hi: int) -> None:
        self.cache = SetAssociativeCache(config)
        self.lo = lo
        self.hi = hi
        self.replayed = 0
        self._owns_all = lo == 0 and hi == config.num_sets
        self._leader_by_set = (
            np.asarray(self.cache._role, dtype=np.int64) != 0
            if _replicates_leaders(config)
            else None
        )

    def process(
        self,
        seg: np.ndarray,
        seg_start: int,
        hits_out: np.ndarray,
        want_snapshot: bool,
    ) -> np.ndarray:
        """Replay this shard's share of ``seg`` (global positions from ``seg_start``).

        Writes the hit bits of the accesses this shard owns into
        ``hits_out`` (the segment-length hit array every shard shares;
        the other shards own the rest) and returns the owned sets'
        resident lines if ``want_snapshot``, else an empty array.
        """
        if self._owns_all:
            hits_out[:] = self.cache.simulate(seg).hits
            self.replayed += seg.shape[0]
        else:
            set_idx = seg % self.cache.config.num_sets
            owned = (set_idx >= self.lo) & (set_idx < self.hi)
            sent = owned if self._leader_by_set is None else owned | self._leader_by_set[set_idx]
            sent_at = np.flatnonzero(sent)
            positions = sent_at + np.int64(seg_start)
            hits = self.cache.simulate(seg[sent_at], positions=positions).hits
            owned_in_sent = owned[sent_at]
            hits_out[sent_at[owned_in_sent]] = hits[owned_in_sent]
            self.replayed += sent_at.shape[0]
        if not want_snapshot:
            return np.zeros(0, dtype=np.int64)
        return self.cache.resident_lines((self.lo, self.hi))

    def finish(self) -> tuple[np.ndarray, int, int, int]:
        return (
            self.cache.resident_lines((self.lo, self.hi)),
            self.cache._psel,
            self.cache._access_pos,
            self.replayed,
        )


def _segment_views(
    shm: shared_memory.SharedMemory, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lines, hits)`` arrays laid out in one shared segment block."""
    lines = np.ndarray((length,), dtype=np.int64, buffer=shm.buf)
    hits = np.ndarray((length,), dtype=np.uint8, buffer=shm.buf, offset=8 * length)
    return lines, hits


def _worker_main(conn: "Connection", config: CacheConfig, lo: int, hi: int) -> None:
    """Worker loop: replay each shared segment, leave owned hits in the block."""
    worker = _ShardWorker(config, lo, hi)
    while True:
        msg = conn.recv()
        if msg[0] == "seg":
            _, name, length, seg_start, want_snapshot = msg
            shm = shared_memory.SharedMemory(name=name)
            seg, hits = _segment_views(shm, length)
            try:
                snap = worker.process(seg, seg_start, hits, want_snapshot)
            finally:
                del seg, hits  # the block cannot close while views exist
                shm.close()
            conn.send(snap)
        else:
            conn.send(worker.finish())
            conn.close()
            return


class _ProcessShard:
    """Coordinator-side handle for one worker process."""

    def __init__(self, config: CacheConfig, lo: int, hi: int, index: int) -> None:
        ctx = mp.get_context()
        self.index = index
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child, config, lo, hi), daemon=True)
        self.proc.start()
        child.close()

    def send(self, msg: "tuple[object, ...]") -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise self._died() from exc

    def recv(self) -> Any:
        try:
            return self.conn.recv()
        except (EOFError, ConnectionResetError) as exc:
            raise self._died() from exc

    def _died(self) -> SimulationError:
        self.proc.join(timeout=5)
        return SimulationError(
            f"shard worker {self.index} (pid {self.proc.pid}) died "
            f"with exit code {self.proc.exitcode}"
        )

    def terminate(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5)


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


class ShardedReplay:
    """Incremental set-sharded replay of one access stream.

    :meth:`feed` takes the stream's line chunks in program order and
    returns each chunk's hit bits at once, so a caller can attribute
    them and drop the chunk; resident-line snapshots accumulate in
    :attr:`snapshots` at every global ``scan_interval`` multiple;
    :meth:`finish` collects the workers' final state.  Use it as a
    context manager: leaving the block reaps process workers on every
    exit path.
    """

    def __init__(
        self,
        config: CacheConfig,
        *,
        num_shards: int = 1,
        scan_interval: int = 0,
        mode: str = "serial",
    ) -> None:
        if mode not in _MODES:
            raise SimulationError(f"mode must be one of {_MODES}, got {mode!r}")
        self._config = config
        self._scan_interval = scan_interval
        self.ranges = shard_set_ranges(config.num_sets, num_shards)
        # Exactly one of the two lists is non-empty.
        self._serial: list[_ShardWorker] = []
        self._procs: list[_ProcessShard] = []
        if mode == "process":
            # Workers must inherit the coordinator's tracker, not start
            # their own (see the module docstring).
            resource_tracker.ensure_running()
            self._procs = [
                _ProcessShard(config, lo, hi, i) for i, (lo, hi) in enumerate(self.ranges)
            ]
        else:
            self._serial = [_ShardWorker(config, lo, hi) for lo, hi in self.ranges]
        self.snapshots: list[CacheSnapshot] = []
        self._position = 0

    def __enter__(self) -> "ShardedReplay":
        return self

    def __exit__(self, *exc_info: object) -> None:
        for w in self._procs:
            w.terminate()

    def feed(self, chunk: np.ndarray) -> np.ndarray:
        """Replay the next chunk of the stream; returns its hit bits."""
        arr = np.asarray(chunk, dtype=np.int64)
        if not arr.shape[0]:
            return np.zeros(0, dtype=np.uint8)
        scan = self._scan_interval
        cuts = _segment_bounds(arr.shape[0], self._position, scan)
        hits = [
            self._route(
                arr[lo:hi],
                self._position + lo,
                bool(scan and (self._position + hi) % scan == 0),
            )
            for lo, hi in zip(cuts, cuts[1:])
        ]
        self._position += arr.shape[0]
        return hits[0] if len(hits) == 1 else np.concatenate(hits)

    def _route(self, seg: np.ndarray, seg_start: int, want_snapshot: bool) -> np.ndarray:
        """Hand ``seg`` to every worker; merge their hit bits and snapshots."""
        if _obs_enabled():
            _obs_metrics.registry.counter("sim.shard.chunks_routed").inc(len(self.ranges))
        if self._procs:
            seg_hits, snaps = self._publish(seg, seg_start, want_snapshot)
        else:
            seg_hits = np.zeros(seg.shape[0], dtype=np.uint8)
            snaps = [w.process(seg, seg_start, seg_hits, want_snapshot) for w in self._serial]
        if want_snapshot:
            self.snapshots.append(CacheSnapshot(seg_start + seg.shape[0], np.concatenate(snaps)))
        return seg_hits

    def _publish(
        self, seg: np.ndarray, seg_start: int, want_snapshot: bool
    ) -> "tuple[np.ndarray, list[np.ndarray]]":
        """Publish the segment once in shared memory; workers fill in the hits."""
        length = seg.shape[0]
        shm = shared_memory.SharedMemory(create=True, size=_BLOCK_BYTES * length)
        lines, hits = _segment_views(shm, length)
        try:
            lines[:] = seg
            hits[:] = 0
            for w in self._procs:
                w.send(("seg", shm.name, length, seg_start, want_snapshot))
            if _obs_enabled():
                _obs_metrics.registry.counter("sim.shard.barrier_waits").inc()
            snaps = [w.recv() for w in self._procs]
            return hits.copy(), snaps
        finally:
            del lines, hits  # the block cannot close while views exist
            shm.close()
            shm.unlink()

    def finish(self) -> ReplayTotals:
        """Stop the workers and merge their final state.

        Raises :class:`SimulationError` if DRRIP shards end with
        different PSEL values (broken leader replication).
        """
        if self._procs:
            for w in self._procs:
                w.send(("finish",))
            finals = [w.recv() for w in self._procs]
            for w in self._procs:
                w.proc.join(timeout=30)
        else:
            finals = [w.finish() for w in self._serial]

        psels = [int(f[1]) for f in finals]
        if _replicates_leaders(self._config):
            if len(set(psels)) != 1:
                raise SimulationError(
                    f"DRRIP PSEL diverged across shards: {psels} — leader replication broken"
                )
            merged_psel = psels[0]
        elif self._config.policy == "drrip":
            # num_sets == 1 all-SRRIP-leader fallback: the (single) shard
            # owning set 0 holds the whole PSEL trajectory.
            owner = next(i for i, (lo, hi) in enumerate(self.ranges) if hi > lo)
            merged_psel = psels[owner]
        else:
            merged_psel = psels[0]
        return ReplayTotals(
            psel=merged_psel,
            shard_accesses=[int(f[3]) for f in finals],
            shard_access_pos=[int(f[2]) for f in finals],
            resident_lines=np.concatenate([f[0] for f in finals]),
        )
