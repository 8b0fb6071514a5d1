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
- **merge order** — hit bits are scattered back to global positions;
  snapshots are cut at global multiples of ``scan_interval`` (the
  coordinator slices incoming chunks so every snapshot boundary falls
  between worker batches).

``mode="process"`` runs each worker in its own OS process (persistent
workers, one barrier per routed segment).  Segments travel through
POSIX shared memory, not pipes: the coordinator publishes each segment
*once* and every worker computes its own ownership mask, subsequence
and global positions from the shared block — so per-segment transport
is one memcpy plus a few-byte control message, instead of pickling
``O(accesses)`` arrays per worker.  Only the small owned-hit bitmaps
come back over the pipe.  ``mode="serial"`` runs the same worker code
in-process, which is both the fallback for 1-core boxes and the
differential-testing oracle for the process path.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import SimulationError
from repro.obs import enabled as _obs_enabled
from repro.obs import metrics as _obs_metrics
from repro.sim.cache import CacheConfig, CacheSnapshot, SetAssociativeCache

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["ShardedReplay", "ShardedSimulation", "shard_set_ranges", "simulate_sharded"]

_MODES = ("serial", "process")


def shard_set_ranges(num_sets: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, ascending set ranges ``[lo, hi)`` partitioning the cache.

    ``num_shards > num_sets`` is legal: trailing shards own empty ranges
    and simply idle (they still replicate DRRIP leaders).
    """
    if num_shards <= 0:
        raise SimulationError(f"num_shards must be positive, got {num_shards}")
    bounds = [i * num_sets // num_shards for i in range(num_shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(num_shards)]


def _leader_sets(config: CacheConfig) -> np.ndarray:
    """Boolean mask over sets: True where the DRRIP role is a leader."""
    cache = SetAssociativeCache(config)
    return np.asarray(cache._role, dtype=np.int64) != 0


@dataclass
class ShardedSimulation:
    """Merged result of one sharded replay (mirrors ``SimulatedAccesses``)."""

    hits: np.ndarray
    snapshots: list[CacheSnapshot]
    num_shards: int
    set_ranges: list[tuple[int, int]]
    shard_accesses: list[int]
    shard_access_pos: list[int]
    psel: int
    resident_lines: np.ndarray = field(repr=False)

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


class _ShardWorker:
    """One shard's state: a full-geometry cache fed a masked subsequence.

    The cache has the *full* configured geometry so set indexing, leader
    roles and draw keying are identical to the reference; only the owned
    sets (plus replicated leader sets under DRRIP) ever hold lines.
    """

    def __init__(self, config: CacheConfig, lo: int, hi: int, kernel: str) -> None:
        self.cache = SetAssociativeCache(config)
        self.lo = lo
        self.hi = hi
        self.kernel = kernel

    def process(
        self,
        chunk: np.ndarray,
        positions: "np.ndarray | None",
        owned_in_sent: "np.ndarray | None",
        want_snapshot: bool,
    ) -> tuple[np.ndarray, "np.ndarray | None"]:
        """Replay ``chunk``; ``None`` positions/mask mean "the whole stream"."""
        if chunk.shape[0]:
            res = self.cache.simulate(chunk, kernel=self.kernel, positions=positions)
            owned_hits = res.hits if owned_in_sent is None else res.hits[owned_in_sent]
        else:
            owned_hits = np.zeros(0, dtype=np.uint8)
        snap = self.cache.resident_lines((self.lo, self.hi)) if want_snapshot else None
        return owned_hits, snap

    def finish(self) -> tuple[np.ndarray, int, int]:
        return (
            self.cache.resident_lines((self.lo, self.hi)),
            self.cache._psel,
            self.cache._access_pos,
        )


def _untrack_shm(shm: shared_memory.SharedMemory) -> None:
    """Detach an *attached* block from this process's resource tracker.

    Until Python 3.13 (``track=False``) every attach registers the block
    with the local resource tracker, which then "cleans up" (unlinks!)
    blocks the coordinator still owns and warns at exit.  Only the
    coordinator, which created the block, may unlink it.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(getattr(shm, "_name", shm.name), "shared_memory")
    except Exception:
        pass


def _worker_main(
    conn: "Connection", config: CacheConfig, lo: int, hi: int, kernel: str
) -> None:
    """Worker loop: mask shared segments locally, replay, return owned hits.

    The mask computation here must stay bit-identical to the
    coordinator's serial-mode routing (``_route``): ownership of set
    ``s`` is the contiguous-range test ``lo <= s < hi``, which matches
    the coordinator's searchsorted-over-lower-bounds exactly (ranges
    partition the set space, so each set passes the test for precisely
    one shard).  The serial/process property tests pin this.
    """
    worker = _ShardWorker(config, lo, hi, kernel)
    num_sets = config.num_sets
    replicate = config.policy == "drrip" and num_sets >= 2
    leader_by_set = (
        np.asarray(worker.cache._role, dtype=np.int64) != 0
        if replicate
        else np.zeros(num_sets, dtype=bool)
    )
    while True:
        msg = conn.recv()
        if msg[0] == "seg":
            _, name, length, seg_start, want_snapshot = msg
            shm = shared_memory.SharedMemory(name=name)
            _untrack_shm(shm)
            try:
                seg = np.ndarray((length,), dtype=np.int64, buffer=shm.buf)
                set_idx = seg % num_sets
                owned = (set_idx >= lo) & (set_idx < hi)
                sent = np.logical_or(owned, leader_by_set[set_idx]) if replicate else owned
                chunk = seg[sent]  # a copy — safe to use after shm.close()
                positions = np.flatnonzero(sent) + np.int64(seg_start)
                owned_in_sent = owned[sent]
                del seg, set_idx, owned, sent
            finally:
                shm.close()
            conn.send(worker.process(chunk, positions, owned_in_sent, want_snapshot))
        else:
            conn.send(worker.finish())
            conn.close()
            return


class _ProcessShard:
    """Coordinator-side handle for one worker process."""

    def __init__(self, config: CacheConfig, lo: int, hi: int, kernel: str) -> None:
        ctx = mp.get_context()
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child, config, lo, hi, kernel), daemon=True
        )
        self.proc.start()
        child.close()

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
    them and drop the chunk; :meth:`finish` collects the workers' final
    state.  Use it as a context manager: leaving the block reaps process
    workers on every exit path.
    """

    def __init__(
        self,
        config: CacheConfig,
        *,
        num_shards: int = 1,
        scan_interval: int = 0,
        mode: str = "serial",
        kernel: str = "auto",
    ) -> None:
        if mode not in _MODES:
            raise SimulationError(f"mode must be one of {_MODES}, got {mode!r}")
        num_sets = config.num_sets
        self._config = config
        self._mode = mode
        self._scan_interval = scan_interval
        self.ranges = shard_set_ranges(num_sets, num_shards)
        self._replicate = config.policy == "drrip" and num_sets >= 2
        self._leader_by_set = (
            _leader_sets(config) if self._replicate else np.zeros(num_sets, dtype=bool)
        )
        # Shard of set s == searchsorted over the ascending lower bounds.
        self._set_lo = np.asarray([r[0] for r in self.ranges], dtype=np.int64)
        shard_type = _ProcessShard if mode == "process" else _ShardWorker
        self._workers = [shard_type(config, lo, hi, kernel) for lo, hi in self.ranges]
        self.snapshots: list[CacheSnapshot] = []
        self.shard_accesses = [0] * num_shards
        self._position = 0

    def __enter__(self) -> "ShardedReplay":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._mode == "process":
            for w in self._workers:
                w.terminate()  # type: ignore[union-attr]

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
        num_shards = len(self._workers)
        length = seg.shape[0]
        seg_hits = np.zeros(length, dtype=np.uint8)
        if _obs_enabled():
            _obs_metrics.registry.counter("sim.shard.chunks_routed").inc(num_shards)

        owned_index: "list[np.ndarray | slice]"
        if self._mode == "serial" and num_shards == 1:
            # One shard owns every set: replay the segment as it is.
            owned_index = [slice(None)]
            sent_counts = [length]
            replies = [self._workers[0].process(seg, None, None, want_snapshot)]  # type: ignore[union-attr]
        else:
            set_idx = seg % self._config.num_sets
            shard_of = np.searchsorted(self._set_lo, set_idx, side="right") - 1
            is_leader = self._leader_by_set[set_idx]
            # Coordinator-side bookkeeping per shard: where each worker's
            # owned hits scatter back to, and how many accesses it replays.
            # One stable sort groups positions by shard (ascending within
            # each group) — O(n log n) once, not O(n) per shard.
            order = np.argsort(shard_of, kind="stable")
            counts = np.bincount(shard_of, minlength=num_shards)
            offsets = np.zeros(num_shards + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            owned_index = [order[offsets[i] : offsets[i + 1]] for i in range(num_shards)]
            if self._replicate:
                # Replayed = owned + leader accesses owned elsewhere.
                leader_total = int(np.count_nonzero(is_leader))
                leaders_of = np.bincount(shard_of[is_leader], minlength=num_shards)
                sent_counts = [
                    int(counts[i]) + leader_total - int(leaders_of[i])
                    for i in range(num_shards)
                ]
            else:
                sent_counts = [int(c) for c in counts]
            if self._mode == "process":
                replies = self._publish(seg, seg_start, want_snapshot)
            else:
                seg_positions = np.arange(seg_start, seg_start + length, dtype=np.int64)
                replies = []
                for i in range(num_shards):
                    owned = shard_of == i
                    sent = np.logical_or(owned, is_leader) if self._replicate else owned
                    replies.append(
                        self._workers[i].process(  # type: ignore[union-attr]
                            seg[sent], seg_positions[sent], owned[sent], want_snapshot
                        )
                    )

        snap_parts: list[np.ndarray] = []
        for i in range(num_shards):
            owned_hits, snap = replies[i]
            seg_hits[owned_index[i]] = owned_hits
            self.shard_accesses[i] += sent_counts[i]
            if want_snapshot:
                snap_parts.append(snap)
        if want_snapshot:
            self.snapshots.append(
                CacheSnapshot(seg_start + length, np.concatenate(snap_parts))
            )
        return seg_hits

    def _publish(self, seg: np.ndarray, seg_start: int, want_snapshot: bool) -> list:
        """Publish the segment once in shared memory; workers mask it themselves."""
        shm = shared_memory.SharedMemory(create=True, size=seg.nbytes)
        try:
            np.ndarray(seg.shape, dtype=np.int64, buffer=shm.buf)[:] = seg
            for w in self._workers:
                w.conn.send(  # type: ignore[union-attr]
                    ("seg", shm.name, seg.shape[0], seg_start, want_snapshot)
                )
            if _obs_enabled():
                _obs_metrics.registry.counter("sim.shard.barrier_waits").inc()
            return [w.conn.recv() for w in self._workers]  # type: ignore[union-attr]
        finally:
            shm.close()
            shm.unlink()

    def finish(self) -> "tuple[int, list[int], np.ndarray]":
        """Stop the workers; returns ``(psel, shard_access_pos, resident_lines)``.

        Raises :class:`SimulationError` if DRRIP shards end with
        different PSEL values (broken leader replication).
        """
        if self._mode == "process":
            for w in self._workers:
                w.conn.send(("finish",))  # type: ignore[union-attr]
            finals = [w.conn.recv() for w in self._workers]  # type: ignore[union-attr]
            for w in self._workers:
                w.proc.join(timeout=30)  # type: ignore[union-attr]
        else:
            finals = [w.finish() for w in self._workers]  # type: ignore[union-attr]

        psels = [int(f[1]) for f in finals]
        if self._replicate:
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
        return (
            merged_psel,
            [int(f[2]) for f in finals],
            np.concatenate([f[0] for f in finals]),
        )


def simulate_sharded(
    chunks: "Iterable[np.ndarray]",
    config: CacheConfig,
    *,
    num_shards: int,
    scan_interval: int = 0,
    mode: str = "serial",
    kernel: str = "auto",
) -> ShardedSimulation:
    """Replay a (possibly streamed) access trace across set-sharded workers.

    Parameters
    ----------
    chunks:
        Iterable of int64 line-ID arrays in program order — a single
        full trace in a one-element list, or a bounded-memory stream.
    num_shards:
        Worker count; any positive value (1 degenerates to a plain
        single-cache replay, values above ``num_sets`` leave trailing
        workers idle).
    mode:
        ``"serial"`` replays shards in-process (oracle / 1-core
        fallback); ``"process"`` uses persistent worker processes.
    """
    with ShardedReplay(
        config,
        num_shards=num_shards,
        scan_interval=scan_interval,
        mode=mode,
        kernel=kernel,
    ) as replay:
        hits = [replay.feed(chunk) for chunk in chunks]
        psel, access_pos, resident = replay.finish()
    return ShardedSimulation(
        hits=np.concatenate(hits) if hits else np.zeros(0, dtype=np.uint8),
        snapshots=replay.snapshots,
        num_shards=num_shards,
        set_ranges=replay.ranges,
        shard_accesses=replay.shard_accesses,
        shard_access_pos=access_pos,
        psel=psel,
        resident_lines=resident,
    )
