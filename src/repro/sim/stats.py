"""Per-access attribution of simulation outcomes to vertices.

The paper's per-degree analyses need two different attributions of each
random access (DESIGN.md §6):

* by the vertex *whose data is accessed* (``u`` in Algorithm 1) — used
  by Table III ("misses for accessing data of vertices with degree >
  M"), where the relevant degree is how often ``u``'s data is read,
  i.e. its out-degree in a pull traversal;
* by the vertex *being processed* (``v``) — used by the Figure 1 miss
  rate distributions, where processing a high-in-degree vertex requires
  many random reads.

Both attributions are computed chunk by chunk while the simulator
replays the trace (:func:`repro.sim.simulator.simulate_spmv`), so a
simulation result keeps O(V) counters instead of the O(accesses) trace.
The locality-type classification of Section IV-D reads no hit bit, so
it streams the same trace with no cache replayed
(:func:`repro.sim.simulator.count_locality_types`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.address_space import AddressSpace, Region
from repro.sim.trace import MemoryTrace

__all__ = [
    "LocalityTypeClassifier",
    "LocalityTypeCounts",
    "VertexAccessStats",
]


@dataclass(frozen=True)
class VertexAccessStats:
    """Random-access and miss counts per vertex under one attribution."""

    accesses: np.ndarray
    misses: np.ndarray

    def miss_rate(self) -> np.ndarray:
        """Per-vertex miss rate; NaN where a vertex got no accesses."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.accesses > 0, self.misses / self.accesses, np.nan
            )

    @property
    def total_accesses(self) -> int:
        return int(self.accesses.sum())

    @property
    def total_misses(self) -> int:
        return int(self.misses.sum())


def vertex_counts(
    vertices: np.ndarray, missed: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex ``(accesses, misses)`` of random accesses to ``vertices``.

    ``missed`` flags the accesses that missed.  One integer bincount over
    (vertex, missed) keys yields both counts.
    """
    if vertices.size and vertices.min() < 0:
        raise SimulationError("random access without vertex attribution")
    keys = vertices.astype(np.intp)
    keys *= 2
    keys += missed
    counts = np.bincount(keys, minlength=2 * num_vertices).reshape(-1, 2)
    return counts.sum(axis=1, dtype=np.int64), counts[:, 1].astype(np.int64)


@dataclass(frozen=True)
class LocalityTypeCounts:
    """Reuse-event counts per locality type (see :class:`LocalityTypeClassifier`)."""

    type_i: int
    type_ii: int
    type_iii: int
    type_iv: int
    type_v: int
    cold: int

    @property
    def total_reuses(self) -> int:
        return self.type_i + self.type_ii + self.type_iii + self.type_iv + self.type_v

    def fractions(self) -> dict[str, float]:
        """Each type's share of all reuse events."""
        total = self.total_reuses
        if total == 0:
            return {name: 0.0 for name in ("I", "II", "III", "IV", "V")}
        return {
            "I": self.type_i / total,
            "II": self.type_ii / total,
            "III": self.type_iii / total,
            "IV": self.type_iv / total,
            "V": self.type_v / total,
        }


class LocalityTypeClassifier:
    """Streaming classifier of random-access reuses into types I–V.

    Section IV-D of the paper identifies five patterns of vertex-data
    reuse in a parallel SpMV traversal:

    * **Type I** — spatial reuse *within* one vertex's neighbour list:
      consecutive neighbours of ``v`` share a cache line.
    * **Type II** — temporal reuse across processed vertices: ``v`` and
      a subsequently processed vertex share a neighbour ``u``.
    * **Type III** — spatio-temporal: distinct neighbours of
      subsequently processed vertices land on the same cache line.
    * **Type IV** — like II but across *threads* through the shared cache.
    * **Type V** — like III but across threads.

    RAs target types I-III; IV and V depend on partitioning and
    scheduling.  Every random access to a line touched before is a
    reuse, classified against the most recent access to the same line:

    * another thread — **IV** if it read the same vertex, else **V**;
    * the same processed vertex — **I** (spatial reuse in one list);
    * the same read vertex — **II** (a common neighbour);
    * otherwise — **III** (distinct neighbours sharing a line).

    Feed trace chunks in program order with :meth:`add`.  The last
    accessor ``(thread, processed, read)`` of every line in the random
    region is carried across chunks in three O(V) arrays, so each chunk
    is one stable sort by line plus a shift: an access's predecessor is
    its left neighbour in the sorted chunk, or the carried state for the
    line's first access in the chunk.
    """

    def __init__(
        self, space: AddressSpace, random_region: int = Region.VERTEX_DATA
    ) -> None:
        bases = (
            space.offsets_base,
            space.edges_base,
            space.data_base,
            space.out_base,
            space.end,
        )
        self._first_line = bases[random_region] // space.line_size
        num_lines = bases[random_region + 1] // space.line_size - self._first_line
        self._random_region = random_region
        # Thread -1 marks a line no access has touched yet.  The carry
        # takes the thread-id dtype, widening only if a chunk needs it.
        self._thread = np.full(num_lines, -1, dtype=np.int8)
        self._proc = np.zeros(num_lines, dtype=np.int64)
        self._read = np.zeros(num_lines, dtype=np.int64)
        # I, II, III, IV, V, cold.
        self._counts = np.zeros(6, dtype=np.int64)

    def add(self, trace: MemoryTrace, thread_ids: "np.ndarray | None" = None) -> None:
        """Classify one chunk; ``thread_ids`` is per access (default all 0)."""
        mask = trace.kinds == self._random_region
        lines = trace.lines[mask] - self._first_line
        if not lines.size:
            return
        order = np.argsort(lines, kind="stable")
        lines = lines[order]
        proc = trace.proc_vertex[mask][order]
        read = trace.read_vertex[mask][order]
        if thread_ids is None:
            thread = np.zeros(lines.shape[0], dtype=np.int8)
        else:
            thread = np.asarray(thread_ids)[mask][order]
        if not np.can_cast(thread.dtype, self._thread.dtype):
            self._thread = self._thread.astype(
                np.promote_types(thread.dtype, self._thread.dtype)
            )

        first = np.ones(lines.shape[0], dtype=bool)
        first[1:] = lines[1:] != lines[:-1]
        prev_thread = np.empty(lines.shape[0], dtype=self._thread.dtype)
        prev_proc = np.empty_like(proc)
        prev_read = np.empty_like(read)
        prev_thread[1:], prev_proc[1:], prev_read[1:] = thread[:-1], proc[:-1], read[:-1]
        carried = lines[first]
        prev_thread[first] = self._thread[carried]
        prev_proc[first] = self._proc[carried]
        prev_read[first] = self._read[carried]

        cold = prev_thread < 0
        reuse = ~cold
        same_read = prev_read == read
        cross = reuse & (prev_thread != thread)
        local = reuse & ~cross
        type_i = local & (prev_proc == proc)
        rest = local & ~type_i
        self._counts += np.array(
            [
                np.count_nonzero(type_i),
                np.count_nonzero(rest & same_read),
                np.count_nonzero(rest & ~same_read),
                np.count_nonzero(cross & same_read),
                np.count_nonzero(cross & ~same_read),
                np.count_nonzero(cold),
            ],
            dtype=np.int64,
        )

        last = np.ones(lines.shape[0], dtype=bool)
        last[:-1] = first[1:]
        touched = lines[last]
        self._thread[touched] = thread[last]
        self._proc[touched] = proc[last]
        self._read[touched] = read[last]

    def counts(self) -> LocalityTypeCounts:
        i, ii, iii, iv, v, cold = (int(c) for c in self._counts)
        return LocalityTypeCounts(
            type_i=i, type_ii=ii, type_iii=iii, type_iv=iv, type_v=v, cold=cold
        )
