"""Typed (de)serializers for the repo's artifact kinds.

Each stage of the experiment pipeline produces one of a small set of
artifact types, each with a natural on-disk form:

=================  ============================  =========
kind               payload                       format
=================  ============================  =========
``graph``          :class:`~repro.graph.graph.Graph` (CSR+CSC)   raw ``.npz``
``reordered-graph``  same, after an RA's relabeling              raw ``.npz``
``reordering``     :class:`~repro.reorder.base.ReorderResult`    deflated ``.npz``
``simulation``     :class:`StoredSimulation` (O(V) counters)    deflated ``.npz``
``json``           JSON documents (report data, manifests)       ``.json``
=================  ============================  =========

Serializers never write the destination path directly — the store hands
them a temporary file that is atomically renamed into place — and they
only read files whose checksum the store has already verified, so a
load failure here signals corruption and is quarantined by the caller.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import StoreError
from repro.graph.graph import Graph
from repro.graph.io import load_graph_npz, save_graph_npz
from repro.reorder.base import ReorderResult
from repro.sim.address_space import AddressSpace
from repro.sim.cache import CacheSnapshot
from repro.sim.simulator import SimulationConfig, SimulationResult
from repro.sim.stats import LocalityTypeCounts, VertexAccessStats

__all__ = [
    "Serializer",
    "GraphSerializer",
    "ReorderingSerializer",
    "SimulationSerializer",
    "JSONSerializer",
    "StoredSimulation",
    "SERIALIZERS",
    "get_serializer",
    "jsonify",
]


def jsonify(value: Any) -> Any:
    """Convert provenance/metadata values to a JSON-stable form.

    Tuples become lists (JSON has no tuple), numpy scalars become their
    Python equivalents.  Anything else non-JSON raises
    :class:`~repro.errors.StoreError` so uncacheable payloads fail
    loudly at *write* time instead of producing artifacts that cannot
    round-trip.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    raise StoreError(
        f"value of type {type(value).__name__} is not JSON-serializable: {value!r}"
    )


class Serializer:
    """Save/load one artifact kind; subclasses set ``kind``/``extension``."""

    kind: str = ""
    extension: str = ""
    #: Whether ``load`` accepts ``mmap_mode="r"`` (memory-mapped rehydration).
    supports_mmap: bool = False

    def save(self, obj: Any, path: Path) -> None:
        raise NotImplementedError

    def load(self, path: Path) -> Any:
        raise NotImplementedError


class GraphSerializer(Serializer):
    """CSR+CSC graphs as uncompressed ``.npz`` (exact integer round-trip).

    Every graph is stored raw: a heap load reads the arrays without
    inflating them, and ``load(path, mmap_mode="r")`` can memory-map the
    CSR/CSC arrays of any graph (one shared page-cached copy across
    processes) — see :func:`repro.graph.io.save_graph_npz`.
    """

    kind = "graph"
    extension = ".npz"
    supports_mmap = True

    def save(self, obj: Any, path: Path) -> None:
        if not isinstance(obj, Graph):
            raise StoreError(f"graph serializer got {type(obj).__name__}")
        save_graph_npz(obj, path)

    def load(self, path: Path, *, mmap_mode: "str | None" = None) -> Graph:
        return load_graph_npz(path, mmap_mode=mmap_mode)


class ReorderedGraphSerializer(GraphSerializer):
    kind = "reordered-graph"


class ReorderingSerializer(Serializer):
    """Relabeling array plus the run's measured overheads and details."""

    kind = "reordering"
    extension = ".npz"

    def save(self, obj: Any, path: Path) -> None:
        if not isinstance(obj, ReorderResult):
            raise StoreError(f"reordering serializer got {type(obj).__name__}")
        meta = {
            "algorithm": obj.algorithm,
            "preprocessing_seconds": obj.preprocessing_seconds,
            "peak_memory_bytes": obj.peak_memory_bytes,
            "details": jsonify(obj.details),
        }
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                relabeling=obj.relabeling,
                meta=np.asarray(json.dumps(meta)),
            )

    def load(self, path: Path) -> ReorderResult:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            if "relabeling" not in data.files or "meta" not in data.files:
                raise StoreError(f"reordering artifact missing arrays: {data.files}")
            relabeling = data["relabeling"]
            meta = json.loads(str(data["meta"]))
        return ReorderResult(
            algorithm=meta["algorithm"],
            relabeling=relabeling,
            preprocessing_seconds=meta["preprocessing_seconds"],
            peak_memory_bytes=meta["peak_memory_bytes"],
            details=meta["details"],
        )


@dataclass
class StoredSimulation:
    """A :class:`SimulationResult` minus its graph and config: O(V + snapshots).

    The graph is itself a stored artifact and the config is re-derived
    deterministically by the pipeline, so the simulation artifact keeps
    only what the simulator produced: per-region access/hit counters,
    per-vertex access/miss counts under both attributions, ECS snapshots
    (flattened with lengths), partition boundaries, TLB misses and the
    locality-type counts when the run classified them.
    """

    region_accesses: np.ndarray
    region_hits: np.ndarray
    read_accesses: np.ndarray
    read_misses: np.ndarray
    proc_accesses: np.ndarray
    proc_misses: np.ndarray
    partition_boundaries: np.ndarray
    snapshot_indices: np.ndarray
    snapshot_lines: np.ndarray
    snapshot_lengths: np.ndarray
    tlb_misses: int
    space_params: dict
    locality_types: "dict | None" = None

    @classmethod
    def from_result(cls, result: SimulationResult) -> "StoredSimulation":
        space = result.space
        snapshots = result.snapshots
        lengths = np.asarray(
            [snap.resident_lines.shape[0] for snap in snapshots], dtype=np.int64
        )
        concat = (
            np.concatenate([snap.resident_lines for snap in snapshots])
            if snapshots
            else np.zeros(0, dtype=np.int64)
        )
        return cls(
            region_accesses=result.region_accesses,
            region_hits=result.region_hits,
            read_accesses=result.read_stats.accesses,
            read_misses=result.read_stats.misses,
            proc_accesses=result.proc_stats.accesses,
            proc_misses=result.proc_stats.misses,
            partition_boundaries=result.partition_boundaries,
            snapshot_indices=np.asarray(
                [snap.access_index for snap in snapshots], dtype=np.int64
            ),
            snapshot_lines=concat,
            snapshot_lengths=lengths,
            tlb_misses=result.tlb_misses,
            space_params={
                "num_vertices": space.num_vertices,
                "num_edges": space.num_edges,
                "line_size": space.line_size,
                "offsets_elem": space.offsets_elem,
                "edges_elem": space.edges_elem,
                "data_elem": space.data_elem,
            },
            locality_types=(
                None if result.locality_types is None else asdict(result.locality_types)
            ),
        )

    def to_result(self, graph: Graph, config: SimulationConfig) -> SimulationResult:
        """Rebuild the full result in the context of its graph/config."""
        snapshots = []
        offset = 0
        for index, length in zip(
            self.snapshot_indices.tolist(), self.snapshot_lengths.tolist()
        ):
            snapshots.append(
                CacheSnapshot(
                    access_index=int(index),
                    resident_lines=self.snapshot_lines[offset : offset + length],
                )
            )
            offset += length
        return SimulationResult(
            graph=graph,
            config=config,
            space=AddressSpace(**self.space_params),
            region_accesses=self.region_accesses,
            region_hits=self.region_hits,
            read_stats=VertexAccessStats(self.read_accesses, self.read_misses),
            proc_stats=VertexAccessStats(self.proc_accesses, self.proc_misses),
            snapshots=snapshots,
            tlb_misses=int(self.tlb_misses),
            partition_boundaries=self.partition_boundaries,
            locality_types=(
                None
                if self.locality_types is None
                else LocalityTypeCounts(**self.locality_types)
            ),
        )


class SimulationSerializer(Serializer):
    kind = "simulation"
    extension = ".npz"

    _ARRAYS = (
        "region_accesses",
        "region_hits",
        "read_accesses",
        "read_misses",
        "proc_accesses",
        "proc_misses",
        "partition_boundaries",
        "snapshot_indices",
        "snapshot_lines",
        "snapshot_lengths",
    )

    def save(self, obj: Any, path: Path) -> None:
        if not isinstance(obj, StoredSimulation):
            raise StoreError(f"simulation serializer got {type(obj).__name__}")
        meta = {
            "tlb_misses": int(obj.tlb_misses),
            "space_params": jsonify(obj.space_params),
            "locality_types": jsonify(obj.locality_types),
        }
        arrays = {name: getattr(obj, name) for name in self._ARRAYS}
        with open(path, "wb") as handle:
            np.savez_compressed(handle, meta=np.asarray(json.dumps(meta)), **arrays)

    def load(self, path: Path) -> StoredSimulation:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            missing = set(self._ARRAYS) - set(data.files)
            if missing or "meta" not in data.files:
                raise StoreError(
                    f"simulation artifact missing arrays: {sorted(missing)}"
                )
            arrays = {name: data[name] for name in self._ARRAYS}
            meta = json.loads(str(data["meta"]))
        return StoredSimulation(
            tlb_misses=int(meta["tlb_misses"]),
            space_params=meta["space_params"],
            locality_types=meta.get("locality_types"),
            **arrays,
        )


class JSONSerializer(Serializer):
    """Structured documents: report data, provenance manifests."""

    kind = "json"
    extension = ".json"

    def save(self, obj: Any, path: Path) -> None:
        path.write_text(
            json.dumps(jsonify(obj), indent=2, sort_keys=False), encoding="utf-8"
        )

    def load(self, path: Path) -> Any:
        return json.loads(path.read_text(encoding="utf-8"))


#: Artifact kind -> serializer instance.
SERIALIZERS: dict = {
    serializer.kind: serializer
    for serializer in (
        GraphSerializer(),
        ReorderedGraphSerializer(),
        ReorderingSerializer(),
        SimulationSerializer(),
        JSONSerializer(),
    )
}


def get_serializer(kind: str) -> Serializer:
    """The serializer registered for ``kind``."""
    try:
        return SERIALIZERS[kind]
    except KeyError:
        raise StoreError(
            f"unknown artifact kind {kind!r}; available: {sorted(SERIALIZERS)}"
        ) from None
