"""Typed (de)serializers for the repo's artifact kinds.

Each stage of the experiment pipeline produces one of a small set of
artifact types, each with a natural on-disk form:

=================  ============================  =========
kind               payload                       format
=================  ============================  =========
``graph``          :class:`~repro.graph.graph.Graph` (CSR+CSC)   raw ``.npz``
``reordering``     :class:`~repro.reorder.base.ReorderResult`    deflated ``.npz``
``aid``            :class:`~repro.core.aid.VertexAID` (O(V))     deflated ``.npz``
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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.aid import VertexAID
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
    "DataclassSerializer",
    "GraphSerializer",
    "ReorderingSerializer",
    "AIDSerializer",
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

    def save(self, obj: Any, path: Path) -> None:
        raise NotImplementedError

    def load(self, path: Path) -> Any:
        raise NotImplementedError


class GraphSerializer(Serializer):
    """CSR+CSC graphs as uncompressed ``.npz`` (exact integer round-trip).

    Every graph is stored raw, so a load reads the arrays without
    inflating them — see :func:`repro.graph.io.save_graph_npz`.
    """

    kind = "graph"
    extension = ".npz"

    def save(self, obj: Any, path: Path) -> None:
        if not isinstance(obj, Graph):
            raise StoreError(f"graph serializer got {type(obj).__name__}")
        save_graph_npz(obj, path)

    def load(self, path: Path) -> Graph:
        return load_graph_npz(path)


def _narrowed(array: np.ndarray) -> np.ndarray:
    """An integer array in the smallest dtype that holds its values."""
    if array.dtype.kind not in "iu" or array.size == 0:
        return array
    low, high = int(array.min()), int(array.max())
    return array.astype(np.result_type(np.min_scalar_type(low), np.min_scalar_type(high)))


def _widened(array: np.ndarray) -> np.ndarray:
    """:func:`_narrowed` undone: integer arrays back to ``int64``."""
    return array.astype(np.int64, copy=False) if array.dtype.kind in "iu" else array


class DataclassSerializer(Serializer):
    """A dataclass as one deflated ``.npz``: each array field a member,
    every other field in a JSON ``meta`` member.

    Integer arrays are deflated in the narrowest dtype that holds them,
    a fraction of the work of deflating ``int64``, and load back as
    ``int64``, the one integer dtype these payloads hold.
    """

    extension = ".npz"
    payload: type = object

    def save(self, obj: Any, path: Path) -> None:
        if not isinstance(obj, self.payload):
            raise StoreError(f"{self.kind} serializer got {type(obj).__name__}")
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, Any] = {}
        for item in fields(obj):
            value = getattr(obj, item.name)
            if isinstance(value, np.ndarray):
                arrays[item.name] = _narrowed(value)
            else:
                meta[item.name] = jsonify(value)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, meta=np.asarray(json.dumps(meta)), **arrays)

    def load(self, path: Path) -> Any:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {
                name: _widened(data[name]) for name in data.files if name != "meta"
            }
        return self.payload(**arrays, **meta)


class ReorderingSerializer(DataclassSerializer):
    """Relabeling array plus the run's measured overheads and details.

    ``preprocessing_seconds`` and ``peak_memory_bytes`` are measurements
    of the run that computed the artifact, not content: they are the
    only stored values two computations of one key may disagree on.
    Everything else here is a pure function of the key, and
    ``tests/test_determinism.py`` exempts exactly these two fields.
    """

    kind = "reordering"
    payload = ReorderResult


class AIDSerializer(DataclassSerializer):
    """Per-vertex AID and degree arrays, in the reordered ID order."""

    kind = "aid"
    payload = VertexAID


@dataclass
class StoredSimulation:
    """A :class:`SimulationResult` minus its config: O(V + snapshots).

    The config is re-derived deterministically from the stored vertex
    and edge counts, so the simulation artifact keeps only the graph's
    in/out degrees and what the simulator produced: per-region
    access/hit counters, per-vertex access/miss counts under both
    attributions, ECS snapshots (flattened with lengths), partition
    boundaries, TLB misses and the locality-type counts when the run
    classified them.
    """

    in_degrees: np.ndarray
    out_degrees: np.ndarray
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
        snapshots = result.snapshots
        return cls(
            in_degrees=result.in_degrees,
            out_degrees=result.out_degrees,
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
            snapshot_lines=np.concatenate(
                [snap.resident_lines for snap in snapshots]
                or [np.zeros(0, dtype=np.int64)]
            ),
            snapshot_lengths=np.asarray(
                [snap.resident_lines.shape[0] for snap in snapshots], dtype=np.int64
            ),
            tlb_misses=result.tlb_misses,
            space_params=asdict(result.space),
            locality_types=(
                None if result.locality_types is None else asdict(result.locality_types)
            ),
        )

    @property
    def space(self) -> AddressSpace:
        """The address space the run laid its graph out in."""
        return AddressSpace(**self.space_params)

    def to_result(self, config: SimulationConfig) -> SimulationResult:
        """Rebuild the full result under the config the run used."""
        lines = np.split(self.snapshot_lines, np.cumsum(self.snapshot_lengths)[:-1])
        return SimulationResult(
            in_degrees=self.in_degrees,
            out_degrees=self.out_degrees,
            config=config,
            space=self.space,
            region_accesses=self.region_accesses,
            region_hits=self.region_hits,
            read_stats=VertexAccessStats(self.read_accesses, self.read_misses),
            proc_stats=VertexAccessStats(self.proc_accesses, self.proc_misses),
            snapshots=[
                CacheSnapshot(access_index=index, resident_lines=resident)
                for index, resident in zip(self.snapshot_indices.tolist(), lines)
            ],
            tlb_misses=int(self.tlb_misses),
            partition_boundaries=self.partition_boundaries,
            locality_types=(
                None
                if self.locality_types is None
                else LocalityTypeCounts(**self.locality_types)
            ),
        )


class SimulationSerializer(DataclassSerializer):
    kind = "simulation"
    payload = StoredSimulation


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
        ReorderingSerializer(),
        AIDSerializer(),
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
