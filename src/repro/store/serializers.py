"""Typed (de)serializers for the repo's artifact kinds.

Each stage of the experiment pipeline produces one of a small set of
artifact types, each with a natural on-disk form:

=================  ============================  =========
kind               payload                       format
=================  ============================  =========
``graph``          :class:`~repro.graph.graph.Graph` (CSR+CSC)   raw arrays ``.bin``
``reordering``     :class:`~repro.reorder.base.ReorderResult`    raw arrays ``.bin``
``aid``            :class:`~repro.core.aid.VertexAID` (O(V))     raw arrays ``.bin``
``simulation``     :class:`StoredSimulation` (O(V) counters)    raw arrays ``.bin``
``json``           JSON documents (report data, manifests)       ``.json``
=================  ============================  =========

Every array artifact is one flat container (:func:`_write_arrays`,
:func:`_read_arrays`) and none is compressed, so a read never inflates
anything; a graph decodes as read-only views of the bytes read.
Serializers never write the destination path directly — the store hands
them a temporary file that is atomically renamed into place — and they
decode only bytes whose checksum the store has already verified
(:meth:`Serializer.loads`), so a decode failure here signals corruption
and is quarantined by the caller.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.aid import VertexAID
from repro.errors import StoreError
from repro.graph.csr import Adjacency
from repro.graph.graph import Graph
from repro.reorder.base import ReorderResult
from repro.sim.address_space import AddressSpace
from repro.sim.simulator import SimulationConfig, SimulationResult
from repro.sim.stats import VertexAccessStats

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
    """Save/decode one artifact kind; subclasses set ``kind``/``extension``."""

    kind: str = ""
    extension: str = ""

    def save(self, obj: Any, path: Path) -> None:
        raise NotImplementedError

    def loads(self, data: bytes) -> Any:
        """Decode a whole payload; raise on any defect."""
        raise NotImplementedError


#: First line of every array payload.
_MAGIC = b"repro-arrays 1\n"
#: Width of the little-endian header length that follows the magic line.
_LENGTH_BYTES = 8
#: The first array starts at a multiple of this many bytes, so every
#: ``int64`` view of a read buffer is aligned.
_ALIGNMENT = 64
#: Array dtype kinds a payload may hold: bool, int, uint, float.  No
#: object, string or structured dtype is ever decoded.
_ARRAY_KINDS = "biuf"


def _extent(value: Any) -> int:
    """A header size or offset: a non-negative JSON integer."""
    if type(value) is not int or value < 0:
        raise StoreError(f"bad extent {value!r} in payload header")
    return int(value)


def _write_arrays(path: Path, meta: dict, arrays: "dict[str, np.ndarray]") -> None:
    """Write one flat container of C-contiguous arrays.

    The file is the :data:`_MAGIC` line, the header length as 8
    little-endian bytes, a JSON header ``{"meta": {...}, "arrays":
    [[name, dtype, shape, offset], ...]}`` padded with spaces to a
    multiple of :data:`_ALIGNMENT` bytes from the start of the file,
    then every array's bytes, uncompressed and back to back (``offset``
    counts from the end of the header).
    """
    entries: list = []
    offset = 0
    for name, array in arrays.items():
        entries.append([name, array.dtype.str, list(array.shape), offset])
        offset += array.nbytes
    header = json.dumps({"meta": meta, "arrays": entries}).encode("utf-8")
    header += b" " * (-(len(_MAGIC) + _LENGTH_BYTES + len(header)) % _ALIGNMENT)
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(len(header).to_bytes(_LENGTH_BYTES, "little"))
        handle.write(header)
        for array in arrays.values():
            handle.write(array.data)


def _read_arrays(
    kind: str, data: bytes, names: "set[str]"
) -> "tuple[dict, dict[str, np.ndarray]]":
    """Decode a :func:`_write_arrays` container into ``(meta, arrays)``.

    The arrays are read-only :func:`np.frombuffer` views of ``data``.
    The reader is strict: it takes only bool/int/uint/float dtypes and
    exactly the field ``names`` (meta and arrays together, each once),
    bounds-checks every extent and rejects trailing bytes.  Any
    violation raises :class:`~repro.errors.StoreError` (or a JSON
    error), and the store quarantines the artifact.
    """
    if not data.startswith(_MAGIC):
        raise StoreError(f"{kind} payload has no {_MAGIC!r} line")
    start = len(_MAGIC) + _LENGTH_BYTES
    body = start + int.from_bytes(data[len(_MAGIC) : start], "little")
    if body > len(data):
        raise StoreError(f"{kind} payload header runs past the end")
    header = json.loads(data[start:body].decode("utf-8"))
    meta, entries = header["meta"], header["arrays"]
    arrays: dict[str, np.ndarray] = {}
    cursor = body
    for name, dtype_str, shape, offset in entries:
        dtype = np.dtype(dtype_str)
        if dtype.kind not in _ARRAY_KINDS:
            raise StoreError(f"{kind} array {name!r} has dtype {dtype}")
        shape = tuple(_extent(size) for size in shape)
        count = math.prod(shape)
        if body + _extent(offset) != cursor or name in arrays:
            raise StoreError(f"{kind} array {name!r} is misplaced or repeated")
        cursor += count * dtype.itemsize
        if cursor > len(data):
            raise StoreError(f"{kind} array {name!r} runs past the end")
        array = np.frombuffer(data, dtype=dtype, count=count, offset=body + offset)
        arrays[name] = array.reshape(shape)
    if cursor != len(data):
        raise StoreError(f"{kind} payload has {len(data) - cursor} trailing bytes")
    found = [*arrays, *meta]
    if len(found) != len(set(found)) or set(found) != names:
        raise StoreError(
            f"{kind} payload fields do not match: "
            f"{sorted(set(found) ^ names) or 'duplicates'}"
        )
    return meta, arrays


#: The arrays of a graph payload; its only other field is ``name``.
_ADJACENCY_ARRAYS = ("out_offsets", "out_targets", "in_offsets", "in_targets")
_INT64 = np.dtype("<i8")


class GraphSerializer(Serializer):
    """CSR+CSC graphs as one flat container, decoded as views.

    The four adjacency arrays are stored as ``<i8``, their in-memory
    dtype, and the graph's ``name`` is the header meta.  The writer
    aligns the first array to 64 bytes, so a load hands
    :class:`~repro.graph.csr.Adjacency` aligned, read-only views of the
    bytes the store hashed: one read and no copy.  ``Adjacency``
    validates both directions, and any other dtype, shape or field
    raises, so the store quarantines the artifact.
    """

    kind = "graph"
    extension = ".bin"

    def save(self, obj: Any, path: Path) -> None:
        if not isinstance(obj, Graph):
            raise StoreError(f"graph serializer got {type(obj).__name__}")
        adjacency = (obj.out_adj.offsets, obj.out_adj.targets,
                     obj.in_adj.offsets, obj.in_adj.targets)
        _write_arrays(path, {"name": obj.name}, {
            name: np.ascontiguousarray(array, dtype=_INT64)
            for name, array in zip(_ADJACENCY_ARRAYS, adjacency)
        })

    def loads(self, data: bytes) -> Graph:
        meta, arrays = _read_arrays(self.kind, data, {*_ADJACENCY_ARRAYS, "name"})
        for name in _ADJACENCY_ARRAYS:
            array = arrays.get(name)
            if array is None or array.dtype != _INT64 or array.ndim != 1:
                raise StoreError(f"graph payload {name!r} is not a 1-D <i8 array")
        if not isinstance(meta.get("name"), str):
            raise StoreError("graph payload name is not a string")
        return Graph(
            Adjacency(arrays["out_offsets"], arrays["out_targets"]),
            Adjacency(arrays["in_offsets"], arrays["in_targets"]),
            name=meta["name"],
        )


def _narrowed(array: np.ndarray) -> np.ndarray:
    """An integer array in the smallest dtype that holds its values."""
    if array.dtype.kind not in "iu" or array.size == 0:
        return array
    low, high = int(array.min()), int(array.max())
    return array.astype(np.result_type(np.min_scalar_type(low), np.min_scalar_type(high)))


def _widened(array: np.ndarray) -> np.ndarray:
    """A writable copy of a decoded array, :func:`_narrowed` undone:
    integer arrays back to ``int64``."""
    return array.astype(np.int64 if array.dtype.kind in "iu" else array.dtype)


class DataclassSerializer(Serializer):
    """A dataclass as one flat container of raw arrays.

    Every array field is one :func:`_write_arrays` array and every other
    field is in the header meta.  Integer arrays are stored in the
    narrowest dtype that holds them and load back as ``int64``, the one
    integer dtype these payloads hold.  Unlike graphs, which decode as
    views, decoded arrays are writable copies (O(V) at most), so the
    read buffer is freed with the call.  :func:`_read_arrays` takes
    exactly the payload's field names; any defect raises, and the store
    quarantines the artifact.
    """

    extension = ".bin"
    payload: type = object

    def save(self, obj: Any, path: Path) -> None:
        if not isinstance(obj, self.payload):
            raise StoreError(f"{self.kind} serializer got {type(obj).__name__}")
        arrays: dict[str, np.ndarray] = {}
        meta: dict[str, Any] = {}
        for item in fields(obj):
            value = getattr(obj, item.name)
            if isinstance(value, np.ndarray):
                arrays[item.name] = np.ascontiguousarray(_narrowed(value))
            else:
                meta[item.name] = jsonify(value)
        _write_arrays(path, meta, arrays)

    def loads(self, data: bytes) -> Any:
        names = {item.name for item in fields(self.payload)}
        meta, arrays = _read_arrays(self.kind, data, names)
        return self.payload(
            **{name: _widened(array) for name, array in arrays.items()}, **meta
        )


class ReorderingSerializer(DataclassSerializer):
    """Relabeling array plus the run's measured time and details.

    ``preprocessing_seconds`` is a measurement of the run that computed
    the artifact, not content: it is the only stored value two
    computations of one key may disagree on.  Everything else here is a
    pure function of the key, and ``tests/test_determinism.py`` exempts
    exactly this field.
    """

    kind = "reordering"
    payload = ReorderResult


class AIDSerializer(DataclassSerializer):
    """Per-vertex AID and degree arrays, in the reordered ID order."""

    kind = "aid"
    payload = VertexAID


@dataclass
class StoredSimulation:
    """A :class:`SimulationResult` minus its config: O(V + scans).

    The config is re-derived deterministically from the stored vertex
    and edge counts, so the simulation artifact keeps only the graph's
    in/out degrees and what the simulator produced: per-region
    access/hit counters, per-vertex access/miss counts under both
    attributions, the ``(scans, Region.COUNT)`` resident-line counts of
    the ECS scans, partition boundaries and TLB misses.
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
    scan_region_counts: np.ndarray
    tlb_misses: int
    space_params: dict

    @classmethod
    def from_result(cls, result: SimulationResult) -> "StoredSimulation":
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
            scan_region_counts=result.scan_region_counts,
            tlb_misses=result.tlb_misses,
            space_params=asdict(result.space),
        )

    @property
    def space(self) -> AddressSpace:
        """The address space the run laid its graph out in."""
        return AddressSpace(**self.space_params)

    def to_result(self, config: SimulationConfig) -> SimulationResult:
        """Rebuild the full result under the config the run used."""
        return SimulationResult(
            in_degrees=self.in_degrees,
            out_degrees=self.out_degrees,
            config=config,
            space=self.space,
            region_accesses=self.region_accesses,
            region_hits=self.region_hits,
            read_stats=VertexAccessStats(self.read_accesses, self.read_misses),
            proc_stats=VertexAccessStats(self.proc_accesses, self.proc_misses),
            scan_region_counts=self.scan_region_counts,
            tlb_misses=int(self.tlb_misses),
            partition_boundaries=self.partition_boundaries,
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

    def loads(self, data: bytes) -> Any:
        return json.loads(data.decode("utf-8"))


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
