"""Graph persistence: plain-text edge lists and uncompressed ``.npz``.

Text format is one ``source target`` pair per line (the common SNAP /
Konect layout); lines starting with ``#`` or ``%`` are comments.  The
``.npz`` format stores the CSR arrays directly (``ZIP_STORED``, never
deflated) and round-trips exactly, so every saved graph can be read
without inflating it and memory-mapped with ``mmap_mode="r"``.
"""

from __future__ import annotations

import ast
import io
import os
import struct
import zipfile
from typing import TextIO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency
from repro.graph.graph import Graph

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_graph_npz",
    "save_graph_npz",
    "mmap_npz_arrays",
]

PathOrFile = Union[str, os.PathLike, TextIO]


def load_edge_list(path_or_file: PathOrFile) -> tuple[int, np.ndarray, np.ndarray]:
    """Read a text edge list; returns ``(num_vertices, sources, targets)``.

    ``num_vertices`` is ``1 + max vertex ID`` seen (0 for an empty list).
    """
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            return _parse_edge_list(handle)
    return _parse_edge_list(path_or_file)


def _parse_edge_list(handle: TextIO) -> tuple[int, np.ndarray, np.ndarray]:
    sources: list[int] = []
    targets: list[int] = []
    for line_number, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"line {line_number}: expected 'source target', got {stripped!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {line_number}: non-integer vertex ID in {stripped!r}"
            ) from exc
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {line_number}: negative vertex ID")
        sources.append(u)
        targets.append(v)
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    return num_vertices, src, dst


def save_edge_list(graph: Graph, path_or_file: PathOrFile) -> None:
    """Write the graph's edges as one ``source target`` pair per line."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write_edge_list(graph, handle)
    else:
        _write_edge_list(graph, path_or_file)


def _write_edge_list(graph: Graph, handle: TextIO) -> None:
    sources, targets = graph.edges()
    buffer = io.StringIO()
    for u, v in zip(sources.tolist(), targets.tolist()):
        buffer.write(f"{u} {v}\n")
    handle.write(buffer.getvalue())


def save_graph_npz(graph: Graph, path: Union[str, os.PathLike]) -> None:
    """Persist both adjacency directions into an uncompressed ``.npz``.

    Members are stored raw: loading skips inflation, and
    :func:`load_graph_npz` can rehydrate any saved graph with
    ``mmap_mode="r"`` — shard workers then share one page cache instead
    of N heap copies.
    """
    np.savez(
        path,
        out_offsets=graph.out_adj.offsets,
        out_targets=graph.out_adj.targets,
        in_offsets=graph.in_adj.offsets,
        in_targets=graph.in_adj.targets,
        name=np.asarray(graph.name),
    )


def _npy_member_offset(
    handle: "io.BufferedReader", header_offset: int
) -> tuple[np.dtype, tuple, bool, int]:
    """Parse one STORED zip member's ``.npy`` header without copying data.

    Returns ``(dtype, shape, fortran_order, absolute_data_offset)``.
    The local file header's name/extra lengths are read from the file
    (they can differ from the central directory's), then the standard
    ``.npy`` magic + header dict is parsed with ``ast.literal_eval``.
    """
    handle.seek(header_offset)
    local = handle.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise GraphFormatError("corrupt zip local header in npz file")
    name_len, extra_len = struct.unpack("<HH", local[26:30])
    npy_start = header_offset + 30 + name_len + extra_len
    handle.seek(npy_start)
    magic = handle.read(8)
    if magic[:6] != b"\x93NUMPY":
        raise GraphFormatError("zip member is not a .npy array")
    major = magic[6]
    if major == 1:
        (header_len,) = struct.unpack("<H", handle.read(2))
        data_start = npy_start + 10 + header_len
    else:
        (header_len,) = struct.unpack("<I", handle.read(4))
        data_start = npy_start + 12 + header_len
    header = handle.read(header_len).decode("latin1")
    try:
        spec = ast.literal_eval(header)
    except (ValueError, SyntaxError) as exc:
        raise GraphFormatError(f"unparseable .npy header: {header!r}") from exc
    return np.dtype(spec["descr"]), spec["shape"], spec["fortran_order"], data_start


def mmap_npz_arrays(
    path: Union[str, os.PathLike], names: "tuple[str, ...]"
) -> dict:
    """Memory-map selected arrays of an *uncompressed* ``.npz`` file.

    ``np.load(..., mmap_mode=...)`` refuses zip containers, so this
    resolves each member's absolute data offset (zip local header +
    ``.npy`` header) and hands it to :class:`numpy.memmap` directly.
    Raises :class:`~repro.errors.GraphFormatError` for deflated members
    (a file not written by :func:`save_graph_npz`).
    """
    wanted = set(names)
    out: dict = {}
    with zipfile.ZipFile(path) as archive:
        members = {
            info.filename[:-4]: info
            for info in archive.infolist()
            if info.filename.endswith(".npy")
        }
        missing = wanted - set(members)
        if missing:
            raise GraphFormatError(f"npz file missing arrays: {sorted(missing)}")
        with open(path, "rb") as handle:
            for name in names:
                info = members[name]
                if info.compress_type != zipfile.ZIP_STORED:
                    raise GraphFormatError(
                        f"npz member {name!r} is deflate-compressed and cannot "
                        "be memory-mapped; re-save it with save_graph_npz"
                    )
                dtype, shape, fortran, data_start = _npy_member_offset(
                    handle, info.header_offset
                )
                out[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=data_start,
                    shape=shape,
                    order="F" if fortran else "C",
                )
    return out


_GRAPH_ARRAYS = ("out_offsets", "out_targets", "in_offsets", "in_targets")


def load_graph_npz(
    path: Union[str, os.PathLike], *, mmap_mode: "str | None" = None
) -> Graph:
    """Load a graph previously written by :func:`save_graph_npz`.

    ``mmap_mode="r"`` memory-maps the CSR/CSC arrays instead of reading
    them onto the heap: N shard workers opening the same artifact share
    one page-cached copy, and untouched regions never materialize.
    Structural validation is skipped on this path (the arrays were
    validated at save time and the store checksums payloads); the only
    supported mode is read-only.
    """
    if mmap_mode is not None:
        if mmap_mode != "r":
            raise GraphFormatError(
                f"only mmap_mode='r' is supported, got {mmap_mode!r}"
            )
        arrays = mmap_npz_arrays(path, _GRAPH_ARRAYS)
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            name = str(data["name"]) if "name" in data.files else ""
        out_adj = Adjacency(
            arrays["out_offsets"], arrays["out_targets"], validate=False
        )
        in_adj = Adjacency(arrays["in_offsets"], arrays["in_targets"], validate=False)
        return Graph(out_adj, in_adj, name=name)
    # Own the handle: np.load leaks the one it opens if the zip is corrupt.
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
        required = set(_GRAPH_ARRAYS)
        missing = required - set(data.files)
        if missing:
            raise GraphFormatError(f"npz file missing arrays: {sorted(missing)}")
        out_adj = Adjacency(data["out_offsets"], data["out_targets"])
        in_adj = Adjacency(data["in_offsets"], data["in_targets"])
        name = str(data["name"]) if "name" in data.files else ""
    return Graph(out_adj, in_adj, name=name)
