"""Graph persistence: plain-text edge lists and uncompressed ``.npz``.

Text format is one ``source target`` pair per line (the common SNAP /
Konect layout); lines starting with ``#`` or ``%`` are comments.  The
``.npz`` format stores the CSR arrays directly (``ZIP_STORED``, never
deflated) and round-trips exactly, so every saved graph can be read
without inflating it.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, TextIO, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import Adjacency
from repro.graph.graph import Graph

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_graph_npz",
    "save_graph_npz",
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

    Members are stored raw, so :func:`load_graph_npz` reads them without
    inflating anything.
    """
    np.savez(
        path,
        out_offsets=graph.out_adj.offsets,
        out_targets=graph.out_adj.targets,
        in_offsets=graph.in_adj.offsets,
        in_targets=graph.in_adj.targets,
        name=np.asarray(graph.name),
    )


_GRAPH_ARRAYS = ("out_offsets", "out_targets", "in_offsets", "in_targets")


def load_graph_npz(source: Union[str, os.PathLike, BinaryIO]) -> Graph:
    """Load a graph previously written by :func:`save_graph_npz` from a
    path or a binary file object."""
    if isinstance(source, (str, os.PathLike)):
        # Own the handle: np.load leaks the one it opens if the zip is corrupt.
        with open(source, "rb") as handle:
            return load_graph_npz(handle)
    with np.load(source, allow_pickle=False) as data:
        required = set(_GRAPH_ARRAYS)
        missing = required - set(data.files)
        if missing:
            raise GraphFormatError(f"npz file missing arrays: {sorted(missing)}")
        out_adj = Adjacency(data["out_offsets"], data["out_targets"])
        in_adj = Adjacency(data["in_offsets"], data["in_targets"])
        name = str(data["name"]) if "name" in data.files else ""
    return Graph(out_adj, in_adj, name=name)
