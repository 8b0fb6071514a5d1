"""Fault injection at the store boundary: corrupt artifacts on purpose.

A stored graph artifact is truncated or has one bit flipped on disk.
Every read path must notice within a bounded time, quarantine the
artifact and report a miss: the store on its own (heap and
``mmap_mode="r"`` loads), the memoized pipeline (which then recomputes
a bit-identical graph), and a warm service request (which still
answers 200 with the result it gave before the fault).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import Workloads
from repro.serve.app import ReorderService
from repro.serve.http import request_once
from repro.store import ArtifactStore

_DATASET = "twtr-mini"
_KEY = "ab" * 32
#: Upper bound on detecting one corrupt artifact; a hang fails here.
_BOUND_S = 5.0


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flip_bit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


_FAULTS = {"truncate": _truncate, "bit-flip": _flip_bit}


def _quarantined(store: ArtifactStore, kind: str) -> list:
    kind_dir = store.quarantine_dir / kind
    return sorted(p.name for p in kind_dir.iterdir()) if kind_dir.exists() else []


@pytest.fixture
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")


class TestStoreGet:
    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_corrupt_graph_is_quarantined(self, tmp_path, tiny_graph, fault, mmap_mode):
        store = ArtifactStore(tmp_path / "store")
        info = store.put(_KEY, "graph", tiny_graph)
        _FAULTS[fault](info.path)

        start = time.perf_counter()
        loaded = store.get(_KEY, "graph", mmap_mode=mmap_mode)
        assert time.perf_counter() - start < _BOUND_S
        assert loaded is None
        assert not store.contains(_KEY, "graph")
        assert info.path.name in _quarantined(store, "graph")
        reason = store.quarantine_dir / "graph" / f"{_KEY}.reason.txt"
        assert "checksum mismatch" in reason.read_text(encoding="utf-8")

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_truncated_graph_with_matching_checksum(
        self, tmp_path, tiny_graph, mmap_mode
    ):
        # A torn file whose sidecar hashes clean: only the loader can
        # tell, and it must quarantine rather than raise.
        store = ArtifactStore(tmp_path / "store")
        info = store.put(_KEY, "graph", tiny_graph)
        _truncate(info.path)
        meta = json.loads(info.meta_path.read_text(encoding="utf-8"))
        meta["checksum"] = hashlib.sha256(info.path.read_bytes()).hexdigest()
        info.meta_path.write_text(json.dumps(meta), encoding="utf-8")

        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            loaded = store.get(_KEY, "graph", mmap_mode=mmap_mode)
            gc.collect()
        assert time.perf_counter() - start < _BOUND_S
        assert loaded is None
        # The failed load closed the file it opened.
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        reason = store.quarantine_dir / "graph" / f"{_KEY}.reason.txt"
        assert "deserialization failure" in reason.read_text(encoding="utf-8")


class TestPipelineRecomputes:
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_corrupt_graph_recomputed_bit_identical(self, tmp_path, tiny_scale, fault):
        store = ArtifactStore(tmp_path / "store")
        cold = Workloads(store=store).graph(_DATASET)
        (info,) = store.infos("graph")
        _FAULTS[fault](info.path)

        start = time.perf_counter()
        warm_workloads = Workloads(store=store)
        warm = warm_workloads.graph(_DATASET)
        assert time.perf_counter() - start < _BOUND_S
        assert warm_workloads.stats == {"graph": {"hits": 0, "computed": 1}}
        assert info.path.name in _quarantined(store, "graph")
        for attr in ("out_adj", "in_adj"):
            for name in ("offsets", "targets"):
                assert np.array_equal(
                    getattr(getattr(warm, attr), name),
                    getattr(getattr(cold, attr), name),
                )
        assert warm.name == cold.name
        # The recomputed artifact is committed and reads back clean.
        assert store.get(info.key, "graph") == cold


class TestWarmServe:
    def test_simulate_survives_corrupt_reordered_graph(self, tmp_path, tiny_scale):
        payload = {"dataset": _DATASET, "algorithm": "degree"}
        store = ArtifactStore(tmp_path / "store")

        async def scenario():
            service = ReorderService(
                store_root=str(store.root),
                max_workers=1,
                max_queue_depth=2,
                executor="thread",
            )
            host, port = await service.start()
            try:
                first = await request_once(host, port, "POST", "/simulate", payload)
                (info,) = store.infos("reordered-graph")
                _flip_bit(info.path)
                second = await asyncio.wait_for(
                    request_once(host, port, "POST", "/simulate", payload),
                    timeout=_BOUND_S,
                )
                return first, second, info
            finally:
                await service.stop()

        (s1, cold, _h1), (s2, warm, _h2), info = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert warm["result"] == cold["result"]
        # Only the corrupt stage reran; its upstream and the simulation hit.
        assert warm["stages"]["computed"] == 1
        assert info.path.name in _quarantined(store, "reordered-graph")
        assert store.contains(info.key, "reordered-graph")
