"""Fault injection at the store and HTTP boundaries.

A stored graph artifact is truncated or has one bit flipped on disk.
Every read path must notice within a bounded time, quarantine the
artifact and report a miss: the store on its own (heap and
``mmap_mode="r"`` loads), the memoized pipeline (which then recomputes
a bit-identical graph), and a warm service request (which still
answers 200 with the result it gave before the fault).

A store write hits a full disk: the store raises a typed
:class:`StoreError`, leaves no scratch file, and the service answers a
500 naming it.  An HTTP client sends broken framing — an over-long
line, too many headers, a request it never finishes: the server
answers 400 within a bound instead of dropping the connection or
holding it forever, and the request parser raises nothing but
:class:`ServeError` on any byte stream.
"""

from __future__ import annotations

import asyncio
import errno
import gc
import hashlib
import json
import logging
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import Workloads
from repro.errors import ServeError, StoreError
from repro.serve import http
from repro.serve.app import ReorderService
from repro.serve.http import HttpRequest, HttpResponse, read_request, request_once
from repro.store import ArtifactStore
from repro.store.serializers import get_serializer

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


# -- full disk on store writes ---------------------------------------------


def _full_disk(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _inject_enospc(monkeypatch, where: str, kind: str) -> None:
    """Fail ``kind``'s payload save, or every sidecar write, with ENOSPC."""
    if where == "payload":
        monkeypatch.setattr(get_serializer(kind), "save", _full_disk)
        return
    write_text = Path.write_text

    def sidecar_fails(path: Path, *args, **kwargs):
        if path.name.startswith("tmp-") and path.name.endswith(".meta.json"):
            _full_disk()
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", sidecar_fails)


def _scratch_files(store: ArtifactStore) -> list:
    return sorted(p.name for p in store.root.rglob("tmp-*"))


@pytest.mark.parametrize("where", ["payload", "sidecar"])
class TestFullDisk:
    def test_put_raises_store_error(self, tmp_path, tiny_graph, monkeypatch, where):
        store = ArtifactStore(tmp_path / "store")
        _inject_enospc(monkeypatch, where, "graph")

        start = time.perf_counter()
        with pytest.raises(StoreError) as caught:
            store.put(_KEY, "graph", tiny_graph)
        assert time.perf_counter() - start < _BOUND_S
        message = str(caught.value)
        assert "graph" in message and _KEY in message
        assert f"errno {errno.ENOSPC}" in message
        assert isinstance(caught.value.__cause__, OSError)
        assert _scratch_files(store) == []
        assert not store.contains(_KEY, "graph")

    def test_simulate_answers_500_naming_store_error(
        self, tmp_path, tiny_scale, monkeypatch, where
    ):
        store = ArtifactStore(tmp_path / "store")
        _inject_enospc(monkeypatch, where, "simulation")

        async def scenario():
            service = ReorderService(
                store_root=str(store.root),
                max_workers=1,
                max_queue_depth=2,
                executor="thread",
            )
            host, port = await service.start()
            try:
                return await asyncio.wait_for(
                    request_once(
                        host, port, "POST", "/simulate",
                        {"dataset": _DATASET, "algorithm": "degree"},
                    ),
                    timeout=_BOUND_S,
                )
            finally:
                await service.stop()

        status, body, _headers = asyncio.run(scenario())
        assert status == 500
        assert body["error"].startswith("StoreError:")
        assert f"errno {errno.ENOSPC}" in body["error"]
        assert _scratch_files(store) == []
        assert store.infos("simulation") == []


def _inject_pin_enospc(monkeypatch) -> None:
    """Fail every pin-marker write with ENOSPC after creating the file,
    the way a full disk leaves a truncated marker behind."""
    write_text = Path.write_text

    def marker_fails(path: Path, *args, **kwargs):
        if path.name.endswith(".pin"):
            path.write_bytes(b"")
            _full_disk()
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", marker_fails)


def _pin_markers(store: ArtifactStore) -> list:
    return sorted(p.name for p in store.root.rglob("*.pin"))


class TestPinFullDisk:
    def test_pin_raises_store_error(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        _inject_pin_enospc(monkeypatch)

        start = time.perf_counter()
        with pytest.raises(StoreError) as caught:
            with store.pin(_KEY, "graph"):
                pytest.fail("the body must not run without a marker")
        assert time.perf_counter() - start < _BOUND_S
        message = str(caught.value)
        assert "graph" in message and _KEY in message
        assert f"errno {errno.ENOSPC}" in message
        assert isinstance(caught.value.__cause__, OSError)
        assert _pin_markers(store) == []
        assert not store.is_pinned(_KEY, "graph")

    def test_simulate_answers_500_naming_store_error(
        self, tmp_path, tiny_scale, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "store")
        _inject_pin_enospc(monkeypatch)

        async def scenario():
            service = ReorderService(
                store_root=str(store.root),
                max_workers=1,
                max_queue_depth=2,
                executor="thread",
            )
            host, port = await service.start()
            try:
                return await asyncio.wait_for(
                    request_once(
                        host, port, "POST", "/simulate",
                        {"dataset": _DATASET, "algorithm": "degree"},
                    ),
                    timeout=_BOUND_S,
                )
            finally:
                await service.stop()

        status, body, _headers = asyncio.run(scenario())
        assert status == 500
        assert body["error"].startswith("StoreError:")
        assert f"errno {errno.ENOSPC}" in body["error"]
        assert _pin_markers(store) == []


# -- HTTP framing ------------------------------------------------------------


async def _ok(_request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, {"ok": True})


async def _exchange(chunks, *, pause_s: float = 0.0) -> "tuple[bytes, float]":
    """Send ``chunks`` to a fresh server (pausing ``pause_s`` between
    them), then read until the server closes; returns the bytes read and
    the seconds from the last send to the close."""
    server, host, port = await http.start_http_server(_ok, "127.0.0.1", 0)
    try:
        reader, writer = await asyncio.open_connection(host, port)
        for index, chunk in enumerate(chunks):
            if index and pause_s:
                await asyncio.sleep(pause_s)
            writer.write(chunk)
            await writer.drain()
        sent = time.perf_counter()
        received = await asyncio.wait_for(reader.read(), timeout=_BOUND_S)
        elapsed = time.perf_counter() - sent
        writer.close()
        await writer.wait_closed()
        return received, elapsed
    finally:
        server.close()
        await server.wait_closed()


_REQUEST = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
_LONG = b"a" * (http._MAX_LINE_BYTES + 10)


class TestHttpFraming:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + _LONG + b" HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nX-Long: " + _LONG + b"\r\n\r\n",
            b"GET / HTTP/1.1\r\n"
            + b"X-H: 1\r\n" * (http._MAX_HEADER_LINES + 1)
            + b"\r\n",
        ],
        ids=["request-line", "header-line", "header-count"],
    )
    def test_oversized_framing_is_a_400(self, request_bytes, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            received, elapsed = asyncio.run(_exchange([request_bytes]))
        assert received.startswith(b"HTTP/1.1 400 ")
        assert elapsed < _BOUND_S
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_stalled_request_times_out(self, monkeypatch):
        monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.3)
        received, elapsed = asyncio.run(_exchange([b"GET / HTTP/1.1\r\n"]))
        assert received.startswith(b"HTTP/1.1 400 ")
        assert b"not complete within" in received
        assert 0.2 < elapsed < 0.3 + _BOUND_S / 2

    def test_idle_keep_alive_is_not_timed_out(self, monkeypatch):
        monkeypatch.setattr(http, "REQUEST_TIMEOUT_S", 0.2)
        received, _elapsed = asyncio.run(
            _exchange(
                [_REQUEST, _REQUEST.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")],
                pause_s=0.5,
            )
        )
        assert received.count(b"HTTP/1.1 200 ") == 2


_FRAGMENTS = st.sampled_from([
    b"GET / HTTP/1.1\r\n", b"POST /simulate HTTP/1.0\r\n", b"\r\n", b"\n",
    b"Content-Length: 5\r\n", b"Content-Length: -1\r\n",
    b"Content-Length: 99999999999\r\n", b"content-length: \xb2\r\n",
    b"Connection: close\r\n", b"X: y\r\n", b"no-colon\r\n", b"hello",
    b"a" * 80,
])


async def _parse_all(data: bytes) -> None:
    reader = asyncio.StreamReader(limit=64)
    reader.feed_data(data)
    reader.feed_eof()
    while True:
        request = await read_request(reader)
        if request is None:
            return
        assert isinstance(request, HttpRequest)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=400), st.lists(_FRAGMENTS, max_size=12).map(b"".join)))
def test_read_request_fuzz(data):
    """Any byte stream parses to requests and a clean EOF, or ServeError."""
    try:
        asyncio.run(_parse_all(data))
    except ServeError:
        pass
