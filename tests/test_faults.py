"""Fault injection at the store and HTTP boundaries.

A stored graph artifact is truncated or has one bit flipped on disk.
Every read path must notice within a bounded time, quarantine the
artifact and report a miss: the store on its own, the memoized
pipeline (which then recomputes a bit-identical graph).  A warm
``/analyze`` whose ``aid`` or ``simulation`` artifact is corrupted the
same way still answers 200 with the result it gave before the fault.
A ``graph`` or ``simulation`` payload torn or malformed in each way
the flat reader checks (for a graph, also one the container accepts
but ``Adjacency`` rejects), resealed with a matching checksum, is
quarantined as a deserialization failure, and the next run recomputes
the same result.

A reordering worker of the paper sweep's fork pool fails: an RA that
raises there re-raises in the parent as the same :class:`ReproError`
subclass, and a worker killed mid-task surfaces as an
:class:`ExperimentError` within a bound, never a hang; both name the
dataset and the RA.

A store write hits a full disk: the store raises a typed
:class:`StoreError`, leaves no scratch file, and the service answers a
500 naming it.  An HTTP client sends broken framing — an over-long
line, too many headers, a request it never finishes: the server
answers 400 within a bound instead of dropping the connection or
holding it forever, and the request parser raises nothing but
:class:`ServeError` on any byte stream.  A server that answers with
broken framing gets the same treatment from :class:`HttpClient`: a
:class:`ServeError` within a bound, never a raw ``ValueError`` or
``IncompleteReadError``.
"""

from __future__ import annotations

import asyncio
import errno
import gc
import hashlib
import json
import logging
import math
import multiprocessing
import os
import signal
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import Workloads
from repro.errors import ExperimentError, ReorderingError, ServeError, StoreError
from repro.reorder import get_algorithm
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
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_corrupt_graph_is_quarantined(self, tmp_path, tiny_graph, fault):
        store = ArtifactStore(tmp_path / "store")
        info = store.put(_KEY, "graph", tiny_graph)
        _FAULTS[fault](info.path)

        start = time.perf_counter()
        loaded = store.get(_KEY, "graph")
        assert time.perf_counter() - start < _BOUND_S
        assert loaded is None
        assert not store.contains(_KEY, "graph")
        assert info.path.name in _quarantined(store, "graph")
        reason = store.quarantine_dir / "graph" / f"{_KEY}.reason.txt"
        assert "checksum mismatch" in reason.read_text(encoding="utf-8")

    def test_truncated_graph_with_matching_checksum(self, tmp_path, tiny_graph):
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
            loaded = store.get(_KEY, "graph")
            gc.collect()
        assert time.perf_counter() - start < _BOUND_S
        assert loaded is None
        # The failed load closed the file it opened.
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        reason = store.quarantine_dir / "graph" / f"{_KEY}.reason.txt"
        assert "deserialization failure" in reason.read_text(encoding="utf-8")


def _split(data: bytes) -> "tuple[bytes, dict, bytes]":
    """A dataclass payload as (magic line, JSON header, array bytes)."""
    magic = data[: data.index(b"\n") + 1]
    start = len(magic) + 8
    end = start + int.from_bytes(data[len(magic) : start], "little")
    return magic, json.loads(data[start:end]), data[end:]


def _join(magic: bytes, header: dict, body: bytes, length=None) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    size = len(raw) if length is None else length
    return magic + size.to_bytes(8, "little") + raw + body


def _with_array(data: bytes, edit) -> bytes:
    magic, header, body = _split(data)
    edit(header["arrays"])
    return _join(magic, header, body)


def _object_dtype(arrays):
    arrays[0][1] = "|O"


def _unicode_dtype(arrays):
    # Same extent as the array it replaces, so only the dtype check bites.
    for entry in arrays:
        nbytes = np.dtype(entry[1]).itemsize * math.prod(entry[2])
        if nbytes and nbytes % 4 == 0:
            entry[1], entry[2] = "<U1", [nbytes // 4]
            return
    raise AssertionError("no array spans a whole number of <U1 characters")


def _grow_last_extent(arrays):
    arrays[-1][2][0] += 1


def _rename_array(arrays):
    arrays[0][0] = "bogus"


def _drop_meta_field(data: bytes) -> bytes:
    magic, header, body = _split(data)
    del header["meta"][next(iter(header["meta"]))]
    return _join(magic, header, body)


def _header_past_end(data: bytes) -> bytes:
    magic, header, body = _split(data)
    return _join(magic, header, body, length=len(data))


#: Torn or malformed flat payloads, each resealed with a matching
#: checksum so only the reader can tell.
_MALFORMED = {
    "truncated": lambda data: data[: len(data) // 2],
    "header-length-past-end": _header_past_end,
    "extent-past-end": lambda data: _with_array(data, _grow_last_extent),
    "trailing-bytes": lambda data: data + b"\0" * 8,
    "object-dtype": lambda data: _with_array(data, _object_dtype),
    "unicode-dtype": lambda data: _with_array(data, _unicode_dtype),
    "unknown-field": lambda data: _with_array(data, _rename_array),
    "missing-field": _drop_meta_field,
    "wrong-magic": lambda data: b"repro-arrays 0" + data[data.index(b"\n") :],
}


def _non_monotone_offsets(data: bytes) -> bytes:
    """A graph whose container is sound but whose ``out_offsets`` fall
    back after their first step, so only ``Adjacency`` can tell."""
    _magic, header, body = _split(data)
    name, dtype, shape, offset = header["arrays"][0]
    assert (name, dtype) == ("out_offsets", "<i8") and shape[0] >= 3
    offsets = np.frombuffer(body, dtype="<i8", count=shape[0], offset=offset)
    at = len(data) - len(body) + offset + 8
    return data[:at] + (int(offsets[-1]) + 1).to_bytes(8, "little") + data[at + 8 :]


#: Per kind, its malformed payloads.
_MALFORMED_BY_KIND = {
    "simulation": _MALFORMED,
    "graph": {**_MALFORMED, "non-monotone-offsets": _non_monotone_offsets},
}


def _analyze(store: ArtifactStore) -> "tuple[object, int]":
    """A warm-able ``/analyze`` job: its result and the stages it computed."""
    from repro.serve.jobs import canonical_job
    from repro.serve.worker import execute_job

    job = canonical_job({"dataset": _DATASET, "algorithm": "degree"}, kind="analyze")
    answer = execute_job(job, str(store.root))
    return answer["result"], answer["stages"]["computed"]


def _graph(store: ArtifactStore) -> "tuple[object, int]":
    """The dataset's graph, as its name and array bytes, and the stages
    computed for it."""
    workloads = Workloads(store=store)
    graph = workloads.graph(_DATASET)
    arrays = (graph.out_adj.offsets, graph.out_adj.targets,
              graph.in_adj.offsets, graph.in_adj.targets)
    return (graph.name, [a.tobytes() for a in arrays]), workloads.stats["graph"]["computed"]


#: Per kind, a run that reads the artifact when it is stored.
_RUNS = {"simulation": _analyze, "graph": _graph}


class TestFlatReader:
    # Simulation cases keep their bare fault ids.
    @pytest.mark.parametrize(
        "kind, fault",
        [
            pytest.param(kind, fault, id=fault if kind == "simulation" else f"{kind}-{fault}")
            for kind, cases in _MALFORMED_BY_KIND.items()
            for fault in sorted(cases)
        ],
    )
    def test_malformed_payload_is_quarantined_and_recomputed(
        self, tmp_path, tiny_scale, kind, fault
    ):
        store = ArtifactStore(tmp_path / "store")
        cold, _ = _RUNS[kind](store)
        (info,) = store.infos(kind)
        data = _MALFORMED_BY_KIND[kind][fault](info.path.read_bytes())
        info.path.write_bytes(data)
        meta = json.loads(info.meta_path.read_text(encoding="utf-8"))
        meta["checksum"] = hashlib.sha256(data).hexdigest()
        info.meta_path.write_text(json.dumps(meta), encoding="utf-8")

        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            loaded = store.get(info.key, kind)
            gc.collect()
        assert time.perf_counter() - start < _BOUND_S
        assert loaded is None
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert info.path.name in _quarantined(store, kind)
        reason = store.quarantine_dir / kind / f"{info.key}.reason.txt"
        assert "deserialization failure" in reason.read_text(encoding="utf-8")

        warm, computed = _RUNS[kind](store)
        assert warm == cold
        assert computed == 1
        assert store.get(info.key, kind) is not None


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


class TestReorderWorkers:
    """An RA failing in the sweep's fork pool (one cell: twtr-mini x GOrder)."""

    def _run_failing(
        self, monkeypatch, compute, algorithms=("identity", "gorder")
    ) -> pytest.ExceptionInfo:
        monkeypatch.setattr(type(get_algorithm("gorder")), "compute", compute)
        start = time.perf_counter()
        with pytest.raises(Exception) as excinfo:
            Workloads()._simulate_together([_DATASET], algorithms)
        assert time.perf_counter() - start < _BOUND_S
        assert "gorder" in str(excinfo.value) and _DATASET in str(excinfo.value)
        return excinfo

    def test_raising_ra_keeps_its_error_type(self, tiny_scale, monkeypatch):
        def compute(self, graph, details):
            raise ReorderingError("injected")

        excinfo = self._run_failing(monkeypatch, compute)
        assert type(excinfo.value) is ReorderingError
        assert "injected" in str(excinfo.value)

    def test_raising_ra_does_not_wait_for_its_siblings(self, tiny_scale, monkeypatch):
        """GOrder is queued first and raises at once; Rabbit-Order, running
        beside it (or queued behind it on one core), would take a minute."""

        def stall(self, graph, details):
            time.sleep(60)

        def compute(self, graph, details):
            raise ReorderingError("injected")

        monkeypatch.setattr(type(get_algorithm("rabbit")), "compute", stall)
        excinfo = self._run_failing(monkeypatch, compute, ("gorder", "rabbit"))
        assert type(excinfo.value) is ReorderingError
        # The stalled sibling was stopped, not left to run out its minute.
        deadline = time.perf_counter() + _BOUND_S
        while multiprocessing.active_children():
            assert time.perf_counter() < deadline, "a reordering worker outlived the error"
            time.sleep(0.05)

    def test_killed_worker_is_an_experiment_error(self, tiny_scale, monkeypatch):
        parent = os.getpid()

        def compute(self, graph, details):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("the RA ran in the parent process")

        excinfo = self._run_failing(monkeypatch, compute)
        assert type(excinfo.value) is ExperimentError


class TestWarmServe:
    def test_analyze_survives_corrupt_aid_and_simulation(self, tmp_path, tiny_scale):
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
                answers = [await request_once(host, port, "POST", "/analyze", payload)]
                infos = []
                for kind in ("aid", "simulation"):
                    (info,) = store.infos(kind)
                    _flip_bit(info.path)
                    answers.append(
                        await asyncio.wait_for(
                            request_once(host, port, "POST", "/analyze", payload),
                            timeout=_BOUND_S,
                        )
                    )
                    infos.append(info)
                return answers, infos
            finally:
                await service.stop()

        answers, infos = asyncio.run(scenario())
        assert [status for status, _body, _headers in answers] == [200, 200, 200]
        cold = answers[0][1]
        for (_status, warm, _headers), info in zip(answers[1:], infos):
            assert warm["result"] == cold["result"]
            # Only the corrupt stage reran; its upstream and the other
            # O(V) stage hit.
            assert warm["stages"] == {"hits": 3, "computed": 1}
            assert info.path.name in _quarantined(store, info.kind)
            assert store.contains(info.key, info.kind)


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


async def _client_error(response: bytes, *, close: bool) -> "tuple[ServeError, float]":
    """Answer one :class:`HttpClient` request with ``response`` from a stub
    server (closing right after when ``close``, else holding the
    connection open); returns the client's error and the seconds it took."""

    async def stub(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        await reader.readuntil(b"\r\n\r\n")
        writer.write(response)
        await writer.drain()
        if not close:
            await reader.read()  # until the client drops the connection
        writer.close()

    server = await asyncio.start_server(stub, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    client = http.HttpClient(host, port)
    started = time.perf_counter()
    try:
        with pytest.raises(ServeError) as info:
            await asyncio.wait_for(client.request("GET", "/healthz"), timeout=_BOUND_S)
        return info.value, time.perf_counter() - started
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


_STATUS = b"HTTP/1.1 200 OK\r\n"


class TestHttpClientFraming:
    @pytest.mark.parametrize(
        "response, close, message",
        [
            (b"HTTP/1.1 200 " + _LONG + b"\r\n\r\n", False, "line longer than"),
            (_STATUS + b"X-Long: " + _LONG + b"\r\n\r\n", False, "line longer than"),
            (
                _STATUS + b"X-H: 1\r\n" * (http._MAX_HEADER_LINES + 1) + b"\r\n",
                False,
                "header lines",
            ),
            (_STATUS + b"Content-Length: ten\r\n\r\n", False, "bad Content-Length"),
            (_STATUS + b"Content-Length: -1\r\n\r\n", False, "bad Content-Length"),
            (_STATUS + b'Content-Length: 100\r\n\r\n{"ok"', True, "closed mid-body"),
        ],
        ids=[
            "status-line", "header-line", "header-count",
            "length-not-a-number", "length-negative", "body-cut-short",
        ],
    )
    def test_broken_response_is_a_serve_error(self, response, close, message):
        error, elapsed = asyncio.run(_client_error(response, close=close))
        assert message in str(error)
        assert elapsed < _BOUND_S


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
