"""Minimal stdlib asyncio HTTP/1.1 layer: parsing, JSON responses, client.

The service speaks a deliberately small subset of HTTP/1.1 — JSON
bodies, ``Content-Length`` framing (no chunked encoding), keep-alive
connections — implemented directly on :func:`asyncio.start_server` so
:mod:`repro.serve` matches the zero-dependency ethos of
:mod:`repro.obs`.  :class:`HttpClient` is the matching keep-alive
client the load harness and tests drive the service with.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.errors import ServeError

__all__ = [
    "MAX_BODY_BYTES",
    "HttpRequest",
    "HttpResponse",
    "read_request",
    "write_response",
    "start_http_server",
    "HttpClient",
    "request_once",
]

#: Upper bound on request/response bodies — a graph submitted as JSON
#: has no business being bigger than this, and the cap keeps a
#: misbehaving client from ballooning the server.
MAX_BODY_BYTES = 16 << 20

#: Longest request or header line (the stream reader's buffer limit);
#: a longer one is a 400.
_MAX_LINE_BYTES = 64 << 10

#: Most header lines one request may carry.
_MAX_HEADER_LINES = 100

#: Longest time from a request's first byte to its last body byte.  An
#: idle keep-alive connection waits for that first byte without bound;
#: a client that starts a request and stalls gets a 400 after this.
REQUEST_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


@dataclass
class HttpRequest:
    """One parsed request: method, path and a raw (possibly empty) body."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes = b""

    def json(self) -> Dict[str, Any]:
        """The body decoded as a JSON object (``{}`` for an empty body)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class HttpResponse:
    """A JSON response: status code, payload, and extra headers."""

    status: int
    payload: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # the line outgrew the reader's limit
        raise ServeError(f"line longer than {_MAX_LINE_BYTES} bytes") from exc
    except ConnectionError as exc:
        raise ServeError(f"broken request stream: {exc}") from exc


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Malformed framing, and a request not complete within
    :data:`REQUEST_TIMEOUT_S` of its first byte, raise
    :class:`ServeError`; the connection loop answers 400 and closes.
    """
    try:
        first = await reader.read(1)
    except ConnectionError as exc:
        raise ServeError(f"broken request stream: {exc}") from exc
    if not first:
        return None
    try:
        return await asyncio.wait_for(
            _read_rest(reader, first), timeout=REQUEST_TIMEOUT_S
        )
    except asyncio.TimeoutError as exc:
        raise ServeError(
            f"request not complete within {REQUEST_TIMEOUT_S:g} s"
        ) from exc


async def _read_rest(reader: asyncio.StreamReader, first: bytes) -> HttpRequest:
    line = first + await _readline(reader)
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ServeError(f"malformed request line: {line[:200]!r}")
    method, target, _version = parts
    path = target.split("?", 1)[0]
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES + 1):
        raw = await _readline(reader)
        if not raw:
            raise ServeError("connection closed mid-headers")
        text = raw.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise ServeError(f"malformed header line: {text[:200]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ServeError(f"more than {_MAX_HEADER_LINES} header lines")
    body = b""
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise ServeError(f"bad Content-Length: {length_text[:40]!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise ServeError(f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ServeError("connection closed mid-body") from exc
        except ConnectionError as exc:
            raise ServeError(f"broken request stream: {exc}") from exc
    return HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


async def write_response(
    writer: asyncio.StreamWriter, response: HttpResponse, *, keep_alive: bool
) -> None:
    """Serialize one JSON response with Content-Length framing."""
    body = json.dumps(response.payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in sorted(response.headers.items()):
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]


async def _serve_connection(
    handler: Handler, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            try:
                request = await read_request(reader)
            except ServeError as exc:
                await write_response(
                    writer,
                    HttpResponse(400, {"error": str(exc)}),
                    keep_alive=False,
                )
                return
            if request is None:
                return
            try:
                response = await handler(request)
            except Exception as exc:  # handler bugs must not kill the server
                response = HttpResponse(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            keep = request.keep_alive and response.status != 400
            await write_response(writer, response, keep_alive=keep)
            if not keep:
                return
    except ConnectionError:
        return
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_http_server(
    handler: Handler, host: str, port: int
) -> Tuple[asyncio.AbstractServer, str, int]:
    """Bind and start serving; returns (server, bound host, bound port).

    ``port=0`` binds an ephemeral port — the returned port is the real
    one, which tests and the in-process benchmark rely on.
    """

    async def connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _serve_connection(handler, reader, writer)

    server = await asyncio.start_server(
        connection, host=host, port=port, limit=_MAX_LINE_BYTES
    )
    if not server.sockets:
        raise ServeError(f"could not bind {host}:{port}")
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    return server, str(bound_host), int(bound_port)


class HttpClient:
    """Keep-alive JSON client for one (host, port).

    Lazily connects on first use; :meth:`request` serializes the payload,
    reads the framed response and returns ``(status, payload, headers)``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _ensure_connected(
        self,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._reader is None or self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self._reader, self._writer

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        *,
        close: bool = False,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        reader, writer = await self._ensure_connected()
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        lines = [
            f"{method.upper()} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
        ]
        if close:
            lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        status, response_body, headers = await self._read_response(reader)
        if close or headers.get("connection", "").lower() == "close":
            await self.close()
        if not response_body:
            return status, {}, headers
        try:
            decoded = json.loads(response_body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError(f"response body is not JSON: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ServeError("response body must be a JSON object")
        return status, decoded, headers

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, bytes, Dict[str, str]]:
        line = await reader.readline()
        if not line:
            raise ServeError("server closed the connection before responding")
        parts = line.decode("latin-1").strip().split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ServeError(f"malformed status line: {line!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise ServeError(f"malformed status code: {parts[1]!r}") from exc
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw:
                raise ServeError("connection closed mid-headers")
            text = raw.decode("latin-1").strip()
            if not text:
                break
            name, sep, value = text.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return status, body, headers

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = None
        self._writer = None


async def request_once(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """One request on a fresh connection (convenience for tests/curl-alikes)."""
    client = HttpClient(host, port)
    try:
        return await client.request(method, path, payload, close=True)
    finally:
        await client.close()
