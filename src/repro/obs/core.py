"""Span tracing and metrics state — the heart of :mod:`repro.obs`.

Design constraints (DESIGN.md §10):

* **Near-zero cost when disabled.**  ``span(...)`` returns a shared
  no-op context manager and every metric mutation is a single boolean
  check, so the disabled path performs *zero* allocations — a property
  the tier-1 suite asserts with the debug counters below, not with
  timing.
* **Thread-safe.**  Span stacks are thread-local (each thread owns its
  own nesting chain); the completed-span list and the metrics registry
  mutate under one module lock.
* **Monotonic timestamps.**  Spans record ``time.perf_counter`` values
  plus one process-level anchor (:data:`EPOCH_ANCHOR`) so exporters can
  reconstruct wall-clock times without per-span ``time.time`` calls.

The global enable switch resolves from the ``REPRO_TRACE`` environment
variable at import (``0``/``false``/``off``/unset disable, anything
else enables) and can be flipped programmatically with
:func:`enable` / :func:`disable` / :func:`recording`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "TRACE_ENV",
    "EPOCH_ANCHOR",
    "SpanRecord",
    "enabled",
    "enable",
    "disable",
    "refresh_from_env",
    "recording",
    "span",
    "completed_spans",
    "graft",
    "debug_counters",
    "peak_rss_bytes",
    "reset",
]

#: Environment variable controlling the global trace switch.
TRACE_ENV = "REPRO_TRACE"

_FALSY = ("", "0", "false", "off", "no")

#: ``time.time() - time.perf_counter()`` at import: add to a span's
#: monotonic timestamps to recover approximate wall-clock seconds.
EPOCH_ANCHOR = time.time() - time.perf_counter()


def _env_enabled() -> bool:
    return os.environ.get(TRACE_ENV, "").strip().lower() not in _FALSY


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: identity, nesting, timing, attributes."""

    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    thread_id: int
    start_s: float  # perf_counter timestamp
    end_s: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "thread_id": self.thread_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": self.attrs,
        }


class _State:
    """Process-wide observability state (one instance, module-level)."""

    __slots__ = (
        "enabled",
        "lock",
        "spans",
        "spans_started",
        "metric_updates",
        "next_span_id",
        "local",
    )

    def __init__(self) -> None:
        self.enabled: bool = _env_enabled()
        self.lock = threading.Lock()
        self.spans: List[SpanRecord] = []
        self.spans_started: int = 0
        self.metric_updates: int = 0
        self.next_span_id: int = 0
        self.local = threading.local()

    def stack(self) -> List[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = []
            self.local.stack = stack
        return stack


_STATE = _State()


def _after_fork_in_child() -> None:
    """Give a forked child its own lock, an empty span buffer and no open
    spans: another parent thread may have held the lock at the fork, and
    the parent's spans are the parent's to report."""
    _STATE.lock = threading.Lock()
    _STATE.spans = []
    _STATE.spans_started = 0
    _STATE.local = threading.local()


if hasattr(os, "register_at_fork"):  # POSIX only; nothing forks elsewhere
    os.register_at_fork(after_in_child=_after_fork_in_child)


def enabled() -> bool:
    """Whether span tracing and metrics collection are active."""
    return _STATE.enabled


def enable() -> None:
    """Turn collection on (overrides the environment)."""
    _STATE.enabled = True


def disable() -> None:
    """Turn collection off; :func:`span` reverts to the no-op path."""
    _STATE.enabled = False


def refresh_from_env() -> bool:
    """Re-resolve the switch from ``REPRO_TRACE``; returns the new state."""
    _STATE.enabled = _env_enabled()
    return _STATE.enabled


def reset() -> None:
    """Drop every completed span and zero the debug counters.

    Metrics live in :mod:`repro.obs.metrics` and are reset separately
    (or together via :func:`repro.obs.reset_all`).
    """
    with _STATE.lock:
        _STATE.spans.clear()
        _STATE.spans_started = 0
        _STATE.metric_updates = 0


@contextlib.contextmanager
def recording(*, fresh: bool = True) -> Iterator[None]:
    """Enable collection inside the block, restoring the prior switch.

    ``fresh=True`` (default) also clears previously collected spans and
    metrics on entry, so the block observes only its own activity.
    """
    from repro.obs import metrics as _metrics

    previous = _STATE.enabled
    if fresh:
        reset()
        _metrics.registry.reset()
    _STATE.enabled = True
    try:
        yield
    finally:
        _STATE.enabled = previous


def completed_spans() -> List[SpanRecord]:
    """Snapshot of every span finished so far (oldest first)."""
    with _STATE.lock:
        return list(_STATE.spans)


def graft(records: Sequence[SpanRecord], *, thread_id: int) -> None:
    """Adopt spans another process completed, under this thread's open span.

    Each record gets a fresh span id and ``thread_id`` (a worker's pid,
    so the chrome export draws one lane per worker); a record whose
    parent is not among ``records`` hangs under the open span.  The
    timestamps stay as recorded: ``perf_counter`` reads one system-wide
    monotonic clock, so a forked worker's spans line up with the
    parent's.
    """
    if not records:
        return
    state = _STATE
    stack = state.stack()
    parent_id = stack[-1] if stack else -1
    with state.lock:
        ids = {}
        for record in records:
            ids[record.span_id] = state.next_span_id
            state.next_span_id += 1
        state.spans_started += len(records)
        state.spans.extend(
            dataclasses.replace(
                record,
                span_id=ids[record.span_id],
                parent_id=ids.get(record.parent_id, parent_id),
                thread_id=thread_id,
            )
            for record in records
        )


def debug_counters() -> Dict[str, int]:
    """Allocation counters backing the overhead-guard tests.

    ``spans_started`` counts real span objects created (0 while
    disabled); ``metric_updates`` counts accepted metric mutations.
    """
    with _STATE.lock:
        return {
            "spans_started": _STATE.spans_started,
            "spans_completed": len(_STATE.spans),
            "metric_updates": _STATE.metric_updates,
        }


def _count_metric_update() -> None:
    # Called by the metrics registry under its own value lock; the
    # counter here is advisory (debug), so a plain int add suffices.
    # Process-local telemetry, invisible to any artifact content or
    # replayed simulation state.
    _STATE.metric_updates += 1


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        """No-op attribute update (mirrors :class:`_LiveSpan.set`)."""


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; created only when tracing is enabled."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start_s")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        state = _STATE
        with state.lock:
            self.span_id = state.next_span_id
            state.next_span_id += 1
            state.spans_started += 1
        stack = state.stack()
        self.parent_id = stack[-1] if stack else -1
        stack.append(self.span_id)
        self.start_s = time.perf_counter()

    def set(self, **attrs: Any) -> None:
        """Attach or update attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        state = _STATE
        stack = state.stack()
        # Pop our own id even if an inner span leaked (defensive: a
        # mismatched stack must never corrupt later nesting).
        while stack and stack[-1] != self.span_id:
            stack.pop()
        if stack:
            stack.pop()
        record = SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            thread_id=threading.get_ident(),
            start_s=self.start_s,
            end_s=end,
            attrs=self.attrs,
        )
        with state.lock:
            state.spans.append(record)


def span(name: str, **attrs: Any) -> "_LiveSpan | _NullSpan":
    """Open a (nestable, thread-safe) tracing span.

    Usage::

        with span("reorder.slashburn", vertices=n):
            ...

    While tracing is disabled this returns a shared no-op context
    manager — no allocation, no timestamp, no lock.

    The live path timestamps the span and appends to the process-local
    trace buffer.  Neither observation can reach artifact content —
    tracing output is telemetry, keyed separately from every
    content-addressed key — so instrumented code may run inside a
    ``@cached_stage``.
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return _LiveSpan(name, attrs)


def peak_rss_bytes() -> Optional[int]:
    """Lifetime peak resident-set size of this process, in bytes.

    Reads ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` — kilobytes on
    Linux, bytes on macOS — and normalizes to bytes.  Returns ``None``
    on platforms without the ``resource`` module (e.g. Windows), so the
    environment snapshot degrades gracefully.  Note the value is a
    high-water mark: it never decreases within a process, which is
    exactly what the scale-tier RSS gates want to bound.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(raw)
    return int(raw) * 1024
