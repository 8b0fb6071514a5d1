"""Metrics registry: counters, gauges, and histograms.

Naming scheme (DESIGN.md §10): dot-separated ``<layer>.<subject>[.<verb>]``
— e.g. ``sim.accesses``, ``store.hit``, ``reorder.iterations``.  All
instruments no-op while :func:`repro.obs.enabled` is false, so hot
paths may call them unconditionally; instrument *per batch*, never per
element (the cache kernels count one ``inc(n)`` per simulate call, not
one per access).
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, List, Optional, Tuple, Union

from repro.obs import core as _core

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "percentiles",
]

Number = Union[int, float]

#: Ring-buffer capacity backing :meth:`Histogram.percentiles`.  Recent
#: observations overwrite the oldest once full, so a long-running
#: histogram reports percentiles of its trailing window rather than
#: growing without bound.
HISTOGRAM_RESERVOIR = 4096


def percentiles(
    values: "list[float]", qs: "tuple[Number, ...]" = (50, 95, 99)
) -> Dict[str, float]:
    """Nearest-rank percentiles of ``values`` as ``{"p50": ...}``.

    Shared by :class:`Histogram` and the serving load harness so both
    report latencies with the same (deterministic, interpolation-free)
    definition.  Raises on an empty sample set — callers decide how to
    render "no data".
    """
    if not values:
        from repro.errors import ObservabilityError

        raise ObservabilityError("cannot take percentiles of an empty sample set")
    ordered = sorted(values)
    out: Dict[str, float] = {}
    for q in qs:
        if not 0 < q <= 100:
            from repro.errors import ObservabilityError

            raise ObservabilityError(f"percentile must be in (0, 100], got {q!r}")
        rank = max(1, math.ceil(len(ordered) * (float(q) / 100.0)))
        label = f"{float(q):g}".replace(".", "_")
        out[f"p{label}"] = ordered[rank - 1]
    return out


class Counter:
    """Monotonically increasing count (events, bytes, accesses)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if not _core.enabled():
            return
        with self._lock:
            self.value += amount
            _core._count_metric_update()

    def to_dict(self) -> Dict[str, Number]:
        return {"value": self.value}


class Gauge:
    """Last-write-wins sampled value (sizes, ratios, levels)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        if not _core.enabled():
            return
        with self._lock:
            self.value = value
            _core._count_metric_update()

    def to_dict(self) -> Dict[str, Optional[Number]]:
        return {"value": self.value}


class Histogram:
    """Streaming summary (count/total/min/max/percentiles) of observations.

    A full bucketed histogram is overkill for the pipeline's needs —
    per-phase durations and batch sizes — so this records the moments a
    summary line can be built from, plus a bounded reservoir of the most
    recent :data:`HISTOGRAM_RESERVOIR` samples so honest tail latencies
    (:meth:`percentiles`) are available without unbounded memory.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_next", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._next: int = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        if not _core.enabled():
            return
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if len(self._samples) < HISTOGRAM_RESERVOIR:
                self._samples.append(value)
            else:
                self._samples[self._next] = value
                self._next = (self._next + 1) % HISTOGRAM_RESERVOIR
            _core._count_metric_update()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(
        self, qs: Tuple[Number, ...] = (50, 95, 99)
    ) -> Dict[str, float]:
        """Nearest-rank percentiles over the sample reservoir.

        The reservoir keeps the most recent observations (up to
        :data:`HISTOGRAM_RESERVOIR`), so for long streams these are
        trailing-window percentiles.  Raises when nothing was observed.
        """
        with self._lock:
            samples = list(self._samples)
        return percentiles(samples, qs)

    def to_dict(self) -> Dict[str, Optional[Number]]:
        out: Dict[str, Optional[Number]] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        if self._samples:
            out.update(self.percentiles())
        return out


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Process-wide named-instrument registry.

    Instruments are created on first use and live for the process; a
    name is bound to one instrument type (requesting ``counter(x)``
    after ``gauge(x)`` raises, catching naming-scheme typos early).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, cls: type) -> Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                from repro.errors import ObservabilityError

                raise ObservabilityError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"requested as {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        instrument = self._get(name, Counter)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._get(name, Gauge)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._get(name, Histogram)
        assert isinstance(instrument, Histogram)
        return instrument

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments as ``{name: {"type": ..., **values}}``."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, Dict[str, object]] = {}
        for instrument in sorted(instruments, key=lambda i: i.name):
            entry: Dict[str, object] = {
                "type": type(instrument).__name__.lower()
            }
            entry.update(instrument.to_dict())
            out[instrument.name] = entry
        return out

    def counter_delta(
        self, before: Dict[str, Dict[str, object]]
    ) -> Dict[str, Number]:
        """Counter increments since a previous :meth:`snapshot`.

        Gauges and histograms are point-in-time/stream summaries and do
        not difference meaningfully, so only counters participate.
        """
        deltas: Dict[str, Number] = {}
        for name, entry in self.snapshot().items():
            if entry.get("type") != "counter":
                continue
            now = entry.get("value", 0)
            prior = before.get(name, {}).get("value", 0)
            assert isinstance(now, (int, float)) and isinstance(
                prior, (int, float)
            )
            if now != prior:
                deltas[name] = now - prior
        return deltas

    def reset(self) -> None:
        """Drop every instrument (tests and fresh recordings)."""
        with self._lock:
            self._instruments.clear()


#: The shared registry every instrumented layer writes to.
registry = MetricsRegistry()


def _after_fork_in_child() -> None:
    """Fresh locks in a forked child: another parent thread may have held
    one at the fork."""
    registry._lock = threading.Lock()
    for instrument in registry._instruments.values():
        instrument._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; nothing forks elsewhere
    os.register_at_fork(after_in_child=_after_fork_in_child)
