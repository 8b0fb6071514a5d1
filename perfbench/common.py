"""Pieces every workload of the pipeline benchmark shares.

A workload module exposes ``SCALE`` (the ``REPRO_SCALE`` it pins),
``setup(seed, tmp) -> state``, ``run_pass(state, probe) -> PassResult``,
``layer_extras(state) -> dict`` (per-layer metrics of the traced
passes that need the workload's own state) and
``teardown(state)``.  :func:`run_passes` repeats ``run_pass`` until the
run's time budget is spent; a pass is a fixed amount of work, so its
wall time is comparable across runs and commits.

A shared machine changes speed as its neighbours' load changes: on the
2-core VM the bounds were set on, by a fifth over tens of seconds.
:class:`SpeedProbe` times a fixed kernel around operations, and every
reported time is scaled to the speed at which that kernel takes
:data:`REFERENCE_PROBE_S`.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: What a fresh interpreter imports before it can run any workload.
PIPELINE_IMPORTS = (
    "import repro.bench.harness, repro.core, repro.reorder, "
    "repro.serve, repro.sim, repro.store"
)


@dataclass
class PassResult:
    """One timed pass: its wall time and one latency per operation.

    An operation is an experiment cell, a simulate call or a request.
    ``factors`` holds, per operation, the speed factor the probe measured
    around it; without them the run's factor applies.  ``failures`` holds
    one message per operation whose output was wrong or that did not
    complete.
    """

    wall_s: float
    latencies_ms: List[float]
    failures: List[str] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return len(self.failures)


#: Seconds the probe kernel typically takes on the machine the bounds in
#: BENCHMARK.json were set on (2-core Xeon VM, 2.1 GHz); times are scaled to it.
REFERENCE_PROBE_S = 0.03


class SpeedProbe:
    """Tracks the machine's speed with a kernel independent of the pipeline.

    The kernel mixes what the pipeline spends its time on, in about
    equal shares: a random gather from an 8 MB array, a NumPy sort, and
    an interpreter loop over a dict (the reference cache loop's kind of
    work).  Its inputs are rebuilt for each sample and dropped after it.

    The probe also keeps the run's peak RSS (:meth:`peak_rss_bytes`): it
    reads the kernel's high-water mark before each sample and resets it
    after, so the probe's own memory never counts.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Seconds spent probing, to subtract from the wall time around it.
        self.spent_s = 0.0
        self._peak_rss = 0

    def start_peak_window(self) -> None:
        """Count peak RSS from now on (set-up's peak is left out)."""
        _reset_high_water_mark()
        self._peak_rss = 0

    def peak_rss_bytes(self) -> int:
        return max(self._peak_rss, _high_water_mark())

    def sample(self, repeats: int = 3) -> None:
        self._peak_rss = max(self._peak_rss, _high_water_mark())
        started = time.perf_counter()
        self._run_kernel(repeats)
        self.spent_s += time.perf_counter() - started
        _reset_high_water_mark()

    def _run_kernel(self, repeats: int) -> None:
        rng = np.random.default_rng(20211017)
        data = rng.random(1 << 20)
        gather = rng.integers(0, data.size, 1 << 20, dtype=np.int32)
        keys = rng.integers(0, 1 << 30, 500_000)
        for _ in range(repeats):
            kernel_started = time.perf_counter()
            data[gather].sum()
            np.sort(keys)
            counts: Dict[int, int] = {}
            for i in range(60_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i
            self.samples.append(time.perf_counter() - kernel_started)

    def factor(self) -> float:
        """Reference speed over this run's speed (the median sample)."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)

    def timed(self, call: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``call`` between two samples: its result, milliseconds, and
        the speed factor measured around it."""
        self.sample(repeats=1)
        started = time.perf_counter()
        result = call()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.sample(repeats=1)
        return result, elapsed_ms, 2 * REFERENCE_PROBE_S / sum(self.samples[-2:])


def run_passes(
    run_pass: Callable[[SpeedProbe], PassResult], probe: SpeedProbe, seconds: float
) -> List[PassResult]:
    """Run whole passes until ``seconds`` have elapsed (at least one)."""
    passes: List[PassResult] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(probe))
        probe.sample()
    return passes


def interpreter_setup_s(src: Path, repeats: int = 3) -> float:
    """Median time for a fresh interpreter to import the pipeline."""
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", PIPELINE_IMPORTS], env=env, check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def percentile(values: List[float], q: float) -> float:
    """Percentile interpolated between the two nearest samples.

    Not the nearest rank: a pass of ``replay-4x`` has twelve operations
    in two size clusters, and the nearest-rank median jumps between them.
    """
    return float(np.percentile(values, q))


def seconds_per_op(passes: List[PassResult]) -> float:
    return sum(p.wall_s for p in passes) / sum(p.attempted for p in passes)


def end_to_end(
    setup_s: float, passes: List[PassResult], peak_rss_bytes: int, factor: float
) -> Dict[str, float]:
    """The tracing-off metrics every workload reports, times scaled by
    ``factor`` (latencies by their own factors where a pass has them)."""
    latencies = [
        ms * op_factor
        for p in passes
        for ms, op_factor in zip(p.latencies_ms, p.factors or [factor] * p.attempted)
    ]
    return {
        "setup_s": setup_s * factor,
        "wall_s": statistics.median(p.wall_s for p in passes) * factor,
        "peak_rss_mb": peak_rss_bytes / 1e6,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "throughput_ops": 1.0 / (seconds_per_op(passes) * factor),
    }


def _reset_high_water_mark() -> None:
    """Restart the kernel's peak-RSS mark at the current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _high_water_mark() -> int:
    """Peak resident set size in bytes since the last reset."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under ``root``."""
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _dirs, names in os.walk(root)
        for name in names
    )
