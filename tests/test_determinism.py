"""Runtime determinism check: every stored stage is a pure function of its key.

The paper's miss rates, ECS and Table II overheads come from a
deterministic trace simulation, so an artifact stored under a content
key must not depend on anything the key leaves out: the clock, the hash
seed, unseeded randomness or the environment.  This test computes the
whole pipeline twice, in two fresh interpreters that differ in exactly
those inputs, and requires the same answers from both:

* ``PYTHONHASHSEED`` is 0 in one process and 1 in the other;
* before ``repro`` is imported, each process replaces the six ``time``
  clocks with virtual ones that return ``base + n * step`` on their
  n-th call, from a different ``base``.  The two bases differ by an odd
  number of seconds, milliseconds, microseconds and nanoseconds, and
  the step is even in each unit, so any clock parity differs too;
* ``os.environ`` is replaced by a mapping that records every key a
  ``repro.*`` module reads.

Each process fills its own store with the ``graph``, ``reordering``,
``aid`` and ``simulation`` stages of ``twtr-mini`` under
every registered RA, then runs one serve job of each kind.  The parent
compares the decoded content of every artifact, the job results and
the environment reads.  The only exempt value is the reordering's one
measurement, ``preprocessing_seconds``.

The file doubles as the child program: ``python test_determinism.py
OUT STORE BASE_NS`` runs one side and writes its JSON summary to OUT.
It imports nothing from ``repro`` at module level, so the child can
install its clocks and environment first.
"""

import itertools
import json
import os
import subprocess
import sys
from collections.abc import MutableMapping
from pathlib import Path

DATASET = "twtr-mini"
JOB_ALGORITHM = "slashburn"

#: Measured, not computed: the only stored value two computations of
#: one key may disagree on (see ``ReorderingSerializer``).
MEASURED_FIELDS = ("preprocessing_seconds",)

#: Environment keys repro may read; both are part of what a run means.
ALLOWED_ENV_KEYS = {"REPRO_SCALE", "REPRO_TRACE"}

_CLOCKS = (
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns",
)
_BASE_NS = 10**18
#: Odd in s, ms, us and ns; the step below is even in each of them.
_BASE_OFFSET_NS = 1_001_001_001
_STEP_NS = 2_000_000_000
#: Modules between a caller and the mapping (``os.getenv``, ``Mapping.get``).
_ENV_PLUMBING = {"os", "_collections_abc", "collections.abc"}


# -- child side ----------------------------------------------------------------


def _install_clocks(base_ns):
    import time

    for name in _CLOCKS:
        ticks = itertools.count()
        if name.endswith("_ns"):
            clock = lambda ticks=ticks: base_ns + next(ticks) * _STEP_NS  # noqa: E731
        else:
            clock = lambda ticks=ticks: (base_ns + next(ticks) * _STEP_NS) / 1e9  # noqa: E731
        setattr(time, name, clock)


class _RecordingEnviron(MutableMapping):
    """``os.environ`` stand-in that notes every key a repro module reads."""

    def __init__(self, environ):
        self._environ = environ
        self.reads = set()

    def _note(self, key):
        frame = sys._getframe(2)
        while frame is not None and frame.f_globals.get("__name__") in _ENV_PLUMBING:
            frame = frame.f_back
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        if module == "repro" or module.startswith("repro."):
            self.reads.add(key)

    def __getitem__(self, key):
        self._note(key)
        return self._environ[key]

    def __iter__(self):
        self._note("<every key>")
        return iter(self._environ)

    def __len__(self):
        return len(self._environ)

    def __setitem__(self, key, value):
        self._environ[key] = value

    def __delitem__(self, key):
        del self._environ[key]


def _content(value):
    """JSON form of decoded artifact content: arrays become digests."""
    import dataclasses
    import hashlib

    import numpy as np

    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"{value.dtype.str}{list(value.shape)}:{digest}"
    if isinstance(value, np.generic):
        value = value.item()
    if dataclasses.is_dataclass(value):
        return {
            f.name: _content(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if hasattr(value, "__slots__"):
        return {name: _content(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, dict):
        return {str(k): _content(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_content(v) for v in value]
    if isinstance(value, float):
        return float.hex(value)
    return value


def _child(out_path, store_root, base_ns):
    _install_clocks(base_ns)
    environ = _RecordingEnviron(os.environ)
    os.environ = environ

    from repro.bench.workloads import Workloads
    from repro.reorder import algorithm_names
    from repro.serve.jobs import JOB_KINDS, canonical_job
    from repro.serve.worker import execute_job
    from repro.store.store import ArtifactStore

    store = ArtifactStore(store_root)
    workloads = Workloads(store=store)
    for algorithm in algorithm_names():
        workloads.reordering(DATASET, algorithm)
        workloads.aid(DATASET, algorithm)
        workloads.simulation(DATASET, algorithm)
    jobs = {
        kind: execute_job(
            canonical_job({"dataset": DATASET, "algorithm": JOB_ALGORITHM}, kind=kind),
            store_root,
        )
        for kind in JOB_KINDS
    }
    summary = {
        "artifacts": {
            f"{info.kind}/{info.key}": _content(store.get(info.key, info.kind))
            for info in store.infos()
        },
        "jobs": _content(jobs),
        "env_reads": sorted(environ.reads),
    }
    Path(out_path).write_text(json.dumps(summary))


# -- parent side ---------------------------------------------------------------


def _without_measured(content):
    return {k: v for k, v in content.items() if k not in MEASURED_FIELDS}


def _run_pair(tmp_path):
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for index in (0, 1):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_SCALE"] = "0.1"
        env["PYTHONHASHSEED"] = str(index)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = tmp_path / f"run{index}.json"
        err = tmp_path / f"run{index}.err"
        argv = [
            sys.executable, str(Path(__file__).resolve()), str(out),
            str(tmp_path / f"store{index}"),
            str(_BASE_NS + index * _BASE_OFFSET_NS),
        ]
        with open(err, "w") as stderr:
            proc = subprocess.Popen(
                argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr
            )
        runs.append((proc, out, err))
    summaries = []
    try:
        for proc, out, err in runs:
            code = proc.wait(timeout=300)
            assert code == 0, f"child exited {code}:\n{err.read_text()[-4000:]}"
            summaries.append(json.loads(out.read_text()))
    finally:
        for proc, _, _ in runs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return summaries


def test_stages_and_jobs_are_pure_functions_of_their_keys(tmp_path):
    first, second = _run_pair(tmp_path)
    problems = []

    only = sorted(set(first["artifacts"]) ^ set(second["artifacts"]))
    if only:
        problems.append(f"artifact keys computed by one process only: {only}")
    for name in sorted(set(first["artifacts"]) & set(second["artifacts"])):
        a, b = first["artifacts"][name], second["artifacts"][name]
        if name.startswith("reordering/"):
            a, b = _without_measured(a), _without_measured(b)
        if a != b:
            fields = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            problems.append(f"{name} differs in {fields}")

    for kind in sorted(set(first["jobs"]) | set(second["jobs"])):
        a, b = first["jobs"].get(kind), second["jobs"].get(kind)
        if a is None or b is None:
            problems.append(f"{kind} job ran in one process only")
            continue
        a = dict(a, result=_without_measured(a["result"]))
        b = dict(b, result=_without_measured(b["result"]))
        if a != b:
            problems.append(f"{kind} job results differ:\n  {a}\n  {b}")

    for run in (first, second):
        extra = sorted(set(run["env_reads"]) - ALLOWED_ENV_KEYS)
        if extra:
            problems.append(f"repro read environment keys {extra}")

    assert not problems, "\n".join(problems)
    # The harness itself works: the stages ran, and the recorder saw the
    # one read every graph key depends on.
    assert len(first["artifacts"]) > 0
    assert "REPRO_SCALE" in first["env_reads"]


if __name__ == "__main__":
    _child(sys.argv[1], sys.argv[2], int(sys.argv[3]))
