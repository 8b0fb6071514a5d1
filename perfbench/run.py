"""One benchmark for the whole pipeline: cold paper sweep, 4x replay, warm serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` prints every per-layer metric:
it runs the same passes untraced and then traced under
``repro.obs.recording()``, and reads the layers from the traced spans
and counters.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--write-expected`` reruns ``paper-cold`` once and records its outputs
as the values later runs are checked against.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> module in this directory.
WORKLOADS = {
    "paper-cold": "paper_cold",
    "replay-4x": "replay_4x",
    "serve-warm": "serve_warm",
}
#: Variables that would change what the pipeline does or where it writes.
UNPINNED_ENV = ("REPRO_SIM_KERNEL", "REPRO_TRACE", "REPRO_STORE_DIR")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    return parser.parse_args(argv)


def _import_workload(name: str):
    """Pin the environment, import ``repro`` from this checkout, then the
    workload module, and set the ``REPRO_SCALE`` the workload runs at."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no pipeline sources at {SRC}/repro")
    for variable in UNPINNED_ENV:
        os.environ.pop(variable, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    module = importlib.import_module(WORKLOADS[name])
    os.environ["REPRO_SCALE"] = module.SCALE
    return module


def _measure(module, args: argparse.Namespace, tmp: Path, declared: dict) -> dict:
    from repro import obs

    import common
    import layers

    probe = common.SpeedProbe()
    probe.sample()
    setup_spans = []
    if args.trace:
        with obs.recording(), layers.instrumented():
            state = module.setup(args.seed, tmp)
        setup_spans = obs.completed_spans()
        obs.reset_all()
    else:
        interpreter_s = common.interpreter_setup_s(SRC)
        started = time.perf_counter()
        state = module.setup(args.seed, tmp)
        setup_s = interpreter_s + time.perf_counter() - started
    probe.sample()
    probe.start_peak_window()

    def run_pass(pass_probe: common.SpeedProbe) -> common.PassResult:
        return module.run_pass(state, pass_probe)

    try:
        untraced = common.run_passes(run_pass, probe, args.seconds)
        leaked = {k: v for k, v in obs.debug_counters().items() if v}
        if leaked:
            raise SystemExit(f"error: untraced passes recorded telemetry: {leaked}")
        passes = list(untraced)
        if args.trace:
            traced_probe = common.SpeedProbe()
            traced_probe.sample()
            with obs.recording(), layers.instrumented():
                traced = common.run_passes(run_pass, traced_probe, args.seconds)
            passes += traced
            metrics = dict.fromkeys(declared["per_layer"], 0.0)
            metrics.update(
                layers.derive(setup_spans, obs.completed_spans(), obs.metrics.registry.snapshot())
            )
            metrics.update(module.layer_extras(state))
            metrics["obs.overhead_pct"] = 100.0 * (
                (common.seconds_per_op(traced) * traced_probe.factor())
                / (common.seconds_per_op(untraced) * probe.factor())
                - 1.0
            )
            attempted = sum(p.attempted for p in passes)
            metrics["error_rate"] = sum(p.failed for p in passes) / attempted
            kind = "per_layer"
        else:
            metrics = common.end_to_end(
                setup_s, untraced, probe.peak_rss_bytes(), probe.factor()
            )
            print(f"speed factor {probe.factor():.4f} over {len(probe.samples)} probe samples",
                  file=sys.stderr)
            kind = "end_to_end"
    finally:
        module.teardown(state)

    unknown = set(metrics) - set(declared[kind])
    missing = set(declared[kind]) - set(metrics)
    if unknown or missing:
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: {unknown or missing}")
    for result in passes:
        for failure in result.failures:
            print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not any(p.failed for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": float(value), "unit": declared[kind][name]}
            for name, value in metrics.items()
        },
    }


def _declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    declared = _declared_metrics()
    module = _import_workload(args.workload)
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        if args.write_expected:
            if not hasattr(module, "write_expected"):
                raise SystemExit(f"error: {args.workload} has no expected-value file")
            print(module.write_expected(module.setup(args.seed, tmp)))
            return 0
        result = _measure(module, args, tmp, declared)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    width = max(len(name) for name in result["metrics"])
    for name, entry in result["metrics"].items():
        print(f"{name:<{width}}  {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
