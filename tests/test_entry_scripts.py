"""The scripts outside ``src/`` that call the library still import and run.

``perfbench/`` is the pipeline benchmark: a deletion in ``src/`` that
breaks one of its ``repro`` imports would otherwise surface only when
the benchmark is run.  The examples are the only callers of several
top-level exports (``pagerank`` among them).
"""

import os
import subprocess
import sys

import pytest

PERFBENCH_MODULES = ("common", "layers", "paper_cold", "replay_4x", "serve_warm", "run")
EXAMPLES = ("quickstart", "pagerank_locality", "custom_reordering", "social_vs_web")


def _env(repo_root, **extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(repo_root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


def test_perfbench_modules_import(repo_root):
    """Import every perfbench module, and run the import line its
    ``setup_s`` probe times, without running a workload."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(repo_root / 'perfbench')!r})\n"
        f"import {', '.join(PERFBENCH_MODULES)}\n"
        "exec(common.PIPELINE_IMPORTS)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env=_env(repo_root),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-4000:]


@pytest.mark.slow
@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(repo_root, tmp_path, name):
    result = subprocess.run(
        [sys.executable, str(repo_root / "examples" / f"{name}.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_env(repo_root, REPRO_SCALE="0.1"),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
