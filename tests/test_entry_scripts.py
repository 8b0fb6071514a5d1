"""The scripts outside ``src/`` that call the library still import and run.

``perfbench/`` is the pipeline benchmark: a deletion in ``src/`` that
breaks one of its ``repro`` imports would otherwise surface only when
the benchmark is run.  The examples are the only callers of several
top-level exports (``pagerank`` among them).

A package ``__init__`` re-exports only the names that some non-test
caller imports through it; tests import from the defining modules.
``PACKAGE_EXPORTS`` pins each package's ``__all__``, and the import
gate below checks every caller against it, as mypy's
``no_implicit_reexport`` does in CI.
"""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

PERFBENCH_MODULES = ("common", "layers", "paper_cold", "replay_4x", "serve_warm", "run")
EXAMPLES = ("quickstart", "pagerank_locality", "custom_reordering", "social_vs_web")

# A name joins a package's ``__all__`` only together with the non-test
# caller (``src/``, ``examples/``, ``perfbench/``, ``benchmarks/``, CI or
# the docs) that imports it through that package.
PACKAGE_EXPORTS = {
    "repro": {
        "__version__",
        "LocalityAnalyzer",
        "ReorderingAlgorithm",
        "SimulationConfig",
        "algorithm_names",
        "get_algorithm",
        "load_dataset",
        "pagerank",
        "simulate_spmv",
    },
    "repro.bench": {"experiment_ids", "run_experiment", "run_experiments"},
    "repro.core": {
        "LocalityAnalyzer",
        "aid_per_vertex",
        "format_matrix",
        "format_series",
        "format_table",
    },
    "repro.generate": {"load_dataset", "social_network", "web_graph"},
    "repro.graph": {"Graph", "invert_permutation", "sort_order_to_relabeling"},
    "repro.lint": set(),
    "repro.lint.rules": {"RULES"},
    "repro.obs": {
        "SpanRecord",
        "completed_spans",
        "debug_counters",
        "disable",
        "enable",
        "enabled",
        "load_run",
        "metrics",
        "peak_rss_bytes",
        "recording",
        "reset_all",
        "save_chrome_trace",
        "save_run",
        "span",
    },
    "repro.reorder": {"ReorderResult", "algorithm_names", "get_algorithm"},
    "repro.serve": {"HttpClient", "ReorderService"},
    "repro.sim": {
        "AddressSpace",
        "CacheConfig",
        "Region",
        "SetAssociativeCache",
        "SimulationConfig",
        "simulate_spmv",
        "simulate_spmv_streamed",
        "spmv_trace",
    },
    "repro.store": {"ArtifactStore", "RunManifest", "code_version", "default_store_dir"},
}

CALLER_DIRS = ("src", "examples", "perfbench", "benchmarks")


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


def _packages(repo_root):
    """Dotted names of every package under ``src/repro`` except the
    experiment modules' namespace, which has no ``__all__``."""
    src = repo_root / "src"
    return sorted(
        ".".join(init.parent.relative_to(src).parts)
        for init in (src / "repro").rglob("__init__.py")
        if init.parent.name != "experiments"
    )


def _is_submodule(repo_root, package, name):
    path = repo_root / "src" / package.replace(".", "/") / name
    return path.is_dir() or path.with_suffix(".py").is_file()


def _package_imports(repo_root, packages, inits=True):
    """``(where, package, name)`` for every name a caller outside
    ``tests/`` takes from a package: ``from P import X``, and ``P.X``
    after ``from repro import P``."""
    found = []
    for top in CALLER_DIRS:
        for path in sorted((repo_root / top).rglob("*.py")):
            if path.name == "__init__.py" and not inits:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            where = str(path.relative_to(repo_root))
            aliases = {}
            for node in ast.walk(tree):
                if not (isinstance(node, ast.ImportFrom) and node.module in packages):
                    continue
                for alias in node.names:
                    found.append((where, node.module, alias.name))
                    dotted = f"{node.module}.{alias.name}"
                    if dotted in packages:
                        aliases[alias.asname or alias.name] = dotted
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                ):
                    found.append((where, aliases[node.value.id], node.attr))
    return found


def test_package_exports_are_pinned(repo_root):
    packages = _packages(repo_root)
    assert set(packages) == set(PACKAGE_EXPORTS)
    for package in packages:
        exported = importlib.import_module(package).__all__
        assert len(exported) == len(set(exported)), package
        assert set(exported) == PACKAGE_EXPORTS[package], package


def test_every_export_resolves(repo_root):
    for package in _packages(repo_root):
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{package}.__all__ names {missing}"


def test_callers_import_only_exported_names(repo_root):
    """The offline stand-in for CI's strict re-export gate: a name taken
    from a package must be one of its submodules or in its ``__all__``."""
    packages = set(_packages(repo_root))
    bad = [
        f"{where}: {package}.{name}"
        for where, package, name in _package_imports(repo_root, packages)
        if name not in PACKAGE_EXPORTS[package]
        and not _is_submodule(repo_root, package, name)
    ]
    assert not bad, "names not in the package's __all__:\n" + "\n".join(bad)


def test_every_export_has_a_caller(repo_root):
    """The converse: no package re-exports a name that only tests, or
    only another ``__init__``, import through it."""
    packages = set(_packages(repo_root))
    used = {
        (package, name)
        for _, package, name in _package_imports(repo_root, packages, inits=False)
    }
    used |= {(package, name) for package, name in _doc_imports(repo_root)}
    unused = sorted(
        f"{package}.{name}"
        for package in packages
        for name in importlib.import_module(package).__all__
        if (package, name) not in used
    )
    assert not unused, unused


_DOC_IMPORT = re.compile(r"from (repro(?:\.\w+)*) import (\([^)]*\)|[\w ,]+)")


def _doc_import_lines(repo_root):
    """Every ``from repro... import ...`` in the README and DESIGN code
    blocks, in the CI workflow's inline Python, and in the package
    docstrings, each normalized to one line."""
    texts = []
    for doc in ("README.md", "DESIGN.md"):
        text = (repo_root / doc).read_text()
        texts += re.findall(r"^```[a-z]*\n(.*?)^```", text, re.S | re.M)
    texts.append((repo_root / ".github" / "workflows" / "ci.yml").read_text())
    for init in sorted((repo_root / "src" / "repro").rglob("__init__.py")):
        texts.append(ast.get_docstring(ast.parse(init.read_text())) or "")
    lines = []
    for text in texts:
        for module, names in _DOC_IMPORT.findall(text):
            names = " ".join(names.strip("()").split()).rstrip(",")
            lines.append(f"from {module} import {names}")
    return sorted(set(lines))


def _doc_imports(repo_root):
    for line in _doc_import_lines(repo_root):
        module, names = line[len("from ") :].split(" import ")
        for name in names.split(","):
            yield module, name.split(" as ")[0].strip()


def test_doc_import_lines_run(repo_root):
    lines = _doc_import_lines(repo_root)
    # The CI workflow's cache key and trace check, and the README quickstart.
    for expected in (
        "from repro.store import code_version",
        "from repro.obs import load_run",
        "from repro import load_dataset, get_algorithm, simulate_spmv, SimulationConfig",
    ):
        assert expected in lines
    result = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env=_env(repo_root),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-4000:]
