"""Linter configuration: built-in defaults plus a ``pyproject.toml`` block.

Configuration lives under ``[tool.repro-lint]``.  Parsing uses
:mod:`tomllib` on Python 3.11+ and falls back to ``tomli`` when it is
installed; when neither is available the built-in defaults (which match
this repository's committed ``pyproject.toml``) are used, so the linter
degrades gracefully on minimal 3.9/3.10 environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import LintError
from repro.lint.rules.base import Severity

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - version-dependent fallback
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None  # type: ignore[assignment]

__all__ = ["LintConfig", "load_config", "find_root"]

CONFIG_TABLE = "repro-lint"

#: Default scopes mirror the committed [tool.repro-lint] block so the
#: linter behaves identically with and without a TOML parser.
_DEFAULT_DTYPE_SCOPES = ("src/repro/sim", "src/repro/graph")
_DEFAULT_HOT_PATH_MODULES = (
    "src/repro/sim/_kernels.py",
    "src/repro/sim/cache.py",
    "src/repro/graph/csr.py",
)
_DEFAULT_EDGE_LOOP_ALLOW = (
    "src/repro/sim/cache.py::SetAssociativeCache._simulate_reference",
)
_DEFAULT_ALLOWED_RAISES = (
    "NotImplementedError",
    "SystemExit",
    "KeyboardInterrupt",
    "StopIteration",
)
#: Extra RL006 roots beyond auto-detected ``@cached_stage`` functions:
#: the memo wrapper is the choke point every stage execution flows through.
_DEFAULT_EFFECTS_DETERMINISTIC = (
    "src/repro/store/memo.py::cached_stage.decorate.wrapper",
)
#: RL007 roots: process-worker entry points (re-running a job must be
#: undetectable).
_DEFAULT_EFFECTS_REPLAY_SAFE = ("src/repro/serve/worker.py::execute_job",)


@dataclass(frozen=True)
class LintConfig:
    """Immutable, fully-resolved linter settings."""

    root: Path = field(default_factory=Path.cwd)
    baseline: str = "lint-baseline.json"
    dtype_scopes: Tuple[str, ...] = _DEFAULT_DTYPE_SCOPES
    hot_path_modules: Tuple[str, ...] = _DEFAULT_HOT_PATH_MODULES
    edge_loop_allow: Tuple[str, ...] = _DEFAULT_EDGE_LOOP_ALLOW
    allowed_raises: Tuple[str, ...] = _DEFAULT_ALLOWED_RAISES
    disabled_rules: Tuple[str, ...] = ()
    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)
    effects_deterministic: Tuple[str, ...] = _DEFAULT_EFFECTS_DETERMINISTIC
    effects_replay_safe: Tuple[str, ...] = _DEFAULT_EFFECTS_REPLAY_SAFE
    effects_cache: str = ".repro-lint-cache"

    def severity_for(self, code: str, default: Severity) -> Severity:
        return self.severity_overrides.get(code, default)

    def rule_enabled(self, code: str) -> bool:
        return code not in self.disabled_rules

    @property
    def baseline_path(self) -> Path:
        return self.root / self.baseline


def find_root(start: Path) -> Path:
    """Directory owning the governing ``pyproject.toml`` (or ``start``)."""
    start = start.resolve()
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.repro-lint]`` from ``root/pyproject.toml``.

    Missing file, missing table, or missing TOML parser all yield the
    defaults; malformed values raise :class:`LintError` so CI fails loudly
    rather than silently linting with the wrong settings.
    """
    root = root.resolve()
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if _toml is None or not pyproject.is_file():
        return config
    try:
        with open(pyproject, "rb") as fh:
            data = _toml.load(fh)
    except Exception as exc:  # tomllib.TOMLDecodeError, OSError
        raise LintError(f"cannot parse {pyproject}: {exc}") from exc
    table = data.get("tool", {}).get(CONFIG_TABLE, {})
    if not table:
        return config
    return _apply_table(config, table, source=str(pyproject))


def _apply_table(
    config: LintConfig, table: Dict[str, Any], *, source: str
) -> LintConfig:
    updates: Dict[str, Any] = {}
    for key, value in table.items():
        if key == "baseline":
            updates["baseline"] = _expect_str(key, value, source)
        elif key == "dtype-scopes":
            updates["dtype_scopes"] = _expect_str_list(key, value, source)
        elif key == "hot-path-modules":
            updates["hot_path_modules"] = _expect_str_list(key, value, source)
        elif key == "edge-loop-allow":
            updates["edge_loop_allow"] = _expect_str_list(key, value, source)
        elif key == "allowed-raises":
            updates["allowed_raises"] = _expect_str_list(key, value, source)
        elif key == "disabled-rules":
            updates["disabled_rules"] = _expect_str_list(key, value, source)
        elif key == "severity":
            updates["severity_overrides"] = _parse_severity(value, source)
        elif key == "effects-deterministic":
            updates["effects_deterministic"] = _expect_str_list(key, value, source)
        elif key == "effects-replay-safe":
            updates["effects_replay_safe"] = _expect_str_list(key, value, source)
        elif key == "effects-cache":
            updates["effects_cache"] = _expect_str(key, value, source)
        else:
            raise LintError(f"{source}: unknown [tool.{CONFIG_TABLE}] key {key!r}")
    return replace(config, **updates)


def _parse_severity(value: Any, source: str) -> Dict[str, Severity]:
    if not isinstance(value, dict):
        raise LintError(f"{source}: severity must be a table of CODE = level")
    overrides: Dict[str, Severity] = {}
    for code, level in value.items():
        try:
            overrides[code] = Severity(level)
        except ValueError:
            valid = ", ".join(s.value for s in Severity)
            raise LintError(
                f"{source}: severity.{code} = {level!r}; expected one of {valid}"
            ) from None
    return overrides


def _expect_str(key: str, value: Any, source: str) -> str:
    if not isinstance(value, str):
        raise LintError(f"{source}: {key} must be a string")
    return value


def _expect_str_list(key: str, value: Any, source: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LintError(f"{source}: {key} must be a list of strings")
    return tuple(value)


def default_config(root: Optional[Path] = None) -> LintConfig:
    """Defaults without touching the filesystem (used by tests)."""
    return LintConfig(root=(root or Path.cwd()).resolve())
