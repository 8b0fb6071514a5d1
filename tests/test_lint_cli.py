"""CLI behaviour of ``python -m repro.lint``: exit codes, baselines, config.

These tests build a miniature project tree (pyproject + sources) in
``tmp_path`` and drive :func:`repro.lint.cli.main` directly, so they
exercise root discovery, TOML config loading, baseline round-trips, and
the documented exit codes without spawning subprocesses.
"""

import io
import json
import textwrap

import pytest

from repro.errors import LintError
from repro.lint import Baseline, Severity, load_config
from repro.lint.config import LintConfig
from repro.lint.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main
from repro.lint.rules.base import Finding

BAD_SIM_SOURCE = textwrap.dedent(
    """
    import numpy as np

    counts = np.zeros(16)
    """
)

CLEAN_SIM_SOURCE = textwrap.dedent(
    """
    import numpy as np

    counts = np.zeros(16, dtype=np.int64)
    """
)


def make_project(tmp_path, source, pyproject_extra=""):
    (tmp_path / "pyproject.toml").write_text(
        textwrap.dedent(
            """
            [project]
            name = "fixture"

            [tool.repro-lint]
            dtype-scopes = ["src/repro/sim"]
            hot-path-modules = []
            edge-loop-allow = []
            """
        )
        + textwrap.dedent(pyproject_extra)
    )
    module = tmp_path / "src" / "repro" / "sim" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(source)
    return tmp_path


def run(tmp_path, *argv):
    out = io.StringIO()
    code = main(["--root", str(tmp_path), str(tmp_path / "src"), *argv], stream=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        make_project(tmp_path, CLEAN_SIM_SOURCE)
        code, output = run(tmp_path)
        assert code == EXIT_OK
        assert "clean" in output

    def test_findings_exit_nonzero_with_file_line_output(self, tmp_path):
        make_project(tmp_path, BAD_SIM_SOURCE)
        code, output = run(tmp_path)
        assert code == EXIT_FINDINGS
        assert "src/repro/sim/mod.py:4:" in output
        assert "RL001" in output

    def test_bad_path_is_usage_error(self, tmp_path):
        make_project(tmp_path, CLEAN_SIM_SOURCE)
        code = main(["--root", str(tmp_path), str(tmp_path / "nope")])
        assert code == EXIT_USAGE

    def test_unknown_select_is_usage_error(self, tmp_path):
        make_project(tmp_path, CLEAN_SIM_SOURCE)
        code, _ = run(tmp_path, "--select", "RL999")
        assert code == EXIT_USAGE

    def test_list_rules(self, tmp_path):
        out = io.StringIO()
        assert main(["--list-rules"], stream=out) == EXIT_OK
        listed = out.getvalue()
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert code in listed


class TestBaseline:
    def test_write_then_lint_is_clean(self, tmp_path):
        make_project(tmp_path, BAD_SIM_SOURCE)
        code, output = run(tmp_path, "--write-baseline")
        assert code == EXIT_OK
        assert "wrote 1 finding(s)" in output

        code, output = run(tmp_path)
        assert code == EXIT_OK
        assert "1 baselined" in output

    def test_new_finding_not_covered_by_baseline(self, tmp_path):
        make_project(tmp_path, BAD_SIM_SOURCE)
        run(tmp_path, "--write-baseline")
        module = tmp_path / "src" / "repro" / "sim" / "mod.py"
        module.write_text(BAD_SIM_SOURCE + "extra = np.ones(4)\n")
        code, output = run(tmp_path)
        assert code == EXIT_FINDINGS
        assert "np.ones" not in output  # rendered message names numpy.ones
        assert output.count("RL001") == 1  # only the *new* finding surfaces

    def test_baseline_survives_line_moves(self, tmp_path):
        make_project(tmp_path, BAD_SIM_SOURCE)
        run(tmp_path, "--write-baseline")
        module = tmp_path / "src" / "repro" / "sim" / "mod.py"
        module.write_text("# a new leading comment\n" + BAD_SIM_SOURCE)
        code, _ = run(tmp_path)
        assert code == EXIT_OK

    def test_no_baseline_flag_reports_everything(self, tmp_path):
        make_project(tmp_path, BAD_SIM_SOURCE)
        run(tmp_path, "--write-baseline")
        code, output = run(tmp_path, "--no-baseline")
        assert code == EXIT_FINDINGS
        assert "RL001" in output

    def test_corrupt_baseline_is_config_error(self, tmp_path):
        make_project(tmp_path, CLEAN_SIM_SOURCE)
        (tmp_path / "lint-baseline.json").write_text("{not json")
        code, _ = run(tmp_path)
        assert code == EXIT_USAGE

    def test_baseline_file_format(self, tmp_path):
        make_project(tmp_path, BAD_SIM_SOURCE)
        run(tmp_path, "--write-baseline")
        data = json.loads((tmp_path / "lint-baseline.json").read_text())
        assert data["version"] == 1
        (fingerprint, count), = data["entries"].items()
        assert fingerprint.startswith("src/repro/sim/mod.py::RL001::")
        assert count == 1

    def test_filter_counts_duplicate_fingerprints(self):
        finding = Finding(
            code="RL001",
            severity=Severity.ERROR,
            relpath="m.py",
            line=3,
            col=0,
            message="msg",
            source_line="x = np.zeros(3)",
        )
        twin = Finding(
            code="RL001",
            severity=Severity.ERROR,
            relpath="m.py",
            line=9,
            col=0,
            message="msg",
            source_line="x = np.zeros(3)",
        )
        baseline = Baseline.from_findings([finding])
        fresh, suppressed = baseline.filter([finding, twin])
        assert suppressed == [finding]
        assert fresh == [twin]


class TestConfigLoading:
    def test_pyproject_severity_override(self, tmp_path):
        make_project(
            tmp_path,
            BAD_SIM_SOURCE,
            pyproject_extra="""
            [tool.repro-lint.severity]
            RL001 = "warn"
            """,
        )
        config = load_config(tmp_path)
        assert config.severity_overrides["RL001"] is Severity.WARN

    def test_invalid_severity_rejected(self, tmp_path):
        make_project(
            tmp_path,
            CLEAN_SIM_SOURCE,
            pyproject_extra="""
            [tool.repro-lint.severity]
            RL001 = "fatal"
            """,
        )
        with pytest.raises(LintError):
            load_config(tmp_path)

    def test_unknown_key_rejected(self, tmp_path):
        make_project(
            tmp_path,
            CLEAN_SIM_SOURCE,
            pyproject_extra="""
            [tool.repro-lint]
            typo-key = true
            """,
        )
        # The extra block redefines [tool.repro-lint]; TOML forbids the
        # duplicate table, which must also surface as a LintError.
        with pytest.raises(LintError):
            load_config(tmp_path)

    def test_missing_table_uses_defaults(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
        config = load_config(tmp_path)
        assert config.baseline == "lint-baseline.json"
        assert "src/repro/sim" in config.dtype_scopes


class TestRepoGate:
    """The committed tree must satisfy its own gate (acceptance criterion)."""

    def test_repo_lints_clean(self, repo_root):
        out = io.StringIO()
        code = main(
            ["--root", str(repo_root), str(repo_root / "src")], stream=out
        )
        assert code == EXIT_OK, out.getvalue()

    def test_effect_roots_match_builtin_defaults(self, repo_root):
        # The contract roots must not depend on whether a TOML parser
        # is available to read [tool.repro-lint].
        committed = load_config(repo_root)
        builtin = LintConfig()
        assert committed.effects_replay_safe == builtin.effects_replay_safe
        assert committed.effects_deterministic == builtin.effects_deterministic
