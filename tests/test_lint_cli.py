"""CLI behaviour of ``python -m repro.lint``: exit codes and root discovery.

These tests build a miniature project tree (pyproject + sources) in
``tmp_path`` and drive :func:`repro.lint.cli.main` directly, so they
exercise root discovery and the documented exit codes without spawning
subprocesses.
"""

import io
import textwrap

import pytest

from repro.lint.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main

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


def make_project(tmp_path, source, pyproject_extra="", module="src/repro/sim/mod.py"):
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "fixture"\n' + textwrap.dedent(pyproject_extra)
    )
    path = tmp_path / module
    path.parent.mkdir(parents=True)
    path.write_text(source)
    return tmp_path


def run(tmp_path, *argv):
    out = io.StringIO()
    code = main([str(tmp_path / "src"), *argv], stream=out)
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
        code = main([str(tmp_path / "nope")])
        assert code == EXIT_USAGE

    def test_unknown_select_is_usage_error(self, tmp_path):
        make_project(tmp_path, CLEAN_SIM_SOURCE)
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "--select", "RL999")
        assert exc.value.code == EXIT_USAGE

    def test_only_paths_are_accepted(self, tmp_path):
        make_project(tmp_path, BAD_SIM_SOURCE)
        for flag in (
            "--root",
            "--baseline",
            "--no-baseline",
            "--write-baseline",
            "--check-baseline",
            "--list-rules",
            "-q",
        ):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, flag)
            assert exc.value.code == EXIT_USAGE, flag
        assert not (tmp_path / "lint-baseline.json").exists()


class TestConfigLoading:
    """The linter reads no settings: its scopes are constants."""

    def test_missing_table_uses_defaults(self, tmp_path):
        # dbg.py is one of the scopes a fallback without a TOML parser
        # once dropped; it is checked by RL001 and RL003 alike.
        source = BAD_SIM_SOURCE + "for edge in edges:\n    pass\n"
        make_project(tmp_path, source, module="src/repro/reorder/dbg.py")
        code, output = run(tmp_path)
        assert code == EXIT_FINDINGS
        assert "src/repro/reorder/dbg.py:4:9: RL001" in output
        assert "src/repro/reorder/dbg.py:5:0: RL003" in output

    def test_pyproject_table_cannot_narrow_scopes(self, tmp_path):
        make_project(
            tmp_path,
            BAD_SIM_SOURCE,
            pyproject_extra="""
            [tool.repro-lint]
            dtype-scopes = ["src/repro/graph"]
            disabled-rules = ["RL001"]
            """,
        )
        code, output = run(tmp_path)
        assert code == EXIT_FINDINGS
        assert "src/repro/sim/mod.py:4:9: RL001" in output


class TestRepoGate:
    """The committed tree must satisfy its own gate (acceptance criterion)."""

    def test_repo_lints_clean(self, repo_root):
        out = io.StringIO()
        code = main([str(repo_root / "src")], stream=out)
        assert code == EXIT_OK, out.getvalue()
