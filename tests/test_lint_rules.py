"""Fixture-driven good/bad snippets for every invariant-linter rule.

Each rule gets paired positive/negative fixtures run through
:func:`repro.lint.engine.lint_source` at a virtual path, so rule scoping
itself is also exercised; :class:`TestRuleScopes` pins every scope.
"""

import textwrap

import pytest

from repro.lint.engine import lint_source
from repro.lint.rules import RULES
from repro.lint.rules.base import Rule

SIM_PATH = "src/repro/sim/fixture.py"
HOT_PATH = "src/repro/sim/_kernels.py"
OUT_OF_SCOPE_PATH = "src/repro/bench/fixture.py"


def lint(source, relpath=SIM_PATH):
    return lint_source(textwrap.dedent(source), relpath)


def codes(findings):
    return [f.code for f in findings]


class TestRL001ExplicitDtype:
    BAD = """
        import numpy as np
        x = np.zeros(10)
        y = np.full(4, -1)
        z = np.arange(8)
    """
    GOOD = """
        import numpy as np
        x = np.zeros(10, dtype=np.int64)
        y = np.full(4, -1, dtype=np.int64)
        z = np.arange(8, dtype=np.int64)
        w = np.asarray([1, 2])        # inherits/infers: not a constructor
        v = np.zeros_like(x)          # *_like inherits dtype
    """

    def test_bad_snippet_flagged_per_call(self):
        findings = lint(self.BAD)
        assert codes(findings) == ["RL001", "RL001", "RL001"]
        assert "dtype=" in findings[0].message

    def test_good_snippet_clean(self):
        assert lint(self.GOOD) == []

    def test_alias_and_from_import_resolution(self):
        source = """
            import numpy
            from numpy import empty
            a = numpy.ones(3)
            b = empty(5)
        """
        assert codes(lint(source)) == ["RL001", "RL001"]

    def test_out_of_scope_module_ignored(self):
        assert lint(self.BAD, relpath=OUT_OF_SCOPE_PATH) == []

    def test_positional_dtype_still_flagged(self):
        # The rule demands the keyword form: positional dtypes read as
        # fill values at a glance and broke twice in review.
        findings = lint("import numpy as np\nx = np.full(3, 0, np.int8)\n")
        assert codes(findings) == ["RL001"]


class TestRL002SeededRng:
    def test_legacy_numpy_random_flagged(self):
        source = """
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(5)
        """
        findings = lint(source)
        assert codes(findings) == ["RL002", "RL002"]
        assert "default_rng" in findings[0].message

    def test_stdlib_random_flagged(self):
        source = """
            import random
            random.seed(1)
            v = random.random()
        """
        assert codes(lint(source)) == ["RL002", "RL002"]

    def test_from_imports_flagged(self):
        source = """
            from random import shuffle
            from numpy.random import randint
        """
        assert codes(lint(source)) == ["RL002", "RL002"]

    def test_generator_threading_clean(self):
        source = """
            import numpy as np
            import random

            def sample(rng: np.random.Generator) -> float:
                return float(rng.random())

            rng = np.random.default_rng(42)
            stream = random.Random(7)
        """
        assert lint(source) == []


class TestRL003NoPythonEdgeLoop:
    BAD = """
        def replay(edges):
            total = 0
            for e in edges:
                total += e
            return total
    """

    def test_hot_path_loop_flagged(self):
        findings = lint(self.BAD, relpath=HOT_PATH)
        assert codes(findings) == ["RL003"]
        assert "disable=RL003" in findings[0].message

    def test_non_hot_module_ignored(self):
        assert lint(self.BAD, relpath=SIM_PATH) == []

    def test_loop_over_cold_data_ignored(self):
        source = """
            def setup(num_sets):
                for s in range(num_sets):
                    yield s
        """
        assert lint(source, relpath=HOT_PATH) == []

    def test_allowlist_exempts_reference_oracle(self):
        source = """
            class Cache:
                def _replay(self, lines):
                    for line in lines:  # repro-lint: disable=RL003
                        pass
        """
        assert lint(source, relpath=HOT_PATH) == []
        # Without the comment the same loop is flagged.
        bare = source.replace("  # repro-lint: disable=RL003", "")
        assert codes(lint(bare, relpath=HOT_PATH)) == ["RL003"]


class TestRL004ExceptionDiscipline:
    def test_builtin_raise_flagged(self):
        source = """
            def f(x):
                if x < 0:
                    raise ValueError("negative")
        """
        findings = lint(source)
        assert codes(findings) == ["RL004"]
        assert "ReproError" in findings[0].message

    def test_bare_except_flagged(self):
        source = """
            try:
                work()
            except:
                pass
        """
        assert codes(lint(source)) == ["RL004"]

    def test_repro_errors_and_reraise_clean(self):
        source = """
            from repro.errors import SimulationError

            def f(x):
                if x < 0:
                    raise SimulationError("negative")
                try:
                    g(x)
                except OSError:
                    raise
                except SimulationError as exc:
                    raise SimulationError("wrapped") from exc

            def todo():
                raise NotImplementedError
        """
        assert lint(source) == []

    def test_protocol_builtins_allowed(self):
        source = """
            def stop():
                raise StopIteration
            def leave():
                raise SystemExit(1)
            def interrupt():
                raise KeyboardInterrupt
        """
        assert lint(source) == []


class TestRL005NoMutableDefaults:
    def test_literal_and_call_defaults_flagged(self):
        source = """
            def f(xs=[], mapping={}, items=list()):
                return xs, mapping, items
        """
        assert codes(lint(source)) == ["RL005", "RL005", "RL005"]

    def test_kwonly_defaults_flagged(self):
        assert codes(lint("def f(*, xs=set()):\n    return xs\n")) == ["RL005"]

    def test_none_and_immutable_defaults_clean(self):
        source = """
            def f(xs=None, scale=1.0, name="x", pair=(1, 2)):
                return xs or []
        """
        assert lint(source) == []


class TestSuppression:
    def test_disable_comment_suppresses_named_rule(self):
        source = """
            import numpy as np
            x = np.zeros(10)  # repro-lint: disable=RL001
        """
        assert lint(source) == []

    def test_disable_comment_is_rule_specific(self):
        source = """
            import numpy as np
            x = np.zeros(10)  # repro-lint: disable=RL005
        """
        assert codes(lint(source)) == ["RL001"]

    def test_disable_all(self):
        """``all`` is not a rule code: only named codes suppress."""
        source = """
            import numpy as np
            x = np.zeros(10)  # repro-lint: disable=all
        """
        assert codes(lint(source)) == ["RL001"]

    def test_disable_multiple_codes(self):
        source = """
            import numpy as np
            x = np.random.rand(3) * np.zeros(2)  # repro-lint: disable=RL001, RL002
        """
        assert lint(source) == []


class TestEngineBehaviour:
    def test_syntax_error_reported_not_raised(self):
        assert codes(lint("def broken(:\n")) == ["RL000"]

    def test_rule_codes_are_rl001_to_rl005_and_distinct(self):
        shipped = [
            rule.code
            for rule in Rule.__subclasses__()
            if rule.__module__.startswith("repro.lint.rules.")
        ]
        expected = ["RL001", "RL002", "RL003", "RL004", "RL005"]
        assert sorted(shipped) == expected
        assert sorted(RULES) == expected


class TestRuleScopes:
    """Each rule's scope is a constant; pin every path in it."""

    BAD = """
        import numpy as np

        def replay(edges):
            total = np.zeros(4)
            for e in edges:
                total += e
            return total
    """
    DTYPE_SCOPED = [
        "src/repro/sim/fixture.py",
        "src/repro/sim/sub/fixture.py",
        "src/repro/graph/fixture.py",
        "src/repro/reorder/dbg.py",
        "src/repro/reorder/community.py",
        "src/repro/reorder/traceprof.py",
    ]
    HOT_PATH_MODULES = [
        "src/repro/sim/_kernels.py",
        "src/repro/sim/cache.py",
        "src/repro/sim/trace.py",
        "src/repro/graph/csr.py",
        "src/repro/reorder/dbg.py",
        "src/repro/reorder/community.py",
        "src/repro/reorder/traceprof.py",
    ]

    @pytest.mark.parametrize("relpath", DTYPE_SCOPED)
    def test_dtype_scope_flagged(self, relpath):
        assert "RL001" in codes(lint(self.BAD, relpath=relpath))

    @pytest.mark.parametrize("relpath", HOT_PATH_MODULES)
    def test_hot_path_module_flagged(self, relpath):
        assert "RL003" in codes(lint(self.BAD, relpath=relpath))

    @pytest.mark.parametrize(
        "relpath",
        ["src/repro/serve/app.py", "src/repro/simulator.py", "src/repro/graphx/csr.py"],
    )
    def test_outside_scopes_not_flagged(self, relpath):
        assert lint(self.BAD, relpath=relpath) == []
