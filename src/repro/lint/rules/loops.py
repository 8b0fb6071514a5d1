"""RL003 no-python-edge-loop: keep Python loops out of hot paths.

The simulation stack's throughput rests on the hot-path modules staying
vectorized (DESIGN.md §7); an innocuous ``for`` over an edge array turns
a microsecond kernel step into a multi-second crawl at paper-scale
traces.  The rule is a heuristic — it flags ``for`` statements whose
iterable mentions edge/access/trace-shaped identifiers.  A loop that is
meant to be one, such as the two of the bit-exact reference oracle
``SetAssociativeCache._simulate_reference``, carries a per-line
``# repro-lint: disable=RL003`` comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import Finding, ModuleContext, Rule

__all__ = ["NoPythonEdgeLoopRule"]

#: Lower-cased substrings marking an identifier as edge/access/trace data.
HOT_IDENTIFIER_MARKERS = ("edge", "access", "trace", "line", "neighbo")

#: The modules on the simulation hot path.
HOT_PATH_MODULES = frozenset(
    {
        "src/repro/sim/_kernels.py",
        "src/repro/sim/cache.py",
        "src/repro/sim/trace.py",
        "src/repro/graph/csr.py",
        "src/repro/reorder/dbg.py",
        "src/repro/reorder/community.py",
        "src/repro/reorder/traceprof.py",
    }
)


class NoPythonEdgeLoopRule(Rule):
    code = "RL003"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.relpath not in HOT_PATH_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.For):
                continue
            marker = _hot_identifier(node.iter)
            if marker is None:
                continue
            yield self.finding(
                module,
                node,
                f"Python-level for loop over {marker!r} in a hot-path "
                f"module; vectorize with NumPy, or mark a reference "
                f"oracle's loop with '# repro-lint: disable=RL003'",
            )


def _hot_identifier(iter_expr: ast.expr) -> "str | None":
    """First identifier in the iterable matching a hot-data marker."""
    for node in ast.walk(iter_expr):
        name = ""
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        lowered = name.lower()
        if lowered and any(marker in lowered for marker in HOT_IDENTIFIER_MARKERS):
            return name
    return None
