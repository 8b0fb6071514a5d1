"""RL001 explicit-dtype: numpy allocations must pin their dtype.

Kernel/reference bit-exactness in :mod:`repro.sim` depends on every
array carrying the dtype the algorithms were validated with; a dtype-less
``np.zeros(n)`` silently produces float64 even for index-like data, and
the resulting casts can change hash layouts, overflow behaviour, and
comparison semantics between the two simulation paths.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.rules.base import Finding, ModuleContext, Rule

__all__ = ["ExplicitDtypeRule"]

#: Constructors whose dtype defaults to float64 (or platform-dependent
#: integers for ``arange``) when omitted.  ``*_like``/``asarray`` inherit
#: or infer a dtype from their input and are deliberately not listed.
CONSTRUCTORS = frozenset({"zeros", "ones", "empty", "full", "arange"})

#: Where kernel/reference bit-exactness depends on dtypes: the whole
#: simulator and graph layer, plus the reorder modules whose relabelings
#: feed memoized stage keys (dtype drift there would re-key artifacts).
#: A directory scope covers every module below it.
DTYPE_SCOPES = (
    "src/repro/sim",
    "src/repro/graph",
    "src/repro/reorder/dbg.py",
    "src/repro/reorder/community.py",
    "src/repro/reorder/traceprof.py",
)


class ExplicitDtypeRule(Rule):
    code = "RL001"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not _in_scope(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            ctor = _numpy_constructor(module, node.func)
            if ctor is None:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            yield self.finding(
                module,
                node,
                f"numpy.{ctor}() without dtype= — index/data arrays must "
                f"not default to float64; pass an explicit dtype= keyword",
            )


def _in_scope(relpath: str) -> bool:
    return any(
        relpath == scope or relpath.startswith(scope + "/") for scope in DTYPE_SCOPES
    )


def _numpy_constructor(module: ModuleContext, func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in module.numpy_aliases
            and func.attr in CONSTRUCTORS
        ):
            return func.attr
    elif isinstance(func, ast.Name):
        original = module.numpy_from_imports.get(func.id)
        if original in CONSTRUCTORS:
            return original
    return None
