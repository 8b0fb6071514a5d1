"""RL002 seeded-rng: no module-level RNG state; thread a Generator.

DRRIP's BRRIP insertions consume a pre-drawn random stream whose draw
*ranks* are part of the kernel/reference equivalence contract (see
DESIGN.md §7).  Any call into the legacy ``np.random.*`` module-level
state — or the stdlib ``random`` module — injects nondeterminism that no
seed threading can recover, so the only sanctioned entry points are
seeded ``numpy.random.Generator`` construction helpers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.rules.base import Finding, ModuleContext, Rule

__all__ = ["SeededRngRule"]

#: Constructors of explicit, seedable RNG state.  Everything else on
#: ``numpy.random`` is (or routes through) hidden module-level state.
NUMPY_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Seedable instance classes of the stdlib ``random`` module.
STDLIB_ALLOWED = frozenset({"Random", "SystemRandom"})

_FIX = (
    "seed a numpy.random.Generator (np.random.default_rng(seed)) and "
    "thread it through the call stack — module-level RNG state breaks "
    "DRRIP draw-stream determinism"
)


class SeededRngRule(Rule):
    code = "RL002"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                offender = self._attribute_offender(module, node)
                if offender:
                    yield self.finding(
                        module, node, f"{offender} used; {_FIX}"
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._import_offenders(module, node)

    def _attribute_offender(
        self, module: ModuleContext, node: ast.Attribute
    ) -> str:
        value = node.value
        # np.random.<fn> — a chained attribute on a numpy module alias.
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in module.numpy_aliases
            and node.attr not in NUMPY_ALLOWED
        ):
            return f"numpy.random.{node.attr}"
        if isinstance(value, ast.Name):
            # nr.<fn> with ``import numpy.random as nr`` or
            # ``from numpy import random``.
            if (
                value.id in module.numpy_random_aliases
                and node.attr not in NUMPY_ALLOWED
            ):
                return f"numpy.random.{node.attr}"
            # random.<fn> on the stdlib module.
            if (
                value.id in module.stdlib_random_aliases
                and node.attr not in STDLIB_ALLOWED
                and not node.attr.startswith("_")
            ):
                return f"random.{node.attr}"
        return ""

    def _import_offenders(
        self, module: ModuleContext, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if node.module == "numpy.random":
            allowed = NUMPY_ALLOWED
            label = "numpy.random"
        elif node.module == "random":
            allowed = STDLIB_ALLOWED
            label = "random"
        else:
            return
        for alias in node.names:
            if alias.name not in allowed:
                yield self.finding(
                    module,
                    node,
                    f"from {label} import {alias.name}; {_FIX}",
                )
