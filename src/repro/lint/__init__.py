"""AST-based invariant linter for the simulation stack.

The cache-simulation kernels are bit-exact with their reference loops
only while a set of cross-cutting contracts hold — explicit numpy
dtypes, seeded RNG threading, no Python loops over edge/access data in
hot paths, a single exception hierarchy, and no shared mutable defaults.
This package machine-checks those contracts:

``python -m repro.lint [paths]``

Rules (see :mod:`repro.lint.rules`): RL001 explicit-dtype, RL002
seeded-rng, RL003 no-python-edge-loop (warn tier), RL004
exception-discipline, RL005 no-mutable-default-args.  Configuration
lives in ``[tool.repro-lint]`` of ``pyproject.toml``; intentional
violations use per-line ``# repro-lint: disable=RLxxx`` comments or the
committed baseline file.
"""

__all__: list[str] = []
