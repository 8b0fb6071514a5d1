"""AST-based invariant linter for the simulation stack.

The cache-simulation kernels are bit-exact with their reference loops
only while a set of cross-cutting contracts hold — explicit numpy
dtypes, seeded RNG threading, no Python loops over edge/access data in
hot paths, a single exception hierarchy, and no shared mutable defaults.
This package machine-checks those contracts:

``python -m repro.lint [paths]``

Rules (see :mod:`repro.lint.rules`): RL001 explicit-dtype, RL002
seeded-rng, RL003 no-python-edge-loop, RL004 exception-discipline,
RL005 no-mutable-default-args.  The linter has no settings: each rule's
scope is a constant in its module, every finding exits 1, and an
intentional violation carries a per-line ``# repro-lint: disable=RLxxx``
comment.
"""

__all__: list[str] = []
