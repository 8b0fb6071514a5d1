"""repro.serve — reordering-as-a-service (DESIGN.md §13).

An asyncio HTTP service over the experiment pipeline: jobs canonicalize
to content-addressed fingerprints, concurrent identical requests
coalesce onto one in-flight computation, a bounded worker pool applies
admission control (429 + Retry-After when saturated), and the artifact
store doubles as the response cache shared across workers and restarts.
Ships with a seeded Zipf load harness (:mod:`repro.serve.loadgen`).
"""

from repro.serve.app import ReorderService
from repro.serve.http import HttpClient

__all__ = ["ReorderService", "HttpClient"]
