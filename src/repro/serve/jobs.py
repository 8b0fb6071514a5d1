"""Job specs: validation, canonicalization and fingerprinting.

A serving job is a plain JSON object.  :func:`canonical_job` validates
a request payload and fills every default so that all equivalent
requests produce the *same* canonical dict, and :func:`job_fingerprint`
hashes that dict — together with the ``REPRO_SCALE`` factor and the
producing code version — into the key that names the computation.

That one key drives the whole service: in-flight coalescing
(single-flight per fingerprint), response identity (two requests with
equal fingerprints receive byte-identical results) and artifact lookup
all share the same notion of "the same job" the content-addressed
store uses for "the same artifact".
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReorderingError, ServeError
from repro.generate.datasets import dataset_names, scale_factor
from repro.reorder import algorithm_names, get_algorithm
from repro.store.fingerprint import code_version, fingerprint

__all__ = [
    "JOB_KINDS",
    "POLICIES",
    "DIRECTIONS",
    "JOB_CODE_MODULES",
    "canonical_job",
    "job_fingerprint",
]

#: The three computation shapes the service exposes, one per endpoint.
JOB_KINDS = ("reorder", "simulate", "analyze")

#: Replacement policies the simulator accepts (DESIGN.md §2/§7).
POLICIES = ("lru", "srrip", "brrip", "drrip")

DIRECTIONS = ("pull", "push")

#: A store content key: a sha256 hex digest.
_ARTIFACT_KEY = re.compile(r"[0-9a-f]{64}")

#: Modules whose source text versions every serve response: bumping any
#: of them changes all job fingerprints, so a redeployed server never
#: serves stale coalesced identities for changed code (stored stage
#: artifacts carry their own, finer-grained code versions).
JOB_CODE_MODULES = (
    "repro.generate",
    "repro.graph",
    "repro.reorder",
    "repro.sim",
    "repro.serve",
)

#: Fields accepted per job kind (everything else is a 400, catching
#: typos like "dataest" before they silently select defaults).
_COMMON_FIELDS = ("kind", "dataset", "graph_fingerprint", "algorithm", "params")
_FIELDS_BY_KIND = {
    "reorder": _COMMON_FIELDS + ("include_order",),
    "simulate": _COMMON_FIELDS + ("policy", "direction", "pressure"),
    "analyze": _COMMON_FIELDS + ("policy", "direction", "pressure"),
}

_MAX_PARAMS = 16


def _require_str(payload: Dict[str, Any], field: str) -> Optional[str]:
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise ServeError(f"{field!r} must be a non-empty string, got {value!r}")
    return value


def _check_params(raw: Any) -> Dict[str, Any]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ServeError(f"'params' must be a JSON object, got {type(raw).__name__}")
    if len(raw) > _MAX_PARAMS:
        raise ServeError(f"'params' carries {len(raw)} entries (max {_MAX_PARAMS})")
    out: Dict[str, Any] = {}
    for key in sorted(raw):
        value = raw[key]
        if not isinstance(key, str):
            raise ServeError(f"'params' keys must be strings, got {key!r}")
        if not isinstance(value, (bool, int, float, str)):
            raise ServeError(
                f"'params.{key}' must be a JSON scalar, got {type(value).__name__}"
            )
        out[key] = value
    return out


def _check_choice(name: str, value: Any, choices: Tuple[str, ...]) -> str:
    if value not in choices:
        raise ServeError(f"{name!r} must be one of {list(choices)}, got {value!r}")
    return str(value)


def canonical_job(payload: Dict[str, Any], *, kind: str) -> Dict[str, Any]:
    """Validate one request payload into its canonical job dict.

    The result is fully defaulted and key-sorted-stable, so two payloads
    describing the same computation canonicalize identically — the
    property fingerprint-keyed coalescing rests on.  Raises
    :class:`ServeError` (HTTP 400) on any validation failure.
    """
    if kind not in JOB_KINDS:
        raise ServeError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")
    if not isinstance(payload, dict):
        raise ServeError("job payload must be a JSON object")
    allowed = _FIELDS_BY_KIND[kind]
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ServeError(
            f"unknown field(s) {unknown} for a {kind} job; accepted: {list(allowed)}"
        )
    declared_kind = payload.get("kind")
    if declared_kind is not None and declared_kind != kind:
        raise ServeError(
            f"payload kind {declared_kind!r} does not match the {kind} endpoint"
        )

    dataset = _require_str(payload, "dataset")
    graph_fingerprint = _require_str(payload, "graph_fingerprint")
    if (dataset is None) == (graph_fingerprint is None):
        raise ServeError(
            "a job names exactly one graph source: 'dataset' (registry name) "
            "or 'graph_fingerprint' (a graph artifact already in the store)"
        )
    if dataset is not None and dataset not in dataset_names(tier="all"):
        raise ServeError(
            f"unknown dataset {dataset!r}; available: {dataset_names(tier='all')}"
        )
    if graph_fingerprint is not None and not _ARTIFACT_KEY.fullmatch(
        graph_fingerprint
    ):
        # The key becomes a path under the store root, so anything but
        # lowercase hex (``../`` included) must stop here.
        raise ServeError(
            "'graph_fingerprint' must be a full 64-hex-digit artifact key"
        )

    algorithm = _require_str(payload, "algorithm") or "identity"
    if algorithm not in algorithm_names():
        raise ServeError(
            f"unknown algorithm {algorithm!r}; available: {algorithm_names()}"
        )
    params = _check_params(payload.get("params"))
    # The worker runs get_algorithm(algorithm, **params); construct it here
    # so bad params (unknown kwarg, invalid value, bad composite inner) are
    # a 400 at admission, not a 500 out of the worker.  Constructors only
    # validate and store parameters, so this is cheap.
    try:
        get_algorithm(algorithm, **params)
    except (ReorderingError, TypeError) as exc:
        raise ServeError(
            f"invalid params for algorithm {algorithm!r}: {exc}"
        ) from exc

    job: Dict[str, Any] = {
        "kind": kind,
        "dataset": dataset,
        "graph_fingerprint": graph_fingerprint,
        "algorithm": algorithm,
        "params": params,
    }
    if kind == "reorder":
        include_order = payload.get("include_order", False)
        if not isinstance(include_order, bool):
            raise ServeError(
                f"'include_order' must be a boolean, got {include_order!r}"
            )
        job["include_order"] = include_order
    else:
        job["policy"] = _check_choice(
            "policy", payload.get("policy", "drrip"), POLICIES
        )
        job["direction"] = _check_choice(
            "direction", payload.get("direction", "pull"), DIRECTIONS
        )
        pressure = payload.get("pressure", 0.08)
        if isinstance(pressure, bool) or not isinstance(pressure, (int, float)):
            raise ServeError(f"'pressure' must be a number, got {pressure!r}")
        if not 0.0 < float(pressure) <= 1.0:
            raise ServeError(f"'pressure' must be in (0, 1], got {pressure}")
        job["pressure"] = float(pressure)
    return job


def job_fingerprint(job: Dict[str, Any]) -> str:
    """The content key of one canonical job.

    ``REPRO_SCALE`` joins the material (two differently scaled registries
    must never coalesce) and the code version covers every module that
    shapes the response, so fingerprints self-invalidate across code
    changes exactly like store keys do.
    """
    material = dict(job)
    material["scale"] = scale_factor()
    return fingerprint("serve-job", material, code_version(*JOB_CODE_MODULES))
