"""``@cached_stage`` — memoize a pipeline stage through the store.

The decorator turns a pure stage function (same parameters + same code
version => same artifact) into a store-backed one.  The wrapped function
grows three reserved keyword arguments:

``store``
    An :class:`~repro.store.store.ArtifactStore`, or ``None`` to
    compute without caching (the default, so decorated stages behave
    exactly like the plain function unless a store is threaded in).
``refresh``
    Force recomputation and overwrite the stored artifact.
``manifest``
    A :class:`~repro.store.manifest.RunManifest` receiving one record
    per call (hit / computed / refreshed, with duration and key).

The key is *not* derived from the raw call arguments — stages receive
heavyweight objects (graphs), or zero-argument loaders that only a miss
calls, whose identity is already captured by upstream parameters — but
from an explicit ``key`` callable mapping the call to a provenance dict.
``encode``/``decode`` adapt results whose natural form needs call
context to reconstruct (a stored simulation needs its config
back).  ``stage.content_key(*args)`` derives the key a call would use
without running or loading anything, so a downstream stage can name its
input by that key.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional

from repro.errors import StoreError
from repro.obs import metrics as obs_metrics
from repro.obs import span
from repro.store.fingerprint import code_version, fingerprint
from repro.store.manifest import RunManifest
from repro.store.store import ArtifactStore

__all__ = ["cached_stage"]


def _stage_clock() -> float:
    """Wall-clock source for the ``duration_s`` provenance field.

    This is the one clock read inside the memoization wrapper:
    the value feeds manifest records and stored provenance only — it
    never participates in a content key, so two runs that differ only
    in this reading still produce bit-identical artifacts.
    """
    return time.perf_counter()


def cached_stage(
    kind: str,
    *,
    code: "tuple[str, ...]",
    key: Callable[..., dict],
    encode: Optional[Callable[[Any], Any]] = None,
    decode: Optional[Callable[..., Any]] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator factory memoizing one stage kind through the store.

    Parameters
    ----------
    kind:
        Artifact kind (must have a registered serializer); also the
        stage label in manifests.
    code:
        Module/package names whose source text versions this stage's
        outputs; editing any of them invalidates existing keys.
    key:
        Maps the stage call's arguments to the provenance-parameter
        dict that (with the code version) forms the content key.
    encode / decode:
        Optional adapters between the stage's return type and the
        stored payload; ``decode`` receives the stored payload followed
        by the original call arguments.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        def derive(*args: Any, **kwargs: Any) -> "tuple[dict, str, str]":
            params = key(*args, **kwargs)
            version = code_version(*code)
            return params, version, fingerprint(kind, params, version)

        @functools.wraps(fn)
        def wrapper(
            *args: Any,
            store: Optional[ArtifactStore] = None,
            refresh: bool = False,
            manifest: Optional[RunManifest] = None,
            **kwargs: Any,
        ) -> Any:
            if store is None:
                start = _stage_clock()
                with span(f"store.{kind}", outcome="uncached"):
                    result = fn(*args, **kwargs)
                if manifest is not None:
                    manifest.record(
                        kind, "", "computed", _stage_clock() - start
                    )
                return result
            params, version, content_key = derive(*args, **kwargs)
            with span(f"store.{kind}") as stage_span, store.pin(content_key, kind):
                if not refresh:
                    start = _stage_clock()
                    stored = store.get(content_key, kind)
                    if stored is not None:
                        result = (
                            decode(stored, *args, **kwargs)
                            if decode is not None
                            else stored
                        )
                        stage_span.set(outcome="hit")
                        obs_metrics.registry.counter("store.hit").inc()
                        if manifest is not None:
                            manifest.record(
                                kind,
                                content_key,
                                "hit",
                                _stage_clock() - start,
                                params=params,
                            )
                        return result
                start = _stage_clock()
                result = fn(*args, **kwargs)
                duration = _stage_clock() - start
                payload = encode(result) if encode is not None else result
                if payload is None:
                    raise StoreError(
                        f"stage {fn.__qualname__} produced None; cached stages "
                        "must return a storable artifact"
                    )
                info = store.put(
                    content_key,
                    kind,
                    payload,
                    provenance={
                        "stage": fn.__qualname__,
                        "params": params,
                        "code_version": version,
                        "code_modules": list(code),
                        "duration_s": duration,
                    },
                )
                stage_span.set(outcome="refreshed" if refresh else "computed")
                obs_metrics.registry.counter("store.miss").inc()
                if manifest is not None:
                    manifest.record(
                        kind,
                        content_key,
                        "refreshed" if refresh else "computed",
                        duration,
                        params=params,
                        size_bytes=info.size_bytes,
                    )
            return result

        def content_key(*args: Any, **kwargs: Any) -> str:
            return derive(*args, **kwargs)[2]

        wrapper.content_key = content_key  # type: ignore[attr-defined]
        return wrapper

    return decorate
