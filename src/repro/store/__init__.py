"""Content-addressed artifact store + memoized experiment pipeline.

The subsystem has four layers (DESIGN.md §9):

1. :mod:`repro.store.fingerprint` — deterministic content keys from an
   artifact's full provenance (parameters, seeds, scale, and a source
   hash of the producing modules, so code changes self-invalidate).
2. :mod:`repro.store.serializers` — typed, exact-round-trip formats for
   the repo's artifact kinds (graphs, reorderings, AID, simulations, JSON).
3. :mod:`repro.store.store` / :mod:`repro.store.gc` — the on-disk
   store: atomic writes, verified reads with corruption quarantine,
   pinning, LRU garbage collection under a size bound.
4. :mod:`repro.store.memo` / :mod:`repro.store.manifest` — the
   ``@cached_stage`` decorator the bench pipeline runs on, plus per-run
   provenance manifests.

``python -m repro.store`` (:mod:`repro.store.cli`) exposes
``ls``/``info``/``verify``/``gc`` over a store rooted at
``$REPRO_STORE_DIR`` (default ``./.repro-store``).
"""

from repro.store.fingerprint import code_version
from repro.store.manifest import RunManifest
from repro.store.store import ArtifactStore, default_store_dir

__all__ = ["ArtifactStore", "RunManifest", "code_version", "default_store_dir"]
