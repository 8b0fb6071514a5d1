"""Fingerprinting: canonical JSON, content keys, code-version hashing."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.errors import StoreError
from repro.store.fingerprint import (
    canonical_json,
    clear_code_version_cache,
    code_version,
    fingerprint,
)


class TestCanonicalJSON:
    def test_dict_order_independent(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_tuples_and_lists_agree(self):
        assert canonical_json((1, 2, "x")) == canonical_json([1, 2, "x"])

    def test_numpy_scalars_match_python(self):
        assert canonical_json(np.int64(7)) == canonical_json(7)
        assert canonical_json(np.float64(0.5)) == canonical_json(0.5)

    def test_ndarray_keyed_by_content(self):
        a = np.arange(10, dtype=np.int64)
        same = np.arange(10, dtype=np.int64)
        different = np.arange(10, dtype=np.int64) + 1
        assert canonical_json(a) == canonical_json(same)
        assert canonical_json(a) != canonical_json(different)

    def test_ndarray_dtype_and_shape_matter(self):
        a = np.zeros(4, dtype=np.int64)
        assert canonical_json(a) != canonical_json(a.astype(np.int32))
        assert canonical_json(a) != canonical_json(a.reshape(2, 2))

    def test_non_string_keys_rejected(self):
        with pytest.raises(StoreError):
            canonical_json({1: "x"})

    def test_unserializable_rejected(self):
        with pytest.raises(StoreError):
            canonical_json(object())


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint("graph", {"d": "x"}, "c0") == fingerprint(
            "graph", {"d": "x"}, "c0"
        )

    def test_sensitive_to_every_component(self):
        base = fingerprint("graph", {"d": "x"}, "c0")
        assert fingerprint("simulation", {"d": "x"}, "c0") != base
        assert fingerprint("graph", {"d": "y"}, "c0") != base
        assert fingerprint("graph", {"d": "x"}, "c1") != base


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    """An importable throwaway package whose source the test can edit."""
    pkg = tmp_path / "fp_fixture_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("X = 1\n", encoding="utf-8")
    (pkg / "mod.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.invalidate_caches()
    clear_code_version_cache()
    yield pkg
    clear_code_version_cache()


class TestCodeVersion:
    def test_stable_and_order_independent(self):
        assert code_version("repro.store") == code_version("repro.store")
        assert code_version("repro.store", "repro.graph") == code_version(
            "repro.graph", "repro.store"
        )

    def test_unknown_module_rejected(self):
        with pytest.raises(StoreError):
            code_version("repro.definitely_not_a_module")

    def test_needs_at_least_one_module(self):
        with pytest.raises(StoreError):
            code_version()

    def test_source_edit_changes_version(self, fake_package):
        before = code_version("fp_fixture_pkg")
        (fake_package / "mod.py").write_text(
            "def f():\n    return 2\n", encoding="utf-8"
        )
        # Cached per process: unchanged until the cache is dropped.
        assert code_version("fp_fixture_pkg") == before
        clear_code_version_cache()
        assert code_version("fp_fixture_pkg") != before

    def test_new_file_changes_version(self, fake_package):
        before = code_version("fp_fixture_pkg")
        (fake_package / "extra.py").write_text("Y = 2\n", encoding="utf-8")
        clear_code_version_cache()
        assert code_version("fp_fixture_pkg") != before
