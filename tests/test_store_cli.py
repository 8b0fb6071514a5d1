"""``python -m repro.store`` — subcommand behaviour and exit codes."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.aid import VertexAID
from repro.store import ArtifactStore
from repro.store.cli import main


def _key(n: int) -> str:
    return f"{n:02x}" * 32


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    store = ArtifactStore(tmp_path / "store")
    store.put(_key(0xAA), "json", {"v": 1}, provenance={"stage": "t"})
    store.put(_key(0xBB), "json", {"v": 2})
    return store


def _run(store: ArtifactStore, *argv: str) -> int:
    return main(["--store", str(store.root), *argv])


class TestLs:
    def test_lists_artifacts(self, store, capsys):
        assert _run(store, "ls") == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out
        assert _key(0xAA)[:12] in out

    def test_kind_filter(self, store, capsys):
        assert _run(store, "ls", "--kind", "graph") == 0
        assert "(empty store" in capsys.readouterr().out

    def test_empty_store(self, tmp_path, capsys):
        assert main(["--store", str(tmp_path / "none"), "ls"]) == 0
        assert "(empty store" in capsys.readouterr().out


class TestInfo:
    def test_unique_prefix(self, store, capsys):
        assert _run(store, "info", _key(0xAA)[:8]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["key"] == _key(0xAA)
        assert document["kind"] == "json"
        assert document["provenance"] == {"stage": "t"}

    def test_unknown_prefix(self, store, capsys):
        assert _run(store, "info", "ff00") == 1
        assert "no artifact" in capsys.readouterr().out

    def test_ambiguous_prefix(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "amb")
        store.put("aa11" + "0" * 60, "json", {"v": 1})
        store.put("aa22" + "0" * 60, "json", {"v": 2})
        assert _run(store, "info", "aa") == 1
        assert "2 artifacts match" in capsys.readouterr().out


class TestVerify:
    def test_clean_store(self, store, capsys):
        assert _run(store, "verify") == 0
        assert "ok" in capsys.readouterr().out

    def test_corruption_fails(self, store, capsys):
        info = store.info(_key(0xBB), "json")
        info.path.write_bytes(b"garbage")
        assert _run(store, "verify") == 1
        assert "checksum mismatch" in capsys.readouterr().out
        # Not moved without --quarantine.
        assert store.contains(_key(0xBB), "json")

    def test_quarantine_flag_sweeps(self, store, capsys):
        info = store.info(_key(0xBB), "json")
        info.path.write_bytes(b"garbage")
        assert _run(store, "verify", "--quarantine") == 1
        assert not store.contains(_key(0xBB), "json")
        assert _run(store, "verify") == 0


class TestVerifyDecodes:
    """A torn write whose sidecar was regenerated hashes clean; only a
    decode can tell."""

    @pytest.fixture
    def torn(self, store):
        aid = VertexAID(aid=np.linspace(0.0, 1.0, 64), degrees=np.arange(64))
        info = store.put(_key(0xCC), "aid", aid)
        data = info.path.read_bytes()[:-8]
        info.path.write_bytes(data)
        meta = json.loads(info.meta_path.read_text(encoding="utf-8"))
        meta["checksum"] = hashlib.sha256(data).hexdigest()
        info.meta_path.write_text(json.dumps(meta), encoding="utf-8")
        return store

    def test_reports_undecodable_payload(self, torn, capsys):
        assert _run(torn, "verify") == 1
        out = capsys.readouterr().out
        assert f"[undecodable payload] aid/{_key(0xCC)}" in out
        assert "checksum mismatch" not in out
        assert torn.contains(_key(0xCC), "aid")

    def test_quarantine_flag_moves_it(self, torn, capsys):
        assert _run(torn, "verify", "--quarantine") == 1
        assert not torn.contains(_key(0xCC), "aid")
        reason = torn.quarantine_dir / "aid" / f"{_key(0xCC)}.reason.txt"
        assert "undecodable payload" in reason.read_text(encoding="utf-8")
        assert _run(torn, "verify") == 0


class TestGC:
    def test_zero_budget_evicts_all(self, store, capsys):
        assert _run(store, "gc", "--max-bytes", "0") == 0
        out = capsys.readouterr().out
        assert "evicted 2/2" in out
        assert store.infos() == []

    def test_mb_budget_keeps_everything_small(self, store, capsys):
        assert _run(store, "gc", "--max-mb", "10") == 0
        assert len(store.infos()) == 2

    def test_requires_a_bound(self, store, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _run(store, "gc")
        assert excinfo.value.code == 2

    def test_negative_bound_is_config_error(self, store, capsys):
        assert _run(store, "gc", "--max-bytes", "-5") == 2
        assert "error:" in capsys.readouterr().out


class TestRetiredKind:
    """A kind directory no serializer reads, as an older pipeline left it."""

    @pytest.fixture
    def retired(self, store):
        bucket = store.objects_dir / "retired-kind" / "cc"
        bucket.mkdir(parents=True)
        (bucket / f"{_key(0xCC)}.npz").write_bytes(b"x" * 1000)
        (bucket / f"{_key(0xCC)}.meta.json").write_text("{}")
        return store

    def test_ls_skips_it(self, retired, capsys):
        assert _run(retired, "ls") == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out
        assert [info.kind for info in retired.infos()] == ["json", "json"]

    def test_verify_reports_it(self, retired, capsys):
        assert _run(retired, "verify") == 1
        assert "[retired artifact kind] retired-kind/*" in capsys.readouterr().out

    def test_gc_evicts_it(self, retired, capsys):
        assert _run(retired, "gc", "--max-mb", "10") == 0
        assert "evicted retired-kind/*" in capsys.readouterr().out
        assert not (retired.objects_dir / "retired-kind").exists()
        assert len(retired.infos()) == 2
        assert _run(retired, "verify") == 0


class TestRetiredFormat:
    """A payload in an extension its kind's serializer no longer writes,
    next to its sidecar, as an older format left it."""

    @pytest.fixture
    def retired(self, store):
        bucket = store.objects_dir / "reordering" / "cc"
        bucket.mkdir(parents=True)
        (bucket / f"{_key(0xCC)}.npz").write_bytes(b"x" * 1000)
        (bucket / f"{_key(0xCC)}.meta.json").write_text("{}")
        # An in-flight write is not a leftover.
        (bucket / "tmp-1-abc.npz").write_bytes(b"y")
        return store

    def test_ls_skips_it(self, retired, capsys):
        assert _run(retired, "ls") == 0
        assert "2 artifact(s)" in capsys.readouterr().out
        assert [info.kind for info in retired.infos()] == ["json", "json"]

    def test_verify_reports_it(self, retired, capsys):
        assert _run(retired, "verify") == 1
        out = capsys.readouterr().out
        assert f"[retired artifact format] reordering/{_key(0xCC)}" in out
        assert "tmp-1-abc" not in out

    def test_gc_evicts_it(self, retired, capsys):
        bucket = retired.objects_dir / "reordering" / "cc"
        assert _run(retired, "gc", "--max-bytes", "0") == 0
        out = capsys.readouterr().out
        assert "evicted 3/3" in out
        assert f"evicted reordering/{_key(0xCC)[:12]}" in out
        assert sorted(p.name for p in bucket.iterdir()) == ["tmp-1-abc.npz"]
        assert _run(retired, "verify") == 0


class TestEntryPoint:
    def test_module_is_executable(self, tmp_path, repo_root):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro.store", "--store", str(tmp_path), "ls"],
            capture_output=True,
            text=True,
            cwd=repo_root,
            env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "(empty store" in result.stdout
