"""Artifact store: serializers, durability, quarantine, pinning, GC."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.aid import VertexAID, aid_degree_distribution
from repro.errors import StoreError
from repro.generate import social_network
from repro.graph import Graph
from repro.reorder import get_algorithm
from repro.reorder.base import ReorderResult
from repro.sim import Region, SimulationConfig, simulate_spmv
from repro.sim.simulator import count_locality_types
from repro.store.gc import collect_garbage, verify_store
from repro.store.serializers import StoredSimulation, get_serializer
from repro.store.store import STORE_DIR_ENV, ArtifactStore, default_store_dir
from tests.test_trace_stream import region_counts_of, replayed_snapshots


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def _key(n: int) -> str:
    """Distinct, prefix-controllable 64-char pseudo-keys."""
    return f"{n:02x}" * 32


class TestDefaultLocation:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_store_dir() == tmp_path / "elsewhere"
        assert ArtifactStore().root == tmp_path / "elsewhere"

    def test_default_is_repo_local(self, monkeypatch):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        assert str(default_store_dir()) == ".repro-store"

    def test_unknown_kind_rejected(self):
        with pytest.raises(StoreError):
            get_serializer("not-a-kind")


class TestRoundTrips:
    def test_json(self, store):
        payload = {"rows": [[1, 2.5, "x"]], "nested": {"t": [1, 2]}}
        store.put(_key(1), "json", payload)
        assert store.get(_key(1), "json") == payload

    def test_graph(self, store, tiny_graph):
        store.put(_key(2), "graph", tiny_graph)
        loaded = store.get(_key(2), "graph")
        assert loaded.num_vertices == tiny_graph.num_vertices
        assert loaded.num_edges == tiny_graph.num_edges
        assert loaded == tiny_graph

    @pytest.mark.parametrize("kind", ["graph"])
    def test_graph_is_stored_raw_and_mappable(self, store, tiny_graph, kind):
        # The adjacency arrays sit uncompressed, back to back, from a
        # 64-byte boundary of the file, so a warm read never inflates
        # anything and could map them in place.
        info = store.put(_key(6), kind, tiny_graph)
        data = info.path.read_bytes()
        body = b"".join(a.astype("<i8").tobytes() for a in _adjacency_arrays(tiny_graph))
        assert data.endswith(body)
        assert (len(data) - len(body)) % 64 == 0
        loaded = store.get(_key(6), kind)
        assert loaded == tiny_graph
        assert loaded.name == tiny_graph.name

    def test_reordering(self, store, two_hop_ring):
        result = get_algorithm("degree")(two_hop_ring)
        store.put(_key(3), "reordering", result)
        loaded = store.get(_key(3), "reordering")
        assert loaded.algorithm == result.algorithm
        assert np.array_equal(loaded.relabeling, result.relabeling)
        assert loaded.preprocessing_seconds == result.preprocessing_seconds
        assert loaded.details == result.details

    def test_simulation(self, store, two_hop_ring):
        config = SimulationConfig.scaled_for(two_hop_ring, scan_interval=16)
        result = simulate_spmv(two_hop_ring, config)
        stored = StoredSimulation.from_result(result)
        # O(V) counters, never one entry per access.
        assert result.num_accesses > two_hop_ring.num_vertices + 1
        for name in ("region_accesses", "read_accesses", "proc_misses"):
            assert getattr(stored, name).size <= two_hop_ring.num_vertices + 1
        store.put(_key(4), "simulation", stored)
        loaded = store.get(_key(4), "simulation")
        rebuilt = loaded.to_result(config)
        assert np.array_equal(rebuilt.region_accesses, result.region_accesses)
        assert np.array_equal(rebuilt.region_hits, result.region_hits)
        for by in ("read", "proc"):
            assert np.array_equal(
                rebuilt.random_stats(by).accesses, result.random_stats(by).accesses
            )
            assert np.array_equal(
                rebuilt.random_stats(by).misses, result.random_stats(by).misses
            )
        # Locality types are not stored: counted off the trace, they
        # classify every random access the stored counters saw.
        types = count_locality_types(two_hop_ring, config)
        assert types.total_reuses + types.cold == rebuilt.random_accesses
        assert rebuilt.tlb_misses == result.tlb_misses
        assert rebuilt.l3_misses == result.l3_misses
        assert np.array_equal(rebuilt.scan_region_counts, result.scan_region_counts)
        assert rebuilt.effective_cache_size() == result.effective_cache_size()
        assert np.array_equal(rebuilt.in_degrees, two_hop_ring.in_degrees())
        assert np.array_equal(rebuilt.out_degrees, two_hop_ring.out_degrees())
        assert rebuilt.num_edges == two_hop_ring.num_edges

    def test_simulation_stores_scan_counts_not_lines(self, store, two_hop_ring):
        """A stored simulation keeps each ECS scan as its per-region
        counts and no resident line id, and reads them back exactly."""
        config = SimulationConfig.scaled_for(two_hop_ring, scan_interval=16)
        result = simulate_spmv(two_hop_ring, config)
        snapshots = replayed_snapshots(two_hop_ring, config)
        assert len(snapshots) > 1
        store.put(_key(10), "simulation", StoredSimulation.from_result(result))
        loaded = store.get(_key(10), "simulation")
        counts = loaded.scan_region_counts
        assert counts.dtype == np.int64
        assert counts.shape == (len(snapshots), Region.COUNT)
        assert np.array_equal(counts, region_counts_of(result.space, snapshots))
        assert (counts.sum(axis=1) <= config.cache.num_lines).all()
        arrays = {
            item.name
            for item in dataclasses.fields(loaded)
            if isinstance(getattr(loaded, item.name), np.ndarray)
        }
        assert arrays == {
            "in_degrees", "out_degrees", "region_accesses", "region_hits",
            "read_accesses", "read_misses", "proc_accesses", "proc_misses",
            "partition_boundaries", "scan_region_counts",
        }

    def test_aid(self, store, two_hop_ring):
        vertex_aid = VertexAID.of(two_hop_ring)
        store.put(_key(7), "aid", vertex_aid)
        loaded = store.get(_key(7), "aid")
        assert np.array_equal(loaded.aid, vertex_aid.aid, equal_nan=True)
        assert np.array_equal(loaded.degrees, two_hop_ring.in_degrees())
        rebinned = loaded.distribution()
        direct = aid_degree_distribution(two_hop_ring)
        assert np.array_equal(rebinned.mean_aid, direct.mean_aid, equal_nan=True)
        assert np.array_equal(rebinned.vertex_counts, direct.vertex_counts)

    def test_wrong_type_rejected_at_write(self, store, tiny_graph):
        with pytest.raises(StoreError):
            store.put(_key(5), "graph", {"not": "a graph"})
        assert not store.contains(_key(5), "graph")


def _assert_bit_exact(loaded, original) -> None:
    assert type(loaded) is type(original)
    for item in dataclasses.fields(original):
        got, want = getattr(loaded, item.name), getattr(original, item.name)
        if not isinstance(want, np.ndarray):
            assert got == want, item.name
            continue
        assert got.flags.writeable, item.name
        assert got.shape == want.shape, item.name
        if want.dtype.kind in "iu":
            assert got.dtype == np.int64, item.name
            assert np.array_equal(got, want), item.name
        else:
            assert got.dtype == want.dtype, item.name
            assert got.tobytes() == want.tobytes(), item.name


def _stored_simulation(graph, *, scan_interval: int):
    config = SimulationConfig.scaled_for(graph, scan_interval=scan_interval)
    return StoredSimulation.from_result(simulate_spmv(graph, config))


#: Every dataclass kind, with empty arrays, non-finite AID values and a
#: simulation both with ECS scans and without.
_DATACLASS_CASES = {
    "reordering": lambda g: ("reordering", get_algorithm("degree")(g)),
    "reordering-empty": lambda g: (
        "reordering",
        ReorderResult("identity", np.zeros(0, dtype=np.int64), 0.0, {}),
    ),
    "aid-non-finite": lambda g: (
        "aid",
        VertexAID(
            aid=np.array([0.5, np.inf, np.nan, -np.inf, 0.0, 5e-324]),
            degrees=np.array([1, 0, 3, 2, 7, 2**40], dtype=np.int64),
        ),
    ),
    "aid-empty": lambda g: (
        "aid",
        VertexAID(aid=np.zeros(0), degrees=np.zeros(0, dtype=np.int64)),
    ),
    "simulation-scanned": lambda g: (
        "simulation",
        _stored_simulation(g, scan_interval=16),
    ),
    "simulation-no-snapshots": lambda g: (
        "simulation",
        _stored_simulation(g, scan_interval=0),
    ),
}


def _adjacency_arrays(graph) -> list:
    return [
        graph.out_adj.offsets, graph.out_adj.targets,
        graph.in_adj.offsets, graph.in_adj.targets,
    ]


def _buffer_owner(array: np.ndarray) -> object:
    """The object at the end of an array's ``base`` chain."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


#: Graphs with edges, with none, and with a non-ASCII name.
_GRAPH_CASES = {
    "ring": lambda g: g,
    "no-edges": lambda g: Graph.from_edges(
        5, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), name="empty"
    ),
    "no-vertices": lambda g: Graph.from_edges(
        0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    ),
    "non-ascii-name": lambda g: Graph(g.out_adj, g.in_adj, name="Zürich-図-\u00e9"),
}


def _count_opens(monkeypatch, store, key, kind, path) -> int:
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert store.get(key, kind) is not None
    return opened.count(str(path))


class TestFlatRoundTrip:
    @pytest.mark.parametrize("case", sorted(_DATACLASS_CASES))
    def test_bit_exact(self, store, two_hop_ring, case):
        kind, original = _DATACLASS_CASES[case](two_hop_ring)
        store.put(_key(14), kind, original)
        _assert_bit_exact(store.get(_key(14), kind), original)

    def test_get_opens_the_payload_once(self, store, two_hop_ring, monkeypatch):
        kind, original = _DATACLASS_CASES["simulation-scanned"](two_hop_ring)
        info = store.put(_key(15), kind, original)
        assert _count_opens(monkeypatch, store, _key(15), kind, info.path) == 1

    @pytest.mark.parametrize("case", sorted(_GRAPH_CASES))
    def test_graph_bit_exact(self, store, two_hop_ring, case):
        original = _GRAPH_CASES[case](two_hop_ring)
        store.put(_key(16), "graph", original)
        loaded = store.get(_key(16), "graph")
        assert type(loaded) is Graph
        assert loaded.name == original.name
        for got, want in zip(_adjacency_arrays(loaded), _adjacency_arrays(original)):
            assert got.dtype == np.int64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_graph_arrays_are_aligned_read_only_views_of_one_buffer(
        self, store, two_hop_ring
    ):
        store.put(_key(17), "graph", two_hop_ring)
        arrays = _adjacency_arrays(store.get(_key(17), "graph"))
        for array in arrays:
            assert array.flags.aligned
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        owners = [_buffer_owner(array) for array in arrays]
        assert isinstance(owners[0], bytes)
        assert all(owner is owners[0] for owner in owners)

    def test_graph_get_opens_the_payload_once(self, store, two_hop_ring, monkeypatch):
        info = store.put(_key(18), "graph", two_hop_ring)
        assert _count_opens(monkeypatch, store, _key(18), "graph", info.path) == 1


def test_graph_read_peaks_at_the_graph_size(store):
    """A warm graph read holds the payload bytes and nothing else of
    O(E): the adjacency arrays are views of them."""
    graph = social_network(14, average_degree=16, seed=1)
    graph_bytes = sum(array.nbytes for array in _adjacency_arrays(graph))
    assert graph_bytes > 3_000_000
    store.put(_key(19), "graph", graph)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = store.get(_key(19), "graph")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert loaded == graph
    assert peak <= 1.1 * graph_bytes, f"peak {peak / graph_bytes:.2f}x the graph"


class TestDurability:
    def test_no_temp_litter_after_put(self, store):
        info = store.put(_key(1), "json", {"v": 1})
        litter = [
            p for p in info.path.parent.iterdir() if p.name.startswith("tmp-")
        ]
        assert litter == []

    def test_concurrent_same_key_writers(self, store):
        payload = {"rows": list(range(200))}
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(store.put, _key(6), "json", payload) for _ in range(16)
            ]
            for future in futures:
                future.result()
        assert store.get(_key(6), "json") == payload
        assert verify_store(store).ok
        assert len(store.infos()) == 1

    def test_concurrent_distinct_writers(self, store):
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(store.put, _key(i), "json", {"i": i}) for i in range(24)
            ]
            for future in futures:
                future.result()
        assert len(store.infos("json")) == 24
        assert verify_store(store).ok

    def test_read_bumps_last_access(self, store):
        info = store.put(_key(7), "json", {"v": 1})
        past = info.created_at - 3600
        os.utime(info.path, (past, past))
        store.get(_key(7), "json")
        refreshed = store.info(_key(7), "json")
        assert refreshed.last_access_at > past


class TestQuarantine:
    def test_corrupt_payload_is_quarantined(self, store):
        info = store.put(_key(8), "json", {"v": 1})
        info.path.write_bytes(b"garbage")
        assert store.get(_key(8), "json") is None
        assert not store.contains(_key(8), "json")
        moved = list((store.quarantine_dir / "json").iterdir())
        names = {p.name for p in moved}
        assert info.path.name in names
        reason = (store.quarantine_dir / "json" / f"{_key(8)}.reason.txt").read_text(
            encoding="utf-8"
        )
        assert "checksum mismatch" in reason

    def test_unreadable_sidecar_is_quarantined(self, store):
        info = store.put(_key(9), "json", {"v": 1})
        info.meta_path.write_text("{not json", encoding="utf-8")
        assert store.get(_key(9), "json") is None
        assert not store.contains(_key(9), "json")

    def test_undecodable_payload_is_quarantined(self, store, tiny_graph):
        # Bytes that hash clean against a rewritten sidecar but cannot
        # deserialize: the load failure itself must quarantine.
        info = store.put(_key(10), "graph", tiny_graph)
        info.path.write_bytes(b"not a payload")
        meta = json.loads(info.meta_path.read_text(encoding="utf-8"))
        import hashlib

        meta["checksum"] = hashlib.sha256(b"not a payload").hexdigest()
        info.meta_path.write_text(json.dumps(meta), encoding="utf-8")
        assert store.get(_key(10), "graph") is None
        reason = (
            store.quarantine_dir / "graph" / f"{_key(10)}.reason.txt"
        ).read_text(encoding="utf-8")
        assert "deserialization failure" in reason

    def test_verify_reports_and_quarantines(self, store):
        good = store.put(_key(11), "json", {"v": 1})
        bad = store.put(_key(12), "json", {"v": 2})
        bad.path.write_bytes(b"flipped bits")
        report = verify_store(store)
        assert report.checked == 2
        assert not report.ok
        assert [issue.key for issue in report.issues] == [_key(12)]

        report = verify_store(store, quarantine=True)
        assert report.quarantined == 1
        assert store.contains(good.key, "json")
        assert not store.contains(bad.key, "json")
        assert verify_store(store).ok


class TestPinningAndGC:
    def test_remove_pinned_raises(self, store):
        store.put(_key(13), "json", {"v": 1})
        with store.pin(_key(13), "json"):
            assert store.is_pinned(_key(13), "json")
            with pytest.raises(StoreError):
                store.remove(_key(13), "json")
        assert not store.is_pinned(_key(13), "json")
        assert store.remove(_key(13), "json")

    def test_gc_negative_budget_rejected(self, store):
        with pytest.raises(StoreError):
            collect_garbage(store, -1)

    def test_gc_keeps_mru_within_budget(self, store):
        infos = [store.put(_key(20 + i), "json", {"pad": "x" * 512}) for i in range(4)]
        # Deterministic LRU axis: oldest access first.
        for age, info in enumerate(reversed(infos)):
            stamp = info.created_at - 1000 * (age + 1)
            os.utime(info.path, (stamp, stamp))
        size = infos[0].size_bytes
        report = collect_garbage(store, max_bytes=2 * size)
        evicted_keys = {key for _, key in report.evicted}
        # The two least recently used (first two puts) go.
        assert evicted_keys == {_key(20), _key(21)}
        assert report.bytes_after <= 2 * size
        assert store.total_size_bytes() <= 2 * size
        assert store.contains(_key(22), "json")
        assert store.contains(_key(23), "json")

    def test_gc_never_evicts_pinned(self, store):
        store.put(_key(30), "json", {"pad": "x" * 512})
        with store.pin(_key(30), "json"):
            report = collect_garbage(store, max_bytes=0)
            assert report.skipped_pinned == 1
            assert report.evicted == []
            assert store.contains(_key(30), "json")
        report = collect_garbage(store, max_bytes=0)
        assert store.total_size_bytes() == 0
        assert len(report.evicted) == 1

    def test_gc_zero_budget_empties_unpinned(self, store):
        for i in range(3):
            store.put(_key(40 + i), "json", {"i": i})
        report = collect_garbage(store, max_bytes=0)
        assert len(report.evicted) == 3
        assert store.infos() == []
