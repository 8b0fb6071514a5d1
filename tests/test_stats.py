"""Unit tests for the per-vertex attribution oracle of the streaming tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.address_space import AddressSpace, Region
from repro.sim.trace import MemoryTrace
from tests.test_trace_stream import attribute_random_accesses


def trace_of(records, n=16):
    space = AddressSpace(n, 64)
    base = space.data_base // space.line_size
    return MemoryTrace(
        lines=np.array([base for _ in records], dtype=np.int64),
        kinds=np.array([r[0] for r in records], dtype=np.uint8),
        read_vertex=np.array([r[1] for r in records], dtype=np.int64),
        proc_vertex=np.array([r[2] for r in records], dtype=np.int64),
        space=space,
    )


class TestAttribution:
    def test_by_read(self):
        trace = trace_of(
            [
                (Region.VERTEX_DATA, 3, 7),
                (Region.VERTEX_DATA, 3, 8),
                (Region.EDGES, -1, 8),
            ]
        )
        hits = np.array([0, 1, 0], dtype=np.uint8)
        stats = attribute_random_accesses(trace, hits, 16, by="read")
        assert stats.accesses[3] == 2
        assert stats.misses[3] == 1
        assert stats.total_accesses == 2

    def test_by_proc(self):
        trace = trace_of(
            [(Region.VERTEX_DATA, 3, 7), (Region.VERTEX_DATA, 4, 7)]
        )
        hits = np.array([1, 1], dtype=np.uint8)
        stats = attribute_random_accesses(trace, hits, 16, by="proc")
        assert stats.accesses[7] == 2
        assert stats.misses[7] == 0

    def test_miss_rate_nan_for_untouched(self):
        trace = trace_of([(Region.VERTEX_DATA, 0, 0)])
        stats = attribute_random_accesses(
            trace, np.array([0], dtype=np.uint8), 16
        )
        rates = stats.miss_rate()
        assert rates[0] == 1.0
        assert np.isnan(rates[1])

    def test_wrong_hits_length(self):
        trace = trace_of([(Region.VERTEX_DATA, 0, 0)])
        with pytest.raises(SimulationError):
            attribute_random_accesses(trace, np.zeros(2, dtype=np.uint8), 16)

    def test_unknown_attribution(self):
        trace = trace_of([(Region.VERTEX_DATA, 0, 0)])
        with pytest.raises(SimulationError):
            attribute_random_accesses(
                trace, np.zeros(1, dtype=np.uint8), 16, by="bogus"
            )

    def test_custom_random_region(self):
        trace = trace_of([(Region.VERTEX_OUT, 2, 5)])
        stats = attribute_random_accesses(
            trace,
            np.zeros(1, dtype=np.uint8),
            16,
            random_region=Region.VERTEX_OUT,
        )
        assert stats.accesses[2] == 1

    def test_missing_attribution_rejected(self):
        trace = trace_of([(Region.VERTEX_DATA, -1, 5)])
        with pytest.raises(SimulationError):
            attribute_random_accesses(trace, np.zeros(1, dtype=np.uint8), 16)
