"""The cache and SpMV-simulator tests, once per forced replay path.

``tests/test_cache.py`` and ``tests/test_simulator.py`` run under the
one dispatch rule, which sends their small batches to the reference
loop.  This module collects their test classes again under the
``replay_path`` fixture, which forces every batch to the kernel and then
to the reference loop, so tier-1 checks both implementations against
the same expectations.
"""

import pytest

from repro.sim import SimulationConfig, simulate_spmv

# Imported test classes are collected again in this module.
from tests.test_cache import TestLRU, TestRRIP, TestSnapshots
from tests.test_simulator import (
    TestConfiguration,
    TestCounters,
    TestECS,
    TestLocalityOrdering,
    TestScheduleAndTiming,
)

pytestmark = pytest.mark.usefixtures("replay_path")


@pytest.fixture(scope="module")
def web_sim(small_web, replay_path):
    """``test_simulator``'s shared replay, rebuilt on each forced path."""
    config = SimulationConfig.scaled_for(small_web, scan_interval=2000)
    return simulate_spmv(small_web, config)
