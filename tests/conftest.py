"""Shared fixtures: small deterministic graphs sized for fast tests."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from repro.generate import social_network, web_graph
from repro.generate.rmat import rmat_edges
from repro.graph.build import build_graph
from repro.graph.graph import Graph
from tests.fixture_graphs import planted_partition_edges, ring_edges


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json fixtures from the current code "
        "instead of comparing against them",
    )


@pytest.fixture(scope="session")
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when ``--update-golden`` was passed (regenerate fixtures)."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(scope="module", params=("kernel", "reference"))
def replay_path(request: pytest.FixtureRequest) -> Iterator[str]:
    """Force every cache batch down one replay path, module-wide.

    Patches the one dispatch predicate: ``kernel`` sends every batch the
    kernel can replay to it, ``reference`` sends none.  A module opts in
    with ``pytestmark = pytest.mark.usefixtures("replay_path")`` and runs
    once per path (see ``tests/test_replay_paths.py``); module-scoped
    fixtures that replay a cache take ``replay_path`` as an argument so
    they are rebuilt per path too.
    """
    from repro.sim import CacheConfig, _kernels

    def force(
        config: CacheConfig, lines: np.ndarray, sets: np.ndarray | None = None
    ) -> bool:
        return request.param == "kernel" and _kernels.kernel_possible(config, lines)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "use_kernel", force)
        yield str(request.param)


@pytest.fixture
def repo_root() -> Path:
    """Repository root (the directory holding pyproject.toml)."""
    return Path(__file__).resolve().parents[1]


@pytest.fixture
def ring_graph() -> Graph:
    """12-vertex directed ring: every vertex has in/out degree 1."""
    src, dst = ring_edges(12)
    return Graph.from_edges(12, src, dst, name="ring")


@pytest.fixture
def two_hop_ring() -> Graph:
    """16-vertex ring with hops 1 and 2 (degrees exactly 2)."""
    src, dst = ring_edges(16, hops=2)
    return Graph.from_edges(16, src, dst, name="ring2")


@pytest.fixture
def star_graph() -> Graph:
    """Star: vertex 0 receives one edge from everyone else."""
    n = 20
    src = np.arange(1, n, dtype=np.int64)
    dst = np.zeros(n - 1, dtype=np.int64)
    return Graph.from_edges(n, src, dst, name="star")


@pytest.fixture
def tiny_graph() -> Graph:
    """Hand-built 6-vertex graph used by hand-computed metric tests.

    Edges: 0->1, 0->2, 1->2, 2->0, 3->4, 4->3, 5->0.
    """
    src = np.array([0, 0, 1, 2, 3, 4, 5], dtype=np.int64)
    dst = np.array([1, 2, 2, 0, 4, 3, 0], dtype=np.int64)
    return Graph.from_edges(6, src, dst, name="tiny")


@pytest.fixture(scope="session")
def community_graph() -> Graph:
    """Planted 8x32 communities with light inter-community noise."""
    src, dst = planted_partition_edges(8, 32, 6, 1, seed=5)
    return build_graph(8 * 32, src, dst, name="planted").graph


@pytest.fixture(scope="session")
def small_social() -> Graph:
    """Small social-network analogue (session-scoped: ~0.1 s to build)."""
    return social_network(scale=11, average_degree=12, seed=7, name="soc")


@pytest.fixture(scope="session")
def small_web() -> Graph:
    """Small web-graph analogue (session-scoped)."""
    return web_graph(num_vertices=2048, average_degree=12, seed=8, name="web")


@pytest.fixture(scope="session")
def golden_rmat() -> Graph:
    """Seeded RMAT graph the golden-number fixtures are pinned to.

    Built directly from :func:`rmat_edges` (not the scaled dataset
    registry), so the committed fixtures are independent of
    ``REPRO_SCALE``.  Do not change these parameters without
    regenerating ``tests/golden/`` via ``--update-golden``.
    """
    src, dst = rmat_edges(8, 2048, seed=3)
    return build_graph(256, src, dst, name="golden-rmat").graph
