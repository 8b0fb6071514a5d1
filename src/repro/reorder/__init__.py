"""Reordering algorithms: the three RAs the paper studies, baselines,
and the paper's proposed improvements."""

from repro.errors import ReorderingError
from repro.reorder.base import ReorderingAlgorithm, ReorderResult
from repro.reorder.baselines import BFSOrder, DegreeSort, Identity, RandomOrder
from repro.reorder.community import CommunityOrder
from repro.reorder.dbg import DegreeBasedGrouping
from repro.reorder.gorder import GOrder
from repro.reorder.hubsort import HubCluster, HubSort
from repro.reorder.hybrid import HybridOrder
from repro.reorder.rabbit import RabbitOrder
from repro.reorder.rcm import ReverseCuthillMcKee
from repro.reorder.slashburn import SlashBurn, SlashBurnPP
from repro.reorder.traceprof import TraceProfiledOrder

__all__ = ["ReorderResult", "get_algorithm", "algorithm_names"]

_FACTORIES = {
    "identity": Identity,
    "random": RandomOrder,
    "degree": DegreeSort,
    "bfs": BFSOrder,
    "rcm": ReverseCuthillMcKee,
    "hubsort": HubSort,
    "hubcluster": HubCluster,
    "slashburn": SlashBurn,
    "slashburn++": SlashBurnPP,
    "gorder": GOrder,
    "rabbit": RabbitOrder,
    "hybrid": HybridOrder,
    "dbg": DegreeBasedGrouping,
    "community": CommunityOrder,
    "hisorder": TraceProfiledOrder,
}


def algorithm_names() -> list[str]:
    """Names accepted by :func:`get_algorithm`."""
    return list(_FACTORIES)


def get_algorithm(name: str, **kwargs) -> ReorderingAlgorithm:
    """Instantiate a reordering algorithm by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ReorderingError(
            f"unknown reordering algorithm {name!r}; available: {algorithm_names()}"
        ) from None
    return factory(**kwargs)
