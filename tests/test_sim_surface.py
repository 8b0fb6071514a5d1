"""The simulation model's settable surface and its scaled geometry.

The simulator is one fixed model: the paper's element sizes, one
round-robin interleave interval, one timing substitute, one scaled
cache/TLB geometry.  Those are module constants, not settings.  These
tests pin what is left settable and the geometry the constants produce,
so a new knob or a drifted constant fails here by name rather than
through a golden hash.
"""

import dataclasses
import inspect

import pytest

from repro.core.ecs import with_ecs_scans
from repro.sim.address_space import AddressSpace
from repro.sim.cache import CacheConfig
from repro.sim.simulator import SimulationConfig, simulate_spmv
from repro.sim.tlb import TLBConfig
from repro.sim.trace import spmv_trace_chunks

# A new setting must name the second non-test caller (or the oracle)
# that needs a value other than its default; until then it is a module
# constant.  Extend these tuples only together with that caller.
SURFACE_FIELDS = {
    SimulationConfig: ("cache", "tlb", "num_threads", "scan_interval", "direction"),
    CacheConfig: ("num_sets", "ways", "line_size", "policy", "seed"),
    TLBConfig: ("entries", "ways", "page_size"),
    AddressSpace: ("num_vertices", "num_edges", "line_size"),
}

SURFACE_KEYWORDS = {
    SimulationConfig.scaled_for: ("pressure", "scan_interval", "direction", "policy"),
    simulate_spmv: ("chunk_accesses",),
    spmv_trace_chunks: ("direction", "vertex_range", "max_accesses"),
}


@pytest.mark.parametrize(
    "cls", list(SURFACE_FIELDS), ids=lambda cls: cls.__name__
)
def test_config_fields_are_pinned(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == SURFACE_FIELDS[cls]


@pytest.mark.parametrize(
    "fn", list(SURFACE_KEYWORDS), ids=lambda fn: fn.__qualname__
)
def test_keyword_parameters_are_pinned(fn):
    keywords = tuple(
        name
        for name, param in inspect.signature(fn).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    )
    assert keywords == SURFACE_KEYWORDS[fn]
    assert not any(
        param.kind is inspect.Parameter.VAR_KEYWORD
        for param in inspect.signature(fn).parameters.values()
    )


# (vertices, edges) of minis at REPRO_SCALE 0.25 (the first three) and
# 1.0, with the geometry the pipeline's config gives them: cache
# (num_sets, ways, line_size), TLB (entries, ways, page_size) and the
# ECS scan interval.
SCALED_GEOMETRY = [
    ((4096, 118108), (8, 8, 64), (64, 4, 1024), 1861),
    ((6144, 162348), (8, 8, 64), (64, 4, 2048), 2560),
    ((8168, 33165), (16, 8, 64), (64, 4, 2048), 550),
    ((16384, 504980), (32, 8, 64), (64, 4, 4096), 7954),
    ((24575, 191391), (32, 8, 64), (64, 4, 8192), 3086),
    ((32691, 136412), (64, 8, 64), (64, 4, 8192), 2259),
]


@pytest.mark.parametrize(
    "shape, cache, tlb, scan_interval",
    SCALED_GEOMETRY,
    ids=[f"{v}v-{e}e" for (v, e), *_ in SCALED_GEOMETRY],
)
def test_scaled_geometry_is_pinned(shape, cache, tlb, scan_interval):
    space = AddressSpace(*shape)
    scaled = CacheConfig.scaled_for(space.num_vertices)
    assert (scaled.num_sets, scaled.ways, scaled.line_size) == cache
    scaled_tlb = TLBConfig.scaled_for(space.num_vertices)
    assert (scaled_tlb.entries, scaled_tlb.ways, scaled_tlb.page_size) == tlb
    config = with_ecs_scans(space, SimulationConfig.scaled_for(space))
    assert config.cache == scaled and config.tlb == scaled_tlb
    assert config.scan_interval == scan_interval
