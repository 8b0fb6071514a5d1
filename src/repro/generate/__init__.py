"""Synthetic dataset generators standing in for the paper's Table I graphs."""

from repro.generate.datasets import (
    DATASETS,
    DatasetSpec,
    dataset_names,
    load_dataset,
    scale_factor,
)
from repro.generate.rmat import rmat_edges
from repro.generate.social import social_network
from repro.generate.webgraph import host_sizes, web_graph

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "load_dataset",
    "scale_factor",
    "rmat_edges",
    "social_network",
    "host_sizes",
    "web_graph",
]
