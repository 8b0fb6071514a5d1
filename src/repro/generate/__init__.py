"""Synthetic dataset generators standing in for the paper's Table I graphs."""

from repro.generate.datasets import load_dataset
from repro.generate.social import social_network
from repro.generate.webgraph import web_graph

__all__ = ["load_dataset", "social_network", "web_graph"]
