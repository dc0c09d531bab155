"""Shared fixtures: small deterministic random instances."""

import numpy as np
import pytest

from schro_gsp.graph_core import FeatureLocations, Graph
from schro_gsp.verify import random_connected_graph, random_features, random_unit


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def path3():
    """Three-node path with unit weights and evenly spaced locations."""
    graph = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    f = FeatureLocations.single([0.0, 1.0, 2.0])
    return graph, f


def make_instance(seed: int, n_features: int = 1, n_max: int = 24):
    """One random connected graph with features and a unit test vector."""
    gen = np.random.default_rng(seed)
    graph = random_connected_graph(gen, n_max=n_max)
    f = random_features(gen, graph.n_nodes, n_features)
    vec = random_unit(gen, graph.n_nodes)
    return graph, f, vec


def log_weight_instance(seed: int, n_parts: int):
    """``n_parts`` disjoint random components, edge weights in [1e-8, 1e8]."""
    gen = np.random.default_rng(seed)
    us, vs, n = [], [], 0
    for _ in range(n_parts):
        part = random_connected_graph(gen, n_min=2, n_max=12)
        us.append(part.edge_u + n)
        vs.append(part.edge_v + n)
        n += part.n_nodes
    u, v = np.concatenate(us), np.concatenate(vs)
    graph = Graph(n, u, v, 10.0 ** gen.uniform(-8.0, 8.0, size=u.size))
    return graph, random_features(gen, n, 2), random_unit(gen, n)
