"""Shared fixtures: small deterministic random instances, and one run of
the ``verify`` battery per session."""

import time
from typing import NamedTuple

import numpy as np
import pytest

from schro_gsp import propagate
from schro_gsp.graph_core import FeatureLocations, Graph
from schro_gsp.operators import SecondOrderGenerator
from schro_gsp.propagate import DensePropagator
from schro_gsp.verify import (
    SuiteResult,
    random_connected_graph,
    random_features,
    random_unit,
    run_suites,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def path3():
    """Three-node path with unit weights and evenly spaced locations."""
    graph = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    f = FeatureLocations([0.0, 1.0, 2.0])
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


class Battery(NamedTuple):
    results: dict[str, SuiteResult]  # by suite name
    counts: dict[str, int]           # work done, by kind
    seconds: float                   # wall time of the whole run


@pytest.fixture(scope="session")
def battery():
    """One full ``run_suites()``, with its Chebyshev runs, factorizations
    and generator applications counted; ``test_verify.py`` and
    ``test_acceptance.py`` both read it."""
    counts = {"chebyshev": 0, "factorizations": 0, "applications": 0}
    chebyshev = propagate._chebyshev
    factorize = DensePropagator.__init__
    apply = SecondOrderGenerator.apply

    def counted_chebyshev(*args):
        counts["chebyshev"] += 1
        return chebyshev(*args)

    def counted_factorize(self, *args):
        counts["factorizations"] += 1
        factorize(self, *args)

    def counted_apply(self, values):
        counts["applications"] += 1
        return apply(self, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "_chebyshev", counted_chebyshev)
        mp.setattr(DensePropagator, "__init__", counted_factorize)
        mp.setattr(SecondOrderGenerator, "apply", counted_apply)
        start = time.perf_counter()
        results = list(run_suites())
        seconds = time.perf_counter() - start
    return Battery({r.name: r for r in results}, counts, seconds)
