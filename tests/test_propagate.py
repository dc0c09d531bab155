"""Propagation: unitarity, oracle agreement, cost, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

from schro_gsp.errors import ContractError, NumericalError, SizeError
from schro_gsp.graph_core import FeatureLocations, Graph, Signal, ring_graph
from schro_gsp.operators import (
    SecondOrderGenerator,
    SparseOperator,
    schrodinger_laplacian,
)
from schro_gsp.propagate import (
    CHEB_TAIL_TOL,
    DensePropagator,
    _chebyshev_coefficients,
    evolve,
    unitarity_defect,
)
from schro_gsp.verify import random_connected_graph, random_features, random_unit

from conftest import make_instance


class TestExactCases:
    def test_zero_time_returns_input(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        g = Signal(np.array([1.0, 2.0, 3.0]))
        out = evolve(lap, 0.0, g)
        assert np.array_equal(out.values, g.values)

    def test_constant_feature_is_identity_for_any_time(self, path3):
        graph, _ = path3
        lap = schrodinger_laplacian(graph, FeatureLocations.single([5.0] * 3))
        g = Signal(np.array([1.0, -2.0, 0.5]))
        out = evolve(lap, 3.7, g)
        assert np.allclose(out.values, g.values, atol=0.0)

    def test_path_taylor_matches_dense(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        g = Signal(np.array([1.0, 0.0, 0.0]))
        series = evolve(lap, 0.3, g)
        oracle = DensePropagator(lap).apply(0.3, g.values)
        assert np.max(np.abs(series.values - oracle)) <= 1e-8


class TestUnitarity:
    def test_dense_preserves_norm(self):
        graph, f, vec = make_instance(41)
        lap = schrodinger_laplacian(graph, f)
        out = DensePropagator(lap).apply(1.3, vec)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_taylor_defect_within_budget(self):
        graph, f, vec = make_instance(47, n_max=64)
        lap = schrodinger_laplacian(graph, f)
        defect = unitarity_defect(lap, 2.0, Signal.single(vec))
        assert defect <= 1e-6

    def test_zero_time_zero_defect(self):
        graph, f, vec = make_instance(3)
        lap = schrodinger_laplacian(graph, f)
        assert unitarity_defect(lap, 0.0, Signal.single(vec)) == 0.0

    def test_defect_requires_nonzero_signal(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError):
            unitarity_defect(lap, 1.0, Signal(np.zeros(3)))


class TestComposition:
    def test_dense_semigroup(self):
        graph, f, vec = make_instance(13)
        lap = schrodinger_laplacian(graph, f)
        prop = DensePropagator(lap)
        two_step = prop.apply(0.4, prop.apply(0.9, vec))
        one_step = prop.apply(1.3, vec)
        assert np.max(np.abs(two_step - one_step)) <= 1e-9

    def test_taylor_inversion(self):
        graph, f, vec = make_instance(17)
        lap = schrodinger_laplacian(graph, f)
        g = Signal.single(vec)
        back = evolve(lap, -0.8, evolve(lap, 0.8, g))
        assert np.max(np.abs(back.values - g.values)) <= 1e-6

    def test_dense_inversion(self):
        graph, f, vec = make_instance(19)
        lap = schrodinger_laplacian(graph, f)
        prop = DensePropagator(lap)
        back = prop.apply(-1.1, prop.apply(1.1, vec))
        assert np.max(np.abs(back - vec)) <= 1e-9


class TestFailureModes:
    def test_dense_size_cap(self):
        graph, f = ring_graph(1030)
        lap = schrodinger_laplacian(graph, FeatureLocations(f.values[:, :2]))
        with pytest.raises(SizeError):
            DensePropagator(lap)

    def test_huge_time_names_term_count(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        g = Signal(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NumericalError, match="needs about 1e\\+40 Chebyshev terms"):
            evolve(lap, 1e40, g)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "propagate",
        [evolve, lambda lap, t, g: DensePropagator(lap).apply(t, g.values)],
        ids=["default", "dense-oracle"])
    def test_non_finite_time_rejected(self, path3, t, propagate):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        g = Signal(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ContractError, match="time must be finite"):
            propagate(lap, t, g)

    def test_tiny_non_self_adjoint_generator_rejected(self):
        op = SparseOperator(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        with pytest.raises(ContractError, match="self-adjoint"):
            evolve(op, 1.0, Signal(np.array([1.0, 0.0])))

    def test_size_mismatch_rejected(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError):
            evolve(lap, 0.1, Signal(np.ones(5)))
        with pytest.raises(ContractError):
            DensePropagator(lap).apply(0.1, np.ones(5))

    def test_batched_apply_matches_per_column(self):
        graph, f, _ = make_instance(29)
        lap = schrodinger_laplacian(graph, f)
        prop = DensePropagator(lap)
        gen = np.random.default_rng(0)
        batch = gen.normal(size=(graph.n_nodes, 3)) + 0j
        joint = prop.apply(0.6, batch)
        for j in range(3):
            assert np.allclose(joint[:, j], prop.apply(0.6, batch[:, j]), atol=0.0)


class TestChebyshevCoefficients:
    @pytest.mark.parametrize("z", [3e-9, 0.3, -7.0, 123.4, -2500.0, 1e4])
    def test_match_scipy_bessel_and_drop_a_negligible_tail(self, z):
        coef = _chebyshev_coefficients(z)
        k = np.arange(coef.size + 300)
        expect = 2.0 * jv(k, z) * (-1j) ** (k % 4)
        expect[0] /= 2.0
        # Rounding in the downward recurrence grows at most linearly with its
        # number of steps, about |z|.
        gap = np.max(np.abs(coef - expect[: coef.size]))
        assert gap <= 8 * np.finfo(float).eps * (1.0 + abs(z))
        assert np.sum(np.abs(expect[coef.size:])) < CHEB_TAIL_TOL


class TestCost:
    def test_generator_applications_near_half_time_bandwidth(self, monkeypatch):
        graph, f, vec = make_instance(3)
        lap = schrodinger_laplacian(graph, f)
        t = -0.75
        calls = []
        apply = SecondOrderGenerator.apply

        def counted(self, values):
            calls.append(1)
            return apply(self, values)

        monkeypatch.setattr(SecondOrderGenerator, "apply", counted)
        evolve(lap, t, Signal.single(vec))
        # A Taylor-like cost of 15 applications per unit of |t| b is 750 here.
        assert len(calls) <= math.ceil(abs(t) * lap.norm_bound / 2) + 40


def _log_weight_instance(seed: int, n_parts: int):
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


def _check_against_oracle(lap, t: float, vec: np.ndarray) -> None:
    out = evolve(lap, t, Signal.single(vec)).values[:, 0]
    exact = DensePropagator(lap).apply(t, vec)
    assert np.max(np.abs(out - exact)) <= 1e-8
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-6


class TestExtremes:
    """Series against the dense oracle with |t| b up to 2000."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(-2000.0, 2000.0))
    @example(seed=0, tau=-2000.0)
    @example(seed=0, tau=2000.0)
    def test_log_uniform_weights(self, seed, tau):
        graph, f, vec = _log_weight_instance(seed, 1)
        lap = schrodinger_laplacian(graph, f)
        _check_against_oracle(lap, tau / lap.norm_bound, vec)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(-2000.0, 2000.0))
    def test_disconnected_graph(self, seed, tau):
        graph, f, vec = _log_weight_instance(seed, 3)
        lap = schrodinger_laplacian(graph, f)
        _check_against_oracle(lap, tau / lap.norm_bound, vec)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_single_node_returns_input(self, t):
        graph = Graph(1, np.array([]), np.array([]), np.array([]))
        lap = schrodinger_laplacian(graph, FeatureLocations.single([0.5]))
        vec = np.array([0.6 + 0.8j])
        assert lap.norm_bound == 0.0
        assert np.array_equal(evolve(lap, t, Signal.single(vec)).values[:, 0], vec)
        _check_against_oracle(lap, t, vec)
