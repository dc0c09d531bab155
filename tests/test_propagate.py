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
    chebyshev_terms,
    evolve,
)

from conftest import log_weight_instance, make_instance


class TestExactCases:
    def test_zero_time_returns_input(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        g = np.array([1.0, 2.0, 3.0])
        out = evolve(lap, 0.0, g)
        assert np.array_equal(out, g)

    def test_constant_feature_is_identity_for_any_time(self, path3):
        graph, _ = path3
        lap = schrodinger_laplacian(graph, FeatureLocations([5.0] * 3))
        g = np.array([1.0, -2.0, 0.5])
        out = evolve(lap, 3.7, g)
        assert np.allclose(out, g, atol=0.0)

    def test_path_taylor_matches_dense(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        g = np.array([1.0, 0.0, 0.0])
        series = evolve(lap, 0.3, g)
        oracle = DensePropagator(lap).apply(0.3, g)
        assert np.max(np.abs(series - oracle)) <= 1e-8


class TestUnitarity:
    def test_dense_preserves_norm(self):
        graph, f, vec = make_instance(41)
        lap = schrodinger_laplacian(graph, f)
        out = DensePropagator(lap).apply(1.3, vec)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_taylor_defect_within_budget(self):
        graph, f, vec = make_instance(47, n_max=64)
        lap = schrodinger_laplacian(graph, f)
        after = np.linalg.norm(evolve(lap, 2.0, vec))
        assert abs(after - np.linalg.norm(vec)) / np.linalg.norm(vec) <= 1e-6

    def test_zero_time_zero_defect(self):
        graph, f, vec = make_instance(3)
        lap = schrodinger_laplacian(graph, f)
        after = np.linalg.norm(evolve(lap, 0.0, vec))
        assert abs(after - np.linalg.norm(vec)) / np.linalg.norm(vec) == 0.0


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
        back = evolve(lap, -0.8, evolve(lap, 0.8, vec))
        assert np.max(np.abs(back - vec)) <= 1e-6

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
        g = np.array([1.0, 0.0, 0.0])
        with pytest.raises(NumericalError, match="needs about 1e\\+40 Chebyshev terms"):
            evolve(lap, 1e40, g)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "propagate",
        [evolve, lambda lap, t, g: DensePropagator(lap).apply(t, g)],
        ids=["default", "dense-oracle"])
    def test_non_finite_time_rejected(self, path3, t, propagate):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        g = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ContractError, match="time must be finite"):
            propagate(lap, t, g)

    def test_tiny_non_self_adjoint_generator_rejected(self):
        # The series refuses it by type (below); the dense oracle, which
        # takes any operator, runs the scale-free self-adjointness test.
        op = SparseOperator(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        with pytest.raises(ContractError, match="self-adjoint"):
            DensePropagator(op)

    @pytest.mark.parametrize("propagate", [
        lambda op: evolve(op, 1.0, np.array([1.0, 0.0])),
        lambda op: chebyshev_terms(op, 1.0),
    ], ids=["evolve", "chebyshev_terms"])
    @pytest.mark.parametrize("mat", [
        [[0.0, 1e-13], [0.0, 0.0]],
        [[2.0, -1.0], [-1.0, 2.0]],
    ], ids=["non-self-adjoint", "self-adjoint"])
    def test_series_refuses_an_operator_that_is_not_a_generator(self, propagate, mat):
        op = SparseOperator(np.array(mat))
        with pytest.raises(ContractError, match="only a SecondOrderGenerator"):
            propagate(op)

    def test_size_mismatch_rejected(self, path3):
        graph, f = path3
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError):
            evolve(lap, 0.1, np.ones(5))
        with pytest.raises(ContractError):
            DensePropagator(lap).apply(0.1, np.ones(5))

    @pytest.mark.parametrize("propagate", [
        evolve, lambda lap, t, x: DensePropagator(lap).apply(t, x),
    ], ids=["default", "dense-oracle"])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("poison", [np.nan, np.inf, 1j * np.nan])
    def test_non_finite_operand_rejected_at_any_time(self, propagate, t, poison):
        # Refused on entry, before the series' short-time shortcut would
        # hand the NaN back and before a long series would report it as a
        # numerical failure.
        graph, f = ring_graph(8)
        lap = schrodinger_laplacian(graph, f)
        vec = np.ones(8, dtype=complex)
        vec[3] = poison
        with pytest.raises(ContractError, match="operand must be finite"):
            propagate(lap, t, vec)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_non_finite_weights_rejected(self, t):
        graph, f = ring_graph(8)
        lap = schrodinger_laplacian(graph, f)
        weights = np.ones(8)
        weights[5] = np.inf
        with pytest.raises(ContractError, match="weights must be finite"):
            evolve(lap, t, np.ones((8, 2), dtype=complex), weights)

    @pytest.mark.parametrize("propagate", [
        evolve, lambda lap, t, x: DensePropagator(lap).apply(t, x),
    ], ids=["default", "dense-oracle"])
    @pytest.mark.parametrize("operand", [
        np.ones((8, 2, 1), dtype=complex), np.array(1.0 + 0j),
        Signal(np.ones(8, dtype=complex)),
    ], ids=["3-d", "0-d", "signal"])
    def test_operand_of_another_rank_rejected(self, propagate, operand):
        graph, f = ring_graph(8)
        lap = schrodinger_laplacian(graph, f)
        with pytest.raises(ContractError, match=r"an \(N,\) or \(N, J\) array"):
            propagate(lap, 0.5, operand)

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
        evolve(lap, t, vec)
        # One application per term after the first, each through ``apply``:
        # a product that bypassed it would read zero here.
        assert len(calls) == chebyshev_terms(lap, t) - 1
        # A Taylor-like cost of 15 applications per unit of |t| b is 750 here.
        assert len(calls) <= math.ceil(abs(t) * lap.norm_bound / 2) + 40


def _check_against_oracle(lap, t: float, vec: np.ndarray) -> None:
    out = evolve(lap, t, vec)
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
        graph, f, vec = log_weight_instance(seed, 1)
        lap = schrodinger_laplacian(graph, f)
        _check_against_oracle(lap, tau / lap.norm_bound, vec)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(-2000.0, 2000.0))
    def test_disconnected_graph(self, seed, tau):
        graph, f, vec = log_weight_instance(seed, 3)
        lap = schrodinger_laplacian(graph, f)
        _check_against_oracle(lap, tau / lap.norm_bound, vec)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_single_node_returns_input(self, t):
        graph = Graph(1, np.array([]), np.array([]), np.array([]))
        lap = schrodinger_laplacian(graph, FeatureLocations([0.5]))
        vec = np.array([0.6 + 0.8j])
        assert lap.norm_bound == 0.0
        assert np.array_equal(evolve(lap, t, vec), vec)
        _check_against_oracle(lap, t, vec)
