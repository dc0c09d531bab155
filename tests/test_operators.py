"""Operator construction against hand-computed matrices and exact identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from schro_gsp.errors import ContractError
from schro_gsp.graph_core import FeatureLocations, Graph
from schro_gsp.operators import (
    DiagonalOperator,
    SparseOperator,
    _power_iteration,
    commutator,
    feature_derivative,
    infinity_norm,
    location_observable,
    modulation,
    momentum_observable,
    operator_norm,
    schrodinger_laplacian,
    smoothing_operator,
)

from conftest import make_instance


class TestFeatureDerivative:
    def test_path_matrix(self, path3):
        graph, f = path3
        # entry (n, m) = a(n, m) (f(n) - f(m)) with f = (0, 1, 2)
        expect = np.array([
            [0.0, -1.0, 0.0],
            [1.0, 0.0, -1.0],
            [0.0, 1.0, 0.0],
        ])
        assert np.allclose(feature_derivative(graph, f, 0).materialize(), expect)

    def test_constant_feature_vanishes(self, path3):
        graph, _ = path3
        f = FeatureLocations.single([4.0, 4.0, 4.0])
        assert infinity_norm(feature_derivative(graph, f, 0)) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_skew_symmetric(self, seed):
        graph, f, _ = make_instance(seed)
        op = feature_derivative(graph, f, 0)
        residue = op.materialize() + op.adjoint().materialize()
        assert np.max(np.abs(residue)) == 0.0

    def test_sparsity_within_adjacency(self, rng):
        graph, f, _ = make_instance(11)
        mat = feature_derivative(graph, f, 0).tosparse()
        adj = graph.adjacency
        off_pattern = np.abs(mat.toarray()) > 0
        assert not np.any(off_pattern & ~(adj.toarray() != 0))


class TestLaplacian:
    def test_path_matrix(self, path3):
        graph, f = path3
        expect = np.array([
            [1.0, 0.0, -1.0],
            [0.0, 2.0, 0.0],
            [-1.0, 0.0, 1.0],
        ])
        lap = schrodinger_laplacian(graph, f)
        assert np.allclose(lap.materialize(), expect, atol=1e-12)

    def test_self_adjoint_bilinear_form(self, rng):
        graph, f, _ = make_instance(23, n_features=2)
        lap = schrodinger_laplacian(graph, f)
        g = rng.normal(size=graph.n_nodes) + 1j * rng.normal(size=graph.n_nodes)
        h = rng.normal(size=graph.n_nodes) + 1j * rng.normal(size=graph.n_nodes)
        lhs = np.vdot(h, lap.apply(g))
        rhs = np.vdot(lap.apply(h), g)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_adjoint_round_trip(self):
        graph, f, _ = make_instance(5)
        lap = schrodinger_laplacian(graph, f)
        assert lap.is_self_adjoint()
        twice = lap.adjoint().adjoint()
        assert np.allclose(twice.materialize(), lap.materialize(), atol=0.0)


class TestDiagonals:
    def test_location_picks_coordinates(self):
        f = FeatureLocations.single([0.0, 1.0, 2.0])
        x = location_observable(f, 0)
        assert np.allclose(x.apply(np.array([1.0, 0, 0])), [0, 0, 0])
        assert np.allclose(x.apply(np.array([0.0, 0, 1])), [0, 0, 2])
        assert x.is_self_adjoint()

    def test_modulation_zero_angle_is_identity(self, rng):
        h = rng.normal(size=5)
        vec = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert np.array_equal(modulation(h, 0.0).apply(vec), vec)

    def test_modulation_preserves_norm(self, rng):
        h = rng.normal(size=8)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        out = modulation(h, 1.7).apply(vec)
        assert abs(np.linalg.norm(out) - np.linalg.norm(vec)) <= 1e-12
        assert np.max(np.abs(np.abs(modulation(h, 1.7).diagonal) - 1.0)) <= 1e-12

    def test_constant_profile_is_global_phase(self, rng):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        out = modulation(np.full(4, 2.0), 0.9).apply(vec)
        assert np.allclose(out, np.exp(1j * 0.9 * 2.0) * vec)
        assert np.allclose(np.abs(out), np.abs(vec))


class TestSmoothingAndCommutators:
    def test_path_smoothing_equals_adjacency(self, path3):
        graph, f = path3
        # all squared location differences are 1 on this path
        w = smoothing_operator(graph, f, 0).materialize()
        assert np.allclose(w, graph.adjacency.toarray())

    def test_commutator_with_itself_vanishes(self, path3):
        graph, f = path3
        d = feature_derivative(graph, f, 0)
        assert infinity_norm(commutator(d, d)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_smoothing_is_location_derivative_commutator(self, seed):
        graph, f, _ = make_instance(seed)
        w = smoothing_operator(graph, f, 0).materialize()
        alt = commutator(
            location_observable(f, 0), feature_derivative(graph, f, 0)
        ).materialize()
        assert np.max(np.abs(w - alt)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_generator_location_commutator_identity(self, seed):
        graph, f, _ = make_instance(seed)
        lap = schrodinger_laplacian(graph, f)
        x = location_observable(f, 0)
        d = feature_derivative(graph, f, 0).tosparse()
        w = smoothing_operator(graph, f, 0).tosparse()
        lhs = commutator(lap, x).materialize()
        rhs = (d @ w + w @ d).toarray()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_momentum_observable_is_self_adjoint(self):
        graph, f, _ = make_instance(3)
        assert momentum_observable(graph, f, 0).is_self_adjoint()


class TestSelfAdjointness:
    def test_tiny_asymmetric_operator_rejected(self):
        # The whole operator is its asymmetry, however small its entries.
        op = SparseOperator(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        assert not op.is_self_adjoint()

    def test_one_rounding_step_at_large_scale_accepted(self):
        sym = np.random.default_rng(5).uniform(-1e8, 1e8, size=(6, 6))
        sym = sym + sym.T
        sym[0, 1] = np.nextafter(sym[1, 0], np.inf)
        assert 0.0 < sym[0, 1] - sym[1, 0] < 1.5e-8
        assert SparseOperator(sym).is_self_adjoint()


class TestNorms:
    def test_identity_norms(self):
        ident = DiagonalOperator(np.ones(4))
        assert operator_norm(ident) == pytest.approx(1.0, abs=1e-8)
        assert infinity_norm(ident) == 1.0

    def test_diagonal_spectral_norm(self):
        diag = DiagonalOperator(np.array([3.0, -5.0, 2.0]))
        assert operator_norm(diag) == pytest.approx(5.0, abs=1e-8)

    def test_zero_operator(self):
        z = DiagonalOperator(np.zeros(3))
        assert infinity_norm(z) == 0.0
        assert float(operator_norm(z)) == 0.0

    def test_path_infinity_norm(self, path3):
        graph, f = path3
        assert infinity_norm(feature_derivative(graph, f, 0)) == 2.0

    def test_matches_dense_svd(self):
        gen = np.random.default_rng(31)
        graph = Graph.from_edges(8, [
            (u, v, float(gen.uniform(0.1, 2.0)))
            for u in range(8) for v in range(u + 1, 8) if gen.random() < 0.5
        ] or [(0, 1, 1.0)])
        f = FeatureLocations(gen.uniform(-2, 2, size=(8, 1)))
        op = feature_derivative(graph, f, 0)
        oracle = np.linalg.svd(op.materialize(), compute_uv=False)[0]
        assert float(operator_norm(op)) == pytest.approx(oracle, abs=1e-6)

    def test_power_iteration_returns_top_singular_pair(self):
        # [D_0, X_1] is symmetric; on this instance its top singular value
        # is simple, so the right singular vector is unique up to sign
        graph, f, _ = make_instance(8, n_features=2)
        mat = commutator(
            feature_derivative(graph, f, 0), location_observable(f, 1)
        ).tosparse()
        dense = mat.toarray()
        svals = np.linalg.svd(dense, compute_uv=False)
        assert svals[1] < 0.95 * svals[0]
        sigma, converged, _, v = _power_iteration(
            mat, mat.T.tocsr(), np.ones(graph.n_nodes), 1e-12, 5000)
        assert converged
        assert sigma == pytest.approx(np.linalg.norm(dense, 2), rel=1e-9)
        u = dense @ v / np.linalg.norm(dense @ v)
        assert np.linalg.norm(dense @ v - sigma * u) <= 1e-9 * sigma
        assert np.linalg.norm(dense.T @ u - sigma * v) <= 1e-5 * sigma

        # the Laplacian of the unit 8-cycle annihilates the all-ones start
        # exactly, so the kept estimate (the simple top eigenvalue 4) and
        # its vector come from the seeded start
        ring = Graph.from_edges(8, [(k, (k + 1) % 8, 1.0) for k in range(8)])
        lap = SparseOperator(2.0 * sparse.eye(8) - ring.adjacency)
        mat = lap.tosparse()
        assert _power_iteration(mat, mat, np.ones(8), 1e-12, 5000)[0] == 0.0
        est = operator_norm(lap, 1e-12, 5000)
        assert est.converged
        assert float(est) == pytest.approx(4.0, rel=1e-9)
        v = est.vector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(lap.apply(v)) == pytest.approx(
            float(est), rel=1e-14)

    def test_estimate_reports_convergence(self):
        est = operator_norm(DiagonalOperator(np.array([2.0, 1.0])))
        assert est.converged and est.iterations >= 1

    def test_zero_iteration_cap_rejected(self):
        with pytest.raises(ContractError):
            operator_norm(DiagonalOperator(np.array([2.0, 1.0])), max_iter=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_norm_bracket(self, seed):
        graph, f, _ = make_instance(seed)
        op = feature_derivative(graph, f, 0)
        dense = op.materialize()
        spectral = float(operator_norm(op))
        upper = infinity_norm(op) * np.sqrt(graph.n_nodes)
        lower = np.linalg.norm(dense) / np.sqrt(graph.n_nodes)
        assert lower - 1e-9 <= spectral <= upper + 1e-9
