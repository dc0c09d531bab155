"""Operator construction against hand-computed matrices and exact identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from schro_gsp import operators
from schro_gsp.errors import ContractError, NumericalError
from schro_gsp.experiments import grid_graph
from schro_gsp.graph_core import FeatureLocations, Graph
from schro_gsp.operators import (
    DENSE_MAX_NODES,
    DiagonalOperator,
    SparseOperator,
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

from conftest import log_weight_instance, make_instance


class TestFeatureDerivative:
    def test_path_matrix(self, path3):
        graph, f = path3
        # entry (n, m) = a(n, m) (f(n) - f(m)) with f = (0, 1, 2)
        expect = np.array([
            [0.0, -1.0, 0.0],
            [1.0, 0.0, -1.0],
            [0.0, 1.0, 0.0],
        ])
        assert np.allclose(feature_derivative(graph, f, 0).tosparse().toarray(), expect)

    def test_constant_feature_vanishes(self, path3):
        graph, _ = path3
        f = FeatureLocations.single([4.0, 4.0, 4.0])
        assert infinity_norm(feature_derivative(graph, f, 0)) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_skew_symmetric(self, seed):
        graph, f, _ = make_instance(seed)
        mat = feature_derivative(graph, f, 0).tosparse()
        residue = (mat + mat.T).toarray()
        assert np.max(np.abs(residue)) == 0.0

    @pytest.mark.parametrize("k", [-1, 2])
    def test_feature_index_out_of_range_rejected(self, k):
        graph, f, _ = make_instance(3, n_features=2)
        for build in (feature_derivative, momentum_observable, smoothing_operator):
            with pytest.raises(ContractError, match="out of range"):
                build(graph, f, k)
        with pytest.raises(ContractError, match="out of range"):
            location_observable(f, k)

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
        assert np.allclose(lap.tosparse().toarray(), expect, atol=1e-12)

    def test_self_adjoint_bilinear_form(self, rng):
        graph, f, _ = make_instance(23, n_features=2)
        lap = schrodinger_laplacian(graph, f)
        g = rng.normal(size=graph.n_nodes) + 1j * rng.normal(size=graph.n_nodes)
        h = rng.normal(size=graph.n_nodes) + 1j * rng.normal(size=graph.n_nodes)
        lhs = np.vdot(h, lap.apply(g))
        rhs = np.vdot(lap.apply(h), g)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("complex_operand", [False, True])
    @pytest.mark.parametrize("shape", ["vector", "block", "column-slice"])
    def test_apply_matches_factor_by_factor(self, rng, complex_operand, shape):
        # The generator and a plain derivative: both real sparse operators,
        # checked against products with the derivative matrices.
        graph, f, _ = make_instance(67, n_features=3)
        grads = [feature_derivative(graph, f, k).tosparse() for k in range(3)]
        n = graph.n_nodes
        raw = rng.normal(size=(n, 5))
        if complex_operand:
            raw = raw + 1j * rng.normal(size=(n, 5))
        x = {"vector": raw[:, 0].copy(), "block": raw, "column-slice": raw[:, 1::2]}[shape]
        if shape == "column-slice":
            assert not x.flags.c_contiguous
        cases = [
            (schrodinger_laplacian(graph, f), -sum(g @ (g @ x) for g in grads)),
            (feature_derivative(graph, f, 1), grads[1] @ x),
        ]
        for op, expected in cases:
            got = op.apply(x)
            assert got.shape == x.shape
            assert np.iscomplexobj(got) == complex_operand
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 3), st.integers(1, 3))
    def test_composition_is_exactly_symmetric_and_matches_the_k_term_sum(
            self, seed, n_parts, k):
        # Weights in [1e-8, 1e8]; more than one part is a disconnected graph.
        # Coordinates on a coarse grid tie across some edges, and the first
        # edge is tied outright, so some derivative entries are zero.
        graph, _, _ = log_weight_instance(seed, n_parts)
        cols = np.round(np.random.default_rng(seed).normal(size=(graph.n_nodes, k)))
        cols[graph.edge_v[0]] = cols[graph.edge_u[0]]
        f = FeatureLocations(cols)
        grads = [feature_derivative(graph, f, j).tosparse() for j in range(k)]
        assert all(g.nnz < 2 * graph.n_edges for g in grads)
        lap = schrodinger_laplacian(graph, f).tosparse()
        assert (lap - lap.T).nnz == 0
        # Entrywise against the K separate squares, relative to the sum of
        # the absolute products each entry adds up.
        ref = -sum(g @ g for g in grads)
        scale = sum(abs(g) @ abs(g) for g in grads).toarray()
        assert np.all(np.abs((lap - ref).toarray()) <= 1e-14 * scale)


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
        w = smoothing_operator(graph, f, 0).tosparse().toarray()
        assert np.allclose(w, graph.adjacency.toarray())

    def test_commutator_with_itself_vanishes(self, path3):
        graph, f = path3
        d = feature_derivative(graph, f, 0)
        assert infinity_norm(commutator(d, d)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_smoothing_is_location_derivative_commutator(self, seed):
        graph, f, _ = make_instance(seed)
        w = smoothing_operator(graph, f, 0).tosparse().toarray()
        alt = commutator(
            location_observable(f, 0), feature_derivative(graph, f, 0)
        ).tosparse().toarray()
        assert np.max(np.abs(w - alt)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_generator_location_commutator_identity(self, seed):
        graph, f, _ = make_instance(seed)
        lap = schrodinger_laplacian(graph, f)
        x = location_observable(f, 0)
        d = feature_derivative(graph, f, 0).tosparse()
        w = smoothing_operator(graph, f, 0).tosparse()
        lhs = commutator(lap, x).tosparse().toarray()
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
        derivative = feature_derivative(graph, f, 0)
        # a clustered top pair (within 1e-4 relative), where an iterative
        # estimate can stop short of the norm
        graph, f, _ = make_instance(4, n_features=2)
        clustered = commutator(
            feature_derivative(graph, f, 0), location_observable(f, 1))
        svals = np.linalg.svd(clustered.tosparse().toarray(), compute_uv=False)
        assert svals[1] > 0.9999 * svals[0]
        for op in (derivative, clustered):
            oracle = np.linalg.norm(op.tosparse().toarray(), 2)
            assert float(operator_norm(op)) == pytest.approx(oracle, rel=1e-12)

    def test_returns_top_singular_pair(self):
        # [D_0, X_1] is symmetric; on this instance its top singular value
        # is simple, so the right singular vector is unique up to sign
        graph, f, _ = make_instance(8, n_features=2)
        op = commutator(feature_derivative(graph, f, 0), location_observable(f, 1))
        dense = op.tosparse().toarray()
        svals = np.linalg.svd(dense, compute_uv=False)
        assert svals[1] < 0.95 * svals[0]
        est = operator_norm(op)
        sigma, v = float(est), est.vector
        assert sigma == pytest.approx(np.linalg.norm(dense, 2), rel=1e-9)
        u = dense @ v / np.linalg.norm(dense @ v)
        assert np.linalg.norm(dense @ v - sigma * u) <= 1e-9 * sigma
        assert np.linalg.norm(dense.T @ u - sigma * v) <= 1e-5 * sigma

        # the Laplacian of the unit 8-cycle annihilates the all-ones vector,
        # so a solve started there would find nothing
        ring = Graph.from_edges(8, [(k, (k + 1) % 8, 1.0) for k in range(8)])
        lap = SparseOperator(2.0 * sparse.eye(8) - ring.adjacency)
        assert not lap.apply(np.ones(8)).any()
        est = operator_norm(lap)
        assert float(est) == pytest.approx(4.0, rel=1e-9)
        v = est.vector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(lap.apply(v)) == pytest.approx(
            float(est), rel=1e-14)

    def test_estimate_reports_convergence(self):
        est = operator_norm(DiagonalOperator(np.array([2.0, 1.0])))
        assert est.converged and est.iterations >= 1

    def test_single_node_operator(self):
        est = operator_norm(SparseOperator(np.array([[-3.0]])))
        assert float(est) == 3.0
        assert np.abs(est.vector).tolist() == [1.0]

    def test_no_convergence_raises(self, monkeypatch):
        from scipy.sparse import linalg

        def stalled(*args, **kwargs):
            raise linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(linalg, "svds", stalled)
        # Above both dense caps: Lanczos runs and has no fallback.
        monkeypatch.setattr(operators, "DENSE_NORM_MAX_NODES", 2)
        monkeypatch.setattr(operators, "DENSE_MAX_NODES", 2)
        with pytest.raises(NumericalError, match="3-node"):
            operator_norm(DiagonalOperator(np.array([2.0, 1.0, 0.5])))

    def test_no_convergence_above_the_cap_raises(self, monkeypatch):
        from scipy.sparse import linalg

        def stalled(*args, **kwargs):
            raise linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(linalg, "svds", stalled)
        n = DENSE_MAX_NODES + 1
        with pytest.raises(NumericalError, match=f"{n}-node"):
            operator_norm(DiagonalOperator(np.linspace(1.0, 2.0, n)))

    def test_no_convergence_within_the_cap_takes_dense_svd(self, monkeypatch):
        from scipy.sparse import linalg

        def stalled(*args, **kwargs):
            raise linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(linalg, "svds", stalled)
        # Lanczos runs first, then stalls into the dense fallback.
        monkeypatch.setattr(operators, "DENSE_NORM_MAX_NODES", 2)
        est = operator_norm(DiagonalOperator(np.array([2.0, -3.0, 0.5])))
        assert float(est) == 3.0
        assert np.abs(est.vector).tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("n", [50, 200])
    def test_clustered_top_singular_values(self, n):
        # Distinct top values packed within 1e-8, where ARPACK stalls.
        op = DiagonalOperator(1.0 - np.geomspace(1e-8, 1.0, n))
        est = operator_norm(op)
        exact = np.linalg.svd(op.tosparse().toarray(), compute_uv=False)[0]
        assert float(est) == pytest.approx(exact, rel=1e-12)
        assert np.linalg.norm(op.apply(est.vector)) == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_norm_bracket(self, seed):
        graph, f, _ = make_instance(seed)
        op = feature_derivative(graph, f, 0)
        dense = op.tosparse().toarray()
        spectral = float(operator_norm(op))
        upper = infinity_norm(op) * np.sqrt(graph.n_nodes)
        lower = np.linalg.norm(dense) / np.sqrt(graph.n_nodes)
        assert lower - 1e-9 <= spectral <= upper + 1e-9

    @pytest.mark.parametrize("n", [3, 300])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_raises(self, n, bad):
        diag = np.ones(n)
        diag[1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            operator_norm(SparseOperator(sparse.diags(diag, format="csr")))

    def test_overflowing_gram_matrix_raises(self):
        op = SparseOperator(sparse.csr_matrix(np.array([[0.0, 1e200], [1.0, 0.0]])))
        with pytest.raises(NumericalError, match="overflows"):
            operator_norm(op)


def _block_diagonal_cases():
    """Block-diagonal operands: (matrix, block sizes, index of the top block)."""
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    b = 3.0 * rng.normal(size=(3, 3))
    assert np.linalg.norm(b, 2) > 1.01 * np.linalg.norm(a, 2)
    stored_zeros = sparse.block_diag([np.ones((3, 3)), a], format="csr")
    stored_zeros.data[:9] = 0.0  # rows 0-2: a block of explicit zeros
    # 1x1 blocks, two of them empty rows, around a 2x2 block of norm 3
    singletons = sparse.block_diag(
        [[[2.0]], [[0.0]], [[0.0, 1.0], [3.0, 0.0]], [[0.0]], [[-5.0]]], format="csr")
    assert np.diff(singletons.indptr).tolist() == [1, 0, 1, 1, 0, 1]
    c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    d = 4.0 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return {
        "different": (sparse.block_diag([a, b], format="csr"), [4, 3], 1),
        "equal": (sparse.block_diag([a, -a], format="csr"), [4, 4], 0),
        "zero-block": (stored_zeros, [3, 4], 1),
        "singletons": (singletons, [1, 1, 2, 1, 1], 4),
        "complex": (sparse.block_diag([c, d], format="csr"), [5, 2], 1),
    }


class TestBlockDiagonalNorm:
    """The dense solve takes a block-diagonal operand one block at a time."""

    @staticmethod
    def _counting_eigh(monkeypatch):
        import scipy.linalg

        calls = []
        original = scipy.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counted)
        return calls

    @pytest.mark.parametrize("name", sorted(_block_diagonal_cases()))
    def test_top_block_gives_the_norm_and_vector(self, name, monkeypatch):
        mat, sizes, top = _block_diagonal_cases()[name]
        bounds = np.cumsum([0, *sizes])
        calls = self._counting_eigh(monkeypatch)
        est = operator_norm(SparseOperator(mat))
        monkeypatch.undo()
        assert calls == [(k, k) for k in sizes if k > 1]
        dense = mat.toarray()
        sigma, v = float(est), est.vector
        assert sigma == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0],
                                      rel=1e-13)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(dense @ v) == pytest.approx(sigma, rel=1e-13)
        lo, hi = bounds[top], bounds[top + 1]
        assert not v[:lo].any() and not v[hi:].any()

    def test_permuted_blocks_take_one_solve(self, monkeypatch):
        mat, _, _ = _block_diagonal_cases()["different"]
        perm = np.random.default_rng(3).permutation(mat.shape[0])
        mixed = mat[perm][:, perm]
        assert operators._block_bounds(mixed).tolist() == [0, mat.shape[0]]
        calls = self._counting_eigh(monkeypatch)
        est = operator_norm(SparseOperator(mixed))
        assert calls == [mat.shape]
        assert float(est) == pytest.approx(
            np.linalg.svd(mat.toarray(), compute_uv=False)[0], rel=1e-13)


def _row_sum_cases():
    rng = np.random.default_rng(5)
    mat = sparse.random(40, 30, density=0.15, format="csr", random_state=rng)
    mat = sparse.diags((rng.random(40) < 0.7).astype(float)) @ mat  # empty rows
    mat.data -= 0.5
    stored_zeros = mat.copy()
    stored_zeros.data[::3] = 0.0
    cases = {
        "real": mat,
        "complex": mat + 1j * (mat @ sparse.random(30, 30, density=0.3,
                                                   random_state=rng)),
        "stored-zeros": stored_zeros,
        "all-zero": sparse.csr_matrix((6, 6)),
    }
    # scipy's abs sorts a matrix's indices before it sums; these are sorted.
    for case in cases.values():
        case.sort_indices()
    return cases


class TestAbsRowSums:
    @pytest.mark.parametrize("name", sorted(_row_sum_cases()))
    def test_bit_identical_to_scipy(self, name):
        mat = _row_sum_cases()[name]
        assert mat.format == "csr" and mat.has_sorted_indices
        assert np.diff(mat.indptr).min() == 0
        got = operators._abs_row_sums(mat)
        ref = np.asarray(np.abs(mat).sum(axis=1)).ravel()
        assert got.dtype == ref.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _solver_cases():
    """Operators for both norm solvers, with whether their top value is a pair."""
    graph, q = grid_graph(12)
    cols = [q.values @ t for t in ([0.9, 0.2], [-0.3, 0.7])]
    f = FeatureLocations(np.column_stack(cols))
    g = feature_derivative(graph, f, 1).tosparse()
    grid = commutator(SparseOperator(g @ g), location_observable(f, 0))
    graph, f, _ = make_instance(6, n_features=2)
    momentum = commutator(momentum_observable(graph, f, 0), location_observable(f, 1))
    g = feature_derivative(graph, f, 1).tosparse()
    skew = commutator(SparseOperator(g @ g), location_observable(f, 0))
    ring = Graph.from_edges(8, [(k, (k + 1) % 8, 1.0) for k in range(8)])
    lap = SparseOperator(2.0 * sparse.eye(8) - ring.adjacency)
    return {"grid-144": (grid, True), "momentum": (momentum, False),
            "skew": (skew, True), "ring-8": (lap, False)}


class TestNormSolversAgree:
    """The dense Gram eigensolve and Lanczos, each forced by the size cap."""

    def test_dense_cap_within_the_dense_limit(self):
        assert operators.DENSE_NORM_MAX_NODES <= DENSE_MAX_NODES

    @pytest.mark.parametrize("name", ["grid-144", "momentum", "skew", "ring-8"])
    def test_values_and_vectors(self, name, monkeypatch):
        op, paired = _solver_cases()[name]
        svals = np.linalg.svd(op.tosparse().toarray(), compute_uv=False)
        assert np.iscomplexobj(op.tosparse().data) == (name == "momentum")
        assert (svals[1] > (1 - 1e-12) * svals[0]) == paired
        estimates = []
        for cap in (op.dim, 0):  # dense, then Lanczos
            monkeypatch.setattr(operators, "DENSE_NORM_MAX_NODES", cap)
            est = operator_norm(op)
            sigma, v = float(est), est.vector
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
            assert np.linalg.norm(op.apply(v)) == pytest.approx(sigma, rel=1e-13)
            estimates.append(sigma)
        assert estimates[0] == pytest.approx(estimates[1], rel=1e-13)
        assert estimates[0] == pytest.approx(svals[0], rel=1e-13)
