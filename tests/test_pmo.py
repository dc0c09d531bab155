"""Feature-alignment objective and its optimizer."""

import sys

import numpy as np
import pytest

from schro_gsp.errors import ContractError, DivergedError
from schro_gsp.experiments import grid_graph
from schro_gsp.graph_core import FeatureLocations, Graph
from schro_gsp.observe import commuting_deficiency
from schro_gsp.pmo import PMOConfig, pmo_fit, pmo_objective
from schro_gsp.verify import random_connected_graph, random_features


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"out_features": 0},
        {"out_features": 2, "lam": -0.5},
        {"out_features": 2, "learning_rate": 0.0},
        {"out_features": 2, "max_iters": 0},
        {"out_features": 2, "learning_rate": -0.02},
        {"out_features": 2, "max_iters": -3},
        {"out_features": 2, "lam": float("nan")},
        {"out_features": 2, "lam": float("inf")},
        {"out_features": 2, "learning_rate": float("nan")},
        {"out_features": 2, "learning_rate": float("inf")},
        {"out_features": 2, "lam": float("-inf")},
        {"out_features": 2, "max_iters": 2.5},
        {"out_features": True},
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ContractError):
            PMOConfig(**kwargs)


class TestObjective:
    def test_zero_transform_is_pure_penalty(self):
        rng = np.random.default_rng(5)
        graph = random_connected_graph(rng, n_max=10)
        q = random_features(rng, graph.n_nodes, 3)
        lam = 0.7
        val = pmo_objective(graph, q, np.zeros((3, 2)), lam)
        assert val == pytest.approx(lam * 2, abs=1e-14)

    def test_single_output_is_penalty_only(self, path3):
        # path with f = (0, 1, 2): derivative infinity norm is exactly 2
        graph, f = path3
        q = FeatureLocations.single(f.column(0))
        val = pmo_objective(graph, q, np.array([[1.0]]), 0.7)
        assert val == pytest.approx(0.7 * (2.0 - 1.0) ** 2, abs=1e-12)

    def test_matches_dense_oracle_on_grid(self):
        graph, q = grid_graph(3)
        t = np.eye(2)
        lam = 1.0
        val = pmo_objective(graph, q, t, lam)

        from schro_gsp.operators import feature_derivative

        feats = FeatureLocations(q.values @ t)
        dense = [
            feature_derivative(graph, feats, k).tosparse().toarray()
            for k in range(2)
        ]
        cross = 0.0
        for i in range(2):
            x_i = np.diag(feats.column(i))
            for j in range(2):
                if i == j:
                    continue
                sq = dense[j] @ dense[j]
                cross += np.linalg.norm(sq @ x_i - x_i @ sq, 2) ** 2
        penalty = lam * sum(
            (np.abs(d).sum(axis=1).max() - 1.0) ** 2 for d in dense
        )
        assert val == pytest.approx(cross + penalty, rel=1e-6)

    def test_wrong_transform_shape_rejected(self, path3):
        graph, f = path3
        q = FeatureLocations.single(f.column(0))
        with pytest.raises(ContractError):
            pmo_objective(graph, q, np.zeros((2, 1)), 1.0)

    def test_output_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        graph = random_connected_graph(rng, n_max=10)
        q = random_features(rng, graph.n_nodes, 3)
        t = rng.normal(size=(3, 2))
        a = pmo_objective(graph, q, t, 1.0)
        b = pmo_objective(graph, q, t[:, ::-1], 1.0)
        assert a == pytest.approx(b, rel=1e-9)


class TestFit:
    def test_near_stationary_start_stays_put(self):
        # two-node graph: the identity transform already has unit
        # derivative norm, so the objective starts at its minimum of zero
        graph = Graph.from_edges(2, [(0, 1, 1.0)])
        q = FeatureLocations.single([0.0, 1.0])
        assert pmo_objective(graph, q, np.array([[1.0]]), 1.0) == pytest.approx(
            0.0, abs=1e-14)
        result = pmo_fit(graph, q, PMOConfig(out_features=1, max_iters=30))
        assert abs(float(result.transform[0, 0]) - 1.0) <= 1e-6
        final = pmo_objective(graph, q, result.transform, 1.0)
        assert final <= 1e-6

    def test_fit_descends_and_trace_is_monotone(self):
        rng = np.random.default_rng(21)
        graph = random_connected_graph(rng, n_min=8, n_max=12)
        q = random_features(rng, graph.n_nodes, 2)
        cfg = PMOConfig(out_features=2, max_iters=25, seed=1)
        init = pmo_objective(graph, q, np.eye(2), cfg.lam)
        result = pmo_fit(graph, q, cfg)
        final = pmo_objective(graph, q, result.transform, cfg.lam)
        assert final <= init + 1e-12
        values = [v for _, v in result.objective_trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        recomputed = commuting_deficiency(
            graph, FeatureLocations(q.values @ result.transform))
        assert result.final_deficiency == pytest.approx(recomputed, rel=1e-6)

    def test_spectral_mode_descends(self):
        # the spectral-pair gradient is the only one; a second instance
        rng = np.random.default_rng(22)
        graph = random_connected_graph(rng, n_min=8, n_max=12)
        q = random_features(rng, graph.n_nodes, 2)
        cfg = PMOConfig(out_features=2, max_iters=25)
        init = pmo_objective(graph, q, np.eye(2), cfg.lam)
        result = pmo_fit(graph, q, cfg)
        assert pmo_objective(graph, q, result.transform, cfg.lam) <= init + 1e-12

    def test_spectral_gradient_matches_finite_differences(self):
        from schro_gsp.pmo import _evaluate, _Workspace

        rng = np.random.default_rng(23)
        graph = random_connected_graph(rng, n_min=6, n_max=10)
        q = random_features(rng, graph.n_nodes, 2)
        t = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
        ws = _Workspace(graph, q)
        spectral = _evaluate(ws, t, 1.0)[1]

        fd = np.zeros_like(t)
        step = 1e-6
        for idx in np.ndindex(*t.shape):
            probe = t.copy()
            probe[idx] = t[idx] + step
            up = pmo_objective(graph, q, probe, 1.0)
            probe[idx] = t[idx] - step
            down = pmo_objective(graph, q, probe, 1.0)
            fd[idx] = (up - down) / (2.0 * step)
        assert np.linalg.norm(spectral - fd) <= 1e-3 * max(
            1.0, np.linalg.norm(fd))

    def test_too_few_raw_columns_rejected(self, path3):
        graph, f = path3
        q = FeatureLocations.single(f.column(0))
        with pytest.raises(ContractError):
            pmo_fit(graph, q, PMOConfig(out_features=2, max_iters=5))

    # the runaway step overflows on purpose before the guard trips
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_runaway_step_raises_with_last_good(self, path3):
        # first step lands at |T| ~ 1e308, where the norm overflows to inf
        graph, f = path3
        q = FeatureLocations.single(f.column(0))
        cfg = PMOConfig(out_features=1, learning_rate=1e308, max_iters=5)
        with pytest.raises(DivergedError) as exc:
            pmo_fit(graph, q, cfg)
        assert exc.value.last_good is not None
        assert np.allclose(exc.value.last_good, [[1.0]])

    def test_result_serializes(self):
        rng = np.random.default_rng(24)
        graph = random_connected_graph(rng, n_min=6, n_max=8)
        q = random_features(rng, graph.n_nodes, 2)
        result = pmo_fit(graph, q, PMOConfig(out_features=1, max_iters=5))
        data = result.as_dict()
        assert set(data) == {"transform", "objective_trace", "final_deficiency"}
        assert data["objective_trace"][0][0] == 0


class TestWorkBudget:
    def test_one_norm_estimate_per_commutator_and_iterate(self, monkeypatch):
        # Counts the solves of both norm solvers: Lanczos (``svds``) and the
        # dense Gram eigensolve (``eigh``), which these small graphs take.
        import scipy.linalg
        from scipy.sparse import linalg

        callers = []

        def counting(original):
            def counted(*args, **kwargs):
                # the solver's caller, and its caller for the dense helper
                callers.append((sys._getframe(1).f_code.co_name,
                                sys._getframe(2).f_code.co_name))
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(linalg, "svds", counting(linalg.svds))
        monkeypatch.setattr(scipy.linalg, "eigh", counting(scipy.linalg.eigh))

        rng = np.random.default_rng(21)
        graph = random_connected_graph(rng, n_min=8, n_max=12)
        q = random_features(rng, graph.n_nodes, 2)
        calls = {}
        for iters in (3, 6):
            callers.clear()
            result = pmo_fit(
                graph, q, PMOConfig(out_features=2, max_iters=iters, seed=1))
            assert all("operator_norm" in names for names in callers)
            calls[iters] = len(callers)
        monkeypatch.undo()
        # the identity-start run improved by more than 1%: no restart
        values = [v for _, v in result.objective_trace]
        assert values[0] == pmo_objective(graph, q, np.eye(2), 1.0)
        assert values[-1] < 0.99 * values[0]
        # one solve for each of the two ordered pairs per iterate
        assert calls[6] - calls[3] == 2 * 3
        # the start, each iterate, and the final deficiency
        assert calls[3] == 2 * (1 + 3) + 2

    def test_one_sparse_product_per_output_feature(self, monkeypatch):
        # The squares G_k G_k are the only sparse-sparse products of an
        # iterate; each commutator rescales the entries of its square.
        from scipy.sparse import _compressed

        from schro_gsp.pmo import _evaluate, _Workspace

        original = _compressed.csr_matmat
        calls = []

        def counted(*args):
            calls.append(args[:2])
            return original(*args)

        rng = np.random.default_rng(25)
        graph = random_connected_graph(rng, n_min=8, n_max=12)
        q = random_features(rng, graph.n_nodes, 3)
        ws = _Workspace(graph, q)
        monkeypatch.setattr(_compressed, "csr_matmat", counted)
        for k_out in (2, 3):
            calls.clear()
            _evaluate(ws, rng.normal(size=(3, k_out)), 1.0)
            assert len(calls) == k_out


class TestNormsAlongAFit:
    def test_every_norm_matches_the_dense_svd(self, monkeypatch):
        # On the 12-side grid the top two singular pairs of a commutator
        # cross at iterates 141-147 (sigma_1 and sigma_3 agree to 1e-9
        # relative).  A solve started from the previous iterate's vector
        # stays on the lower pair there and returns a norm short by up to
        # 4.5e-7 without raising; every norm must be the dense SVD's.
        from schro_gsp import pmo

        original = pmo.operator_norm
        errors, gaps = [], []

        def checked(op, *args, **kwargs):
            est = original(op, *args, **kwargs)
            svals = np.linalg.svd(op.tosparse().toarray(), compute_uv=False)
            errors.append(abs(float(est) - svals[0]) / svals[0])
            gaps.append((svals[0] - svals[2]) / svals[0])
            return est

        monkeypatch.setattr(pmo, "operator_norm", checked)
        graph, q = grid_graph(12)
        pmo_fit(graph, q, PMOConfig(out_features=2, max_iters=150))
        # the start, then two ordered pairs per iterate, with no early stop
        assert len(errors) == 2 * 151
        # the instance still crosses after the start
        assert min(gaps[2:]) < 1e-7
        assert max(errors) <= 1e-12


class TestGradientAcrossNormSolvers:
    def test_gradient_agrees_between_solvers_and_pair_vectors(self, monkeypatch):
        # Every grid commutator is real skew-symmetric, so its top singular
        # value is a pair: the dense solve and Lanczos may return different
        # vectors of its span, and so may a rotation within it.
        from schro_gsp import operators, pmo

        graph, q = grid_graph(12)
        ws = pmo._Workspace(graph, q)
        transform = np.array([[0.9, -0.3], [0.2, 0.7]])
        results = []
        for cap in (graph.n_nodes, 0):  # dense, then Lanczos
            monkeypatch.setattr(operators, "DENSE_NORM_MAX_NODES", cap)
            results.append(pmo._evaluate(ws, transform, 1.0))

        def rotated(op):
            est = operators.operator_norm(op)
            partner = op.apply(est.vector) / float(est)
            return operators.NormEstimate(
                float(est), 0.6 * est.vector + 0.8 * partner)

        monkeypatch.setattr(pmo, "operator_norm", rotated)
        results.append(pmo._evaluate(ws, transform, 1.0))
        (obj, grad), *others = results
        for other_obj, other_grad in others:
            assert other_obj == pytest.approx(obj, rel=1e-13)
            assert np.linalg.norm(other_grad - grad) <= 1e-10 * np.linalg.norm(grad)
