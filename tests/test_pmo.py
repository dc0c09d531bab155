"""Feature-alignment objective and its optimizer."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schro_gsp import pmo as pmo_module
from schro_gsp.errors import ContractError, DivergedError, NumericalError
from schro_gsp.experiments import grid_graph
from schro_gsp.graph_core import FeatureLocations, Graph, ring_graph
from schro_gsp.operators import feature_derivative
from schro_gsp.pmo import (
    PMOConfig,
    _evaluate,
    _Workspace,
    commuting_deficiency,
    pmo_fit,
    pmo_objective,
)
from schro_gsp.verify import random_connected_graph, random_features

from conftest import log_weight_instance, make_instance


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


def _oracle_case(family: str, m_in: int):
    """A graph and ``m_in`` raw columns from one of the oracle's families."""
    rng = np.random.default_rng(40 + m_in)
    if family == "grid":
        graph, q = grid_graph(12)
    elif family == "ring":
        graph, _ = ring_graph(10)
        q = random_features(rng, graph.n_nodes, m_in)
    elif family == "tree":
        n = 15
        graph = Graph.from_edges(n, [(int(rng.integers(0, v)), v, rng.uniform(0.1, 2.0))
                                     for v in range(1, n)])
        q = random_features(rng, n, m_in)
    elif family == "random":
        graph = random_connected_graph(np.random.default_rng(3), n_min=12, n_max=16)
        pattern = (graph.adjacency != 0).toarray().astype(float)
        assert np.trace(pattern @ pattern @ pattern) > 0  # a triangle
        q = random_features(rng, graph.n_nodes, m_in)
    else:  # disconnected, weights in [1e-8, 1e8]
        graph, q, _ = log_weight_instance(11, 3)
    extra = rng.uniform(-2.0, 2.0, size=(graph.n_nodes, 3))
    values = np.column_stack([q.values, extra])[:, :m_in]
    return graph, FeatureLocations(values)


def _dense_objective(graph, q, transform, lam):
    """The objective from dense matrices, with each commutator's singular values."""
    feats = FeatureLocations(q.values @ transform)
    k_out = transform.shape[1]
    dense = [feature_derivative(graph, feats, k).tosparse().toarray()
             for k in range(k_out)]
    cross, svals = 0.0, []
    for i in range(k_out):
        x = feats.column(i)
        for j in range(k_out):
            if i != j:
                sq = dense[j] @ dense[j]
                s = np.linalg.svd(sq * x[None, :] - x[:, None] * sq, compute_uv=False)
                cross += s[0] ** 2
                svals.append(s)
    penalty = sum((np.abs(d).sum(axis=1).max() - 1.0) ** 2 for d in dense)
    return cross + lam * penalty, svals


_FAMILIES = ["grid", "ring", "tree", "random", "log-weight"]
_SHAPES = [(2, 1), (2, 2), (3, 2), (3, 3)]


class TestEvaluateAgainstDenseOracle:
    """``_evaluate`` on its fixed patterns against dense ``[G_j^2, X_i]``.

    The grid, the even ring and the tree are bipartite, so each commutator
    splits into two blocks; the random graph has a triangle and does not;
    the log-weight instance is disconnected.
    """

    @pytest.mark.parametrize("m_in,k_out", _SHAPES)
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_objective_matches_the_dense_svd(self, family, m_in, k_out, monkeypatch):
        from schro_gsp import operators

        blocks = []
        real_norm = pmo_module.operator_norm

        def recording(op):
            blocks.append(len(operators._block_bounds(op.tosparse())) - 1)
            return real_norm(op)

        monkeypatch.setattr(pmo_module, "operator_norm", recording)
        graph, q = _oracle_case(family, m_in)
        ws = _Workspace(graph, q)
        rng = np.random.default_rng(m_in * 10 + k_out)
        for transform in (np.eye(m_in)[:, :k_out], rng.normal(size=(m_in, k_out))):
            got, _, largest = _evaluate(ws, transform, 0.7)
            want, svals = _dense_objective(graph, q, transform, 0.7)
            assert got == pytest.approx(want, rel=1e-12)
            top = max((s[0] for s in svals), default=0.0)
            assert largest == pytest.approx(top, rel=1e-12)
        assert len(blocks) == 2 * k_out * (k_out - 1)
        if family == "random":
            assert set(blocks) <= {1}
        elif family == "log-weight":
            assert min(blocks, default=3) >= 3
        else:
            assert set(blocks) <= {2}

    @pytest.mark.parametrize("m_in,k_out", _SHAPES)
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_gradient_matches_central_differences(self, family, m_in, k_out):
        graph, q = _oracle_case(family, m_in)
        ws = _Workspace(graph, q)
        rng = np.random.default_rng(m_in * 10 + k_out)
        # A transform where every commutator's top pair stands apart from
        # its third singular value, so sigma^2 is differentiable there.
        for _ in range(10):
            transform = rng.normal(size=(m_in, k_out))
            svals = _dense_objective(graph, q, transform, 0.7)[1]
            if all(s[2] < (1.0 - 1e-5) * s[0] for s in svals):
                break
        else:
            pytest.fail("no transform with isolated top pairs")
        grad = _evaluate(ws, transform, 0.7)[1]
        fd = np.zeros_like(transform)
        step = 1e-6
        for idx in np.ndindex(*transform.shape):
            probe = transform.copy()
            probe[idx] += step
            up = _dense_objective(graph, q, probe, 0.7)[0]
            probe[idx] -= 2.0 * step
            down = _dense_objective(graph, q, probe, 0.7)[0]
            fd[idx] = (up - down) / (2.0 * step)
        assert np.linalg.norm(grad - fd) <= 1e-7 * np.linalg.norm(fd)


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
        assert result.final_deficiency == pytest.approx(recomputed, rel=1e-12)

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

    @pytest.mark.filterwarnings("error")
    def test_runaway_step_raises_with_last_good(self, path3):
        # first step lands at |T| ~ 1e308, where the derivatives overflow
        graph, f = path3
        q = FeatureLocations.single(f.column(0))
        cfg = PMOConfig(out_features=1, learning_rate=1e308, max_iters=5)
        with pytest.raises(DivergedError) as exc:
            pmo_fit(graph, q, cfg)
        assert exc.value.last_good is not None
        assert np.allclose(exc.value.last_good, [[1.0]])

    # Each rate overflows at a different stage: the Adam moments (1e50),
    # the Adam step (1e308), the products along two-step paths (1e155,
    # 1e200), or, at 1e100, the Gram matrix of a finite commutator, which
    # the norm solver rejects itself.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("out_features,rate,error", [
        (2, 1e50, DivergedError), (2, 1e100, NumericalError),
        (2, 1e155, DivergedError), (2, 1e200, DivergedError),
        (2, 1e308, DivergedError), (1, 1e200, DivergedError),
        (3, 1e50, DivergedError), (3, 1e100, NumericalError),
        (3, 1e200, DivergedError), (3, 1e308, DivergedError)])
    def test_runaway_step_with_cross_commutators_raises(
            self, monkeypatch, out_features, rate, error):
        # The two-output case crashed inside the norm solver with a bare
        # ValueError before the fit could see a non-finite objective.
        norms = []
        real_norm = pmo_module.operator_norm

        def finite_only(op):
            assert np.all(np.isfinite(op.tosparse().data))
            norms.append(op)
            return real_norm(op)

        monkeypatch.setattr(pmo_module, "operator_norm", finite_only)
        graph, q = grid_graph(3)
        if out_features == 3:
            q = FeatureLocations(np.column_stack([q.values, q.values.prod(axis=1)]))
        cfg = PMOConfig(out_features=out_features, learning_rate=rate, max_iters=5)
        with pytest.raises(error) as exc:
            pmo_fit(graph, q, cfg)
        if error is DivergedError:
            assert exc.value.last_good is not None
            assert np.all(np.isfinite(exc.value.last_good))
        else:
            assert "overflows" in str(exc.value)
        if out_features > 1:
            assert norms  # the starting transform took its norms

    def test_silent_overflow_in_a_path_sum_raises_before_any_norm(self, monkeypatch):
        # On a 4-cycle two paths join each opposite pair.  Their products
        # are each 1e308, finite, and their sum overflows inside
        # ``np.bincount``, which raises no floating-point error.
        def no_norm(op):
            raise AssertionError("a norm of a non-finite commutator was taken")

        monkeypatch.setattr(pmo_module, "operator_norm", no_norm)
        graph = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        q = FeatureLocations(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 2.0], [1.0, 1.0]]))
        ws = _Workspace(graph, q)
        transform = np.diag([1.0, 1e154])
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                _evaluate(ws, transform, 1.0)
        with pytest.raises(DivergedError):
            pmo_module._guarded(lambda: _evaluate(ws, transform, 1.0), "here", None)

    def test_result_serializes(self):
        rng = np.random.default_rng(24)
        graph = random_connected_graph(rng, n_min=6, n_max=8)
        q = random_features(rng, graph.n_nodes, 2)
        result = pmo_fit(graph, q, PMOConfig(out_features=1, max_iters=5))
        data = result.as_dict()
        assert set(data) == {"transform", "objective_trace", "final_deficiency"}
        assert data["objective_trace"][0][0] == 0


class TestFeatureRows:
    @pytest.mark.parametrize("extra", [1, -1])
    def test_size_mismatch_rejected_before_any_work(self, extra, monkeypatch):
        def no_norm(op):
            raise AssertionError("a norm was taken for mismatched features")

        monkeypatch.setattr(pmo_module, "operator_norm", no_norm)
        graph, q = grid_graph(3)
        rows = graph.n_nodes + extra
        f = FeatureLocations(np.random.default_rng(7).uniform(-1.0, 1.0, size=(rows, 2)))
        with pytest.raises(ContractError, match="feature rows"):
            pmo_objective(graph, f, np.eye(2), 1.0)
        with pytest.raises(ContractError, match="feature rows"):
            pmo_fit(graph, f, PMOConfig(out_features=2, max_iters=5))
        with pytest.raises(ContractError, match="feature rows"):
            commuting_deficiency(graph, f)


class TestCommutingDeficiency:
    def test_single_feature_has_no_pairs(self):
        graph, f, _ = make_instance(127)
        assert commuting_deficiency(graph, f) == 0.0

    def test_constant_features_commute(self):
        graph, _, _ = make_instance(131)
        const = FeatureLocations(np.ones((graph.n_nodes, 3)))
        assert commuting_deficiency(graph, const) == 0.0

    @pytest.mark.parametrize("n_nodes", [1, 3])
    def test_edgeless_graph_has_no_derivative(self, n_nodes):
        graph = Graph.from_edges(n_nodes, [])
        f = FeatureLocations(np.arange(2.0 * n_nodes).reshape(n_nodes, 2))
        assert commuting_deficiency(graph, f) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 3), st.booleans())
    def test_matches_the_dense_product_form(self, seed, n_parts, constant):
        # Edge weights in [1e-8, 1e8]; more than one part is a disconnected
        # graph.  A constant column commutes with everything.
        graph, f, _ = log_weight_instance(seed, n_parts)
        if constant:
            f = FeatureLocations(np.column_stack([
                np.full(graph.n_nodes, f.column(0)[0]), f.column(1)]))
        grads = [feature_derivative(graph, f, k).tosparse().toarray() for k in range(2)]
        norms = []
        for i, j in [(0, 1), (1, 0)]:
            x, square = f.column(i), grads[j] @ grads[j]
            comm = square * x[None, :] - x[:, None] * square
            norms.append(np.linalg.svd(comm, compute_uv=False)[0])
        got = commuting_deficiency(graph, f)
        if constant:
            assert got == 0.0
        else:
            assert got == pytest.approx(max(norms), rel=1e-12)

    # At 1e100 the commutators are finite and their Gram matrices overflow
    # in the norm solver; at 1e160 the products along two-step paths
    # overflow first.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_overflow_raises_numerical_error(self, scale):
        graph, q = grid_graph(3)
        with pytest.raises(NumericalError, match="overflow"):
            commuting_deficiency(graph, FeatureLocations(scale * q.values))


def _diagonal_blocks(op) -> list[int]:
    """Sizes of the diagonal blocks of op's stored pattern, in its order."""
    coo = op.tosparse().tocoo()
    linked = np.zeros((op.dim, op.dim), dtype=bool)
    linked[coo.row, coo.col] = True
    linked |= linked.T
    cuts = [k for k in range(1, op.dim) if not linked[:k, k:].any()]
    return np.diff([0, *cuts, op.dim]).tolist()


class TestWorkBudget:
    def test_one_norm_estimate_per_commutator_and_iterate(self, monkeypatch):
        # Counts the norm calls, and within each the solves of both norm
        # solvers: Lanczos (``svds``), which these small graphs never take,
        # and the dense Gram eigensolve (``eigh``), once per diagonal block
        # of more than one node.
        import scipy.linalg
        from scipy.sparse import linalg

        solvers, norms = [], []

        def counting(original):
            def counted(*args, **kwargs):
                # the solver's caller, and its caller for the dense helper
                solvers.append((sys._getframe(1).f_code.co_name,
                                sys._getframe(2).f_code.co_name))
                return original(*args, **kwargs)
            return counted

        def counted_norm(original):
            def norm(op):
                before = len(solvers)
                est = original(op)
                norms.append((_diagonal_blocks(op), len(solvers) - before))
                return est
            return norm

        monkeypatch.setattr(linalg, "svds", counting(linalg.svds))
        monkeypatch.setattr(scipy.linalg, "eigh", counting(scipy.linalg.eigh))
        monkeypatch.setattr(pmo_module, "operator_norm",
                            counted_norm(pmo_module.operator_norm))

        rng = np.random.default_rng(21)
        graph = random_connected_graph(rng, n_min=8, n_max=12)
        q = random_features(rng, graph.n_nodes, 2)
        calls = {}
        for iters in (3, 6):
            solvers.clear()
            norms.clear()
            result = pmo_fit(
                graph, q, PMOConfig(out_features=2, max_iters=iters, seed=1))
            assert all(names == ("_dense_norm", "operator_norm") for names in solvers)
            for blocks, solves in norms:
                assert solves == sum(size > 1 for size in blocks)
            calls[iters] = len(norms)
        fit_blocks = [blocks for blocks, _ in norms[:-2]]
        monkeypatch.undo()
        # the graph is bipartite: each fit commutator is two blocks, one
        # per colour class
        assert all(len(blocks) == 2 for blocks in fit_blocks)
        # the identity-start run improved by more than 1%: no restart
        values = [v for _, v in result.objective_trace]
        assert values[0] == pmo_objective(graph, q, np.eye(2), 1.0)
        assert values[-1] < 0.99 * values[0]
        # one norm for each of the two ordered pairs per iterate
        assert calls[6] - calls[3] == 2 * 3
        # the start, each iterate, and the final deficiency
        assert calls[3] == 2 * (1 + 3) + 2

    def test_no_sparse_product_per_iterate(self, monkeypatch):
        # The workspace fixes every pattern once; an iterate is array
        # arithmetic on it, with no sparse-sparse product.
        from scipy.sparse import _compressed

        original = _compressed.csr_matmat
        calls = []

        def counted(*args):
            calls.append(args[:2])
            return original(*args)

        rng = np.random.default_rng(25)
        graph = random_connected_graph(rng, n_min=8, n_max=12)
        q = random_features(rng, graph.n_nodes, 3)
        monkeypatch.setattr(_compressed, "csr_matmat", counted)
        ws = _Workspace(graph, q)
        assert len(calls) == 1  # the two-hop pattern, for the node order
        for k_out in (2, 3):
            calls.clear()
            _evaluate(ws, rng.normal(size=(3, k_out)), 1.0)
            assert calls == []


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
        # the start, then two ordered pairs per iterate, with no early stop,
        # and the two of the final deficiency
        assert len(errors) == 2 * 151 + 2
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
        (obj, grad, largest), *others = results
        for other_obj, other_grad, other_largest in others:
            assert other_obj == pytest.approx(obj, rel=1e-13)
            assert other_largest == pytest.approx(largest, rel=1e-13)
            assert np.linalg.norm(other_grad - grad) <= 1e-10 * np.linalg.norm(grad)
