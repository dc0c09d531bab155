"""Feature-alignment objective and its optimizer."""

import os
import subprocess
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
        {"out_features": 2, "max_iters": float("nan")},
        {"out_features": 2, "max_iters": 0},
        {"out_features": 2, "seed": 0.5},
        {"out_features": 2, "max_iters": -3},
        {"out_features": 2, "lam": float("nan")},
        {"out_features": 2, "lam": float("inf")},
        {"out_features": 2, "max_iters": float("inf")},
        {"out_features": 2, "seed": True},
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
        q = FeatureLocations(f.column(0))
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
        q = FeatureLocations(f.column(0))
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


def _reference_workspace(graph, q):
    """The workspace's arrays from the construction it had before it took
    its layout from ``graph_core``: a COO ones-pattern, an inverse
    permutation, lexsort slots and a CSR matrix read for its index dtype."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    n = graph.n_nodes
    u = np.concatenate([graph.edge_u, graph.edge_v])
    v = np.concatenate([graph.edge_v, graph.edge_u])
    pattern = sparse.csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    _, labels = connected_components(pattern @ pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    rows, cols = position[u], position[v]
    slots = np.lexsort((cols, rows))
    rows, cols = rows[slots], cols[slots]
    weights = np.concatenate([graph.edge_w, graph.edge_w])[slots]
    values = q.values[order]
    out = {"raw": np.ascontiguousarray((values[rows] - values[cols]).T * weights)}
    degree = np.bincount(rows, minlength=n)
    out["slot_ptr"] = np.concatenate([[0], np.cumsum(degree)])
    fan = degree[cols]
    e1 = np.repeat(np.arange(rows.size), fan)
    offset = np.arange(e1.size) - np.repeat(np.cumsum(fan) - fan, fan)
    e2 = np.repeat(out["slot_ptr"][cols], fan) + offset
    keep = rows[e1] != cols[e2]
    out["e1"], out["e2"] = e1[keep], e2[keep]
    entries, out["path_entry"] = np.unique(
        rows[out["e1"]] * n + cols[out["e2"]], return_inverse=True)
    out["entry_row"], entry_col = np.divmod(entries, n)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(out["entry_row"], minlength=n))])
    template = sparse.csr_matrix(
        (np.zeros(entries.size), entry_col, ptr), shape=(n, n))
    out["entry_col"], out["entry_ptr"] = template.indices, template.indptr
    out["delta"] = np.ascontiguousarray(
        (values[out["entry_col"]] - values[out["entry_row"]]).T)
    return out


def _layout_cases():
    cases = {f"{family}-{m_in}": _oracle_case(family, m_in)
             for family in _FAMILIES for m_in in (2, 3)}
    cases["grid-6"] = grid_graph(6)
    rng = np.random.default_rng(17)
    graph = random_connected_graph(rng, n_min=20, n_max=24)
    shuffle = rng.permutation(graph.n_edges)
    cases["out-of-order"] = (
        Graph(graph.n_nodes, graph.edge_u[shuffle], graph.edge_v[shuffle],
              graph.edge_w[shuffle]),
        random_features(rng, graph.n_nodes, 3))
    weights = rng.uniform(-2.0, 2.0, size=graph.n_edges)
    weights[::4] = 0.0
    cases["zero-and-negative-weights"] = (
        Graph(graph.n_nodes, graph.edge_u, graph.edge_v, weights),
        random_features(rng, graph.n_nodes, 2))
    return cases


class TestWorkspaceLayout:
    @pytest.mark.parametrize("name", sorted(_layout_cases()))
    def test_arrays_match_the_reference_construction(self, name):
        graph, q = _layout_cases()[name]
        if name == "out-of-order":
            keys = graph.edge_u * graph.n_nodes + graph.edge_v
            assert np.any(keys[1:] < keys[:-1])
        ws = _Workspace(graph, q)
        want = _reference_workspace(graph, q)
        for key, ref in want.items():
            got = getattr(ws, key)
            # Only the slot pointers changed dtype, to scipy's index dtype.
            if key == "slot_ptr":
                assert np.array_equal(got, ref)
                assert got.dtype == ws.entry_ptr.dtype
            else:
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), key


class TestFit:
    def test_near_stationary_start_stays_put(self):
        # two-node graph: the identity transform already has unit
        # derivative norm, so the objective starts at its minimum of zero
        graph = Graph.from_edges(2, [(0, 1, 1.0)])
        q = FeatureLocations([0.0, 1.0])
        assert pmo_objective(graph, q, np.array([[1.0]]), 1.0) == pytest.approx(
            0.0, abs=1e-14)
        result = pmo_fit(graph, q, PMOConfig(out_features=1, max_iters=30))
        assert abs(float(result.transform[0, 0]) - 1.0) <= 1e-6
        final = pmo_objective(graph, q, result.transform, 1.0)
        assert final <= 1e-6

    def test_seeded_restart_rescues_a_stationary_start(self, monkeypatch):
        # The constant column has no derivative, so the identity start sits
        # at the penalty 1.0 with a zero subgradient and the first run stops
        # after one evaluation; the random restart leaves the start.
        graph, q = grid_graph(4)
        raw = FeatureLocations(np.column_stack([np.full(graph.n_nodes, 3.0),
                                                q.values[:, 0]]))
        runs = []
        bfgs = pmo_module.bfgs

        def recorded(*args):
            runs.append(bfgs(*args))
            return runs[-1]

        monkeypatch.setattr(pmo_module, "bfgs", recorded)
        cfg = PMOConfig(out_features=1, max_iters=50)
        result = pmo_fit(graph, raw, cfg)
        assert len(runs) == 2
        assert (runs[0].evaluations, runs[0].stop_reason) == (1, "gradient")
        assert result.initial_objective == 1.0
        assert result.objective_trace[-1][1] < result.initial_objective
        assert result.evaluations == sum(r.evaluations for r in runs)
        again = pmo_fit(graph, raw, cfg)
        assert again.transform.tobytes() == result.transform.tobytes()

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
        q = FeatureLocations(f.column(0))
        with pytest.raises(ContractError):
            pmo_fit(graph, q, PMOConfig(out_features=2, max_iters=5))

    @pytest.mark.filterwarnings("error")
    def test_runaway_step_raises_with_last_good(self, path3):
        # At feature scale 1e100 the start is finite, but the first step's
        # own arithmetic on its 1e200 gradient overflows
        graph, f = path3
        q = FeatureLocations(1e100 * f.column(0))
        cfg = PMOConfig(out_features=1, max_iters=5)
        with pytest.raises(DivergedError, match="iteration 1") as exc:
            pmo_fit(graph, q, cfg)
        assert exc.value.last_good is not None
        assert np.allclose(exc.value.last_good, [[1.0]])

    # Each feature scale overflows at a different stage: the first step's
    # arithmetic on a finite gradient (1e50; 1e100 with one output, which
    # has no commutator), the Gram matrix of a finite commutator, which the
    # norm solver rejects itself (1e100), or the products along two-step
    # paths (1e155, 1e200).  The last two are reached only at the start, so
    # no transform is good yet.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("out_features,scale,error", [
        (2, 1e50, DivergedError), (2, 1e100, NumericalError),
        (2, 1e155, DivergedError), (2, 1e200, DivergedError),
        (1, 1e100, DivergedError), (1, 1e200, DivergedError),
        (3, 1e50, DivergedError), (3, 1e100, NumericalError),
        (3, 1e200, DivergedError)])
    def test_runaway_step_with_cross_commutators_raises(
            self, monkeypatch, out_features, scale, error):
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
        q = FeatureLocations(scale * q.values)
        cfg = PMOConfig(out_features=out_features, max_iters=5)
        with pytest.raises(error) as exc:
            pmo_fit(graph, q, cfg)
        at_start = scale > 1e150
        if error is DivergedError:
            assert (exc.value.last_good is None) == at_start
            if not at_start:
                assert np.all(np.isfinite(exc.value.last_good))
        else:
            assert "overflows" in str(exc.value)
        if out_features > 1:
            # the start took its norms unless its commutators overflowed
            assert bool(norms) != at_start

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
        scaled = FeatureLocations(q.values @ transform)
        with pytest.raises(DivergedError, match="non-finite") as exc:
            pmo_fit(graph, scaled, PMOConfig(out_features=2, max_iters=5))
        assert exc.value.last_good is None

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 10.0, 1e3])
    def test_fit_reaches_the_grid_optimum_at_any_feature_scale(self, scale):
        # The start is the identity whatever the scale, so its objective
        # runs from about 2 to 1e18; the first step is cut to just under the
        # start's length and the inverse Hessian is scaled after it.
        graph, q = grid_graph(6)
        q = FeatureLocations(scale * q.values)
        result = pmo_fit(graph, q, PMOConfig(out_features=2, max_iters=1000))
        assert result.stop_reason == "gradient"
        assert result.objective_trace[-1][1] <= 1e-12

    def test_first_step_stops_short_of_the_zero_transform(self, path3):
        # One output of one column: the gradient is parallel to the start,
        # and a step of the start's full length lands on T = 0, where every
        # derivative and the penalty's subgradient vanish.
        graph, f = path3
        q = FeatureLocations(10.0 * f.column(0))
        result = pmo_fit(graph, q, PMOConfig(out_features=1))
        assert result.objective_trace[-1][1] <= 1e-12
        assert result.transform[0, 0] == pytest.approx(0.05, rel=1e-9)

    def test_fit_leaves_scipy_optimize_unloaded(self):
        # importing it adds about 27 MB to every process that runs a fit;
        # checked after the PMO fits, then after a short ring fit
        src = os.path.dirname(os.path.dirname(pmo_module.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import schro_gsp.cli; "
                "from schro_gsp.experiments import GridPMOConfig, run_grid_pmo; "
                "from schro_gsp.ring_task import RingTaskConfig, run_ring_task; "
                "from schro_gsp.verify import run_suites; "
                "run_grid_pmo(GridPMOConfig(side=4)); "
                "assert all(s.passed for s in run_suites('pmo')); "
                "print('scipy.optimize' in sys.modules); "
                "run_ring_task(RingTaskConfig(n_nodes=24, shift=5, n_samples=20, "
                "channels=1, max_iters=5, n_windows=2)); "
                "print('scipy.optimize' in sys.modules)")
        done = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "False"]


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
        for iters in (3, 6):
            solvers.clear()
            norms.clear()
            result = pmo_fit(
                graph, q, PMOConfig(out_features=2, max_iters=iters, seed=1))
            assert all(names == ("_dense_norm", "operator_norm") for names in solvers)
            for blocks, solves in norms:
                assert solves == sum(size > 1 for size in blocks)
            # one norm for each of the two ordered pairs per evaluation: the
            # deficiencies come from the first and the best evaluation
            assert len(norms) == 2 * result.evaluations
            assert result.evaluations > iters
        monkeypatch.undo()
        # the graph is bipartite: each fit commutator is two blocks, one
        # per colour class
        assert all(len(blocks) == 2 for blocks, _ in norms)
        # the identity-start run improved by more than 1%: no restart
        values = [v for _, v in result.objective_trace]
        assert values[0] == pmo_objective(graph, q, np.eye(2), 1.0)
        assert values[-1] < 0.99 * values[0]
        assert result.initial_objective == values[0]

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
    # On the 12-side grid the top two singular pairs of a commutator cross
    # along the fit: from its 13th evaluation on, sigma_1 and sigma_3 of a
    # commutator agree to better than 1e-7 relative at norms near 1e-2,
    # and to 1.7e-9 further on.  A solve started from the previous
    # iterate's vector stays on the lower pair there and returns a norm
    # short by up to 4.5e-7 without raising; every norm must be the dense
    # SVD's, from the dense Gram eigensolve and from Lanczos alike.
    def test_every_norm_matches_the_dense_svd(self, monkeypatch):
        from schro_gsp import operators, pmo

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
        for cap in (operators.DENSE_NORM_MAX_NODES, 0):  # dense, then Lanczos
            monkeypatch.setattr(operators, "DENSE_NORM_MAX_NODES", cap)
            errors.clear()
            gaps.clear()
            result = pmo_fit(graph, q, PMOConfig(out_features=2, max_iters=30))
            assert len(errors) == 2 * result.evaluations
            # the fit still crosses after its start
            assert min(gaps[20:]) < 1e-7
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
