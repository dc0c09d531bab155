"""Cluster routing sweep and grid feature-recovery experiments."""

import dataclasses

import numpy as np
import pytest

from schro_gsp import experiments
from schro_gsp.errors import ContractError
from schro_gsp.experiments import (
    ClusterSweepConfig,
    ClusterSweepRow,
    GridPMOConfig,
    centered_cosine,
    grid_graph,
    run_cluster_sweep,
    run_grid_pmo,
)
from schro_gsp.graph_core import cluster_graph
from schro_gsp.observe import mean, variance
from schro_gsp.operators import location_observable, schrodinger_laplacian
from schro_gsp.graph_core import FeatureLocations
from schro_gsp.pmo import PMOConfig, commuting_deficiency, pmo_objective
from schro_gsp.propagate import DensePropagator


class TestSweepConfig:
    @pytest.mark.parametrize("kwargs", [
        {"theta_min": 1.0, "theta_max": -1.0},
        {"theta_min": 0.0, "theta_max": 0.0},
        {"n_theta": 1},
        {"repeats": 0},
        {"time": float("nan")},
        {"target": float("inf")},
        {"theta_max": float("inf")},
        {"n_theta": 3.5},
        {"seed": 1.5},
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ContractError):
            ClusterSweepConfig(**kwargs)


class TestClusterSweep:
    CFG = ClusterSweepConfig(theta_min=-2.0, theta_max=2.0, n_theta=5,
                             repeats=2)

    def test_row_count_and_fields(self):
        result = run_cluster_sweep(self.CFG)
        assert len(result.rows) == 5
        assert len(dataclasses.fields(ClusterSweepRow)) == 8
        assert len(dataclasses.astuple(result.rows[0])) == 8

    def test_zero_angle_row_matches_free_evolution(self):
        # the sweep grid contains exact zero, where modulation is a no-op
        result = run_cluster_sweep(self.CFG)
        zero_rows = [r for r in result.rows if r.theta == 0.0]
        assert len(zero_rows) == 1
        assert result.e_zero == result.e_free
        assert result.p_zero == result.p_free

    def test_propagation_keeps_unit_norm(self):
        result = run_cluster_sweep(self.CFG)
        for row in result.rows:
            assert row.norm_pre == pytest.approx(1.0, abs=1e-9)

    def test_initial_stats_match_direct_measurement(self):
        result = run_cluster_sweep(self.CFG)
        graph, feats, sig = cluster_graph(self.CFG.seed)
        loc = location_observable(feats, 0)
        assert result.e_initial == pytest.approx(mean(loc, sig.channel(0)),
                                                 abs=1e-12)
        assert result.v_initial == pytest.approx(variance(loc, sig.channel(0)),
                                                 abs=1e-12)

    def test_best_angle_minimizes_the_recorded_measure(self):
        result = run_cluster_sweep(self.CFG)
        assert result.p_best == min(r.p_final for r in result.rows)
        best = [r for r in result.rows if r.theta == result.theta_best]
        assert best[0].p_final == result.p_best

    def test_single_step_row_matches_direct_evolution(self):
        result = run_cluster_sweep(self.CFG)
        graph, feats, sig = cluster_graph(self.CFG.seed)
        loc = location_observable(feats, 0)
        prop = DensePropagator(schrodinger_laplacian(graph, feats))
        g0 = sig.channel(0)
        from schro_gsp.operators import modulation

        row = result.rows[0]
        state = prop.apply(self.CFG.time,
                           modulation(feats.column(0), row.theta) * g0)
        state = state / np.linalg.norm(state)
        assert row.e_single == pytest.approx(mean(loc, state), abs=1e-10)

    def test_summary_fields(self):
        summary = run_cluster_sweep(self.CFG).summary()
        assert {"seed", "theta_best", "p_best", "p_zero", "improved",
                "moved_toward_target"} <= set(summary)


class TestGridGraph:
    def test_smallest_grid(self):
        graph, q = grid_graph(2)
        assert graph.n_nodes == 4
        assert graph.edge_u.size == 4
        assert np.array_equal(q.column(0), [0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(q.column(1), [0.0, 1.0, 1.0, 2.0])

    def test_side_three_edge_count(self):
        graph, _ = grid_graph(3)
        assert graph.n_nodes == 9
        assert graph.edge_u.size == 12
        assert graph.is_connected()

    def test_degenerate_side_rejected(self):
        with pytest.raises(ContractError):
            grid_graph(1)

    def test_grid_pmo_config_checks_side(self):
        with pytest.raises(ContractError):
            GridPMOConfig(side=1)
        for bad in ({"lam": float("nan")}, {"max_iters": 2.5}):
            with pytest.raises(ContractError):
                GridPMOConfig(**bad)
        assert GridPMOConfig(seed=np.int64(3)).seed == 3

    def test_grid_pmo_config_checks_the_fit_settings_before_any_grid(
            self, monkeypatch):
        built = []
        monkeypatch.setattr(experiments, "grid_graph",
                            lambda side: built.append(side))
        for bad in ({"max_iters": 0, "lam": -1.0}, {"max_iters": 0},
                    {"max_iters": -1}, {"lam": -0.5}):
            with pytest.raises(ContractError):
                run_grid_pmo(GridPMOConfig(**bad))
        assert built == []
        cfg = GridPMOConfig(side=3, lam=0.5, max_iters=7, seed=4)
        assert cfg.pmo == PMOConfig(out_features=2, lam=0.5, max_iters=7, seed=4)

    def test_grid_pmo_config_takes_only_the_spectral_gradient(self):
        assert GridPMOConfig().grad_mode == "spectral-pair"
        assert GridPMOConfig(grad_mode="spectral-pair").grad_mode == "spectral-pair"
        with pytest.raises(ContractError):
            GridPMOConfig(grad_mode="finite-difference")


class TestGridPMO:
    def test_final_objective_is_the_objective_at_the_fit(self):
        cfg = GridPMOConfig(side=4, max_iters=8)
        result = run_grid_pmo(cfg)
        graph, q = grid_graph(cfg.side)
        summary = result.summary()
        assert summary["final_objective"] == pmo_objective(
            graph, q, result.fit.transform, cfg.lam)
        assert summary["initial_objective"] == pmo_objective(
            graph, q, np.eye(2), cfg.lam)
        # both deficiencies come from the fit's own evaluations
        assert summary["initial_deficiency"] == commuting_deficiency(graph, q)
        fitted = FeatureLocations(q.values @ result.fit.transform)
        assert summary["final_deficiency"] == pytest.approx(
            commuting_deficiency(graph, fitted), rel=1e-12)
        assert summary["stop_reason"] == "max-iters"
        assert summary["evaluations"] > 8

    def test_default_fit_recovers_the_closed_form(self, monkeypatch):
        # With q = (x, x + y) the objective is zero at f = (x/2, y/2), that
        # is T = [[1/2, -1/2], [0, 1/2]] up to column order and sign.
        from schro_gsp import pmo

        calls = []
        real_norm = pmo.operator_norm

        def counted(op):
            calls.append(op)
            return real_norm(op)

        monkeypatch.setattr(pmo, "operator_norm", counted)
        result = run_grid_pmo()
        summary = result.summary()
        # two ordered pairs per evaluation, and no norm outside the fit
        assert len(calls) == 2 * summary["evaluations"]
        assert summary["stop_reason"] == "gradient"
        assert summary["iterations"] < GridPMOConfig().max_iters
        t = result.fit.transform
        exact = np.array([[0.5, -0.5], [0.0, 0.5]])
        err = min(np.abs(t[:, order] * signs - exact).max()
                  for order in ([0, 1], [1, 0])
                  for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]))
        assert err <= 1e-6


class TestCenteredCosine:
    def test_identical_vectors(self, rng):
        v = rng.normal(size=10)
        assert centered_cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_constant_vector_rejected(self, rng):
        with pytest.raises(ContractError):
            centered_cosine(np.ones(6), rng.normal(size=6))

    def test_grid_features_start_correlated(self):
        _, q = grid_graph(5)
        val = centered_cosine(q.column(0), q.column(1))
        assert val == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_shift_invariance(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        assert centered_cosine(a + 7.0, b - 3.0) == pytest.approx(
            centered_cosine(a, b), abs=1e-12)
