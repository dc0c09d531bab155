"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import schro_gsp
from schro_gsp import operators
from schro_gsp.cli import main
from schro_gsp.filters import FilterParams, FilterTerm, save_filter_params
from schro_gsp.graph_core import (
    FeatureLocations,
    Graph,
    Signal,
    cluster_graph,
    save_features,
    ring_graph,
    save_graph,
    save_signal,
)
from schro_gsp.ring_task import (
    RingModelParams,
    RingTaskConfig,
    make_dataset,
    predict_model,
)

CLUSTER_CFG = {"theta_min": -2.0, "theta_max": 2.0, "n_theta": 5, "repeats": 2}


def _write_cfg(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="ascii")
    return str(path)


def _read_summary(out_dir):
    with open(out_dir / "summary.json", encoding="ascii") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.reader(fh))


class TestParsing:
    def test_missing_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"n_thetaa": 5})
        rc = main(["clusters", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err
        assert "n_theta" in err  # the allowed keys are listed

    def test_reversed_range_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"theta_min": 2.0, "theta_max": -2.0})
        assert main(["clusters", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="ascii")
        assert main(["clusters", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_object_config_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="ascii")
        assert main(["clusters", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["clusters", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_wrong_value_type_rejected(self, tmp_path, diagnose_inputs):
        cfg = _write_cfg(tmp_path, {"n_theta": "many"})
        assert main(["clusters", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        cfg = _write_cfg(tmp_path, {"filter": 3})
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        cfg = _write_cfg(tmp_path, dict(diagnose_inputs, graph=1.5))
        assert main(["diagnose", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    # json.loads accepts NaN, and every range comparison with it is false
    @pytest.mark.parametrize("command,data", [
        ("ring", {"noise_std": float("nan")}),
        ("pmo-grid", {"learning_rate": float("nan")}),
        ("pmo-grid", {"lam": float("nan")}),
        ("clusters", {"theta_min": float("-inf")}),
    ])
    def test_nan_setting_rejected(self, tmp_path, capsys, command, data):
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command,data", [
        ("pmo-grid", {"side": float("nan")}),
        ("pmo-grid", {"side": 2.5}),
        ("pmo-grid", {"max_iters": float("nan")}),
        ("pmo-grid", {"seed": True}),
        ("ring", {"max_iters": float("nan")}),
        ("clusters", {"n_theta": float("nan")}),
        ("clusters", {"repeats": float("nan")}),
        ("clusters", {"seed": float("nan")}),
        ("diagnose", {"coordinate": float("nan")}),
    ])
    def test_non_integer_count_rejected(self, tmp_path, capsys, request,
                                        command, data):
        if command == "diagnose":
            data = dict(request.getfixturevalue("diagnose_inputs"), **data)
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        # each adds start-up time and memory to every command
        src = os.path.dirname(os.path.dirname(schro_gsp.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import schro_gsp.cli; "
                "print(sorted(m for m in ('scipy.sparse.csgraph', "
                "'scipy.sparse.linalg', 'scipy.special') if m in sys.modules))")
        done = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestClusters:
    def test_default_sweep_passes_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["clusters", "--out", str(out)])
        assert rc == 0

        summary = _read_summary(out)
        assert set(summary) == {
            "command", "config", "metrics", "assertions", "passed",
        }
        assert summary["command"] == "clusters"
        assert summary["passed"] is True
        assert summary["config"]["n_theta"] == 101
        # default seed is the pinned instance, so its range check runs
        assert "pinned_initial_mean_in_range" in summary["assertions"]
        for entry in summary["assertions"].values():
            assert entry["passed"] is True

        rows = _read_csv(out / "sweep.csv")
        assert rows[0] == ["theta", "norm_pre", "e_single", "v_single",
                           "p_single", "e_final", "v_final", "p_final"]
        assert len(rows) == 1 + 101

    def test_seed_override_lands_in_config(self, tmp_path):
        cfg = _write_cfg(tmp_path, CLUSTER_CFG)
        out = tmp_path / "out"
        rc = main(["clusters", "--config", cfg, "--out", str(out),
                   "--seed", "23"])
        assert rc in (0, 1)
        summary = _read_summary(out)
        assert summary["config"]["seed"] == 23
        assert "pinned_initial_mean_in_range" not in summary["assertions"]

    def test_artifacts_are_byte_identical_across_runs(self, tmp_path):
        cfg = _write_cfg(tmp_path, CLUSTER_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rc_a = main(["clusters", "--config", cfg, "--out", str(out_a)])
        rc_b = main(["clusters", "--config", cfg, "--out", str(out_b)])
        # the coarse grid misses the good angles, so the checks may fail;
        # the artifacts must be reproducible either way
        assert rc_a == rc_b
        for name in ("summary.json", "sweep.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestVerifyCommand:
    def test_unknown_filter_lists_suites(self, tmp_path, capsys):
        rc = main(["verify", "--filter", "nosuchsuite",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "available" in capsys.readouterr().err

    def test_filtered_run_writes_suite_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["verify", "--filter", "normalize", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "[PASS] normalize-idempotent" in stdout
        rows = _read_csv(out / "suites.csv")
        assert rows[0] == ["name", "passed", "worst", "bound", "detail"]
        assert [r[0] for r in rows[1:]] == ["normalize-idempotent"]
        assert not (out / "failures.json").exists()
        summary = _read_summary(out)
        assert summary["assertions"]["all_suites_pass"]["passed"] is True


class TestRingCommand:
    # the runaway step overflows on purpose before the guard trips
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergent_fit_exits_three_with_trace_dump(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {
            "n_nodes": 24, "shift": 5, "n_samples": 20, "channels": 1,
            "max_iters": 5, "n_windows": 2, "learning_rate": 1e200,
        })
        out = tmp_path / "out"
        rc = main(["ring", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        with open(out / "divergence.json", encoding="ascii") as fh:
            dump = json.load(fh)
        assert "error" in dump
        assert dump["trace"][0]["iteration"] == 0
        assert "last_good_params" in dump
        assert not (out / "summary.json").exists()

    def test_short_fit_writes_all_artifacts(self, tmp_path):
        cfg = _write_cfg(tmp_path, {
            "n_nodes": 30, "shift": 10, "n_samples": 20, "channels": 1,
            "max_iters": 5, "n_windows": 2,
        })
        out = tmp_path / "out"
        rc = main(["ring", "--config", cfg, "--out", str(out)])
        # five iterations will not reach the tenfold bar; artifacts must
        # still be complete and well-formed
        assert rc in (0, 1)

        curves = _read_csv(out / "learning_curves.csv")
        assert curves[0] == ["kind", "iteration", "train_mse", "val_mse"]
        assert len(curves) == 1 + 3 * 6
        assert {r[0] for r in curves[1:]} == {"modulated", "plain", "diffusion"}

        shifts = _read_csv(out / "shifts.csv")
        assert shifts[0][:3] == ["kind", "window_id", "coordinate"]
        assert len(shifts) == 1 + 2 * 2

        preds = _read_csv(out / "predictions.csv")
        assert preds[0] == ["node", "angle", "input", "target",
                            "modulated", "plain", "diffusion"]
        assert len(preds) == 1 + 30

        summary = _read_summary(out)
        assert set(summary["assertions"]) == {
            "modulated_beats_plain_tenfold",
            "modulated_beats_diffusion_tenfold",
            "trained_model_shifts_windows",
            "diffusion_does_not_shift_windows",
        }

    def test_predictions_match_predict_model_on_test_row_zero(self, tmp_path):
        data = {"n_nodes": 30, "shift": 10, "n_samples": 20, "channels": 1,
                "max_iters": 5, "n_windows": 2}
        out = tmp_path / "out"
        rc = main(["ring", "--config", _write_cfg(tmp_path, data), "--out", str(out)])
        assert rc in (0, 1)
        cfg = RingTaskConfig(**data)
        ds = make_dataset(cfg)
        models = _read_summary(out)["metrics"]["models"]
        rows = _read_csv(out / "predictions.csv")
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_array_equal(table[:, 0], np.arange(30))
        np.testing.assert_array_equal(table[:, 1], ring_graph(30)[1].column(2))
        np.testing.assert_array_equal(table[:, 2], ds.test_x[0])
        np.testing.assert_array_equal(table[:, 3], ds.test_y[0])
        for col, kind in enumerate(("modulated", "plain", "diffusion"), start=4):
            m = models[kind]
            params = RingModelParams(
                kind=kind, times=m["times"], directions=m["directions"],
                mix=np.array(m["mix_re"]) + 1j * np.array(m["mix_im"]),
                scale=m["scale"],
            )
            expected = predict_model(cfg, params, ds.test_x[0])[0]
            gap = np.linalg.norm(table[:, col] - expected)
            assert gap <= 1e-12 * np.linalg.norm(expected), kind


class TestPmoGridCommand:
    def test_short_run_writes_artifacts(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"side": 3, "max_iters": 3,
                                    "grad_mode": "spectral-pair"})
        out = tmp_path / "out"
        rc = main(["pmo-grid", "--config", cfg, "--out", str(out)])
        assert rc in (0, 1)

        feats = _read_csv(out / "features.csv")
        assert feats[0] == ["node", "input_0", "input_1",
                            "recovered_0", "recovered_1"]
        assert len(feats) == 1 + 9

        trace = _read_csv(out / "objective_trace.csv")
        assert trace[0] == ["iteration", "objective"]
        assert trace[1][0] == "0"

        summary = _read_summary(out)
        assert summary["assertions"]["inputs_start_correlated"]["passed"] is True
        assert summary["config"]["grad_mode"] == "spectral-pair"

    def test_norm_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        from scipy.sparse import linalg

        def stalled(*args, **kwargs):
            raise linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(linalg, "svds", stalled)
        # The 9-node commutators sit above both dense caps: Lanczos runs and
        # has no fallback.
        monkeypatch.setattr(operators, "DENSE_NORM_MAX_NODES", 4)
        monkeypatch.setattr(operators, "DENSE_MAX_NODES", 4)
        cfg = _write_cfg(tmp_path, {"side": 3, "max_iters": 3})
        out = tmp_path / "out"
        assert main(["pmo-grid", "--config", cfg, "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_finite_difference_mode_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"grad_mode": "finite-difference"})
        assert main(["pmo-grid", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "grad_mode" in capsys.readouterr().err


@pytest.fixture()
def diagnose_inputs(tmp_path):
    graph, feats, sig = cluster_graph(17)
    paths = {
        "graph": str(tmp_path / "graph.txt"),
        "features": str(tmp_path / "features.txt"),
        "signal": str(tmp_path / "signal.txt"),
        "filter_params": str(tmp_path / "filter.json"),
    }
    save_graph(graph, paths["graph"])
    save_features(feats, paths["features"])
    save_signal(sig, paths["signal"])
    identity = FilterParams(terms=(FilterTerm(
        time=0.0, phase=0.0, direction=np.zeros(1),
        mix=np.eye(1, dtype=complex)),))
    save_filter_params(identity, paths["filter_params"])
    return paths


def _geometric_inputs(tmp_path, name, labels):
    """A seeded random geometric graph written with node ``i`` as ``labels[i]``.

    Coordinates are the features, in units of the connection radius; the
    filter has two short terms, like the benchmark's."""
    rng = np.random.default_rng(8)
    n = labels.size
    pts = rng.random((n, 2))
    radius = np.sqrt(8.0 / (np.pi * n))
    iu, iv = np.triu_indices(n, k=1)
    near = np.linalg.norm(pts[iu] - pts[iv], axis=1) < radius
    signal = rng.normal(size=n) + 1j * rng.normal(size=n)
    place = np.argsort(labels)  # file row r holds node place[r]
    graph = Graph.from_edges(n, zip(labels[iu[near]].tolist(), labels[iv[near]].tolist(),
                                    rng.uniform(0.5, 2.0, size=int(near.sum())).tolist()))
    paths = {key: str(tmp_path / f"{name}-{key}.txt")
             for key in ("graph", "features", "signal", "filter_params")}
    save_graph(graph, paths["graph"])
    save_features(FeatureLocations(pts[place] / radius), paths["features"])
    save_signal(Signal(signal[place]), paths["signal"])
    terms = tuple(FilterTerm(time=t, phase=p, direction=np.array(d), mix=np.array([[m]]))
                  for t, p, d, m in [(0.015, 0.8, [1.0, 0.0], 1.0),
                                     (0.025, -0.5, [0.6, 0.8], 0.5 + 0.5j)])
    save_filter_params(FilterParams(terms=terms), paths["filter_params"])
    return _write_cfg(tmp_path, dict(paths, n_windows=5), f"{name}.json")


class TestDiagnoseCommand:
    def test_shifts_do_not_depend_on_the_node_order_in_the_files(self, tmp_path):
        n = 400
        shuffled = np.random.default_rng(3).permutation(n)
        tables = {}
        for name, labels in [("sorted", np.arange(n)), ("shuffled", shuffled)]:
            cfg = _geometric_inputs(tmp_path, name, labels)
            outs = [tmp_path / f"{name}-out{i}" for i in range(2)]
            for out in outs:
                assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
            texts = [(out / "shifts.csv").read_bytes() for out in outs]
            assert texts[0] == texts[1]
            tables[name] = _read_csv(outs[0] / "shifts.csv")
        a, b = tables["sorted"], tables["shuffled"]
        assert len(a) == len(b) == 6
        assert a[0] == b[0] and [r[:2] for r in a] == [r[:2] for r in b]
        got = np.array([r[2:] for r in a[1:]], dtype=float)
        ref = np.array([r[2:] for r in b[1:]], dtype=float)
        assert np.all(np.abs(got[:, 0]) > 1e-6)  # the filter moves every window
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_requires_config(self, tmp_path):
        assert main(["diagnose", "--out", str(tmp_path / "o")]) == 2

    def test_identity_filter_reports_zero_shifts(self, tmp_path, diagnose_inputs):
        cfg = _write_cfg(tmp_path, dict(diagnose_inputs, n_windows=4))
        out = tmp_path / "out"
        rc = main(["diagnose", "--config", cfg, "--out", str(out)])
        assert rc == 0

        summary = _read_summary(out)
        assert summary["metrics"]["mean_shift"] == 0.0
        assert summary["metrics"]["n_missing"] == 0
        assert summary["metrics"]["n_windows"] == 4

        rows = _read_csv(out / "shifts.csv")
        assert rows[0][0] == "window_id"
        assert [r[2] for r in rows[1:]] == ["0.0"] * 4

    def test_missing_input_file_names_the_path(self, tmp_path, diagnose_inputs,
                                               capsys):
        bad = dict(diagnose_inputs, signal=str(tmp_path / "missing.txt"))
        cfg = _write_cfg(tmp_path, bad)
        rc = main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "missing.txt" in capsys.readouterr().err

    def test_coordinate_out_of_range_rejected(self, tmp_path, diagnose_inputs):
        cfg = _write_cfg(tmp_path, dict(diagnose_inputs, coordinate=5))
        assert main(["diagnose", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
