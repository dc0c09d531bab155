"""Ring transport task: dataset, model parameterization, fitting."""

import numpy as np
import pytest

from schro_gsp.errors import ContractError, DivergedError
from schro_gsp.filters import FilterParams
from schro_gsp.ring_task import (
    RingModelParams,
    RingTaskConfig,
    evaluate_model,
    fit_ring_model,
    identity_params,
    make_dataset,
    predict_model,
)
from schro_gsp.ring_task import _grid_init, _Pass, _RingWorkspace, _wrapped_bump


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_nodes": 2},
        {"shift": -1},
        {"shift": 100},
        {"n_samples": 9},
        {"width_lo": 0.0},
        {"width_lo": 2.0, "width_hi": 1.0},
        {"noise_std": -1.0},
        {"channels": 0},
        {"channels": 5},
        {"max_iters": 0},
        {"learning_rate": 0.0},
        {"max_iters": -5},
        {"n_windows": 1},
        {"noise_std": float("nan")},
        {"noise_std": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"width_hi": float("inf")},
        {"channels": 2.0},
    ])
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(ContractError):
            RingTaskConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = RingTaskConfig()
        assert cfg.n_nodes == 100
        assert cfg.shift == 35


class TestWrappedBump:
    def test_periodic_in_the_center(self):
        angles = -np.pi + 2.0 * np.pi * np.arange(50) / 50
        a = _wrapped_bump(angles, 0.7, 0.8)
        b = _wrapped_bump(angles, 0.7 + 2.0 * np.pi, 0.8)
        assert np.abs(a - b).max() <= 1e-12

    def test_symmetric_about_the_center(self):
        center = 0.4
        offsets = np.linspace(0.1, 2.0, 7)
        left = _wrapped_bump(center - offsets, center, 0.6)
        right = _wrapped_bump(center + offsets, center, 0.6)
        assert np.abs(left - right).max() <= 1e-12

    def test_peaks_at_the_center_node(self):
        angles = -np.pi + 2.0 * np.pi * np.arange(40) / 40
        vals = _wrapped_bump(angles, angles[13], 0.5)
        assert int(np.argmax(vals)) == 13


class TestDataset:
    CFG = RingTaskConfig(n_nodes=40, shift=7, n_samples=20, seed=3)

    def test_split_shapes(self):
        ds = make_dataset(self.CFG)
        assert ds.train_x.shape == (16, 40)
        assert ds.val_x.shape == (2, 40)
        assert ds.test_x.shape == (2, 40)
        assert ds.train_y.shape == ds.train_x.shape

    def test_rows_are_unit_norm(self):
        ds = make_dataset(self.CFG)
        for block in (ds.train_x, ds.val_x, ds.test_x):
            norms = np.linalg.norm(block, axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-12

    def test_targets_are_exact_rolls(self):
        ds = make_dataset(self.CFG)
        assert np.array_equal(ds.train_y, np.roll(ds.train_x, 7, axis=1))
        assert np.array_equal(ds.test_y, np.roll(ds.test_x, 7, axis=1))

    def test_deterministic_in_the_seed(self):
        a = make_dataset(self.CFG)
        b = make_dataset(self.CFG)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)


class TestModelParams:
    def _params(self, kind, c=2):
        rng = np.random.default_rng(9)
        directions = (rng.normal(size=(c, 3))
                      if kind == "modulated" else np.zeros((c, 3)))
        mix = rng.normal(size=c) + (
            0.0 if kind == "diffusion" else 1j * rng.normal(size=c))
        return RingModelParams(
            kind=kind,
            times=rng.uniform(0.0, 10.0, size=c),
            directions=directions,
            mix=mix.astype(np.complex128),
            scale=1.3,
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            RingModelParams(kind="fancy", times=np.zeros(1),
                            directions=np.zeros((1, 3)),
                            mix=np.ones(1, dtype=complex), scale=1.0)

    def test_block_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            RingModelParams(kind="plain", times=np.zeros(2),
                            directions=np.zeros((1, 3)),
                            mix=np.ones(2, dtype=complex), scale=1.0)

    def test_nonfinite_scale_rejected(self):
        with pytest.raises(ContractError):
            RingModelParams(kind="plain", times=np.zeros(1),
                            directions=np.zeros((1, 3)),
                            mix=np.ones(1, dtype=complex), scale=float("inf"))

    @pytest.mark.parametrize("kind,length", [
        ("modulated", 6 * 2 + 1),
        ("plain", 3 * 2 + 1),
        ("diffusion", 2 * 2 + 1),
    ])
    def test_pack_unpack_round_trip(self, kind, length):
        params = self._params(kind)
        vec = params.pack()
        assert vec.shape == (length,)
        back = params.unpack(vec)
        assert back.kind == kind
        assert np.array_equal(back.times, params.times)
        assert np.array_equal(back.directions, params.directions)
        assert np.array_equal(back.mix, params.mix)
        assert back.scale == params.scale

    def test_diffusion_is_not_a_filter(self):
        with pytest.raises(ContractError):
            self._params("diffusion").to_filter_params()

    def test_filter_view_round_trips_through_json(self):
        fp = self._params("modulated", c=3).to_filter_params()
        assert fp.n_terms == 3
        assert fp.n_features == 3
        assert fp.in_channels == 1
        assert fp.out_channels == 1
        assert FilterParams.from_json(fp.to_json()).to_json() == fp.to_json()

    def test_as_dict_fields(self):
        data = self._params("plain").as_dict()
        assert set(data) == {
            "kind", "times", "directions", "mix_re", "mix_im", "scale",
        }


class TestEvaluatePredict:
    def test_identity_model_reproduces_unshifted_targets(self):
        cfg = RingTaskConfig(n_nodes=60, shift=0, n_samples=20, seed=2,
                             channels=2)
        ds = make_dataset(cfg)
        mse = evaluate_model(cfg, identity_params(2), ds.test_x, ds.test_y)
        assert mse <= 1e-5

    def test_predict_shapes(self):
        cfg = RingTaskConfig(n_nodes=30, shift=3, n_samples=10, seed=4)
        params = identity_params(1)
        single = predict_model(cfg, params, np.ones(30))
        assert single.shape == (1, 30)
        batch = predict_model(cfg, params, np.ones((5, 30)))
        assert batch.shape == (5, 30)

    def test_predictions_are_nonnegative_for_modulus_kinds(self):
        cfg = RingTaskConfig(n_nodes=30, shift=3, n_samples=10, seed=4)
        ds = make_dataset(cfg)
        rng = np.random.default_rng(8)
        params = RingModelParams(
            kind="modulated",
            times=rng.uniform(0.0, 5.0, size=2),
            directions=rng.normal(size=(2, 3)),
            mix=rng.normal(size=2) + 1j * rng.normal(size=2),
            scale=0.9,
        )
        pred = predict_model(cfg, params, ds.train_x)
        assert pred.min() >= 0.0

    def test_evaluate_matches_prediction_error(self):
        cfg = RingTaskConfig(n_nodes=30, shift=3, n_samples=10, seed=4)
        ds = make_dataset(cfg)
        params = identity_params(1)
        pred = predict_model(cfg, params, ds.test_x)
        direct = float(np.mean((pred - ds.test_y) ** 2))
        mse = evaluate_model(cfg, params, ds.test_x, ds.test_y)
        assert mse == pytest.approx(direct, rel=1e-12)


class TestFit:
    SMALL = RingTaskConfig(n_nodes=24, shift=5, n_samples=20, seed=1,
                           channels=1, max_iters=3, n_windows=2)

    def test_plain_fit_traces_every_iteration(self):
        ws = _RingWorkspace(self.SMALL)
        ds = make_dataset(self.SMALL)
        params, trace = fit_ring_model(ws, "plain", ds)
        assert [row[0] for row in trace] == [0, 1, 2, 3]
        assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in trace)
        best_train = min(row[1] for row in trace)
        recomputed = evaluate_model(self.SMALL, params, ds.train_x, ds.train_y)
        assert recomputed == pytest.approx(best_train, rel=1e-10)

    def test_modulated_fit_returns_its_kind(self):
        cfg = RingTaskConfig(n_nodes=24, shift=5, n_samples=20, seed=1,
                             channels=1, max_iters=2, n_windows=2)
        ws = _RingWorkspace(cfg)
        params, trace = fit_ring_model(ws, "modulated", make_dataset(cfg))
        assert params.kind == "modulated"
        assert len(trace) == 3

    @pytest.mark.parametrize("kind", ["modulated", "plain", "diffusion"])
    def test_gradient_matches_central_differences(self, kind):
        cfg = RingTaskConfig(n_nodes=40, shift=7, n_samples=20, seed=3,
                             channels=2)
        ws = _RingWorkspace(cfg)
        ds = make_dataset(cfg)
        start = _grid_init(ws, kind, ds.train_x, ds.train_y)
        vec = start.pack() + 0.05 * np.random.default_rng(5).normal(
            size=start.pack().size)
        params = start.unpack(vec)
        exact = _Pass(ws, params, ds.train_x).gradient(ds.train_y)

        def loss(v):
            return _Pass(ws, params.unpack(v), ds.train_x).loss(ds.train_y)

        step = 1e-5
        fd = np.empty_like(vec)
        for i in range(vec.size):
            bump = np.zeros_like(vec)
            bump[i] = step
            fd[i] = (loss(vec + bump) - loss(vec - bump)) / (2.0 * step)
        assert np.linalg.norm(exact - fd) <= 1e-5 * np.linalg.norm(fd)

    # the runaway step overflows on purpose before the guard trips
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_runaway_rate_diverges_with_context(self):
        cfg = RingTaskConfig(n_nodes=24, shift=5, n_samples=20, seed=1,
                             channels=1, max_iters=5, n_windows=2,
                             learning_rate=1e200)
        ws = _RingWorkspace(cfg)
        with pytest.raises(DivergedError) as exc:
            fit_ring_model(ws, "plain", make_dataset(cfg))
        info = exc.value.last_good
        assert isinstance(info["params"], RingModelParams)
        assert info["trace"][0][0] == 0
