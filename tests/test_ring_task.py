"""Ring transport task: dataset, model parameterization, fitting."""

import numpy as np
import pytest
from scipy.linalg import expm

from schro_gsp.errors import ContractError, DivergedError
from schro_gsp.graph_core import FeatureLocations
from schro_gsp.operators import schrodinger_laplacian
from schro_gsp.propagate import evolve
from schro_gsp.ring_task import (
    RingModelParams,
    RingTaskConfig,
    fit_ring_model,
    make_dataset,
)
from schro_gsp.ring_task import (
    _grid_init,
    _layer_fn,
    _Pass,
    _phase_weights,
    _RingWorkspace,
    _wrapped_bump,
)


def _pass_through(channels):
    """Zero times, zero modulation, all weight on the first channel."""
    mix = np.zeros(channels, dtype=np.complex128)
    mix[0] = 1.0
    return RingModelParams(kind="modulated", times=np.zeros(channels),
                           directions=np.zeros((channels, 3)), mix=mix, scale=1.0)


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
        {"max_iters": -5},
        {"n_windows": 1},
        {"noise_std": float("nan")},
        {"noise_std": float("inf")},
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
        pred = _Pass(_RingWorkspace(cfg), _pass_through(2), ds.test_x).pred
        assert float(np.mean((pred - ds.test_y) ** 2)) <= 1e-5

    def test_predict_shapes(self):
        cfg = RingTaskConfig(n_nodes=30, shift=3, n_samples=10, seed=4)
        params = _pass_through(1)
        single = _Pass(_RingWorkspace(cfg), params, np.ones(30)).pred
        assert single.shape == (1, 30)
        batch = _Pass(_RingWorkspace(cfg), params, np.ones((5, 30))).pred
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
        pred = _Pass(_RingWorkspace(cfg), params, ds.train_x).pred
        assert pred.min() >= 0.0

    def test_evaluate_matches_prediction_error(self):
        cfg = RingTaskConfig(n_nodes=30, shift=3, n_samples=10, seed=4)
        ds = make_dataset(cfg)
        params = _pass_through(1)
        pred = _Pass(_RingWorkspace(cfg), params, ds.test_x).pred
        direct = float(np.mean((pred - ds.test_y) ** 2))
        mse = _Pass(_RingWorkspace(cfg), params, ds.test_x).loss(ds.test_y)
        assert mse == pytest.approx(direct, rel=1e-12)


class TestForwardPath:
    """``_Pass.pred`` against propagation that never touches the eigenbasis:
    the Chebyshev series for the unitary kinds, ``expm`` for diffusion.  The
    batch has fewer rows than nodes, so a transposed layout cannot pass."""

    CFG = RingTaskConfig(n_nodes=24, shift=5, n_samples=20, seed=6, channels=3)
    TOL = 1e-10

    def _rows(self, complex_rows):
        rows = make_dataset(self.CFG).train_x[:5]
        if not complex_rows:
            return rows
        rng = np.random.default_rng(11)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=rows.shape))
        return rows * phases + 0.1j * rng.normal(size=rows.shape)

    def _params(self, kind):
        rng = np.random.default_rng(12)
        c = self.CFG.channels
        directions = rng.normal(size=(c, 3)) if kind == "modulated" else np.zeros((c, 3))
        mix = rng.normal(size=c)
        if kind != "diffusion":
            mix = mix + 1j * rng.normal(size=c)
        return RingModelParams(
            kind=kind,
            times=np.array([3.0, -1.5, 11.0]),
            directions=directions,
            mix=mix,
            scale=0.7,
        )

    def _assert_close(self, pred, expected):
        assert pred.shape == expected.shape
        assert np.linalg.norm(pred - expected) <= self.TOL * np.linalg.norm(expected)

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("kind", ["modulated", "plain"])
    def test_unitary_kinds_match_chebyshev_propagation(self, kind, complex_rows):
        ws = _RingWorkspace(self.CFG)
        params = self._params(kind)
        x = self._rows(complex_rows)
        pair = ws.features.values[:, :2] * ws.feature_scale
        gen = schrodinger_laplacian(ws.graph, FeatureLocations(pair))
        total = np.zeros(x.T.shape, dtype=np.complex128)
        for t, h, m in zip(params.times, params.directions, params.mix):
            lifted = np.exp(1j * ws.features.values @ h)[:, None] * x.T
            total += m * evolve(gen, float(t), lifted)
        expected = params.scale * np.abs(total).T
        self._assert_close(_Pass(ws, params, x).pred, expected)

    @pytest.mark.parametrize("complex_rows", [False, True])
    def test_diffusion_matches_heat_kernel(self, complex_rows):
        ws = _RingWorkspace(self.CFG)
        params = self._params("diffusion")
        x = self._rows(complex_rows)
        adj = ws.graph.adjacency.toarray()
        heat = np.diag(adj.sum(axis=1)) - adj
        # The baseline reads the real part of its rows.
        total = sum(
            m.real * expm(-abs(t) * heat) @ x.real.T
            for t, m in zip(params.times, params.mix)
        )
        expected = params.scale * total.T
        self._assert_close(_Pass(ws, params, x).pred, expected)


class TestFit:
    SMALL = RingTaskConfig(n_nodes=24, shift=5, n_samples=20, seed=1,
                           channels=1, max_iters=3, n_windows=2)

    def test_plain_fit_traces_improving_iterations(self):
        ws = _RingWorkspace(self.SMALL)
        ds = make_dataset(self.SMALL)
        run, trace = fit_ring_model(ws, "plain", ds)
        iters = [row[0] for row in trace]
        assert iters[0] == 0
        assert iters == sorted(set(iters)) and iters[-1] <= self.SMALL.max_iters
        assert len(trace) > 1
        train = [row[1] for row in trace]
        assert all(later <= earlier for earlier, later in zip(train, train[1:]))
        assert train[-1] == run.value
        val = _Pass(ws, run.info, ds.val_x).pred
        assert trace[-1][2] == pytest.approx(float(np.mean((val - ds.val_y) ** 2)),
                                             rel=1e-10)
        assert run.evaluations >= len(trace)

    def test_modulated_fit_returns_its_kind(self):
        cfg = RingTaskConfig(n_nodes=24, shift=5, n_samples=20, seed=1,
                             channels=1, max_iters=2, n_windows=2)
        ws = _RingWorkspace(cfg)
        run, trace = fit_ring_model(ws, "modulated", make_dataset(cfg))
        assert run.info.kind == "modulated"
        assert trace[0][0] == 0 and len(trace) <= 3

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

    def test_non_finite_loss_diverges_with_context(self, monkeypatch):
        # The fourth train loss, inside a line search, is NaN.
        real_loss = _Pass.loss
        calls = []

        def loss(self, y):
            calls.append(None)
            return float("nan") if len(calls) == 4 else real_loss(self, y)

        monkeypatch.setattr(_Pass, "loss", loss)
        cfg = RingTaskConfig(n_nodes=24, shift=5, n_samples=20, seed=1,
                             channels=1, max_iters=5, n_windows=2)
        ws = _RingWorkspace(cfg)
        with pytest.raises(DivergedError, match="not finite at iteration") as exc:
            fit_ring_model(ws, "plain", make_dataset(cfg))
        assert isinstance(exc.value.last_good, RingModelParams)
        trace = exc.value.trace
        assert trace[0][0] == 0
        assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in trace)


class TestPhaseWeights:
    def test_match_least_squares_refit_every_iteration(self):
        # The alternating fit as it ran before one factorization served
        # every iteration: a fresh least-squares solve per phase update.
        rng = np.random.default_rng(21)
        atoms = rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3))
        target = np.abs(rng.normal(size=300))
        w, *_ = np.linalg.lstsq(atoms, target.astype(np.complex128), rcond=None)
        for _ in range(60):
            pred = atoms @ w
            phase = pred / np.maximum(np.abs(pred), 1e-12)
            w, *_ = np.linalg.lstsq(atoms, target * phase, rcond=None)
        fast = _phase_weights(atoms, target)
        assert np.linalg.norm(fast - w) <= 1e-10 * np.linalg.norm(w)


class TestReflection:
    """The ring layers against the reflection ``R: n -> -n mod N``, which
    fixes the generator and the heat Laplacian.  A layer without modulation
    commutes with it exactly, and so does one modulated along cos, which
    ``R`` keeps; sin and the angle change sign under ``R``, so a modulation
    along either breaks the symmetry: the planted case that shows the check
    can fail."""

    CFG = RingTaskConfig()

    def _residual(self, kind, direction):
        ws = _RingWorkspace(self.CFG)
        rng = np.random.default_rng(17)
        c = 4
        directions = np.zeros((c, 3))
        if direction is not None:
            directions[:, direction] = rng.normal(size=c)
        params = RingModelParams(
            kind=kind, times=rng.uniform(2.0, 47.0, size=c), directions=directions,
            mix=rng.normal(size=c) + 1j * rng.normal(size=c), scale=rng.uniform(0.5, 2.0))
        n = self.CFG.n_nodes
        x = rng.normal(size=(n, 1, 3)) + 1j * rng.normal(size=(n, 1, 3))
        reflect = -np.arange(n) % n
        layer = _layer_fn(ws, params)
        out = layer(x)
        return np.abs(out[reflect] - layer(x[reflect])).max() / np.abs(out).max()

    @pytest.mark.parametrize("kind, direction", [
        ("plain", None), ("diffusion", None), ("modulated", 0)])
    def test_symmetric_layers_are_equivariant(self, kind, direction):
        assert self._residual(kind, direction) <= 1e-10

    @pytest.mark.parametrize("direction", [1, 2])
    def test_odd_modulation_breaks_the_symmetry(self, direction):
        assert self._residual("modulated", direction) >= 0.1
