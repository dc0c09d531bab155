"""Learning to transport bumps around a ring.

The task: given noisy Gaussian bumps on a cycle graph, predict the same
signal rolled forward by a fixed number of nodes.  Three small models are
fitted with the same budget and compared:

- "modulated": per-channel phase modulation, unitary propagation, complex
  channel mix, modulus.  Modulation imprints momentum, so propagation
  translates the bump.
- "plain": the same model with modulation clamped to zero.  Its frequency
  response is even along the ring, so it cannot prefer a direction; the
  best it can do is smear mass symmetrically.
- "diffusion": heat-kernel smoothing under the classical Laplacian with
  the same parameter budget.  Symmetric for the same reason.

Fitting is full-batch Adam descent over the few dozen scalar parameters,
with exact gradients taken in the eigenbases the propagation already uses
(see ``_Pass``).  A deterministic sweep over (wavenumber, time) pairs
provides the starting point; complex mix weights are initialized by
alternating least squares with a phase update, since the modulus discards
the output phase anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnose import ShiftReport, WindowSet, build_windows, relative_shift
from .errors import ContractError, DivergedError, check_config_fields
from .filters import FilterParams, FilterTerm
from .graph_core import FeatureLocations, Signal, ring_graph
from .operators import feature_derivative, infinity_norm, schrodinger_laplacian
from .optim import Adam
from .propagate import DensePropagator

__all__ = [
    "RingDataset",
    "RingModelParams",
    "RingTaskConfig",
    "RingTaskResult",
    "evaluate_model",
    "fit_ring_model",
    "identity_params",
    "make_dataset",
    "predict_model",
    "run_ring_task",
]

_KINDS = ("modulated", "plain", "diffusion")


@dataclass(frozen=True)
class RingTaskConfig:
    n_nodes: int = 100
    shift: int = 35
    n_samples: int = 200
    width_lo: float = 0.5          # bump variance range, squared radians of arc
    width_hi: float = 1.5
    noise_std: float = 1e-3
    seed: int = 0
    channels: int = 4
    max_iters: int = 200
    learning_rate: float = 0.02
    n_windows: int = 4

    def __post_init__(self):
        check_config_fields(self)
        if self.n_nodes < 3:
            raise ContractError("a ring needs at least 3 nodes")
        if not 0 <= self.shift < self.n_nodes:
            raise ContractError("shift must lie in [0, n_nodes)")
        if self.n_samples < 10:
            raise ContractError("need at least 10 samples to split")
        if not 0 < self.width_lo <= self.width_hi:
            raise ContractError("bump variance range must be positive and ordered")
        if self.noise_std < 0:
            raise ContractError("noise level must be nonnegative")
        if not 1 <= self.channels <= 4:
            raise ContractError("the model is capped at 4 channels")
        if self.max_iters < 1 or self.learning_rate <= 0:
            raise ContractError("optimizer settings must be positive")
        if self.n_windows < 2:
            raise ContractError("need at least 2 diagnostic windows")


@dataclass(frozen=True)
class RingDataset:
    """Input/target pairs, already split 80/10/10.

    Targets are exact circular rolls of the noisy normalized inputs, so a
    perfect transport map reaches zero loss.
    """

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _wrapped_bump(angles: np.ndarray, center: float, var: float) -> np.ndarray:
    delta = (angles - center + np.pi) % (2.0 * np.pi) - np.pi
    total = np.zeros_like(delta)
    for k in (-1, 0, 1):
        total += np.exp(-((delta + 2.0 * np.pi * k) ** 2) / (2.0 * var))
    return total


def make_dataset(cfg: RingTaskConfig) -> RingDataset:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_nodes
    angles = -np.pi + 2.0 * np.pi * np.arange(n) / n
    xs = np.empty((cfg.n_samples, n), dtype=np.float64)
    for s in range(cfg.n_samples):
        var = float(rng.uniform(cfg.width_lo, cfg.width_hi))
        center = angles[int(rng.integers(0, n))]
        x = _wrapped_bump(angles, center, var)
        x += rng.normal(0.0, cfg.noise_std, size=n)
        xs[s] = x / np.linalg.norm(x)
    ys = np.roll(xs, cfg.shift, axis=1)
    n_train = int(0.8 * cfg.n_samples)
    n_val = int(0.1 * cfg.n_samples)
    return RingDataset(
        train_x=xs[:n_train], train_y=ys[:n_train],
        val_x=xs[n_train:n_train + n_val], val_y=ys[n_train:n_train + n_val],
        test_x=xs[n_train + n_val:], test_y=ys[n_train + n_val:],
    )


@dataclass(frozen=True)
class RingModelParams:
    """Per-channel time, modulation direction over (cos, sin, angle), and
    complex mix weight, plus one output scale.

    The prediction is scale * |sum_c mix_c * evolve(t_c, modulate(h_c) x)|
    for the unitary kinds, and a real heat-kernel combination for the
    diffusion baseline (whose mix stays real)."""

    kind: str
    times: np.ndarray       # (C,)
    directions: np.ndarray  # (C, 3); zero for plain/diffusion
    mix: np.ndarray         # (C,) complex
    scale: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"model kind must be one of {_KINDS}")
        times = np.asarray(self.times, dtype=np.float64)
        directions = np.asarray(self.directions, dtype=np.float64)
        mix = np.asarray(self.mix, dtype=np.complex128)
        c = times.size
        if directions.shape != (c, 3) or mix.shape != (c,):
            raise ContractError("parameter blocks disagree on channel count")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(directions))
                and np.all(np.isfinite(mix)) and math.isfinite(float(self.scale))):
            raise ContractError("model parameters must be finite")
        for arr in (times, directions, mix):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "mix", mix)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def n_channels(self) -> int:
        return self.times.size

    def pack(self) -> np.ndarray:
        blocks = [self.times]
        if self.kind == "modulated":
            blocks.append(self.directions.ravel())
        blocks.append(self.mix.real)
        if self.kind != "diffusion":
            blocks.append(self.mix.imag)
        blocks.append(np.array([self.scale]))
        return np.concatenate(blocks)

    def unpack(self, vec: np.ndarray) -> "RingModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        c = self.n_channels
        pos = c
        directions = self.directions
        if self.kind == "modulated":
            directions = vec[pos:pos + 3 * c].reshape(c, 3)
            pos += 3 * c
        re = vec[pos:pos + c]
        pos += c
        if self.kind != "diffusion":
            im = vec[pos:pos + c]
            pos += c
        else:
            im = np.zeros(c)
        return replace(
            self,
            times=vec[:c],
            directions=directions,
            mix=re + 1j * im,
            scale=float(vec[pos]),
        )

    def to_filter_params(self) -> FilterParams:
        """The model's linear stage as filter terms (single output channel).

        The surrounding modulus and output scale are not part of the
        filter; apply the modulus activation downstream to reproduce the
        model."""
        if self.kind == "diffusion":
            raise ContractError("the diffusion baseline is not a filter")
        terms = []
        for i in range(self.n_channels):
            terms.append(FilterTerm(
                time=float(self.times[i]),
                phase=1.0,
                direction=self.directions[i],
                mix=np.array([[self.mix[i]]], dtype=np.complex128),
            ))
        return FilterParams(terms=tuple(terms))

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "times": [float(v) for v in self.times],
            "directions": [[float(v) for v in row] for row in self.directions],
            "mix_re": [float(v) for v in self.mix.real],
            "mix_im": [float(v) for v in self.mix.imag],
            "scale": self.scale,
        }


def identity_params(channels: int = 4) -> RingModelParams:
    """Pass-through model: zero times, zero modulation, first-channel mix."""
    mix = np.zeros(channels, dtype=np.complex128)
    mix[0] = 1.0
    return RingModelParams(
        kind="modulated",
        times=np.zeros(channels),
        directions=np.zeros((channels, 3)),
        mix=mix,
        scale=1.0,
    )


class _RingWorkspace:
    """Fixed spectral factorizations shared by every model evaluation.

    Evolution runs under the generator built from the ring's (cos, sin)
    pair rescaled to unit derivative norm, which puts useful propagation
    times in the tens; the raw (cos, sin, angle) columns parameterize the
    modulation.  The diffusion baseline gets the classical unit-weight
    ring Laplacian diag(deg) - A."""

    def __init__(self, cfg: RingTaskConfig):
        self.cfg = cfg
        self.graph, self.features = ring_graph(cfg.n_nodes)
        pair = FeatureLocations(self.features.values[:, :2])
        scale = max(
            infinity_norm(feature_derivative(self.graph, pair, k))
            for k in range(2)
        )
        self.feature_scale = 1.0 / scale
        self.propagator = DensePropagator(schrodinger_laplacian(
            self.graph, FeatureLocations(pair.values * self.feature_scale)
        ))
        adj = self.graph.adjacency.toarray()
        self.heat_vals, self.heat_vecs = np.linalg.eigh(
            np.diag(adj.sum(axis=1)) - adj)


class _Pass:
    """One evaluation of a model on a batch of rows, kept for its gradient.

    Every channel is propagated in the eigenbasis of its generator, where
    the time derivative of propagation is diagonal: ``-i*lam*exp(-i*t*lam)``
    for the unitary kinds and ``-sign(t)*mu*exp(-|t|*mu)`` for the heat
    kernel.  The direction derivative of the lifted input is
    ``i * F[:, k] * lifted``, paired with the residual propagated back."""

    def __init__(self, ws: _RingWorkspace, params: RingModelParams, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x))
        times = params.times[:, None]
        self.params = params
        self.features = ws.features.values
        if params.kind == "diffusion":
            vals, self.vecs = ws.heat_vals, ws.heat_vecs
            self.lifted = x.real[None]
            self.factor = np.exp(-np.abs(times) * vals)
            self.dfactor = -np.sign(times) * vals * self.factor
        else:
            vals, self.vecs = ws.propagator.eigenvalues, ws.propagator.eigenvectors
            self.lifted = x.astype(np.complex128)[None]
            if params.kind == "modulated":
                profile = self.features @ params.directions.T
                self.lifted = self.lifted * np.exp(1j * profile.T)[:, None, :]
            self.factor = np.exp(-1j * times * vals)
            self.dfactor = -1j * vals * self.factor
        # Shapes (C, B, N), or (1, B, N) while every channel shares its input.
        self.coeff = self.lifted @ self.vecs.conj()
        self.chans = (self.coeff * self.factor[:, None, :]) @ self.vecs.T
        self.combined = np.tensordot(params.mix, self.chans, axes=1)
        if params.kind == "diffusion":
            self.mag = self.combined.real
        else:
            self.mag = np.abs(self.combined)
        self.pred = params.scale * self.mag

    def loss(self, y: np.ndarray) -> float:
        return float(np.mean((self.pred - y) ** 2))

    def gradient(self, y: np.ndarray) -> np.ndarray:
        """Exact gradient of ``loss(y)``, laid out like ``params.pack()``."""
        p = self.params
        dpred = (2.0 / self.pred.size) * (self.pred - y)
        # d(loss) = Re sum(conj(w) * d(combined)); the modulus contributes
        # the output phase, and nothing where the output vanishes.
        w = p.scale * dpred
        if p.kind != "diffusion":
            w = w * self.combined / np.where(self.mag > 0.0, self.mag, 1.0)
        w_coeff = w @ self.vecs.conj()
        paired = np.sum(w_coeff.conj() * self.coeff, axis=1)
        blocks = [np.real(p.mix * np.sum(self.dfactor * paired, axis=1))]
        if p.kind == "modulated":
            back = (w_coeff * self.factor.conj()[:, None, :]) @ self.vecs.T
            moved = np.sum(back.conj() * self.lifted, axis=1) @ self.features
            blocks.append(np.real(1j * p.mix[:, None] * moved).ravel())
        inner = np.einsum("bn,cbn->c", w.conj(), self.chans)
        blocks.append(inner.real)
        if p.kind != "diffusion":
            blocks.append(-inner.imag)
        blocks.append([np.sum(dpred * self.mag)])
        return np.concatenate(blocks)


def evaluate_model(
    cfg: RingTaskConfig, params: RingModelParams, x: np.ndarray, y: np.ndarray
) -> float:
    """Mean squared error of a model on an (x, y) batch."""
    return _Pass(_RingWorkspace(cfg), params, x).loss(y)


def predict_model(
    cfg: RingTaskConfig, params: RingModelParams, x: np.ndarray
) -> np.ndarray:
    """Model outputs for a batch of input rows, shaped like the batch."""
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _Pass(_RingWorkspace(cfg), params, batch).pred


def _phase_weights(atoms: np.ndarray, target: np.ndarray, iters: int = 60) -> np.ndarray:
    """Least-squares weights for |atoms @ w| ~ target, alternating between
    the weight fit and the phase the current output implies."""
    w, *_ = np.linalg.lstsq(atoms, target.astype(np.complex128), rcond=None)
    for _ in range(iters):
        pred = atoms @ w
        mag = np.maximum(np.abs(pred), 1e-12)
        w, *_ = np.linalg.lstsq(atoms, target * (pred / mag), rcond=None)
    return w


def _grid_init(
    ws: _RingWorkspace, kind: str, x: np.ndarray, y: np.ndarray
) -> RingModelParams:
    """Deterministic sweep over (wavenumber, time) pairs.

    Modulating by wavenumber m turns the bump into a wave packet that the
    unitary evolution translates at the packet's group velocity, so the
    sweep scores how well each (m, t) lands the packet on the target; the
    plain and diffusion kinds only sweep the time axis."""
    c = ws.cfg.channels
    times = np.linspace(2.0, 47.0, 16)
    waves = list(range(-14, 15)) if kind == "modulated" else [0]
    target = y.ravel()
    scored = []
    for m in waves:
        sweep = _Pass(ws, RingModelParams(
            kind=kind,
            times=times,
            directions=np.tile([0.0, 0.0, float(m)], (times.size, 1)),
            mix=np.ones(times.size, dtype=np.complex128),
            scale=1.0,
        ), x)
        for t, z in zip(times, sweep.chans):
            mag = z.real.ravel() if kind == "diffusion" else np.abs(z).ravel()
            denom = float(mag @ mag)
            if denom <= 0.0:
                continue
            v = float(mag @ target) / denom
            loss = float(np.mean((v * mag - target) ** 2))
            scored.append((loss, float(m), float(t)))
    scored.sort(key=lambda row: row[0])
    chosen = scored[:c]
    params = RingModelParams(
        kind=kind,
        times=np.array([row[2] for row in chosen]),
        directions=np.array([[0.0, 0.0, row[1]] for row in chosen]),
        mix=np.ones(c, dtype=np.complex128),
        scale=1.0,
    )
    # Propagated again rather than kept from the sweep, which would hold
    # every candidate's output in memory at once.
    atoms = _Pass(ws, params, x).chans.reshape(c, -1).T
    if kind == "diffusion":
        w, *_ = np.linalg.lstsq(atoms.real, target, rcond=None)
        mix = w.astype(np.complex128)
    else:
        mix = _phase_weights(atoms, target)
    return replace(params, mix=mix)


def fit_ring_model(
    ws: _RingWorkspace, kind: str, dataset: RingDataset
) -> tuple[RingModelParams, list[tuple[int, float, float]]]:
    """Sweep-initialized Adam descent on the train MSE with exact gradients.

    Returns the best parameters seen and the per-iteration trace of
    (iteration, train MSE, validation MSE); iteration 0 is the sweep
    initialization.  Raises DivergedError (carrying the last good
    parameters and the trace so far) if the loss leaves the finite range.
    """
    cfg = ws.cfg
    x, y = dataset.train_x, dataset.train_y
    params = _grid_init(ws, kind, x, y)

    vec = params.pack()
    train = _Pass(ws, params, x)
    loss = train.loss(y)
    trace = [(0, loss, _Pass(ws, params, dataset.val_x).loss(dataset.val_y))]
    best_vec, best_loss = vec.copy(), loss
    adam = Adam(cfg.learning_rate)
    for it in range(1, cfg.max_iters + 1):
        vec = adam.step(vec, train.gradient(y))
        if not np.all(np.isfinite(vec)):
            raise DivergedError(
                f"{kind} ring fit produced non-finite parameters at iteration {it}",
                last_good={"params": params.unpack(best_vec), "trace": trace},
            )
        params = params.unpack(vec)
        train = _Pass(ws, params, x)
        loss = train.loss(y)
        if not math.isfinite(loss):
            raise DivergedError(
                f"{kind} ring fit produced a non-finite loss at iteration {it}",
                last_good={"params": params.unpack(best_vec), "trace": trace},
            )
        trace.append((it, loss, _Pass(ws, params, dataset.val_x).loss(dataset.val_y)))
        if loss < best_loss:
            best_vec, best_loss = vec.copy(), loss
    return params.unpack(best_vec), trace


@dataclass(frozen=True)
class RingTaskResult:
    config: RingTaskConfig
    models: dict            # kind -> RingModelParams
    traces: dict            # kind -> list[(iter, train mse, val mse)]
    test_mse: dict          # kind -> float
    val_mse: dict           # kind -> val mse at the best train iterate
    shift_reports: dict     # kind -> ShiftReport, for modulated and diffusion
    windows: WindowSet

    @property
    def mse_ratio_plain(self) -> float:
        return self.test_mse["modulated"] / self.test_mse["plain"]

    @property
    def mse_ratio_diffusion(self) -> float:
        return self.test_mse["modulated"] / self.test_mse["diffusion"]

    def summary(self) -> dict:
        return {
            "seed": self.config.seed,
            "n_nodes": self.config.n_nodes,
            "shift": self.config.shift,
            "channels": self.config.channels,
            "max_iters": self.config.max_iters,
            "test_mse": dict(self.test_mse),
            "val_mse": dict(self.val_mse),
            "mse_ratio_plain": self.mse_ratio_plain,
            "mse_ratio_diffusion": self.mse_ratio_diffusion,
            "mean_shift_modulated": self.shift_reports["modulated"].mean_shift,
            "mean_shift_diffusion": self.shift_reports["diffusion"].mean_shift,
            "models": {k: p.as_dict() for k, p in self.models.items()},
        }


def _layer_fn(ws: _RingWorkspace, params: RingModelParams):
    def layer(sig: Signal) -> Signal:
        return Signal(_Pass(ws, params, sig.values.T).pred.T)

    return layer


def _shift_probe(cfg: RingTaskConfig) -> Signal:
    """Compact bump at the angular origin, the seam's antipode.

    Centered there, symmetric smoothing wraps equally into both ends of
    the angle coordinate and cannot move the linear centroid, so only
    genuine directed transport registers as a shift."""
    angles = -np.pi + 2.0 * np.pi * np.arange(cfg.n_nodes) / cfg.n_nodes
    bump = _wrapped_bump(angles, 0.0, 0.1)
    return Signal(bump / np.linalg.norm(bump))


def run_ring_task(cfg: RingTaskConfig = RingTaskConfig()) -> RingTaskResult:
    """Fit all three models on one dataset and diagnose transport."""
    ws = _RingWorkspace(cfg)
    dataset = make_dataset(cfg)
    models = {}
    traces = {}
    test_mse = {}
    val_mse = {}
    for kind in _KINDS:
        params, trace = fit_ring_model(ws, kind, dataset)
        models[kind] = params
        traces[kind] = trace
        test_mse[kind] = _Pass(ws, params, dataset.test_x).loss(dataset.test_y)
        val_mse[kind] = min(trace, key=lambda row: row[1])[2]
    windows = build_windows(ws.features, 2, cfg.n_windows)
    probe = _shift_probe(cfg)
    shift_reports = {
        kind: relative_shift(_layer_fn(ws, models[kind]), probe, ws.features, windows)
        for kind in ("modulated", "diffusion")
    }
    return RingTaskResult(
        config=cfg,
        models=models,
        traces=traces,
        test_mse=test_mse,
        val_mse=val_mse,
        shift_reports=shift_reports,
        windows=windows,
    )
