"""Linear filters built from modulation, propagation, and channel mixing.

One filter is a sum of terms.  Term ``m`` phase-modulates the input along a
learned combination of feature columns, propagates it for a term-specific
time under the shared second-order generator, and mixes channels with a
complex matrix:

    out = sum_m  propagate(t_m, modulate(theta_m * (f @ dir_m)) @ g) @ W_m

applied in ascending term order so evaluation is deterministic.  The map is
linear in the signal; per-term cost is one diagonal scaling, one
Chebyshev-series propagation, and one channel mix, so work grows linearly in
the edge count.

There are no bias terms anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .graph_core import FeatureLocations, Signal
from .operators import SecondOrderGenerator
from .propagate import evolve_array

_ACTIVATIONS = ("split-relu", "modulus", "none")

# Per-term propagation times are drawn uniformly from this range at init.
TIME_INIT_LOW = 0.0
TIME_INIT_HIGH = 1.5


@dataclass(frozen=True)
class FilterTerm:
    """One modulate / propagate / mix term."""

    time: float
    phase: float
    direction: np.ndarray  # (K,) real combination of feature columns
    mix: np.ndarray        # (J, D) complex channel mixing

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=np.float64)
        mix = np.asarray(self.mix, dtype=np.complex128)
        if direction.ndim != 1 or direction.size == 0:
            raise ContractError("term direction must be a non-empty vector")
        if mix.ndim != 2 or mix.size == 0:
            raise ContractError("term mix must be a non-empty matrix")
        if not (
            np.isfinite(self.time)
            and np.isfinite(self.phase)
            and np.all(np.isfinite(direction))
            and np.all(np.isfinite(mix.real))
            and np.all(np.isfinite(mix.imag))
        ):
            raise ContractError("filter term parameters must be finite")
        direction.setflags(write=False)
        mix.setflags(write=False)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "mix", mix)


@dataclass(frozen=True)
class FilterParams:
    """Ordered collection of filter terms with consistent shapes."""

    terms: tuple[FilterTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ContractError("a filter needs at least one term")
        k = terms[0].direction.size
        j, d = terms[0].mix.shape
        for term in terms[1:]:
            if term.direction.size != k or term.mix.shape != (j, d):
                raise ContractError("filter terms disagree on shapes")
        object.__setattr__(self, "terms", terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_features(self) -> int:
        return self.terms[0].direction.size

    @property
    def in_channels(self) -> int:
        return self.terms[0].mix.shape[0]

    @property
    def out_channels(self) -> int:
        return self.terms[0].mix.shape[1]

    def as_dict(self) -> dict:
        out = []
        for term in self.terms:
            out.append({
                "time": term.time,
                "phase": term.phase,
                "direction": [float(x) for x in term.direction],
                "mix": [
                    [[float(z.real), float(z.imag)] for z in row]
                    for row in term.mix
                ],
            })
        return {"terms": out}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FilterParams":
        try:
            terms = []
            for td in data["terms"]:
                mix = np.array(
                    [[complex(re, im) for re, im in row] for row in td["mix"]],
                    dtype=np.complex128,
                )
                terms.append(FilterTerm(
                    time=float(td["time"]),
                    phase=float(td["phase"]),
                    direction=np.asarray(td["direction"], dtype=np.float64),
                    mix=mix,
                ))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed filter parameters: {exc}") from exc
        return cls(tuple(terms))

    @classmethod
    def from_json(cls, text: str) -> "FilterParams":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"filter parameters are not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def save_filter_params(params: FilterParams, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(params.to_json() + "\n")


def load_filter_params(path) -> FilterParams:
    with open(path, "r", encoding="ascii") as fh:
        return FilterParams.from_json(fh.read())


@dataclass(frozen=True)
class InputModulationParams:
    """Maps raw feature columns to a complex input signal."""

    amplitude_map: np.ndarray  # (K, J) real
    phase_map: np.ndarray      # (K, J) real

    def __post_init__(self):
        amp = np.asarray(self.amplitude_map, dtype=np.float64)
        ph = np.asarray(self.phase_map, dtype=np.float64)
        if amp.ndim != 2 or ph.shape != amp.shape:
            raise ContractError("amplitude and phase maps must share a 2-D shape")
        if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(ph))):
            raise ContractError("input modulation parameters must be finite")
        amp.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "amplitude_map", amp)
        object.__setattr__(self, "phase_map", ph)


def schrodinger_filter(
    lap: SecondOrderGenerator,
    f: FeatureLocations,
    params: FilterParams,
    g: Signal,
) -> Signal:
    """Apply the filter; linear in ``g``, evaluated term by term in order.

    ``lap`` is the shared generator ``schrodinger_laplacian(graph, f)``.
    Callers that filter many signals build it once, so its norm bound is
    computed once too.
    """
    if f.n_nodes != lap.dim or g.n_nodes != lap.dim:
        raise ContractError("generator, features, and signal disagree on size")
    if params.n_features != f.n_features:
        raise ContractError(
            f"filter directions expect {params.n_features} features, "
            f"got {f.n_features}")
    if params.in_channels != g.n_channels:
        raise ContractError(
            f"filter mix expects {params.in_channels} input channels, "
            f"got {g.n_channels}")
    out = np.zeros((g.n_nodes, params.out_channels), dtype=np.complex128)
    for term in params.terms:
        direction = f.values @ term.direction
        modulated = np.exp(1j * term.phase * direction)[:, None] * g.values
        evolved = evolve_array(lap, term.time, modulated)
        out += evolved @ term.mix
    return Signal(out)


def input_modulation(q: FeatureLocations, params: InputModulationParams) -> Signal:
    """Complex lift of raw features: (q B) * exp(i q P) elementwise."""
    if params.amplitude_map.shape[0] != q.n_features:
        raise ContractError(
            f"modulation maps expect {params.amplitude_map.shape[0]} features, "
            f"got {q.n_features}")
    amp = q.values @ params.amplitude_map
    phase = q.values @ params.phase_map
    return Signal(amp * np.exp(1j * phase))


def activation(g: Signal, kind: str) -> Signal:
    """Pointwise nonlinearity; idempotent for every supported kind."""
    if kind == "none":
        return g
    if kind == "split-relu":
        vals = np.maximum(g.values.real, 0.0) + 1j * np.maximum(g.values.imag, 0.0)
        return Signal(vals)
    if kind == "modulus":
        return Signal(np.abs(g.values).astype(np.complex128))
    raise ContractError(f"activation must be one of {_ACTIVATIONS}")


def init_times(n_channels: int, seed: int) -> list[float]:
    """Per-term propagation times drawn uniformly from [0, 1.5)."""
    if n_channels < 0:
        raise ContractError("channel count must be nonnegative")
    rng = np.random.default_rng(seed)
    return rng.uniform(TIME_INIT_LOW, TIME_INIT_HIGH, size=n_channels).tolist()
