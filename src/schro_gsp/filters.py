"""Linear filters built from modulation, propagation, and channel mixing.

One filter is a sum of terms.  Term ``m`` phase-modulates the input along a
learned combination of feature columns, propagates it for a term-specific
time under the shared second-order generator, and mixes channels with a
complex matrix:

    out = sum_m  propagate(t_m, modulate(theta_m * (f @ dir_m)) @ g) @ W_m

applied in ascending term order so evaluation is deterministic.  The map is
linear in the signal; per-term cost is one Chebyshev-series propagation and
one channel mix, so work grows linearly in the edge count.

The filter takes a stack ``(N, J, B)`` of ``B`` signals (one signal is
``x[:, :, None]``) and filters each on its own into an array ``(N, D, B)``:
modulation acts per node, propagation column by column on the ``(N, J*B)``
block, and the mix over ``J`` only, so one propagation carries every signal,
which is how the window diagnostic runs all its windows at once.  The
modulation is not formed as a block: its phase column, from
``operators.modulation``, goes to ``propagate.evolve`` as weights that
re-scale the input in each step of the series.  Beyond the input, a call
then holds at most the series' three working blocks and the accumulator,
which starts from the first term's mix rather than from zeros.  A phase
column that overflows is refused by ``modulation`` before the term
propagates.

There are no bias terms anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError, check_fields, frozen_array
from .graph_core import FeatureLocations, load_json
from .operators import SecondOrderGenerator, modulation
from .propagate import evolve

_ACTIVATIONS = ("split-relu", "modulus", "none")


@dataclass(frozen=True)
class FilterTerm:
    """One modulate / propagate / mix term."""

    time: float
    phase: float
    direction: np.ndarray  # (K,) real combination of feature columns
    mix: np.ndarray        # (J, D) complex channel mixing

    def __post_init__(self):
        check_fields(self)
        what = "filter term parameters"
        direction = frozen_array(self.direction, np.float64, what)
        mix = frozen_array(self.mix, np.complex128, what)
        if direction.ndim != 1 or direction.size == 0:
            raise ContractError("term direction must be a non-empty vector")
        if mix.ndim != 2 or mix.size == 0:
            raise ContractError("term mix must be a non-empty matrix")
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


def save_filter_params(params: FilterParams, path) -> None:
    terms = []
    for term in params.terms:
        terms.append({
            "time": term.time,
            "phase": term.phase,
            "direction": [float(x) for x in term.direction],
            "mix": [
                [[float(z.real), float(z.imag)] for z in row]
                for row in term.mix
            ],
        })
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps({"terms": terms}, sort_keys=True) + "\n")


def load_filter_params(path) -> FilterParams:
    data = load_json(path)
    try:
        terms = []
        for td in data["terms"]:
            terms.append(FilterTerm(
                time=td["time"],
                phase=td["phase"],
                direction=td["direction"],
                mix=[[complex(re, im) for re, im in row] for row in td["mix"]],
            ))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed filter parameters: {exc}") from exc
    return FilterParams(tuple(terms))


def schrodinger_filter(
    lap: SecondOrderGenerator,
    f: FeatureLocations,
    params: FilterParams,
    stack: np.ndarray,
) -> np.ndarray:
    """Filter each signal of a stack ``(N, J, B)`` into an ``(N, D, B)``
    array, term by term in order.

    ``lap`` is the shared generator ``schrodinger_laplacian(graph, f)``.
    Callers that filter many signals build it once, so its norm bound is
    computed once too.
    """
    shape = np.shape(stack)
    if len(shape) != 3:
        raise ContractError(
            f"filter input must be an (N, J, B) stack, got "
            f"{type(stack).__name__} of shape {shape}")
    n, j, b = shape
    if f.n_nodes != lap.dim or n != lap.dim:
        raise ContractError("generator, features, and signal disagree on size")
    if params.n_features != f.n_features:
        raise ContractError(
            f"filter directions expect {params.n_features} features, "
            f"got {f.n_features}")
    if params.in_channels != j:
        raise ContractError(
            f"filter mix expects {params.in_channels} input channels, "
            f"got {j}")
    # The modulation rides inside the propagation, and a term's evolved and
    # mixed blocks are dropped before the next term, so a term holds three
    # (N, J*B) blocks besides the input and ``out``.  A batch that is a
    # strided view is copied once here.
    columns = np.reshape(stack, (n, j * b))
    out = None
    for term in params.terms:
        phase = modulation(f.values @ term.direction, term.phase)
        mixed = term.mix.T @ evolve(lap, term.time, columns, phase).reshape(n, j, b)
        if out is None:
            # The sum starts from zero: 0 + x turns -0.0 into +0.0, and
            # adding it in place keeps those bytes without a zeroed block.
            out = np.add(mixed, 0.0, out=mixed)
        else:
            out += mixed
        del mixed
    return out


def activation(values: np.ndarray, kind: str) -> np.ndarray:
    """Pointwise nonlinearity on an array of any shape; idempotent for
    every supported kind."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biufc":
        raise ContractError(
            f"activation takes a numeric array, got {type(values).__name__}")
    if kind == "none":
        return arr
    if kind == "split-relu":
        return np.maximum(arr.real, 0.0) + 1j * np.maximum(arr.imag, 0.0)
    if kind == "modulus":
        return np.abs(arr).astype(np.complex128)
    raise ContractError(f"activation must be one of {_ACTIVATIONS}")
