"""Windowed localization diagnostics for signal maps.

Windows along one feature coordinate are triangular hats centered at
quantile points of the coordinate's values, clamped flat beyond the first
and last centers.  Evaluating a value between two adjacent centers gives the
two linear interpolation weights onto those centers, so the windows form a
partition of unity by construction.

The relative-shift diagnostic windows a signal, pushes the windowed pieces
through a signal map, and compares per-node energy centroids of input and
output along the windowed coordinate, normalized by its spread.  A map
that only reweights phases cannot move the centroid; a map that transports
mass shows up as a nonzero shift in units of the feature's standard
deviation.  The map receives every windowed piece at once, as a
stack ``(N, J, B)`` of ``B`` signals, and must act on each one alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegenerateFeatureError,
    all_finite,
    check_fields,
    frozen_array,
)
from .graph_core import NORM_FLOOR, FeatureLocations, Signal


@dataclass(frozen=True)
class WindowSet:
    """Nonnegative node weights per window along one feature coordinate.

    A window's id is its row of ``weights``, and ``centers`` holds one
    value per row."""

    coordinate: int
    weights: np.ndarray        # (B, N)
    centers: np.ndarray        # (B,)

    def __post_init__(self):
        check_fields(self)
        weights = frozen_array(self.weights, np.float64, "window weights")
        centers = frozen_array(self.centers, np.float64, "window centers")
        if weights.ndim != 2:
            raise ContractError(f"window weights must be 2-D, got shape {weights.shape}")
        if centers.shape != weights.shape[:1]:
            raise ContractError(
                f"centers of shape {centers.shape} for {weights.shape[0]} windows")
        if weights.size and weights.min() < 0.0:
            raise ContractError("window weights must be nonnegative")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "centers", centers)

    @property
    def n_windows(self) -> int:
        return self.weights.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[1]


def build_windows(f: FeatureLocations, k: int, n_bins: int) -> WindowSet:
    """Triangular-hat windows at quantile centers of feature column ``k``.

    Centers sit at the (b + 0.5)/B quantiles, so for evenly spread values
    every window carries about N/B of the weighted node count.  The first
    and last windows are clamped flat beyond their centers, which keeps the
    hats a partition of unity on the whole value range.
    """
    if n_bins < 2:
        raise ContractError("need at least 2 windows")
    col = f.column(k)
    if float(col.max() - col.min()) == 0.0:
        raise DegenerateFeatureError(
            f"feature column {k} is constant; windows are undefined")
    levels = (np.arange(n_bins) + 0.5) / n_bins
    centers = np.quantile(col, levels)
    if np.any(np.diff(centers) <= 0):
        raise DegenerateFeatureError(
            f"feature column {k} has tied quantile centers; "
            f"reduce n_bins or perturb the feature")
    n = col.size
    weights = np.zeros((n_bins, n))
    # Interpolation weights onto the center grid; clamped at both ends.
    idx = np.searchsorted(centers, col, side="right")
    weights[0, idx == 0] = 1.0
    weights[n_bins - 1, idx == n_bins] = 1.0
    (nodes,) = np.nonzero((idx > 0) & (idx < n_bins))
    i = idx[nodes]
    left, right = centers[i - 1], centers[i]
    lam = (col[nodes] - left) / (right - left)
    weights[i - 1, nodes] = 1.0 - lam
    weights[i, nodes] = lam
    return WindowSet(coordinate=k, weights=weights, centers=centers)


@dataclass(frozen=True)
class WindowShift:
    """Shift record for one window; missing when the window carried no
    usable mass before or after the map."""

    window_id: int
    coordinate: int
    missing: bool
    shift: float | None
    pre_mean: float | None
    post_mean: float | None
    pre_variance: float | None
    post_variance: float | None


@dataclass(frozen=True)
class ShiftReport:
    entries: tuple[WindowShift, ...]
    mean_shift: float | None

    def csv_rows(self):
        """Rows of (window_id, coordinate, shift, pre/post mean, pre/post var)."""
        rows = []
        for e in self.entries:
            if e.missing:
                rows.append([e.window_id, e.coordinate, "missing", "", "", "", ""])
            else:
                rows.append([
                    e.window_id, e.coordinate, e.shift,
                    e.pre_mean, e.post_mean, e.pre_variance, e.post_variance,
                ])
        return rows


def _energy_profile(values: np.ndarray) -> np.ndarray | None:
    energy = (np.abs(values) ** 2).sum(axis=1)
    total = float(energy.sum())
    if total <= NORM_FLOOR ** 2:
        return None
    return energy / total


def relative_shift(
    layer_fn,
    g: Signal,
    f: FeatureLocations,
    windows: WindowSet,
) -> ShiftReport:
    """Per-window centroid displacement of a signal map, in feature units.

    Each window is applied to every channel of ``g`` with sqrt-weights and
    jointly renormalized.  The windows with usable mass are stacked into
    one complex array ``(N, J, B)`` and ``layer_fn`` is called once on it;
    it must return an ``(N, D, B)`` array whose slice ``[:, :, b]`` is the
    map applied to window ``b`` alone, as ``schrodinger_filter`` does.  The
    map's output localization is compared to the input's along the
    windowed coordinate.  Windows with no usable input or output mass are
    reported missing rather than as zero shifts.  Rescaling ``layer_fn`` by
    a positive constant leaves all shifts unchanged.
    """
    if g.n_nodes != f.n_nodes or windows.n_nodes != g.n_nodes:
        raise ContractError("signal, features, and windows disagree on size")
    # Each normalized window is written into the next free slice of one
    # stack, so a window without usable mass is overwritten by the next and
    # the live ones end up side by side; the pieces are views of the stack.
    stack = np.empty((g.n_nodes, g.n_channels, windows.n_windows), dtype=np.complex128)
    slot = {}
    for b, w in enumerate(windows.weights):
        piece = stack[:, :, len(slot)]
        np.multiply(np.sqrt(w)[:, None], g.values, out=piece)
        mass = float(np.linalg.norm(piece))
        if mass > NORM_FLOOR:
            piece /= mass
            slot[b] = len(slot)
    # Read-only: the map must not write over the pieces it is given.
    stack.setflags(write=False)
    batch = stack[:, :, :len(slot)]
    if slot:
        out = np.asarray(layer_fn(batch))
        if out.ndim != 3 or out.shape[0] != g.n_nodes or out.shape[2] != len(slot):
            raise ContractError(
                f"layer_fn mapped a {batch.shape} window stack to shape "
                f"{out.shape}, expected ({g.n_nodes}, D, {len(slot)})")
        if not all_finite(out):
            raise ContractError("layer_fn output must be finite")
    k = windows.coordinate
    col = f.column(k)
    spread = float(col.std())
    entries = []
    shifts = []
    for b in range(windows.n_windows):
        p_pre = p_post = None
        if b in slot:
            p_pre = _energy_profile(batch[:, :, slot[b]])
            p_post = _energy_profile(out[:, :, slot[b]])
        if p_pre is None or p_post is None:
            entries.append(WindowShift(b, k, True, None, None, None, None, None))
            continue
        if spread == 0.0:
            raise DegenerateFeatureError(
                f"feature column {k} is constant; shifts are undefined")
        pre_mean = float(np.dot(col, p_pre))
        post_mean = float(np.dot(col, p_post))
        pre_var = float(np.dot((col - pre_mean) ** 2, p_pre))
        post_var = float(np.dot((col - post_mean) ** 2, p_post))
        shift = (post_mean - pre_mean) / spread
        shifts.append(shift)
        entries.append(WindowShift(
            b, k, False, shift, pre_mean, post_mean, pre_var, post_var,
        ))
    mean_shift = float(np.mean(shifts)) if shifts else None
    return ShiftReport(tuple(entries), mean_shift)
