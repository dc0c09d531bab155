"""Observable statistics and closed-form dynamics quantities.

Every function here takes one signal channel as a 1-D complex vector
``(N,)``; a multi-channel signal hands over its columns one at a time.
Means and variances are taken against unit-norm channels.  Every
expectation of a self-adjoint observable is computed as a complex inner
product and the imaginary residue is asserted to be negligible before it is
discarded; a residue above the bound is reported as a numerical error rather
than silently truncated.

The *_rhs functions return closed-form time derivatives of localization
statistics under unitary propagation, evaluated without any propagation:
they are what finite differences of the evolved statistics are checked
against.

The commuting deficiency of a feature set is a norm of cross commutators
and lives in ``pmo``, beside the objective that sums the same norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DegenerateSignalError,
    NumericalError,
    exact_array,
)
from .graph_core import FeatureLocations, Graph
from .operators import (
    SecondOrderGenerator,
    SparseOperator,
    feature_derivative,
    location_observable,
    schrodinger_laplacian,
    smoothing_operator,
)

# Routing is undefined for initial states with (numerically) no spread.
VARIANCE_FLOOR = 1e-10

# Bound on the imaginary residue of a self-adjoint expectation.
IMAG_RESIDUE_TOL = 1e-10

_NORMALIZATION_TOL = 1e-9

# Relative input step of ``sensitivity_probe``.
PROBE_STEP = 2.0 ** -10


def _as_channel(g) -> np.ndarray:
    arr = np.asarray(g)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractError(f"expected one signal channel as a non-empty (N,) "
                            f"vector, got {type(g).__name__} of shape {arr.shape}")
    return exact_array(arr, np.complex128, "signal channel")


def _require_normalized(vec: np.ndarray, what: str = "signal") -> None:
    n = float(np.linalg.norm(vec))
    if abs(n - 1.0) > _NORMALIZATION_TOL:
        raise ContractError(f"{what} must be unit norm, got {n!r}")


def _require_real(vec: np.ndarray, what: str) -> np.ndarray:
    if np.abs(vec.imag).max(initial=0.0) > 1e-12:
        raise ContractError(f"{what} must be real-valued")
    return vec.real.astype(np.float64)


def _real_expectation(applied: np.ndarray, vec: np.ndarray, what: str) -> float:
    val = np.vdot(vec, applied)  # <applied, vec> in the bra-ket order used here
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(val.real)):
        raise NumericalError(
            f"imaginary residue {val.imag:.3e} of {what} exceeds its bound"
        )
    return float(val.real)


def mean(obs: SparseOperator, g) -> float:
    """Expectation of a self-adjoint observable against a unit-norm channel."""
    vec = _as_channel(g)
    _require_normalized(vec)
    if not obs.is_self_adjoint():
        raise ContractError("mean requires a self-adjoint observable")
    return _real_expectation(obs.apply(vec), vec, "observable mean")


def variance(obs: SparseOperator, g) -> float:
    """Spread of an observable; cross-checked against its moment form.

    Computed as ``norm((M - E I) g)**2`` and verified against
    ``E[M^2] - E[M]^2`` to within 1e-10 relative to scale.
    """
    vec = _as_channel(g)
    _require_normalized(vec)
    if not obs.is_self_adjoint():
        raise ContractError("variance requires a self-adjoint observable")
    applied = obs.apply(vec)
    e = _real_expectation(applied, vec, "observable mean")
    centered = applied - e * vec
    var = float(np.real(np.vdot(centered, centered)))
    second = _real_expectation(obs.apply(applied), vec, "second moment")
    alt = second - e * e
    scale = max(1.0, abs(second), var)
    if abs(var - alt) > 1e-10 * scale:
        raise NumericalError(
            f"variance forms disagree: {var!r} vs {alt!r}"
        )
    return max(var, 0.0)


@dataclass(frozen=True)
class RoutingReport:
    """Outcome of one routing measurement toward a target coordinate."""

    measure: float
    target: float
    initial_variance: float
    final_mean: float
    final_variance: float


def routing_measure(
    obs: SparseOperator, g_initial, g_final, target: float
) -> RoutingReport:
    """Quadratic deviation of the final state from a target coordinate,
    normalized by the initial spread.

    Decomposes exactly as (final variance + (target - final mean)^2) divided
    by the initial variance; the decomposition is enforced at 1e-10.
    """
    v0 = variance(obs, g_initial)
    if v0 <= VARIANCE_FLOOR:
        raise DegenerateSignalError(
            f"initial spread {v0:.3e} is at or below the variance floor"
        )
    vec = _as_channel(g_final)
    _require_normalized(vec, "final signal")
    shifted = obs.apply(vec) - target * vec
    measure = float(np.real(np.vdot(shifted, shifted))) / v0
    e_t = mean(obs, g_final)
    v_t = variance(obs, g_final)
    alt = (v_t + (target - e_t) ** 2) / v0
    if abs(measure - alt) > 1e-10 * max(1.0, abs(measure)):
        raise NumericalError(
            f"routing measure decomposition violated: {measure!r} vs {alt!r}"
        )
    return RoutingReport(measure, float(target), v0, e_t, v_t)


def momentum_mean_modulated_closed_form(
    graph: Graph,
    f: np.ndarray,
    h: np.ndarray,
    theta: float,
    g,
) -> float:
    """Momentum acquired by phase-modulating a real signal, summed over edges.

    For a real unit-norm channel g, modulation by ``exp(i theta h)`` turns
    the momentum mean along f into a sum of
    ``a(m,n) g(m) g(n) (f(n) - f(m)) sin(theta (h(n) - h(m)))`` over ordered
    adjacent pairs.  The term is orientation-invariant, so each stored edge
    contributes its value twice; the result equals the direct expectation
    ``mean(momentum_observable, modulated g)`` exactly.
    """
    vec = _as_channel(g)
    _require_normalized(vec)
    gr = _require_real(vec, "modulated-momentum signal")
    f = exact_array(f, np.float64, "feature column")
    h = exact_array(h, np.float64, "modulation direction")
    if f.shape != (graph.n_nodes,) or h.shape != (graph.n_nodes,):
        raise ContractError("feature and modulation columns must match the graph")
    u, v, w = graph.edge_u, graph.edge_v, graph.edge_w
    response = 2.0 * w * gr[u] * gr[v] * np.sin(theta * (h[v] - h[u]))
    return float(np.dot(response, f[v] - f[u]))


def _generator_commutator(lap: SecondOrderGenerator, d: np.ndarray, x: np.ndarray):
    """``[L, diag(d)] x`` for a generator ``L`` and a real node column ``d``."""
    return lap.apply(d * x) - d * lap.apply(x)


def dynamics_rhs_multi(graph: Graph, f: FeatureLocations, k: int, g) -> float:
    """Closed-form rate of change of the location mean along feature ``k``
    when every feature derivative drives the evolution jointly.

    The transport term ``2 Re <W_k g, i G_k g>``, with ``G_k`` the feature
    derivative and ``W_k`` the smoothing operator, is corrected by one
    commutator expectation per other feature.  With one feature the sum is
    empty, so this is also the single-feature rate.  Matches a central
    finite difference of the evolved location mean at t = 0.
    """
    vec = _as_channel(g)
    _require_normalized(vec)
    grad = feature_derivative(graph, f, k)
    smooth = smoothing_operator(graph, f, k)
    own = 2.0 * float(np.real(np.vdot(smooth.apply(vec), 1j * grad.apply(vec))))
    col_k = f.column(k)
    correction = 0.0
    for j in range(f.n_features):
        if j == k:
            continue
        # <[i grad_j^2, X_k] g, g> = -<i [L_j, X_k] g, g> with L_j = -grad_j^2;
        # self-adjoint, so the residue check applies.
        lap_j = schrodinger_laplacian(graph, FeatureLocations(f.column(j)))
        correction -= _real_expectation(
            1j * _generator_commutator(lap_j, col_k, vec), vec, "cross-feature term")
    return own - correction


def variance_rhs(graph: Graph, f: np.ndarray, g) -> float:
    """Closed-form rate of change of the location variance along a feature."""
    vec = _as_channel(g)
    _require_normalized(vec)
    fcol = exact_array(f, np.float64, "feature column")
    floc = FeatureLocations(fcol)
    lap = schrodinger_laplacian(graph, floc)
    applied = 1j * _generator_commutator(lap, fcol * fcol, vec)
    growth = _real_expectation(applied, vec, "squared-location term")
    e_loc = _real_expectation(fcol * vec, vec, "location mean")
    return growth - 2.0 * e_loc * dynamics_rhs_multi(graph, floc, 0, vec)


def epsilon_regularity(graph: Graph, f: np.ndarray, g) -> float:
    """Distance of a channel from being a fixed point of the smoothing
    operator: the smallest eps with ``norm(W g - g) <= eps``."""
    vec = _as_channel(g)
    floc = FeatureLocations(f)
    smooth = smoothing_operator(graph, floc, 0)
    return float(np.linalg.norm(smooth.apply(vec) - vec))


def mixed_derivative_rhs(
    graph: Graph, f: np.ndarray, h: np.ndarray, g, target: float
) -> float:
    """Mixed modulation/time sensitivity of the routing measure at the
    origin of (modulation angle, time), in closed form.

    For a real unit-norm channel, this is the cross derivative of the routing
    measure of the modulated-then-evolved state, evaluated at angle 0 and
    time 0.  Vanishes when the modulation direction ``h`` is constant.
    """
    vec = _as_channel(g)
    _require_normalized(vec)
    _require_real(vec, "mixed-derivative signal")
    fcol = exact_array(f, np.float64, "feature column")
    hcol = exact_array(h, np.float64, "modulation direction")
    floc = FeatureLocations(fcol)
    loc = location_observable(floc, 0)
    v0 = variance(loc, vec)
    if v0 <= VARIANCE_FLOOR:
        raise DegenerateSignalError("mixed derivative needs initial spread")
    if np.ptp(hcol) == 0.0:
        # Constant modulation is a global phase; it cannot move anything.
        return 0.0
    grad = feature_derivative(graph, floc, 0)
    smooth = smoothing_operator(graph, floc, 0)
    lap = schrodinger_laplacian(graph, floc)
    fsq = fcol * fcol

    # <[X_h, [Lap, X_f^2]] g, g>
    first = _real_expectation(
        hcol * _generator_commutator(lap, fsq, vec)
        - _generator_commutator(lap, fsq, hcol * vec), vec, "mixed growth term"
    )

    def transport_gen(x):  # W grad x
        return smooth.apply(grad.apply(x))

    second = float(
        np.real(np.vdot(vec, hcol * transport_gen(vec) - transport_gen(hcol * vec)))
    )
    return (first - 4.0 * target * second) / v0


def sensitivity_probe(filter_fn, g) -> float:
    """Normalized response of a linear signal map to scaling its input.

    Checks linearity on fixed pseudo-random probes, then measures
    ``Re <F(g + d g) - F(g), F(g)> / (d * norm(F(g))**2)``, ``d = PROBE_STEP``,
    which is exactly 1 for every linear map with ``F(g) != 0``.
    """
    vec = _as_channel(g)
    _require_normalized(vec)
    base = np.asarray(filter_fn(vec), dtype=np.complex128)
    base_norm = float(np.linalg.norm(base))
    if base_norm <= 1e-12:
        raise DegenerateSignalError("filter output vanishes; probe undefined")
    rng = np.random.default_rng(0xA11CE)
    p1 = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
    p2 = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
    a, b = 0.7 - 0.2j, -0.4 + 0.5j
    combined = np.asarray(filter_fn(a * p1 + b * p2))
    parts = a * np.asarray(filter_fn(p1)) + b * np.asarray(filter_fn(p2))
    scale = max(1.0, float(np.linalg.norm(parts)))
    if float(np.linalg.norm(combined - parts)) > 1e-9 * scale:
        raise ContractError("filter_fn is not linear on random probes")
    shifted = np.asarray(filter_fn(vec + PROBE_STEP * vec), dtype=np.complex128)
    resp = np.vdot(base, shifted - base)
    return float(np.real(resp)) / (PROBE_STEP * base_norm ** 2)
