"""Self-checking suites for the numerical identities the library promises.

Every suite draws a deterministic instance family, measures the worst-case
residual of one contract, and reports it against a frozen bound.  The
registry drives the ``verify`` command; a green run is the library's primary
evidence that the operators, the propagation, and the closed-form dynamics
agree with their independent oracles.

Most suites are registered by ``_worst_over(name, seed, count, bound,
detail)``: their body draws one instance from the generator it is given and
returns one residual, and the registry calls it ``count`` times on one
``np.random.default_rng(seed)`` and reports the largest value.  The few
suites whose family is not a plain seeded draw (no draw, a rejection loop,
a timing, an extra fixed case) are registered by ``_suite`` and compute
their own ``(worst, bound, detail)``.

Residual conventions: identity suites report a worst absolute deviation and
the bound is in the same units; finite-difference suites report the worst
deviation scaled by its per-instance allowance, so their bound is 1.
Residuals are reduced with ``np.max``, which a NaN residual turns into NaN,
so the suite fails; Python's ``max`` drops a NaN after the first element.

The five propagation suites (``unitarity-*``, ``taylor-dense-agreement``
and ``evolution-inversion-*``) read one family of 100 instances, and one
pass over it makes all five results: per instance one generator, one
Chebyshev propagation and one eigendecomposition with its forward result,
and the backward propagations for the first 50.  The first of those
suites that runs pays for the pass.  Its results live in the dict that
one ``run_suites`` call (the ``verify`` command makes one) hands to every
``run_suite``, and die with it; nothing is cached for the process, so a
run after the library changes measures the changed library.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnose import WindowSet, build_windows, relative_shift
from .errors import ContractError
from .filters import FilterParams, FilterTerm, activation, schrodinger_filter
from .graph_core import (
    FeatureLocations,
    Graph,
    Signal,
    cluster_graph,
    load_graph,
    normalize_channel,
    ring_graph,
    save_graph,
)
from .observe import (
    dynamics_rhs_multi,
    epsilon_regularity,
    mean,
    mixed_derivative_rhs,
    momentum_mean_modulated_closed_form,
    routing_measure,
    sensitivity_probe,
    variance,
    variance_rhs,
)
from .operators import (
    commutator,
    feature_derivative,
    infinity_norm,
    location_observable,
    modulation,
    momentum_observable,
    operator_norm,
    schrodinger_laplacian,
    smoothing_operator,
)
from .pmo import PMOConfig, pmo_fit, pmo_objective
from .propagate import DensePropagator, chebyshev_terms, evolve

__all__ = [
    "SuiteResult",
    "random_connected_graph",
    "random_features",
    "random_unit",
    "run_suite",
    "run_suites",
    "select_suites",
]


# ---------------------------------------------------------------------------
# Deterministic instance families, shared with the acceptance tests.
# ---------------------------------------------------------------------------


# Edge weights of ``random_connected_graph`` are uniform on this range.
_WEIGHT_RANGE = (0.1, 2.0)


def random_connected_graph(
    rng: np.random.Generator, n_min: int = 4, n_max: int = 32
) -> Graph:
    """Random spanning tree plus extra edges; connected by construction."""
    n = int(rng.integers(n_min, n_max + 1))
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(*_WEIGHT_RANGE))
    for _ in range(int(rng.integers(0, n))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        edges.setdefault((u, v), float(rng.uniform(*_WEIGHT_RANGE)))
    return Graph.from_edges(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def random_features(
    rng: np.random.Generator, n_nodes: int, n_features: int
) -> FeatureLocations:
    return FeatureLocations(rng.uniform(-2.0, 2.0, size=(n_nodes, n_features)))


def random_unit(rng: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    """Unit-norm complex (or real-valued) channel as a 1-D complex array."""
    vec = rng.normal(size=n) + (0.0 if real else 1j * rng.normal(size=n))
    vec = vec.astype(np.complex128)
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    bound: float
    seconds: float
    detail: str


# Suite name -> function of the run's shared dict (see ``run_suite``) that
# returns ``(worst, bound, detail)``.
_REGISTRY: dict = {}


def _suite(name: str):
    """Register a suite that returns its own ``(worst, bound, detail)``."""

    def deco(fn):
        _REGISTRY[name] = lambda shared: fn()
        return fn

    return deco


def _worst_over(name: str, seed: int, count: int, bound: float, detail: str):
    """Register a one-instance check as a suite over ``count`` instances.

    The check draws its instance from the generator it is given and returns
    one residual; the suite's worst is the largest of ``count`` calls in
    turn on one ``np.random.default_rng(seed)``, NaN if any is NaN.
    """

    def deco(check):
        def run(shared):
            rng = np.random.default_rng(seed)
            return np.max([check(rng) for _ in range(count)]), bound, detail

        _REGISTRY[name] = run
        return check

    return deco


def select_suites(pattern: str | None = None) -> list[str]:
    """Suite names containing ``pattern`` (all when no pattern is given)."""
    if pattern is None:
        return list(_REGISTRY)
    hits = [name for name in _REGISTRY if pattern in name]
    if not hits:
        raise ContractError(
            f"no suite matches {pattern!r}; available: {', '.join(_REGISTRY)}"
        )
    return hits


def run_suite(name: str, shared: dict | None = None) -> SuiteResult:
    """Run one suite.

    ``shared`` holds results that several suites read, made by the first
    of them that runs; hand every call of one run the same dict.  Without
    it the suite makes its own.
    """
    if name not in _REGISTRY:
        raise ContractError(
            f"no suite named {name!r}; available: {', '.join(_REGISTRY)}"
        )
    start = time.perf_counter()
    worst, bound, detail = _REGISTRY[name]({} if shared is None else shared)
    elapsed = time.perf_counter() - start
    return SuiteResult(
        name, bool(worst <= bound), float(worst), float(bound), elapsed, detail
    )


def run_suites(pattern: str | None = None) -> Iterator[SuiteResult]:
    """Run the suites ``select_suites(pattern)`` names, in registry order,
    yielding each result as it finishes; one shared dict serves them all."""
    shared: dict = {}
    for name in select_suites(pattern):
        yield run_suite(name, shared)


# ---------------------------------------------------------------------------
# Graph core.
# ---------------------------------------------------------------------------


@_suite("graph-roundtrip")
def _graph_roundtrip():
    rng = np.random.default_rng(101)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.tsv")
        graphs = [random_connected_graph(rng) for _ in range(10)]
        graphs.append(cluster_graph(seed=0)[0])
        for g in graphs:
            save_graph(g, path)
            back = load_graph(path)
            same = (
                back.n_nodes == g.n_nodes
                and np.array_equal(back.edge_u, g.edge_u)
                and np.array_equal(back.edge_v, g.edge_v)
                and np.array_equal(back.edge_w, g.edge_w)
            )
            differ.append(0.0 if same else 1.0)
    return np.max(differ), 0.0, "save/load compared bit-exactly on 11 graphs"


@_worst_over("normalize-idempotent", 102, 25, 1e-12,
             "double normalization vs single, 25 random signals")
def _normalize_idempotent(rng):
    n = int(rng.integers(3, 40))
    sig = Signal(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
    once = normalize_channel(sig, 0)
    twice = normalize_channel(once, 0)
    return float(np.abs(twice.values - once.values).max())


@_suite("signal-finiteness")
def _signal_finiteness():
    bad = 0
    for poison in (np.nan, np.inf, 1j * np.nan):
        try:
            Signal(np.array([1.0 + 0j, poison]))
            bad += 1
        except ContractError:
            pass
    return float(bad), 0.0, "NaN/Inf signal construction must be rejected"


# ---------------------------------------------------------------------------
# Operators.
# ---------------------------------------------------------------------------


@_worst_over("derivative-skew-symmetry", 103, 50, 0.0,
             "derivative plus its transpose, entrywise, 50 instances")
def _derivative_skew(rng):
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, int(rng.integers(1, 4)))
    m = feature_derivative(g, f, 0).tosparse()
    return float(np.abs((m + m.T).toarray()).max())


@_worst_over("laplacian-self-adjoint", 104, 50, 1e-12,
             "generator minus its adjoint, entrywise, 50 instances")
def _laplacian_self_adjoint(rng):
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, int(rng.integers(1, 4)))
    m = schrodinger_laplacian(g, f).tosparse()
    return float(np.abs((m - m.conjugate().T).toarray()).max())


@_worst_over("smoothing-equals-commutator", 105, 50, 1e-12,
             "smoothing vs location/derivative commutator, 50 instances")
def _smoothing_commutator(rng):
    g = random_connected_graph(rng, n_max=32)
    f = random_features(rng, g.n_nodes, 1)
    w = smoothing_operator(g, f, 0).tosparse()
    comm = commutator(location_observable(f, 0), feature_derivative(g, f, 0))
    return float(np.abs((w - comm.tosparse()).toarray()).max())


@_worst_over("generator-location-commutator", 106, 50, 1e-10,
             "[generator, location] vs anticommutator form, 50 instances")
def _generator_location_commutator(rng):
    g = random_connected_graph(rng, n_max=32)
    f = random_features(rng, g.n_nodes, 1)
    lap = schrodinger_laplacian(g, f)
    loc = location_observable(f, 0)
    grad = feature_derivative(g, f, 0).tosparse()
    w = smoothing_operator(g, f, 0).tosparse()
    lhs = commutator(lap, loc).tosparse().toarray()
    rhs = (grad @ w + w @ grad).toarray()
    return float(np.abs(lhs - rhs).max())


@_worst_over("operator-norm-bracket", 107, 25, 1e-8,
             "norm estimate inside [Frobenius/sqrt(N), sqrt(N)*row-sum]")
def _operator_norm_bracket(rng):
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, 2)
    outside = [0.0]  # distance outside the bracket, scaled
    for op in (feature_derivative(g, f, 0), schrodinger_laplacian(g, f)):
        dense = op.tosparse().toarray()
        est = float(operator_norm(op))
        fro = float(np.linalg.norm(dense))
        upper = float(np.sqrt(op.dim)) * infinity_norm(op)
        lower = fro / float(np.sqrt(op.dim))
        scale = max(1.0, est)
        outside += [(lower - est) / scale, (est - upper) / scale]
    return np.max(outside)


# ---------------------------------------------------------------------------
# Propagation.
# ---------------------------------------------------------------------------


def _propagation_family(count: int = 100):
    """The (graph, features, t, state) family shared by unitarity checks."""
    rng = np.random.default_rng(108)
    for _ in range(count):
        g = random_connected_graph(rng, n_max=64)
        f = random_features(rng, g.n_nodes, int(rng.integers(1, 4)))
        t = float(rng.uniform(-2.0, 2.0))
        vec = random_unit(rng, g.n_nodes)
        yield g, f, t, vec


def _propagation_pass(shared: dict) -> dict:
    """``(worst, bound, detail)`` of every suite that reads the family, by name.

    One walk over the family.  Per instance it builds the generator once,
    propagates forward once by the Chebyshev series and once by the
    factorized oracle, and, for the first 50 instances, back again by
    each; the suites read these shared results.  Only the running worst
    values outlive an instance.  The result is kept in ``shared``.
    """
    if "propagation" in shared:
        return shared["propagation"]
    drift_dense, drift_series, gap, back_series, back_dense = [], [], [], [], []
    for index, (g, f, t, vec) in enumerate(_propagation_family()):
        lap = schrodinger_laplacian(g, f)
        before = float(np.linalg.norm(vec))
        series = evolve(lap, t, vec)
        prop = DensePropagator(lap)
        exact = prop.apply(t, vec)
        drift_dense.append(abs(float(np.linalg.norm(exact)) - before) / before)
        drift_series.append(abs(float(np.linalg.norm(series)) - before) / before)
        if index < 50:  # agreement and round trips: the first 50 only
            gap.append(float(np.abs(series - exact).max()))
            back = evolve(lap, -t, series)
            back_series.append(float(np.abs(back - vec).max()))
            back = prop.apply(-t, exact)
            back_dense.append(float(np.abs(back - vec).max()))
    shared["propagation"] = {
        "unitarity-dense": (
            np.max(drift_dense), 1e-10,
            "norm drift, factorized propagation, 100 instances"),
        "unitarity-taylor": (
            np.max(drift_series), 1e-6,
            "norm drift, Chebyshev propagation, 100 instances"),
        "taylor-dense-agreement": (
            np.max(gap), 1e-6, "per-entry gap between Chebyshev and factorized paths"),
        "evolution-inversion-taylor": (
            np.max(back_series), 1e-6,
            "forward/backward Chebyshev propagation round trip"),
        "evolution-inversion-dense": (
            np.max(back_dense), 1e-9,
            "forward/backward factorized propagation round trip"),
    }
    return shared["propagation"]


def _pass_suite(name: str) -> None:
    """Register a suite whose result the propagation pass makes."""
    _REGISTRY[name] = lambda shared: _propagation_pass(shared)[name]


_pass_suite("unitarity-dense")
_pass_suite("unitarity-taylor")
_pass_suite("taylor-dense-agreement")


@_worst_over("momentum-conservation", 109, 50, 1e-8,
             "momentum mean drift over four horizons, 50 instances")
def _momentum_conservation(rng):
    g = random_connected_graph(rng, n_max=48)
    f = random_features(rng, g.n_nodes, 1)
    vec = random_unit(rng, g.n_nodes)
    mom = momentum_observable(g, f, 0)
    prop = DensePropagator(schrodinger_laplacian(g, f))
    base = mean(mom, vec)
    return np.max([abs(mean(mom, prop.apply(t, vec)) - base)
                   for t in (0.1, 0.5, 1.0, 2.0)])


@_worst_over("derivative-evolution-commute", 110, 50, 1e-9,
             "derivative applied before vs after propagation")
def _derivative_evolution_commute(rng):
    g = random_connected_graph(rng, n_max=48)
    f = random_features(rng, g.n_nodes, 1)
    vec = random_unit(rng, g.n_nodes)
    grad = feature_derivative(g, f, 0)
    prop = DensePropagator(schrodinger_laplacian(g, f))
    t = float(rng.uniform(-2.0, 2.0))
    gap = grad.apply(prop.apply(t, vec)) - prop.apply(t, grad.apply(vec))
    return float(np.linalg.norm(gap))


_pass_suite("evolution-inversion-taylor")
_pass_suite("evolution-inversion-dense")


# ---------------------------------------------------------------------------
# Observables and dynamics.
# ---------------------------------------------------------------------------


@_worst_over("routing-decomposition", 111, 50, 1e-10,
             "direct quadratic form vs mean/variance split")
def _routing_decomposition(rng):
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, 1)
    loc = location_observable(f, 0)
    start = random_unit(rng, g.n_nodes)
    prop = DensePropagator(schrodinger_laplacian(g, f))
    final = prop.apply(float(rng.uniform(0.1, 1.0)), start)
    target = float(rng.uniform(-2.0, 2.0))
    report = routing_measure(loc, start, final, target)
    recombined = (
        report.final_variance + (target - report.final_mean) ** 2
    ) / report.initial_variance
    return abs(report.measure - recombined)


@_worst_over("modulated-momentum", 112, 100, 1e-10,
             "edge-sum closed form vs direct expectation, 100 instances")
def _modulated_momentum(rng):
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, 1)
    h = rng.uniform(-2.0, 2.0, size=g.n_nodes)
    theta = float(rng.uniform(-5.0, 5.0))
    vec = random_unit(rng, g.n_nodes, real=True)
    mom = momentum_observable(g, f, 0)
    direct = mean(mom, modulation(h, theta) * vec)
    closed = momentum_mean_modulated_closed_form(g, f.column(0), h, theta, vec)
    return abs(direct - closed)


@_worst_over("real-signal-momentum", 113, 100, 1e-12,
             "momentum mean of real states, 100 instances")
def _real_signal_momentum(rng):
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, 1)
    vec = random_unit(rng, g.n_nodes, real=True)
    return abs(mean(momentum_observable(g, f, 0), vec))


def _fd_allowance(reference: float) -> float:
    return max(1e-8, 1e-4 * abs(reference))


def _location_rate_fd(rng, statistic, closed_form, multi: bool = False):
    """A closed-form rate, ``closed_form(graph, f, k, vec)``, against a
    centered difference of ``statistic`` (``mean`` or ``variance``) of the
    evolved location observable, on one feature or, when ``multi``, on 2-3
    features at a drawn index."""
    step = 1e-5
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, int(rng.integers(2, 4)) if multi else 1)
    k = int(rng.integers(0, f.n_features)) if multi else 0
    vec = random_unit(rng, g.n_nodes)
    loc = location_observable(f, k)
    prop = DensePropagator(schrodinger_laplacian(g, f))
    fd = (statistic(loc, prop.apply(step, vec))
          - statistic(loc, prop.apply(-step, vec))) / (2.0 * step)
    closed = closed_form(g, f, k, vec)
    return abs(closed - fd) / _fd_allowance(closed)


_worst_over("location-dynamics-vs-fd", 114, 50, 1.0,
            "location-mean rate vs centered difference (scaled residual)")(
    partial(_location_rate_fd, statistic=mean, closed_form=dynamics_rhs_multi))
_worst_over("multi-feature-dynamics-vs-fd", 115, 50, 1.0,
            "joint-evolution location rate vs centered difference")(
    partial(_location_rate_fd, statistic=mean, closed_form=dynamics_rhs_multi,
            multi=True))
_worst_over("variance-dynamics-vs-fd", 116, 50, 1.0,
            "location-variance rate vs centered difference")(
    partial(_location_rate_fd, statistic=variance,
            closed_form=lambda g, f, k, vec: variance_rhs(g, f.column(k), vec)))


def _dense_operator_norm(op) -> float:
    return float(np.linalg.norm(op.tosparse().toarray(), ord=2))


def _regularity_bound(rng, multi: bool):
    """Transport-rate deviation from twice the momentum mean, minus its
    regularity bound plus, when ``multi``, the cross-commutator term."""
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, int(rng.integers(2, 4)) if multi else 1)
    k = int(rng.integers(0, f.n_features)) if multi else 0
    vec = random_unit(rng, g.n_nodes)
    grad = feature_derivative(g, f, k)
    eps = epsilon_regularity(g, f.column(k), vec)
    delta = 0.0
    for i in range(f.n_features):
        x_i = np.diag(f.column(i))
        for j in range(f.n_features):
            if i == j:
                continue
            gj = feature_derivative(g, f, j).tosparse()
            sq = (gj @ gj).toarray()
            delta = max(delta, float(np.linalg.norm(sq @ x_i - x_i @ sq, ord=2)))
    lhs = abs(
        dynamics_rhs_multi(g, f, k, vec)
        - 2.0 * mean(momentum_observable(g, f, k), vec)
    )
    return lhs - (2.0 * eps * _dense_operator_norm(grad) + (f.n_features - 1) * delta)


_worst_over("regularity-transport-bound", 117, 50, 1e-9,
            "transport-rate deviation minus its regularity bound")(
    partial(_regularity_bound, multi=False))
_worst_over("multi-regularity-transport-bound", 118, 50, 1e-9,
            "joint transport-rate deviation minus its combined bound")(
    partial(_regularity_bound, multi=True))


@_suite("mixed-derivative-vs-fd")
def _mixed_derivative_fd():
    rng = np.random.default_rng(119)
    step = 1e-3
    residuals = []
    done = 0
    while done < 25:
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, 1)
        h = rng.uniform(-2.0, 2.0, size=g.n_nodes)
        vec = random_unit(rng, g.n_nodes, real=True)
        loc = location_observable(f, 0)
        target = float(rng.uniform(-1.0, 1.0))
        v0 = variance(loc, vec)
        if v0 <= 1e-6:
            continue
        closed = mixed_derivative_rhs(g, f.column(0), h, vec, target)
        if abs(closed) < 1e-2:
            continue  # keep instances where the relative tolerance is meaningful
        prop = DensePropagator(schrodinger_laplacian(g, f))

        def measure(t: float, theta: float) -> float:
            state = prop.apply(t, modulation(h, theta) * vec)
            e_t = mean(loc, state)
            v_t = variance(loc, state)
            return (v_t + (target - e_t) ** 2) / v0

        def cross(hh: float) -> float:
            return (
                measure(hh, hh)
                - measure(hh, -hh)
                - measure(-hh, hh)
                + measure(-hh, -hh)
            ) / (4.0 * hh * hh)

        # One Richardson step removes the quadratic truncation term.
        fd = (4.0 * cross(step / 2.0) - cross(step)) / 3.0
        residuals.append(abs(closed - fd) / (1e-3 * abs(closed)))
        done += 1
    rng2 = np.random.default_rng(120)
    g = random_connected_graph(rng2)
    f = random_features(rng2, g.n_nodes, 1)
    vec = random_unit(rng2, g.n_nodes, real=True)
    flat = mixed_derivative_rhs(
        g, f.column(0), np.full(g.n_nodes, 0.7), vec, 0.5
    )
    if flat != 0.0:
        residuals.append(np.inf)
    detail = "mixed rate vs nested differences; constant direction is 0"
    return np.max(residuals), 1.0, detail


@_worst_over("sensitivity-probe-linear", 121, 25, 1e-10,
             "probe response of modulate-evolve-mix maps, 25 instances")
def _sensitivity_probe_linear(rng):
    g = random_connected_graph(rng)
    f = random_features(rng, g.n_nodes, int(rng.integers(1, 3)))
    h = rng.uniform(-1.0, 1.0, size=g.n_nodes)
    theta = float(rng.uniform(-2.0, 2.0))
    t = float(rng.uniform(-1.0, 1.0))
    scale = complex(rng.normal(), rng.normal())
    lap = schrodinger_laplacian(g, f)
    phases = modulation(h, theta)

    def layer(x):
        return scale * evolve(lap, t, phases * np.asarray(x))

    vec = random_unit(rng, g.n_nodes)
    return abs(sensitivity_probe(layer, vec) - 1.0)


# ---------------------------------------------------------------------------
# Feature-map optimization.
# ---------------------------------------------------------------------------


@_worst_over("pmo-permutation-symmetry", 122, 5, 1e-9,
             "objective under output-column permutation, 5 instances")
def _pmo_permutation(rng):
    g = random_connected_graph(rng, n_max=12)
    q = random_features(rng, g.n_nodes, 3)
    t = rng.normal(size=(3, 2))
    a = pmo_objective(g, q, t, 1.0)
    b = pmo_objective(g, q, t[:, ::-1], 1.0)
    return abs(a - b) / max(1.0, abs(a))


@_worst_over("pmo-monotone-fit", 123, 1, 1e-12,
             "fit objective vs init, and trace monotonicity")
def _pmo_monotone(rng):
    g = random_connected_graph(rng, n_min=8, n_max=12)
    q = random_features(rng, g.n_nodes, 2)
    cfg = PMOConfig(out_features=2, max_iters=40, seed=3)
    init_objective = pmo_objective(g, q, np.eye(2), cfg.lam)
    result = pmo_fit(g, q, cfg)
    final = pmo_objective(g, q, result.transform, cfg.lam)
    values = [value for _, value in result.objective_trace]
    # Rises along the trace count from a floor of 0.0.
    return np.max([final - init_objective, 0.0, *np.diff(values)])


@_worst_over("pmo-gradient-step-consistency", 124, 1, 1e-3,
             "finite-difference gradient at full vs half step")
def _pmo_gradient_consistency(rng):
    g = random_connected_graph(rng, n_min=6, n_max=10)
    q = random_features(rng, g.n_nodes, 2)
    t = rng.normal(size=(2, 2)) * 0.5 + np.eye(2)

    def fd_gradient(step: float) -> np.ndarray:
        grad = np.zeros_like(t)
        for idx in np.ndindex(*t.shape):
            probe = t.copy()
            probe[idx] = t[idx] + step
            up = pmo_objective(g, q, probe, 1.0)
            probe[idx] = t[idx] - step
            down = pmo_objective(g, q, probe, 1.0)
            grad[idx] = (up - down) / (2.0 * step)
        return grad

    g1 = fd_gradient(1e-5)
    g2 = fd_gradient(5e-6)
    return float(np.linalg.norm(g1 - g2) / max(np.linalg.norm(g2), 1e-12))


# ---------------------------------------------------------------------------
# Filters.
# ---------------------------------------------------------------------------


def _random_filter_params(rng: np.random.Generator, n_features: int, j: int, d: int):
    terms = []
    for _ in range(2):
        terms.append(
            FilterTerm(
                time=float(rng.uniform(0.0, 1.0)),
                phase=float(rng.uniform(-2.0, 2.0)),
                direction=rng.normal(size=n_features),
                mix=rng.normal(size=(j, d)) + 1j * rng.normal(size=(j, d)),
            )
        )
    return FilterParams(terms=tuple(terms))


@_worst_over("filter-linearity", 125, 10, 1e-9,
             "filter on a combination vs combined filter outputs")
def _filter_linearity(rng):
    g = random_connected_graph(rng, n_max=24)
    f = random_features(rng, g.n_nodes, 2)
    params = _random_filter_params(rng, 2, 2, 2)
    x1 = rng.normal(size=(g.n_nodes, 2, 1)) + 1j * rng.normal(size=(g.n_nodes, 2, 1))
    x2 = rng.normal(size=(g.n_nodes, 2, 1)) + 1j * rng.normal(size=(g.n_nodes, 2, 1))
    a, b = 0.8 - 0.3j, -0.2 + 1.1j
    lap = schrodinger_laplacian(g, f)
    joint = schrodinger_filter(lap, f, params, a * x1 + b * x2)
    split = (
        a * schrodinger_filter(lap, f, params, x1)
        + b * schrodinger_filter(lap, f, params, x2)
    )
    return float(np.abs(joint - split).max())


@_worst_over("filter-unitary-norm", 126, 10, 1e-6,
             "norm drift of a single-term filter with unitary mixing")
def _filter_unitary_norm(rng):
    g = random_connected_graph(rng, n_max=24)
    f = random_features(rng, g.n_nodes, 2)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    unitary, _ = np.linalg.qr(raw)
    params = FilterParams(
        terms=(
            FilterTerm(
                time=float(rng.uniform(0.0, 1.0)),
                phase=float(rng.uniform(-2.0, 2.0)),
                direction=rng.normal(size=2),
                mix=unitary,
            ),
        )
    )
    x = rng.normal(size=(g.n_nodes, 2, 1)) + 1j * rng.normal(size=(g.n_nodes, 2, 1))
    out = schrodinger_filter(schrodinger_laplacian(g, f), f, params, x)
    return abs(np.linalg.norm(out) - np.linalg.norm(x)) / np.linalg.norm(x)


@_worst_over("activation-idempotent", 127, 20, 0.0,
             "activation applied twice vs once, every kind")
def _activation_idempotent(rng):
    x = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))

    def twice_vs_once(kind: str) -> float:
        once = activation(x, kind)
        return float(np.abs(activation(once, kind) - once).max())

    return np.max([twice_vs_once(kind) for kind in ("split-relu", "modulus", "none")])


@_suite("filter-complexity-scaling")
def _filter_complexity():
    sizes = (1000, 8000, 64000)
    rng = np.random.default_rng(128)
    params = FilterParams(
        terms=(
            FilterTerm(
                time=0.3,
                phase=0.7,
                direction=np.array([0.4, -0.9]),
                mix=np.eye(4, dtype=np.complex128),
            ),
        )
    )
    timings, terms, entries = [], [], []
    for n in sizes:
        graph, feats = ring_graph(n)
        two = FeatureLocations(feats.values[:, :2])
        # Copied after the draw's temporaries are freed: kept where the sum was
        # formed, it raises the battery's resident peak (set here) by 3.7 MB.
        x = (rng.normal(size=(n, 4, 1)) + 1j * rng.normal(size=(n, 4, 1))).copy()
        # Each timed call builds its generator, so it times the whole filter.
        lap = schrodinger_laplacian(graph, two)
        schrodinger_filter(lap, two, params, x)  # warm-up
        # The work each call does, so a host-load flake shows as a time
        # change without one here.
        terms.append(chebyshev_terms(lap, params.terms[0].time))
        entries.append(lap.tosparse().nnz)
        del lap  # the timed calls build their own; it would raise the peak
        repeats = max(1, 64000 // n)
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(repeats):
                schrodinger_filter(
                    schrodinger_laplacian(graph, two), two, params, x)
            best = min(best, (time.perf_counter() - start) / repeats)
        timings.append(best)
    worst = 0.0
    for prev, cur in zip(timings, timings[1:]):
        per_octave = (cur / prev) ** (1.0 / 3.0)
        worst = max(worst, per_octave / 2.0)

    def per_size(values):
        return ", ".join(f"{n}:{v}" for n, v in zip(sizes, values))

    times = [f"{t * 1e3:.1f}ms" for t in timings]
    detail = (
        f"per-octave growth factor over linear; times {per_size(times)}; "
        f"Chebyshev terms {per_size(terms)}; generator entries {per_size(entries)}"
    )
    return worst, 1.5, detail


# ---------------------------------------------------------------------------
# Windowed diagnostics.
# ---------------------------------------------------------------------------


@_suite("window-partition-of-unity")
def _window_partition():
    rng = np.random.default_rng(129)
    residuals = []
    for _ in range(20):
        n = int(rng.integers(8, 64))
        f = random_features(rng, n, 1)
        bins = int(rng.integers(2, 7))
        w = build_windows(f, 0, bins)
        residuals.append(float(np.abs(w.weights.sum(axis=0) - 1.0).max()))
    _, ring_feats = ring_graph(100)
    w = build_windows(ring_feats, 2, 4)
    residuals.append(float(np.abs(w.weights.sum(axis=0) - 1.0).max()))
    return np.max(residuals), 1e-10, "window weights summed over bins at every node"


@_worst_over("shift-scale-invariance", 130, 1, 1e-12,
             "per-window shifts under positive output rescaling")
def _shift_scale_invariance(rng):
    g = random_connected_graph(rng, n_min=16, n_max=24)
    f = random_features(rng, g.n_nodes, 1)
    prop = DensePropagator(schrodinger_laplacian(g, f))
    windows = build_windows(f, 0, 3)
    sig = Signal(random_unit(rng, g.n_nodes))

    def layer(stack):
        return prop.apply(0.4, stack.reshape(len(stack), -1)).reshape(stack.shape)

    def scaled(stack):
        return 3.7 * layer(stack)

    a = relative_shift(layer, sig, f, windows)
    b = relative_shift(scaled, sig, f, windows)
    gaps = [0.0]
    for ea, eb in zip(a.entries, b.entries):
        if ea.missing != eb.missing:
            gaps.append(1.0)
        elif not ea.missing:
            gaps.append(abs(ea.shift - eb.shift))
    return np.max(gaps)


@_worst_over("shift-full-window-consistency", 131, 1, 1e-12,
             "single full window vs direct mean displacement")
def _shift_full_window(rng):
    g = random_connected_graph(rng, n_min=16, n_max=24)
    f = random_features(rng, g.n_nodes, 1)
    prop = DensePropagator(schrodinger_laplacian(g, f))
    vec = random_unit(rng, g.n_nodes)
    full = WindowSet(coordinate=0, weights=np.ones((1, g.n_nodes)),
                     centers=[float(np.median(f.column(0)))])

    def layer(stack):
        return prop.apply(0.7, stack.reshape(len(stack), -1)).reshape(stack.shape)

    report = relative_shift(layer, Signal(vec), f, full)
    loc = location_observable(f, 0)
    out = prop.apply(0.7, vec)
    expected = (mean(loc, out) - mean(loc, vec)) / float(f.column(0).std())
    return abs(report.mean_shift - expected)
