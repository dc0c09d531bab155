"""Self-checking suites for the numerical identities the library promises.

Every suite draws a deterministic instance family, measures the worst-case
residual of one contract, and reports it against a frozen bound.  The
registry drives the ``verify`` command; a green run is the library's primary
evidence that the operators, the propagation, and the closed-form dynamics
agree with their independent oracles.

Residual conventions: identity suites report a worst absolute deviation and
the bound is in the same units; finite-difference suites report the worst
deviation scaled by its per-instance allowance, so their bound is 1.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

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
    dynamics_rhs_single,
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
from .propagate import DensePropagator, evolve, evolve_array, unitarity_defect

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


def random_connected_graph(
    rng: np.random.Generator,
    n_min: int = 4,
    n_max: int = 32,
    w_lo: float = 0.1,
    w_hi: float = 2.0,
) -> Graph:
    """Random spanning tree plus extra edges; connected by construction."""
    n = int(rng.integers(n_min, n_max + 1))
    edges: dict[tuple[int, int], float] = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(w_lo, w_hi))
    for _ in range(int(rng.integers(0, n))):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        if u > v:
            u, v = v, u
        edges.setdefault((u, v), float(rng.uniform(w_lo, w_hi)))
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

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "bound": self.bound,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


_REGISTRY: dict = {}


def _suite(name: str):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn

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


def run_suite(name: str) -> SuiteResult:
    if name not in _REGISTRY:
        raise ContractError(
            f"no suite named {name!r}; available: {', '.join(_REGISTRY)}"
        )
    start = time.perf_counter()
    worst, bound, detail = _REGISTRY[name]()
    elapsed = time.perf_counter() - start
    return SuiteResult(
        name, bool(worst <= bound), float(worst), float(bound), elapsed, detail
    )


def run_suites(pattern: str | None = None) -> list[SuiteResult]:
    return [run_suite(name) for name in select_suites(pattern)]


# ---------------------------------------------------------------------------
# Graph core.
# ---------------------------------------------------------------------------


@_suite("graph-roundtrip")
def _graph_roundtrip():
    rng = np.random.default_rng(101)
    worst = 0.0
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
            worst = max(worst, 0.0 if same else 1.0)
    return worst, 0.0, "save/load compared bit-exactly on 11 graphs"


@_suite("normalize-idempotent")
def _normalize_idempotent():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(3, 40))
        sig = Signal(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        once = normalize_channel(sig, 0)
        twice = normalize_channel(once, 0)
        worst = max(worst, float(np.abs(twice.values - once.values).max()))
    return worst, 1e-12, "double normalization vs single, 25 random signals"


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


@_suite("derivative-skew-symmetry")
def _derivative_skew():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, int(rng.integers(1, 4)))
        m = feature_derivative(g, f, 0).tosparse()
        worst = max(worst, float(np.abs((m + m.T).toarray()).max()))
    return worst, 0.0, "derivative plus its transpose, entrywise, 50 instances"


@_suite("laplacian-self-adjoint")
def _laplacian_self_adjoint():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, int(rng.integers(1, 4)))
        m = schrodinger_laplacian(g, f).tosparse()
        worst = max(worst, float(np.abs((m - m.conjugate().T).toarray()).max()))
    return worst, 1e-12, "generator minus its adjoint, entrywise, 50 instances"


@_suite("smoothing-equals-commutator")
def _smoothing_commutator():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, n_max=32)
        f = random_features(rng, g.n_nodes, 1)
        w = smoothing_operator(g, f, 0).tosparse()
        comm = commutator(location_observable(f, 0), feature_derivative(g, f, 0))
        worst = max(worst, float(np.abs((w - comm.tosparse()).toarray()).max()))
    return worst, 1e-12, "smoothing vs location/derivative commutator, 50 instances"


@_suite("generator-location-commutator")
def _generator_location_commutator():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, n_max=32)
        f = random_features(rng, g.n_nodes, 1)
        lap = schrodinger_laplacian(g, f)
        loc = location_observable(f, 0)
        grad = feature_derivative(g, f, 0).tosparse()
        w = smoothing_operator(g, f, 0).tosparse()
        lhs = commutator(lap, loc).tosparse().toarray()
        rhs = (grad @ w + w @ grad).toarray()
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, 1e-10, "[generator, location] vs anticommutator form, 50 instances"


@_suite("operator-norm-bracket")
def _operator_norm_bracket():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(25):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, 2)
        for op in (feature_derivative(g, f, 0), schrodinger_laplacian(g, f)):
            dense = op.tosparse().toarray()
            est = float(operator_norm(op))
            fro = float(np.linalg.norm(dense))
            upper = float(np.sqrt(op.dim)) * infinity_norm(op)
            lower = fro / float(np.sqrt(op.dim))
            scale = max(1.0, est)
            worst = max(worst, (lower - est) / scale, (est - upper) / scale)
    return worst, 1e-8, "norm estimate inside [Frobenius/sqrt(N), sqrt(N)*row-sum]"


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


@_suite("unitarity-dense")
def _unitarity_dense():
    worst = 0.0
    for g, f, t, vec in _propagation_family():
        lap = schrodinger_laplacian(g, f)
        start = Signal(vec)
        before = start.norm()
        after = Signal(DensePropagator(lap).apply(t, start.values)).norm()
        worst = max(worst, abs(after - before) / before)
    return worst, 1e-10, "norm drift, factorized propagation, 100 instances"


@_suite("unitarity-taylor")
def _unitarity_taylor():
    worst = 0.0
    for g, f, t, vec in _propagation_family():
        lap = schrodinger_laplacian(g, f)
        worst = max(worst, unitarity_defect(lap, t, Signal(vec)))
    return worst, 1e-6, "norm drift, Chebyshev propagation, 100 instances"


@_suite("taylor-dense-agreement")
def _taylor_dense_agreement():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        lap = schrodinger_laplacian(g, f)
        approx = evolve(lap, t, Signal(vec)).values
        exact = DensePropagator(lap).apply(t, vec)[:, None]
        worst = max(worst, float(np.abs(approx - exact).max()))
    return worst, 1e-6, "per-entry gap between Chebyshev and factorized paths"


@_suite("momentum-conservation")
def _momentum_conservation():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, n_max=48)
        f = random_features(rng, g.n_nodes, 1)
        vec = random_unit(rng, g.n_nodes)
        mom = momentum_observable(g, f, 0)
        prop = DensePropagator(schrodinger_laplacian(g, f))
        base = mean(mom, vec)
        for t in (0.1, 0.5, 1.0, 2.0):
            worst = max(worst, abs(mean(mom, prop.apply(t, vec)) - base))
    return worst, 1e-8, "momentum mean drift over four horizons, 50 instances"


@_suite("derivative-evolution-commute")
def _derivative_evolution_commute():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng, n_max=48)
        f = random_features(rng, g.n_nodes, 1)
        vec = random_unit(rng, g.n_nodes)
        grad = feature_derivative(g, f, 0)
        prop = DensePropagator(schrodinger_laplacian(g, f))
        t = float(rng.uniform(-2.0, 2.0))
        gap = grad.apply(prop.apply(t, vec)) - prop.apply(t, grad.apply(vec))
        worst = max(worst, float(np.linalg.norm(gap)))
    return worst, 1e-9, "derivative applied before vs after propagation"


@_suite("evolution-inversion-taylor")
def _evolution_inversion_taylor():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        lap = schrodinger_laplacian(g, f)
        back = evolve(lap, -t, evolve(lap, t, Signal(vec))).values[:, 0]
        worst = max(worst, float(np.abs(back - vec).max()))
    return worst, 1e-6, "forward/backward Chebyshev propagation round trip"


@_suite("evolution-inversion-dense")
def _evolution_inversion_dense():
    worst = 0.0
    for g, f, t, vec in _propagation_family(50):
        prop = DensePropagator(schrodinger_laplacian(g, f))
        back = prop.apply(-t, prop.apply(t, vec))
        worst = max(worst, float(np.abs(back - vec).max()))
    return worst, 1e-9, "forward/backward factorized propagation round trip"


# ---------------------------------------------------------------------------
# Observables and dynamics.
# ---------------------------------------------------------------------------


@_suite("routing-decomposition")
def _routing_decomposition():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(50):
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
        worst = max(worst, abs(report.measure - recombined))
    return worst, 1e-10, "direct quadratic form vs mean/variance split"


@_suite("modulated-momentum")
def _modulated_momentum():
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, 1)
        h = rng.uniform(-2.0, 2.0, size=g.n_nodes)
        theta = float(rng.uniform(-5.0, 5.0))
        vec = random_unit(rng, g.n_nodes, real=True)
        mom = momentum_observable(g, f, 0)
        direct = mean(mom, modulation(h, theta).apply(vec))
        closed = momentum_mean_modulated_closed_form(
            g, f.column(0), h, theta, vec
        )
        worst = max(worst, abs(direct - closed))
    return worst, 1e-10, "edge-sum closed form vs direct expectation, 100 instances"


@_suite("real-signal-momentum")
def _real_signal_momentum():
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, 1)
        vec = random_unit(rng, g.n_nodes, real=True)
        worst = max(worst, abs(mean(momentum_observable(g, f, 0), vec)))
    return worst, 1e-12, "momentum mean of real states, 100 instances"


def _fd_allowance(reference: float) -> float:
    return max(1e-8, 1e-4 * abs(reference))


@_suite("location-dynamics-vs-fd")
def _location_dynamics_fd():
    rng = np.random.default_rng(114)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, 1)
        vec = random_unit(rng, g.n_nodes)
        loc = location_observable(f, 0)
        prop = DensePropagator(schrodinger_laplacian(g, f))
        fd = (mean(loc, prop.apply(step, vec)) - mean(loc, prop.apply(-step, vec))) / (
            2.0 * step
        )
        closed = dynamics_rhs_single(g, f.column(0), vec)
        worst = max(worst, abs(closed - fd) / _fd_allowance(closed))
    return worst, 1.0, "location-mean rate vs centered difference (scaled residual)"


@_suite("multi-feature-dynamics-vs-fd")
def _multi_feature_dynamics_fd():
    rng = np.random.default_rng(115)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, int(rng.integers(2, 4)))
        k = int(rng.integers(0, f.n_features))
        vec = random_unit(rng, g.n_nodes)
        loc = location_observable(f, k)
        prop = DensePropagator(schrodinger_laplacian(g, f))
        fd = (mean(loc, prop.apply(step, vec)) - mean(loc, prop.apply(-step, vec))) / (
            2.0 * step
        )
        closed = dynamics_rhs_multi(g, f, k, vec)
        worst = max(worst, abs(closed - fd) / _fd_allowance(closed))
    return worst, 1.0, "joint-evolution location rate vs centered difference"


@_suite("variance-dynamics-vs-fd")
def _variance_dynamics_fd():
    rng = np.random.default_rng(116)
    step = 1e-5
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, 1)
        vec = random_unit(rng, g.n_nodes)
        loc = location_observable(f, 0)
        prop = DensePropagator(schrodinger_laplacian(g, f))
        fd = (
            variance(loc, prop.apply(step, vec))
            - variance(loc, prop.apply(-step, vec))
        ) / (2.0 * step)
        closed = variance_rhs(g, f.column(0), vec)
        worst = max(worst, abs(closed - fd) / _fd_allowance(closed))
    return worst, 1.0, "location-variance rate vs centered difference"


def _dense_operator_norm(op) -> float:
    return float(np.linalg.norm(op.tosparse().toarray(), ord=2))


@_suite("regularity-transport-bound")
def _regularity_bound():
    rng = np.random.default_rng(117)
    worst = -np.inf
    for _ in range(50):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, 1)
        vec = random_unit(rng, g.n_nodes)
        grad = feature_derivative(g, f, 0)
        eps = epsilon_regularity(g, f.column(0), vec)
        lhs = abs(
            dynamics_rhs_single(g, f.column(0), vec)
            - 2.0 * mean(momentum_observable(g, f, 0), vec)
        )
        rhs = 2.0 * eps * _dense_operator_norm(grad)
        worst = max(worst, lhs - rhs)
    return worst, 1e-9, "transport-rate deviation minus its regularity bound"


@_suite("multi-regularity-transport-bound")
def _multi_regularity_bound():
    rng = np.random.default_rng(118)
    worst = -np.inf
    for _ in range(50):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, int(rng.integers(2, 4)))
        k = int(rng.integers(0, f.n_features))
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
                delta = max(
                    delta, float(np.linalg.norm(sq @ x_i - x_i @ sq, ord=2))
                )
        lhs = abs(
            dynamics_rhs_multi(g, f, k, vec)
            - 2.0 * mean(momentum_observable(g, f, k), vec)
        )
        rhs = 2.0 * eps * _dense_operator_norm(grad) + (f.n_features - 1) * delta
        worst = max(worst, lhs - rhs)
    return worst, 1e-9, "joint transport-rate deviation minus its combined bound"


@_suite("mixed-derivative-vs-fd")
def _mixed_derivative_fd():
    rng = np.random.default_rng(119)
    step = 1e-3
    worst = 0.0
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
            state = prop.apply(t, modulation(h, theta).apply(vec))
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
        worst = max(worst, abs(closed - fd) / (1e-3 * abs(closed)))
        done += 1
    rng2 = np.random.default_rng(120)
    g = random_connected_graph(rng2)
    f = random_features(rng2, g.n_nodes, 1)
    vec = random_unit(rng2, g.n_nodes, real=True)
    flat = mixed_derivative_rhs(
        g, f.column(0), np.full(g.n_nodes, 0.7), vec, 0.5
    )
    if flat != 0.0:
        worst = max(worst, np.inf)
    return worst, 1.0, "mixed rate vs nested differences; constant direction is 0"


@_suite("sensitivity-probe-linear")
def _sensitivity_probe_linear():
    rng = np.random.default_rng(121)
    worst = 0.0
    for _ in range(25):
        g = random_connected_graph(rng)
        f = random_features(rng, g.n_nodes, int(rng.integers(1, 3)))
        h = rng.uniform(-1.0, 1.0, size=g.n_nodes)
        theta = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(-1.0, 1.0))
        scale = complex(rng.normal(), rng.normal())
        lap = schrodinger_laplacian(g, f)
        mod = modulation(h, theta)

        def layer(x, lap=lap, mod=mod, t=t, scale=scale):
            return scale * evolve_array(lap, t, mod.apply(np.asarray(x)))

        vec = random_unit(rng, g.n_nodes)
        worst = max(worst, abs(sensitivity_probe(layer, vec) - 1.0))
    return worst, 1e-10, "probe response of modulate-evolve-mix maps, 25 instances"


# ---------------------------------------------------------------------------
# Feature-map optimization.
# ---------------------------------------------------------------------------


@_suite("pmo-permutation-symmetry")
def _pmo_permutation():
    rng = np.random.default_rng(122)
    worst = 0.0
    for _ in range(5):
        g = random_connected_graph(rng, n_max=12)
        q = random_features(rng, g.n_nodes, 3)
        t = rng.normal(size=(3, 2))
        a = pmo_objective(g, q, t, 1.0)
        b = pmo_objective(g, q, t[:, ::-1], 1.0)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst, 1e-9, "objective under output-column permutation, 5 instances"


@_suite("pmo-monotone-fit")
def _pmo_monotone():
    rng = np.random.default_rng(123)
    g = random_connected_graph(rng, n_min=8, n_max=12)
    q = random_features(rng, g.n_nodes, 2)
    cfg = PMOConfig(out_features=2, max_iters=40, seed=3)
    init_objective = pmo_objective(g, q, np.eye(2), cfg.lam)
    result = pmo_fit(g, q, cfg)
    final = pmo_objective(g, q, result.transform, cfg.lam)
    trace_jump = 0.0
    values = [value for _, value in result.objective_trace]
    for prev, cur in zip(values, values[1:]):
        trace_jump = max(trace_jump, cur - prev)
    worst = max(final - init_objective, trace_jump)
    return worst, 1e-12, "fit objective vs init, and trace monotonicity"


@_suite("pmo-gradient-step-consistency")
def _pmo_gradient_consistency():
    rng = np.random.default_rng(124)
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
    worst = float(np.linalg.norm(g1 - g2) / max(np.linalg.norm(g2), 1e-12))
    return worst, 1e-3, "finite-difference gradient at full vs half step"


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


@_suite("filter-linearity")
def _filter_linearity():
    rng = np.random.default_rng(125)
    worst = 0.0
    for _ in range(10):
        g = random_connected_graph(rng, n_max=24)
        f = random_features(rng, g.n_nodes, 2)
        params = _random_filter_params(rng, 2, 2, 2)
        x1 = Signal(rng.normal(size=(g.n_nodes, 2)) + 1j * rng.normal(size=(g.n_nodes, 2)))
        x2 = Signal(rng.normal(size=(g.n_nodes, 2)) + 1j * rng.normal(size=(g.n_nodes, 2)))
        a, b = 0.8 - 0.3j, -0.2 + 1.1j
        lap = schrodinger_laplacian(g, f)
        joint = schrodinger_filter(
            lap, f, params, Signal(a * x1.values + b * x2.values))
        split = (
            a * schrodinger_filter(lap, f, params, x1).values
            + b * schrodinger_filter(lap, f, params, x2).values
        )
        worst = max(worst, float(np.abs(joint.values - split).max()))
    return worst, 1e-9, "filter on a combination vs combined filter outputs"


@_suite("filter-unitary-norm")
def _filter_unitary_norm():
    rng = np.random.default_rng(126)
    worst = 0.0
    for _ in range(10):
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
        x = Signal(rng.normal(size=(g.n_nodes, 2)) + 1j * rng.normal(size=(g.n_nodes, 2)))
        out = schrodinger_filter(schrodinger_laplacian(g, f), f, params, x)
        worst = max(worst, abs(out.norm() - x.norm()) / x.norm())
    return worst, 1e-6, "norm drift of a single-term filter with unitary mixing"


@_suite("activation-idempotent")
def _activation_idempotent():
    rng = np.random.default_rng(127)
    worst = 0.0
    for _ in range(20):
        x = Signal(rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3)))
        for kind in ("split-relu", "modulus", "none"):
            once = activation(x, kind)
            twice = activation(once, kind)
            worst = max(worst, float(np.abs(twice.values - once.values).max()))
    return worst, 0.0, "activation applied twice vs once, every kind"


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
    timings = []
    for n in sizes:
        graph, feats = ring_graph(n)
        two = FeatureLocations(feats.values[:, :2])
        x = Signal(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))
        # Each timed call builds its generator, so it times the whole filter.
        schrodinger_filter(
            schrodinger_laplacian(graph, two), two, params, x)  # warm-up
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
    detail = "per-octave growth factor over linear; times " + ", ".join(
        f"{n}:{t * 1e3:.1f}ms" for n, t in zip(sizes, timings)
    )
    return worst, 1.5, detail


# ---------------------------------------------------------------------------
# Windowed diagnostics.
# ---------------------------------------------------------------------------


@_suite("window-partition-of-unity")
def _window_partition():
    rng = np.random.default_rng(129)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(8, 64))
        f = random_features(rng, n, 1)
        bins = int(rng.integers(2, 7))
        w = build_windows(f, 0, bins)
        worst = max(worst, float(np.abs(w.weights.sum(axis=0) - 1.0).max()))
    _, ring_feats = ring_graph(100)
    w = build_windows(ring_feats, 2, 4)
    worst = max(worst, float(np.abs(w.weights.sum(axis=0) - 1.0).max()))
    return worst, 1e-10, "window weights summed over bins at every node"


@_suite("shift-scale-invariance")
def _shift_scale_invariance():
    rng = np.random.default_rng(130)
    g = random_connected_graph(rng, n_min=16, n_max=24)
    f = random_features(rng, g.n_nodes, 1)
    lap = schrodinger_laplacian(g, f)
    prop = DensePropagator(lap)
    windows = build_windows(f, 0, 3)
    sig = Signal(random_unit(rng, g.n_nodes))

    def layer(stack):
        return prop.apply(0.4, stack.reshape(len(stack), -1)).reshape(stack.shape)

    def scaled(stack):
        return 3.7 * layer(stack)

    a = relative_shift(layer, sig, f, windows)
    b = relative_shift(scaled, sig, f, windows)
    worst = 0.0
    for ea, eb in zip(a.entries, b.entries):
        if ea.missing != eb.missing:
            worst = max(worst, 1.0)
        elif not ea.missing:
            worst = max(worst, abs(ea.shift - eb.shift))
    return worst, 1e-12, "per-window shifts under positive output rescaling"


@_suite("shift-full-window-consistency")
def _shift_full_window():
    rng = np.random.default_rng(131)
    g = random_connected_graph(rng, n_min=16, n_max=24)
    f = random_features(rng, g.n_nodes, 1)
    prop = DensePropagator(schrodinger_laplacian(g, f))
    vec = random_unit(rng, g.n_nodes)
    full = WindowSet(
        coordinates=(0,),
        weights=np.ones((1, g.n_nodes)),
        window_ids=((0,),),
        centers=(np.array([float(np.median(f.column(0)))]),),
    )

    def layer(stack):
        return prop.apply(0.7, stack.reshape(len(stack), -1)).reshape(stack.shape)

    report = relative_shift(layer, Signal(vec), f, full)
    loc = location_observable(f, 0)
    out = prop.apply(0.7, vec)
    expected = (mean(loc, out) - mean(loc, vec)) / float(f.column(0).std())
    worst = abs(report.mean_shift - expected)
    return worst, 1e-12, "single full window vs direct mean displacement"
