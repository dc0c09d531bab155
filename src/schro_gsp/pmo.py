"""Position-momentum alignment of feature coordinates.

Given raw feature columns q, find a linear recombination f = q T whose
feature set behaves like a commuting coordinate system: the squared
derivative along one output feature should commute with the location
observable of every other.  The objective is the summed squared spectral
norm of those cross commutators over ordered pairs, plus a penalty keeping
each derivative's infinity norm near one (otherwise T = 0 is a trivial
minimizer).

The optimizer is Adam on the entries of T.  Each iterate is evaluated in
one pass that builds every cross commutator once and takes its spectral
norm once, from one exact solve (``operator_norm``: a dense eigensolve at
grid sizes, Lanczos on larger graphs); the gradient uses the top singular
pair (u, v) of that solve, with d(sigma) = Re(u^H dM v), so it is exact and
differentiates the same value the objective sums.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DivergedError, check_config_fields
from .graph_core import FeatureLocations, Graph
from .observe import commuting_deficiency
from .operators import (
    _abs_row_sums,
    _derivative_csr,
    cross_commutators,
    operator_norm,
)
from .optim import Adam

# Stop when the best objective improves by less than this relative amount
# over a window of iterations.
_STALL_WINDOW = 20
_STALL_RTOL = 1e-8


@dataclass(frozen=True)
class PMOConfig:
    """Settings for the alignment fit."""

    out_features: int
    lam: float = 1.0
    # Larger steps reach a collapsed local basin (both outputs on one
    # direction); 0.02 tracks the descent into the separating minimum.
    learning_rate: float = 0.02
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        check_config_fields(self)
        if self.out_features < 1:
            raise ContractError("out_features must be at least 1")
        if self.lam < 0:
            raise ContractError("penalty weight must be nonnegative")
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ContractError("max_iters must be at least 1")


@dataclass(frozen=True)
class PMOResult:
    """Fitted transform with its improvement trace.

    ``objective_trace`` records (iteration, objective) whenever the running
    best improved, so the recorded values are non-increasing.
    """

    transform: np.ndarray
    objective_trace: tuple[tuple[int, float], ...]
    final_deficiency: float

    def __post_init__(self):
        t = np.asarray(self.transform, dtype=np.float64)
        t.setflags(write=False)
        object.__setattr__(self, "transform", t)
        object.__setattr__(self, "objective_trace", tuple(
            (int(i), float(v)) for i, v in self.objective_trace
        ))

    def as_dict(self) -> dict:
        return {
            "transform": [[float(x) for x in row] for row in self.transform],
            "objective_trace": [[i, v] for i, v in self.objective_trace],
            "final_deficiency": self.final_deficiency,
        }


class _Workspace:
    """Precomputed raw-column derivatives; everything else depends on T."""

    def __init__(self, graph: Graph, q: FeatureLocations):
        self.graph = graph
        self.q = q
        self.raw_grads = [
            _derivative_csr(graph, q.column(a)) for a in range(q.n_features)
        ]
        self.n = graph.n_nodes

    def features(self, transform: np.ndarray) -> FeatureLocations:
        return FeatureLocations(self.q.values @ transform)


def _evaluate(
    ws: _Workspace, transform: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Objective and its gradient at the given transform, in one pass.

    Each cross commutator M = [G_j^2, X_i] gets one spectral norm; its value
    sigma enters the objective, and its singular vector v (with
    sigma = |M v|) gives d(sigma^2) = 2 Re((M v)^H dM v).  M and every dM
    are real skew-symmetric, so the top singular value is a pair and this
    is the same for every unit v in the pair's span; only where a third
    singular value meets the pair is it a subgradient, which is all
    descent needs.  The penalty's subgradient runs along the sign pattern of the row that
    attains each derivative's infinity norm.
    """
    m_in, k_out = transform.shape
    cols = [ws.q.values @ transform[:, k] for k in range(k_out)]
    grads = [_derivative_csr(ws.graph, col) for col in cols]
    grad = np.zeros_like(transform)

    cross = 0.0
    for i, j, comm in cross_commutators(grads, cols):
        est = operator_norm(comm)
        cross += float(est) ** 2
        if est == 0.0:
            continue
        v = est.vector
        av = comm.apply(v)
        xi, gj = cols[i], grads[j]
        gj_v = gj @ v
        gj_xiv = gj @ (xi * v)
        sq_v = gj @ gj_v
        for a in range(m_in):
            ga = ws.raw_grads[a]
            qa = ws.q.column(a)
            # d/dT[a,j]: [Ga Gj + Gj Ga, X_i]
            dm_v = (
                ga @ gj_xiv + gj @ (ga @ (xi * v))
                - xi * (ga @ gj_v) - xi * (gj @ (ga @ v))
            )
            grad[a, j] += 2.0 * float(np.real(np.vdot(av, dm_v)))
            # d/dT[a,i]: [Gj^2, X_{q_a}]
            dm_v = gj @ (gj @ (qa * v)) - qa * sq_v
            grad[a, i] += 2.0 * float(np.real(np.vdot(av, dm_v)))

    penalty = 0.0
    for k, gk in enumerate(grads):
        sums = _abs_row_sums(gk)
        row = int(np.argmax(sums))
        inf = float(sums[row])
        penalty += (inf - 1.0) ** 2
        coef = 2.0 * lam * (inf - 1.0)
        signs = np.zeros(ws.n)
        lo, hi = gk.indptr[row], gk.indptr[row + 1]
        signs[gk.indices[lo:hi]] = np.sign(gk.data[lo:hi])
        for a, ga in enumerate(ws.raw_grads):
            lo, hi = ga.indptr[row], ga.indptr[row + 1]
            grad[a, k] += coef * float(signs[ga.indices[lo:hi]] @ ga.data[lo:hi])
    return cross + lam * penalty, grad


def pmo_objective(
    graph: Graph,
    q: FeatureLocations,
    transform: np.ndarray,
    lam: float,
) -> float:
    """Alignment objective at a given transform.

    At ``transform = 0`` every derivative vanishes, so the value is
    ``lam * K`` from the penalty alone.
    """
    transform = np.asarray(transform, dtype=np.float64)
    if transform.ndim != 2 or transform.shape[0] != q.n_features:
        raise ContractError(
            f"transform must be ({q.n_features}, K), got {transform.shape}")
    return _evaluate(_Workspace(graph, q), transform, lam)[0]


def _guarded(step, where: str, last_good):
    """``step()``, with any overflow reported as :class:`DivergedError`.

    A runaway step overflows first in the Adam moments or in the sparse
    squares of the derivatives, whose entries would then reach the norm
    solver infinite or NaN.  Every floating-point overflow or invalid
    operation raises instead, so the fit stops at the first one, before any
    norm of a non-finite operator is taken.  (A finite commutator whose
    squared norm overflows makes ``operator_norm`` raise
    :class:`NumericalError` itself.)
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return step()
    except (FloatingPointError, OverflowError) as exc:
        raise DivergedError(f"overflow {where}: {exc}", last_good=last_good) from exc


def _adam_run(evaluate, t0: np.ndarray, cfg: PMOConfig):
    adam = Adam(cfg.learning_rate)

    def advance(t, g):
        t = adam.step(t, g)
        return (t, *evaluate(t))

    t = t0.copy()
    obj, g = _guarded(lambda: evaluate(t), "at the starting transform", None)
    if not np.isfinite(obj):
        raise DivergedError("objective not finite at the starting transform",
                            last_good=None)
    best_t, best_obj = t.copy(), obj
    trace = [(0, obj)]
    best_history = [obj]
    for it in range(1, cfg.max_iters + 1):
        if not np.all(np.isfinite(g)):
            raise DivergedError(
                f"gradient not finite at iteration {it}", last_good=best_t)
        t, obj, g = _guarded(lambda: advance(t, g), f"at iteration {it}", best_t)
        if not np.isfinite(obj):
            raise DivergedError(
                f"objective not finite at iteration {it}", last_good=best_t)
        if obj < best_obj:
            best_obj = obj
            best_t = t.copy()
            trace.append((it, obj))
        best_history.append(best_obj)
        if it >= _STALL_WINDOW:
            ref = best_history[-1 - _STALL_WINDOW]
            if ref - best_obj < _STALL_RTOL * max(abs(ref), 1e-300):
                break
    return best_t, best_obj, trace


def pmo_fit(graph: Graph, q: FeatureLocations, cfg: PMOConfig) -> PMOResult:
    """Fit the transform from an identity-padded start.

    Falls back to one seeded random restart when the first run improves the
    starting objective by less than one percent, and returns whichever run
    ends lower.  The result never has a higher objective than the start.
    """
    m_in = q.n_features
    k_out = cfg.out_features
    if m_in < k_out:
        raise ContractError(
            f"need at least {k_out} raw columns, got {m_in}")
    if not graph.is_connected():
        warnings.warn("alignment fit on a disconnected graph", stacklevel=2)
    ws = _Workspace(graph, q)

    def evaluate(t):
        return _evaluate(ws, t, cfg.lam)

    t0 = np.zeros((m_in, k_out))
    t0[:k_out, :k_out] = np.eye(k_out)
    best_t, best_obj, trace = _adam_run(evaluate, t0, cfg)
    init_obj = trace[0][1]

    if init_obj > 0 and (init_obj - best_obj) < 0.01 * abs(init_obj):
        rng = np.random.default_rng(cfg.seed)
        t_rand = rng.normal(0.0, 1.0, size=(m_in, k_out))
        alt_t, alt_obj, alt_trace = _adam_run(evaluate, t_rand, cfg)
        if alt_obj < best_obj:
            best_t, best_obj, trace = alt_t, alt_obj, alt_trace

    deficiency = commuting_deficiency(graph, ws.features(best_t))
    return PMOResult(best_t, tuple(trace), float(deficiency))
