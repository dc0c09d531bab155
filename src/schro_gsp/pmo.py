"""Position-momentum alignment of feature coordinates.

Given raw feature columns q, find a linear recombination f = q T whose
feature set behaves like a commuting coordinate system: the squared
derivative along one output feature should commute with the location
observable of every other.  The objective is the summed squared spectral
norm of those cross commutators over ordered pairs, plus a penalty keeping
each derivative's infinity norm near one (otherwise T = 0 is a trivial
minimizer).

The optimizer is Adam on the entries of T.  Every derivative is linear in
T, so the objective is a polynomial in T on sparsity patterns fixed by the
graph and q; ``_Workspace`` builds them once per fit as index arrays, and
an iterate is plain array arithmetic on them, with no sparse product.
Each iterate builds every cross commutator once and takes its spectral
norm once, from one exact solve (``operator_norm``: a dense eigensolve at
grid sizes, one per diagonal block, Lanczos on larger graphs); the
gradient uses the top singular pair (u, v) of that solve, with
d(sigma) = Re(u^H dM v), so it is exact and differentiates the same value
the objective sums.

``commuting_deficiency``, the largest of those norms, runs the same pass:
at the identity transform for a given feature set, and at the fitted
transform for ``PMOResult.final_deficiency``.  ``_evaluate`` is the only
code that forms cross-commutator data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy import sparse

from .errors import ContractError, DivergedError, NumericalError, check_config_fields
from .graph_core import FeatureLocations, Graph
from .operators import SparseOperator, operator_norm
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
    """Index arrays that fix an iterate's sparsity; only values depend on T.

    Every output derivative is linear in T, ``G_k = sum_a T[a, k] R_a``,
    so the fit's objective is a polynomial in T on patterns fixed by the
    graph and the raw columns.  Built once per fit, in a node order where
    each connected component of the two-hop pattern is contiguous (on a
    bipartite graph, one colour class after the other), so each cross
    commutator is block diagonal and its norm solve splits by block:

    - ``raw`` ``(m, slots)``: ``R_a`` on the directed edge slots, in the
      CSR order of the adjacency (``slot_ptr``);
    - ``entry_ptr``, ``entry_col``, ``entry_row``: the off-diagonal two-hop
      pattern ``P``, as CSR with the row of each entry (a commutator with a
      location observable is zero on the diagonal);
    - ``e1``, ``e2``, ``path_entry``: every two-step path ``r -> l -> c``
      with ``r != c`` as its two edge slots and its entry in ``P``;
    - ``delta`` ``(m, |P|)``: ``q_a(c) - q_a(r)`` on ``P``.

    The products ``G_a G_b`` are not stored: their memory grows as m^2.
    """

    def __init__(self, graph: Graph, q: FeatureLocations):
        # Imported here: loading scipy.sparse.csgraph slows every CLI start.
        from scipy.sparse.csgraph import connected_components

        if q.n_nodes != graph.n_nodes:
            raise ContractError(
                f"{q.n_nodes} feature rows for a {graph.n_nodes}-node graph")
        n = self.n = graph.n_nodes
        u = np.concatenate([graph.edge_u, graph.edge_v])
        v = np.concatenate([graph.edge_v, graph.edge_u])
        pattern = sparse.csr_matrix((np.ones(u.size), (u, v)), shape=(n, n))
        _, labels = connected_components(pattern @ pattern, directed=False)
        order = np.argsort(labels, kind="stable")
        # ``position`` maps a node of the caller's order to its place here.
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)

        rows, cols = position[u], position[v]
        slots = np.lexsort((cols, rows))
        rows, cols = rows[slots], cols[slots]
        weights = np.concatenate([graph.edge_w, graph.edge_w])[slots]
        values = q.values[order]
        self.raw = np.ascontiguousarray((values[rows] - values[cols]).T * weights)
        degree = np.bincount(rows, minlength=n)
        self.slot_ptr = np.concatenate([[0], np.cumsum(degree)])

        # Path r -> l -> c: slot e1 = (r, l), then each slot e2 leaving l.
        fan = degree[cols]
        e1 = np.repeat(np.arange(rows.size), fan)
        offset = np.arange(e1.size) - np.repeat(np.cumsum(fan) - fan, fan)
        e2 = np.repeat(self.slot_ptr[cols], fan) + offset
        keep = rows[e1] != cols[e2]
        self.e1, self.e2 = e1[keep], e2[keep]
        entries, self.path_entry = np.unique(
            rows[self.e1] * n + cols[self.e2], return_inverse=True)
        self.entry_row, entry_col = np.divmod(entries, n)
        ptr = np.concatenate([[0], np.cumsum(np.bincount(self.entry_row, minlength=n))])
        # Kept in the index dtype scipy picks, so a commutator built on them
        # neither scans nor casts them.
        template = sparse.csr_matrix(
            (np.zeros(entries.size), entry_col, ptr), shape=(n, n))
        self.entry_col, self.entry_ptr = template.indices, template.indptr
        self.delta = np.ascontiguousarray(
            (values[self.entry_col] - values[self.entry_row]).T)


def _evaluate(
    ws: _Workspace, transform: np.ndarray, lam: float
) -> tuple[float, np.ndarray, float]:
    """Objective, its gradient and the largest cross norm, in one pass.

    Plain array arithmetic on the workspace's fixed patterns: ``g = T^T R``
    is each ``G_k`` on the edge slots, ``S_j`` sums ``g_j(e1) g_j(e2)`` over
    the two-step paths of each entry of ``P``, and ``D_i = T^T delta`` is
    ``x_i(c) - x_i(r)`` there, so ``[G_j^2, X_i]`` holds ``S_j D_i`` on
    ``P``: no sparse product and no sparse matvec besides ``M v``.

    Each cross commutator M gets one spectral norm; its value sigma enters
    the objective, and its singular vector v (with sigma = |M v|) gives
    d(sigma^2) = 2 Re((M v)^H dM v) = 2 sum_P W dM, with
    ``W = Re(conj((M v)[r]) v[c])``.  M and every dM are real
    skew-symmetric, so the top singular value is a pair and this is the
    same for every unit v in the pair's span; only where a third singular
    value meets the pair is it a subgradient, which is all descent needs.
    The penalty's subgradient runs along the sign pattern of the row that
    attains each derivative's infinity norm.

    ``np.bincount`` overflows to ``inf`` without a floating-point error, so
    non-finite commutator data raises :class:`FloatingPointError` here,
    before any norm of it is taken.
    """
    k_out = transform.shape[1]
    g = transform.T @ ws.raw
    d = transform.T @ ws.delta
    g1, g2 = g[:, ws.e1], g[:, ws.e2]
    squares = [np.bincount(ws.path_entry, g1[j] * g2[j], minlength=d.shape[1])
               for j in range(k_out)]
    grad = np.zeros_like(transform)

    cross = largest = 0.0
    for i, j in permutations(range(k_out), 2):
        data = squares[j] * d[i]
        if not np.all(np.isfinite(data)):
            raise FloatingPointError(
                f"commutator [G_{j}^2, X_{i}] has non-finite entries")
        comm = SparseOperator(sparse.csr_matrix(
            (data, ws.entry_col, ws.entry_ptr), shape=(ws.n, ws.n)))
        est = operator_norm(comm)
        cross += float(est) ** 2
        largest = max(largest, float(est))
        if est == 0.0:
            continue
        v = est.vector
        w = np.real(np.conj(comm.apply(v)[ws.entry_row]) * v[ws.entry_col])
        # d/dT[a,j]: dS_j sums R_a(e1) g_j(e2) + g_j(e1) R_a(e2)
        wd = (w * d[i])[ws.path_entry]
        slot_weights = (np.bincount(ws.e1, wd * g2[j], minlength=g.shape[1])
                        + np.bincount(ws.e2, wd * g1[j], minlength=g.shape[1]))
        grad[:, j] += 2.0 * (ws.raw @ slot_weights)
        # d/dT[a,i]: dD_i is delta_a
        grad[:, i] += 2.0 * (ws.delta @ (w * squares[j]))

    penalty = 0.0
    rows = np.flatnonzero(np.diff(ws.slot_ptr))
    for k in range(k_out):
        sums = np.zeros(ws.n)
        sums[rows] = np.add.reduceat(np.abs(g[k]), ws.slot_ptr[rows])
        row = int(np.argmax(sums))
        inf = float(sums[row])
        penalty += (inf - 1.0) ** 2
        lo, hi = ws.slot_ptr[row], ws.slot_ptr[row + 1]
        grad[:, k] += 2.0 * lam * (inf - 1.0) * (
            ws.raw[:, lo:hi] @ np.sign(g[k, lo:hi]))
    return cross + lam * penalty, grad, largest


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


def commuting_deficiency(graph: Graph, f: FeatureLocations) -> float:
    """Largest pairwise obstruction to treating the feature set as jointly
    diagonal: max over ordered pairs (i, j), i != j, of the spectral norm of
    ``[grad_j^2, X_i]``.  Zero when there is a single feature.

    The norms are the objective's, at the identity transform.  Features at
    a scale where a commutator or a derivative norm overflows raise
    :class:`NumericalError`.
    """
    return _largest_norm(_Workspace(graph, f), np.eye(f.n_features))


def _largest_norm(ws: _Workspace, transform: np.ndarray) -> float:
    """Largest cross norm at ``transform``, with any overflow reported as
    :class:`NumericalError` rather than warned about."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _evaluate(ws, transform, 0.0)[2]
    except (FloatingPointError, OverflowError) as exc:
        raise NumericalError(f"cross commutator overflows: {exc}") from exc


def _guarded(step, where: str, last_good):
    """``step()``, with any overflow reported as :class:`DivergedError`.

    A runaway step overflows first in the Adam moments or in the products
    along two-step paths, whose sums would then reach the norm solver
    infinite or NaN.  Every floating-point overflow or invalid operation
    raises instead, and ``_evaluate`` raises on a sum that overflowed
    silently, so the fit stops at the first one, before any norm of a
    non-finite operator is taken.  (A finite commutator whose squared norm
    overflows makes ``operator_norm`` raise :class:`NumericalError`
    itself.)
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
        return _evaluate(ws, t, cfg.lam)[:2]

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

    return PMOResult(best_t, tuple(trace), _largest_norm(ws, best_t))
