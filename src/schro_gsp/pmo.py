"""Position-momentum alignment of feature coordinates.

Given raw feature columns q, find a linear recombination f = q T whose
feature set behaves like a commuting coordinate system: the squared
derivative along one output feature should commute with the location
observable of every other.  The objective is the summed squared spectral
norm of those cross commutators over ordered pairs, plus a penalty keeping
each derivative's infinity norm near one (otherwise T = 0 is a trivial
minimizer).

The optimizer is BFGS with a weak Wolfe line search (``optim.bfgs``) on
the entries of T.  Every derivative is linear in
T, so the objective is a polynomial in T on sparsity patterns fixed by the
graph and q; ``_Workspace`` builds them once per fit as index arrays, and
an iterate is plain array arithmetic on them, with no sparse product.
Each evaluation builds every cross commutator once and takes its spectral
norm once, from one exact solve (``operator_norm``: a dense eigensolve at
grid sizes, one per diagonal block, Lanczos on larger graphs); the
gradient uses the top singular pair (u, v) of that solve, with
d(sigma) = Re(u^H dM v), so it is exact and differentiates the same value
the objective sums.

``_evaluate`` also returns the largest of those norms, the commuting
deficiency: the fit keeps it from its first evaluation and from the one
that gave its best transform, and ``commuting_deficiency`` runs the same
pass at the identity transform.  ``_evaluate`` is the only code that forms
cross-commutator data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy import sparse

from .errors import (
    ContractError,
    NumericalError,
    all_finite,
    check_fields,
    exact_array,
    frozen_array,
)
from .graph_core import FeatureLocations, Graph, csr_index, edge_pattern, relabel
from .operators import SparseOperator, _abs_row_sums, operator_norm
from .optim import bfgs


@dataclass(frozen=True)
class PMOConfig:
    """Settings for the alignment fit."""

    out_features: int
    lam: float = 1.0
    # Caps the quasi-Newton iterations of each run.
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.out_features < 1:
            raise ContractError("out_features must be at least 1")
        if self.lam < 0:
            raise ContractError("penalty weight must be nonnegative")
        if self.max_iters < 1:
            raise ContractError("max_iters must be at least 1")


@dataclass(frozen=True)
class PMOResult:
    """Fitted transform with its improvement trace.

    ``objective_trace`` records (iteration, objective) of the returned run
    whenever its running best improved, with iteration 0 for its start, so
    the recorded values are non-increasing.  The deficiencies are the
    largest cross norms at the fitted transform and at the identity-padded
    start, whose objective is ``initial_objective``.  ``evaluations``
    counts the objective evaluations of every run, the restart included;
    ``stop_reason`` is why the returned run stopped (see ``optim.bfgs``).
    """

    transform: np.ndarray
    objective_trace: tuple[tuple[int, float], ...]
    final_deficiency: float
    initial_objective: float
    initial_deficiency: float
    evaluations: int
    stop_reason: str

    def __post_init__(self):
        object.__setattr__(self, "transform",
                           frozen_array(self.transform, np.float64, "PMO transform"))
        object.__setattr__(self, "objective_trace", tuple(
            (int(i), float(v)) for i, v in self.objective_trace
        ))


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
        # Unit values on the adjacency's structure: weights could cancel in
        # the two-hop product.
        adj = graph.adjacency
        pattern = sparse.csr_matrix((np.ones(adj.nnz), adj.indices, adj.indptr),
                                    shape=adj.shape)
        _, labels = connected_components(pattern @ pattern, directed=False)
        order = np.argsort(labels, kind="stable")
        graph = relabel(graph, order)

        slots, cols, self.slot_ptr = edge_pattern(graph)
        rows = np.concatenate([graph.edge_u, graph.edge_v])[slots]
        weights = np.concatenate([graph.edge_w, graph.edge_w])[slots]
        values = q.values[order]
        self.raw = np.ascontiguousarray((values[rows] - values[cols]).T * weights)

        # Path r -> l -> c: slot e1 = (r, l), then each slot e2 leaving l.
        fan = np.diff(self.slot_ptr)[cols]
        e1 = np.repeat(np.arange(rows.size), fan)
        offset = np.arange(e1.size) - np.repeat(np.cumsum(fan) - fan, fan)
        e2 = np.repeat(self.slot_ptr[cols], fan) + offset
        keep = rows[e1] != cols[e2]
        self.e1, self.e2 = e1[keep], e2[keep]
        entries, self.path_entry = np.unique(
            rows[self.e1] * n + cols[self.e2], return_inverse=True)
        self.entry_row, entry_col = np.divmod(entries, n)
        self.entry_col, self.entry_ptr = csr_index(self.entry_row, entry_col, n)
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
        if not all_finite(data):
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
    for k in range(k_out):
        sums = _abs_row_sums(g[k], ws.slot_ptr)
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
    transform = exact_array(transform, np.float64, "PMO transform")
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
    ws = _Workspace(graph, f)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _evaluate(ws, np.eye(f.n_features), 0.0)[2]
    except (FloatingPointError, OverflowError) as exc:
        raise NumericalError(f"cross commutator overflows: {exc}") from exc


def pmo_fit(graph: Graph, q: FeatureLocations, cfg: PMOConfig) -> PMOResult:
    """Fit the transform from an identity-padded start.

    Falls back to one seeded random restart when the first run improves the
    starting objective by less than one percent, and returns whichever run
    ends lower.  The result never has a higher objective than the start.

    An overflow in an evaluation, or in the loop's arithmetic on it, raises
    :class:`DivergedError` carrying the best transform of that run so far
    (``None`` at its start).  The products along two-step paths overflow
    with a floating-point error, and ``_evaluate`` raises on a path sum that
    overflowed silently, so no norm of a non-finite operator is taken; a
    finite commutator whose squared norm overflows makes ``operator_norm``
    raise :class:`NumericalError` itself.
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
    first = run = bfgs(evaluate, t0, cfg.max_iters)
    evaluations = run.evaluations
    init_obj = run.trace[0][1]

    if init_obj > 0 and (init_obj - run.value) < 0.01 * abs(init_obj):
        rng = np.random.default_rng(cfg.seed)
        t_rand = rng.normal(0.0, 1.0, size=(m_in, k_out))
        alt = bfgs(evaluate, t_rand, cfg.max_iters)
        evaluations += alt.evaluations
        if alt.value < run.value:
            run = alt

    trace = tuple((it, value) for it, value, _ in run.trace)
    return PMOResult(run.x, trace, run.info, init_obj, first.start_info,
                     evaluations, run.stop_reason)
