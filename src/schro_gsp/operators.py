"""Linear operators on node signals.

The central object is the feature derivative: for a feature column f, the
operator with entries ``a(n, m) * (f(n) - f(m))`` on edges.  It is real and
skew-symmetric, so ``i`` times it is a self-adjoint momentum observable, and
the negated sum of its squares over feature columns is a self-adjoint
second-order generator that drives unitary propagation.

Operators come in three storage kinds:

* ``sparse-general`` -- CSR coefficients (derivatives, commutators, momenta);
* ``diagonal-real`` -- real diagonals (location observables);
* ``diagonal-unit-modulus`` -- unit-modulus complex diagonals (modulations).

The second-order generator keeps the per-feature derivative factors and
applies them in sequence rather than storing its own matrix; a sparse or
dense materialization exists as an escape hatch for small verification
problems.

There is one spectral norm, ``operator_norm``: a single Lanczos solve that
is exact to machine precision and raises when it does not converge.
``infinity_norm`` is the cheap row-sum upper bound.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ContractError, NumericalError, SizeError
from .graph_core import FeatureLocations, Graph

# Dense materialization is reserved for oracle-sized problems.
MATERIALIZE_MAX_DIM = 256

# Relative asymmetry ``max |A - A*| / max |A|`` (or the largest imaginary
# part of a real-observable diagonal) that still counts as self-adjoint.
SELF_ADJOINT_TOL = 1e-12


class LinearNodeOperator:
    """Linear map on node signals; concrete classes fix storage and apply."""

    kind: str

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply to a vector (N,) or channel stack (N, J)."""
        raise NotImplementedError

    def adjoint(self) -> "LinearNodeOperator":
        raise NotImplementedError

    def tosparse(self) -> sparse.csr_matrix:
        raise NotImplementedError

    def materialize(self) -> np.ndarray:
        """Dense coefficient matrix, for at most ``MATERIALIZE_MAX_DIM`` nodes."""
        if self.dim > MATERIALIZE_MAX_DIM:
            raise SizeError(
                f"refusing to densify a {self.dim}-node operator "
                f"(cap {MATERIALIZE_MAX_DIM})"
            )
        return self.tosparse().toarray()

    def is_self_adjoint(self) -> bool:
        """Whether ``max |A - A*| <= SELF_ADJOINT_TOL max |A|``, a scale-free test."""
        mat = self.tosparse()
        diff = mat - mat.conjugate().T
        if diff.nnz == 0:
            return True
        scale = float(np.abs(mat.data).max())
        return float(np.abs(diff.data).max()) <= SELF_ADJOINT_TOL * scale

    def _check_operand(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values)
        if arr.ndim not in (1, 2) or arr.shape[0] != self.dim:
            raise ContractError(
                f"operand shape {arr.shape} does not match operator dim {self.dim}"
            )
        return arr


class SparseOperator(LinearNodeOperator):
    """General operator backed by a square CSR matrix."""

    kind = "sparse-general"

    def __init__(self, mat):
        mat = sparse.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ContractError("operator matrix must be square")
        self._mat = mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self._mat @ self._check_operand(values)

    def adjoint(self) -> "SparseOperator":
        return SparseOperator(self._mat.conjugate().T.tocsr())

    def tosparse(self) -> sparse.csr_matrix:
        return self._mat


class DiagonalOperator(LinearNodeOperator):
    """Diagonal operator; real (observable) or unit-modulus (modulation)."""

    def __init__(self, diag, unit_modulus: bool = False):
        diag = np.asarray(diag)
        if diag.ndim != 1 or diag.size == 0:
            raise ContractError("diagonal must be a non-empty 1-D array")
        if unit_modulus:
            diag = diag.astype(np.complex128)
            if np.abs(np.abs(diag) - 1.0).max() > 1e-12:
                raise ContractError("unit-modulus diagonal has off-circle entries")
            self.kind = "diagonal-unit-modulus"
        else:
            if np.iscomplexobj(diag):
                raise ContractError("real diagonal required")
            diag = diag.astype(np.float64)
            self.kind = "diagonal-real"
        if not np.all(np.isfinite(diag.real)) or not np.all(np.isfinite(diag.imag)):
            raise ContractError("diagonal entries must be finite")
        diag.setflags(write=False)
        self._diag = diag

    @property
    def dim(self) -> int:
        return self._diag.size

    @property
    def diagonal(self) -> np.ndarray:
        return self._diag

    def apply(self, values: np.ndarray) -> np.ndarray:
        arr = self._check_operand(values)
        d = self._diag if arr.ndim == 1 else self._diag[:, None]
        return d * arr

    def adjoint(self) -> "DiagonalOperator":
        if self.kind == "diagonal-real":
            return self
        return DiagonalOperator(np.conjugate(self._diag), unit_modulus=True)

    def tosparse(self) -> sparse.csr_matrix:
        return sparse.diags(self._diag, format="csr")

    def is_self_adjoint(self) -> bool:
        if not np.iscomplexobj(self._diag):
            return True
        return bool(np.abs(self._diag.imag).max() <= SELF_ADJOINT_TOL)


class SecondOrderGenerator(LinearNodeOperator):
    """Negated sum of squared feature derivatives, applied factor by factor.

    Holds one sparse derivative per feature column and evaluates
    ``-sum_k grad_k(grad_k(x))`` as 2K sparse passes, so the composed matrix
    is never formed during propagation.  ``tosparse`` composes it on demand
    (still sparse; the pattern is two-hop) for norms and small oracles.
    """

    kind = "sparse-general"

    def __init__(self, derivative_mats: list[sparse.csr_matrix]):
        if not derivative_mats:
            raise ContractError("at least one feature derivative required")
        dim = derivative_mats[0].shape[0]
        for mat in derivative_mats:
            if mat.shape != (dim, dim):
                raise ContractError("feature derivatives disagree on size")
        self._grads = derivative_mats
        self._dim = dim
        self._sparse: sparse.csr_matrix | None = None
        self._norm_bound: float | None = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_features(self) -> int:
        return len(self._grads)

    def derivative_matrix(self, k: int) -> sparse.csr_matrix:
        return self._grads[k]

    def apply(self, values: np.ndarray) -> np.ndarray:
        arr = self._check_operand(values)
        acc = None
        for grad in self._grads:
            term = grad @ (grad @ arr)
            acc = term if acc is None else acc + term
        return -acc

    def adjoint(self) -> "SecondOrderGenerator":
        # Each factor is real skew-symmetric, so each square is symmetric.
        return self

    def tosparse(self) -> sparse.csr_matrix:
        if self._sparse is None:
            acc = None
            for grad in self._grads:
                term = (grad @ grad).tocsr()
                acc = term if acc is None else acc + term
            self._sparse = (-acc).tocsr()
        return self._sparse

    def is_self_adjoint(self) -> bool:
        return True

    @property
    def norm_bound(self) -> float:
        """Cached infinity norm; upper-bounds the spectral norm."""
        if self._norm_bound is None:
            self._norm_bound = infinity_norm(self)
        return self._norm_bound


# ---------------------------------------------------------------------------
# Constructors.
# ---------------------------------------------------------------------------


def _derivative_csr(graph: Graph, col: np.ndarray) -> sparse.csr_matrix:
    u, v, w = graph.edge_u, graph.edge_v, graph.edge_w
    duv = w * (col[u] - col[v])
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    vals = np.concatenate([duv, -duv])
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(graph.n_nodes,) * 2)
    mat.eliminate_zeros()
    return mat


def _check_feature_args(graph: Graph, f: FeatureLocations, k: int) -> np.ndarray:
    if f.n_nodes != graph.n_nodes:
        raise ContractError("feature locations do not match the graph size")
    if not 0 <= k < f.n_features:
        raise ContractError(f"feature index {k} out of range")
    return f.column(k)


def feature_derivative(graph: Graph, f: FeatureLocations, k: int) -> SparseOperator:
    """First-order derivative along feature ``k``: entries a(n,m)(f(n)-f(m)).

    Real and skew-symmetric; its sparsity pattern is contained in the
    adjacency pattern.
    """
    col = _check_feature_args(graph, f, k)
    return SparseOperator(_derivative_csr(graph, col))


def momentum_observable(graph: Graph, f: FeatureLocations, k: int) -> SparseOperator:
    """Self-adjoint momentum observable: i times the feature derivative."""
    col = _check_feature_args(graph, f, k)
    return SparseOperator(_derivative_csr(graph, col).astype(np.complex128) * 1j)


def schrodinger_laplacian(graph: Graph, f: FeatureLocations) -> SecondOrderGenerator:
    """Self-adjoint generator: minus the sum of squared feature derivatives."""
    if f.n_nodes != graph.n_nodes:
        raise ContractError("feature locations do not match the graph size")
    grads = [_derivative_csr(graph, f.column(k)) for k in range(f.n_features)]
    return SecondOrderGenerator(grads)


def location_observable(f: FeatureLocations, k: int) -> DiagonalOperator:
    """Diagonal observable holding feature column ``k``."""
    if not 0 <= k < f.n_features:
        raise ContractError(f"feature index {k} out of range")
    return DiagonalOperator(f.column(k))


def smoothing_operator(graph: Graph, f: FeatureLocations, k: int) -> SparseOperator:
    """Neighborhood averaging with squared feature differences as weights.

    Entries ``a(v, w) * (f(w) - f(v))**2`` on edges; real symmetric.  Equals
    the commutator of the location observable with the feature derivative.
    """
    col = _check_feature_args(graph, f, k)
    u, v, w = graph.edge_u, graph.edge_v, graph.edge_w
    s = w * (col[u] - col[v]) ** 2
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    vals = np.concatenate([s, s])
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(graph.n_nodes,) * 2)
    mat.eliminate_zeros()
    return SparseOperator(mat)


def modulation(h: np.ndarray, theta: float) -> DiagonalOperator:
    """Unitary phase modulation diag(exp(i * theta * h)) for a real column."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1:
        raise ContractError("modulation direction must be a 1-D real column")
    return DiagonalOperator(np.exp(1j * theta * h), unit_modulus=True)


def commutator(a: LinearNodeOperator, b: LinearNodeOperator) -> SparseOperator:
    """Materialized commutator a b - b a (sparse; pattern may be two-hop)."""
    if a.dim != b.dim:
        raise ContractError("commutator operands disagree on size")
    am, bm = a.tosparse(), b.tosparse()
    return SparseOperator((am @ bm - bm @ am).tocsr())


def cross_commutators(grads, cols):
    """Yield ``(i, j, [G_j^2, X_i])`` over ordered pairs ``i != j``.

    ``grads`` holds the derivative matrices ``G_k`` and ``cols`` the feature
    columns ``x_k`` they were built from; ``X_i = diag(x_i)``.
    """
    squares = [SparseOperator((g @ g).tocsr()) for g in grads]
    for i, col in enumerate(cols):
        loc = SparseOperator(sparse.diags(col, format="csr"))
        for j, square in enumerate(squares):
            if i != j:
                yield i, j, commutator(square, loc)


# ---------------------------------------------------------------------------
# Norms.
# ---------------------------------------------------------------------------


class NormEstimate(float):
    """Spectral norm carrying the right singular vector it was measured on.

    ``vector`` is a unit right singular vector with ``|op v|`` equal to the
    value, so ``op v / value`` is the left one.  ``converged`` is always
    true, because a failed solve raises instead, and ``iterations`` is 1, for
    the one solve; both stay for callers that count them.
    """

    converged = True
    iterations = 1
    vector: np.ndarray

    def __new__(cls, value: float, vector: np.ndarray):
        obj = super().__new__(cls, value)
        obj.vector = vector
        return obj


def operator_norm(op: LinearNodeOperator) -> NormEstimate:
    """Largest singular value and its right singular vector.

    One Lanczos solve (ARPACK through ``scipy.sparse.linalg.svds``) to
    machine precision from a fixed seeded start, so repeated calls agree
    bit for bit.  A zero or 1x1 operator, which ARPACK cannot take, gets the
    answer directly.  A solve that does not converge raises
    :class:`NumericalError`.
    """
    # Imported here: loading scipy.sparse.linalg slows every CLI start.
    from scipy.sparse.linalg import ArpackNoConvergence, svds

    mat = op.tosparse()
    n = mat.shape[0]
    if n == 1 or mat.count_nonzero() == 0:
        vector = np.zeros(n)
        vector[0] = 1.0
        return NormEstimate(abs(mat[0, 0]) if n == 1 else 0.0, vector)
    start = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        _, s, vh = svds(mat, k=1, tol=0, v0=start)
    except ArpackNoConvergence as exc:
        raise NumericalError(
            f"spectral norm of a {n}-node operator did not converge: {exc}"
        ) from exc
    return NormEstimate(float(s[0]), vh[0].conj())


def infinity_norm(op: LinearNodeOperator) -> float:
    """Induced infinity norm: maximum absolute row sum."""
    mat = op.tosparse()
    if mat.nnz == 0:
        return 0.0
    row_sums = np.abs(mat).sum(axis=1)
    return float(np.max(row_sums))
