"""Linear operators on node signals.

The central object is the feature derivative: for a feature column f, the
operator with entries ``a(n, m) * (f(n) - f(m))`` on edges.  It is real and
skew-symmetric, so ``i`` times it is a self-adjoint momentum observable, and
the negated sum of its squares over feature columns is a self-adjoint
second-order generator that drives unitary propagation.

``SparseOperator``, the one operator class, holds a square CSR matrix:
derivatives, momenta, smoothing operators, commutators, location
observables (diagonal matrices), and the second-order generator, which
composes its matrix once when it is built, as ``D D^T`` with the
derivatives side by side in ``D = [G_0 ... G_{K-1}]``: one sparse product
whose result is exactly symmetric.  A constructor whose result is
exactly Hermitian by construction (the generator, location and momentum
observables) records that answer, so ``is_self_adjoint`` tests only the
other operators.

Edge operators (derivatives, momenta, smoothing operators) are gathered
straight into CSR on ``graph_core.edge_pattern``; a generator makes the
pattern once for all its derivatives and frees it before its product.  An
operator's data is its per-edge values gathered in that order, less the
stored zeros, and one ``csr_matrix((data, indices, indptr))`` call wraps
the arrays.  The result equals scipy's COO build byte for byte, without the
COO object, ``sum_duplicates`` or ``eliminate_zeros``.  A per-edge value or
a generator entry that overflows raises :class:`NumericalError` where it is
formed, so no constructor returns non-finite data.  A complex block
applied to a real matrix is multiplied as its float view: one product per
generator application.

Phase modulation is not an operator: ``modulation`` returns the
unit-modulus column ``exp(i theta h)``, and a caller multiplies a signal by
it row by row.  A phase that overflows raises :class:`ContractError` there.

There is one spectral norm, ``operator_norm``, exact to machine precision.
It picks its solver by size: up to ``DENSE_NORM_MAX_NODES`` nodes, the top
eigenpair of the Gram matrix ``A* A``, formed once and solved densely one
diagonal block at a time when the operand is block diagonal in its given
order; above that, a single Lanczos solve on an operand whose forward and
adjoint products are plain CSR products.  When Lanczos does not converge, an
operator of at most ``DENSE_MAX_NODES`` nodes takes the dense solve instead,
and a larger one raises.  ``infinity_norm`` is the cheap row-sum upper
bound; it sums ``|entries|`` per row over one absolute-valued copy of the
stored entries.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ContractError, NumericalError
from .graph_core import FeatureLocations, Graph, csr_index, edge_pattern

# Largest operator given a dense factorization: the propagation oracle's
# eigendecomposition and the spectral norm's fallback when Lanczos stalls.
DENSE_MAX_NODES = 1024

# Largest operator whose spectral norm comes from the dense Gram eigensolve
# outright.  Per call on grid commutators, on a 2-core Xeon with BLAS on one
# thread, the dense solve takes half the time of ``svds`` at 144 nodes, about
# the same at 256, and 2.3 times as long at 400.  At a tie the dense solve
# wins: it cannot stall on clustered singular values.
DENSE_NORM_MAX_NODES = 256

# Relative asymmetry ``max |A - A*| / max |A|`` that still counts as
# self-adjoint.
SELF_ADJOINT_TOL = 1e-12


class SparseOperator:
    """Linear map on node signals, backed by a square CSR matrix."""

    # Set by the first ``is_self_adjoint`` test, or by a constructor whose
    # result is exactly Hermitian; operators are immutable.
    _self_adjoint: bool | None = None

    def __init__(self, mat):
        if not isinstance(mat, sparse.csr_matrix):
            mat = sparse.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise ContractError("operator matrix must be square")
        self._mat = mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply to a vector (N,) or channel stack (N, J)."""
        return _real_matmul(self._mat, self._check_operand(values))

    def tosparse(self) -> sparse.csr_matrix:
        return self._mat

    def is_self_adjoint(self) -> bool:
        """Whether ``max |A - A*| <= SELF_ADJOINT_TOL max |A|``, a scale-free test.

        Computed at the first call and kept, unless a constructor recorded it."""
        if self._self_adjoint is None:
            mat = self.tosparse()
            diff = mat - mat.conjugate().T
            self._self_adjoint = diff.nnz == 0 or (
                float(np.abs(diff.data).max())
                <= SELF_ADJOINT_TOL * float(np.abs(mat.data).max()))
        return self._self_adjoint

    def _check_operand(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values)
        if arr.ndim not in (1, 2) or arr.shape[0] != self.dim:
            raise ContractError(
                f"operand shape {arr.shape} does not match operator dim {self.dim}"
            )
        return arr


class SecondOrderGenerator(SparseOperator):
    """Negated sum of squared feature derivatives, ``-sum_k G_k G_k``.

    Every ``G_k`` is skew-symmetric, so the sum equals ``D D^T`` with the
    derivatives side by side, ``D = [G_0 ... G_{K-1}]`` (``N x KN``).  That
    is one sparse product, with no per-feature squares, sum or negated copy
    alive beside it, and its result is exactly symmetric: entries ``(n, m)``
    and ``(m, n)`` add the same products in the same order, because the
    rows of the left factor have sorted indices.  The derivatives must be
    exactly skew-symmetric, as ``feature_derivative`` makes them.
    ``norm_bound`` needs the composed matrix before any propagation, so
    every application multiplies by it too: one sparse pass instead of 2K.

    The derivatives come as an iterable, so a caller can hand over the only
    references: they are freed once stacked, before the product's peak.  A
    caller that passes ``derivative_mats(graph, f)`` and keeps no reference
    to the graph hands the graph over too: it is freed, with its edge
    arrays and the edge pattern, once the last derivative is taken.
    """

    def __init__(self, derivative_mats):
        mats = list(derivative_mats)
        if not mats:
            raise ContractError("at least one feature derivative required")
        dim = mats[0].shape[0]
        if any(mat.shape != (dim, dim) for mat in mats):
            raise ContractError("feature derivatives disagree on size")
        # E = [G_0; ...; G_{K-1}] is -D^T, so D D^T = E^T E.  The transpose
        # of one derivative is its negation: scipy's fixed cost per call is
        # most of a small generator's build, and ``verify`` builds hundreds
        # of 32-node ones.
        if len(mats) == 1:
            stack = mats[0]
            stack_t = -stack
        else:
            stack = sparse.vstack(mats, format="csr")
            stack_t = stack.T.tocsr()
        del mats
        super().__init__(stack_t @ stack)
        # scipy's product raises no floating-point error on overflow.
        if not _all_finite(self._mat.data):
            raise NumericalError(
                "the generator's product of feature derivatives overflows; "
                f"largest derivative entry {np.abs(stack.data).max():.6g}")
        self._self_adjoint = True  # exactly symmetric, as above
        self._norm_bound: float | None = None

    @property
    def norm_bound(self) -> float:
        """Cached infinity norm; upper-bounds the spectral norm."""
        if self._norm_bound is None:
            self._norm_bound = infinity_norm(self)
        return self._norm_bound


def _real_matmul(mat, arr: np.ndarray) -> np.ndarray:
    """``mat @ arr`` over the first axis of an operand of any rank.

    A real (``float64``) matrix, dense or sparse, multiplies the float64
    view of a complex operand, so numpy or scipy does not upcast the matrix
    to complex: one real product at half the flops, with no cast copy.  A
    C-contiguous complex ``(N, J)`` block already is ``(N, 2J)`` floats, so
    it takes one view, one product and one view back.
    """
    if np.iscomplexobj(arr) and mat.dtype == np.float64:
        if arr.ndim == 2 and arr.dtype == np.complex128 and arr.flags.c_contiguous:
            return (mat @ arr.view(np.float64)).view(np.complex128)
        shape = (mat.shape[0], *arr.shape[1:])
        arr = np.ascontiguousarray(arr, dtype=np.complex128)
        out = mat @ arr.view(np.float64).reshape(arr.shape[0], -1)
        return out.view(np.complex128).reshape(shape)
    shape = (mat.shape[0], *arr.shape[1:])
    return (mat @ arr.reshape(arr.shape[0], -1)).reshape(shape)


# ---------------------------------------------------------------------------
# Constructors.
# ---------------------------------------------------------------------------


def _edge_csr(pattern, forward, backward) -> sparse.csr_matrix:
    """CSR matrix holding ``forward`` at each edge (u, v), ``backward`` at
    (v, u), with stored zeros dropped; ``pattern`` is ``edge_pattern``'s."""
    order, indices, indptr = pattern
    data = np.concatenate([forward, backward])[order]
    keep = data != 0
    if not keep.all():
        data, indices = data[keep], indices[keep]
        # A row's new start is the count of kept entries before its old one.
        indptr = np.concatenate([[0], np.cumsum(keep)])[indptr].astype(indptr.dtype)
    n = indptr.size - 1
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _hermitian(mat: sparse.csr_matrix) -> SparseOperator:
    """Operator of a matrix that is exactly Hermitian by construction, its
    answer recorded so ``is_self_adjoint`` does not test it."""
    op = SparseOperator(mat)
    op._self_adjoint = True
    return op


def _all_finite(data: np.ndarray) -> bool:
    """Whether an array is finite throughout, without a mask of its size:
    the min and max of its real and imaginary views propagate NaN."""
    parts = (data.real, data.imag) if np.iscomplexobj(data) else (data,)
    return data.size == 0 or all(
        np.isfinite(p.min()) and np.isfinite(p.max()) for p in parts)


def _edge_values(graph: Graph, col: np.ndarray, squared: bool = False) -> np.ndarray:
    """Per-edge ``a(u, v) * (f(u) - f(v))``, or its gap squared, refusing
    overflow: the first edge whose value is not finite raises
    :class:`NumericalError` naming its weight and feature gap."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = col[graph.edge_u] - col[graph.edge_v]
        vals = graph.edge_w * (gap ** 2 if squared else gap)
    if not _all_finite(vals):
        e = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise NumericalError(
            f"edge ({graph.edge_u[e]}, {graph.edge_v[e]}) overflows: weight "
            f"{graph.edge_w[e]:.6g} times feature gap {gap[e]:.6g}"
            + (" squared" if squared else ""))
    return vals


def _derivative_csr(graph: Graph, col: np.ndarray, pattern) -> sparse.csr_matrix:
    duv = _edge_values(graph, col)
    return _edge_csr(pattern, duv, -duv)


def _check_feature_args(graph: Graph, f: FeatureLocations, k: int) -> np.ndarray:
    if f.n_nodes != graph.n_nodes:
        raise ContractError("feature locations do not match the graph size")
    return f.column(k)


def feature_derivative(graph: Graph, f: FeatureLocations, k: int) -> SparseOperator:
    """First-order derivative along feature ``k``: entries a(n,m)(f(n)-f(m)).

    Real and skew-symmetric; its sparsity pattern is contained in the
    adjacency pattern.
    """
    col = _check_feature_args(graph, f, k)
    return SparseOperator(_derivative_csr(graph, col, edge_pattern(graph)))


def momentum_observable(graph: Graph, f: FeatureLocations, k: int) -> SparseOperator:
    """Self-adjoint momentum observable: i times the feature derivative.

    Hermitian by construction: the derivative is real and skew-symmetric,
    so entry (v, u) is ``-x * 1j`` where (u, v) is ``x * 1j``, the exact
    conjugate."""
    col = _check_feature_args(graph, f, k)
    return _hermitian(_derivative_csr(graph, col, edge_pattern(graph)) * 1j)


def schrodinger_laplacian(graph: Graph, f: FeatureLocations) -> SecondOrderGenerator:
    """Self-adjoint generator: minus the sum of squared feature derivatives."""
    return SecondOrderGenerator(derivative_mats(graph, f))


def derivative_mats(graph: Graph, f: FeatureLocations):
    """Every feature's derivative matrix, in order, from one shared pattern.

    A generator, which ``SecondOrderGenerator`` exhausts before its product:
    the pattern, and the graph when the caller handed over its only
    reference, are freed once the last matrix is taken.  The sizes are
    checked when the first matrix is taken."""
    if f.n_nodes != graph.n_nodes:
        raise ContractError("feature locations do not match the graph size")
    pattern = edge_pattern(graph)
    for k in range(f.n_features):
        yield _derivative_csr(graph, f.column(k), pattern)


def location_observable(f: FeatureLocations, k: int) -> SparseOperator:
    """Diagonal observable holding feature column ``k``: real, so self-adjoint."""
    # A copy: the column is a strided, read-only view of the features.  The
    # CSR arrays are built directly, zeros stored: on 32 nodes a quarter of
    # ``sparse.diags``'s time.
    diag = np.array(f.column(k))
    n = diag.size
    nodes = np.arange(n)
    indices, indptr = csr_index(nodes, nodes, n)
    return _hermitian(sparse.csr_matrix((diag, indices, indptr), shape=(n, n)))


def smoothing_operator(graph: Graph, f: FeatureLocations, k: int) -> SparseOperator:
    """Neighborhood averaging with squared feature differences as weights.

    Entries ``a(v, w) * (f(w) - f(v))**2`` on edges; real symmetric.  Equals
    the commutator of the location observable with the feature derivative.
    """
    col = _check_feature_args(graph, f, k)
    s = _edge_values(graph, col, squared=True)
    return SparseOperator(_edge_csr(edge_pattern(graph), s, s))


def modulation(h: np.ndarray, theta: float) -> np.ndarray:
    """Unit-modulus column ``exp(i * theta * h)`` for a real column ``h``: a
    signal times it, row by row, is modulated by ``diag(exp(i theta h))``."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.size == 0:
        raise ContractError("modulation direction must be a non-empty 1-D real column")
    # A non-finite angle or an overflowing product surfaces as a
    # non-finite phase, rejected below rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(1j * theta * h)
    if not np.all(np.isfinite(phases)):
        raise ContractError("modulation phases must be finite")
    return phases


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Commutator a b - b a as one sparse matrix (pattern may be two-hop)."""
    if a.dim != b.dim:
        raise ContractError("commutator operands disagree on size")
    am, bm = a.tosparse(), b.tosparse()
    return SparseOperator((am @ bm - bm @ am).tocsr())


# ---------------------------------------------------------------------------
# Norms.
# ---------------------------------------------------------------------------


class NormEstimate(float):
    """Spectral norm carrying the right singular vector it was measured on.

    ``vector`` is a unit right singular vector with ``|op v|`` equal to the
    value, so ``op v / value`` is the left one.  ``converged`` is always
    true, because a failed solve raises instead, and ``iterations`` is 1, for
    the one solve; both stay because the benchmark's
    ``bench/launch.py::_norm_counts`` reads them (ROADMAP item 3).
    """

    converged = True
    iterations = 1
    vector: np.ndarray

    def __new__(cls, value: float, vector: np.ndarray):
        obj = super().__new__(cls, value)
        obj.vector = vector
        return obj


def operator_norm(op: SparseOperator) -> NormEstimate:
    """Largest singular value and its right singular vector.

    Exact to machine precision and deterministic, so repeated calls agree
    bit for bit.  An operator of at most ``DENSE_NORM_MAX_NODES`` nodes gets
    one dense solve, split by diagonal block (see ``_dense_norm``).  A larger
    one gets one Lanczos solve (ARPACK through ``scipy.sparse.linalg.svds``)
    from a fixed seeded start; its operand multiplies by the CSR matrix and
    a CSR copy of its adjoint, which skips the wrapping ``svds`` puts around
    a bare matrix.  A
    zero or 1x1 operator gets the answer directly.  A Lanczos solve that
    does not converge, as on top singular values packed within about 1e-8,
    falls back to the dense solve for at most ``DENSE_MAX_NODES`` nodes and
    raises :class:`NumericalError` above that.  An operator with a
    non-finite entry, or whose Gram matrix overflows in the dense solve,
    raises :class:`NumericalError` too.
    """
    mat = op.tosparse()
    if not np.all(np.isfinite(mat.data)):
        raise NumericalError("operator has non-finite entries; its norm is undefined")
    n = mat.shape[0]
    if n == 1 or mat.count_nonzero() == 0:
        vector = np.zeros(n)
        vector[0] = 1.0
        return NormEstimate(abs(mat[0, 0]) if n == 1 else 0.0, vector)
    if n <= DENSE_NORM_MAX_NODES:
        return _dense_norm(mat)
    # Imported here: loading scipy.sparse.linalg slows every CLI start.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

    operand = LinearOperator(mat.shape, matvec=mat.dot,
                             rmatvec=mat.conj().T.tocsr().dot, dtype=mat.dtype)
    start = np.random.default_rng(0x5EED).standard_normal(n)
    try:
        _, s, vh = svds(operand, k=1, tol=0, v0=start)
    except ArpackNoConvergence as exc:
        if n > DENSE_MAX_NODES:
            raise NumericalError(
                f"spectral norm of a {n}-node operator did not converge: {exc}"
            ) from exc
        return _dense_norm(mat)
    return NormEstimate(float(s[0]), vh[0].conj())


def _dense_norm(mat: sparse.csr_matrix) -> NormEstimate:
    """Top eigenpair of the Gram matrix ``A* A``, from LAPACK's MRRR driver.

    The eigenvalue is the squared norm and the eigenvector a unit right
    singular vector.  The eigenvalue's error is rounding in ``A* A``, about
    ``eps |A|^2``, so the norm is exact to machine precision relative, also
    where the top singular values cluster.  The Gram matrix is a sparse
    times dense product: a dense one would run on numpy's BLAS, whose
    threads then compete with those of the eigensolver's BLAS in scipy.

    An operand that is block diagonal in its given order (see
    ``_block_bounds``) has a block-diagonal Gram matrix, formed once and
    solved one diagonal block at a time; a 1x1 block is read directly.  The
    largest block value wins, the first block on ties, and its vector is
    padded with zeros to the full size.
    """
    from scipy.linalg import eigh

    n = mat.shape[0]
    # A real operand's adjoint is its transpose, a view: conj() would copy.
    adjoint = mat.conj().T if np.iscomplexobj(mat.data) else mat.T
    gram = adjoint @ mat.toarray()
    if not np.all(np.isfinite(gram)):
        raise NumericalError(f"squared norm of a {n}-node operator overflows")
    best = -1.0
    bounds = _block_bounds(mat)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo == 1:
            w, v = gram[lo, lo].real, np.ones(1)
        else:
            top = hi - lo - 1
            w, v = eigh(gram[lo:hi, lo:hi], subset_by_index=[top, top],
                        driver="evr", check_finite=False)
            w, v = w[0], v[:, 0]
        if w > best:
            best, start, top_vector = w, lo, v
    vector = np.zeros(n, dtype=gram.dtype)
    vector[start:start + top_vector.size] = top_vector
    return NormEstimate(float(np.sqrt(max(best, 0.0))), vector)


def _block_bounds(mat: sparse.csr_matrix) -> np.ndarray:
    """Bounds ``[0, ..., n]`` of the diagonal blocks of ``mat`` in its order.

    A block ends after row ``k`` where no stored entry in rows ``0..k`` has
    a column after ``k`` and none in the rows after ``k`` has a column at
    or before it: a prefix maximum and a suffix minimum of each row's
    column range, O(nnz) from ``indptr`` and ``indices``.  Stored zeros
    count as entries.
    """
    n = mat.shape[0]
    rows = np.flatnonzero(np.diff(mat.indptr))
    # Each row's column range, widened to include the row itself, so an
    # empty row reaches only itself.
    reach_hi = np.arange(n)
    reach_lo = np.arange(n)
    starts = mat.indptr[rows]
    reach_hi[rows] = np.maximum(rows, np.maximum.reduceat(mat.indices, starts))
    reach_lo[rows] = np.minimum(rows, np.minimum.reduceat(mat.indices, starts))
    ends = np.arange(1, n)
    cut = ((np.maximum.accumulate(reach_hi)[:-1] < ends)
           & (np.minimum.accumulate(reach_lo[::-1])[::-1][1:] >= ends))
    return np.concatenate([[0], ends[cut], [n]])


def infinity_norm(op: SparseOperator) -> float:
    """Induced infinity norm: maximum absolute row sum."""
    mat = op.tosparse()
    if mat.nnz == 0:
        return 0.0
    return float(np.max(_abs_row_sums(mat.data, mat.indptr)))


def _abs_row_sums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row sums of ``|data|`` over the CSR row pointers ``indptr``, from one
    absolute-valued copy of ``data``.

    Sums ``|data|`` over each non-empty row's ``indptr`` segment in stored
    order; an empty row sums to 0.  scipy's ``np.abs(mat).sum(axis=1)`` does
    the same after sorting the indices in place, so on a matrix with sorted
    indices the two are bit-identical.  Unsorted rows (a sparse product's)
    are summed as stored instead of being sorted first.
    """
    sums = np.zeros(indptr.size - 1)
    rows = np.flatnonzero(np.diff(indptr))
    sums[rows] = np.add.reduceat(np.abs(data), indptr[rows])
    return sums
