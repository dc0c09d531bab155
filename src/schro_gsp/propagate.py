"""Unitary propagation under a self-adjoint generator.

Two routes are provided on purpose.  The production path never factorizes
anything: it expands ``exp(-itL)`` in Chebyshev polynomials of the generator
rescaled to ``[-1, 1]`` (Tal-Ezer & Kosloff, J. Chem. Phys. 1984).  It takes
only a :class:`SecondOrderGenerator`, whose spectrum lies in ``[0, 2h]`` with
``h`` half its ``norm_bound``; with ``c = h`` and ``S = (L - c) / h``,

    exp(-itL) x = exp(-itc) sum_k eps_k (-i)^k J_k(t h) T_k(S) x,

with ``eps_0 = 1`` and ``eps_k = 2`` otherwise.  The Bessel coefficients
decay super-exponentially once ``k > |t h|``, so the series is cut where
their tail is below double precision, costing one generator application per
term, about ``|t h| + O(|t h|^(1/3))`` in all.  The oracle path diagonalizes
the generator's dense matrix and applies exact eigenvalue phases; it is capped
at moderate sizes and exists so the series path has something independent
to be checked against.  It takes any operator that passes the generic
self-adjointness test, such as the ring task's heat Laplacian.

Both take and return ``(N,)`` or ``(N, J)`` arrays, and share one entry check:
a non-finite time or entry, or an operand of another shape, is a
:class:`ContractError` before any work, never a failure of the series.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ContractError, NumericalError, SizeError, all_finite, exact_array
from .operators import DENSE_MAX_NODES, SecondOrderGenerator, SparseOperator

# The series is cut where sum_{k > K} eps_k |J_k(t h)|, which bounds the
# truncation error relative to the input norm, falls below this.
CHEB_TAIL_TOL = 1e-16

# Longest expansion attempted; each term costs one generator application.
CHEB_MAX_TERMS = 1_000_000

# (-i)^k for k mod 4.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])

# Bound on the unnormalized Bessel recurrence before it is scaled down.
_RESCALE = 1e250


def _require_inputs(laplacian: SparseOperator, t: float, values, weights=None):
    """The one entry check of both propagators, made before any work (the
    short-time shortcut included) and without a mask of the operand's size;
    returns the operand and the weights (or None) as complex128 arrays."""
    if not math.isfinite(t):
        raise ContractError(f"propagation time must be finite, got {t}")
    arr = np.asarray(values)
    if arr.ndim not in (1, 2) or arr.shape[0] != laplacian.dim:
        raise ContractError(
            f"propagation operand must be an (N,) or (N, J) array with N = "
            f"{laplacian.dim}, got {type(values).__name__} of shape {arr.shape}")
    arr = exact_array(arr, np.complex128, "propagation operand")
    if not all_finite(arr):
        raise ContractError("propagation operand must be finite")
    if weights is not None:
        weights = exact_array(weights, np.complex128, "propagation weights")
        if weights.shape != arr.shape[:1]:
            raise ContractError(
                f"weights of shape {weights.shape} do not match {arr.shape[0]} nodes")
        if not all_finite(weights):
            raise ContractError("propagation weights must be finite")
    return arr, weights


def _require_generator(laplacian: SparseOperator) -> None:
    if not isinstance(laplacian, SecondOrderGenerator):
        raise ContractError(
            "the Chebyshev series propagates only a SecondOrderGenerator, "
            f"got {type(laplacian).__name__}")


def _bessel_j(n: int, z: float) -> np.ndarray:
    """``J_0(z) .. J_{n-1}(z)`` for ``|z| >= CHEB_TAIL_TOL``, by Miller's method.

    The recurrence ``J_{k-1} = (2k/z) J_k - J_{k+1}`` runs downward from a
    trial value at order ``n + 20``; ``n`` lies far enough past ``|z|`` that
    the true sequence is negligible there, and downward the recurrence is
    stable.  The result is scaled so that ``J_0^2 + 2 sum_k J_k^2 = 1``, which
    is the unitarity of the expansion, so the series keeps it to rounding.
    ``scipy.special.jv`` gives the same values (the tests compare them), but
    loading it adds about 6 MB to the resident set of every process that
    propagates.
    """
    a = abs(z)
    top = n + 20
    vals = [0.0] * (top + 2)
    vals[top] = 1.0
    for k in range(top, 0, -1):
        v = 2.0 * k / a * vals[k] - vals[k + 1]
        if abs(v) > _RESCALE:
            # Only the orders far above |z| underflow here, and they are
            # negligible.
            vals[k : top + 1] = [u / _RESCALE for u in vals[k : top + 1]]
            v /= _RESCALE
        vals[k - 1] = v
    j = np.array(vals[: top + 1])
    j /= np.abs(j).max()
    # Started above order |z|, where J_k(|z|) > 0, j is a positive multiple of J_k.
    norm = math.sqrt(j[0] ** 2 + 2.0 * float(j[1:] @ j[1:]))
    j = j[:n] / norm
    if z < 0.0:
        j[1::2] *= -1.0
    return j


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """``eps_k (-i)^k J_k(z)`` for every term the series keeps."""
    size = abs(z) + 15.0 * abs(z) ** (1.0 / 3.0) + 40.0
    if not size <= CHEB_MAX_TERMS:
        raise NumericalError(
            f"propagation with |t h| = {abs(z):.3g} needs about {size:.3g} "
            f"Chebyshev terms, above the cap of {CHEB_MAX_TERMS}"
        )
    k = np.arange(int(size))
    coef = _bessel_j(k.size, z) * _MINUS_I_POWERS[k % 4]
    coef[1:] *= 2.0
    # tail[k] = sum_{j >= k} |coef_j|; keep the terms before the first index
    # whose tail is negligible.
    tail = np.cumsum(np.abs(coef[::-1]))[::-1]
    negligible = np.flatnonzero(tail < CHEB_TAIL_TOL)
    if negligible.size == 0:
        raise NumericalError(f"Bessel table of {k.size} terms is too short")
    return coef[: negligible[0]]


def chebyshev_terms(laplacian: SecondOrderGenerator, t: float) -> int:
    """Terms of the series that propagates for time ``t``.

    Every term after the first costs one generator application."""
    _require_generator(laplacian)
    z = t * (0.5 * laplacian.norm_bound)
    return 1 if abs(z) < CHEB_TAIL_TOL else _chebyshev_coefficients(z).size


def _chebyshev(
    laplacian: SecondOrderGenerator,
    t: float,
    x: np.ndarray,
    weights: np.ndarray | None,
) -> np.ndarray:
    # The input is w * x, re-formed where each term needs it rather than
    # kept as a block beside x.  The operands keep the order a caller that
    # scaled first would use: complex products are not bitwise commutative.
    w = weights
    if w is not None and x.ndim == 2:
        w = w[:, None]
    centre = half = 0.5 * laplacian.norm_bound
    z = t * half
    if abs(z) < CHEB_TAIL_TOL:
        # 2 sum_{k>0} |J_k(z)| ~ |z| is negligible: only J_0(z) = 1 is left.
        return cmath.exp(-1j * t * centre) * (x if w is None else w * x)
    coef = cmath.exp(-1j * t * centre) * _chebyshev_coefficients(z)
    # Clenshaw: b_k = c_k u + 2 S b_{k+1} - b_{k+2}, result c_0 u + S b_1 - b_2,
    # with u = weights * x.  Updated in place, so b_{k+1}, b_{k+2} and the
    # new term are the only (N, J) buffers alive beside x outside the
    # generator application.
    if w is None:
        b1 = coef[-1] * x
    else:
        b1 = np.multiply(w, x)
        np.multiply(coef[-1], b1, out=b1)
    b2 = None
    for k in range(coef.size - 2, -1, -1):
        scale = 1.0 / half if k == 0 else 2.0 / half
        new = laplacian.apply(b1)
        new *= scale
        if b2 is None:
            # b_{K+1} = 0, allocated only after the first application so that
            # it runs with one buffer fewer; short series set the peak there.
            b2 = np.empty_like(x)
        else:
            new -= b2
        # b2 is spent; reuse it as scratch for the shift and the c_k u term.
        np.multiply(b1, scale * centre, out=b2)
        new -= b2
        if w is None:
            np.multiply(x, coef[k], out=b2)
        else:
            np.multiply(w, x, out=b2)
            b2 *= coef[k]
        new += b2
        b1, b2 = new, b1
    if not all_finite(b1):
        raise NumericalError(
            f"non-finite values after a {coef.size}-term Chebyshev propagation"
        )
    return b1


def evolve(
    laplacian: SecondOrderGenerator,
    t: float,
    values: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate an (N,) or (N, J) array for time ``t``, column by column.

    With ``weights``, an (N,) column, the input is ``weights * values``
    (scaled row by row), the same bytes as scaling first, but the scaled
    block is never held: each step of the series re-forms its term in a
    buffer it already has.  A modulated propagation then keeps three
    (N, J) blocks besides ``values`` instead of four.
    """
    _require_generator(laplacian)
    return _chebyshev(laplacian, t, *_require_inputs(laplacian, t, values, weights))


class DensePropagator:
    """Eigendecomposition-backed exact propagator for verification.

    Factorizes once; ``apply`` then costs two dense products per call, so
    sweeps over many times reuse the same factorization.
    """

    def __init__(self, laplacian: SparseOperator):
        n = laplacian.dim
        if n > DENSE_MAX_NODES:
            raise SizeError(
                f"dense oracle capped at {DENSE_MAX_NODES} nodes, got {n}"
            )
        if not laplacian.is_self_adjoint():
            raise ContractError("dense oracle requires a self-adjoint generator")
        self._laplacian = laplacian
        dense = laplacian.tosparse().toarray()
        self._eigvals, self._eigvecs = np.linalg.eigh(dense)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigvals

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors, one column per eigenvalue."""
        return self._eigvecs

    def apply(self, t: float, values: np.ndarray) -> np.ndarray:
        """``exp(-itL)`` applied to a (N,) or (N, J) array."""
        arr, _ = _require_inputs(self._laplacian, t, values)
        phases = np.exp(-1j * t * self._eigvals)
        coeff = self._eigvecs.conj().T @ arr
        coeff = coeff * (phases if arr.ndim == 1 else phases[:, None])
        return self._eigvecs @ coeff

