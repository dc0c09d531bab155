"""Unitary propagation under a self-adjoint generator.

Two routes are provided on purpose.  The production path never factorizes
anything: it expands ``exp(-itL)`` in Chebyshev polynomials of the generator
rescaled to ``[-1, 1]`` (Tal-Ezer & Kosloff, J. Chem. Phys. 1984).  With the
spectrum inside ``[c - h, c + h]`` and ``S = (L - c) / h``,

    exp(-itL) x = exp(-itc) sum_k eps_k (-i)^k J_k(t h) T_k(S) x,

with ``eps_0 = 1`` and ``eps_k = 2`` otherwise.  The Bessel coefficients
decay super-exponentially once ``k > |t h|``, so the series is cut where
their tail is below double precision, costing one generator application per
term, about ``|t h| + O(|t h|^(1/3))`` in all.  The oracle path diagonalizes
the materialized generator and applies exact eigenvalue phases; it is capped
at moderate sizes and exists so the series path has something independent
to be checked against.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ContractError, NumericalError, SizeError
from .graph_core import Signal
from .operators import LinearNodeOperator, SecondOrderGenerator, infinity_norm

DENSE_MAX_NODES = 1024

# The series is cut where sum_{k > K} eps_k |J_k(t h)|, which bounds the
# truncation error relative to the input norm, falls below this.
CHEB_TAIL_TOL = 1e-16

# Longest expansion attempted; each term costs one generator application.
CHEB_MAX_TERMS = 1_000_000

# (-i)^k for k mod 4.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])

# Bound on the unnormalized Bessel recurrence before it is scaled down.
_RESCALE = 1e250


def _require_inputs(laplacian: LinearNodeOperator, t: float, n_nodes: int) -> None:
    if not math.isfinite(t):
        raise ContractError(f"propagation time must be finite, got {t}")
    if laplacian.dim != n_nodes:
        raise ContractError("generator size does not match the signal")
    if not laplacian.is_self_adjoint():
        raise ContractError("propagation requires a self-adjoint generator")


def _spectral_interval(laplacian: LinearNodeOperator) -> tuple[float, float]:
    """Centre and half-width of an interval that holds the whole spectrum."""
    if isinstance(laplacian, SecondOrderGenerator):
        # Positive semidefinite by construction: [0, norm_bound].
        half = 0.5 * laplacian.norm_bound
        return half, half
    return 0.0, infinity_norm(laplacian)


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
    norm = math.sqrt(j[0] ** 2 + 2.0 * float(j[1:] @ j[1:]))
    # J_0 + 2 sum_k J_{2k} = 1 fixes the sign.
    if j[0] + 2.0 * j[2::2].sum() < 0.0:
        norm = -norm
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


def _chebyshev(
    laplacian: LinearNodeOperator, t: float, values: np.ndarray
) -> np.ndarray:
    x = np.asarray(values, dtype=np.complex128)
    centre, half = _spectral_interval(laplacian)
    z = t * half
    if abs(z) < CHEB_TAIL_TOL:
        # 2 sum_{k>0} |J_k(z)| ~ |z| is negligible: only J_0(z) = 1 is left.
        return cmath.exp(-1j * t * centre) * x
    coef = cmath.exp(-1j * t * centre) * _chebyshev_coefficients(z)
    # Clenshaw: b_k = c_k x + 2 S b_{k+1} - b_{k+2}, result c_0 x + S b_1 - b_2.
    # Updated in place, so x, b_{k+1}, b_{k+2} and the new term are the only
    # (N, J) buffers alive outside the generator application.
    b1, b2 = coef[-1] * x, None
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
        # b2 is spent; reuse it as scratch for the shift and the c_k x term.
        np.multiply(b1, scale * centre, out=b2)
        new -= b2
        np.multiply(x, coef[k], out=b2)
        new += b2
        b1, b2 = new, b1
    if not np.all(np.isfinite(b1)):
        raise NumericalError(
            f"non-finite values after a {coef.size}-term Chebyshev propagation"
        )
    return b1


def evolve_array(
    laplacian: LinearNodeOperator, t: float, values: np.ndarray
) -> np.ndarray:
    """Propagate a raw (N,) or (N, J) array for time ``t``."""
    _require_inputs(laplacian, t, np.shape(values)[0])
    return _chebyshev(laplacian, t, values)


def evolve(laplacian: LinearNodeOperator, t: float, g: Signal) -> Signal:
    """Propagate every channel of ``g`` for time ``t`` under the generator."""
    return Signal(evolve_array(laplacian, t, g.values))


class DensePropagator:
    """Eigendecomposition-backed exact propagator for verification.

    Factorizes once; ``apply`` then costs two dense products per call, so
    sweeps over many times reuse the same factorization.
    """

    def __init__(self, laplacian: LinearNodeOperator):
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
        _require_inputs(self._laplacian, t, np.shape(values)[0])
        arr = np.asarray(values, dtype=np.complex128)
        phases = np.exp(-1j * t * self._eigvals)
        coeff = self._eigvecs.conj().T @ arr
        coeff = coeff * (phases if arr.ndim == 1 else phases[:, None])
        return self._eigvecs @ coeff


def unitarity_defect(laplacian: LinearNodeOperator, t: float, g: Signal) -> float:
    """Relative norm drift of one propagation: |(out norm) - (in norm)| / (in norm)."""
    before = g.norm()
    if before == 0.0:
        raise ContractError("unitarity defect needs a nonzero signal")
    after = evolve(laplacian, t, g).norm()
    return abs(after - before) / before
