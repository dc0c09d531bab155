"""Unitary propagation under a self-adjoint generator.

Two routes are provided on purpose.  The production path never factorizes
anything: it splits the time interval so that each sub-step satisfies
``|dt| * norm_bound <= split_threshold`` and evaluates a truncated
exponential series on the signal with a Horner-style nested product, costing
one generator application per series order.  The oracle path diagonalizes
the materialized generator and applies exact eigenvalue phases; it is capped
at moderate sizes and exists so the truncated path has something independent
to be checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError, SizeError
from .graph_core import Signal
from .operators import LinearNodeOperator, SecondOrderGenerator, infinity_norm

DENSE_MAX_NODES = 1024

_METHODS = ("taylor", "dense-oracle")


@dataclass(frozen=True)
class EvolutionConfig:
    """Propagation settings.

    ``taylor_order`` is the truncation order of the exponential series per
    sub-step (1..64).  ``split_threshold`` bounds ``|dt| * norm_bound`` per
    sub-step; smaller values mean more, shorter sub-steps.
    """

    taylor_order: int = 15
    split_threshold: float = 1.0
    method: str = "taylor"

    def __post_init__(self):
        if not 1 <= self.taylor_order <= 64:
            raise ContractError("taylor_order must lie in [1, 64]")
        if not self.split_threshold > 0:
            raise ContractError("split_threshold must be positive")
        if self.method not in _METHODS:
            raise ContractError(f"method must be one of {_METHODS}")


def _require_generator(laplacian: LinearNodeOperator, n_nodes: int) -> None:
    if laplacian.dim != n_nodes:
        raise ContractError("generator size does not match the signal")
    if not laplacian.is_self_adjoint():
        raise ContractError("propagation requires a self-adjoint generator")


def _norm_bound(laplacian: LinearNodeOperator) -> float:
    if isinstance(laplacian, SecondOrderGenerator):
        return laplacian.norm_bound
    return infinity_norm(laplacian)


def evolve_array(
    laplacian: LinearNodeOperator,
    t: float,
    values: np.ndarray,
    cfg: EvolutionConfig,
) -> np.ndarray:
    """Truncated-series propagation on a raw (N,) or (N, J) array."""
    cur = np.asarray(values, dtype=np.complex128).copy()
    if t == 0.0:
        return cur
    bound = _norm_bound(laplacian)
    steps = max(1, math.ceil(abs(t) * bound / cfg.split_threshold))
    z = -1j * (t / steps)
    order = cfg.taylor_order
    for step in range(1, steps + 1):
        # exp(z L) x via x + z L (x + (z/2) L (x + ...)), innermost first.
        acc = cur
        for r in range(order, 0, -1):
            acc = cur + (z / r) * laplacian.apply(acc)
        cur = acc
        if not np.all(np.isfinite(cur.real)) or not np.all(np.isfinite(cur.imag)):
            raise NumericalError(
                f"non-finite values during propagation sub-step {step} of {steps}"
            )
    return cur


def evolve(
    laplacian: LinearNodeOperator,
    t: float,
    g: Signal,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> Signal:
    """Propagate every channel of ``g`` for time ``t`` under the generator."""
    _require_generator(laplacian, g.n_nodes)
    if cfg.method == "dense-oracle":
        return evolve_dense(laplacian, t, g)
    return Signal(evolve_array(laplacian, t, g.values, cfg))


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
        arr = np.asarray(values, dtype=np.complex128)
        phases = np.exp(-1j * t * self._eigvals)
        coeff = self._eigvecs.conj().T @ arr
        coeff = coeff * (phases if arr.ndim == 1 else phases[:, None])
        return self._eigvecs @ coeff


def evolve_dense(laplacian: LinearNodeOperator, t: float, g: Signal) -> Signal:
    """Exact propagation through the spectral factorization (oracle path)."""
    _require_generator(laplacian, g.n_nodes)
    return Signal(DensePropagator(laplacian).apply(t, g.values))


def unitarity_defect(
    laplacian: LinearNodeOperator,
    t: float,
    g: Signal,
    cfg: EvolutionConfig = EvolutionConfig(),
) -> float:
    """Relative norm drift of one propagation: |(out norm) - (in norm)| / (in norm)."""
    before = g.norm()
    if before == 0.0:
        raise ContractError("unitarity defect needs a nonzero signal")
    after = evolve(laplacian, t, g, cfg).norm()
    return abs(after - before) / before
