"""The package's one descent loop.

``bfgs`` fits both the PMO transform and the ring models: dense BFGS
(Nocedal and Wright, Numerical Optimization, 2006, ch. 6) with the weak
Wolfe bisection and doubling line search of Lewis and Overton, "Nonsmooth
optimization via quasi-Newton methods" (Math. Programming 141, 2013),
which also works on max-eigenvalue objectives that are not differentiable
everywhere.  It is written here rather than taken from ``scipy.optimize``
(whose L-BFGS-B would also serve the smooth ring fit): importing that
after the command-line modules adds about 27 MB of resident memory and
0.25 s, against a 94 MB peak for the ``verify`` battery that runs the
PMO fit (the ``verify`` command's ``VmHWM``, three runs, BLAS on one
thread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedError, all_finite

# Weak Wolfe constants: sufficient decrease and curvature (Lewis-Overton).
_ARMIJO = 1e-4
_CURVATURE = 0.9
# Trial steps one line search may take, halving its bracket or doubling a
# step that was too short: 60 halvings exhaust a double's precision.
_MAX_TRIALS = 60
# The gradient is small when a relative change of the parameters by eps
# changes the value by less than eps times this, ``||g|| ||x|| <= tol``;
# the bound is in the value's own units and does not depend on how the
# parameters are scaled.
_GRADIENT_TOL = 1e-12
# The first trial step is at most this fraction of the start's length.  A
# full-length step along a gradient parallel to the start lands exactly on
# zero, where the PMO objective's subgradient vanishes and the fit stops.
_FIRST_STEP = 0.99


@dataclass(frozen=True)
class Descent:
    """Outcome of one ``bfgs`` run.

    ``x``, ``value`` and ``info`` come from the evaluation with the lowest
    value; ``trace`` records ``(iteration, value, info)`` of that running
    best at the end of every iteration that improved it, with iteration 0
    for the start, so its values are non-increasing.  ``start_info`` is
    the third value of the first evaluation.
    """

    x: np.ndarray
    value: float
    info: object
    start_info: object
    trace: tuple[tuple[int, float, object], ...]
    evaluations: int
    stop_reason: str


def bfgs(evaluate, x0: np.ndarray, max_iters: int) -> Descent:
    """Minimize ``evaluate`` from ``x0`` by BFGS with a weak Wolfe search.

    ``evaluate(x)`` returns ``(value, gradient, info)`` with the gradient
    shaped like ``x``; ``info`` is carried along for the caller.

    The first trial step is cut to just under the length of ``x0``, so a
    start whose gradient is far out of scale does not leap away; after the
    first step the inverse Hessian starts as ``(s.y / y.y) I`` (Nocedal
    and Wright, eq. 6.20).  The run stops when the gradient is small (``"gradient"``,
    see ``_GRADIENT_TOL``), when a line search finds no weak Wolfe step,
    the normal exit at a kink or at rounding level (``"line-search"``), or
    after ``max_iters`` iterations (``"max-iters"``).

    Every evaluation, and the loop's own arithmetic on what it returns,
    runs with floating-point overflow and invalid operations raising, so
    the first of them, or a non-finite value or gradient, raises
    :class:`DivergedError` carrying the best iterate so far (``None`` at
    the start) and the trace so far.
    """
    shape = x0.shape
    best: dict = {}
    trace: list = []
    where = "at the start"
    evaluations = 0

    def diverged(message):
        return DivergedError(message, last_good=best["x"].reshape(shape) if best else None,
                             trace=tuple(trace))

    def call(x):
        nonlocal evaluations
        value, grad, info = evaluate(x.reshape(shape))
        evaluations += 1
        grad = np.asarray(grad, dtype=np.float64).ravel()
        if not (math.isfinite(value) and all_finite(grad)):
            raise diverged(f"objective or gradient not finite {where}")
        if not best or value < best["value"]:
            best.update(x=x.copy(), value=value, info=info)
        return value, grad, info

    def descend():
        nonlocal where
        x = np.array(x0, dtype=np.float64).ravel()
        f, g, start_info = call(x)
        trace.append((0, f, start_info))
        h = None
        stop = "max-iters"
        for it in range(1, max_iters + 1):
            where = f"at iteration {it}"
            if np.linalg.norm(g) * np.linalg.norm(x) <= _GRADIENT_TOL:
                stop = "gradient"
                break
            if h is None:
                d = -g
                t = min(1.0, _FIRST_STEP * float(np.linalg.norm(x) / np.linalg.norm(d)))
            else:
                d = -(h @ g)
                t = 1.0
            slope = float(g @ d)
            # Lewis-Overton: bisect a bracket [lo, hi] once a step fails the
            # sufficient decrease, double while every step is too short.
            lo, hi = 0.0, np.inf
            found = False
            for _ in range(_MAX_TRIALS if slope < 0.0 else 0):
                f_t, g_t, _ = call(x + t * d)
                if not f_t < f + _ARMIJO * t * slope:
                    hi = t
                elif float(g_t @ d) < _CURVATURE * slope:
                    lo = t
                else:
                    found = True
                    break
                t = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
            if best["value"] < trace[-1][1]:
                trace.append((it, best["value"], best["info"]))
            if not found:
                stop = "line-search"
                break
            # A weak Wolfe step has s.y > 0: the update stays positive definite.
            s, y = t * d, g_t - g
            rho = 1.0 / float(s @ y)
            if h is None:
                h = np.eye(x.size) / (rho * float(y @ y))
            hy = h @ y
            h = (h - rho * (np.outer(s, hy) + np.outer(hy, s))
                 + (rho * rho * float(y @ hy) + rho) * np.outer(s, s))
            x, f, g = x + s, f_t, g_t
        return Descent(best["x"].reshape(shape), best["value"], best["info"],
                       start_info, tuple(trace), evaluations, stop)

    try:
        with np.errstate(over="raise", invalid="raise"):
            return descend()
    except (FloatingPointError, OverflowError) as exc:
        raise diverged(f"overflow {where}: {exc}") from exc
