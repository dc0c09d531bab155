"""The Adam step rule shared by the package's gradient fits.

Only the update of the parameters from one gradient lives here (Kingma and
Ba, 2015: bias-corrected first and second moments).  Each fit keeps its own
loop: which iterate is best, when to stop, what to trace and when to raise.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Moment state of one descent run at a fixed learning rate."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._steps = 0
        self._m = 0.0
        self._v = 0.0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Parameters after one descent step along ``grad``."""
        self._steps += 1
        self._m = BETA1 * self._m + (1 - BETA1) * grad
        self._v = BETA2 * self._v + (1 - BETA2) * grad * grad
        mhat = self._m / (1 - BETA1 ** self._steps)
        vhat = self._v / (1 - BETA2 ** self._steps)
        return params - self.learning_rate * mhat / (np.sqrt(vhat) + EPS)
