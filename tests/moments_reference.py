"""The parametric laws as a law object, for tests of the moment core.

:class:`LinearLaw` supplies ``evaluate`` and ``evaluate_deriv`` as
``sieve.SieveBasis`` does, so :func:`prodsys.moments.phi_innovation` and
:func:`prodsys.moments.omega_residual` evaluate the linear laws on lag-pair
arrays.  The estimator fits those laws through the cross-product core
instead; the tests compare the two.
"""

from __future__ import annotations

import numpy as np


class LinearLaw:
    """The parametric law ``[rho_0 +] rho_1*lag + controls @ rho_2``.

    Coefficients are ``(rho_1, rho_2)`` without an intercept (the phi law)
    and ``(rho_0, rho_1, rho_2)`` with one (the omega law).
    """

    def __init__(self, intercept: bool) -> None:
        self.intercept = intercept

    def evaluate(self, u) -> np.ndarray:
        if not self.intercept:
            return u
        out = np.empty((u.shape[0], 1 + u.shape[1]))
        out[:, 0] = 1.0
        out[:, 1:] = u
        return out

    def evaluate_deriv(self, u, coord: int) -> np.ndarray:
        # every term has a constant derivative, so one row broadcasts over u
        out = np.zeros((1, u.shape[1] + self.intercept))
        out[0, coord + self.intercept] = 1.0
        return out
