"""The parametric laws as a law object, for tests of the moment core.

:class:`LinearLaw` supplies ``evaluate`` and ``evaluate_deriv`` as
``sieve.SieveBasis`` does, so :func:`prodsys.moments.phi_innovation` and
:func:`prodsys.moments.omega_residual` evaluate the linear laws on lag-pair
arrays.  The estimator fits those laws through the cross-product core
instead; the tests compare the two.

:func:`proxied_omega_map` writes the joint system's proxied-phi expansion
(:func:`prodsys.moments.proxied_omega_coef`) as a matrix on step three's
coefficients, for the tests that carry a root of the joint system's block to
a step-two point.
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


def proxied_omega_map(beta_0: float, beta_l: float, delta_lm: float, px: int) -> np.ndarray:
    """The matrix ``B`` with ``proxied_omega_coef(gamma, ...) == B @ omega_law_coef(gamma)`` at every ``gamma``.

    At fixed ``(beta_0, beta_l)`` the proxied-phi expansion is linear in
    ``c``: the constant's coefficient takes ``-beta_l^2/(2*beta_0)`` times
    those of ``y*`` and ``m*``, and each ``s^2`` column ``delta^2/(2*beta_0)``
    times them.  So a root ``L`` of ``R'R`` gives ``L B``, a root of the
    ``D'D`` of the omega law on phi proxied at that point.
    """
    curv = delta_lm**2 / (2.0 * beta_0)
    shift = beta_l**2 / (2.0 * beta_0)
    out = np.zeros((9 + px, 7 + px))
    out[[0, 1, 3, 4, 5, 7, 8], [0, 1, 2, 3, 4, 5, 6]] = 1.0
    out[[1, 1, 2, 6], [0, 4, 0, 4]] = -shift, -shift, curv, curv
    out[9:, 7:] = np.eye(px)
    return out
