"""The two productivity laws as residuals, and the flexible-input output term they share.

Both laws of motion are written as ``target - r(lag, controls)``, where the
law ``r`` is a linear combination of basis terms in the lagged
productivity and the lagged controls.  A law object supplies the basis
through ``evaluate(u)`` and its derivative in the lagged productivity
through ``evaluate_deriv(u, 0)``, with ``u = [lag, controls]``.  The
parametric laws use :class:`LinearLaw`; the series laws use
``sieve.SieveBasis``.

phi law (step two): with phi proxied from the ratio of the flexible-input
first-order conditions, the innovation at ``(beta_0, beta_l, coef)`` is

    eps_t = phi_t - r_phi(phi_{t-1}, Z_{t-1}).

omega law (step three): the flexible-input part of log output,

    f(m, l, phi) = beta_m*m + beta_l*(phi + l) - 0.5*beta_0*(m - phi - l)^2,

is :func:`flexible_output`.  Output purged of it is ``y* = y - f``, and a
flexible-input first-order condition minus it proxies lagged omega plus
the capital terms, ``m*_{t-1}``.  The residual at ``(beta_k, beta_kk,
coef)`` is

    r_t = y*_t - beta_k*k_t - 0.5*beta_kk*k_t^2
          - r_omega(m*_{t-1} - beta_k*k_{t-1} - 0.5*beta_kk*k_{t-1}^2, X_{t-1}).

Each Jacobian takes the same arguments as its residual, so a residual and
its Jacobian can share one argument tuple.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinearLaw",
    "law_residual",
    "phi_proxy",
    "phi_innovation",
    "phi_innovation_jacobian",
    "capital_terms",
    "flexible_output",
    "omega_residual",
    "omega_residual_jacobian",
]


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


def _columns(*blocks) -> np.ndarray:
    """Side-by-side stack of 1-D columns and 2-D blocks.

    ``np.column_stack`` copies a 2-D block row by row, which is several
    times slower on tall narrow blocks, so blocks are split into columns.
    """
    cols = [col for block in blocks for col in (block.T if np.ndim(block) == 2 else [block])]
    if len(cols) == 1:
        return cols[0][:, None]  # a view: no controls, nothing to copy
    return np.column_stack(cols)


def law_residual(target, law, lag, controls, coef) -> np.ndarray:
    """``target - r(lag, controls)`` with ``r`` the law's basis times ``coef``: both laws' form."""
    # np.dot, not @: matmul is several times slower on a single-column basis
    return target - np.dot(law.evaluate(_columns(lag, controls)), coef)


def phi_proxy(m_minus_l, s_l, beta_0: float, beta_l: float, delta_lm: float) -> np.ndarray:
    """Labor-augmenting productivity from observables.

    Ratio of the two flexible-input first-order conditions gives

        phi = (m - l) + beta_l/beta_0 - (delta_lm/beta_0) * s_l,

    which holds exactly on optimizing data regardless of prices, markups
    and the transitory shock (they cancel in the FOC ratio).
    """
    if beta_0 == 0.0:
        raise ValueError("phi proxy undefined at beta_0 = 0")
    return np.asarray(m_minus_l, dtype=float) + beta_l / beta_0 - (delta_lm / beta_0) * np.asarray(s_l, dtype=float)


def phi_innovation(params, law, delta_lm: float, ml_cur, ml_prev, sl_cur, sl_prev, z_prev) -> np.ndarray:
    """Innovation of the phi law at ``params = (beta_0, beta_l, coef)`` on lag-pair arrays."""
    beta_0, beta_l, coef = params[0], params[1], params[2:]
    phi_cur = phi_proxy(ml_cur, sl_cur, beta_0, beta_l, delta_lm)
    phi_prev = phi_proxy(ml_prev, sl_prev, beta_0, beta_l, delta_lm)
    return law_residual(phi_cur, law, phi_prev, z_prev, coef)


def phi_innovation_jacobian(params, law, delta_lm: float, ml_cur, ml_prev, sl_cur, sl_prev, z_prev) -> np.ndarray:
    """Derivative of :func:`phi_innovation` in each parameter.

    At fixed data ``d phi/d beta_0 = (delta_lm*s_l - beta_l)/beta_0^2`` and
    ``d phi/d beta_l = 1/beta_0``; the lagged term adds the law's slope
    ``dr`` in lagged phi.
    """
    beta_0, beta_l, coef = params[0], params[1], params[2:]
    u = _columns(phi_proxy(ml_prev, sl_prev, beta_0, beta_l, delta_lm), z_prev)
    dr = law.evaluate_deriv(u, 0) @ coef
    d_beta0 = (-beta_l * (1.0 - dr) + delta_lm * (sl_cur - dr * sl_prev)) / beta_0**2
    d_betal = np.broadcast_to((1.0 - dr) / beta_0, d_beta0.shape)
    return _columns(d_beta0, d_betal, -law.evaluate(u))


def flexible_output(beta_0: float, beta_l: float, beta_m: float, m, l, phi):
    """Flexible-input part of log output: ``beta_m*m + beta_l*(phi + l) - 0.5*beta_0*(m - phi - l)^2``."""
    return beta_m * m + beta_l * (phi + l) - 0.5 * beta_0 * (m - phi - l) ** 2


def capital_terms(k) -> np.ndarray:
    """Capital regressors ``[k, 0.5*k^2]`` of the omega law, one row per observation."""
    return np.column_stack([k, 0.5 * k**2])


def omega_residual(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev) -> np.ndarray:
    """Residual of the omega law at ``params = (beta_k, beta_kk, coef)`` on lag-pair arrays.

    ``y_cur`` is the flexible-input-purged output, ``cap_*`` are
    :func:`capital_terms` and ``mstar_prev`` is the lagged omega proxy plus
    capital terms.  At a zero ``y_cur`` the residual is minus the fitted
    mean of the law.
    """
    beta, coef = params[:2], params[2:]
    return law_residual(y_cur - cap_cur @ beta, law, mstar_prev - cap_prev @ beta, x_prev, coef)


def omega_residual_jacobian(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev) -> np.ndarray:
    """Derivative of :func:`omega_residual` in each parameter."""
    beta, coef = params[:2], params[2:]
    u = _columns(mstar_prev - cap_prev @ beta, x_prev)
    dr = law.evaluate_deriv(u, 0) @ coef
    return _columns(dr[:, None] * cap_prev - cap_cur, -law.evaluate(u))
