"""The two productivity laws as residuals, and the flexible-input output term they share.

Both laws of motion are written as ``target - r(lag, controls)``, where the
law ``r`` is a linear combination of basis terms in the lagged
productivity and the lagged controls.  A law object supplies the basis
through ``evaluate(u)`` and its derivative in the lagged productivity
through ``evaluate_deriv(u, 0)``, with ``u = [lag, controls]``: the
series laws use ``sieve.SieveBasis``, and the parametric laws are fitted
through the cross-product core below.

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
its Jacobian can share one argument tuple and, through :func:`last_point`,
one point: the target, ``u`` and the basis ``evaluate(u)``.

The cross-product core: under the linear laws ``[rho_0 +] rho_1*lag +
controls @ rho_2`` and on proxied phi, the innovation is ``E a(alpha)``
and the residual ``D c(gamma)``, with blocks of fixed data columns
(:func:`phi_law_columns`, :func:`omega_law_columns`) and coefficient maps
of the candidate (:func:`phi_law_coef`, :func:`omega_law_coef`).  The maps' derivatives give
the Jacobians ``E da/dalpha`` and ``D dc/dgamma``.  The fits read ``Q'E``
and a square root of ``D'D`` from one Gram of lag-pair columns, and each
candidate then costs the same at any number of lag pairs.
:func:`proxied_omega_coef` carries ``c`` through the proxied-phi expansion
of ``y*`` and ``m*`` for the joint system, and
:func:`proxied_omega_coef_jacobian` gives its derivative in ``(beta_0,
beta_l, gamma)``, from which the joint system's omega rows are formed in
closed form.  At a fixed ``(beta_0, beta_l)`` that expansion is a matrix
``B`` (:func:`_proxied_omega_map`), and ``D = R B`` with the joint
system's fixed block ``R``, so step three's ``D'D`` is ``B'(R'R)B``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "phi_proxy",
    "phi_law_point",
    "phi_innovation",
    "phi_innovation_jacobian",
    "capital_terms",
    "flexible_output",
    "omega_law_point",
    "omega_residual",
    "omega_residual_jacobian",
    "last_point",
    "phi_law_columns",
    "phi_law_coef",
    "phi_law_coef_jacobian",
    "omega_law_columns",
    "omega_law_coef",
    "omega_law_coef_jacobian",
    "proxied_omega_coef",
    "proxied_omega_coef_jacobian",
]


def _law_input(lag: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """``u = [lag, controls]``: a view of ``lag`` without controls, else a C-order stack of columns.

    ``np.column_stack`` copies a 2-D block row by row, which is several
    times slower on tall narrow blocks, so the controls are split into columns.
    """
    if not controls.shape[1]:
        return lag[:, None]
    return np.column_stack([lag, *controls.T])


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


def phi_law_point(params, law, delta_lm: float, ml_cur, ml_prev, sl_cur, sl_prev, z_prev) -> tuple:
    """``(phi_cur, u, law.evaluate(u))``, ``u = [phi_prev, z_prev]``, with phi proxied at ``params[:2]``."""
    u = _law_input(phi_proxy(ml_prev, sl_prev, params[0], params[1], delta_lm), z_prev)
    return phi_proxy(ml_cur, sl_cur, params[0], params[1], delta_lm), u, law.evaluate(u)


def phi_innovation(params, law, delta_lm: float, ml_cur, ml_prev, sl_cur, sl_prev, z_prev, point=None) -> np.ndarray:
    """Innovation of the phi law at ``params = (beta_0, beta_l, coef)`` on lag-pair arrays, at its ``point``."""
    phi_cur, _, basis = point or phi_law_point(params, law, delta_lm, ml_cur, ml_prev, sl_cur, sl_prev, z_prev)
    # np.dot, not @: matmul is several times slower on a single-column basis
    return phi_cur - np.dot(basis, params[2:])


def phi_innovation_jacobian(params, law, delta_lm: float, ml_cur, ml_prev, sl_cur, sl_prev, z_prev, point=None) -> np.ndarray:
    """Derivative of :func:`phi_innovation` in each parameter.

    At fixed data ``d phi/d beta_0 = (delta_lm*s_l - beta_l)/beta_0^2`` and
    ``d phi/d beta_l = 1/beta_0``; the lagged term adds the law's slope
    ``dr`` in lagged phi.
    """
    beta_0, beta_l, coef = params[0], params[1], params[2:]
    _, u, basis = point or phi_law_point(params, law, delta_lm, ml_cur, ml_prev, sl_cur, sl_prev, z_prev)
    dr = law.evaluate_deriv(u, 0) @ coef
    one_less_dr = 1.0 - dr
    out = _negated_basis(basis)
    np.divide(-beta_l * one_less_dr + delta_lm * (sl_cur - dr * sl_prev), beta_0**2, out=out[:, 0])
    np.divide(one_less_dr, beta_0, out=out[:, 1])
    return out


def _negated_basis(basis) -> np.ndarray:
    """A C-order ``(n, 2 + terms)`` Jacobian with ``-basis`` in its last columns, written a column per ufunc."""
    out = np.empty((basis.shape[0], 2 + basis.shape[1]))
    for col, term in zip(out.T[2:], basis.T):
        np.negative(term, out=col)
    return out


def flexible_output(beta_0: float, beta_l: float, beta_m: float, m, l, phi):
    """Flexible-input part of log output: ``beta_m*m + beta_l*(phi + l) - 0.5*beta_0*(m - phi - l)^2``."""
    return beta_m * m + beta_l * (phi + l) - 0.5 * beta_0 * (m - phi - l) ** 2


def capital_terms(k) -> np.ndarray:
    """Capital regressors ``[k, 0.5*k^2]`` of the omega law, one row per observation."""
    return np.column_stack([k, 0.5 * k**2])


def omega_law_point(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev) -> tuple:
    """``(target, u, law.evaluate(u))``, ``u = [omega_prev, x_prev]``, with capital terms at ``params[:2]``."""
    u = _law_input(mstar_prev - cap_prev @ params[:2], x_prev)
    return y_cur - cap_cur @ params[:2], u, law.evaluate(u)


def omega_residual(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev, point=None) -> np.ndarray:
    """Residual of the omega law at ``params = (beta_k, beta_kk, coef)`` on lag-pair arrays.

    ``y_cur`` is the flexible-input-purged output, ``cap_*`` are
    :func:`capital_terms` and ``mstar_prev`` is the lagged omega proxy plus
    capital terms.  At a zero ``y_cur`` the residual is minus the fitted
    mean of the law.  ``point`` is :func:`omega_law_point` at ``params``.
    """
    target, _, basis = point or omega_law_point(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev)
    return target - np.dot(basis, params[2:])


def omega_residual_jacobian(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev, point=None) -> np.ndarray:
    """Derivative of :func:`omega_residual` in each parameter."""
    _, u, basis = point or omega_law_point(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev)
    dr = law.evaluate_deriv(u, 0) @ params[2:]
    out = _negated_basis(basis)
    for col, prev, cur in zip(out.T[:2], cap_prev.T, cap_cur.T):
        np.subtract(np.multiply(dr, prev, out=col), cur, out=col)
    return out


def last_point(law_point, *args):
    """``params -> law_point(params, *args)``, kept for the bytes of the last ``params[:2]``.

    Levenberg-Marquardt evaluates a Jacobian only at its latest residual evaluation, so the Jacobian finds its point here.
    """
    last = [None, None]

    def point(params):
        key = np.asarray(params[:2], dtype=float).tobytes()
        if key != last[0]:
            last[:] = key, law_point(params, *args)
        return last[1]

    return point


# -- the cross-product core of the linear laws ----------------------------------


def _block(*cols) -> np.ndarray:
    """1-D columns side by side, stored column-major for the products that read the block."""
    return np.stack(cols).T


def phi_law_columns(ml_cur, ml_prev, sl_cur, sl_prev, z_prev) -> np.ndarray:
    """The block ``E = [ml_cur, ml_prev, 1, s_cur, s_prev, z_prev]``."""
    return _block(ml_cur, ml_prev, np.ones(len(ml_cur)), sl_cur, sl_prev, *z_prev.T)


def phi_law_coef(alpha, delta_lm: float) -> np.ndarray:
    """``a`` at ``alpha = (beta_0, beta_l, rho_1, rho_2)``, with ``E a`` the innovation of the linear phi law.

    Proxied phi is ``ml + beta_l/beta_0 - (delta/beta_0)*s``, so ``a = [1,
    -rho_1, (beta_l/beta_0)(1 - rho_1), -delta/beta_0, rho_1*delta/beta_0,
    -rho_2]``.
    """
    # one array of Python floats: the joint refinement calls this per residual evaluation
    b0, bl, r1, *r2 = alpha.tolist()
    return np.array([1.0, -r1, bl / b0 * (1.0 - r1), -delta_lm / b0, r1 * delta_lm / b0, *[-v for v in r2]])


def phi_law_coef_jacobian(alpha, delta_lm: float) -> np.ndarray:
    """``da/dalpha`` of :func:`phi_law_coef`, one column per parameter."""
    b0, bl, r1 = alpha[0], alpha[1], alpha[2]
    pz = len(alpha) - 3
    out = np.zeros((5 + pz, 3 + pz))
    out[2:5, 0] = -bl / b0**2 * (1.0 - r1), delta_lm / b0**2, -r1 * delta_lm / b0**2
    out[2, 1] = (1.0 - r1) / b0
    out[1:5, 2] = -1.0, -bl / b0, 0.0, delta_lm / b0
    out[5:, 3:] = -np.eye(pz)
    return out


def omega_law_columns(y_cur, k_cur, k_prev, mstar_prev, x_prev) -> np.ndarray:
    """The block ``D = [y*_cur, 1, k_cur, k_cur^2/2, m*_prev, k_prev, k_prev^2/2, x_prev]``."""
    ones = np.ones(len(y_cur))
    return _block(y_cur, ones, k_cur, 0.5 * k_cur**2, mstar_prev, k_prev, 0.5 * k_prev**2, *x_prev.T)


def omega_law_coef(gamma) -> np.ndarray:
    """``c`` at ``gamma = (beta_k, beta_kk, rho_0, rho_1, rho_2)``, with ``D c`` the residual of the linear omega law.

    ``c = [1, -rho_0, -beta_k, -beta_kk, -rho_1, rho_1*beta_k, rho_1*beta_kk, -rho_2]``.
    """
    bk, bkk, g0, g1, *g2 = gamma.tolist()
    return np.array([1.0, -g0, -bk, -bkk, -g1, g1 * bk, g1 * bkk, *[-v for v in g2]])


def omega_law_coef_jacobian(gamma) -> np.ndarray:
    """``dc/dgamma`` of :func:`omega_law_coef`, one column per parameter."""
    bk, bkk, g1 = gamma[0], gamma[1], gamma[3]
    px = len(gamma) - 4
    out = np.zeros((7 + px, 4 + px))
    out[[2, 5], 0] = -1.0, g1
    out[[3, 6], 1] = -1.0, g1
    out[1, 2] = -1.0
    out[4:7, 3] = -1.0, bk, bkk
    out[7:, 4:] = -np.eye(px)
    return out


def proxied_omega_coef(gamma, beta_0: float, beta_l: float, delta_lm: float) -> np.ndarray:
    """:func:`omega_law_coef` carried through the proxied-phi expansion of ``y*`` and ``m*``.

    On proxied phi ``m - phi - l = (delta*s - beta_l)/beta_0``, so the
    flexible-input term is ``delta*m + (beta_l^2 - delta^2*s^2)/(2*beta_0)``
    and ``D c`` equals the returned coefficients times the block

        R = [y_cur - delta*m_cur, 1, s_cur^2, k_cur, k_cur^2/2,
             foc_prev - delta*m_prev, s_prev^2, k_prev, k_prev^2/2, x_prev],

    with ``foc_prev`` the lagged omega proxy plus flexible output.  The
    coefficients of ``y*`` and ``m*`` each carry over to the constant times
    ``-beta_l^2/(2*beta_0)`` and to their ``s^2`` column times
    ``delta^2/(2*beta_0)``.  The map is written out in one step because the
    joint refinement calls it at every residual evaluation.
    """
    bk, bkk, g0, g1, *g2 = gamma.tolist()
    curv = delta_lm**2 / (2.0 * beta_0)
    return np.array([
        1.0, -beta_l**2 / (2.0 * beta_0) * (1.0 - g1) - g0, curv, -bk, -bkk, -g1, -g1 * curv, g1 * bk, g1 * bkk,
        *[-v for v in g2],
    ])


def _proxied_omega_map(beta_0: float, beta_l: float, delta_lm: float, px: int) -> np.ndarray:
    """The matrix ``B`` with ``proxied_omega_coef(gamma, ...) == B @ omega_law_coef(gamma)`` at every ``gamma``.

    ``R B`` is the block ``D`` of :func:`omega_law_columns` on phi proxied at
    ``(beta_0, beta_l)``.
    """
    curv = delta_lm**2 / (2.0 * beta_0)
    shift = beta_l**2 / (2.0 * beta_0)
    out = np.zeros((9 + px, 7 + px))
    out[[0, 1, 3, 4, 5, 7, 8], [0, 1, 2, 3, 4, 5, 6]] = 1.0
    out[[1, 1, 2, 6], [0, 4, 0, 4]] = -shift, -shift, curv, curv
    out[9:, 7:] = np.eye(px)
    return out


#: (rows, columns) of the nonzero entries of :func:`proxied_omega_coef_jacobian` left of the ``rho_2`` columns
_PROXIED_OMEGA_JACOBIAN_ENTRIES = (
    np.array([1, 2, 6, 1, 3, 7, 4, 8, 1, 1, 5, 6, 7, 8]),
    np.array([0, 0, 0, 1, 2, 2, 3, 3, 4, 5, 5, 5, 5, 5]),
)


def proxied_omega_coef_jacobian(gamma, beta_0: float, beta_l: float, delta_lm: float) -> np.ndarray:
    """``dc/d(beta_0, beta_l, gamma)`` of :func:`proxied_omega_coef`, one column per parameter.

    The entries are set from Python floats in one call because the joint
    refinement calls this at every Jacobian evaluation.
    """
    bk, bkk, _, g1, *g2 = gamma.tolist()
    curv = delta_lm**2 / (2.0 * beta_0)
    shift = beta_l**2 / (2.0 * beta_0)
    px = len(g2)
    out = np.zeros((9 + px, 6 + px))
    out[_PROXIED_OMEGA_JACOBIAN_ENTRIES] = (
        shift / beta_0 * (1.0 - g1), -curv / beta_0, g1 * curv / beta_0,  # beta_0: rows 1, 2, 6
        -beta_l / beta_0 * (1.0 - g1),  # beta_l: row 1
        -1.0, g1,  # beta_k: rows 3, 7
        -1.0, g1,  # beta_kk: rows 4, 8
        -1.0,  # rho_0: row 1
        shift, -1.0, -curv, bk, bkk,  # rho_1: rows 1, 5, 6, 7, 8
    )
    out[9:, 6:] = -np.eye(px)
    return out
