"""Reference copy of the translog static-input solver.

This is the two-dimensional version: a vectorized damped Newton in
``(l, m)`` from the Cobb-Douglas solution, each step backtracked until both
input elasticities are positive, with a per-row bisection on the reduced
condition in ``x = m - phi - l`` for the rows Newton leaves open.
``prodsys.simulate.solve_translog_inputs`` solves the reduced condition by
a one-dimensional Newton instead; ``test_simulate.py`` requires both to give
the same inputs wherever this version succeeds.  The function bodies are
kept exactly as they were when the one-dimensional version replaced them.
"""

from __future__ import annotations

import numpy as np

from prodsys.simulate import FOC_TOL
from prodsys.translog import TranslogParams


def _translog_foc(params: TranslogParams, c, phi, l, m, ln_pl, ln_pm):
    """Both first-order conditions in logs and the input elasticities."""
    x = m - phi - l
    e_l = params.beta_l + params.beta_0 * x
    e_m = params.beta_m - params.beta_0 * x
    base = c + params.beta_m * m + params.beta_l * (phi + l) - 0.5 * params.beta_0 * x**2
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = base - l + np.log(e_l) - ln_pl
        f2 = base - m + np.log(e_m) - ln_pm
    return f1, f2, e_l, e_m


def _foc_error(f1, f2):
    err = np.maximum(np.abs(f1), np.abs(f2))
    return np.where(np.isnan(err), np.inf, err)


def solve_translog_inputs(
    params: TranslogParams,
    omega,
    phi,
    k,
    *,
    ln_price_y=0.0,
    ln_price_l=0.0,
    ln_price_m=0.0,
    theta: float = 1.0,
    markup: float = 1.0,
):
    """Optimal (l, m) from the two static first-order conditions.

    Vectorized damped Newton in (l, m), started at the Cobb-Douglas
    solution (the ``beta_0 = 0`` limit, where the system is linear).  The
    economically relevant optimum is the one with positive labor and
    material elasticities; steps are backtracked to stay in that region.
    Rows that Newton fails to close are finished by a bisection on the
    one-dimensional reduced condition in ``x = m - phi - l``.

    Returns ``(l, m, max_residual)``.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    phi = np.broadcast_to(np.asarray(phi, dtype=float), omega.shape).astype(float)
    k = np.broadcast_to(np.asarray(k, dtype=float), omega.shape).astype(float)
    ln_pl = np.broadcast_to(np.asarray(ln_price_l, dtype=float), omega.shape).astype(float)
    ln_pm = np.broadcast_to(np.asarray(ln_price_m, dtype=float), omega.shape).astype(float)
    ln_py = np.broadcast_to(np.asarray(ln_price_y, dtype=float), omega.shape).astype(float)

    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    delta = bl + bm
    if delta >= 1.0:
        raise ValueError("static optimum requires beta_l + beta_m < 1")
    c = np.log(theta) - np.log(markup) + ln_py + params.beta_k * k + 0.5 * params.beta_kk * k**2 + omega

    # Cobb-Douglas start: with beta_0 = 0 the log FOCs are linear in (l, m)
    b1 = -(c + bl * phi + np.log(bl) - ln_pl)
    b2 = -(c + bl * phi + np.log(bm) - ln_pm)
    det = 1.0 - delta
    l = ((bm - 1.0) * b1 - bm * b2) / det
    m = ((bl - 1.0) * b2 - bl * b1) / det

    f1, f2, e_l, e_m = _translog_foc(params, c, phi, l, m, ln_pl, ln_pm)
    err = _foc_error(f1, f2)
    for _ in range(100):
        active = err > 1e-13
        if not np.any(active):
            break
        x = m - phi - l
        a11 = e_l - 1.0 - b0 / e_l
        a12 = e_m + b0 / e_l
        a21 = e_l + b0 / e_m
        a22 = e_m - 1.0 - b0 / e_m
        det2 = a11 * a22 - a12 * a21
        det2 = np.where(np.abs(det2) < 1e-300, np.nan, det2)
        dl = (a12 * f2 - a22 * f1) / det2
        dm = (a21 * f1 - a11 * f2) / det2
        dl = np.where(active & np.isfinite(dl), dl, 0.0)
        dm = np.where(active & np.isfinite(dm), dm, 0.0)

        scale = np.ones_like(l)
        for _ in range(60):
            l_new = l + scale * dl
            m_new = m + scale * dm
            x_new = m_new - phi - l_new
            bad = active & ((bl + b0 * x_new <= 0) | (bm - b0 * x_new <= 0))
            if not np.any(bad):
                break
            scale = np.where(bad, scale * 0.5, scale)
        f1_new, f2_new, e_l_new, e_m_new = _translog_foc(params, c, phi, l_new, m_new, ln_pl, ln_pm)
        err_new = np.maximum(np.abs(f1_new), np.abs(f2_new))
        improve = active & (err_new <= err)
        # halve once more for rows that overshot; full vector retry next pass
        l = np.where(improve, l_new, np.where(active, l + 0.5 * scale * dl, l))
        m = np.where(improve, m_new, np.where(active, m + 0.5 * scale * dm, m))
        f1, f2, e_l, e_m = _translog_foc(params, c, phi, l, m, ln_pl, ln_pm)
        err = _foc_error(f1, f2)

    if np.any(err > FOC_TOL):
        bad = np.flatnonzero(err > FOC_TOL)
        for i in bad:
            l[i], m[i] = _translog_bisect(params, float(c[i]), float(phi[i]), float(ln_pl[i]), float(ln_pm[i]))
        f1, f2, _, _ = _translog_foc(params, c, phi, l, m, ln_pl, ln_pm)
        err = _foc_error(f1, f2)
    if np.any(err > FOC_TOL):
        raise RuntimeError(f"static input solver failed on {int(np.sum(err > FOC_TOL))} observations")
    return l, m, float(np.max(err))


def _translog_bisect(params: TranslogParams, c: float, phi: float, ln_pl: float, ln_pm: float):
    """One-dimensional fallback: root of the FOC difference in x = m - phi - l."""
    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    delta = bl + bm

    if b0 < 0:
        lo_x, hi_x = -bm / abs(b0), bl / abs(b0)
    elif b0 > 0:
        lo_x, hi_x = -bl / b0, bm / b0
    else:
        raise ValueError("bisection fallback requires beta_0 != 0")
    eps = 1e-12 * max(1.0, hi_x - lo_x)
    lo_x, hi_x = lo_x + eps, hi_x - eps

    def h(x):
        return x + phi + np.log(bl + b0 * x) - np.log(bm - b0 * x) + ln_pm - ln_pl

    # anchor on the Cobb-Douglas x; with several roots the economically
    # relevant one is the closest to the beta_0 = 0 limit
    x_cd = np.clip((ln_pl - np.log(bl)) - (ln_pm - np.log(bm)) - phi, lo_x, hi_x)
    grid = np.linspace(lo_x, hi_x, 4097)
    vals = h(grid)
    sign_change = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if sign_change.size == 0:
        raise RuntimeError("no root of the reduced first-order condition in the admissible region")
    pick = sign_change[np.argmin(np.abs(grid[sign_change] - x_cd))]
    a, b = grid[pick], grid[pick + 1]
    fa = h(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = h(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    x = 0.5 * (a + b)
    m = (ln_pm - c + bl * x + 0.5 * b0 * x**2 - np.log(bm - b0 * x)) / (delta - 1.0)
    return m - x - phi, m
