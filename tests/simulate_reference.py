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

import dataclasses

import numpy as np

from prodsys.panel import PanelDataset, shares_from_logs
from prodsys.simulate import (
    FOC_TOL,
    NEWTON_STEPS,
    NEWTON_XTOL,
    DgpConfig,
    SimTruth,
    evolve_productivity,
    solve_ces_inputs,
)
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


# -- the one-dimensional solver and the panel generator, as they were --------
#
# ``former_generate_panel`` is ``prodsys.simulate.generate_panel`` as it was
# before the solve ran in place and simulated panels shared one index per
# size: it hands the solver flattened rows and a per-row copy of each price,
# and builds the index anew on every call.  ``former_solve_translog_inputs``
# is the one-dimensional solver of that version; ``_translog_foc`` and
# ``_foc_error`` above were the same text in it.  ``test_simulate.py``
# requires today's generator to give these panels and truths bit for bit.
# The bodies are kept exactly as they were; only the names carry ``former``.


def _former_translog_levels(params: TranslogParams, c, phi, ln_pm, x):
    """``(l, m)`` given ``x = m - phi - l``: the materials condition solved for ``m``."""
    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    m = (ln_pm - c + bl * x + 0.5 * b0 * x**2 - np.log(bm - b0 * x)) / (bl + bm - 1.0)
    return m - x - phi, m


def former_solve_translog_inputs(
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

    Their difference is one equation in ``x = m - phi - l``, free of omega,
    capital, theta, the markup and the output price:

        h(x) = x + phi + ln(e_l / e_m) + ln P^M - ln P^L = 0,
        e_l = beta_l + beta_0 x,  e_m = beta_m - beta_0 x.

    A vectorized Newton solves it from the Cobb-Douglas root (``beta_0 =
    0``), each step kept inside the interval where both elasticities are
    positive, and the materials condition gives the levels in closed form.
    A row is accepted when both conditions hold and ``h'(x) = 1 + beta_0
    (1/e_l + 1/e_m) > 0``: that root is the profit maximum, and for
    ``beta_0 < 0`` the two outer roots (``h' < 0``) are saddle points; for
    ``beta_0 > 0`` the root is unique.  Other rows go to a bisection.

    Returns ``(l, m, max_residual)``.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    # read-only views of the inputs: nothing below writes one
    phi = np.broadcast_to(np.asarray(phi, dtype=float), omega.shape)
    k = np.broadcast_to(np.asarray(k, dtype=float), omega.shape)
    ln_pl = np.broadcast_to(np.asarray(ln_price_l, dtype=float), omega.shape)
    ln_pm = np.broadcast_to(np.asarray(ln_price_m, dtype=float), omega.shape)
    ln_py = np.broadcast_to(np.asarray(ln_price_y, dtype=float), omega.shape)

    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    delta = bl + bm
    if delta >= 1.0:
        raise ValueError("static optimum requires beta_l + beta_m < 1")
    c = np.log(theta) - np.log(markup) + ln_py + params.beta_k * k + 0.5 * params.beta_kk * k**2 + omega

    lo, hi = sorted((-bl / b0, bm / b0)) if b0 else (-np.inf, np.inf)  # where e_l, e_m > 0
    g = phi + ln_pm - ln_pl
    x_cd = np.log(bm / bl) - g
    x = np.where((x_cd > lo) & (x_cd < hi), x_cd, 0.5 * (lo + hi))
    for _ in range(NEWTON_STEPS):
        e_l, e_m = bl + b0 * x, bm - b0 * x
        step = (x + g + np.log(e_l / e_m)) / (1.0 + b0 * delta / (e_l * e_m))  # 1/e_l + 1/e_m = delta/(e_l e_m)
        # no step goes more than halfway to an edge of the interval (np.clip without its overhead)
        x, x_old = np.minimum(np.maximum(x - step, 0.5 * (x + lo)), 0.5 * (x + hi)), x
        if not np.any(np.abs(x - x_old) > NEWTON_XTOL * (1.0 + np.abs(x))):
            break

    l, m = _former_translog_levels(params, c, phi, ln_pm, x)
    f1, f2, e_l, e_m = _translog_foc(params, c, phi, l, m, ln_pl, ln_pm)
    err = _foc_error(f1, f2)
    with np.errstate(divide="ignore", invalid="ignore"):
        open_rows = np.flatnonzero((err > FOC_TOL) | ~(1.0 + b0 * delta / (e_l * e_m) > 0.0))
    if open_rows.size:
        for i in open_rows:
            x[i] = _former_translog_bisect(params, float(g[i]), float(x_cd[i]), lo, hi)
        l, m = _former_translog_levels(params, c, phi, ln_pm, x)
        f1, f2, _, _ = _translog_foc(params, c, phi, l, m, ln_pl, ln_pm)
        err = _foc_error(f1, f2)
    if np.any(err > FOC_TOL):
        raise RuntimeError(f"static input solver failed on {int(np.sum(err > FOC_TOL))} observations")
    return l, m, float(np.max(err))


def _former_translog_bisect(params: TranslogParams, g: float, x_cd: float, lo: float, hi: float) -> float:
    """Fallback: a root of ``h(x) = x + g + ln(e_l / e_m)`` on ``(lo, hi)`` by bisection."""
    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    if b0 == 0.0:
        raise ValueError("bisection fallback requires beta_0 != 0")

    def h(x):
        return x + g + np.log(bl + b0 * x) - np.log(bm - b0 * x)

    eps = 1e-12 * max(1.0, hi - lo)
    grid = np.linspace(lo + eps, hi - eps, 4097)
    vals = h(grid)
    sign_change = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if sign_change.size == 0:
        raise RuntimeError("no root of the reduced first-order condition in the admissible region")
    # the root where h rises, the profit maximum; failing that, the one
    # closest to the Cobb-Douglas x, the beta_0 = 0 limit
    rising = sign_change[vals[sign_change] < vals[sign_change + 1]]
    pool = rising if rising.size else sign_change
    pick = pool[np.argmin(np.abs(grid[pool] - x_cd))]
    a, b = grid[pick], grid[pick + 1]
    fa = h(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = h(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _former_solve_static_inputs(params, omega, phi, k, **kwargs):
    """The dispatch of ``former_generate_panel``: the former translog solver, or today's CES one."""
    if isinstance(params, TranslogParams):
        return former_solve_translog_inputs(params, omega, phi, k, **kwargs)
    return solve_ces_inputs(params, omega, phi, k, **kwargs)


def former_generate_panel(config: DgpConfig, seed: int | None = None) -> tuple[PanelDataset, SimTruth]:
    """Simulate a balanced panel from the configured economy.

    Draw order (fixed): phi innovations, omega innovations, transitory
    shocks, omega initials, phi initials, capital initials, depreciation
    assignment.  Depreciation rates are split across firms in equal shares
    and randomly assigned.
    """
    config.validate()
    n, t_periods = config.n, config.t_periods
    rng = np.random.default_rng(np.random.SeedSequence(config.seed if seed is None else seed))

    zeta_phi = np.zeros((n, t_periods))
    zeta_omega = np.zeros((n, t_periods))
    zeta_phi[:, 1:] = rng.normal(0.0, config.sigma_phi, (n, t_periods - 1))
    zeta_omega[:, 1:] = rng.normal(0.0, config.sigma_omega, (n, t_periods - 1))
    eta = rng.normal(0.0, config.sigma_eta, (n, t_periods))
    omega_init = rng.uniform(*config.omega_init_range, n)
    phi_init = rng.uniform(*config.phi_init_range, n)
    k_init = rng.uniform(*config.k_init_range, n)
    dep_pool = np.resize(np.asarray(config.depreciation_rates, dtype=float), n)
    depreciation = rng.permutation(dep_pool)

    omega, phi = evolve_productivity(config.laws, zeta_omega, zeta_phi, omega_init, phi_init)

    iota_1, iota_2, iota_3 = config.iota
    cap = np.empty((n, t_periods))
    cap[:, 0] = k_init
    for t in range(1, t_periods):
        invest = cap[:, t - 1] ** iota_1 * np.exp(iota_2 * omega[:, t - 1]) * np.exp(iota_3 * phi[:, t - 1])
        cap[:, t] = invest + (1.0 - depreciation) * cap[:, t - 1]
    k = np.log(cap)

    p_y, p_l, p_m = config.price_arrays()
    theta = config.theta
    ln_py = np.broadcast_to(np.log(p_y), (n, t_periods))
    ln_pl = np.broadcast_to(np.log(p_l), (n, t_periods))
    ln_pm = np.broadcast_to(np.log(p_m), (n, t_periods))

    tech_params = config.params if config.technology == "translog" else config.ces
    l, m, max_resid = _former_solve_static_inputs(
        tech_params,
        omega.ravel(),
        phi.ravel(),
        k.ravel(),
        ln_price_y=ln_py.ravel(),
        ln_price_l=ln_pl.ravel(),
        ln_price_m=ln_pm.ravel(),
        theta=theta,
        markup=config.markup,
    )
    l = l.reshape(n, t_periods)
    m = m.reshape(n, t_periods)

    if config.technology == "translog":
        params = dataclasses.replace(config.params, theta=theta)
        x = m - phi - l
        ybar = (
            params.beta_k * k
            + 0.5 * params.beta_kk * k**2
            + params.beta_m * m
            + params.beta_l * (phi + l)
            - 0.5 * params.beta_0 * x**2
            + omega
        )
    else:
        params = dataclasses.replace(config.ces, theta=theta)
        a = params.exponent
        s = params.beta_k * np.exp(a * k) + np.exp(a * (phi + l)) + params.beta_m * np.exp(a * m)
        ybar = (params.nu / a) * np.log(s) + omega
    y = ybar + eta

    # the index in canonical form: zero-padded names sort as their codes, rows by (firm, year)
    name = f"f%0{len(str(n - 1))}d"
    firm_labels = np.array([name % i for i in range(n)], dtype=object)
    firm = np.repeat(np.arange(n, dtype=np.intp), t_periods)
    years = np.tile(np.arange(1, t_periods + 1), n)
    ln_pl_rel = (ln_pl - ln_py).ravel()
    ln_pm_rel = (ln_pm - ln_py).ravel()
    s_l, ln_r = shares_from_logs(y.ravel(), l.ravel(), m.ravel(), ln_pl_rel, ln_pm_rel)

    dataset = PanelDataset._from_index(
        firm_labels[firm],
        firm,
        firm_labels,
        years,
        y=y.ravel(),
        k=k.flatten(),  # copies: the truth keeps k, l and m, and the panel does not share them
        l=l.flatten(),
        m=m.flatten(),
        s_l=s_l,
        ln_r=ln_r,
        ln_price_l=ln_pl_rel,
        ln_price_m=ln_pm_rel,
    )
    truth = SimTruth(
        omega=omega,
        phi=phi,
        eta=eta,
        zeta_omega=zeta_omega,
        zeta_phi=zeta_phi,
        l=l,
        m=m,
        k=k,
        depreciation=depreciation,
        params=params,
        laws=config.laws,
        theta=theta,
        markup=config.markup,
        max_foc_residual=max_resid,
    )
    return dataset, truth
