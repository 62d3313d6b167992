"""The joint system's former start rule, kept as the oracle of its profile scan.

``translog.system_refine`` polishes one start, the lowest interior local
minimum of its profile ``J(beta_0)``, and polishes the sequential point
(step two's and step three's answers) too only where that polish fails or
ends above it.  Before the profile it ran the same problem from a list of
seeds: the sequential point, one seed per other minimum of step two's slope
profile (that minimum, with the lowest minimum of step three's profile at
its proxied phi), and the fixed start ``(beta_0, beta_l) = (-0.2,
delta/2)``.
:func:`reference_system_fit` runs that list on the problem the estimator
builds, so a test can compare the two rules' answers, and
:func:`profile_curve` recomputes the scanned profile one curvature at a
time.
"""

from __future__ import annotations

import numpy as np
from moments_reference import proxied_omega_map

from prodsys import optim, translog
from prodsys.optim import _psd_sqrt


class _Captured(Exception):
    """Stops ``system_refine`` once its optimizer problem is in hand."""


def system_problem(dataset, step1, step2, step3, options):
    """The :class:`~prodsys.optim.NlsProblem` that ``system_refine`` hands the optimizer."""
    seen = {}

    def capture(problem, x0, **_):
        seen["problem"] = problem
        raise _Captured

    real = translog.minimize_nls
    translog.minimize_nls = capture
    try:
        translog.system_refine(dataset, step1, step2, step3, options)
    except _Captured:
        pass
    finally:
        translog.minimize_nls = real
    return seen["problem"]


def uncentered_root(dataset, step1, options):
    """A symmetric root of the uncentered ``R'R / n`` of the joint system's omega block.

    ``R`` is the block of :func:`~prodsys.moments.proxied_omega_coef`, formed
    here column by column; carried to a step-two point by
    :func:`moments_reference.proxied_omega_map`, the root is a root of step
    three's ``D'D`` there.
    """
    delta = step1.delta_lm
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    foc_prev = translog._foc_term(dataset, delta, step1.theta, options.proxy)[prev]
    m_cur, m_prev, s_cur, s_prev = dataset.m[cur], dataset.m[prev], dataset.s_l[cur], dataset.s_l[prev]
    k_cur, k_prev = dataset.k[cur], dataset.k[prev]
    r = np.column_stack([
        dataset.y[cur] - delta * m_cur, np.ones(cur.size), s_cur**2, k_cur, 0.5 * k_cur**2,
        foc_prev - delta * m_prev, s_prev**2, k_prev, 0.5 * k_prev**2, *dataset.x[prev].T,
    ])
    return _psd_sqrt(r.T @ r / cur.size)


def reference_starts(dataset, step1, step2, step3, options, bounds):
    """The former start list: the sequential point, step two's other minima as seeds, and the fixed start."""
    delta, pz, px = step1.delta_lm, dataset.z.shape[1], dataset.x.shape[1]
    lo, hi = bounds
    starts = [np.concatenate((
        [step2.beta_0, step2.beta_l, step2.rho_phi_1], step2.rho_phi_2,
        [step3.beta_k, step3.beta_kk, step3.rho_omega_0, step3.rho_omega_1], step3.rho_omega_2,
    ))]
    root = uncentered_root(dataset, step1, options)
    for alpha in translog._phi_slope_minima(step2.whitened_qe, delta, translog._beta_box(delta)):
        if abs(alpha[2] - step2.rho_phi_1) < 1e-6:
            continue  # the sequential point's own minimum
        gammas = translog._omega_slope_minima(root @ proxied_omega_map(alpha[0], alpha[1], delta, px))
        if gammas:
            starts.append(np.concatenate((alpha, gammas[0])))
    starts = [np.clip(start, lo + 1e-9, hi - 1e-9) for start in starts]
    starts.append(np.concatenate(([-0.2, 0.5 * delta, 0.5], np.zeros(pz), [0.1, 0.0, 0.0, 0.5], np.zeros(px))))
    return starts


def reference_system_fit(dataset, options):
    """``(OptimResult, starts)`` of the joint problem run from the former start list."""
    step1 = translog.step1_cost_share(dataset)
    step2 = translog.step2_gmm(dataset, step1, options)
    step3 = translog.step3_nls(dataset, step1, step2, options)
    problem = system_problem(dataset, step1, step2, step3, options)
    starts = reference_starts(dataset, step1, step2, step3, options, problem.bounds)
    result = optim.minimize_nls(problem, starts[0], starts=starts[1:],
                                grad_tol=options.grad_tol, max_iter=options.max_iter)
    return result, starts


def profile_curve(dataset, step1, step2, options) -> np.ndarray:
    """The scanned ``J(beta_0)`` on the profile's grid, one curvature at a time."""
    proj_r, gram_e, gram_r, _ = translog._system_cross_products(dataset, step1, options, [])
    profile = translog._system_profile(step2.whitened_qe, gram_e, proj_r, gram_r, step1.delta_lm)
    slopes = translog._PROFILE_SLOPES
    curve = []
    for beta_0 in translog._PROFILE_BETA_0:
        (phi_crit, *_), (omega_crit, *_) = profile(np.full(slopes.size, beta_0), slopes)
        curve.append(np.min(phi_crit) + np.min(omega_crit))
    return np.array(curve)


def system_vector(system) -> np.ndarray:
    """A :class:`~prodsys.translog.SystemResult` in the joint problem's coordinate order."""
    return np.concatenate((
        [system.beta_0, system.beta_l, system.rho_phi_1], system.rho_phi_2,
        [system.beta_k, system.beta_kk, system.rho_omega_0, system.rho_omega_1], system.rho_omega_2,
    ))
