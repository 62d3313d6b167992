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
time, and :func:`eigen_minimum` solves one of its ratio minima by a
Cholesky whitening, as the profile once did member by member.
:func:`build_level_instruments` forms the joint system's level instruments
``H`` on the lag pairs, :func:`inverse_root` whitens a Gram matrix, for
tests that form ``H'H`` and ``Q'Q`` from the rows, and :func:`psd_sqrt` is
the symmetric root of step three's cross-products.
"""

from __future__ import annotations

import numpy as np
from moments_reference import proxied_omega_map

from prodsys import optim, translog


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


def build_level_instruments(dataset):
    """The output-level instrument matrix ``H`` of the joint system on the lag pairs, and its column names."""
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    k_cur, k_prev, m_prev = dataset.k[cur], dataset.k[prev], dataset.m[prev]
    cols = [np.ones(cur.size), k_cur, k_cur**2, k_prev, k_prev**2, m_prev, m_prev - dataset.l[prev], dataset.s_l[prev],
            *dataset.x[prev].T, *dataset.z[prev].T]
    names = ("const", "k", "k_sq", "k_lag", "k_sq_lag", "m_lag", "ml_lag", "s_l_lag",
             *(f"{name}_lag" for name in (*dataset.x_names, *dataset.z_names)))
    return np.column_stack(cols), names


def inverse_root(gram):
    """``V diag(lambda^-1/2) V'`` of a positive definite Gram matrix."""
    vals, vecs = np.linalg.eigh(gram)
    return (vecs / np.sqrt(vals)) @ vecs.T


def psd_sqrt(weight):
    """The symmetric root ``V diag(lambda^1/2) V'`` of a positive semidefinite matrix, negative eigenvalues cut to 0."""
    vals, vecs = np.linalg.eigh(weight)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


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
    return psd_sqrt(r.T @ r / cur.size)


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
    proj_r, gram_e, gram_r, _ = translog._system_cross_products(dataset, step2, options, [])
    profile = translog._system_profile(step2.whitened_qe, gram_e, proj_r, gram_r, step1.delta_lm)
    slopes = translog._PROFILE_SLOPES
    curve = []
    for beta_0 in translog._PROFILE_BETA_0:
        (phi_crit, *_), (omega_crit, *_) = profile(np.full(slopes.size, beta_0), slopes)
        curve.append(np.min(phi_crit) + np.min(omega_crit))
    return np.array(curve)


def eigen_minimum(num, den, ratio, v):
    """The ratio minimum of one pencil ``(num, den)`` from its smallest generalized eigenvector, scaled to ``v[0] = 1``.

    A ``den`` that is not positive definite keeps the given ``(ratio, v)``.
    """
    try:
        root = np.linalg.inv(np.linalg.cholesky(den))
    except np.linalg.LinAlgError:
        return ratio, v
    u = root.T @ np.linalg.eigh(root @ num @ root.T)[1][:, 0]
    u = u / u[0]
    return (u @ num @ u) / (u @ den @ u), u


def system_vector(system) -> np.ndarray:
    """A :class:`~prodsys.translog.SystemResult` in the joint problem's coordinate order."""
    return np.concatenate((
        [system.beta_0, system.beta_l, system.rho_phi_1], system.rho_phi_2,
        [system.beta_k, system.beta_kk, system.rho_omega_0, system.rho_omega_1], system.rho_omega_2,
    ))
