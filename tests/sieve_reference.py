"""The series fits as they were when each call formed the law's point afresh.

``sieve.sieve_step2_gmm`` and ``sieve.sieve_step3_nls`` hand their residual
and Jacobian one point per parameter vector (``moments.last_point``), so a
Jacobian reuses the basis its residual built.  The closures below are the
former ones: every residual and every Jacobian proxies the law's input and
evaluates the basis itself.  :func:`former_step2_problem` and
:func:`former_step3_problem` build those optimizer problems and their starts;
:func:`former_step2_fit` and :func:`former_step3_fit` solve them as the fits
do.  They are the oracle of the shared point: the same bits, fit by fit.

:func:`former_monomials` and the ``former_`` law points, residuals and
Jacobians after them are frozen copies of the series arithmetic itself, the
oracle of its bits (``test_sieve.py``).
"""

from __future__ import annotations

import numpy as np

from prodsys import sieve, translog
from prodsys.moments import (
    capital_terms,
    omega_residual,
    omega_residual_jacobian,
    phi_innovation,
    phi_innovation_jacobian,
    phi_proxy,
)
from prodsys.optim import minimize_gmm, minimize_nls


def former_step2_problem(dataset, step1, basis, options):
    """``(problem, starts)`` of the step-two series GMM, with the former closures."""
    delta = step1.delta_lm
    arrays = translog._step2_arrays(dataset)
    q, _ = sieve.build_sieve_instruments(dataset, degree=basis.degree, kind=options.instruments)
    n_pairs = q.shape[0]
    whiten = translog._inverse_root(q.T @ q / n_pairs, "instrument", []) @ q.T / n_pairs
    args = (basis, delta, *arrays)
    return translog._phi_law_gmm(
        lambda alpha: whiten @ phi_innovation(alpha, *args),
        lambda alpha: whiten @ phi_innovation_jacobian(alpha, *args),
        2 + sieve._linear_term_index(basis, 0), 2 + basis.n_terms, delta,
    )


def former_step2_fit(dataset, step1, basis, options):
    """``(result, phi_hat)``: the optimizer's result and phi proxied at its point."""
    problem, starts = former_step2_problem(dataset, step1, basis, options)
    result = minimize_gmm(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)
    beta_0, beta_l = result.params[0], result.params[1]
    return result, phi_proxy(dataset.m - dataset.l, dataset.s_l, beta_0, beta_l, step1.delta_lm)


def former_step3_problem(dataset, step1, step2, basis, options):
    """``(problem, starts)`` of the step-three series NLS at ``step2``'s point, with the former closures."""
    ystar, mstar = translog._omega_law_data(
        dataset, step2.beta_0, step2.beta_l, step1.delta_lm, step1.theta, options.proxy)
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    args = (
        basis, ystar[cur], capital_terms(dataset.k[cur]), capital_terms(dataset.k[prev]),
        mstar[prev], dataset.x[prev],
    )
    return translog._omega_law_nls(
        lambda gamma: omega_residual(gamma, *args),
        lambda gamma: omega_residual_jacobian(gamma, *args),
        2 + sieve._linear_term_index(basis, 0), 2 + basis.n_terms,
        np.column_stack([args[2], np.ones(cur.size)]), ystar[cur],
    )


def former_step3_fit(dataset, step1, step2, basis, options):
    """The optimizer's result of the step-three series NLS."""
    problem, starts = former_step3_problem(dataset, step1, step2, basis, options)
    return minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)


# -- the series layer's arithmetic, frozen ---------------------------------------
#
# Copies of ``SieveBasis._monomials``, of the law points and of both series
# residuals and Jacobians as they were when the term columns and Jacobian
# columns were written as whole (n, k) arrays: each derivative's factor by
# ``out *= factor``, the basis block of a Jacobian by one ``np.negative``.
# They call nothing in ``prodsys``, so a change of the live code's bits shows
# against them.


def _former_columns(*blocks):
    cols = [col for block in blocks for col in (block.T if np.ndim(block) == 2 else [block])]
    if len(cols) == 1:
        return cols[0][:, None]
    return np.column_stack(cols)


def _former_phi_proxy(m_minus_l, s_l, beta_0, beta_l, delta_lm):
    return np.asarray(m_minus_l, dtype=float) + beta_l / beta_0 - (delta_lm / beta_0) * np.asarray(s_l, dtype=float)


def former_monomials(basis, u, coord=None):
    """``basis.evaluate(u)``, or ``basis.evaluate_deriv(u, coord)``, as a fresh power table and product plan."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    expo = basis.exponents
    factor = None
    if coord is not None:
        factor = expo[:, coord] / float(basis.scales[coord])
        expo = expo.copy()
        expo[:, coord] = np.maximum(expo[:, coord] - 1, 0)
    terms = tuple(tuple((d, e) for d, e in enumerate(row) if e) or ((0, 0),) for row in expo.tolist())
    z = ((u - basis.centers) / basis.scales).T
    table = np.empty((basis.dim, int(basis.exponents.max(initial=0)) + 1, z.shape[1]))
    table[:, 0] = 1.0
    for p in range(1, table.shape[1]):
        np.multiply(table[:, p - 1], z, out=table[:, p])
    out = np.empty((u.shape[0], len(terms)))
    for col, (first, *rest) in zip(out.T, terms):
        if not rest:
            col[...] = table[first]
            continue
        np.multiply(table[first], table[rest[0]], out=col)
        for later in rest[1:]:
            np.multiply(col, table[later], out=col)
    if factor is not None:
        out *= factor
    return out


class FormerLaw:
    """A law object whose basis is :func:`former_monomials` of ``basis``."""

    def __init__(self, basis):
        self.basis = basis

    def evaluate(self, u):
        return former_monomials(self.basis, u)

    def evaluate_deriv(self, u, coord):
        return former_monomials(self.basis, u, coord)


def former_phi_law_point(params, law, delta_lm, ml_cur, ml_prev, sl_cur, sl_prev, z_prev):
    u = _former_columns(_former_phi_proxy(ml_prev, sl_prev, params[0], params[1], delta_lm), z_prev)
    return _former_phi_proxy(ml_cur, sl_cur, params[0], params[1], delta_lm), u, law.evaluate(u)


def former_phi_innovation(params, law, delta_lm, ml_cur, ml_prev, sl_cur, sl_prev, z_prev):
    phi_cur, _, basis = former_phi_law_point(params, law, delta_lm, ml_cur, ml_prev, sl_cur, sl_prev, z_prev)
    return phi_cur - np.dot(basis, params[2:])


def former_phi_innovation_jacobian(params, law, delta_lm, ml_cur, ml_prev, sl_cur, sl_prev, z_prev):
    beta_0, beta_l, coef = params[0], params[1], params[2:]
    _, u, basis = former_phi_law_point(params, law, delta_lm, ml_cur, ml_prev, sl_cur, sl_prev, z_prev)
    dr = law.evaluate_deriv(u, 0) @ coef
    d_beta0 = (-beta_l * (1.0 - dr) + delta_lm * (sl_cur - dr * sl_prev)) / beta_0**2
    out = np.empty((basis.shape[0], 2 + basis.shape[1]))
    out[:, 0], out[:, 1] = d_beta0, (1.0 - dr) / beta_0
    np.negative(basis, out=out[:, 2:])
    return out


def former_omega_law_point(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev):
    u = _former_columns(mstar_prev - cap_prev @ params[:2], x_prev)
    return y_cur - cap_cur @ params[:2], u, law.evaluate(u)


def former_omega_residual(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev):
    target, _, basis = former_omega_law_point(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev)
    return target - np.dot(basis, params[2:])


def former_omega_residual_jacobian(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev):
    _, u, basis = former_omega_law_point(params, law, y_cur, cap_cur, cap_prev, mstar_prev, x_prev)
    dr = law.evaluate_deriv(u, 0) @ params[2:]
    out = np.empty((basis.shape[0], 2 + basis.shape[1]))
    np.subtract(dr[:, None] * cap_prev, cap_cur, out=out[:, :2])
    np.negative(basis, out=out[:, 2:])
    return out
