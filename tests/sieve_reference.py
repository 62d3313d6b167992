"""The series fits as they were when each call formed the law's point afresh.

``sieve.sieve_step2_gmm`` and ``sieve.sieve_step3_nls`` hand their residual
and Jacobian one point per parameter vector (``moments.last_point``), so a
Jacobian reuses the basis its residual built.  The closures below are the
former ones: every residual and every Jacobian proxies the law's input and
evaluates the basis itself.  :func:`former_step2_problem` and
:func:`former_step3_problem` build those optimizer problems and their starts;
:func:`former_step2_fit` and :func:`former_step3_fit` solve them as the fits
do.  They are the oracle of the shared point: the same bits, fit by fit.
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
