"""Reference copies of the Levenberg-Marquardt loop and the finite-difference Jacobian.

These are the straightforward versions, one numpy call per textbook step:
the Jacobian evaluates the function at the centre to size its output,
the damped matrix is ``jtj + lam * np.diag(diag)`` and the step test uses
``np.linalg.norm``.  ``prodsys.optim`` does the same arithmetic with fewer
calls; ``test_optim.py`` requires both to return bitwise-equal results.
The function bodies are kept exactly as they were when the faster versions
replaced them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from prodsys.optim import STEP_TOL, NlsProblem, OptimResult


def finite_diff_jacobian(fun: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function.

    The per-coordinate step is ``1e-6 * max(1, |x_j|)``.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fun(x), dtype=float))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.atleast_1d(np.asarray(fun(xp), dtype=float))
        fm = np.atleast_1d(np.asarray(fun(xm), dtype=float))
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def _clip(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    lo, hi = bounds
    return np.minimum(np.maximum(x, lo), hi)


def _lm_single(problem: NlsProblem, x0, *, grad_tol, max_iter) -> OptimResult:
    resid = problem.residual
    jacfun = problem.jacobian or (lambda x: finite_diff_jacobian(resid, x))
    x = _clip(np.asarray(x0, dtype=float).copy(), problem.bounds)

    r = np.atleast_1d(np.asarray(resid(x), dtype=float))
    if not np.all(np.isfinite(r)):
        return OptimResult(x, np.inf, np.inf, 0, False, "infeasible start")
    obj = float(r @ r)
    lam = 1e-3
    grad_norm = np.inf
    status = "max iterations reached"
    converged = False

    for it in range(1, max_iter + 1):
        jac = np.atleast_2d(np.asarray(jacfun(x), dtype=float))
        grad = jac.T @ r
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < grad_tol:
            converged, status = True, "gradient tolerance reached"
            return OptimResult(x, obj, grad_norm, it - 1, converged, status)

        jtj = jac.T @ jac
        diag = np.maximum(np.diag(jtj), 1e-12)
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = _clip(x + step, problem.bounds)
            actual_step = x_new - x
            if np.linalg.norm(actual_step) <= STEP_TOL * (STEP_TOL + np.linalg.norm(x)):
                return OptimResult(x, obj, grad_norm, it, True, "step tolerance reached")
            r_new = np.atleast_1d(np.asarray(resid(x_new), dtype=float))
            if np.all(np.isfinite(r_new)) and float(r_new @ r_new) < obj:
                x, r, obj = x_new, r_new, float(r_new @ r_new)
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # no descent direction within damping budget: flat or at a kink
            return OptimResult(x, obj, grad_norm, it, True, "no further decrease possible")
    return OptimResult(x, obj, grad_norm, max_iter, converged, status)
