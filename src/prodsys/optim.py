"""Deterministic nonlinear least squares and GMM minimization.

A single damped Gauss-Newton (Levenberg-Marquardt) engine drives one
problem type, :class:`NlsProblem`: a GMM fit passes its moments, already
whitened by the caller, as the residual, so the loop's ``g'g`` is the GMM
criterion.  Every problem states its Jacobian.  The implementation is
pure numpy and contains no hidden randomness; given the same inputs it
produces the same iterates on every run.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NlsProblem",
    "OptimResult",
    "minimize_nls",
    "minimize_gmm",
    "finite_diff_jacobian",
]

#: default iteration controls for the Levenberg-Marquardt loop
GRAD_TOL = 1e-8
STEP_TOL = 1e-12
MAX_ITER = 500

#: accepted steps in a row that the box may cut short before a start stops
BOX_STALL_STEPS = 100

#: status of a start stopped after BOX_STALL_STEPS cut steps in a row
STALL_STATUS = "stalled along the box"


@dataclasses.dataclass
class NlsProblem:
    """Residual-based least squares: minimize ``sum(residual(x)**2)``.

    ``jacobian`` returns the residual's derivative, one column per
    parameter; a caller without a closed form can pass
    :func:`finite_diff_jacobian` of its residual.  ``bounds`` is an
    optional (lower, upper) pair of arrays; the iterates are kept inside
    the box by clipping trial steps, and a start whose last
    :data:`BOX_STALL_STEPS` accepted steps were all cut short by the box is
    sliding along a face, not converging: it stops at its current iterate
    with ``converged=False`` and status :data:`STALL_STATUS`.
    """

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    bounds: tuple[np.ndarray, np.ndarray] | None = None


@dataclasses.dataclass
class OptimResult:
    params: np.ndarray
    objective: float
    grad_norm: float
    n_iter: int
    converged: bool
    status: str
    start_index: int = 0


def finite_diff_jacobian(fun: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function.

    The per-coordinate step is ``1e-6 * max(1, |x_j|)``.  The function is
    evaluated only at the ``2 * len(x)`` perturbed points, so ``x`` must
    not be empty.
    """
    x = np.asarray(x, dtype=float)
    jac = None
    for j, xj in enumerate(x.tolist()):
        h = 1e-6 * max(1.0, abs(xj))
        xp = x.copy()
        xm = x.copy()
        xp[j] = xj + h
        xm[j] = xj - h
        fp = np.atleast_1d(np.asarray(fun(xp), dtype=float))
        fm = np.atleast_1d(np.asarray(fun(xm), dtype=float))
        if jac is None:
            jac = np.empty((fp.size, x.size))
        jac[:, j] = (fp - fm) / (2.0 * h)
    return jac


def _clip(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    lo, hi = bounds
    return np.minimum(np.maximum(x, lo), hi)


def _lm_single(problem: NlsProblem, x0, *, grad_tol, max_iter) -> OptimResult:
    # The loop runs thousands of times per estimate on problems of a dozen
    # parameters, so each step is one numpy call where the textbook form
    # takes several; tests/optim_reference.py keeps the textbook form, and
    # the two agree bit for bit.  The one rule the reference lacks stops a
    # start after BOX_STALL_STEPS accepted steps in a row that the box cut
    # short (the clipped trial's bits differ from x + step's); it only ends
    # a run early, so every iterate up to the stop is the reference loop's.
    resid, jacfun = problem.residual, problem.jacobian
    x = _clip(np.asarray(x0, dtype=float).copy(), problem.bounds)
    # accepted steps in a row that the box cut short; without bounds _clip
    # hands back the trial itself, so no step counts
    cut_run = 0

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
        # np.max, not Python max(): a NaN entry must make the norm NaN
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < grad_tol:
            converged, status = True, "gradient tolerance reached"
            return OptimResult(x, obj, grad_norm, it - 1, converged, status)

        jtj = jac.T @ jac
        p = jtj.shape[0]
        diag = np.maximum(jtj.diagonal(), 1e-12)
        neg_grad = -grad
        # np.linalg.norm of a 1-D float vector is sqrt(v.v)
        step_floor = STEP_TOL * (STEP_TOL + math.sqrt(x @ x))
        accepted = False
        while lam <= 1e12:
            damped = jtj.copy()
            damped.flat[::p + 1] += lam * diag
            try:
                step = np.linalg.solve(damped, neg_grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = x + step
            x_new = _clip(trial, problem.bounds)
            actual_step = x_new - x
            if math.sqrt(actual_step @ actual_step) <= step_floor:
                return OptimResult(x, obj, grad_norm, it, True, "step tolerance reached")
            r_new = np.atleast_1d(np.asarray(resid(x_new), dtype=float))
            # a NaN or inf residual has a NaN or inf objective, which is never lower
            obj_new = float(r_new @ r_new)
            if obj_new < obj:
                x, r, obj = x_new, r_new, obj_new
                # bytes, not an elementwise != and any(): a tenth of the cost
                cut_run = cut_run + 1 if x_new.tobytes() != trial.tobytes() else 0
                if cut_run >= BOX_STALL_STEPS:
                    return OptimResult(x, obj, grad_norm, it, False, STALL_STATUS)
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # no descent direction within damping budget: flat or at a kink
            return OptimResult(x, obj, grad_norm, it, True, "no further decrease possible")
    return OptimResult(x, obj, grad_norm, max_iter, converged, status)


def minimize_nls(
    problem: NlsProblem,
    x0,
    *,
    starts: Sequence[np.ndarray] | None = None,
    grad_tol: float = GRAD_TOL,
    max_iter: int = MAX_ITER,
) -> OptimResult:
    """Levenberg-Marquardt minimization of ``sum(residual**2)``.

    When ``starts`` is given, the solver runs from ``x0`` and from every
    extra start and returns the best result, ranked by the key ``(not
    converged, objective)``: a converged start beats one that is not, and
    among the rest the lowest objective wins (earliest start wins ties).

    A start that runs out of iterations, or stops after sliding along the
    box (status :data:`STALL_STATUS`), is unconverged like any other: it is
    often still moving toward the box, where its objective can undercut an
    interior optimum it would never settle at.  The rule reads each
    result's ``converged`` flag as :func:`_lm_single` sets it, so it is only
    as strict as that flag.
    Starts where the residual is not finite never converge and so lose to
    any start that does.
    """
    all_starts = [np.asarray(x0, dtype=float)]
    if starts is not None:
        all_starts += [np.asarray(s, dtype=float) for s in starts]
    results = []
    for idx, start in enumerate(all_starts):
        res = _lm_single(problem, start, grad_tol=grad_tol, max_iter=max_iter)
        res.start_index = idx
        results.append(res)
    # min keeps the first of equal keys
    return min(results, key=lambda res: (not res.converged, res.objective))


def minimize_gmm(
    problem: NlsProblem,
    x0,
    *,
    starts: Sequence[np.ndarray] | None = None,
    grad_tol: float = GRAD_TOL,
    max_iter: int = MAX_ITER,
) -> OptimResult:
    """:func:`minimize_nls` with whitened moments ``g`` as the residual, so the objective is the GMM criterion ``g'g``."""
    return minimize_nls(problem, x0, starts=starts, grad_tol=grad_tol, max_iter=max_iter)
