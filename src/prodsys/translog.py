"""Three-step estimation of a restricted translog production function.

The technology is log-quadratic with a homogeneity restriction on the
flexible inputs (materials ``m`` and labor ``l``) and two latent
productivity components: a factor-neutral term ``omega`` and a
labor-augmenting term ``phi`` that enters only through ``phi + l``:

    y = beta_k*k + 0.5*beta_kk*k^2 + beta_m*m + beta_l*(phi + l)
        - 0.5*beta_0*(m - phi - l)^2 + omega + eta,

with the single curvature parameter ``beta_0 = -beta_mm = -beta_ll =
beta_ml``.  Step one recovers the returns to scale in flexible inputs
``delta_lm = beta_l + beta_m`` and the transitory-shock scale ``theta =
E[exp(eta)]`` from the revenue-to-expenditure ratio.  Step two estimates
``(beta_0, beta_l)`` and the law of motion of ``phi`` by GMM, using the
fact that ``phi`` is an exact function of the labor-materials ratio and
the labor expenditure share.  Step three estimates the capital
coefficients and the law of motion of ``omega`` by nonlinear least
squares, proxying lagged ``omega`` through a first-order condition.

The default pipeline finishes with a joint refinement that stacks the
step-two moments with instrumented step-three moments and re-minimizes
over both parameter blocks at once; ``system_refine`` documents why the
sequential step-two criterion alone is nearly flat in the curvature
parameter.

The laws' residuals, their Jacobians and the flexible-input part of log
output are defined once in :mod:`prodsys.moments`, and every purged output
``y*`` and omega proxy ``m*`` subtracts
:func:`~prodsys.moments.flexible_output`.  Under the linear laws each
residual is a fixed block of data columns times coefficients of the
candidate (the moments module's cross-product core).  Every block is a
fixed map of one set of lag-pair columns, so one pass over the pairs forms
their Gram once per estimate (:func:`_lag_pair_gram`, kept in step two's
record) and no later fit or optimizer iteration touches an array as long
as the panel: step two reads ``Q'Q`` and ``Q'E``, step three a root of
``D'D = B'(R'R)B`` at its proxied phi, and the joint refinement ``H'H``,
``H'R`` and the centered Gram matrices of both blocks.  Each instrument
Gram whitens its moments through one inverse root taken of the Gram itself
(:func:`_inverse_root`), so no fit hands the optimizer a weight matrix.

At a fixed slope in lagged productivity each linear-law fit is a linear
least-squares problem in its other coefficients, so steps two and three
scan that one slope (:func:`_slope_profile`) and polish each local minimum
of the profile with one optimizer start.  The joint refinement goes one
coordinate further: at a fixed curvature ``beta_0`` its criterion splits
into the two blocks, each a one-slope problem with its other coefficients
in closed form, so it scans its profile over ``beta_0``
(:func:`_system_profile`) and polishes the lowest interior minimum with one
start, checked against the sequential point.  The series laws of
:mod:`prodsys.sieve` keep the lag-pair residuals, with the same bounds and
their own start grids (:func:`_phi_law_gmm`, :func:`_omega_law_nls`).

Every step takes the run's :class:`EstimateOptions` as one required
argument, so no fit can fall back to settings its caller did not choose;
only the entry points (:func:`estimate` here) default and validate them.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .moments import (
    _proxied_omega_map,
    flexible_output,
    omega_law_coef,
    omega_law_coef_jacobian,
    phi_law_coef,
    phi_law_coef_jacobian,
    phi_proxy,
    proxied_omega_coef,
    proxied_omega_coef_jacobian,
)
from .optim import GRAD_TOL, MAX_ITER, NlsProblem, OptimResult, finite_diff_jacobian
from .optim import minimize_gmm, minimize_nls
from .panel import PanelDataset

__all__ = [
    "TranslogParams",
    "ProductivityLaws",
    "Step1Result",
    "Step2Result",
    "Step3Result",
    "SystemResult",
    "TranslogEstimate",
    "EstimateOptions",
    "PROXIES",
    "step1_cost_share",
    "phi_proxy",
    "build_instruments",
    "step2_gmm",
    "omega_proxy",
    "step3_core",
    "step3_nls",
    "system_refine",
    "recover_productivity",
    "estimate",
]

#: the inputs whose first-order condition can proxy omega (``EstimateOptions.proxy``)
PROXIES = ("materials", "labor", "average")


@dataclasses.dataclass
class TranslogParams:
    """Technology parameters; ``theta`` is the transitory-shock scale E[exp(eta)]."""

    beta_k: float
    beta_kk: float
    beta_l: float
    beta_m: float
    beta_0: float
    theta: float = 1.0

    @property
    def delta_lm(self) -> float:
        return self.beta_l + self.beta_m

    def validate(self) -> None:
        vals = dataclasses.astuple(self)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("non-finite translog parameter")
        if self.beta_l <= 0 or self.beta_m <= 0:
            raise ValueError("beta_l and beta_m must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")


@dataclasses.dataclass
class ProductivityLaws:
    """First-order autoregressive laws of motion for omega and phi.

    ``omega' = rho_omega_0 + rho_omega_1*omega + rho_omega_2'X + noise`` and
    ``phi' = rho_phi_1*phi + rho_phi_2'Z + noise`` (no intercept for phi).
    """

    rho_phi_1: float
    rho_omega_0: float
    rho_omega_1: float
    rho_phi_2: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    rho_omega_2: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        self.rho_phi_2 = np.atleast_1d(np.asarray(self.rho_phi_2, dtype=float))
        self.rho_omega_2 = np.atleast_1d(np.asarray(self.rho_omega_2, dtype=float))

    def validate(self) -> None:
        if not (abs(self.rho_phi_1) < 1 and abs(self.rho_omega_1) < 1):
            raise ValueError("autoregressive roots must lie strictly inside the unit circle")
        if not (np.all(np.isfinite(self.rho_phi_2)) and np.all(np.isfinite(self.rho_omega_2))
                and np.isfinite(self.rho_omega_0)):
            raise ValueError("non-finite law-of-motion parameter")


@dataclasses.dataclass
class Step1Result:
    delta_lm: float
    theta: float
    ln_theta_delta: float
    eta_hat: np.ndarray


@dataclasses.dataclass
class Step2Result:
    """Step two's fit, with the cross-products step three and the joint refinement read.

    ``gram`` and ``centered_gram`` are the lag-pair Gram ``X'X`` of
    :func:`_lag_pair_gram` and that of the centered columns (``None`` under
    ``refine="none"``), one row and column per key in ``gram_columns``;
    step three and the joint refinement take their blocks from them.
    ``whitened_qe`` is ``S Q'E / n_pairs``, one row per instrument, with
    ``S`` the :func:`_inverse_root` of ``Q'Q / n_pairs`` (see
    :func:`step2_gmm`).
    """

    beta_0: float
    beta_l: float
    beta_m: float
    rho_phi_1: float
    rho_phi_2: np.ndarray
    phi_hat: np.ndarray
    objective: float
    converged: bool
    n_pairs: int
    instrument_names: tuple[str, ...]
    whitened_qe: np.ndarray
    gram: np.ndarray
    centered_gram: np.ndarray | None
    gram_columns: tuple[str, ...]
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Step3Result:
    beta_k: float
    beta_kk: float
    rho_omega_0: float
    rho_omega_1: float
    rho_omega_2: np.ndarray
    objective: float
    converged: bool
    proxy: str
    n_pairs: int
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class SystemResult:
    """Joint refinement of the step-two and step-three parameter blocks; ``phi_hat`` is phi proxied at its point."""

    beta_0: float
    beta_l: float
    beta_m: float
    rho_phi_1: float
    rho_phi_2: np.ndarray
    beta_k: float
    beta_kk: float
    rho_omega_0: float
    rho_omega_1: float
    rho_omega_2: np.ndarray
    phi_hat: np.ndarray
    objective: float
    converged: bool
    n_pairs: int
    instrument_names: tuple[str, ...]
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class TranslogEstimate:
    params: TranslogParams
    laws: ProductivityLaws
    phi_hat: np.ndarray
    omega_hat: np.ndarray
    eta_hat: np.ndarray
    step1: Step1Result
    step2: Step2Result
    step3: Step3Result
    options: EstimateOptions  # the validated settings of the run
    system: SystemResult | None = None
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class EstimateOptions:
    """Settings of every fit of a run, handed whole to each step.

    ``proxy`` picks the omega proxy's first-order condition, ``instruments``
    the step-two instrument set and ``refine`` whether the joint refinement
    runs; ``grad_tol`` and ``max_iter`` go to every optimizer start.
    """

    proxy: str = "materials"  # materials | labor | average
    instruments: str = "default"  # default | exactly_identified
    refine: str = "system"  # system | none
    grad_tol: float = GRAD_TOL
    max_iter: int = MAX_ITER

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first setting outside its allowed values."""
        choices = {"proxy": PROXIES, "instruments": ("default", "exactly_identified"), "refine": ("system", "none")}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}; got {getattr(self, name)!r}")
        if not 0.0 < self.grad_tol < 1.0:
            raise ValueError(f"grad_tol must lie in (0, 1), got {self.grad_tol!r}")
        if not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


# -- step one ----------------------------------------------------------------


def step1_cost_share(dataset: PanelDataset) -> Step1Result:
    """Recover flexible-input returns to scale and the shock scale.

    The log revenue-to-expenditure ratio satisfies ``ln R = ln(theta *
    delta_lm) - eta`` with ``E[eta] = 0`` and ``E[exp(eta)] = theta``, so

        ln(theta*delta) = mean(ln R),
        theta = mean(exp(mean(ln R) - ln R)),
        delta = exp(mean(ln R)) / theta.

    By construction the recovered shocks average to zero and satisfy
    ``mean(exp(eta_hat)) == theta_hat`` exactly.
    """
    ln_r = dataset.ln_r
    ln_theta_delta = float(np.mean(ln_r))
    eta_hat = ln_theta_delta - ln_r
    theta = float(np.mean(np.exp(eta_hat)))
    delta = float(np.exp(ln_theta_delta) / theta)
    return Step1Result(delta_lm=delta, theta=theta, ln_theta_delta=ln_theta_delta, eta_hat=eta_hat)


# -- slope profiles ------------------------------------------------------------

#: slopes every profile scan tries: the open unit interval in steps of 1e-3
_SLOPES = np.linspace(-0.999, 0.999, 1999)
#: points of one zoom level, and zoom levels: each narrows a bracket a hundredfold, from 2e-3 to 2e-9
_ZOOM_POINTS, _ZOOM_LEVELS = 201, 3


def _solve_batch(mats: np.ndarray, rhs: np.ndarray, *, definite: bool = False):
    """``x[:, g]`` with ``mats[:, :, g] @ x[:, g] == rhs[:, g]``, for symmetric positive semidefinite ``mats``.

    Gaussian elimination written over the batch axis, which is last: at two
    to five unknowns and two thousand systems it costs a tenth to a fourth
    of ``np.linalg.solve``, which also raises for the whole batch if one
    matrix is singular.  A symmetric positive definite matrix needs no
    pivoting; a singular one divides by a zero pivot, so its solution is
    not finite.  Call it under ``np.errstate``.  With ``definite`` the
    function returns ``(x, mask)`` with ``mask`` true where every pivot is
    positive, which for a symmetric matrix means positive definite.
    """
    k = mats.shape[0]
    mats, x = mats.copy(), rhs.copy()
    for j in range(k - 1):
        f = mats[j + 1:, j] / mats[j, j]
        mats[j + 1:, j + 1:] -= f[:, None] * mats[j, j + 1:]
        x[j + 1:] -= f * x[j]
    for j in range(k - 1, -1, -1):
        x[j] = (x[j] - np.einsum("kg,kg->g", mats[j, j + 1:], x[j + 1:])) / mats[j, j]
    if definite:
        return x, np.all(np.diagonal(mats) > 0.0, axis=-1)
    return x


def _slope_profile(b: np.ndarray, a: np.ndarray, faces=(), feasible=None):
    """The criterion ``min over theta of |b0 + r b1 + (A0 + r A1) theta|^2`` as a function of the slope ``r``.

    Under the linear laws each fit's whitened residual is affine in every
    coordinate but one slope ``r`` (variable projection): ``b`` stacks
    ``(b0, b1)`` and ``a`` stacks ``(A0, A1)``.  The normal equations in
    ``theta`` are quadratic in ``r``, ``(P0 + r P1 + r^2 P2) theta = q0 + r q1
    + r^2 q2``, so their coefficients are formed once here and the returned
    function solves them at a whole array of slopes at once.  The criterion
    is the squared norm of the residual itself, not ``b'b - q'theta``,
    which cancels near a good fit.

    ``feasible`` maps solutions ``(K, G)`` to a mask; where the free solution
    is outside it, each face ``(T, t)`` of the box (``theta = T psi + t``) is
    solved in ``psi`` and the lowest feasible one kept.  On a convex
    quadratic the box minimum solves its own active face, so over every face
    this is exact.  The function returns ``(crit, theta)``, with an infinite
    criterion and NaN solution at a slope where no face is feasible or the
    normal matrix is singular; it never raises or warns.
    """
    k = a.shape[2]
    faces = [(np.eye(k), np.zeros(k)), *faces]
    prepared = {}

    def prepare(tmat, shift):
        fb, fa = b + a @ shift, a @ tmat  # a fixed part of theta folds into b
        p = [fa[0].T @ fa[0], fa[0].T @ fa[1] + fa[1].T @ fa[0], fa[1].T @ fa[1]]
        q = [fa[0].T @ fb[0], fa[0].T @ fb[1] + fa[1].T @ fb[0], fa[1].T @ fb[1]]
        return fb.T, fa, np.reshape(p, (3, -1)).T, -np.transpose(q), tmat, shift[:, None]

    def solve(i, slopes):
        if i not in prepared:  # a face is formed the first time a slope needs it
            prepared[i] = prepare(*faces[i])
        fb, fa, p, q, tmat, shift = prepared[i]
        powers = np.stack([np.ones_like(slopes), slopes, slopes * slopes])
        normal = (p @ powers).reshape(fa.shape[2], fa.shape[2], slopes.size)
        psi = _solve_batch(normal, q @ powers)
        resid = fb @ powers[:2] + fa[0] @ psi + (fa[1] @ psi) * slopes
        # one step of refinement on the residual itself: where A0 and r A1
        # nearly cancel, the normal matrix summed over powers of r loses digits
        psi -= _solve_batch(normal, fa[0].T @ resid + (fa[1].T @ resid) * slopes)
        resid = fb @ powers[:2] + fa[0] @ psi + (fa[1] @ psi) * slopes
        crit = np.einsum("mg,mg->g", resid, resid)
        theta = tmat @ psi + shift
        ok = np.isfinite(crit) if feasible is None else np.isfinite(crit) & feasible(theta)
        return np.where(ok, crit, np.inf), theta

    def profile(slopes):
        with np.errstate(all="ignore"):
            crit, theta = solve(0, slopes)
            out = np.flatnonzero(np.isinf(crit))
            for i in range(1, len(faces)) if out.size else ():
                face_crit, face_theta = solve(i, slopes[out])
                better = face_crit < crit[out]
                crit[out[better]], theta[:, out[better]] = face_crit[better], face_theta[:, better]
        theta[:, np.isinf(crit)] = np.nan
        return crit, theta

    return profile


def _profile_minima(profile):
    """``(slopes, theta, crit)`` of every local minimum of ``profile`` over :data:`_SLOPES`, best first.

    The minima of the grid are found in one comparison, then zoomed in on
    together: a level scans :data:`_ZOOM_POINTS` slopes across the bracket
    around each current best and keeps the two neighbours of the new best.
    ``theta`` has one row per minimum.
    """
    crit, theta = profile(_SLOPES)
    left, right = np.r_[np.inf, crit[:-1]], np.r_[crit[1:], np.inf]
    at = np.flatnonzero(np.isfinite(crit) & (crit < left) & (crit <= right))
    if not at.size:
        return _SLOPES[at], theta[:, at].T, crit[at]
    lo, hi = _SLOPES[np.maximum(at - 1, 0)], _SLOPES[np.minimum(at + 1, _SLOPES.size - 1)]
    rows, steps = np.arange(at.size), np.linspace(0.0, 1.0, _ZOOM_POINTS)
    for _ in range(_ZOOM_LEVELS):
        grid = lo[:, None] + (hi - lo)[:, None] * steps
        crit, theta = profile(grid.ravel())
        j = np.argmin(crit.reshape(grid.shape), axis=1)
        lo, hi = grid[rows, np.maximum(j - 1, 0)], grid[rows, np.minimum(j + 1, _ZOOM_POINTS - 1)]
    best = rows * _ZOOM_POINTS + j
    best = best[np.isfinite(crit[best])]
    best = best[np.argsort(crit[best], kind="stable")]
    return grid.ravel()[best], theta[:, best].T, crit[best]


def _phi_profile(proj: np.ndarray, delta_lm: float, bounds):
    """Step two's criterion as a :func:`_slope_profile` of ``rho_1``, with ``theta = (c, u, rho_2)``.

    ``proj`` is the whitened ``Q'E/n``, so ``proj @ a`` is step two's
    whitened moment vector.  At a fixed slope ``rho_1`` the coefficients
    ``a = [1, -rho_1, c(1 - rho_1), -delta u, rho_1 delta u, -rho_2]`` are
    affine in ``theta`` with ``u = 1/beta_0`` and ``c = beta_l/beta_0``.
    ``bounds`` is the box ``((lo_0, lo_l), (hi_0, hi_l))`` of ``(beta_0,
    beta_l)``.  In ``(c, u)`` it is ``u <= 1/lo_0`` and ``c`` between ``hi_l
    u`` and ``lo_l u``, so its faces fix ``u``, ``c/u`` or both.
    """
    (lo_0, lo_l), (hi_0, hi_l) = bounds
    m, k = proj.shape[0], proj.shape[1] - 3
    b = np.stack([proj[:, 0], -proj[:, 1]])
    a = np.zeros((2, m, k))
    a[0, :, 0], a[1, :, 0] = proj[:, 2], -proj[:, 2]
    a[0, :, 1], a[1, :, 1] = -delta_lm * proj[:, 3], delta_lm * proj[:, 4]
    a[0, :, 2:] = -proj[:, 5:]

    def face(u=None, share=None):
        """``(T, t)`` of the face with ``u`` fixed, ``c = share * u``, or both."""
        tmat, u_col = np.eye(k), 1
        if share is not None:
            tmat[0, 1] = share
            tmat, u_col = tmat[:, 1:], 0
        if u is None:
            return tmat, np.zeros(k)
        return np.delete(tmat, u_col, axis=1), tmat[:, u_col] * u

    def feasible(theta):
        beta_0, beta_l = 1.0 / theta[1], theta[0] / theta[1]
        slack = 1e-12  # a face's own bound, up to rounding
        return ((beta_0 >= lo_0 * (1 + slack)) & (beta_0 <= hi_0)
                & (beta_l >= lo_l * (1 - slack)) & (beta_l <= hi_l * (1 + slack)))

    u_face = 1.0 / lo_0
    faces = [face(u=u_face), face(share=lo_l), face(share=hi_l), face(u=u_face, share=lo_l), face(u=u_face, share=hi_l)]
    return _slope_profile(b, a, faces, feasible)


def _phi_slope_minima(proj: np.ndarray, delta_lm: float, bounds) -> np.ndarray:
    """Step two's profile minima (:func:`_phi_profile`), one row ``(beta_0, beta_l, rho_1, rho_2)`` each, best first."""
    slopes, theta, _ = _profile_minima(_phi_profile(proj, delta_lm, bounds))
    lo, hi = bounds
    betas = np.clip(np.column_stack((1.0 / theta[:, 1], theta[:, 0] / theta[:, 1])), lo, hi)
    return np.column_stack((betas, slopes, theta[:, 2:]))


def _omega_profile(root: np.ndarray):
    """Step three's criterion as a :func:`_slope_profile` of ``rho_1``, over ``(rho_0, beta_k, beta_kk, rho_2)``.

    ``root`` is any ``S`` with ``S'S`` proportional to ``D'D``.  At a fixed
    slope ``rho_1`` the coefficients ``c = [1, -rho_0, -beta_k, -beta_kk,
    -rho_1, rho_1 beta_k, rho_1 beta_kk, -rho_2]`` are affine in ``theta``,
    which has no box.
    """
    m, k = root.shape[0], root.shape[1] - 4
    b = np.stack([root[:, 0], -root[:, 4]])
    a = np.zeros((2, m, k))
    a[0] = -root[:, [1, 2, 3, *range(7, root.shape[1])]]
    a[1, :, 1:3] = root[:, 5:7]
    return _slope_profile(b, a)


def _omega_slope_minima(root: np.ndarray) -> list[np.ndarray]:
    """Step three's profile minima (:func:`_omega_profile`) in :func:`step3_core`'s parameter order, best first."""
    slopes, theta, _ = _profile_minima(_omega_profile(root))
    return [np.concatenate((th[1:3], [th[0], r], th[3:])) for r, th in zip(slopes.tolist(), theta)]


# -- step two ----------------------------------------------------------------


def build_instruments(dataset: PanelDataset, *, kind: str = "default"):
    """Instrument matrix for the phi law-of-motion GMM.

    ``default`` stacks a constant, lagged ``m - l``, the lagged labor
    share, lagged modifiers ``Z`` and both current and lagged capital.
    ``exactly_identified`` drops the capital columns, leaving as many
    instruments as parameters.  Returns ``(Q, names)`` with ``Q`` aligned
    to the dataset's lag pairs.
    """
    names = _instrument_names(dataset, kind)
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    cols = [np.ones(cur.size), dataset.m[prev] - dataset.l[prev], dataset.s_l[prev], *dataset.z[prev].T]
    if kind == "default":
        cols += [dataset.k[cur], dataset.k[prev]]
    return np.column_stack(cols), names


def _instrument_names(dataset: PanelDataset, kind: str) -> tuple[str, ...]:
    """The column names of :func:`build_instruments`' matrix, without forming it."""
    names = ("const", "ml_lag", "s_l_lag", *(f"{name}_lag" for name in dataset.z_names))
    if kind == "default":
        return names + ("k", "k_lag")
    if kind != "exactly_identified":
        raise ValueError(f"unknown instrument set {kind!r}")
    return names


def _step2_arrays(dataset: PanelDataset):
    """Lag-pair arrays ``(ml_cur, ml_prev, s_cur, s_prev, z_prev)`` of the phi law."""
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    return (
        dataset.m[cur] - dataset.l[cur],
        dataset.m[prev] - dataset.l[prev],
        dataset.s_l[cur],
        dataset.s_l[prev],
        dataset.z[prev],
    )


def _lag_pair_gram(dataset: PanelDataset, step1: Step1Result, options: EstimateOptions):
    """``(G, G_c, columns)``: the Gram ``X'X`` of every lag-pair column the linear-law fits read, and its keys.

    Step two's ``Q`` and ``E``, the omega block ``R`` and, under
    ``refine="system"``, the level instruments ``H`` are each ``X T`` for a
    fixed map ``T`` (:func:`_block_maps`), so every cross-product the fits
    read is a block of ``T' G T``.  ``H`` adds only ``m_prev``; ``R``'s FOC
    column is kept for both inputs, so one Gram serves every omega proxy.
    The columns are written once into one column-major block.  ``G_c`` is
    the Gram of the centered columns (``None`` without refinement), formed
    from them: ``G/n - mu mu'`` cancels, and puts a residual variance of
    1e-15 where a noiseless panel's exact fit has zero.
    """
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    delta, log_theta = step1.delta_lm, np.log(step1.theta)
    pz, px = dataset.z.shape[1], dataset.x.shape[1]
    columns = ("const", "ml_cur", "ml_prev", "s_cur", "s_prev", "k_cur", "k_prev", "y_flex", "s_cur_sq", "k_cur_sq",
               "foc_materials", "foc_labor", "s_prev_sq", "k_prev_sq", *(f"z{j}" for j in range(pz)),
               *(f"x{j}" for j in range(px)), *(["m_prev"] if options.refine == "system" else []))
    # X' row by row, so X is stored column-major; each column is written in place
    block = np.empty((len(columns), cur.size))
    (const, ml_cur, ml_prev, s_cur, s_prev, k_cur, k_prev, y_flex, s_cur_sq, k_cur_sq,
     foc_materials, foc_labor, s_prev_sq, k_prev_sq) = block[:14]
    m_cur, m_prev, l_prev = dataset.m[cur], dataset.m[prev], dataset.l[prev]
    const.fill(1.0)
    np.subtract(m_cur, dataset.l[cur], out=ml_cur)
    np.subtract(m_prev, l_prev, out=ml_prev)
    s_cur[:], s_prev[:], k_cur[:], k_prev[:] = dataset.s_l[cur], dataset.s_l[prev], dataset.k[cur], dataset.k[prev]
    np.subtract(dataset.y[cur], delta * m_cur, out=y_flex)
    np.square(s_cur, out=s_cur_sq)
    np.multiply(0.5, k_cur**2, out=k_cur_sq)
    flex_prev = delta * m_prev
    focs = _foc_terms(dataset.ln_price_m[prev], dataset.ln_price_l[prev], m_prev, l_prev, s_prev, delta)
    for foc, out in zip(focs, (foc_materials, foc_labor)):
        np.subtract(foc - log_theta, flex_prev, out=out)
    np.square(s_prev, out=s_prev_sq)
    np.multiply(0.5, k_prev**2, out=k_prev_sq)
    block[14:14 + pz + px] = np.concatenate((dataset.z[prev], dataset.x[prev]), axis=1).T
    if options.refine != "system":
        return block @ block.T, None, columns
    block[-1] = m_prev
    gram = block @ block.T
    block -= block.mean(axis=1)[:, None]
    return gram, block @ block.T, columns


def _block_maps(columns, options: EstimateOptions) -> dict:
    """The maps ``T`` with ``X T`` each block, over the lag-pair Gram's ``columns`` (:func:`_lag_pair_gram`).

    ``Q`` is step two's instrument set (:func:`build_instruments`), ``E`` the
    phi-law block, ``R`` the omega block at ``options.proxy``'s FOC and, when
    the Gram has ``m_prev``, ``H`` the level instruments
    (:func:`_system_cross_products`).  An entry is a key or a ``{key:
    weight}`` sum of columns.
    """
    z, x = [key for key in columns if key[0] == "z"], [key for key in columns if key[0] == "x"]
    foc = {"materials": "foc_materials", "labor": "foc_labor"}.get(options.proxy, {"foc_materials": 0.5, "foc_labor": 0.5})
    blocks = {
        "Q": ["const", "ml_prev", "s_prev", *z, *(["k_cur", "k_prev"] if options.instruments == "default" else [])],
        "E": ["ml_cur", "ml_prev", "const", "s_cur", "s_prev", *z],
        "R": ["y_flex", "const", "s_cur_sq", "k_cur", "k_cur_sq", foc, "s_prev_sq", "k_prev", "k_prev_sq", *x],
        "H": ["const", "k_cur", {"k_cur_sq": 2.0}, "k_prev", {"k_prev_sq": 2.0}, "m_prev", "ml_prev", "s_prev", *x, *z],
    }
    if "m_prev" not in columns:
        del blocks["H"]
    index, maps = {key: i for i, key in enumerate(columns)}, {}
    for name, entries in blocks.items():
        maps[name] = np.zeros((len(columns), len(entries)))
        for j, entry in enumerate(entries):
            for key, weight in (entry.items() if isinstance(entry, dict) else [(entry, 1.0)]):
                maps[name][index[key], j] = weight
    return maps


def _inverse_root(gram: np.ndarray, label: str, warnings: list[str]) -> np.ndarray:
    """The whitening ``S = V diag(lambda^-1/2) V'`` of an instrument Gram matrix, from one eigendecomposition.

    ``S gram S`` is the identity, so ``S`` times averaged moments is the
    residual whose squared norm is the GMM criterion weighted by the inverse
    Gram.  The root is taken of the Gram itself, not of its inverse: on the
    joint system's ``H'H/n``, whose condition number is near 4e8, a
    last-bit change of the entries moves the rows this root whitens by
    about 1e-11 relative, and an inverse followed by a root by about 3e-6.
    Eigenvalues at or below ``1e-12`` of the largest are dropped, with a
    warning, so ``S`` is then the root of the pseudo-inverse.
    """
    vals, vecs = np.linalg.eigh(gram)
    keep = _kept_eigenvalues(vals, label, warnings, "; using pseudo-inverse")
    return (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].T


def _kept_eigenvalues(vals: np.ndarray, label: str, warnings: list[str], note: str = "") -> np.ndarray:
    """Which ascending eigenvalues ``vals`` of a Gram matrix exceed ``1e-12`` of the largest; if not all, a warning."""
    keep = vals > 1e-12 * vals[-1]
    if not keep.all():
        warnings.append(f"{label} Gram matrix ill-conditioned (cond={vals[-1] / max(abs(vals[0]), 1e-300):.2e}){note}")
    return keep


def _phi_cross_products(gram: np.ndarray, columns, options: EstimateOptions, warnings: list[str]) -> np.ndarray:
    """Step two's whitened block ``S Q'E/n``, read from the lag-pair Gram, with ``S`` the :func:`_inverse_root` of ``Q'Q/n``."""
    maps = _block_maps(columns, options)
    t_q, t_e = maps["Q"], maps["E"]
    n = gram[0, 0]  # the constant column's sum of squares
    if n <= t_q.shape[1]:
        raise ValueError("not enough lag pairs for the instrument count")
    qx = t_q.T @ gram / n
    return _inverse_root(qx @ t_q, "instrument", warnings) @ (qx @ t_e)


def _beta_box(delta_lm: float):
    """The box ``((lo_0, lo_l), (hi_0, hi_l))`` of ``(beta_0, beta_l)`` in step two and the joint system.

    ``beta_0`` stays below the Cobb-Douglas limit 0, where proxied phi
    divides by zero, and ``beta_l`` inside ``(0, delta_lm)``.
    """
    return (-10.0, 1e-10), (-1e-10, delta_lm * (1 - 1e-10))


#: the LM box's bound on every law coefficient but the slopes in lagged productivity
_COEF_BOUND = 50.0


def _phi_law_gmm(moments, jacobian, lin: int, n_params: int, delta_lm: float):
    """GMM problem and start grid of a phi law, linear or series.

    ``moments`` and ``jacobian`` map the parameters ``(beta_0, beta_l,
    coef)`` to the whitened averaged moments and their derivative, so the
    problem's residual is the moments themselves and it has no weight
    (:func:`_inverse_root`); ``coef[lin - 2]``
    is the slope in lagged phi, kept inside the unit interval.  The starts
    cross curvature magnitudes with labor shares; the series law runs them
    all, and the linear law only the first, on a panel whose slope profile
    has no minimum.  ``(beta_0, beta_l)`` lie in :func:`_beta_box`.
    """
    lo, hi = np.full(n_params, -_COEF_BOUND), np.full(n_params, _COEF_BOUND)
    lo[:2], hi[:2] = _beta_box(delta_lm)
    lo[lin], hi[lin] = -0.999999, 0.999999
    problem = NlsProblem(residual=moments, jacobian=jacobian, bounds=(lo, hi))
    starts = []
    for b0 in (-0.2, -0.1, -0.05, -0.02, -0.005):
        for frac in (0.25, 0.5, 0.75):
            start = np.zeros(n_params)
            start[0], start[1], start[lin] = b0, frac * delta_lm, 0.5
            starts.append(start)
    return problem, starts


def _valley_warning(dataset: PanelDataset, phi_hat: np.ndarray) -> list[str]:
    """Zero or one warning: whether the proxied phi ``phi_hat`` of a point has collapsed.

    Step two's criterion has a rescaling valley: ``(beta_0, beta_l)`` can
    be moved so that proxied phi becomes nearly constant, which mechanically
    shrinks the innovation; flag that degenerate configuration rather than
    hiding it.
    """
    var_ratio = float(np.var(phi_hat) / max(np.var(dataset.m - dataset.l), 1e-300))
    if var_ratio >= 0.01:
        return []
    return [
        f"proxied phi variance is {var_ratio:.1e} of the m - l variance; "
        "point is likely in the degenerate rescaling valley (see system_refine)"
    ]


def step2_gmm(dataset: PanelDataset, step1: Step1Result, options: EstimateOptions) -> Step2Result:
    """GMM estimation of the curvature, labor coefficient and phi law.

    Moments are ``E[Q_{t-1} * eps_t(alpha)] = 0`` where ``eps`` is the
    innovation of the phi law evaluated at proxied phi, weighted by
    ``(Q'Q/N)^{-1}``; parameters are ``(beta_0, beta_l, rho_phi_1,
    rho_phi_2)`` with ``beta_m`` recovered as ``delta_lm - beta_l``.

    The innovation is ``E a(alpha)`` with fixed columns ``E``
    (:func:`~prodsys.moments.phi_law_columns`).  One pass over the lag
    pairs forms the Gram of every column the estimate reads
    (:func:`_lag_pair_gram`); ``Q'Q/N`` and ``Q'E/N`` are blocks of it.
    The optimizer is handed the whitened moments ``S (Q'E/N) a`` and their
    Jacobian, with ``S`` the :func:`_inverse_root` of ``Q'Q/N``, so their
    squared norm is the criterion and they cost the same at any panel
    size.  The record keeps the whitened block ``S Q'E/N`` as
    ``whitened_qe``, with the Gram.

    The starts are the local minima of the criterion's profile in
    ``rho_phi_1`` (:func:`_phi_profile` on the whitened block), one optimizer
    start each, and the best polished minimum is reported.  On the benchmark
    panels the profile has two minima: the lower one in the rescaling valley,
    which step two reports, and one near the truth, beside which the joint
    refinement's answer lies.
    """
    delta = step1.delta_lm
    pz = dataset.z.shape[1]
    warnings: list[str] = []
    gram, centered, columns = _lag_pair_gram(dataset, step1, options)
    whitened_qe = _phi_cross_products(gram, columns, options, warnings)
    problem, grid = _phi_law_gmm(
        lambda alpha: whitened_qe @ phi_law_coef(alpha, delta),
        lambda alpha: whitened_qe @ phi_law_coef_jacobian(alpha, delta),
        2, 3 + pz, delta,
    )
    minima = _phi_slope_minima(whitened_qe, delta, _beta_box(delta))
    starts = list(minima) or grid[:1]
    result = minimize_gmm(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)

    beta_0, beta_l, rho_1, rho_2 = *result.params[:3], result.params[3:]
    beta_m = delta - beta_l
    phi_hat = phi_proxy(dataset.m - dataset.l, dataset.s_l, beta_0, beta_l, delta)

    warnings += _valley_warning(dataset, phi_hat)
    if not result.converged:
        warnings.append(f"step-2 GMM did not converge: {result.status}")

    return Step2Result(
        beta_0=float(beta_0),
        beta_l=float(beta_l),
        beta_m=float(beta_m),
        rho_phi_1=float(rho_1),
        rho_phi_2=np.asarray(rho_2, dtype=float),
        phi_hat=phi_hat,
        objective=result.objective,
        converged=result.converged,
        n_pairs=int(dataset.lag_pairs().cur.size),
        instrument_names=_instrument_names(dataset, options.instruments),
        whitened_qe=whitened_qe,
        gram=gram,
        centered_gram=centered,
        gram_columns=columns,
        warnings=warnings,
    )


# -- step three --------------------------------------------------------------


def _foc_terms(ln_price_m, ln_price_l, m, l, s_l, delta_lm: float):
    """``ln(P/P^Y) - ln(e) + input`` of the materials and of the labor FOC, from those columns.

    On proxied phi the elasticity ``e`` is ``delta*(1 - s_l)`` for materials
    and ``delta*s_l`` for labor, whatever the candidate.
    """
    if not delta_lm > 0:
        raise ValueError(f"delta_lm must be positive, got {delta_lm}")
    return ln_price_m - np.log(delta_lm * (1.0 - s_l)) + m, ln_price_l - np.log(delta_lm * s_l) + l


def _foc_term(dataset: PanelDataset, delta_lm: float, theta: float, which: str) -> np.ndarray:
    """``ln(P/P^Y) - ln(theta) - ln(e) + input`` of the omega proxy's FOC on every row; ``average`` takes the mean over both."""
    materials, labor = _foc_terms(dataset.ln_price_m, dataset.ln_price_l, dataset.m, dataset.l, dataset.s_l, delta_lm)
    focs = {"materials": materials, "labor": labor, "average": 0.5 * (materials + labor)}
    if which not in focs:
        raise ValueError(f"unknown omega proxy {which!r}")
    return focs[which] - np.log(theta)


def omega_proxy(
    dataset: PanelDataset, beta_0: float, beta_l: float, delta_lm: float, theta: float, *, which: str = "materials"
) -> np.ndarray:
    """Proxy for ``omega + beta_k*k + 0.5*beta_kk*k^2`` from a flexible-input FOC.

    A flexible input's first-order condition equates its log expenditure
    ``ln P + input`` to ``ln P^Y + ln theta + ln e + f + omega + capital
    terms``, with ``e`` its output elasticity and ``f`` the flexible-input
    part of log output (:func:`~prodsys.moments.flexible_output`).  Solving
    for omega plus the capital terms,

        m* = ln(P/P^Y) - ln(theta) - ln(e) + input - f,

    with ``(P, e, input)`` equal to ``(P^M, beta_m - beta_0*x, m)`` for
    materials and ``(P^L, beta_l + beta_0*x, l)`` for labor, ``x = m - phi -
    l``; ``average`` takes the mean over both.  Phi is proxied from the
    ratio of the two FOCs at ``(beta_0, beta_l, delta_lm)``, where the
    elasticities are ``delta*(1 - s_l)`` and ``delta*s_l``: positive on every
    row, so the proxy is finite everywhere.
    """
    return _omega_law_data(dataset, beta_0, beta_l, delta_lm, theta, which)[1]


def _omega_law_data(dataset: PanelDataset, beta_0, beta_l, delta_lm, theta, proxy: str):
    """Purged output ``y*`` and omega proxy ``m*`` on every row, at proxied phi."""
    phi = phi_proxy(dataset.m - dataset.l, dataset.s_l, beta_0, beta_l, delta_lm)
    flex = flexible_output(beta_0, beta_l, delta_lm - beta_l, dataset.m, dataset.l, phi)
    return dataset.y - flex, _foc_term(dataset, delta_lm, theta, proxy) - flex


def _omega_law_nls(residual, jacobian, lin: int, n_params: int, regressors, target):
    """Least-squares problem and starts of an omega law, linear or series.

    ``residual`` and ``jacobian`` map the parameters ``(beta_k, beta_kk,
    coef)`` to the residual and its derivative; the intercept is first in
    ``coef`` and the slope in lagged omega at index ``lin``, kept inside the
    unit interval.  Starts take the capital terms and the intercept from the
    least squares of ``target`` on ``regressors`` (the purged output on
    ``[k, k^2/2, 1]``, or any factor with the same cross-products), at a few
    fixed slopes.  The series law runs them all, and the linear law only
    the first, on a panel whose slope profile has no minimum.
    """
    lo, hi = np.full(n_params, -np.inf), np.full(n_params, np.inf)
    lo[lin], hi[lin] = -0.999999, 0.999999
    problem = NlsProblem(residual=residual, jacobian=jacobian, bounds=(lo, hi))
    ols, *_ = np.linalg.lstsq(regressors, target, rcond=None)
    starts = []
    for slope in (0.5, 0.2, 0.8):
        start = np.zeros(n_params)
        start[:3], start[lin] = ols, slope
        starts.append(start)
    return problem, starts


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """A square ``S`` with ``S'S = gram``: the transposed Cholesky factor, or the symmetric eigen root where Cholesky refuses a singular ``gram``."""
    try:
        return np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(gram)
        return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def step3_core(root: np.ndarray, options: EstimateOptions) -> OptimResult:
    """Step-three least squares of the linear omega law on a root of its cross-products.

    Parameter order is ``(beta_k, beta_kk, rho_0, rho_1, rho_2)``; the
    model is documented on :func:`step3_nls`, which forms ``root``.

    The residual is ``D c(gamma)`` with fixed columns ``D``
    (:func:`~prodsys.moments.omega_law_columns`), and ``root`` is any square
    ``S`` with ``S'S = D'D`` (:func:`_gram_root`).  The short residual ``S
    c`` and its Jacobian ``S dc/dgamma`` have the same ``r'r``, ``J'r`` and
    ``J'J`` as ``D c`` and ``D dc/dgamma``.  Levenberg-Marquardt reads a
    problem only through those three products (the objective, the gradient
    and the damped normal equations), so it takes the same iterates as on
    the long residual, at a cost that does not grow with the panel.

    The starts are the local minima of ``|S c|^2``'s profile in ``rho_1``
    (:func:`_omega_profile`), one optimizer start each, and the best
    polished minimum is returned.
    """
    problem, grid = _omega_law_nls(
        lambda gamma: root @ omega_law_coef(gamma),
        lambda gamma: root @ omega_law_coef_jacobian(gamma),
        3, root.shape[1] - 3, root[:, [2, 3, 1]], root[:, 0],
    )
    starts = _omega_slope_minima(root) or grid[:1]
    return minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)


def step3_nls(dataset: PanelDataset, step1: Step1Result, step2, options: EstimateOptions) -> Step3Result:
    """Nonlinear least squares for the capital coefficients and the omega law.

    Regresses the flexible-input-purged output ``y*`` on the capital terms
    and the autoregression of proxied lagged omega:

        y*_t = beta_k*k_t + 0.5*beta_kk*k_t^2 + rho_0
               + rho_1*(m*_{t-1} - beta_k*k_{t-1} - 0.5*beta_kk*k_{t-1}^2)
               + rho_2'X_{t-1} + error.

    On phi proxied at step two's ``(beta_0, beta_l)`` the block ``D`` of
    this regression is ``R B``: ``R`` is the omega block of step two's
    lag-pair Gram and ``B`` the proxied-phi expansion at that point
    (:func:`~prodsys.moments._proxied_omega_map`).  So :func:`step3_core`
    runs on a root of ``D'D = B'(R'R)B`` (:func:`_gram_root`), and no
    lag-pair array is formed.  Collinear regressors (say ``x`` equal to
    log capital) are flagged with a warning.
    """
    n_pairs = dataset.lag_pairs().cur.size
    if n_pairs < 4 + dataset.x.shape[1]:
        raise ValueError("too few usable lag pairs for step three")
    warnings: list[str] = []
    result = step3_core(_step3_root(dataset, step1, step2, options, warnings), options)
    return _step3_result(result, warnings, proxy=options.proxy, n_pairs=int(n_pairs))


def _step3_root(dataset: PanelDataset, step1: Step1Result, step2, options: EstimateOptions,
                warnings: list[str]) -> np.ndarray:
    """A root of step three's ``D'D = B'(R'R)B`` at step two's point, from its lag-pair Gram (see :func:`step3_nls`).

    The regressors' Gram is checked by :func:`_kept_eigenvalues`; it leaves
    out ``y*``, which is a combination of the regressors at an exact fit.
    """
    if isinstance(step2, Step2Result):
        gram, columns = step2.gram, step2.gram_columns
    else:  # a series step-two record carries no Gram
        gram, _, columns = _lag_pair_gram(dataset, step1, options)
    t_d = _block_maps(columns, options)["R"] @ _proxied_omega_map(
        step2.beta_0, step2.beta_l, step1.delta_lm, dataset.x.shape[1])
    gram_d = t_d.T @ gram @ t_d
    _kept_eigenvalues(np.linalg.eigvalsh(gram_d[1:, 1:]), "omega-law regressor", warnings)
    return _gram_root(gram_d)


def _step3_result(result: OptimResult, warnings: list[str], *, proxy: str, n_pairs: int) -> Step3Result:
    """Step-three record from a :func:`step3_core` fit; it takes ``warnings``, the list its root was checked into."""
    if not result.converged:
        warnings.append(f"step-3 NLS did not converge: {result.status}")
    bk, bkk, r0, r1 = result.params[:4]
    return Step3Result(
        beta_k=float(bk),
        beta_kk=float(bkk),
        rho_omega_0=float(r0),
        rho_omega_1=float(r1),
        rho_omega_2=np.asarray(result.params[4:], dtype=float),
        objective=result.objective,
        converged=result.converged,
        proxy=proxy,
        n_pairs=n_pairs,
        warnings=warnings,
    )


# -- joint refinement ----------------------------------------------------------


def _system_cross_products(dataset: PanelDataset, step2: Step2Result, options: EstimateOptions, warnings: list[str]):
    """Candidate-free cross-products of the joint system's residuals that step two's record does not carry.

    On proxied phi the phi-law innovation is ``eps = E a`` and the omega-law
    residual is ``r = R c``, with ``E`` the block of
    :func:`~prodsys.moments.phi_law_columns`, ``R`` the block of
    :func:`~prodsys.moments.proxied_omega_coef`, and coefficients ``a`` and
    ``c`` that depend only on the candidate (see :func:`system_refine`).
    The whitened projection of ``E`` is step two's
    (``Step2Result.whitened_qe``), and ``H'H``, ``H'R`` and the centered
    Gram matrices are blocks ``T' G T`` of its lag-pair Gram ``G``
    (:func:`_lag_pair_gram`); a record formed under ``refine="none"`` has no
    ``m_prev`` for ``H`` and is refused with ``ValueError``.  ``H`` stacks a
    constant, current and lagged capital and its square, and lagged ``m``,
    ``m - l``, labor share, ``X`` and ``Z``: each is predetermined or a
    lagged flexible-input observable, so orthogonal to the period-``t``
    productivity innovation and transitory shock.

    Returns ``(P_R, G_E, G_R, h_names)``: the whitened projection ``S H'R /
    n``, with ``S`` the :func:`_inverse_root` of ``H'H / n``, the centered
    Gram matrices ``E_c'E_c / n`` and ``R_c'R_c / n`` over the ``n`` lag
    pairs and the level-instrument names.
    """
    gram, columns = step2.gram, step2.gram_columns
    if "m_prev" not in columns:
        raise ValueError("step2's lag-pair Gram has no m_prev column for the level instruments; "
                         "it was formed with refine='none'")
    maps = _block_maps(columns, options)
    t_h, t_r, t_e = maps["H"], maps["R"], maps["E"]
    n = gram[0, 0]  # the constant column's sum of squares
    if n <= t_h.shape[1]:  # H has more columns than Q
        raise ValueError("not enough usable lag pairs for the joint refinement")
    hx = t_h.T @ gram / n
    centered = step2.centered_gram / n
    h_names = ("const", "k", "k_sq", "k_lag", "k_sq_lag", "m_lag", "ml_lag", "s_l_lag",
               *(f"{name}_lag" for name in (*dataset.x_names, *dataset.z_names)))
    return (_inverse_root(hx @ t_h, "output-level instrument", warnings) @ (hx @ t_r),
            t_e.T @ centered @ t_e, t_r.T @ centered @ t_r, h_names)


# -- the joint system's profile over beta_0 --------------------------------------

#: the joint profile stops short of the Cobb-Douglas limit at ``beta_0 = -_B_MIN``
_B_MIN = 1e-3
#: curvatures the joint profile scans: log-spaced from the box's lower end -10 to ``-_B_MIN``
_PROFILE_BETA_0 = -np.logspace(1.0, math.log10(_B_MIN), 30)
#: slopes in lagged productivity each block of the joint profile scans
_PROFILE_SLOPES = np.linspace(-0.975, 0.975, 40)
#: Dinkelbach steps of each ratio minimum, and the relative gap below it that certifies it
_DINKELBACH_STEPS, _CERTIFIED = 6, 1e-11
#: least residual standard deviation a joint-system block divides by: keeps noiseless panels from dividing by ~eps
_SCALE_FLOOR = 1e-8


def _quad(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v[:, g]' mats[:, :, g] v[:, g]`` for every ``g``."""
    return np.einsum("ig,ijg,jg->g", v, mats, v)


def _ratio_minimum(num: np.ndarray, den: np.ndarray):
    """``(ratio, v)``: the minimum of ``v'Av / v'Bv`` over ``v`` with ``v[0] = 1``, batched over the last axis.

    ``A`` and ``B`` are symmetric positive semidefinite, so the minimum is
    the smallest generalized eigenvalue of ``(A, B)`` when its eigenvector
    has ``v[0] != 0``.  Dinkelbach's method (Newton's method on ``F(lam) =
    min over v of v'(A - lam B)v``) finds it: from ``lam = 0``, minimize
    ``v'(A - lam B)v`` over the free coordinates (one :func:`_solve_batch`)
    and take the ratio there as the next ``lam``.  Every ratio is at least
    the eigenvalue, so ``A - lam B`` positive definite just below the last
    ratio certifies it; the members the certificate misses are solved
    together by :func:`_eigen_minimum`.  Call this under ``np.errstate``: a
    singular batch member is not finite.
    """
    v = np.ones((num.shape[0], num.shape[2]))
    if num.shape[0] == 1:
        return num[0, 0] / den[0, 0], v
    trial, lam, best = v.copy(), np.zeros(num.shape[2]), np.full(num.shape[2], np.inf)
    for _ in range(_DINKELBACH_STEPS):
        mat = num - lam * den
        trial[1:] = _solve_batch(mat[1:, 1:], -mat[1:, 0])
        lam = _quad(num, trial) / _quad(den, trial)
        # at the eigenvalue itself the free block can be singular; keep the last finite ratio
        better = lam < best
        best, v = np.where(better, lam, best), np.where(better, trial, v)
    _, sure = _solve_batch(num - best * (1.0 - _CERTIFIED) * den, v, definite=True)
    todo = np.flatnonzero(~sure & np.isfinite(best))
    if todo.size:
        best[todo], v[:, todo] = _eigen_minimum(num[:, :, todo], den[:, :, todo], best[todo], v[:, todo])
    return best, v


def _eigen_minimum(num: np.ndarray, den: np.ndarray, ratio: np.ndarray, v: np.ndarray):
    """:func:`_ratio_minimum` of a batch of pencils from their smallest generalized eigenvectors, scaled to ``v[0] = 1``.

    ``den = V diag(d) V'`` (one batched ``eigh``) gives ``W = V diag(d^-1/2)``
    and ``u = W y`` with ``y`` the smallest eigenvector of ``W' num W``.  A
    member whose ``den`` is not positive definite keeps its ``(ratio, v)``.
    """
    vals, vecs = np.linalg.eigh(np.moveaxis(den, -1, 0))
    ok = vals[:, 0] > 0.0
    root = vecs[ok] / np.sqrt(vals[ok])[:, None, :]
    y = np.linalg.eigh(np.swapaxes(root, 1, 2) @ np.moveaxis(num[:, :, ok], -1, 0) @ root)[1][:, :, 0]
    u = np.einsum("gij,gj->ig", root, y)
    u = u / u[0]
    ratio, v = ratio.copy(), v.copy()
    ratio[ok], v[:, ok] = _quad(num[:, :, ok], u) / _quad(den[:, :, ok], u), u
    return ratio, v


def _ratio_profile(proj: np.ndarray, gram: np.ndarray, maps: np.ndarray):
    """The ratio ``|proj M v|^2 / (M v)' gram (M v)``, minimized over ``v`` with ``v[0] = 1``, at ``M = sum mu_j maps[j]``.

    ``maps`` stacks four coefficient maps, one per monomial ``mu = (1, r,
    1/beta_0, r/beta_0)`` of a candidate's curvature and slope, so both
    quadratic forms are fixed matrices times products of the monomials,
    formed once here.  The returned function takes ``mu`` (4 x g) and
    returns ``(crit, v)``, with the criterion's numerator the squared norm
    of the residual itself and its denominator floored at ``_SCALE_FLOOR**2``,
    as :func:`system_refine` floors its residuals' standard deviation.
    """
    pm = proj @ maps
    k = maps.shape[2]
    num = np.einsum("mik,nil->klmn", pm, pm).reshape(k * k, 16)
    den = np.einsum("mjk,jl,nlp->kpmn", maps, gram, maps).reshape(k * k, 16)

    def at(mu):
        mu2 = (mu[:, None] * mu[None]).reshape(16, -1)
        den_g = (den @ mu2).reshape(k, k, -1)
        _, v = _ratio_minimum((num @ mu2).reshape(k, k, -1), den_g)
        resid = np.einsum("mg,mig->ig", mu, pm @ v)
        # the floor: at an exact fit the expanded denominator cancels below zero
        return np.einsum("ig,ig->g", resid, resid) / np.maximum(_quad(den_g, v), _SCALE_FLOOR**2), v

    return at


def _phi_block_profile(proj: np.ndarray, gram: np.ndarray, delta: float, box):
    """The phi block ``|P a|^2 / a'Ga`` at ``(beta_0, rho_1)``, minimized over ``(beta_l, rho_2)`` in the box.

    ``a = [1, -rho_1, c(1 - rho_1), -delta/beta_0, rho_1 delta/beta_0,
    -rho_2]`` with ``c = beta_l/beta_0`` (:func:`~prodsys.moments.phi_law_coef`).
    ``G``'s constant column is zero, so ``c`` enters only the numerator,
    linearly: it is projected out of ``P``, and where its solution puts
    ``beta_l`` outside :func:`_beta_box` each bound of ``beta_l`` is a face
    whose ratio is minimized the same way, over ``(1, rho_2)``.  A solution
    with ``|rho_2|`` past :data:`_COEF_BOUND` is outside the box too.
    Returns a function of ``mu`` giving ``(crit, beta_l, rho_2)``.
    """
    (_, lo_l), (_, hi_l) = box
    pz = proj.shape[1] - 5
    maps = np.zeros((4, 5 + pz, 1 + pz))
    maps[0, 0, 0], maps[1, 1, 0], maps[2, 3, 0], maps[3, 4, 0] = 1.0, -1.0, -delta, delta
    maps[0, 5:, 1:] = -np.eye(pz)
    p2 = proj[:, 2]
    x2 = p2 @ proj / (p2 @ p2)
    free = _ratio_profile(proj - np.outer(p2, x2), gram, maps)
    share = -(x2 @ maps)  # c(1 - rho_1) at the free solution is mu' share v
    faces = []
    for bound in (lo_l, hi_l):
        face = maps.copy()
        face[2, 2, 0], face[3, 2, 0] = bound, -bound  # c(1 - rho_1) = bound (1 - rho_1)/beta_0
        faces.append(_ratio_profile(proj, gram, face))

    def in_box(v):
        """Where ``rho_2 = v[1:]`` is inside the box: no work without a ``z`` column."""
        return np.all(np.abs(v[1:]) <= _COEF_BOUND, axis=0) if pz else True

    def at(mu):
        crit, v = free(mu)
        beta_l = np.einsum("mg,mk,kg->g", mu, share, v) / (1.0 - mu[1]) / mu[2]
        ok = np.isfinite(crit) & (beta_l >= lo_l) & (beta_l <= hi_l) & in_box(v)
        crit = np.where(ok, crit, np.inf)
        for bound, face in zip((lo_l, hi_l), faces):
            face_crit, face_v = face(mu)
            better = ~ok & (face_crit < crit) & in_box(face_v)
            crit, beta_l, v = np.where(better, face_crit, crit), np.where(better, bound, beta_l), np.where(better, face_v, v)
        return crit, beta_l, v[1:]

    return at


def _omega_block_profile(proj: np.ndarray, gram: np.ndarray, delta: float):
    """The omega block ``|P c|^2 / c'Gc`` at ``(beta_0, rho_1)``, minimized over ``(beta_k, beta_kk, rho_2)``.

    ``c`` is :func:`~prodsys.moments.proxied_omega_coef`.  ``beta_l`` and
    ``rho_0`` enter only its intercept entry, which ``G``'s zero constant
    column does not see, so that entry is projected out of ``P``; what is
    left is a ratio of quadratics in ``(1, beta_k, beta_kk, rho_2)``.
    Returns a function of ``mu`` giving ``(crit, intercept, v)`` with ``v =
    (1, beta_k, beta_kk, rho_2)`` and ``intercept`` the solution's entry,
    ``-rho_0 - beta_l^2 (1 - rho_1) / (2 beta_0)``.
    """
    px = proj.shape[1] - 9
    maps = np.zeros((4, 9 + px, 3 + px))
    half = 0.5 * delta**2
    maps[0, 0, 0], maps[2, 2, 0], maps[1, 5, 0], maps[3, 6, 0] = 1.0, half, -1.0, -half
    maps[0, 3, 1], maps[1, 7, 1], maps[0, 4, 2], maps[1, 8, 2] = -1.0, 1.0, -1.0, 1.0
    maps[0, 9:, 3:] = -np.eye(px)
    p1 = proj[:, 1]
    x1 = p1 @ proj / (p1 @ p1)
    ratio = _ratio_profile(proj - np.outer(p1, x1), gram, maps)
    intercept = -(x1 @ maps)

    def at(mu):
        crit, v = ratio(mu)
        return np.where(np.isfinite(crit), crit, np.inf), np.einsum("mg,mk,kg->g", mu, intercept, v), v

    return at


def _system_profile(proj_e, gram_e, proj_r, gram_r, delta: float):
    """The joint criterion's two blocks at pairs ``(beta_0, rho_1)``, each minimized over its other coordinates.

    At a fixed ``beta_0`` the joint criterion separates: the phi block
    reads ``beta_l`` and ``rho_phi``, the omega block ``beta_k``,
    ``beta_kk`` and ``rho_omega``, and ``beta_l`` reaches the omega block
    only through an entry its free ``rho_omega_0`` absorbs.  So ``J(beta_0)
    = min over rho_phi_1 of Phi + min over rho_omega_1 of Omega``, each inner
    minimum a slope scan of closed forms (variable projection).  Returns
    ``profile(beta_0, slopes)``, over equal-length arrays, giving the phi
    block's ``(crit, beta_l, rho_phi_2)`` and the omega block's ``(crit,
    intercept, v)`` (:func:`_phi_block_profile`, :func:`_omega_block_profile`).
    """
    phi = _phi_block_profile(proj_e, gram_e, delta, _beta_box(delta))
    omega = _omega_block_profile(proj_r, gram_r, delta)

    def profile(beta_0, slopes):
        mu = np.stack([np.ones_like(slopes), slopes, 1.0 / beta_0, slopes / beta_0])
        with np.errstate(all="ignore"):
            return phi(mu), omega(mu)

    return profile


def _profile_start(profile) -> np.ndarray:
    """The joint system's start: the lowest interior local minimum of the scanned ``J(beta_0)``.

    Each block is scanned on :data:`_PROFILE_BETA_0` by
    :data:`_PROFILE_SLOPES`, ``J`` takes each block's best slope per
    ``beta_0``, and the start is the lowest grid point below both
    neighbours.  A ``J`` with no such point starts from its lowest value.
    """
    n_b, n_s = _PROFILE_BETA_0.size, _PROFILE_SLOPES.size
    (phi_crit, beta_l, rho_phi_2), (omega_crit, intercept, v) = profile(
        np.repeat(_PROFILE_BETA_0, n_s), np.tile(_PROFILE_SLOPES, n_b))
    rows = np.arange(n_b)
    phi_at = rows * n_s + np.argmin(phi_crit.reshape(n_b, n_s), axis=1)
    omega_at = rows * n_s + np.argmin(omega_crit.reshape(n_b, n_s), axis=1)
    crit = phi_crit[phi_at] + omega_crit[omega_at]
    interior = (crit[1:-1] < crit[:-2]) & (crit[1:-1] <= crit[2:])
    minima = np.flatnonzero(interior) + 1
    best = minima[np.argmin(crit[minima])] if minima.size else int(np.argmin(crit))
    i, j = phi_at[best], omega_at[best]
    beta_0, rho_omega_1 = _PROFILE_BETA_0[best], _PROFILE_SLOPES[j % n_s]
    rho_omega_0 = -intercept[j] - beta_l[i] ** 2 * (1.0 - rho_omega_1) / (2.0 * beta_0)
    return np.concatenate((
        [beta_0, beta_l[i], _PROFILE_SLOPES[i % n_s]], rho_phi_2[:, i],
        v[1:3, j], [rho_omega_0, rho_omega_1], v[3:, j],
    ))


def system_refine(
    dataset: PanelDataset,
    step1: Step1Result,
    step2: Step2Result,
    step3: Step3Result,
    options: EstimateOptions,
) -> SystemResult:
    """Joint GMM over the step-two and step-three blocks on stacked moments.

    Under stable prices both ``m - l`` and the labor share are functions
    of ``phi`` alone, so the step-two innovation can be written as the
    true innovation plus a multiple of a curvature term whose coefficient
    vanishes at the truth.  Moving ``(beta_0, beta_l)`` along a particular
    ray rescales the proxied phi toward a constant and shrinks the
    innovation mechanically, which leaves the step-two criterion nearly
    flat in ``beta_0`` and can even place its global minimum at a
    degenerate point with collapsed phi variance.

    The cure is more information, not a better optimizer: the output-level
    autoregression residual of step three also depends on ``(beta_0,
    beta_l)`` through the proxies, and projecting it on its own
    predetermined instruments (:func:`_system_cross_products`) yields moments
    that move sharply along the flat ray.  This routine stacks

        E[Q_{t-1} * eps_t(alpha)] = 0  and  E[H_{t-1} * r_t(alpha, gamma)] = 0

    and minimizes the sum of the two quadratic forms, each weighted by its
    inverse instrument Gram matrix (through :func:`_inverse_root`, so the
    optimizer sees a plain residual) and normalized by the residual
    standard deviation at the candidate point so that neither block can be
    improved by pure rescaling.  Step-one quantities stay frozen at their
    closed form.

    The phi block reads step two's whitened ``Q'E/n``
    (``step2.whitened_qe``), so it is not formed again here; a ``step2``
    record from another panel or instrument set, or one formed under
    ``refine="none"``, is refused with ``ValueError``.  Step two's warning
    on an ill-conditioned instrument Gram matrix is step two's alone, and
    is not repeated among the system's warnings.

    Both stacked residuals are fixed data columns times coefficients that
    depend only on the candidate: ``eps = E a`` with ``a`` step two's
    :func:`~prodsys.moments.phi_law_coef`, and ``r = R c`` with ``c`` step
    three's :func:`~prodsys.moments.omega_law_coef` carried through the
    proxied-phi expansion of ``y*`` and ``m*``
    (:func:`~prodsys.moments.proxied_omega_coef`).  ``H'H``, ``H'R`` and
    the centered Gram matrices of ``E`` and ``R`` are blocks of the
    lag-pair Gram step two formed once per estimate and kept in its record
    (see :func:`_system_cross_products`); each residual evaluation is then
    a few products of size at most about 20, and its cost does not grow
    with the number of lag pairs.

    The start is a scan, not a guess.  At a fixed ``beta_0`` the criterion
    splits into its two blocks, each a one-slope problem whose other
    coordinates have a closed form (:func:`_system_profile`), so ``J(beta_0)``
    is scanned on a fixed grid and its lowest interior local minimum
    (:func:`_profile_start`) is polished with one Levenberg-Marquardt start
    of the joint problem.  The grid stops at ``beta_0 = -1e-3``
    (:data:`_B_MIN`): nearer the Cobb-Douglas limit the omega ratio can run
    off along ``beta_k`` to a plateau, and the box's edge there can undercut
    the interior optimum, which this estimator does not report.

    The sequential point (step two's and step three's answers) is the
    check on the scan.  Each block is normalized by its residual's standard
    deviation, so where a block fits without noise its criterion is of
    order one everywhere but at the exact fit, a point no grid or closed
    form at a grid slope reaches; step three's unnormalized fit does.  A
    polish that does not converge, or ends above the sequential point's
    objective, is run again from that point, and the better of the two is
    kept (converged first, then the lower objective).

    ``lam`` stacks the phi block ``(beta_0, beta_l, rho_phi)`` and the omega
    block ``(beta_k, beta_kk, rho_omega)``.  The phi moments read
    ``lam[:3 + pz]`` and the omega moments ``beta_0``, ``beta_l`` and
    ``lam[3 + pz:]``, so the Jacobian is each block's derivative over the
    coordinates it reads, and zero elsewhere.  The phi rows are central
    finite differences.  The omega rows are in closed form: the omega
    moments are ``P c / s`` with ``s = sqrt(c'Gc)``, so their derivative is
    ``(P dc - (P c / s) c'G dc / s) / s`` with ``dc`` from
    :func:`~prodsys.moments.proxied_omega_coef_jacobian`, and ``P dc /
    _SCALE_FLOOR`` where the floor (:data:`_SCALE_FLOOR`) binds.
    """
    delta = step1.delta_lm
    pz, px = dataset.z.shape[1], dataset.x.shape[1]
    proj_e = step2.whitened_qe
    n_pairs, n_q = dataset.lag_pairs().cur.size, len(_instrument_names(dataset, options.instruments))
    if step2.n_pairs != n_pairs:
        raise ValueError(f"step2 was fitted on {step2.n_pairs} lag pairs; this panel has {n_pairs}")
    if proj_e.shape[0] != n_q:
        raise ValueError(f"step2's moment block has {proj_e.shape[0]} instruments; "
                         f"instruments={options.instruments!r} gives {n_q}")
    warnings: list[str] = []
    proj_r, gram_e, gram_r, h_names = _system_cross_products(dataset, step2, options, warnings)

    # ndarray.dot, not @: the same BLAS call, with half the overhead at this size
    def phi_moments(alpha):
        a = phi_law_coef(alpha, delta)
        # np.std of eps = E a is sqrt(a' G a) with G the centered Gram matrix
        return proj_e.dot(a) / max(math.sqrt(max(float(a.dot(gram_e).dot(a)), 0.0)), _SCALE_FLOOR)

    def omega_moments(betas_gamma):
        beta_0, beta_l = betas_gamma[:2].tolist()
        c = proxied_omega_coef(betas_gamma[2:], beta_0, beta_l, delta)
        return proj_r.dot(c) / max(math.sqrt(max(float(c.dot(gram_r).dot(c)), 0.0)), _SCALE_FLOOR)

    def omega_jacobian(betas_gamma):
        beta_0, beta_l = betas_gamma[:2].tolist()
        gamma = betas_gamma[2:]
        c = proxied_omega_coef(gamma, beta_0, beta_l, delta)
        dc = proxied_omega_coef_jacobian(gamma, beta_0, beta_l, delta)
        gram_c = gram_r.dot(c)
        s = math.sqrt(max(float(c.dot(gram_c)), 0.0))
        if s <= _SCALE_FLOOR:
            return proj_r.dot(dc) / _SCALE_FLOOR
        # d(Pc/s) = (P dc - (Pc/s) ds)/s with ds = c'G dc/s, so no s**3 to overflow
        return (proj_r.dot(dc) - (proj_r.dot(c) / s)[:, None] * (gram_c.dot(dc) / s)) / s

    n_phi, n_e = 3 + pz, proj_e.shape[0]
    omega_cols = np.r_[0:2, n_phi:n_phi + 4 + px]  # what the omega moments read

    def residual(lam):
        lam = np.asarray(lam, dtype=float)
        return np.concatenate((phi_moments(lam[:n_phi]), omega_moments(lam[omega_cols])))

    def jacobian(lam):
        jac = np.zeros((n_e + proj_r.shape[0], lam.size))
        jac[:n_e, :n_phi] = finite_diff_jacobian(phi_moments, lam[:n_phi])
        jac[n_e:, omega_cols] = omega_jacobian(lam[omega_cols])
        return jac

    box = _beta_box(delta)
    bound = _COEF_BOUND
    lo = np.concatenate((box[0], [-0.999999], np.full(pz, -bound), [-5.0, -5.0, -bound, -0.999999], np.full(px, -bound)))
    hi = np.concatenate((box[1], [0.999999], np.full(pz, bound), [5.0, 5.0, bound, 0.999999], np.full(px, bound)))
    problem = NlsProblem(residual=residual, jacobian=jacobian, bounds=(lo, hi))
    start = _profile_start(_system_profile(proj_e, gram_e, proj_r, gram_r, delta))
    result = minimize_nls(problem, np.clip(start, lo + 1e-9, hi - 1e-9),
                          grad_tol=options.grad_tol, max_iter=options.max_iter)
    sequential = np.clip(np.concatenate((
        [step2.beta_0, step2.beta_l, step2.rho_phi_1], step2.rho_phi_2,
        [step3.beta_k, step3.beta_kk, step3.rho_omega_0, step3.rho_omega_1], step3.rho_omega_2,
    )), lo + 1e-9, hi - 1e-9)
    r = residual(sequential)
    if not result.converged or float(r.dot(r)) < result.objective:
        again = minimize_nls(problem, sequential, grad_tol=options.grad_tol, max_iter=options.max_iter)
        result = min((result, again), key=lambda res: (not res.converged, res.objective))

    b0, bl, r1, r2 = *result.params[:3], result.params[3:3 + pz]
    bk, bkk, g0, g1, g2 = *result.params[3 + pz:7 + pz], result.params[7 + pz:]
    phi_hat = phi_proxy(dataset.m - dataset.l, dataset.s_l, b0, bl, delta)
    warnings += _valley_warning(dataset, phi_hat)
    if not result.converged:
        warnings.append(f"joint refinement did not converge: {result.status}")
    return SystemResult(
        beta_0=float(b0),
        beta_l=float(bl),
        beta_m=float(delta - bl),
        rho_phi_1=float(r1),
        rho_phi_2=np.asarray(r2, dtype=float),
        beta_k=float(bk),
        beta_kk=float(bkk),
        rho_omega_0=float(g0),
        rho_omega_1=float(g1),
        rho_omega_2=np.asarray(g2, dtype=float),
        phi_hat=phi_hat,
        objective=result.objective,
        converged=result.converged,
        n_pairs=n_pairs,
        instrument_names=h_names,
        warnings=warnings,
    )


# -- assembly ----------------------------------------------------------------


def recover_productivity(dataset: PanelDataset, params: TranslogParams, phi_hat: np.ndarray, eta_hat: np.ndarray) -> np.ndarray:
    """Factor-neutral productivity implied by the technology and estimates."""
    flex = flexible_output(params.beta_0, params.beta_l, params.beta_m, dataset.m, dataset.l, phi_hat)
    return dataset.y - params.beta_k * dataset.k - 0.5 * params.beta_kk * dataset.k**2 - flex - eta_hat


def _point_estimate(step1: Step1Result, step2, step3, system: SystemResult | None = None):
    """``(TranslogParams, ProductivityLaws)`` of a run: the refined point if any, else the steps."""
    phi_block = step2 if system is None else system
    omega_block = step3 if system is None else system
    params = TranslogParams(
        beta_k=omega_block.beta_k,
        beta_kk=omega_block.beta_kk,
        beta_l=phi_block.beta_l,
        beta_m=phi_block.beta_m,
        beta_0=phi_block.beta_0,
        theta=step1.theta,
    )
    laws = ProductivityLaws(
        rho_phi_1=phi_block.rho_phi_1,
        rho_phi_2=phi_block.rho_phi_2,
        rho_omega_0=omega_block.rho_omega_0,
        rho_omega_1=omega_block.rho_omega_1,
        rho_omega_2=omega_block.rho_omega_2,
    )
    return params, laws


def estimate(dataset: PanelDataset, options: EstimateOptions | None = None) -> TranslogEstimate:
    """Run the full estimator on a panel.

    Steps one to three run sequentially; unless ``options.refine`` is
    ``"none"`` the step-two/step-three blocks are then re-minimized
    jointly (``system_refine``) and the refined point is reported, with
    the sequential step records kept for diagnostics.
    """
    opts = options or EstimateOptions()
    opts.validate()
    step1 = step1_cost_share(dataset)
    step2 = step2_gmm(dataset, step1, opts)
    step3 = step3_nls(dataset, step1, step2, opts)
    system = system_refine(dataset, step1, step2, step3, opts) if opts.refine == "system" else None

    params, laws = _point_estimate(step1, step2, step3, system)
    phi_hat = (system or step2).phi_hat
    omega_hat = recover_productivity(dataset, params, phi_hat, step1.eta_hat)
    # each warning names the fit whose point it describes: under refinement
    # the reported point is the system's, which checks its own phi variance
    warnings = [f"{layer}: {w}" for layer, fit in (("step 2", step2), ("step 3", step3), ("system", system))
                if fit is not None for w in fit.warnings]
    return TranslogEstimate(
        params=params,
        laws=laws,
        phi_hat=phi_hat,
        omega_hat=omega_hat,
        eta_hat=step1.eta_hat,
        step1=step1,
        step2=step2,
        step3=step3,
        options=opts,
        system=system,
        warnings=warnings,
    )
