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
candidate (the moments module's cross-product core), so every fit here
forms its cross-products once per call and no optimizer iteration touches
an array as long as the panel: step two reads ``Q'E/n``, step three a
square root of ``D'D``, and the joint refinement the whitened projections
and Gram matrices of both blocks.

At a fixed slope in lagged productivity each linear-law fit is a linear
least-squares problem in its other coefficients, so steps two and three
scan that one slope (:func:`_slope_profile`) and polish each local minimum
of the profile with one optimizer start; the joint refinement starts from
the same minima.  The series laws of :mod:`prodsys.sieve` keep the
lag-pair residuals, with the same bounds and their own start grids
(:func:`_phi_law_gmm`, :func:`_omega_law_nls`).

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
    flexible_output,
    omega_law_coef,
    omega_law_coef_jacobian,
    omega_law_columns,
    phi_law_coef,
    phi_law_coef_jacobian,
    phi_law_columns,
    phi_proxy,
    proxied_omega_coef,
    proxied_omega_coef_jacobian,
    proxied_omega_map,
)
from .optim import GRAD_TOL, MAX_ITER, GmmProblem, NlsProblem, OptimResult, _psd_sqrt, finite_diff_jacobian
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
    "build_level_instruments",
    "step2_gmm",
    "information_matrix",
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
    """Joint refinement of the step-two and step-three parameter blocks."""

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


def _solve_batch(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``x[:, g]`` with ``mats[:, :, g] @ x[:, g] == rhs[:, g]``, for symmetric positive semidefinite ``mats``.

    Gaussian elimination written over the batch axis, which is last: at two
    to five unknowns and two thousand systems it costs a tenth to a fourth
    of ``np.linalg.solve``, which also raises for the whole batch if one
    matrix is singular.  A symmetric positive definite matrix needs no
    pivoting; a singular one divides by a zero pivot, so its solution is
    not finite.  Call it under ``np.errstate``.
    """
    k = mats.shape[0]
    mats, x = mats.copy(), rhs.copy()
    for j in range(k - 1):
        f = mats[j + 1:, j] / mats[j, j]
        mats[j + 1:, j + 1:] -= f[:, None] * mats[j, j + 1:]
        x[j + 1:] -= f * x[j]
    for j in range(k - 1, -1, -1):
        x[j] = (x[j] - np.einsum("kg,kg->g", mats[j, j + 1:], x[j + 1:])) / mats[j, j]
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
    crit, _ = profile(_SLOPES)
    left, right = np.r_[np.inf, crit[:-1]], np.r_[crit[1:], np.inf]
    at = np.flatnonzero(np.isfinite(crit) & (crit < left) & (crit <= right))
    if not at.size:
        return _SLOPES[at], np.empty((0, 0)), crit[at]
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


def _phi_slope_minima(proj: np.ndarray, delta_lm: float, bounds) -> list[np.ndarray]:
    """Step two's profile minima (:func:`_phi_profile`) as ``(beta_0, beta_l, rho_1, rho_2)``, best first."""
    slopes, theta, _ = _profile_minima(_phi_profile(proj, delta_lm, bounds))
    lo, hi = bounds
    return [np.concatenate((np.clip([1.0 / th[1], th[0] / th[1]], lo, hi), [r], th[2:]))
            for r, th in zip(slopes.tolist(), theta)]


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
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    ml_prev = dataset.m[prev] - dataset.l[prev]
    cols = [np.ones(cur.size), ml_prev, dataset.s_l[prev]]
    names = ["const", "ml_lag", "s_l_lag"]
    for j in range(dataset.z.shape[1]):
        cols.append(dataset.z[prev, j])
        names.append(f"{dataset.z_names[j]}_lag")
    if kind == "default":
        cols += [dataset.k[cur], dataset.k[prev]]
        names += ["k", "k_lag"]
    elif kind != "exactly_identified":
        raise ValueError(f"unknown instrument set {kind!r}")
    return np.column_stack(cols), tuple(names)


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


def _gram_weight(mat: np.ndarray, label: str, warnings: list[str]) -> np.ndarray:
    gram = mat.T @ mat / mat.shape[0]
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        warnings.append(f"{label} Gram matrix ill-conditioned (cond={cond:.2e}); using pseudo-inverse")
        return np.linalg.pinv(gram)
    return np.linalg.inv(gram)


def _phi_moment_block(dataset: PanelDataset, options: EstimateOptions, label: str, warnings: list[str]):
    """``(names, W, E, Q'E)`` of step two's moments, for every fit that reads them.

    ``Q`` is :func:`build_instruments`' matrix, ``W`` its :func:`_gram_weight`
    (warning under ``label``) and ``E`` the phi-law columns, a fresh array.
    """
    q, names = build_instruments(dataset, kind=options.instruments)
    if q.shape[0] <= q.shape[1]:
        raise ValueError("not enough lag pairs for the instrument count")
    weight = _gram_weight(q, label, warnings)
    e = phi_law_columns(*_step2_arrays(dataset))
    return names, weight, e, q.T @ e


def _beta_box(delta_lm: float):
    """The box ``((lo_0, lo_l), (hi_0, hi_l))`` of ``(beta_0, beta_l)`` in step two and the joint system.

    ``beta_0`` stays below the Cobb-Douglas limit 0, where proxied phi
    divides by zero, and ``beta_l`` inside ``(0, delta_lm)``.
    """
    return (-10.0, 1e-10), (-1e-10, delta_lm * (1 - 1e-10))


def _phi_law_gmm(moments, jacobian, lin: int, n_params: int, delta_lm: float, weight):
    """GMM problem and start grid of a phi law, linear or series.

    ``moments`` and ``jacobian`` map the parameters ``(beta_0, beta_l,
    coef)`` to the averaged moments and their derivative; ``coef[lin - 2]``
    is the slope in lagged phi, kept inside the unit interval.  The starts
    cross curvature magnitudes with labor shares; the series law runs them
    all, and the linear law only the first, on a panel whose slope profile
    has no minimum.  ``(beta_0, beta_l)`` lie in :func:`_beta_box`.
    """
    lo, hi = np.full(n_params, -50.0), np.full(n_params, 50.0)
    lo[:2], hi[:2] = _beta_box(delta_lm)
    lo[lin], hi[lin] = -0.999999, 0.999999
    problem = GmmProblem(moments=moments, jacobian=jacobian, weight=weight, bounds=(lo, hi))
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
    innovation of the phi law evaluated at proxied phi.  The default
    weight is ``(Q'Q/N)^{-1}``; parameters are ``(beta_0, beta_l,
    rho_phi_1, rho_phi_2)`` with ``beta_m`` recovered as ``delta_lm -
    beta_l``.

    The innovation is ``E a(alpha)`` with fixed columns ``E``
    (:func:`~prodsys.moments.phi_law_columns`), so ``Q'E/N`` is formed once
    and the moments ``(Q'E/N) a`` and their Jacobian ``(Q'E/N) da/dalpha``
    cost the same at any panel size.

    The starts are the local minima of the criterion's profile in
    ``rho_phi_1`` (:func:`_phi_profile`), one optimizer start each, and the
    best polished minimum is reported.  On the benchmark panels the profile
    has two minima: the lower one in the rescaling valley, which step two
    reports, and one near the truth, which the joint refinement starts from.
    """
    delta = step1.delta_lm
    pz = dataset.z.shape[1]
    warnings: list[str] = []
    names, weight, e, qe = _phi_moment_block(dataset, options, "instrument", warnings)
    n_pairs = e.shape[0]
    qe = qe / n_pairs
    problem, grid = _phi_law_gmm(
        lambda alpha: qe @ phi_law_coef(alpha, delta),
        lambda alpha: qe @ phi_law_coef_jacobian(alpha, delta),
        2, 3 + pz, delta, weight,
    )
    starts = _phi_slope_minima(_psd_sqrt(weight) @ qe, delta, _beta_box(delta)) or grid[:1]
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
        n_pairs=n_pairs,
        instrument_names=names,
        warnings=warnings,
    )


def information_matrix(dataset: PanelDataset, step1: Step1Result, alpha, options: EstimateOptions):
    """Curvature of the GMM criterion at ``alpha``: ``G'WG`` with rank and condition.

    ``G = (Q'E/N) da/dalpha`` is the Jacobian of step two's moments and ``W``
    their weight, so this is the curvature of the criterion step two minimizes.  A
    full-rank matrix signals local identification of the step-two
    parameters; rank deficiency arises, for example, when the labor share
    carries no independent variation.
    """
    _, weight, e, qe = _phi_moment_block(dataset, options, "instrument", [])
    g = qe / e.shape[0] @ phi_law_coef_jacobian(np.asarray(alpha, dtype=float), step1.delta_lm)
    info = g.T @ weight @ g
    svals = np.linalg.svd(info, compute_uv=False)
    tol = max(info.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > tol))
    cond = float(svals[0] / svals[-1]) if svals.size and svals[-1] > 0 else float("inf")
    return info, rank, cond


# -- step three --------------------------------------------------------------


def _foc_term(dataset: PanelDataset, delta_lm: float, theta: float, which: str) -> np.ndarray:
    """``ln(P/P^Y) - ln(theta) - ln(e) + input`` of the omega proxy's FOC, on every row.

    On proxied phi the elasticity ``e`` is ``delta*(1 - s_l)`` for materials
    and ``delta*s_l`` for labor, whatever the candidate; ``average`` takes
    the mean over both.
    """
    if not delta_lm > 0:
        raise ValueError(f"delta_lm must be positive, got {delta_lm}")
    materials = dataset.ln_price_m - np.log(delta_lm * (1.0 - dataset.s_l)) + dataset.m
    labor = dataset.ln_price_l - np.log(delta_lm * dataset.s_l) + dataset.l
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


def step3_core(y_cur, k_cur, k_prev, mstar_prev, x_prev, options: EstimateOptions) -> OptimResult:
    """Step-three least squares of the linear omega law on pre-assembled pair arrays.

    Parameter order is ``(beta_k, beta_kk, rho_0, rho_1, rho_2)``; the
    model is documented on :func:`step3_nls`, which assembles the arrays
    from a dataset.

    The residual is ``D c(gamma)`` with fixed columns ``D``
    (:func:`~prodsys.moments.omega_law_columns`).  With ``S`` the triangular
    factor of ``D = QS``, ``S'S = D'D``, so the short residual ``S c`` and
    its Jacobian ``S dc/dgamma`` have the same ``r'r``, ``J'r`` and ``J'J``
    as ``D c`` and ``D dc/dgamma``.  Levenberg-Marquardt reads a problem
    only through those three products (the objective, the gradient and the
    damped normal equations), so it takes the same iterates as on the long
    residual, and ``S`` is formed once per call.

    The starts are the local minima of ``|S c|^2``'s profile in ``rho_1``
    (:func:`_omega_profile`), one optimizer start each, and the best
    polished minimum is returned.
    """
    root = np.linalg.qr(omega_law_columns(y_cur, k_cur, k_prev, mstar_prev, x_prev), mode="r")
    problem, grid = _omega_law_nls(
        lambda gamma: root @ omega_law_coef(gamma),
        lambda gamma: root @ omega_law_coef_jacobian(gamma),
        3, 4 + x_prev.shape[1], root[:, [2, 3, 1]], root[:, 0],
    )
    starts = _omega_slope_minima(root) or grid[:1]
    return minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)


def step3_nls(dataset: PanelDataset, step1: Step1Result, step2: Step2Result, options: EstimateOptions) -> Step3Result:
    """Nonlinear least squares for the capital coefficients and the omega law.

    Regresses the flexible-input-purged output ``y*`` on the capital terms
    and the autoregression of proxied lagged omega:

        y*_t = beta_k*k_t + 0.5*beta_kk*k_t^2 + rho_0
               + rho_1*(m*_{t-1} - beta_k*k_{t-1} - 0.5*beta_kk*k_{t-1}^2)
               + rho_2'X_{t-1} + error.
    """
    ystar, mstar = _omega_law_data(dataset, step2.beta_0, step2.beta_l, step1.delta_lm, step1.theta, options.proxy)
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    if cur.size < 4 + dataset.x.shape[1]:
        raise ValueError("too few usable lag pairs for step three")

    result = step3_core(ystar[cur], dataset.k[cur], dataset.k[prev], mstar[prev], dataset.x[prev], options)
    return _step3_result(result, proxy=options.proxy, n_pairs=int(cur.size))


def _step3_result(result: OptimResult, *, proxy: str, n_pairs: int) -> Step3Result:
    """Step-three record from a :func:`step3_core` fit."""
    warnings = []
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


def build_level_instruments(dataset: PanelDataset):
    """Instrument matrix for the output-level block of the joint system.

    Everything here is either current/lagged capital (predetermined) or a
    lagged flexible-input observable, so all columns are orthogonal to the
    period-``t`` productivity innovation and transitory shock.  Returns
    ``(H, names)`` aligned to the dataset's lag pairs.
    """
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    k_cur, k_prev = dataset.k[cur], dataset.k[prev]
    cols = [
        np.ones(cur.size),
        k_cur,
        k_cur**2,
        k_prev,
        k_prev**2,
        dataset.m[prev],
        dataset.m[prev] - dataset.l[prev],
        dataset.s_l[prev],
    ]
    names = ["const", "k", "k_sq", "k_lag", "k_sq_lag", "m_lag", "ml_lag", "s_l_lag"]
    for j in range(dataset.x.shape[1]):
        cols.append(dataset.x[prev, j])
        names.append(f"{dataset.x_names[j]}_lag")
    for j in range(dataset.z.shape[1]):
        cols.append(dataset.z[prev, j])
        names.append(f"{dataset.z_names[j]}_lag")
    return np.column_stack(cols), tuple(names)


def _system_cross_products(dataset: PanelDataset, step1: Step1Result, options: EstimateOptions, warnings: list[str]):
    """Candidate-free cross-products of the joint system's two residuals.

    On proxied phi the phi-law innovation is ``eps = E a`` and the omega-law
    residual is ``r = R c``, with ``E`` the block of
    :func:`~prodsys.moments.phi_law_columns`, ``R`` the block of
    :func:`~prodsys.moments.proxied_omega_coef`, and coefficients ``a`` and
    ``c`` that depend only on the candidate (see :func:`system_refine`).

    Returns ``(P_E, P_R, G_E, G_R, L_R, n, h_names)``: the whitened
    projections ``half_q Q'E / n`` and ``half_h H'R / n``, the centered Gram
    matrices ``E_c'E_c / n`` and ``R_c'R_c / n``, a symmetric root ``L_R`` of
    the uncentered ``R'R / n``, the number of lag pairs and the
    level-instrument names.  No lag-pair array outlives the call.
    """
    delta = step1.delta_lm
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    n = cur.size
    s_cur, s_prev = dataset.s_l[cur], dataset.s_l[prev]
    m_cur, m_prev = dataset.m[cur], dataset.m[prev]
    k_cur, k_prev = dataset.k[cur], dataset.k[prev]
    foc_prev = _foc_term(dataset, delta, step1.theta, options.proxy)[prev]  # lagged omega proxy plus flexible output

    r = np.column_stack([
        dataset.y[cur] - delta * m_cur, np.ones(n), s_cur**2, k_cur, 0.5 * k_cur**2,
        foc_prev - delta * m_prev, s_prev**2, k_prev, 0.5 * k_prev**2, *dataset.x[prev].T,
    ])
    h, h_names = build_level_instruments(dataset)
    if n <= h.shape[1]:  # H has more columns than Q
        raise ValueError("not enough usable lag pairs for the joint refinement")
    _, weight_q, e, qe = _phi_moment_block(dataset, options, "step-2 instrument", warnings)
    proj_e = _psd_sqrt(weight_q) @ qe / n
    proj_r = _psd_sqrt(_gram_weight(h, "output-level instrument", warnings)) @ (h.T @ r) / n
    e -= e.mean(axis=0)
    mean_r = r.mean(axis=0)
    r -= mean_r
    gram_r = r.T @ r / n
    return proj_e, proj_r, e.T @ e / n, gram_r, _psd_sqrt(gram_r + np.outer(mean_r, mean_r)), n, h_names


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
    predetermined instruments (``build_level_instruments``) yields moments
    that move sharply along the flat ray.  This routine stacks

        E[Q_{t-1} * eps_t(alpha)] = 0  and  E[H_{t-1} * r_t(alpha, gamma)] = 0

    and minimizes the sum of the two quadratic forms, each weighted by its
    inverse instrument Gram matrix and normalized by the residual standard
    deviation at the candidate point so that neither block can be improved
    by pure rescaling.  Step-one quantities stay frozen at their closed
    form.

    The starts come from the cross-products formed below.  ``P_E`` is
    step two's whitened ``Q'E/n``, so :func:`_phi_profile` on it is step
    two's slope profile; a root of the uncentered ``R'R`` (the centered Gram matrix plus
    the outer product of the column means), carried to a step-two point by
    :func:`~prodsys.moments.proxied_omega_map`, is a root of step three's
    ``D'D`` there.  The starts are the sequential point, one seed per other
    minimum of step two's profile (its step-two point and the lowest minimum
    of step three's profile at it), and one fixed start, ``(beta_0, beta_l)
    = (-0.2, delta/2)``.  On most benchmark panels step two's profile has
    two minima, the sequential one in the rescaling valley and one near the
    truth, next to which the joint answer lies.  Where the profile has only
    the valley minimum (``benchmark_config(n=200, seed=1070)``), the fixed
    start is the one that reaches the truth side.

    Both stacked residuals are fixed data columns times coefficients that
    depend only on the candidate: ``eps = E a`` with ``a`` step two's
    :func:`~prodsys.moments.phi_law_coef`, and ``r = R c`` with ``c`` step
    three's :func:`~prodsys.moments.omega_law_coef` carried through the
    proxied-phi expansion of ``y*`` and ``m*``
    (:func:`~prodsys.moments.proxied_omega_coef`).  The projections
    ``Q'E``, ``H'R`` and the centered Gram matrices of ``E`` and ``R`` (see
    :func:`_system_cross_products`) are formed once per call; each residual
    evaluation is then a few products of size at most about 20, and its cost
    no longer grows with the number of lag pairs.

    ``lam`` stacks the phi block ``(beta_0, beta_l, rho_phi)`` and the omega
    block ``(beta_k, beta_kk, rho_omega)``.  The phi moments read
    ``lam[:3 + pz]`` and the omega moments ``beta_0``, ``beta_l`` and
    ``lam[3 + pz:]``, so the Jacobian is each block's derivative over the
    coordinates it reads, and zero elsewhere.  The phi rows are central
    finite differences.  The omega rows are in closed form: the omega
    moments are ``P c / s`` with ``s = sqrt(c'Gc)``, so their derivative is
    ``(P dc - (P c / s) c'G dc / s) / s`` with ``dc`` from
    :func:`~prodsys.moments.proxied_omega_coef_jacobian`, and ``P dc /
    scale_floor`` where the floor binds.

    No start the scan names reaches ``beta_0``'s face of :func:`_beta_box`,
    the Cobb-Douglas limit.  :func:`minimize_nls` ranks any converged start
    above one that ran out of iterations or stopped along the box
    (:data:`~prodsys.optim.STALL_STATUS`, a guard kept for the series laws'
    start grid of :func:`_phi_law_gmm`, which still reaches it).
    """
    delta = step1.delta_lm
    pz, px = dataset.z.shape[1], dataset.x.shape[1]
    warnings: list[str] = []
    proj_e, proj_r, gram_e, gram_r, root_r, n, h_names = _system_cross_products(dataset, step1, options, warnings)
    scale_floor = 1e-8  # keeps noiseless panels from dividing by ~eps

    # ndarray.dot, not @: the same BLAS call, with half the overhead at this size
    def phi_moments(alpha):
        a = phi_law_coef(alpha, delta)
        # np.std of eps = E a is sqrt(a' G a) with G the centered Gram matrix
        return proj_e.dot(a) / max(math.sqrt(max(float(a.dot(gram_e).dot(a)), 0.0)), scale_floor)

    def omega_moments(betas_gamma):
        beta_0, beta_l = betas_gamma[:2].tolist()
        c = proxied_omega_coef(betas_gamma[2:], beta_0, beta_l, delta)
        return proj_r.dot(c) / max(math.sqrt(max(float(c.dot(gram_r).dot(c)), 0.0)), scale_floor)

    def omega_jacobian(betas_gamma):
        beta_0, beta_l = betas_gamma[:2].tolist()
        gamma = betas_gamma[2:]
        c = proxied_omega_coef(gamma, beta_0, beta_l, delta)
        dc = proxied_omega_coef_jacobian(gamma, beta_0, beta_l, delta)
        gram_c = gram_r.dot(c)
        s = math.sqrt(max(float(c.dot(gram_c)), 0.0))
        if s <= scale_floor:
            return proj_r.dot(dc) / scale_floor
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
    lo = np.concatenate((box[0], [-0.999999], np.full(pz, -50.0), [-5.0, -5.0, -50.0, -0.999999], np.full(px, -50.0)))
    hi = np.concatenate((box[1], [0.999999], np.full(pz, 50.0), [5.0, 5.0, 50.0, 0.999999], np.full(px, 50.0)))
    problem = NlsProblem(residual=residual, jacobian=jacobian, bounds=(lo, hi))

    seq = np.concatenate((
        [step2.beta_0, step2.beta_l, step2.rho_phi_1], step2.rho_phi_2,
        [step3.beta_k, step3.beta_kk, step3.rho_omega_0, step3.rho_omega_1], step3.rho_omega_2,
    ))
    starts = [seq]
    for alpha in _phi_slope_minima(proj_e, delta, box):
        if abs(alpha[2] - step2.rho_phi_1) < 1e-6:
            continue  # the sequential point's own minimum
        gammas = _omega_slope_minima(root_r @ proxied_omega_map(alpha[0], alpha[1], delta, px))
        if gammas:
            starts.append(np.concatenate((alpha, gammas[0])))
    starts = [np.clip(start, lo + 1e-9, hi - 1e-9) for start in starts]
    starts.append(np.concatenate(([-0.2, 0.5 * delta, 0.5], np.zeros(pz), [0.1, 0.0, 0.0, 0.5], np.zeros(px))))
    result = minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)

    b0, bl, r1, r2 = *result.params[:3], result.params[3:3 + pz]
    bk, bkk, g0, g1, g2 = *result.params[3 + pz:7 + pz], result.params[7 + pz:]
    warnings += _valley_warning(dataset, phi_proxy(dataset.m - dataset.l, dataset.s_l, b0, bl, delta))
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
        objective=result.objective,
        converged=result.converged,
        n_pairs=n,
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
    if system is not None:
        phi_hat = phi_proxy(dataset.m - dataset.l, dataset.s_l, params.beta_0, params.beta_l, step1.delta_lm)
    else:
        phi_hat = step2.phi_hat
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
