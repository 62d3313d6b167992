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

The phi-law innovation and the omega-law residual, with their Jacobians,
and the flexible-input part of log output are defined once in
:mod:`prodsys.moments`.  Every step here evaluates the laws under the
linear ``PHI_LAW`` and ``OMEGA_LAW``, and every purged output ``y*`` and
omega proxy ``m*`` subtracts :func:`~prodsys.moments.flexible_output`.  The
joint refinement evaluates the same two residuals in closed form on
proxied phi, from cross-products of the data formed once per call.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .moments import (
    LinearLaw,
    capital_terms,
    flexible_output,
    omega_residual,
    omega_residual_jacobian,
    phi_innovation,
    phi_innovation_jacobian,
    phi_proxy,
)
from .optim import GmmProblem, NlsProblem, OptimResult, _psd_sqrt, minimize_gmm, minimize_nls
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

#: the parametric laws of motion: ``(rho_phi_1, rho_phi_2)`` and
#: ``(rho_omega_0, rho_omega_1, rho_omega_2)``
PHI_LAW = LinearLaw(intercept=False)
OMEGA_LAW = LinearLaw(intercept=True)


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
    system: SystemResult | None = None
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class EstimateOptions:
    """Knobs for the three-step run; defaults follow the benchmark setup."""

    proxy: str = "materials"  # materials | labor | average
    instruments: str = "default"  # default | exactly_identified
    refine: str = "system"  # system | none
    grad_tol: float = 1e-8
    max_iter: int = 500


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
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    return (
        dataset.m[cur] - dataset.l[cur],
        dataset.m[prev] - dataset.l[prev],
        dataset.s_l[cur],
        dataset.s_l[prev],
        dataset.z[prev],
    )


def step2_residual(alpha: np.ndarray, delta_lm: float, *arrays) -> np.ndarray:
    """Innovation of the linear phi law at ``alpha = (beta_0, beta_l, rho)``.

    ``arrays`` are the lag-pair arrays of :func:`_step2_arrays`.
    """
    return phi_innovation(alpha, PHI_LAW, delta_lm, *arrays)


def step2_residual_jacobian(alpha: np.ndarray, delta_lm: float, *arrays) -> np.ndarray:
    """Analytic derivative of :func:`step2_residual` in each parameter."""
    return phi_innovation_jacobian(alpha, PHI_LAW, delta_lm, *arrays)


def _gram_weight(mat: np.ndarray, label: str, warnings: list[str]) -> np.ndarray:
    gram = mat.T @ mat / mat.shape[0]
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        warnings.append(f"{label} Gram matrix ill-conditioned (cond={cond:.2e}); using pseudo-inverse")
        return np.linalg.pinv(gram)
    return np.linalg.inv(gram)


def _phi_law_gmm(law, lin: int, n_params: int, delta_lm: float, arrays, q, weight):
    """GMM problem and default start grid of a phi law, linear or series.

    Parameters are ``(beta_0, beta_l, coef)``; ``coef[lin - 2]`` is the
    slope in lagged phi, kept inside the unit interval.  The starts cross
    curvature magnitudes with labor shares.
    """
    n_pairs = q.shape[0]
    args = (law, delta_lm, *arrays)
    lo, hi = np.full(n_params, -50.0), np.full(n_params, 50.0)
    lo[:2], hi[:2] = (-10.0, 1e-10), (-1e-10, delta_lm * (1 - 1e-10))
    lo[lin], hi[lin] = -0.999999, 0.999999
    problem = GmmProblem(
        moments=lambda alpha: q.T @ phi_innovation(alpha, *args) / n_pairs,
        jacobian=lambda alpha: q.T @ phi_innovation_jacobian(alpha, *args) / n_pairs,
        weight=weight,
        bounds=(lo, hi),
    )
    starts = []
    for b0 in (-0.2, -0.1, -0.05, -0.02, -0.005):
        for frac in (0.25, 0.5, 0.75):
            start = np.zeros(n_params)
            start[0], start[1], start[lin] = b0, frac * delta_lm, 0.5
            starts.append(start)
    return problem, starts


def step2_gmm(
    dataset: PanelDataset,
    step1: Step1Result,
    *,
    instruments: str = "default",
    grad_tol: float = 1e-8,
    max_iter: int = 500,
) -> Step2Result:
    """GMM estimation of the curvature, labor coefficient and phi law.

    Moments are ``E[Q_{t-1} * eps_t(alpha)] = 0`` where ``eps`` is the
    innovation of the phi law evaluated at proxied phi.  The default
    weight is ``(Q'Q/N)^{-1}``; parameters are ``(beta_0, beta_l,
    rho_phi_1, rho_phi_2)`` with ``beta_m`` recovered as ``delta_lm -
    beta_l``.
    """
    delta = step1.delta_lm
    arrays = _step2_arrays(dataset)
    pz = dataset.z.shape[1]
    q, names = build_instruments(dataset, kind=instruments)
    n_pairs = q.shape[0]
    if n_pairs <= q.shape[1]:
        raise ValueError("not enough lag pairs for the instrument count")

    warnings: list[str] = []
    weight = _gram_weight(q, "instrument", warnings)
    problem, starts = _phi_law_gmm(PHI_LAW, 2, 3 + pz, delta, arrays, q, weight)
    result = minimize_gmm(problem, starts[0], starts=starts[1:], grad_tol=grad_tol, max_iter=max_iter)

    beta_0, beta_l, rho_1, rho_2 = *result.params[:3], result.params[3:]
    beta_m = delta - beta_l
    phi_hat = phi_proxy(dataset.m - dataset.l, dataset.s_l, beta_0, beta_l, delta)

    # the criterion has a rescaling valley: (beta_0, beta_l) can be moved so
    # that proxied phi becomes nearly constant, which mechanically shrinks the
    # innovation; flag that degenerate configuration rather than hiding it
    var_ratio = float(np.var(phi_hat) / max(np.var(dataset.m - dataset.l), 1e-300))
    if var_ratio < 0.01:
        warnings.append(
            f"proxied phi variance is {var_ratio:.1e} of the m - l variance; "
            "point is likely in the degenerate rescaling valley (see system_refine)"
        )
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


def information_matrix(dataset: PanelDataset, step1: Step1Result, alpha, *, instruments: str = "default"):
    """Curvature of the GMM criterion at ``alpha``: ``G'WG`` with rank and condition.

    A full-rank matrix signals local identification of the step-two
    parameters; rank deficiency arises, for example, when the labor share
    carries no independent variation.
    """
    arrays = _step2_arrays(dataset)
    q, _ = build_instruments(dataset, kind=instruments)
    n_pairs = q.shape[0]
    weight = np.linalg.pinv(q.T @ q / n_pairs)
    g = q.T @ step2_residual_jacobian(np.asarray(alpha, dtype=float), step1.delta_lm, *arrays) / n_pairs
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


def _omega_law_nls(args, lin: int, n_params: int):
    """Least-squares problem and starts of an omega law, linear or series.

    ``args`` follow the law in :func:`omega_residual`'s argument order;
    parameters are ``(beta_k, beta_kk, coef)`` with the intercept first in
    ``coef`` and the slope in lagged omega at index ``lin``, kept inside the
    unit interval.  Starts profile the capital terms and the intercept by
    least squares at a few fixed slopes.
    """
    y_cur, cap_cur = args[1], args[2]
    lo, hi = np.full(n_params, -np.inf), np.full(n_params, np.inf)
    lo[lin], hi[lin] = -0.999999, 0.999999
    problem = NlsProblem(
        residual=lambda gamma: omega_residual(gamma, *args),
        jacobian=lambda gamma: omega_residual_jacobian(gamma, *args),
        bounds=(lo, hi),
    )
    ols, *_ = np.linalg.lstsq(np.column_stack([cap_cur, np.ones_like(y_cur)]), y_cur, rcond=None)
    starts = []
    for slope in (0.5, 0.2, 0.8):
        start = np.zeros(n_params)
        start[:3], start[lin] = ols, slope
        starts.append(start)
    return problem, starts


def step3_core(
    y_cur,
    k_cur,
    k_prev,
    mstar_prev,
    x_prev,
    *,
    grad_tol: float = 1e-8,
    max_iter: int = 500,
) -> OptimResult:
    """Step-three least squares of the linear omega law on pre-assembled pair arrays.

    Parameter order is ``(beta_k, beta_kk, rho_0, rho_1, rho_2)``; the
    model is documented on :func:`step3_nls`, which assembles the arrays
    from a dataset.
    """
    args = (OMEGA_LAW, y_cur, capital_terms(k_cur), capital_terms(k_prev), mstar_prev, x_prev)
    problem, starts = _omega_law_nls(args, 3, 4 + x_prev.shape[1])
    return minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=grad_tol, max_iter=max_iter)


def step3_nls(
    dataset: PanelDataset,
    step1: Step1Result,
    step2: Step2Result,
    *,
    proxy: str = "materials",
    grad_tol: float = 1e-8,
    max_iter: int = 500,
) -> Step3Result:
    """Nonlinear least squares for the capital coefficients and the omega law.

    Regresses the flexible-input-purged output ``y*`` on the capital terms
    and the autoregression of proxied lagged omega:

        y*_t = beta_k*k_t + 0.5*beta_kk*k_t^2 + rho_0
               + rho_1*(m*_{t-1} - beta_k*k_{t-1} - 0.5*beta_kk*k_{t-1}^2)
               + rho_2'X_{t-1} + error.
    """
    ystar, mstar = _omega_law_data(dataset, step2.beta_0, step2.beta_l, step1.delta_lm, step1.theta, proxy)
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    if cur.size < 4 + dataset.x.shape[1]:
        raise ValueError("too few usable lag pairs for step three")

    result = step3_core(
        ystar[cur], dataset.k[cur], dataset.k[prev], mstar[prev], dataset.x[prev],
        grad_tol=grad_tol, max_iter=max_iter,
    )
    return _step3_result(result, proxy=proxy, n_pairs=int(cur.size))


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


def _system_cross_products(
    dataset: PanelDataset, step1: Step1Result, *, proxy: str, instruments: str, warnings: list[str]
):
    """Candidate-free cross-products of the joint system's two residuals.

    On proxied phi the phi-law innovation is ``eps = E a`` and the omega-law
    residual is ``r = R c``, with data columns

        E = [ml_cur, ml_prev, 1, s_cur, s_prev, z_prev],
        R = [y_cur - delta*m_cur, 1, s_cur^2, k_cur, k_cur^2/2,
             foc_prev - delta*m_prev, s_prev^2, k_prev, k_prev^2/2, x_prev]

    and coefficients ``a`` and ``c`` that depend only on the candidate (see
    :func:`system_refine`).  Returns ``(P_E, P_R, G_E, G_R, n, h_names)``:
    the whitened projections ``half_q Q'E / n`` and ``half_h H'R / n``, the
    centered Gram matrices ``E_c'E_c / n`` and ``R_c'R_c / n``, the number
    of lag pairs and the level-instrument names.  No lag-pair array outlives
    the call.
    """
    delta = step1.delta_lm
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    n = cur.size
    s_cur, s_prev = dataset.s_l[cur], dataset.s_l[prev]
    m_cur, m_prev = dataset.m[cur], dataset.m[prev]
    k_cur, k_prev = dataset.k[cur], dataset.k[prev]
    foc_prev = _foc_term(dataset, delta, step1.theta, proxy)[prev]  # lagged omega proxy plus flexible output

    ones = np.ones(n)
    e = np.column_stack([m_cur - dataset.l[cur], m_prev - dataset.l[prev], ones, s_cur, s_prev, *dataset.z[prev].T])
    r = np.column_stack([
        dataset.y[cur] - delta * m_cur, ones, s_cur**2, k_cur, 0.5 * k_cur**2,
        foc_prev - delta * m_prev, s_prev**2, k_prev, 0.5 * k_prev**2, *dataset.x[prev].T,
    ])
    q, _ = build_instruments(dataset, kind=instruments)
    h, h_names = build_level_instruments(dataset)
    if n <= max(q.shape[1], h.shape[1]):
        raise ValueError("not enough usable lag pairs for the joint refinement")
    proj_e = _psd_sqrt(_gram_weight(q, "step-2 instrument", warnings)) @ (q.T @ e) / n
    proj_r = _psd_sqrt(_gram_weight(h, "output-level instrument", warnings)) @ (h.T @ r) / n
    e -= e.mean(axis=0)
    r -= r.mean(axis=0)
    return proj_e, proj_r, e.T @ e / n, r.T @ r / n, n, h_names


def system_refine(
    dataset: PanelDataset,
    step1: Step1Result,
    step2: Step2Result,
    step3: Step3Result,
    *,
    proxy: str = "materials",
    instruments: str = "default",
    grad_tol: float = 1e-8,
    max_iter: int = 500,
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
    form.  Starts are the sequential solution plus a coarse grid over the
    step-two block.

    Both stacked residuals are fixed data columns times coefficients that
    depend only on the candidate.  On proxied phi, ``x = m - phi - l =
    (delta*s - beta_l)/beta_0``, so the flexible-input term is ``delta*m +
    (beta_l^2 - delta^2*s^2)/(2*beta_0)`` and

        eps = E a,  a = [1, -rho_phi_1, (beta_l/beta_0)(1 - rho_phi_1),
                         -delta/beta_0, rho_phi_1*delta/beta_0, -rho_phi_2],
        r = R c,    c = [1, -(beta_l^2/(2*beta_0))(1 - rho_omega_1) - rho_omega_0,
                         delta^2/(2*beta_0), -beta_k, -beta_kk, -rho_omega_1,
                         -rho_omega_1*delta^2/(2*beta_0), rho_omega_1*beta_k,
                         rho_omega_1*beta_kk, -rho_omega_2]

    with ``E`` and ``R`` the columns of :func:`_system_cross_products`.  The
    projections ``Q'E``, ``H'R`` and the centered Gram matrices of ``E`` and
    ``R`` are formed once per call; each residual evaluation, and so each
    of the finite-difference Jacobian's, is then a few products of size at
    most about 20, and its cost no longer grows with the number of lag
    pairs.
    """
    delta = step1.delta_lm
    pz, px = dataset.z.shape[1], dataset.x.shape[1]
    warnings: list[str] = []
    proj_e, proj_r, gram_e, gram_r, n, h_names = _system_cross_products(
        dataset, step1, proxy=proxy, instruments=instruments, warnings=warnings
    )
    scale_floor = 1e-8  # keeps noiseless panels from dividing by ~eps

    def residual(lam):
        # lam stacks the phi block (beta_0, beta_l, rho_phi) and the omega
        # block (beta_k, beta_kk, rho_omega) of the moment core
        b0, bl, r1, r2 = *lam[:3], lam[3:3 + pz]
        bk, bkk, g0, g1, g2 = *lam[3 + pz:7 + pz], lam[7 + pz:]
        curv = delta**2 / (2.0 * b0)
        a = np.concatenate(([1.0, -r1, bl / b0 * (1.0 - r1), -delta / b0, r1 * delta / b0], -r2))
        c = np.concatenate((
            [1.0, -bl**2 / (2.0 * b0) * (1.0 - g1) - g0, curv, -bk, -bkk, -g1, -g1 * curv, g1 * bk, g1 * bkk], -g2,
        ))
        # np.std of eps = E a is sqrt(a' G a) with G the centered Gram matrix
        s_eps = max(float(np.sqrt(max(a @ gram_e @ a, 0.0))), scale_floor)
        s_r = max(float(np.sqrt(max(c @ gram_r @ c, 0.0))), scale_floor)
        return np.concatenate([proj_e @ a / s_eps, proj_r @ c / s_r])

    lo = np.concatenate(([-10.0, 1e-10, -0.999999], np.full(pz, -50.0),
                         [-5.0, -5.0, -50.0, -0.999999], np.full(px, -50.0)))
    hi = np.concatenate(([-1e-10, delta * (1 - 1e-10), 0.999999], np.full(pz, 50.0),
                         [5.0, 5.0, 50.0, 0.999999], np.full(px, 50.0)))
    problem = NlsProblem(residual=residual, bounds=(lo, hi))

    seq = np.concatenate((
        [step2.beta_0, step2.beta_l, step2.rho_phi_1], step2.rho_phi_2,
        [step3.beta_k, step3.beta_kk, step3.rho_omega_0, step3.rho_omega_1], step3.rho_omega_2,
    ))
    starts = [np.clip(seq, lo + 1e-9, hi - 1e-9)]
    for b0, frac in ((-0.05, 0.5), (-0.1, 0.25), (-0.02, 0.75), (-0.2, 0.5)):
        starts.append(np.concatenate(([b0, frac * delta, 0.5], np.zeros(pz),
                                      [0.1, 0.0, 0.0, 0.5], np.zeros(px))))
    result = minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=grad_tol, max_iter=max_iter)

    b0, bl, r1, r2 = *result.params[:3], result.params[3:3 + pz]
    bk, bkk, g0, g1, g2 = *result.params[3 + pz:7 + pz], result.params[7 + pz:]
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
    if opts.refine not in ("system", "none"):
        raise ValueError(f"unknown refine option {opts.refine!r}")
    step1 = step1_cost_share(dataset)
    step2 = step2_gmm(
        dataset,
        step1,
        instruments=opts.instruments,
        grad_tol=opts.grad_tol,
        max_iter=opts.max_iter,
    )
    step3 = step3_nls(dataset, step1, step2, proxy=opts.proxy, grad_tol=opts.grad_tol, max_iter=opts.max_iter)

    system = None
    if opts.refine == "system":
        system = system_refine(
            dataset, step1, step2, step3,
            proxy=opts.proxy,
            instruments=opts.instruments,
            grad_tol=opts.grad_tol,
            max_iter=opts.max_iter,
        )

    params, laws = _point_estimate(step1, step2, step3, system)
    if system is not None:
        phi_hat = phi_proxy(dataset.m - dataset.l, dataset.s_l, params.beta_0, params.beta_l, step1.delta_lm)
    else:
        phi_hat = step2.phi_hat
    omega_hat = recover_productivity(dataset, params, phi_hat, step1.eta_hat)
    warnings = step2.warnings + step3.warnings + (system.warnings if system else [])
    return TranslogEstimate(
        params=params,
        laws=laws,
        phi_hat=phi_hat,
        omega_hat=omega_hat,
        eta_hat=step1.eta_hat,
        step1=step1,
        step2=step2,
        step3=step3,
        system=system,
        warnings=warnings,
    )
