"""Two-step estimation of a CES technology with labor-augmenting productivity.

The technology is a nested CES with a common substitution elasticity
``sigma`` and scale elasticity ``nu``:

    F = [beta_k*K^a + (exp(phi)*L)^a + beta_m*M^a]^(nu/a),  a = -(1-sigma)/sigma,

with output ``y = ln F + omega + eta``.  The labor distribution parameter
is normalized to one because it cannot be separated from ``phi``.  The
FOC ratio of the two flexible inputs yields ``phi`` in closed form given
``(sigma, beta_m)``.  The first step estimates those with the phi law as a
slope profile in ``rho_phi_1`` (:func:`ces_step1_nls`): its ``objective``
is the sum of squares of ``(1 - sigma)`` times the phi-law innovation, and
``converged`` means a finite minimum inside the slope scan.  The second
step estimates ``(nu, beta_k)`` and the omega law by nonlinear least
squares, proxying lagged omega through the materials FOC.  The constant
``ln(theta*nu)`` is absorbed into the second-step intercept and not
separately reported.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .optim import NlsProblem, minimize_nls
from .panel import PanelDataset
from .translog import _SLOPES, _gram_root, _profile_minima, _slope_profile

__all__ = [
    "CesParams",
    "CesStep1Result",
    "CesStep2Result",
    "CesEstimate",
    "ces_phi_proxy",
    "ces_step1_nls",
    "ces_step2_nls",
    "ces_estimate",
]

#: below this standard deviation the price gap is treated as constant,
#: leaving (sigma, beta_m) unseparated in step one
GAP_VARIATION_TOL = 1e-8


@dataclasses.dataclass
class CesParams:
    """CES technology parameters.

    ``sigma`` is the elasticity of substitution (any positive value except
    one, where the form degenerates to Cobb-Douglas), ``nu`` the scale
    elasticity, ``beta_k`` and ``beta_m`` the distribution parameters, and
    ``theta`` the transitory-shock scale.
    """

    sigma: float
    nu: float
    beta_k: float
    beta_m: float
    theta: float = 1.0

    @property
    def exponent(self) -> float:
        """CES exponent ``a = -(1 - sigma)/sigma``."""
        return -(1.0 - self.sigma) / self.sigma

    def validate(self) -> None:
        # NaN passes every comparison below
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not np.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if not self.sigma > 0 or self.sigma == 1.0:
            raise ValueError("sigma must be positive and different from one")
        if self.nu <= 0 or self.beta_k <= 0 or self.beta_m <= 0 or self.theta <= 0:
            raise ValueError("nu, beta_k, beta_m and theta must be positive")


@dataclasses.dataclass
class CesStep1Result:
    sigma: float
    beta_m: float
    rho_phi_1: float
    rho_phi_2: np.ndarray
    phi_hat: np.ndarray
    objective: float
    converged: bool
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class CesStep2Result:
    nu: float
    beta_k: float
    intercept: float
    rho_omega_1: float
    rho_omega_2: np.ndarray
    objective: float
    converged: bool
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class CesEstimate:
    params: CesParams
    rho_phi_1: float
    rho_phi_2: np.ndarray
    intercept: float
    rho_omega_1: float
    rho_omega_2: np.ndarray
    phi_hat: np.ndarray
    step1: CesStep1Result
    step2: CesStep2Result
    warnings: list[str] = dataclasses.field(default_factory=list)


def ces_phi_proxy(m_minus_l, price_gap, sigma: float, beta_m: float) -> np.ndarray:
    """Labor-augmenting productivity from the CES FOC ratio.

    ``phi = (m - l)/(1 - sigma) - sigma*ln(beta_m)/(1 - sigma)
    + sigma*(ln P^M - ln P^L)/(1 - sigma)`` where ``price_gap`` is
    ``ln P^M - ln P^L`` per observation.
    """
    if sigma == 1.0:
        raise ValueError("phi proxy undefined at sigma = 1")
    s = sigma / (1.0 - sigma)
    return (np.asarray(m_minus_l, dtype=float) + sigma * np.asarray(price_gap, dtype=float)) / (1.0 - sigma) - s * np.log(beta_m)


def _gap(dataset: PanelDataset) -> np.ndarray:
    return dataset.ln_price_m - dataset.ln_price_l


def ces_step1_nls(dataset: PanelDataset) -> CesStep1Result:
    """Estimate ``(sigma, beta_m)`` and the phi law on the scale-free innovation.

    ``(1 - sigma)`` times the phi-law innovation at proxied phi is ``ml_t -
    r ml_{t-1} + sigma (gap_t - r gap_{t-1}) - (1 - r) sigma ln(beta_m) - (1 -
    sigma) rho_2'z_{t-1}``, with ``ml = m - l`` and ``r = rho_phi_1``.  At a
    fixed ``r`` it is affine in ``theta = (sigma, sigma ln(beta_m), (1 -
    sigma) rho_2)``, so its sum of squares is a slope profile
    (:func:`~prodsys.translog._slope_profile`) over ``sigma > 0``, on a root
    of the Gram of those columns.  The innovation itself scales with ``1/(1
    - sigma)``, so its own least squares would trade fit for scale.
    Separate identification needs time variation in the price gap: with a
    constant gap, or no finite minimum, ``sigma``, ``beta_m`` and the phi
    law are NaN and a warning says why.
    """
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    gap = _gap(dataset)
    ml = dataset.m - dataset.l
    pz = dataset.z.shape[1]

    warnings: list[str] = []
    if float(np.std(gap)) < GAP_VARIATION_TOL:
        # the gap columns are multiples of the constant one: every slope's
        # normal matrix is singular, and its rounding can pass for a minimum
        warnings.append(
            "materials-to-labor price gap is constant over time; sigma and beta_m are not separately identified"
        )
        slopes = np.empty(0)
    else:
        cols = np.column_stack((ml[cur], ml[prev], gap[cur], gap[prev], np.ones(cur.size), dataset.z[prev]))
        root = _gram_root(cols.T @ cols)
        b = np.stack([root[:, 0], -root[:, 1]])
        a = np.zeros((2, root.shape[0], 2 + pz))
        a[0, :, 0], a[1, :, 0] = root[:, 2], -root[:, 3]
        a[0, :, 1], a[1, :, 1] = -root[:, 4], root[:, 4]
        a[0, :, 2:] = -root[:, 5:]
        slopes, theta, crit = _profile_minima(_slope_profile(b, a, feasible=lambda th: th[0] > 0))
        if not slopes.size:
            warnings.append("CES step 1: the slope profile has no finite minimum")

    if slopes.size:
        rho_1, sigma, objective = float(slopes[0]), float(theta[0, 0]), float(crit[0])
        beta_m, rho_2 = float(np.exp(theta[0, 1] / sigma)), theta[0, 2:] / (1.0 - sigma)
        converged = bool(_SLOPES[0] < rho_1 < _SLOPES[-1])
        if not converged:
            warnings.append(f"CES step 1: the best profile minimum is at an end of the rho_phi_1 scan ({rho_1})")
    else:
        sigma = beta_m = rho_1 = objective = np.nan
        rho_2, converged = np.full(pz, np.nan), False
    return CesStep1Result(
        sigma=sigma,
        beta_m=beta_m,
        rho_phi_1=rho_1,
        rho_phi_2=rho_2,
        phi_hat=ces_phi_proxy(ml, gap, sigma, beta_m),
        objective=objective,
        converged=converged,
        warnings=warnings,
    )


def ces_step2_nls(dataset: PanelDataset, step1: CesStep1Result) -> CesStep2Result:
    """Estimate ``(nu, beta_k)``, the intercept and the omega law.

    Fits ``y_t = -nu*q*ln(S_t) + c + rho_1*[m*_{t-1} + (1 + nu*q)*ln(S_{t-1})]
    + rho_2'X_{t-1} + error`` with ``q = sigma/(1-sigma)``, ``S = beta_k*K* +
    H*`` and the step-one quantities held fixed.  The intercept ``c``
    absorbs ``rho_omega_0 - rho_1*ln(theta*nu)``.  Without a step-one
    estimate (NaN ``sigma``) there is nothing to fit: every coefficient is
    NaN, ``converged`` is False and a warning says so.
    """
    sigma, beta_m = step1.sigma, step1.beta_m
    if np.isnan(sigma):
        px = dataset.x.shape[1]
        return CesStep2Result(nu=np.nan, beta_k=np.nan, intercept=np.nan, rho_omega_1=np.nan,
                              rho_omega_2=np.full(px, np.nan), objective=np.nan, converged=False,
                              warnings=["CES step 2 not run: step 1 gave no estimate of sigma"])
    a = -(1.0 - sigma) / sigma
    q = sigma / (1.0 - sigma)
    kstar = np.exp(a * dataset.k)
    hstar = np.exp(a * (step1.phi_hat + dataset.l)) + beta_m * np.exp(a * dataset.m)
    mstar = dataset.ln_price_m + dataset.m / sigma - np.log(beta_m)

    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    x_prev = dataset.x[prev]
    px = x_prev.shape[1]
    y_cur = dataset.y[cur]

    def pieces(gamma):
        nu, beta_k = gamma[0], gamma[1]
        s_cur = beta_k * kstar[cur] + hstar[cur]
        s_prev = beta_k * kstar[prev] + hstar[prev]
        return nu, beta_k, s_cur, s_prev

    def residual(gamma):
        nu, _, s_cur, s_prev = pieces(gamma)
        c, rho_1 = gamma[2], gamma[3]
        rho_2 = gamma[4:4 + px]
        w_prev = mstar[prev] + (1.0 + nu * q) * np.log(s_prev)
        return y_cur + nu * q * np.log(s_cur) - c - rho_1 * w_prev - x_prev @ rho_2

    def jacobian(gamma):
        nu, _, s_cur, s_prev = pieces(gamma)
        rho_1 = gamma[3]
        ln_s_cur, ln_s_prev = np.log(s_cur), np.log(s_prev)
        w_prev = mstar[prev] + (1.0 + nu * q) * ln_s_prev
        cols = [
            q * (ln_s_cur - rho_1 * ln_s_prev),
            nu * q * kstar[cur] / s_cur - rho_1 * (1.0 + nu * q) * kstar[prev] / s_prev,
            -np.ones_like(y_cur),
            -w_prev,
        ] + [-x_prev[:, j] for j in range(px)]
        return np.column_stack(cols)

    lo = np.concatenate(([1e-6, 1e-10, -np.inf, -0.999999], np.full(px, -np.inf)))
    hi = np.concatenate(([5.0, 1e6, np.inf, 0.999999], np.full(px, np.inf)))
    problem = NlsProblem(residual=residual, jacobian=jacobian, bounds=(lo, hi))
    starts = [
        np.concatenate(([nu0, bk0, 0.0, 0.5], np.zeros(px)))
        for nu0 in (0.5, 0.9)
        for bk0 in (0.1, 0.5, 1.0)
    ]
    result = minimize_nls(problem, starts[0], starts=starts[1:])

    warnings = []
    if not result.converged:
        warnings.append(f"CES step-2 NLS did not converge: {result.status}")
    return CesStep2Result(
        nu=float(result.params[0]),
        beta_k=float(result.params[1]),
        intercept=float(result.params[2]),
        rho_omega_1=float(result.params[3]),
        rho_omega_2=np.asarray(result.params[4:4 + px], dtype=float),
        objective=result.objective,
        converged=result.converged,
        warnings=warnings,
    )


def ces_estimate(dataset: PanelDataset) -> CesEstimate:
    """Run both CES steps and assemble the estimate."""
    step1 = ces_step1_nls(dataset)
    step2 = ces_step2_nls(dataset, step1)
    params = CesParams(
        sigma=step1.sigma,
        nu=step2.nu,
        beta_k=step2.beta_k,
        beta_m=step1.beta_m,
        theta=1.0,  # absorbed into the step-2 intercept, not separately identified here
    )
    return CesEstimate(
        params=params,
        rho_phi_1=step1.rho_phi_1,
        rho_phi_2=step1.rho_phi_2,
        intercept=step2.intercept,
        rho_omega_1=step2.rho_omega_1,
        rho_omega_2=step2.rho_omega_2,
        phi_hat=step1.phi_hat,
        step1=step1,
        step2=step2,
        warnings=step1.warnings + step2.warnings,
    )
