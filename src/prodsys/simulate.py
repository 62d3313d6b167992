"""Monte Carlo data generation: productivity laws, capital policy, static inputs.

The generator builds a balanced firm panel in which labor and materials
are chosen each period by maximizing static expected profit given capital,
the two productivity states and common prices.  The benchmark setup uses a
restricted translog technology; a CES technology with the same latent
structure is available through the ``technology`` switch.

Random draws consume the generator stream in a fixed, documented order:
phi innovations, omega innovations, transitory shocks, omega initials,
phi initials, capital initials, depreciation assignment.  Given a seed the
output is bit-reproducible.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .ces import CesParams
from .panel import PanelDataset, shares_from_logs
from .translog import ProductivityLaws, TranslogParams

__all__ = [
    "DgpConfig",
    "SimTruth",
    "benchmark_config",
    "evolve_productivity",
    "solve_static_inputs",
    "solve_translog_inputs",
    "solve_ces_inputs",
    "generate_panel",
]

#: static first-order conditions must hold at least this tightly
FOC_TOL = 1e-10
#: most Newton steps on the reduced condition, and the relative step that ends them
NEWTON_STEPS, NEWTON_XTOL = 50, 1e-12


@dataclasses.dataclass
class DgpConfig:
    """Configuration of the simulated economy.

    ``price_l`` and ``price_m`` default to the transitory-shock scale
    ``theta = exp(sigma_eta^2 / 2)`` so that, under the benchmark
    technology, input expenditures are on the scale of revenue shares.
    Prices may be scalars or per-period arrays of length ``t_periods``.
    """

    n: int = 400
    t_periods: int = 10
    technology: str = "translog"  # translog | ces
    params: TranslogParams = dataclasses.field(
        default_factory=lambda: TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.25, beta_m=0.5, beta_0=-0.05)
    )
    ces: CesParams | None = None
    laws: ProductivityLaws = dataclasses.field(
        default_factory=lambda: ProductivityLaws(rho_phi_1=0.9, rho_omega_0=0.2, rho_omega_1=0.6)
    )
    sigma_omega: float = 0.04
    sigma_phi: float = 0.04
    sigma_eta: float = 0.07
    omega_init_range: tuple[float, float] = (-1.0, 1.0)
    phi_init_range: tuple[float, float] = (-1.0, 1.0)
    k_init_range: tuple[float, float] = (10.0, 200.0)
    iota: tuple[float, float, float] = (0.8, 0.1, 0.1)
    depreciation_rates: Sequence[float] = (0.05, 0.075, 0.10, 0.125, 0.15)
    price_y: object = 1.0
    price_l: object = None
    price_m: object = None
    markup: float = 1.0
    seed: int = 0

    @property
    def theta(self) -> float:
        return float(np.exp(self.sigma_eta**2 / 2.0))

    def validate(self) -> None:
        if self.n < 1 or self.t_periods < 2:
            raise ValueError("need at least one firm and two periods")
        if self.technology not in ("translog", "ces"):
            raise ValueError(f"unknown technology {self.technology!r}")
        if self.technology == "ces" and self.ces is None:
            raise ValueError("ces technology requires ces parameters")
        # NaN passes every comparison below, and inf prices or scales fail only in the solver
        for name in ("sigma_omega", "sigma_phi", "sigma_eta", "omega_init_range", "phi_init_range", "k_init_range",
                     "iota", "depreciation_rates", "price_y", "price_l", "price_m", "markup"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if min(self.sigma_omega, self.sigma_phi, self.sigma_eta) < 0:
            raise ValueError("innovation scales must be nonnegative")
        if self.markup <= 0:
            raise ValueError("markup must be positive")
        if len(self.depreciation_rates) == 0 or not all(0.0 < d < 1.0 for d in self.depreciation_rates):
            raise ValueError("need depreciation rates, each in (0, 1)")
        lo, hi = self.k_init_range
        if not (0.0 < lo <= hi):
            raise ValueError("capital init range must be positive")
        if any(lo > hi for lo, hi in (self.omega_init_range, self.phi_init_range)):
            raise ValueError("productivity init ranges need low <= high")
        self.price_arrays()
        self.laws.validate()
        if self.technology == "translog":
            self.params.validate()
            if self.params.delta_lm >= 1.0:
                raise ValueError("flexible-input returns must be below one for a static optimum")
        else:
            assert self.ces is not None
            self.ces.validate()
            if self.ces.nu >= 1.0:
                raise ValueError("scale elasticity must be below one for a static optimum")

    def price_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        def expand(v, default):
            if v is None:
                v = default
            a = np.asarray(v, dtype=float)
            if a.ndim == 0:
                a = np.full(self.t_periods, float(a))
            if a.shape != (self.t_periods,) or np.any(a <= 0):
                raise ValueError("prices must be positive scalars or length-T arrays")
            return a

        return (
            expand(self.price_y, 1.0),
            expand(self.price_l, self.theta),
            expand(self.price_m, self.theta),
        )


@dataclasses.dataclass
class SimTruth:
    """Latent states, shocks and solved inputs underlying a simulated panel."""

    omega: np.ndarray
    phi: np.ndarray
    eta: np.ndarray
    zeta_omega: np.ndarray
    zeta_phi: np.ndarray
    l: np.ndarray
    m: np.ndarray
    k: np.ndarray
    depreciation: np.ndarray
    params: TranslogParams | CesParams
    laws: ProductivityLaws
    theta: float
    markup: float
    max_foc_residual: float


def benchmark_config(n: int = 400, t_periods: int = 10, *, seed: int = 0, markup: float = 1.0) -> DgpConfig:
    """Benchmark translog economy used throughout the simulation study."""
    return DgpConfig(n=n, t_periods=t_periods, markup=markup, seed=seed)


def evolve_productivity(
    laws: ProductivityLaws,
    zeta_omega: np.ndarray,
    zeta_phi: np.ndarray,
    omega_init: np.ndarray,
    phi_init: np.ndarray,
    x: np.ndarray | None = None,
    z: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the two autoregressive laws forward.

    ``zeta_*`` have shape (n, T); column 0 is ignored because period 1 is
    pinned by the initial conditions.  Optional modifiers ``x`` and ``z``
    of shape (n, T, dim) enter lagged, matching the laws of motion.
    """
    n, t_periods = zeta_omega.shape
    omega = np.empty((n, t_periods))
    phi = np.empty((n, t_periods))
    omega[:, 0] = omega_init
    phi[:, 0] = phi_init
    for t in range(1, t_periods):
        xterm = x[:, t - 1, :] @ laws.rho_omega_2 if x is not None else 0.0
        zterm = z[:, t - 1, :] @ laws.rho_phi_2 if z is not None else 0.0
        omega[:, t] = laws.rho_omega_0 + laws.rho_omega_1 * omega[:, t - 1] + xterm + zeta_omega[:, t]
        phi[:, t] = laws.rho_phi_1 * phi[:, t - 1] + zterm + zeta_phi[:, t]
    return omega, phi


# -- static input choice, translog -------------------------------------------


def _translog_foc(params: TranslogParams, c, phi, l, m, ln_pl, ln_pm):
    """Both first-order conditions in logs and the input elasticities."""
    x = m - phi - l
    e_l = params.beta_l + params.beta_0 * x
    e_m = params.beta_m - params.beta_0 * x
    base = c + params.beta_m * m + params.beta_l * (phi + l) - 0.5 * params.beta_0 * x**2
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = base - l + np.log(e_l) - ln_pl
        f2 = base - m + np.log(e_m) - ln_pm
    return f1, f2, e_l, e_m


def _foc_error(f1, f2):
    err = np.maximum(np.abs(f1), np.abs(f2))
    return np.where(np.isnan(err), np.inf, err)


def _translog_levels(params: TranslogParams, c, phi, ln_pm, x):
    """``(l, m)`` given ``x = m - phi - l``: the materials condition solved for ``m``."""
    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    m = (ln_pm - c + bl * x + 0.5 * b0 * x**2 - np.log(bm - b0 * x)) / (bl + bm - 1.0)
    return m - x - phi, m


def solve_translog_inputs(
    params: TranslogParams,
    omega,
    phi,
    k,
    *,
    ln_price_y=0.0,
    ln_price_l=0.0,
    ln_price_m=0.0,
    theta: float = 1.0,
    markup: float = 1.0,
):
    """Optimal (l, m) from the two static first-order conditions.

    Their difference is one equation in ``x = m - phi - l``, free of omega,
    capital, theta, the markup and the output price:

        h(x) = x + phi + ln(e_l / e_m) + ln P^M - ln P^L = 0,
        e_l = beta_l + beta_0 x,  e_m = beta_m - beta_0 x.

    A vectorized Newton solves it from the Cobb-Douglas root (``beta_0 =
    0``), each step kept inside the interval where both elasticities are
    positive, and the materials condition gives the levels in closed form.
    A row is accepted when both conditions hold and ``h'(x) = 1 + beta_0
    (1/e_l + 1/e_m) > 0``: that root is the profit maximum, and for
    ``beta_0 < 0`` the two outer roots (``h' < 0``) are saddle points; for
    ``beta_0 > 0`` the root is unique.  Other rows go to a bisection.

    Returns ``(l, m, max_residual)``.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    phi = np.broadcast_to(np.asarray(phi, dtype=float), omega.shape).astype(float)
    k = np.broadcast_to(np.asarray(k, dtype=float), omega.shape).astype(float)
    ln_pl = np.broadcast_to(np.asarray(ln_price_l, dtype=float), omega.shape).astype(float)
    ln_pm = np.broadcast_to(np.asarray(ln_price_m, dtype=float), omega.shape).astype(float)
    ln_py = np.broadcast_to(np.asarray(ln_price_y, dtype=float), omega.shape).astype(float)

    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    delta = bl + bm
    if delta >= 1.0:
        raise ValueError("static optimum requires beta_l + beta_m < 1")
    c = np.log(theta) - np.log(markup) + ln_py + params.beta_k * k + 0.5 * params.beta_kk * k**2 + omega

    lo, hi = sorted((-bl / b0, bm / b0)) if b0 else (-np.inf, np.inf)  # where e_l, e_m > 0
    g = phi + ln_pm - ln_pl
    x_cd = np.log(bm / bl) - g
    x = np.where((x_cd > lo) & (x_cd < hi), x_cd, 0.5 * (lo + hi))
    for _ in range(NEWTON_STEPS):
        e_l, e_m = bl + b0 * x, bm - b0 * x
        step = (x + g + np.log(e_l / e_m)) / (1.0 + b0 * delta / (e_l * e_m))  # 1/e_l + 1/e_m = delta/(e_l e_m)
        # no step goes more than halfway to an edge of the interval
        x, x_old = np.clip(x - step, 0.5 * (x + lo), 0.5 * (x + hi)), x
        if not np.any(np.abs(x - x_old) > NEWTON_XTOL * (1.0 + np.abs(x))):
            break

    l, m = _translog_levels(params, c, phi, ln_pm, x)
    f1, f2, e_l, e_m = _translog_foc(params, c, phi, l, m, ln_pl, ln_pm)
    err = _foc_error(f1, f2)
    with np.errstate(divide="ignore", invalid="ignore"):
        open_rows = np.flatnonzero((err > FOC_TOL) | ~(1.0 + b0 * delta / (e_l * e_m) > 0.0))
    if open_rows.size:
        for i in open_rows:
            x[i] = _translog_bisect(params, float(g[i]), float(x_cd[i]), lo, hi)
        l, m = _translog_levels(params, c, phi, ln_pm, x)
        f1, f2, _, _ = _translog_foc(params, c, phi, l, m, ln_pl, ln_pm)
        err = _foc_error(f1, f2)
    if np.any(err > FOC_TOL):
        raise RuntimeError(f"static input solver failed on {int(np.sum(err > FOC_TOL))} observations")
    return l, m, float(np.max(err))


def _translog_bisect(params: TranslogParams, g: float, x_cd: float, lo: float, hi: float) -> float:
    """Fallback: a root of ``h(x) = x + g + ln(e_l / e_m)`` on ``(lo, hi)`` by bisection."""
    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    if b0 == 0.0:
        raise ValueError("bisection fallback requires beta_0 != 0")

    def h(x):
        return x + g + np.log(bl + b0 * x) - np.log(bm - b0 * x)

    eps = 1e-12 * max(1.0, hi - lo)
    grid = np.linspace(lo + eps, hi - eps, 4097)
    vals = h(grid)
    sign_change = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    if sign_change.size == 0:
        raise RuntimeError("no root of the reduced first-order condition in the admissible region")
    # the root where h rises, the profit maximum; failing that, the one
    # closest to the Cobb-Douglas x, the beta_0 = 0 limit
    rising = sign_change[vals[sign_change] < vals[sign_change + 1]]
    pool = rising if rising.size else sign_change
    pick = pool[np.argmin(np.abs(grid[pool] - x_cd))]
    a, b = grid[pick], grid[pick + 1]
    fa = h(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = h(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


# -- static input choice, CES -------------------------------------------------


def solve_ces_inputs(
    ces: CesParams,
    omega,
    phi,
    k,
    *,
    ln_price_y=0.0,
    ln_price_l=0.0,
    ln_price_m=0.0,
    theta: float = 1.0,
    markup: float = 1.0,
):
    """Optimal (l, m) for the CES technology via a monotone bisection.

    The FOC ratio ties labor to materials, ``l = m + ln(ratio)``; the
    materials FOC then becomes strictly decreasing in ``m`` whenever the
    scale elasticity is below one, so bisection is globally convergent.
    Returns ``(l, m, max_residual)``.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    phi = np.broadcast_to(np.asarray(phi, dtype=float), omega.shape).astype(float)
    k = np.broadcast_to(np.asarray(k, dtype=float), omega.shape).astype(float)
    ln_pl = np.broadcast_to(np.asarray(ln_price_l, dtype=float), omega.shape).astype(float)
    ln_pm = np.broadcast_to(np.asarray(ln_price_m, dtype=float), omega.shape).astype(float)
    ln_py = np.broadcast_to(np.asarray(ln_price_y, dtype=float), omega.shape).astype(float)

    a = ces.exponent
    nu = ces.nu
    if nu >= 1.0:
        raise ValueError("static optimum requires scale elasticity below one")

    # labor-to-materials ratio from the FOC ratio: (L/M)^(a-1) = beta_m*(P^L/P^M)*e^(-a*phi)
    ln_ratio = (np.log(ces.beta_m) + ln_pl - ln_pm - a * phi) / (a - 1.0)
    kstar = np.exp(a * k)
    cc = np.exp(a * (phi + ln_ratio)) + ces.beta_m  # S = beta_k*K^a + cc*M^a

    const = np.log(theta * nu) - np.log(markup) + ln_py + omega + np.log(ces.beta_m) - ln_pm

    def g(m):
        # overflow in exp is benign here: it drives g to the correct sign
        with np.errstate(over="ignore"):
            s = ces.beta_k * kstar + cc * np.exp(a * m)
            return const + (nu / a - 1.0) * np.log(s) + (a - 1.0) * m

    lo = np.full(omega.shape, -60.0)
    hi = np.full(omega.shape, 60.0)
    glo, ghi = g(lo), g(hi)
    for widen in (200.0, 700.0):
        need = glo * ghi > 0
        if not np.any(need):
            break
        lo = np.where(need, -widen, lo)
        hi = np.where(need, widen, hi)
        glo, ghi = g(lo), g(hi)
    if np.any(glo * ghi > 0):
        raise RuntimeError("CES input solver could not bracket a root")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        take_lo = glo * gm <= 0
        hi = np.where(take_lo, mid, hi)
        lo = np.where(take_lo, lo, mid)
        glo = np.where(take_lo, glo, gm)
    m = 0.5 * (lo + hi)
    l = m + ln_ratio

    s = ces.beta_k * kstar + np.exp(a * (phi + l)) + ces.beta_m * np.exp(a * m)
    base = np.log(theta * nu) - np.log(markup) + ln_py + omega + (nu / a - 1.0) * np.log(s)
    f_m = base + np.log(ces.beta_m) + (a - 1.0) * m - ln_pm
    f_l = base + a * phi + (a - 1.0) * l - ln_pl
    err = float(np.max(np.maximum(np.abs(f_m), np.abs(f_l))))
    if err > FOC_TOL:
        raise RuntimeError(f"CES static input solver residual {err:.2e} exceeds tolerance")
    return l, m, err


def solve_static_inputs(params, omega, phi, k, **kwargs):
    """Dispatch on the technology parameter type."""
    if isinstance(params, TranslogParams):
        return solve_translog_inputs(params, omega, phi, k, **kwargs)
    if isinstance(params, CesParams):
        return solve_ces_inputs(params, omega, phi, k, **kwargs)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


# -- panel generation ----------------------------------------------------------


def generate_panel(config: DgpConfig, seed: int | None = None) -> tuple[PanelDataset, SimTruth]:
    """Simulate a balanced panel from the configured economy.

    Draw order (fixed): phi innovations, omega innovations, transitory
    shocks, omega initials, phi initials, capital initials, depreciation
    assignment.  Depreciation rates are split across firms in equal shares
    and randomly assigned.
    """
    config.validate()
    n, t_periods = config.n, config.t_periods
    rng = np.random.default_rng(np.random.SeedSequence(config.seed if seed is None else seed))

    zeta_phi = np.zeros((n, t_periods))
    zeta_omega = np.zeros((n, t_periods))
    zeta_phi[:, 1:] = rng.normal(0.0, config.sigma_phi, (n, t_periods - 1))
    zeta_omega[:, 1:] = rng.normal(0.0, config.sigma_omega, (n, t_periods - 1))
    eta = rng.normal(0.0, config.sigma_eta, (n, t_periods))
    omega_init = rng.uniform(*config.omega_init_range, n)
    phi_init = rng.uniform(*config.phi_init_range, n)
    k_init = rng.uniform(*config.k_init_range, n)
    dep_pool = np.resize(np.asarray(config.depreciation_rates, dtype=float), n)
    depreciation = rng.permutation(dep_pool)

    omega, phi = evolve_productivity(config.laws, zeta_omega, zeta_phi, omega_init, phi_init)

    iota_1, iota_2, iota_3 = config.iota
    cap = np.empty((n, t_periods))
    cap[:, 0] = k_init
    for t in range(1, t_periods):
        invest = cap[:, t - 1] ** iota_1 * np.exp(iota_2 * omega[:, t - 1]) * np.exp(iota_3 * phi[:, t - 1])
        cap[:, t] = invest + (1.0 - depreciation) * cap[:, t - 1]
    k = np.log(cap)

    p_y, p_l, p_m = config.price_arrays()
    theta = config.theta
    ln_py = np.broadcast_to(np.log(p_y), (n, t_periods))
    ln_pl = np.broadcast_to(np.log(p_l), (n, t_periods))
    ln_pm = np.broadcast_to(np.log(p_m), (n, t_periods))

    tech_params = config.params if config.technology == "translog" else config.ces
    l, m, max_resid = solve_static_inputs(
        tech_params,
        omega.ravel(),
        phi.ravel(),
        k.ravel(),
        ln_price_y=ln_py.ravel(),
        ln_price_l=ln_pl.ravel(),
        ln_price_m=ln_pm.ravel(),
        theta=theta,
        markup=config.markup,
    )
    l = l.reshape(n, t_periods)
    m = m.reshape(n, t_periods)

    if config.technology == "translog":
        params = dataclasses.replace(config.params, theta=theta)
        x = m - phi - l
        ybar = (
            params.beta_k * k
            + 0.5 * params.beta_kk * k**2
            + params.beta_m * m
            + params.beta_l * (phi + l)
            - 0.5 * params.beta_0 * x**2
            + omega
        )
    else:
        params = dataclasses.replace(config.ces, theta=theta)
        a = params.exponent
        s = params.beta_k * np.exp(a * k) + np.exp(a * (phi + l)) + params.beta_m * np.exp(a * m)
        ybar = (params.nu / a) * np.log(s) + omega
    y = ybar + eta

    # the index in canonical form: zero-padded names sort as their codes, rows by (firm, year)
    name = f"f%0{len(str(n - 1))}d"
    firm_labels = np.array([name % i for i in range(n)], dtype=object)
    firm = np.repeat(np.arange(n, dtype=np.intp), t_periods)
    years = np.tile(np.arange(1, t_periods + 1), n)
    ln_pl_rel = (ln_pl - ln_py).ravel()
    ln_pm_rel = (ln_pm - ln_py).ravel()
    s_l, ln_r = shares_from_logs(y.ravel(), l.ravel(), m.ravel(), ln_pl_rel, ln_pm_rel)

    dataset = PanelDataset._from_index(
        firm_labels[firm],
        firm,
        firm_labels,
        years,
        y=y.ravel(),
        k=k.flatten(),  # copies: the truth keeps k, l and m, and the panel does not share them
        l=l.flatten(),
        m=m.flatten(),
        s_l=s_l,
        ln_r=ln_r,
        ln_price_l=ln_pl_rel,
        ln_price_m=ln_pm_rel,
    )
    truth = SimTruth(
        omega=omega,
        phi=phi,
        eta=eta,
        zeta_omega=zeta_omega,
        zeta_phi=zeta_phi,
        l=l,
        m=m,
        k=k,
        depreciation=depreciation,
        params=params,
        laws=config.laws,
        theta=theta,
        markup=config.markup,
        max_foc_residual=max_resid,
    )
    return dataset, truth
