"""Data-generating process: determinism, optimality, and identities."""

import math
import warnings

import numpy as np
import pytest
import simulate_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsys.ces import CesParams
from prodsys.simulate import (
    FOC_TOL,
    DgpConfig,
    benchmark_config,
    evolve_productivity,
    generate_panel,
    solve_ces_inputs,
    solve_translog_inputs,
)
from prodsys.translog import ProductivityLaws, TranslogParams

BENCH = TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.25, beta_m=0.5, beta_0=-0.05)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        DgpConfig(n=0).validate()
    with pytest.raises(ValueError):
        DgpConfig(technology="ces").validate()  # missing ces params
    with pytest.raises(ValueError):
        DgpConfig(markup=0.0).validate()
    with pytest.raises(ValueError):
        DgpConfig(sigma_eta=-0.1).validate()
    with pytest.raises(ValueError):
        DgpConfig(depreciation_rates=(0.0,)).validate()
    cfg = benchmark_config()
    cfg.validate()
    assert cfg.n == 400 and cfg.t_periods == 10
    assert abs(cfg.theta - np.exp(0.07**2 / 2)) < 1e-15


@pytest.mark.parametrize("setting", [
    {"price_y": -1.0}, {"price_m": (1.0, 2.0)}, {"omega_init_range": (1.0, -1.0)}, {"depreciation_rates": ()},
])
def test_config_rejects_bad_prices_init_ranges_and_rates(setting):
    # these used to pass validate() and then fail inside generate_panel, or
    # (no depreciation rates) simulate without depreciation
    with pytest.raises(ValueError):
        DgpConfig(**setting).validate()


@pytest.mark.parametrize("setting", [
    {"sigma_eta": math.nan}, {"sigma_phi": math.nan}, {"markup": math.nan}, {"sigma_omega": math.inf},
    {"omega_init_range": (math.nan, 1.0)}, {"phi_init_range": (-1.0, math.nan)}, {"k_init_range": (10.0, math.inf)},
    {"iota": (0.8, math.nan, 0.1)}, {"price_l": math.nan}, {"price_m": [1.0, math.nan, 1.0]},
], ids=lambda setting: next(iter(setting)))
def test_config_rejects_non_finite_numbers(setting):
    # NaN passes every comparison in validate(); these configs used to fail
    # only inside the solver, after a run of RuntimeWarnings
    name = next(iter(setting))
    with pytest.raises(ValueError, match=name):
        DgpConfig(n=5, t_periods=3, **setting).validate()


def test_generate_panel_deterministic():
    cfg = benchmark_config(n=30, t_periods=5, seed=123)
    d1, t1 = generate_panel(cfg, seed=123)
    d2, t2 = generate_panel(cfg, seed=123)
    d3, _ = generate_panel(cfg)  # falls back to config.seed
    for name in ("y", "k", "l", "m", "s_l", "ln_r"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name))
        assert np.array_equal(getattr(d1, name), getattr(d3, name))
    assert np.array_equal(t1.omega, t2.omega)
    d4, _ = generate_panel(cfg, seed=124)
    assert not np.array_equal(d1.y, d4.y)


def test_generated_panel_satisfies_model_identities(bench):
    ds, truth, cfg = bench
    p = cfg.params
    assert truth.max_foc_residual < 1e-10
    # output equation holds row by row
    phi, omega, eta = truth.phi.ravel(), truth.omega.ravel(), truth.eta.ravel()
    x = ds.m - phi - ds.l
    y_pred = (p.beta_k * ds.k + 0.5 * p.beta_kk * ds.k**2 + p.beta_m * ds.m
              + p.beta_l * (phi + ds.l) - 0.5 * p.beta_0 * x**2 + omega + eta)
    assert np.max(np.abs(ds.y - y_pred)) < 1e-10
    # revenue ratio identity
    lnr_pred = np.log(cfg.theta * p.delta_lm / cfg.markup) - eta
    assert np.max(np.abs(ds.ln_r - lnr_pred)) < 1e-10
    # share identity from the FOC ratio at equal input prices
    s_pred = (p.beta_l + p.beta_0 * x) / p.delta_lm
    assert np.max(np.abs(ds.s_l - s_pred)) < 1e-10


def test_productivity_recursion_reproduced(bench):
    _, truth, cfg = bench
    omega, phi = evolve_productivity(
        cfg.laws,
        truth.zeta_omega,
        truth.zeta_phi,
        truth.omega[:, 0],
        truth.phi[:, 0],
    )
    assert np.max(np.abs(omega - truth.omega)) < 1e-12
    assert np.max(np.abs(phi - truth.phi)) < 1e-12


def test_evolve_productivity_with_controls(rng):
    laws = ProductivityLaws(rho_phi_1=0.8, rho_omega_0=0.1, rho_omega_1=0.5,
                            rho_phi_2=np.array([0.3]), rho_omega_2=np.array([-0.2]))
    n, t = 4, 3
    zo = rng.standard_normal((n, t))
    zp = rng.standard_normal((n, t))
    x = rng.standard_normal((n, t, 1))
    z = rng.standard_normal((n, t, 1))
    omega, phi = evolve_productivity(laws, zo, zp, np.zeros(n), np.ones(n), x=x, z=z)
    # spot-check one transition by hand
    i, t1 = 2, 1
    exp_omega = 0.1 + 0.5 * omega[i, 0] - 0.2 * x[i, 0, 0] + zo[i, t1]
    exp_phi = 0.8 * phi[i, 0] + 0.3 * z[i, 0, 0] + zp[i, t1]
    assert abs(omega[i, t1] - exp_omega) < 1e-14
    assert abs(phi[i, t1] - exp_phi) < 1e-14


# -- static input solver -------------------------------------------------------


def test_translog_solver_near_cobb_douglas_limit():
    p = TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.25, beta_m=0.5, beta_0=-1e-12)
    k, omega, phi = 3.0, 0.1, -0.2
    l, m, resid = solve_translog_inputs(p, omega, phi, k, theta=1.0)
    assert resid < 1e-10
    # independent 2x2 solve of the beta_0 = 0 log FOC system:
    #   (1-bl) l - bm m = c + bl phi + ln(bl)
    #   -bl l + (1-bm) m = c + bl phi + ln(bm)
    c = p.beta_k * k + 0.5 * p.beta_kk * k**2 + omega
    rhs = np.array([c + p.beta_l * phi + np.log(p.beta_l), c + p.beta_l * phi + np.log(p.beta_m)])
    mat = np.array([[1.0 - p.beta_l, -p.beta_m], [-p.beta_l, 1.0 - p.beta_m]])
    l_cd, m_cd = np.linalg.solve(mat, rhs)
    assert abs(l[0] - l_cd) < 1e-6
    assert abs(m[0] - m_cd) < 1e-6


def test_translog_solver_against_profit_grid():
    k, omega, phi = 3.0, 0.1, -0.2
    l_opt, m_opt, resid = solve_translog_inputs(BENCH, omega, phi, k, theta=1.0)
    assert resid < 1e-10

    def profit(l, m):
        x = m - phi - l
        y = (BENCH.beta_k * k + 0.5 * BENCH.beta_kk * k**2 + BENCH.beta_m * m
             + BENCH.beta_l * (phi + l) - 0.5 * BENCH.beta_0 * x**2 + omega)
        return np.exp(y) - np.exp(l) - np.exp(m)

    lo = np.array([l_opt[0] - 0.5, m_opt[0] - 0.5])
    hi = np.array([l_opt[0] + 0.5, m_opt[0] + 0.5])
    best = None
    for _ in range(8):
        ls = np.linspace(lo[0], hi[0], 41)
        ms = np.linspace(lo[1], hi[1], 41)
        pv = profit(ls[:, None], ms[None, :])
        i, j = np.unravel_index(np.argmax(pv), pv.shape)
        best = np.array([ls[i], ms[j]])
        span = (hi - lo) / 40.0
        lo, hi = best - span, best + span
        if span.max() < 1e-6:
            break
    assert abs(best[0] - l_opt[0]) < 1e-4
    assert abs(best[1] - m_opt[0]) < 1e-4


def test_translog_solver_share_identity(rng):
    omega = rng.uniform(-0.5, 0.5, 50)
    phi = rng.uniform(-0.5, 0.5, 50)
    k = rng.uniform(2.0, 5.0, 50)
    l, m, resid = solve_translog_inputs(BENCH, omega, phi, k, theta=1.0)
    assert resid < 1e-10
    x = m - phi - l
    s_l = np.exp(l) / (np.exp(l) + np.exp(m))
    assert np.max(np.abs(s_l - (BENCH.beta_l + BENCH.beta_0 * x) / BENCH.delta_lm)) < 1e-10
    # interior marginal products
    assert np.all(BENCH.beta_l + BENCH.beta_0 * x > 0)
    assert np.all(BENCH.beta_m - BENCH.beta_0 * x > 0)


def test_markup_scales_expenditure_share():
    cfg1 = benchmark_config(n=60, t_periods=6, seed=2)
    cfg2 = benchmark_config(n=60, t_periods=6, seed=2, markup=1.25)
    d1, _ = generate_panel(cfg1, seed=2)
    d2, _ = generate_panel(cfg2, seed=2)
    # ln R = ln(theta*delta/mu) - eta, so the mean drops by ln(1.25)
    assert abs((np.mean(d1.ln_r) - np.mean(d2.ln_r)) - np.log(1.25)) < 1e-10


def test_ces_panel_generation():
    cfg = DgpConfig(
        n=50, t_periods=6, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
        seed=5,
    )
    ds, truth = generate_panel(cfg, seed=5)
    assert truth.max_foc_residual < 1e-10
    assert ds.n_obs == 300
    assert np.all((ds.s_l > 0) & (ds.s_l < 1))


def test_ces_solver_foc_residuals():
    p = CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5)
    l, m, resid = solve_ces_inputs(p, 0.1, -0.2, 3.0, theta=1.0)
    assert resid < 1e-10
    assert np.isfinite(l).all() and np.isfinite(m).all()


def test_time_varying_prices_enter_panel():
    pm = 1.0 + 0.2 * np.sin(np.arange(6))
    cfg = DgpConfig(n=30, t_periods=6, price_m=pm, seed=8)
    ds, _ = generate_panel(cfg, seed=8)
    years = np.unique(ds.year)
    for i, yr in enumerate(years):
        rows = ds.year == yr
        assert np.allclose(ds.ln_price_m[rows], np.log(pm[i]), atol=1e-12)


def _foc_residual(params, c, phi, l, m, ln_pl, ln_pm):
    """Both log first-order conditions written out, and the two elasticities."""
    x = m - phi - l
    e_l = params.beta_l + params.beta_0 * x
    e_m = params.beta_m - params.beta_0 * x
    f = c + params.beta_m * m + params.beta_l * (phi + l) - 0.5 * params.beta_0 * x**2
    return np.maximum(np.abs(f - l + np.log(e_l) - ln_pl), np.abs(f - m + np.log(e_m) - ln_pm)), e_l, e_m


@st.composite
def _static_problems(draw):
    beta_l, beta_m = draw(st.floats(0.1, 0.45)), draw(st.floats(0.1, 0.45))
    params = TranslogParams(beta_k=draw(st.floats(0.0, 0.4)), beta_kk=draw(st.floats(-0.03, 0.0)),
                            beta_l=beta_l, beta_m=beta_m, beta_0=draw(st.floats(-0.4, 0.4)))
    n = draw(st.integers(1, 6))

    def rows(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    omega, phi, k = rows(-1.5, 1.5), rows(-1.5, 1.5), rows(1.0, 6.0)
    prices = {"ln_price_y": rows(-0.5, 0.5), "ln_price_l": rows(-0.5, 0.5), "ln_price_m": rows(-0.5, 0.5)}
    return params, omega, phi, k, prices, draw(st.floats(1.0, 1.2)), draw(st.floats(0.8, 1.5))


@settings(max_examples=60, deadline=None)
@given(_static_problems())
def test_translog_solver_clears_both_conditions_and_matches_the_two_dimensional_newton(problem):
    params, omega, phi, k, prices, theta, markup = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            l_ref, m_ref, _ = simulate_reference.solve_translog_inputs(
                params, omega, phi, k, theta=theta, markup=markup, **prices)
        except RuntimeError:
            l_ref = m_ref = None
    try:
        l, m, resid = solve_translog_inputs(params, omega, phi, k, theta=theta, markup=markup, **prices)
    except RuntimeError:
        assert l_ref is None  # a row neither solver can clear, such as a root at an elasticity's edge
        return
    c = (np.log(theta) - np.log(markup) + prices["ln_price_y"] + params.beta_k * k
         + 0.5 * params.beta_kk * k**2 + omega)
    err, e_l, e_m = _foc_residual(params, c, phi, l, m, prices["ln_price_l"], prices["ln_price_m"])
    assert np.all(err <= FOC_TOL) and resid <= FOC_TOL
    assert np.all(e_l > 0) and np.all(e_m > 0)
    if l_ref is None:
        return
    # the old solver can stop at an outer root of the reduced condition, where
    # h'(x) < 0 and the profit Hessian is indefinite (a saddle point); where
    # it found the maximum (h' > 0) both solvers must give the same inputs
    x_ref = m_ref - phi - l_ref
    e_sum = 1.0 / (params.beta_l + params.beta_0 * x_ref) + 1.0 / (params.beta_m - params.beta_0 * x_ref)
    maximum = 1.0 + params.beta_0 * e_sum > 0
    assert np.all(np.abs(l - l_ref)[maximum] <= 1e-10)
    assert np.all(np.abs(m - m_ref)[maximum] <= 1e-10)


@pytest.mark.parametrize("params, row, old_root", [
    # a row drawn at random, where Newton from the Cobb-Douglas x finds the maximum
    (TranslogParams(beta_k=0.36432457320029354, beta_kk=-0.0028796118048876433, beta_l=0.18964181364119276,
                    beta_m=0.46092253027976376, beta_0=-0.12865924854045402),
     {"omega": -0.8134344806948327, "phi": -0.07558584049775363, "k": 5.380905205129476,
      "ln_price_y": 0.33004658725434044, "ln_price_l": -0.4574343029669419, "ln_price_m": 0.8378031909727974,
      "theta": 1.0129893239116643, "markup": 0.8750227227017399}, 0),
    # a saddle point next to the Cobb-Douglas x: Newton stops there and the bisection finishes the row
    (TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.107, beta_m=0.279, beta_0=-0.087),
     {"omega": 0.1, "phi": 0.956, "k": 3.0, "ln_price_y": 0.0, "ln_price_l": 0.0, "ln_price_m": 0.0,
      "theta": 1.0, "markup": 1.0}, 2),
], ids=["newton", "bisection"])
def test_translog_solver_takes_the_profit_maximum_among_three_roots(params, row, old_root):
    # the reduced condition has three roots on these rows; the outer two are
    # saddle points of profit, and the old two-dimensional Newton stopped at one
    bl, bm, b0 = params.beta_l, params.beta_m, params.beta_0
    xs = np.linspace(-bm / -b0, bl / -b0, 100003)[1:-1]
    h = xs + row["phi"] + np.log((bl + b0 * xs) / (bm - b0 * xs)) + row["ln_price_m"] - row["ln_price_l"]
    roots = xs[np.flatnonzero(np.sign(h[1:]) != np.sign(h[:-1]))]
    assert roots.size == 3
    c = (np.log(row["theta"]) - np.log(row["markup"]) + row["ln_price_y"]
         + params.beta_k * row["k"] + 0.5 * params.beta_kk * row["k"] ** 2 + row["omega"])

    def solve(solver):
        """The root and the profit at the solver's inputs."""
        l, m, _ = solver(params, **row)
        x = m[0] - row["phi"] - l[0]
        f = bm * m[0] + bl * (row["phi"] + l[0]) - 0.5 * b0 * x**2
        return x, np.exp(c + f) - np.exp(l[0] + row["ln_price_l"]) - np.exp(m[0] + row["ln_price_m"])

    (x_new, profit_new), (x_old, profit_old) = solve(solve_translog_inputs), solve(simulate_reference.solve_translog_inputs)
    assert abs(x_new - roots[1]) < 1e-4 and abs(x_old - roots[old_root]) < 1e-4
    assert profit_new > profit_old


def test_generate_panel_raises_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, truth = generate_panel(benchmark_config(n=400, seed=301), seed=322)
    assert truth.max_foc_residual <= 1e-13
