"""CES variant: proxy closed form and two-step recovery."""

import math
import warnings

import numpy as np
import pytest

from prodsys import ces
from prodsys.ces import CesParams, ces_estimate, ces_phi_proxy, ces_step1_nls, ces_step2_nls
from prodsys.panel import PanelDataset
from prodsys.simulate import DgpConfig, generate_panel


@pytest.fixture(scope="module")
def ces_noiseless():
    pm = 1.0 + 0.3 * np.sin(np.arange(10))
    cfg = DgpConfig(
        n=120, t_periods=10, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
        sigma_omega=0.0, sigma_phi=0.0, sigma_eta=0.0,
        price_m=pm, seed=4,
    )
    ds, truth = generate_panel(cfg, seed=4)
    return ds, truth, cfg


def test_params_validation_and_exponent():
    p = CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5)
    p.validate()
    assert abs(p.exponent - (-(1.0 - 0.6) / 0.6)) < 1e-15
    with pytest.raises(ValueError):
        CesParams(sigma=1.0, nu=0.9, beta_k=0.2, beta_m=0.5).validate()
    with pytest.raises(ValueError):
        CesParams(sigma=-0.2, nu=0.9, beta_k=0.2, beta_m=0.5).validate()
    with pytest.raises(ValueError):
        CesParams(sigma=0.6, nu=0.9, beta_k=-0.1, beta_m=0.5).validate()


@pytest.mark.parametrize("name", ["sigma", "nu", "beta_k", "beta_m", "theta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_numbers(name, value):
    # NaN passes every comparison in validate(); a NaN nu used to reach
    # generate_panel and fail there as non-finite output data
    fields = {"sigma": 0.6, "nu": 0.9, "beta_k": 0.2, "beta_m": 0.5, name: value}
    with pytest.raises(ValueError, match=name):
        CesParams(**fields).validate()
    with pytest.raises(ValueError, match=name):
        DgpConfig(technology="ces", ces=CesParams(**fields)).validate()


def test_phi_proxy_hand_value():
    # (0.2 + 0.6*0.1... ) with sigma=0.5, beta_m=0.4:
    # (0.2 + 0.5*0.1)/0.5 - (0.5/0.5)*ln(0.4) = 0.5 - ln(0.4)
    val = float(ces_phi_proxy(0.2, 0.1, 0.5, 0.4))
    assert abs(val - (0.5 - np.log(0.4))) < 1e-15
    assert abs(val - 1.416290731874155) < 1e-14


def test_phi_proxy_rejects_unit_elasticity():
    with pytest.raises(ValueError):
        ces_phi_proxy(0.2, 0.0, 1.0, 0.4)


def test_phi_proxy_exact_on_simulated_data(ces_noiseless):
    ds, truth, cfg = ces_noiseless
    gap = ds.ln_price_m - ds.ln_price_l
    phi = ces_phi_proxy(ds.m - ds.l, gap, cfg.ces.sigma, cfg.ces.beta_m)
    assert np.max(np.abs(phi - truth.phi.ravel())) < 1e-8


def test_noiseless_recovery(ces_noiseless):
    ds, truth, cfg = ces_noiseless
    est = ces_estimate(ds)
    assert est.step1.converged and est.step2.converged
    assert abs(est.params.sigma - 0.6) < 1e-5
    assert abs(est.params.beta_m - 0.5) < 1e-5
    assert abs(est.params.nu - 0.9) < 1e-4
    assert abs(est.params.beta_k - 0.2) < 1e-4
    assert abs(est.rho_phi_1 - cfg.laws.rho_phi_1) < 1e-5
    assert np.max(np.abs(est.phi_hat - truth.phi.ravel())) < 1e-4
    assert est.warnings == []


def test_two_runs_are_identical(ces_noiseless):
    ds, _, _ = ces_noiseless
    a = ces_estimate(ds)
    b = ces_estimate(ds)
    assert a.params.sigma == b.params.sigma
    assert a.params.nu == b.params.nu
    assert np.array_equal(a.phi_hat, b.phi_hat)


def test_constant_price_gap_warns():
    cfg = DgpConfig(
        n=60, t_periods=6, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
        seed=6,
    )
    ds, _ = generate_panel(cfg, seed=6)
    s1 = ces_step1_nls(ds)
    assert any("not separately identified" in w for w in s1.warnings)


def test_step2_consumes_step1(ces_noiseless):
    ds, _, _ = ces_noiseless
    s1 = ces_step1_nls(ds)
    s2 = ces_step2_nls(ds, s1)
    assert abs(s2.nu - 0.9) < 1e-4
    assert abs(s2.beta_k - 0.2) < 1e-4


@pytest.mark.parametrize("seed", [6, 8])
def test_constant_price_gap_leaves_sigma_and_beta_m_unestimated(seed):
    # with a constant gap the step-one Gram is singular, and a minimum its
    # rounding makes is no estimate (at seed 8 the profile finds one near 4e4)
    cfg = DgpConfig(
        n=60, t_periods=6, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
        seed=seed,
    )
    ds, _ = generate_panel(cfg, seed=seed)
    s1 = ces_step1_nls(ds)
    assert math.isnan(s1.sigma) and math.isnan(s1.beta_m) and math.isnan(s1.rho_phi_1)
    assert not s1.converged
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = ces_estimate(ds)
    assert math.isnan(est.params.sigma) and not est.step1.converged


def test_step2_without_a_step1_estimate_reports_nan(monkeypatch):
    # it used to report its first start (nu 0.5, beta_k 0.1, intercept 0,
    # rho_omega_1 0.5) as the estimate beside a NaN sigma
    cfg = DgpConfig(
        n=60, t_periods=6, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
        seed=6,
    )
    ds, _ = generate_panel(cfg, seed=6)
    s1 = ces_step1_nls(ds)
    assert math.isnan(s1.sigma)

    def no_fit(*args, **kwargs):
        raise AssertionError("step 2 ran the optimizer without a step-one estimate")

    monkeypatch.setattr(ces, "minimize_nls", no_fit)
    s2 = ces_step2_nls(ds, s1)
    coefs = [s2.nu, s2.beta_k, s2.intercept, s2.rho_omega_1, *s2.rho_omega_2, s2.objective]
    assert all(math.isnan(v) for v in coefs) and not s2.converged
    assert len(s2.warnings) == 1
    est = ces_estimate(ds)
    assert math.isnan(est.params.nu) and math.isnan(est.params.beta_k) and math.isnan(est.intercept)


def test_step1_recovers_sigma_and_beta_m_on_noisy_panels():
    # seeds fixed before the first run
    cfg = DgpConfig(
        n=400, t_periods=10, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
        price_m=1.0 + 0.3 * np.sin(np.arange(10)),
    )
    fits = [ces_step1_nls(generate_panel(cfg, seed=seed)[0]) for seed in range(1, 21)]
    assert all(fit.converged for fit in fits)
    for name, truth in (("sigma", 0.6), ("beta_m", 0.5)):
        values = np.array([getattr(fit, name) for fit in fits])
        assert abs(values.mean() - truth) < 3 * values.std(ddof=1) / math.sqrt(values.size), name


@pytest.mark.parametrize("with_z", [False, True])
@pytest.mark.parametrize("c", [0.3, -2.0])
def test_step1_is_equivariant_under_a_shifted_price_gap(c, with_z):
    # ln P^M + c is ln beta_m + c at the same sigma, phi law and phi
    cfg = DgpConfig(
        n=200, t_periods=10, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
        price_m=1.0 + 0.3 * np.sin(np.arange(10)),
    )
    ds, _ = generate_panel(cfg, seed=3)
    z = np.random.default_rng(3).normal(size=(ds.n_obs, 1)) if with_z else None

    def panel(shift):
        return PanelDataset(
            ds.firm_labels[ds.firm], ds.year, ds.y, ds.k, ds.l, ds.m, ds.s_l, ds.ln_r, z=z,
            ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m + shift,
        )

    base, shifted = ces_step1_nls(panel(0.0)), ces_step1_nls(panel(c))
    assert base.converged and shifted.converged
    assert abs(shifted.sigma - base.sigma) < 1e-8
    assert abs(shifted.beta_m / (base.beta_m * math.exp(c)) - 1.0) < 1e-8
    assert abs(shifted.rho_phi_1 - base.rho_phi_1) < 1e-8
    assert np.max(np.abs(shifted.rho_phi_2 - base.rho_phi_2), initial=0.0) < 1e-8
    assert np.max(np.abs(shifted.phi_hat - base.phi_hat)) < 1e-8
