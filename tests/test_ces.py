"""CES variant: proxy closed form and two-step recovery."""

import math

import numpy as np
import pytest

from prodsys.ces import CesParams, ces_estimate, ces_phi_proxy, ces_step1_nls, ces_step2_nls
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
