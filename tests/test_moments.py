"""The moment core: one residual and one analytic Jacobian per productivity law."""

import dataclasses

import numpy as np
import pytest
from moments_reference import LinearLaw

from prodsys.moments import (
    capital_terms,
    omega_residual,
    omega_residual_jacobian,
    phi_innovation,
    phi_innovation_jacobian,
    phi_proxy,
    proxied_omega_coef,
    proxied_omega_coef_jacobian,
)
from prodsys.optim import finite_diff_jacobian
from prodsys.sieve import build_basis

N = 80


def make_law(kind: str, intercept: bool, u: np.ndarray):
    if kind == "linear":
        return LinearLaw(intercept=intercept)
    basis = build_basis(u.shape[1], 2, intercept=intercept)
    centers = np.mean(u, axis=0) if intercept else np.zeros(u.shape[1])
    return dataclasses.replace(basis, centers=centers, scales=np.std(u, axis=0))


def phi_case(rng, kind):
    delta = 0.75
    arrays = (
        rng.normal(0.3, 0.5, N), rng.normal(0.3, 0.5, N),
        rng.uniform(0.2, 0.5, N), rng.uniform(0.2, 0.5, N),
        rng.normal(0.0, 1.0, (N, 1)),
    )
    beta_0, beta_l = -0.07, 0.3
    u = np.column_stack([phi_proxy(arrays[1], arrays[3], beta_0, beta_l, delta), arrays[4]])
    law = make_law(kind, False, u)
    n_terms = law.evaluate(u).shape[1]
    params = np.concatenate(([beta_0, beta_l], rng.normal(0.0, 0.3, n_terms)))
    return phi_innovation, phi_innovation_jacobian, params, (law, delta, *arrays)


def omega_case(rng, kind):
    k_cur, k_prev = rng.uniform(2.0, 5.0, N), rng.uniform(2.0, 5.0, N)
    mstar_prev = rng.normal(1.0, 0.5, N)
    x_prev = rng.normal(0.0, 1.0, (N, 1))
    beta_k, beta_kk = 0.2, -0.01
    u = np.column_stack([mstar_prev - beta_k * k_prev - beta_kk * 0.5 * k_prev**2, x_prev])
    law = make_law(kind, True, u)
    n_terms = law.evaluate(u).shape[1]
    params = np.concatenate(([beta_k, beta_kk], rng.normal(0.0, 0.3, n_terms)))
    y_cur = rng.normal(1.0, 0.5, N)
    args = (law, y_cur, capital_terms(k_cur), capital_terms(k_prev), mstar_prev, x_prev)
    return omega_residual, omega_residual_jacobian, params, args


@pytest.mark.parametrize("kind", ["linear", "sieve"])
@pytest.mark.parametrize("case", [phi_case, omega_case], ids=["phi", "omega"])
def test_core_jacobian_matches_finite_differences(rng, case, kind):
    residual, jacobian, params, args = case(rng, kind)
    analytic = jacobian(params, *args)
    assert analytic.shape == (N, params.size)
    numeric = finite_diff_jacobian(lambda p: residual(p, *args), params)
    # worst entry relative to the larger of 1 and both magnitudes
    assert np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))) < 1e-6


def test_linear_laws_match_the_parametric_formulas(rng):
    residual, _, params, args = phi_case(rng, "linear")
    _, delta, ml_cur, ml_prev, sl_cur, sl_prev, z_prev = args
    beta_0, beta_l, rho_1, rho_2 = params[0], params[1], params[2], params[3:]
    phi_cur = phi_proxy(ml_cur, sl_cur, beta_0, beta_l, delta)
    phi_prev = phi_proxy(ml_prev, sl_prev, beta_0, beta_l, delta)
    assert np.allclose(residual(params, *args), phi_cur - rho_1 * phi_prev - z_prev @ rho_2, rtol=0, atol=1e-13)

    residual, _, params, args = omega_case(rng, "linear")
    _, y_cur, cap_cur, cap_prev, mstar_prev, x_prev = args
    k_cur, k_prev = cap_cur[:, 0], cap_prev[:, 0]
    beta_k, beta_kk, rho_0, rho_1, rho_2 = params[0], params[1], params[2], params[3], params[4:]
    lag_omega = mstar_prev - beta_k * k_prev - 0.5 * beta_kk * k_prev**2
    expected = y_cur - beta_k * k_cur - 0.5 * beta_kk * k_cur**2 - rho_0 - rho_1 * lag_omega - x_prev @ rho_2
    assert np.allclose(residual(params, *args), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("px", [0, 2])
def test_proxied_omega_coef_jacobian_matches_finite_differences(rng, px):
    for _ in range(5):
        betas = np.array([-rng.uniform(0.01, 0.5), rng.uniform(0.05, 0.6)])
        point = np.concatenate((betas, rng.standard_normal(4 + px)))
        delta = rng.uniform(0.6, 0.95)
        fd = finite_diff_jacobian(lambda v: proxied_omega_coef(v[2:], v[0], v[1], delta), point)
        got = proxied_omega_coef_jacobian(point[2:], point[0], point[1], delta)
        assert got.shape == (9 + px, 6 + px)
        assert np.max(np.abs(got - fd) / np.maximum(1.0, np.abs(fd))) < 1e-6
