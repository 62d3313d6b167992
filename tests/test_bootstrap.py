"""Wild residual block bootstrap: weights, synthetic panels, replicate runs."""

import numpy as np
import pytest

import prodsys.bootstrap
from prodsys.bootstrap import (
    GOLDEN,
    GOLDEN_PROB,
    BootstrapConfig,
    compute_residuals,
    mammen_weights,
    pack_parameters,
    parameter_names,
    run_bootstrap,
    synthetic_outcomes,
)
from prodsys.panel import PanelDataset
from prodsys.simulate import benchmark_config, generate_panel
from prodsys.translog import EstimateOptions, estimate
from prodsys.translog import phi_proxy


def test_two_point_weight_constants():
    assert GOLDEN == 1.6180339887498949
    assert 1.0 - GOLDEN == -0.6180339887498949
    assert GOLDEN_PROB == 0.27639320225002106
    # exact first two moments of the two-point law
    mean = GOLDEN_PROB * GOLDEN + (1.0 - GOLDEN_PROB) * (1.0 - GOLDEN)
    second = GOLDEN_PROB * GOLDEN**2 + (1.0 - GOLDEN_PROB) * (1.0 - GOLDEN) ** 2
    assert abs(mean) < 1e-15
    assert abs(second - 1.0) < 1e-15


def test_weight_sample_moments():
    w = mammen_weights(1_000_000, seed=42)
    assert set(np.unique(w)) == {GOLDEN, 1.0 - GOLDEN}
    assert abs(np.mean(w)) < 0.01
    assert abs(np.mean(w**2) - 1.0) < 0.01


def test_weight_count_and_determinism():
    assert mammen_weights(7, seed=1).shape == (7,)
    # per-observation ids collapse to one weight per distinct firm
    ids = np.array([3, 3, 5, 5, 5, 9])
    assert mammen_weights(ids, seed=1).shape == (3,)
    assert np.array_equal(mammen_weights(10, seed=4), mammen_weights(10, seed=4))
    assert not np.array_equal(mammen_weights(100, seed=4), mammen_weights(100, seed=5))


def test_residuals_recentered(bench, bench_est):
    ds, _, _ = bench
    res = compute_residuals(ds, bench_est)
    assert abs(np.mean(res.eta)) < 1e-12
    assert abs(np.mean(res.zeta_phi)) < 1e-12
    assert abs(np.mean(res.resid_omega)) < 1e-12
    pairs = ds.lag_pairs()
    assert res.eta.shape == (ds.n_obs,)
    assert res.zeta_phi.shape == (len(pairs),)
    assert res.resid_omega.shape == (len(pairs),)


def test_synthetic_outcomes_structure(bench, bench_est):
    ds, _, _ = bench
    res = compute_residuals(ds, bench_est)
    w = mammen_weights(ds.n_firms, seed=6)
    lnr_b, ml_b, ystar_b = synthetic_outcomes(ds, bench_est, res, w)
    pairs = ds.lag_pairs()
    w_obs = w[ds.firm]

    # revenue ratio is an exact affine function of the drawn weights
    assert np.array_equal(lnr_b, bench_est.step1.ln_theta_delta - w_obs * res.eta)
    # non-pair rows keep the observed input gap
    rest = np.setdiff1d(np.arange(ds.n_obs), pairs.cur)
    assert np.array_equal(ml_b[rest], (ds.m - ds.l)[rest])
    assert ystar_b.shape == (len(pairs),)

    # the rebuilt gap satisfies the proxied phi recursion row by row
    p = bench_est.params
    delta = p.beta_l + p.beta_m
    phi_b = phi_proxy(ml_b, ds.s_l, p.beta_0, p.beta_l, delta)
    lhs = phi_b[pairs.cur]
    rhs = (
        bench_est.laws.rho_phi_1 * phi_b[pairs.prev]
        + ds.z[pairs.prev] @ bench_est.laws.rho_phi_2
        + w_obs[pairs.cur] * res.zeta_phi
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_weights_constant_within_firm(bench, bench_est):
    ds, _, _ = bench
    res = compute_residuals(ds, bench_est)
    w = mammen_weights(ds.n_firms, seed=12)
    lnr_b, _, _ = synthetic_outcomes(ds, bench_est, res, w)
    implied = np.full(ds.n_obs, np.nan)
    keep = np.abs(res.eta) > 1e-3
    implied[keep] = (bench_est.step1.ln_theta_delta - lnr_b[keep]) / res.eta[keep]
    for f in range(ds.n_firms):
        vals = implied[(ds.firm == f) & keep]
        if vals.size:
            assert np.ptp(vals) < 1e-8
            assert min(abs(vals[0] - GOLDEN), abs(vals[0] - (1.0 - GOLDEN))) < 1e-8


def test_override_one_reproduces_point(bench, bench_est):
    ds, _, _ = bench
    point = pack_parameters(bench_est.params, bench_est.laws)
    out = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=2, seed=5, weight_override=1.0))
    assert out.draws.shape == (2, point.size)
    assert np.max(np.abs(out.draws - point)) < 1e-6
    assert np.array_equal(out.draws[0], out.draws[1])


def test_override_one_reproduces_sequential_point(bench):
    ds, _, _ = bench
    opts = EstimateOptions(refine="none")
    est = estimate(ds, opts)
    out = run_bootstrap(ds, est, BootstrapConfig(n_reps=1, seed=5, weight_override=1.0), options=opts)
    point = pack_parameters(est.params, est.laws)
    assert np.max(np.abs(out.draws[0] - point)) < 1e-6
    assert np.all(out.standard_errors == 0.0)
    assert any("single successful replicate" in msg for msg in out.warnings)


def test_override_zero_ignores_seed(bench, bench_est):
    ds, _, _ = bench
    opts = EstimateOptions(refine="none")
    a = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=1, seed=1, weight_override=0.0), options=opts)
    b = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=1, seed=2, weight_override=0.0), options=opts)
    assert np.array_equal(a.draws, b.draws)


def test_master_seed_determinism(bench, bench_est):
    ds, _, _ = bench
    opts = EstimateOptions(refine="none")
    a = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=2, seed=3), options=opts)
    b = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=2, seed=3), options=opts)
    c = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=2, seed=4), options=opts)
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)


def test_intervals_ordered_and_nested(bench, bench_est):
    ds, _, _ = bench
    opts = EstimateOptions(refine="none")
    out = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=6, seed=9), options=opts)
    assert set(out.intervals) == {0.90, 0.95, 0.99}
    lo90, hi90 = out.intervals[0.90]
    lo99, hi99 = out.intervals[0.99]
    assert np.all(lo90 <= hi90)
    assert np.all(lo99 <= lo90)
    assert np.all(hi90 <= hi99)
    assert out.names == parameter_names(ds)
    assert out.draws.shape[1] == len(out.names)


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(n_reps=0).validate()
    with pytest.raises(ValueError):
        BootstrapConfig(levels=(0.9, 1.2)).validate()


@pytest.mark.parametrize("override", [float("nan"), float("inf")])
def test_config_rejects_nonfinite_weight_override(override):
    with pytest.raises(ValueError, match="weight_override"):
        BootstrapConfig(weight_override=override).validate()


def test_failures_recorded_and_flagged(bench, bench_est, monkeypatch):
    ds, _, _ = bench
    width = len(parameter_names(ds))
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 3 == 1:
            raise ValueError("boom")
        return np.zeros(width)

    monkeypatch.setattr(prodsys.bootstrap, "bootstrap_replicate", flaky)
    out = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=8, seed=0))
    assert out.n_failures == 3
    assert out.draws.shape == (5, width)
    assert all("boom" in msg for msg in out.failures)
    assert out.unreliable
    assert any("unreliable" in msg for msg in out.warnings)

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(prodsys.bootstrap, "bootstrap_replicate", broken)
    with pytest.raises(ValueError, match="all bootstrap replicates failed"):
        run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=3, seed=0))


def test_pack_matches_names(bench, bench_est):
    ds, _, _ = bench
    names = parameter_names(ds)
    assert names[:7] == ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0", "theta", "rho_phi_1")
    assert pack_parameters(bench_est.params, bench_est.laws).size == len(names)
    # control columns show up as labeled law coefficients
    two = PanelDataset(
        np.array([0, 0]), np.array([0, 1]), np.zeros(2), np.zeros(2), np.zeros(2),
        np.full(2, 0.1), np.full(2, 0.5), np.full(2, -0.3),
        x=np.zeros((2, 1)), z=np.zeros((2, 1)), x_names=("rd",), z_names=("export",),
    )
    names2 = parameter_names(two)
    assert "rho_phi_2[export]" in names2
    assert "rho_omega_2[rd]" in names2


@pytest.mark.slow
def test_se_tracks_monte_carlo_spread(bench, bench_est):
    """Bootstrap SE of beta_l agrees with the across-panel spread within 2x."""
    ds, truth, cfg = bench
    out = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=50, seed=11))
    se = out.standard_errors[out.names.index("beta_l")]

    draws = []
    for r in range(20):
        ds_r, _ = generate_panel(cfg, seed=1000 + r)
        draws.append(estimate(ds_r).params.beta_l)
    rmse = float(np.sqrt(np.mean((np.array(draws) - truth.params.beta_l) ** 2)))
    assert 0.5 * rmse < se < 2.0 * rmse


def test_programming_errors_in_a_replicate_propagate(bench, bench_est, monkeypatch):
    ds, _, _ = bench

    def buggy(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr(prodsys.bootstrap, "bootstrap_replicate", buggy)
    with pytest.raises(TypeError, match="bug"):
        run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=2, seed=0))


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, RuntimeError, FloatingPointError])
def test_numerical_failures_count_as_failed_replicates(bench, bench_est, monkeypatch, error):
    ds, _, _ = bench
    width = len(parameter_names(ds))
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise error("numerical")
        return np.zeros(width)

    monkeypatch.setattr(prodsys.bootstrap, "bootstrap_replicate", flaky)
    out = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=3, seed=0))
    assert out.n_failures == 1 and out.draws.shape == (2, width)


def test_pack_without_laws_is_the_leading_technology_block(bench_est):
    full = pack_parameters(bench_est.params, bench_est.laws)
    assert np.array_equal(pack_parameters(bench_est.params, None), full[:6])
