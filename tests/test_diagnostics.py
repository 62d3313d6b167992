"""Elasticity records, weighted productivity aggregates, simulation study."""

import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import prodsys.diagnostics
from prodsys.ces import CesParams
from prodsys.diagnostics import aggregate_productivity, elasticities, monte_carlo_study
from prodsys.panel import PanelDataset
from prodsys.simulate import DgpConfig, benchmark_config
from prodsys.translog import EstimateOptions, ProductivityLaws, TranslogParams


def test_elasticity_formulas_and_additivity(rng):
    params = TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.25, beta_m=0.5, beta_0=-0.05)
    k = rng.uniform(0, 5, 30)
    m = rng.uniform(0, 3, 30)
    l = rng.uniform(0, 2, 30)
    phi = rng.uniform(-1, 1, 30)
    rec = elasticities(params, k, m, l, phi)
    gap = m - phi - l
    assert np.allclose(rec.capital, 0.2 - 0.01 * k, atol=1e-15)
    assert np.allclose(rec.labor, 0.25 - 0.05 * gap, atol=1e-15)
    assert np.allclose(rec.material, 0.5 + 0.05 * gap, atol=1e-15)
    assert np.array_equal(rec.rts, rec.capital + rec.labor + rec.material)


@given(
    beta_l=st.floats(-2, 2),
    beta_m=st.floats(-2, 2),
    beta_0=st.floats(-2, 2),
    gap=st.floats(-20, 20),
)
def test_flexible_elasticities_sum_is_gap_free(beta_l, beta_m, beta_0, gap):
    params = TranslogParams(beta_k=0.1, beta_kk=0.0, beta_l=beta_l, beta_m=beta_m, beta_0=beta_0)
    rec = elasticities(params, 0.0, gap, 0.0, 0.0)
    assert abs(float(rec.labor + rec.material) - (beta_l + beta_m)) < 1e-12


def test_labor_elasticity_equals_scaled_share_at_truth(bench):
    ds, truth, _ = bench
    p = truth.params
    rec = elasticities(p, ds.k, ds.m, ds.l, truth.phi.ravel())
    assert np.max(np.abs(rec.labor - (p.beta_l + p.beta_m) * ds.s_l)) < 1e-10


def test_aggregate_matches_hand_weighting():
    ds = PanelDataset(
        np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
        np.log([1.0, 2.0, 3.0, 2.0]), np.zeros(4), np.full(4, 0.5),
        np.array([1.0, 2.0, 1.5, 2.5]), np.full(4, 0.4), np.full(4, -0.2),
    )
    params = TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.3, beta_m=0.45, beta_0=-0.05)
    phi = np.array([1.0, 3.0, 2.0, 5.0])
    omega = np.array([2.0, 1.0, 0.0, 4.0])
    fake = types.SimpleNamespace(params=params, phi_hat=phi, omega_hat=omega)
    agg = aggregate_productivity(ds, fake)

    assert np.array_equal(agg.years, [0, 1])
    # year 0 output weights 1/4 and 3/4, year 1 weights 1/2 and 1/2
    phi0 = 0.25 * 1.0 + 0.75 * 2.0
    phi1 = 0.5 * 3.0 + 0.5 * 5.0
    om0 = 0.25 * 2.0 + 0.75 * 0.0
    om1 = 0.5 * 1.0 + 0.5 * 4.0
    lab = 0.3 - 0.05 * (ds.m - phi - ds.l)
    lp0 = 0.25 * lab[0] * 1.0 + 0.75 * lab[2] * 2.0
    lp1 = 0.5 * lab[1] * 3.0 + 0.5 * lab[3] * 5.0
    assert agg.phi[0] == 0.0 and agg.omega[0] == 0.0 and agg.labor_phi[0] == 0.0
    assert abs(agg.phi[1] - (phi1 - phi0)) < 1e-12
    assert abs(agg.omega[1] - (om1 - om0)) < 1e-12
    assert abs(agg.labor_phi[1] - (lp1 - lp0)) < 1e-12


def test_aggregate_on_estimated_panel(bench, bench_est):
    ds, _, _ = bench
    agg = aggregate_productivity(ds, bench_est)
    assert agg.years.shape == agg.phi.shape == agg.omega.shape == agg.labor_phi.shape
    assert agg.phi[0] == 0.0 and agg.omega[0] == 0.0 and agg.labor_phi[0] == 0.0


SMALL_CFG = benchmark_config(n=40, t_periods=6, seed=11)
FAST = EstimateOptions(refine="none")


def test_single_replication_statistics():
    report = monte_carlo_study(SMALL_CFG, 1, FAST, seed=5)
    assert report.n_failures == 0
    err = np.abs(report.mean - report.truth)
    assert np.allclose(report.rmse, err, rtol=1e-12)
    assert np.allclose(report.mae, err, rtol=1e-12)


def test_error_statistics_ordering():
    report = monte_carlo_study(SMALL_CFG, 4, FAST, seed=5)
    assert np.all(report.rmse >= report.mae - 1e-15)
    assert np.all(report.rmse >= np.abs(report.mean - report.truth) - 1e-15)
    assert report.names[:7] == ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0", "theta", "rho_phi_1")


def test_parallel_matches_sequential():
    seq = monte_carlo_study(SMALL_CFG, 4, FAST, seed=5)
    again = monte_carlo_study(SMALL_CFG, 4, FAST, seed=5)
    par = monte_carlo_study(SMALL_CFG, 4, FAST, seed=5, threads=2)
    assert np.array_equal(seq.mean, again.mean)
    assert np.array_equal(seq.mean, par.mean)
    assert np.array_equal(seq.rmse, par.rmse)
    assert seq.n_failures == par.n_failures == 0


@pytest.mark.parametrize(("cpus", "started"), [(4, [2]), (1, [])], ids=["four-cpus", "one-cpu"])
def test_worker_count_is_capped_by_replications_and_cpus(monkeypatch, cpus, started):
    # a recording stand-in for the process pool: no worker process is started
    workers = []

    class RecordingPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    sequential = monte_carlo_study(SMALL_CFG, 2, FAST, seed=5)
    monkeypatch.setattr(prodsys.diagnostics.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(prodsys.diagnostics.os, "cpu_count", lambda: cpus)
    report = monte_carlo_study(SMALL_CFG, 2, FAST, seed=5, threads=64)
    assert workers == started
    assert np.array_equal(report.mean, sequential.mean) and np.array_equal(report.rmse, sequential.rmse)


def test_failures_counted_and_reported(bench_est, monkeypatch):
    calls = {"n": 0}

    def flaky(dataset, options=None):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("sim fail")
        return bench_est

    monkeypatch.setattr(prodsys.diagnostics, "estimate", flaky)
    report = monte_carlo_study(SMALL_CFG, 3, FAST, seed=5)
    assert report.n_failures == 1
    assert "replication 1" in report.failures[0] and "sim fail" in report.failures[0]
    text = report.to_text()
    assert "replications: 2 successful, 1 failed" in text

    def broken(dataset, options=None):
        raise ValueError("sim fail")

    monkeypatch.setattr(prodsys.diagnostics, "estimate", broken)
    with pytest.raises(ValueError, match="all replications failed"):
        monte_carlo_study(SMALL_CFG, 2, FAST, seed=5)
    with pytest.raises(ValueError, match="at least one"):
        monte_carlo_study(SMALL_CFG, 0, FAST, seed=5)


def test_bad_options_are_refused_before_any_replication(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(prodsys.diagnostics, "generate_panel", unreachable)
    with pytest.raises(ValueError, match="^refine"):
        monte_carlo_study(SMALL_CFG, 2, EstimateOptions(refine="polish"), seed=5)


def test_report_serialization():
    report = monte_carlo_study(SMALL_CFG, 2, FAST, seed=5)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "parameter,truth,mean,rmse,mae"
    assert len(lines) == 1 + len(report.names)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == report.names[i]
        assert float(cells[1]) == report.truth[i]
        assert float(cells[2]) == report.mean[i]
    text = report.to_text()
    assert "parameter" in text and "rmse" in text
    assert "replications: 2 successful, 0 failed" in text


def test_programming_errors_in_a_replication_propagate(monkeypatch):
    def buggy(dataset, options=None):
        raise TypeError("bug")

    monkeypatch.setattr(prodsys.diagnostics, "estimate", buggy)
    with pytest.raises(TypeError, match="bug"):
        monte_carlo_study(SMALL_CFG, 2, FAST, seed=5)


def test_truth_vector_follows_the_parameter_layout():
    cfg = benchmark_config(n=10)
    cfg.laws = ProductivityLaws(
        rho_phi_1=0.9, rho_omega_0=0.2, rho_omega_1=0.6, rho_phi_2=[0.1], rho_omega_2=[0.2, 0.3],
    )
    names, truth = prodsys.diagnostics._truth_vector(cfg)
    assert names == (
        "beta_k", "beta_kk", "beta_l", "beta_m", "beta_0", "theta", "rho_phi_1", "rho_phi_2[z0]",
        "rho_omega_0", "rho_omega_1", "rho_omega_2[x0]", "rho_omega_2[x1]",
    )
    assert truth[5] == cfg.theta
    assert truth.tolist()[6:] == [0.9, 0.1, 0.2, 0.6, 0.2, 0.3]


def test_monte_carlo_rejects_ces_data():
    # the study would report the translog defaults as the truth of CES data
    cfg = DgpConfig(
        n=20, t_periods=4, technology="ces",
        ces=CesParams(sigma=0.6, nu=0.9, beta_k=0.2, beta_m=0.5),
    )
    with pytest.raises(ValueError, match="translog"):
        monte_carlo_study(cfg, 1)
