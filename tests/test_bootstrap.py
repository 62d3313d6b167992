"""Wild residual block bootstrap: weights, synthetic panels, replicate runs."""

import numpy as np
import pytest

import prodsys.bootstrap
from prodsys.bootstrap import (
    GOLDEN,
    GOLDEN_PROB,
    BootstrapConfig,
    bootstrap_replicate,
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


def _looped_input_gap(ds, est, res, weights):
    """The phi-law recursion of ``synthetic_outcomes`` one lag pair at a time."""
    p, laws = est.params, est.laws
    pairs = ds.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    w_obs = np.asarray(weights, dtype=float)[ds.firm]
    delta = p.beta_l + p.beta_m
    ratio, slope = p.beta_l / p.beta_0, delta / p.beta_0
    z_term = ds.z[prev] @ laws.rho_phi_2
    shock = w_obs[cur] * res.zeta_phi
    ml_b = (ds.m - ds.l).copy()
    s = ds.s_l
    for i in range(len(pairs)):
        c, q = cur[i], prev[i]
        ml_b[c] = -ratio + slope * s[c] + laws.rho_phi_1 * (ml_b[q] + ratio - slope * s[q]) + z_term[i] + shock[i]
    return ml_b


def test_synthetic_input_gap_equals_the_pair_loop_on_a_gappy_panel():
    full, _ = generate_panel(benchmark_config(n=60, t_periods=8, seed=31), seed=31)
    rng = np.random.default_rng(8)
    keep = rng.random(full.n_obs) > 0.2  # drops rows inside firms, so chains restart after gaps
    ds = PanelDataset(
        firm_ids=full.labels[keep], years=full.year[keep], y=full.y[keep], k=full.k[keep], l=full.l[keep],
        m=full.m[keep], s_l=full.s_l[keep], ln_r=full.ln_r[keep],
        z=rng.standard_normal((int(keep.sum()), 1)),
        ln_price_l=full.ln_price_l[keep], ln_price_m=full.ln_price_m[keep],
    )
    pairs = ds.lag_pairs()
    same_firm = ds.firm[pairs.cur[1:]] == ds.firm[pairs.cur[:-1]]
    assert np.any(same_firm & (pairs.prev[1:] != pairs.cur[:-1]))  # a restart inside a firm
    assert len(np.unique(np.bincount(ds.firm))) > 1  # unbalanced

    est = estimate(ds, EstimateOptions(refine="none"))
    res = compute_residuals(ds, est)
    for seed in (3, 4):
        w = mammen_weights(ds.n_firms, seed=seed)
        _, ml_b, _ = synthetic_outcomes(ds, est, res, w)
        assert np.array_equal(ml_b, _looped_input_gap(ds, est, res, w))


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


def _constant_weights(monkeypatch, value):
    """Every replicate of ``run_bootstrap`` draws the weight ``value`` for every firm."""
    monkeypatch.setattr(prodsys.bootstrap, "mammen_weights", lambda n_firms, seed: np.full(n_firms, value))


def test_override_one_reproduces_point(bench, bench_est, monkeypatch):
    ds, _, _ = bench
    point = pack_parameters(bench_est.params, bench_est.laws)
    _constant_weights(monkeypatch, 1.0)
    out = run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=2, seed=5))
    assert out.draws.shape == (2, point.size)
    assert np.max(np.abs(out.draws - point)) < 1e-6
    assert np.array_equal(out.draws[0], out.draws[1])


@pytest.mark.parametrize("refine", ["system", "none"])
def test_override_one_reproduces_point_with_the_estimates_options(bench, refine, monkeypatch):
    # no options given: the replicate reruns the estimator the point came from
    ds, _, _ = bench
    est = estimate(ds, EstimateOptions(instruments="exactly_identified", refine=refine))
    _constant_weights(monkeypatch, 1.0)
    out = run_bootstrap(ds, est, BootstrapConfig(n_reps=1, seed=5))
    assert np.max(np.abs(out.draws[0] - pack_parameters(est.params, est.laws))) < 1e-6


@pytest.mark.parametrize("refine", ["system", "none"])
def test_a_replicate_is_estimate_on_its_synthetic_panel(bench, refine, monkeypatch):
    # a replicate once ran a step 3 of its own, on the resampled y* against the
    # observed panel's omega proxy, which moved refine="none" draws by up to 1e-2
    ds, _, _ = bench
    est = estimate(ds, EstimateOptions(refine=refine))
    res = compute_residuals(ds, est)
    panels, step1 = [], prodsys.bootstrap.step1_cost_share
    monkeypatch.setattr(prodsys.bootstrap, "step1_cost_share", lambda panel: panels.append(panel) or step1(panel))
    for seed in range(4):
        draw = bootstrap_replicate(ds, est, res, mammen_weights(ds.n_firms, seed=seed))
        again = estimate(panels[-1], est.options)
        assert np.array_equal(draw, pack_parameters(again.params, again.laws)), seed


@pytest.fixture(scope="module")
def sequential_est(bench):
    """The sequential point estimate: its replicates skip the joint refinement."""
    return estimate(bench[0], EstimateOptions(refine="none"))


def test_override_one_reproduces_sequential_point(bench, sequential_est, monkeypatch):
    ds, _, _ = bench
    _constant_weights(monkeypatch, 1.0)
    out = run_bootstrap(ds, sequential_est, BootstrapConfig(n_reps=1, seed=5))
    point = pack_parameters(sequential_est.params, sequential_est.laws)
    assert np.max(np.abs(out.draws[0] - point)) < 1e-6
    assert np.all(out.standard_errors == 0.0)
    assert any("single successful replicate" in msg for msg in out.warnings)


def test_override_zero_ignores_seed(bench, sequential_est, monkeypatch):
    ds, _, _ = bench
    _constant_weights(monkeypatch, 0.0)
    a = run_bootstrap(ds, sequential_est, BootstrapConfig(n_reps=1, seed=1))
    b = run_bootstrap(ds, sequential_est, BootstrapConfig(n_reps=1, seed=2))
    assert np.array_equal(a.draws, b.draws)


def test_master_seed_determinism(bench, sequential_est):
    ds, _, _ = bench
    a = run_bootstrap(ds, sequential_est, BootstrapConfig(n_reps=2, seed=3))
    b = run_bootstrap(ds, sequential_est, BootstrapConfig(n_reps=2, seed=3))
    c = run_bootstrap(ds, sequential_est, BootstrapConfig(n_reps=2, seed=4))
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)


def test_intervals_ordered_and_nested(bench, sequential_est):
    ds, _, _ = bench
    out = run_bootstrap(ds, sequential_est, BootstrapConfig(n_reps=6, seed=9))
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


def test_replicate_keeps_the_converged_interior_point(bench, bench_est):
    """Replicate 44 of ``BootstrapConfig(n_reps=50, seed=11)``, a draw of the SE test above.

    The joint refinement's sequential start there runs out of iterations
    toward the box corner ``beta_0 = -1e-10``, ``beta_k = beta_kk = 5`` at a
    lower objective (0.0042) than the interior optimum (0.0198) that the
    grid starts converge to; the converged point is the answer.
    """
    ds, _, _ = bench
    seq = np.random.SeedSequence(11).spawn(50)[44]
    draw = bootstrap_replicate(ds, bench_est, compute_residuals(ds, bench_est), mammen_weights(ds.n_firms, seq))
    assert -5.0 < draw[parameter_names(ds).index("beta_k")] < 5.0


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


def test_run_bootstrap_leaves_the_observed_panel_unchanged(bench, bench_est):
    ds, _, _ = bench
    arrays = {name: value.copy() for name, value in vars(ds).items() if isinstance(value, np.ndarray)}
    pairs = [a.copy() for a in (ds.lag_pairs().cur, ds.lag_pairs().prev)]
    run_bootstrap(ds, bench_est, BootstrapConfig(n_reps=2, seed=8))
    assert len(arrays) == 14
    for name, before in arrays.items():
        after = getattr(ds, name)
        assert after.dtype == before.dtype and after.tobytes() == before.tobytes(), name
    assert all(np.array_equal(a, b) for a, b in zip(pairs, (ds.lag_pairs().cur, ds.lag_pairs().prev)))
