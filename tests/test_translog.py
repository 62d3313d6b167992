"""Three-step estimator: closed forms, proxies, GMM and the system refinement."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from system_reference import profile_curve

from prodsys import bootstrap, optim, sieve, translog
from prodsys.moments import phi_law_coef, phi_law_coef_jacobian, phi_law_columns
from prodsys.optim import finite_diff_jacobian
from prodsys.panel import PanelDataset
from prodsys.simulate import benchmark_config, generate_panel
from prodsys.translog import (
    EstimateOptions,
    TranslogParams,
    _step2_arrays,
    _valley_warning,
    build_instruments,
    estimate,
    information_matrix,
    omega_proxy,
    phi_proxy,
    recover_productivity,
    step1_cost_share,
    step2_gmm,
)


def panel_with_lnr(ln_r):
    n = len(ln_r)
    return PanelDataset(
        firm_ids=[f"f{i // 2}" for i in range(n)],
        years=[2000 + i % 2 for i in range(n)],
        y=np.zeros(n), k=np.zeros(n), l=np.zeros(n), m=np.zeros(n),
        s_l=np.full(n, 0.5), ln_r=np.asarray(ln_r, dtype=float),
    )


# -- step one ------------------------------------------------------------------


def test_step1_constant_ratio_is_exact():
    ds = panel_with_lnr([np.log(0.75)] * 4)
    s1 = step1_cost_share(ds)
    assert s1.delta_lm == 0.75
    assert s1.theta == 1.0
    assert np.all(s1.eta_hat == 0.0)


def test_step1_two_value_closed_form():
    # ln R alternating between ln 0.7 and ln 0.8:
    #   exp(mean ln R) = sqrt(0.56), eta = -+ 0.5*ln(8/7),
    #   theta = cosh(0.5*ln(8/7)) = 15/(4*sqrt(14)), delta = 56/75
    ds = panel_with_lnr([np.log(0.7), np.log(0.8), np.log(0.8), np.log(0.7)])
    s1 = step1_cost_share(ds)
    assert abs(s1.theta - 15.0 / (4.0 * math.sqrt(14.0))) < 1e-14
    assert abs(s1.theta - 1.0022296571715914) < 1e-15
    assert abs(s1.delta_lm - 56.0 / 75.0) < 1e-14
    assert abs(s1.delta_lm - 0.74666666666666659) < 1e-15
    eta_abs = 0.5 * math.log(8.0 / 7.0)
    assert np.allclose(np.sort(np.abs(s1.eta_hat)), eta_abs, atol=1e-15)


def test_step1_direct_longhand_recomputation(bench):
    ds, _, _ = bench
    s1 = step1_cost_share(ds)
    # scalar-math recomputation, no numpy reductions
    vals = [float(v) for v in ds.ln_r]
    mean = math.fsum(vals) / len(vals)
    eta = [mean - v for v in vals]
    theta = math.fsum(math.exp(e) for e in eta) / len(eta)
    delta = math.exp(mean) / theta
    assert abs(s1.theta - theta) < 1e-12
    assert abs(s1.delta_lm - delta) < 1e-12
    assert np.max(np.abs(s1.eta_hat - np.array(eta))) < 1e-12
    # internal identities hold to machine precision
    assert abs(np.mean(s1.eta_hat)) < 1e-14
    assert abs(np.mean(np.exp(s1.eta_hat)) - s1.theta) < 1e-14


# -- phi proxy -----------------------------------------------------------------


def test_phi_proxy_hand_value():
    # (m-l)=1, S=0.3, beta_l=0.25, delta=0.75, beta_0=-0.05:
    # 1 + 0.25/(-0.05) - (0.75/(-0.05))*0.3 = 1 - 5 + 4.5 = 0.5
    val = phi_proxy(1.0, 0.3, -0.05, 0.25, 0.75)
    assert abs(float(val) - 0.5) < 1e-14


def test_phi_proxy_rejects_zero_curvature():
    with pytest.raises(ValueError):
        phi_proxy(1.0, 0.3, 0.0, 0.25, 0.75)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-3, 3), st.floats(0.05, 0.95), st.floats(-5, 5),
    st.floats(-0.5, -0.01), st.floats(0.05, 0.7),
)
def test_phi_proxy_is_affine_shift_in_ml(ml, s, c, b0, bl):
    base = float(phi_proxy(ml, s, b0, bl, 0.75))
    shifted = float(phi_proxy(ml + c, s, b0, bl, 0.75))
    assert abs(shifted - (base + c)) < 1e-9


def test_phi_proxy_exact_on_simulated_data(bench):
    ds, truth, cfg = bench
    p = cfg.params
    phi = phi_proxy(ds.m - ds.l, ds.s_l, p.beta_0, p.beta_l, p.delta_lm)
    assert np.max(np.abs(phi - truth.phi.ravel())) < 1e-8


# -- omega proxy and productivity recovery --------------------------------------


def test_omega_proxies_coincide_at_truth(bench):
    ds, truth, cfg = bench
    p = cfg.params
    out = {
        which: omega_proxy(ds, p.beta_0, p.beta_l, p.delta_lm, cfg.theta, which=which)
        for which in ("materials", "labor", "average")
    }
    assert np.max(np.abs(out["materials"] - out["labor"])) < 1e-8
    assert np.max(np.abs(out["materials"] - out["average"])) < 1e-8
    # the proxy equals omega plus the capital terms
    target = truth.omega.ravel() + p.beta_k * ds.k + 0.5 * p.beta_kk * ds.k**2
    assert np.max(np.abs(out["materials"] - target)) < 1e-8


def test_omega_proxy_rejects_unknown_proxy_and_nonpositive_delta():
    n = 4
    ds = PanelDataset(
        firm_ids=["a"] * n, years=range(n),
        y=np.zeros(n), k=np.zeros(n), l=np.zeros(n), m=np.array([0.1, 0.2, 10.0, 0.3]),
        s_l=np.full(n, 0.5), ln_r=np.zeros(n),
    )
    assert np.all(np.isfinite(omega_proxy(ds, -0.05, 0.25, 0.75, 1.0, which="labor")))
    with pytest.raises(ValueError, match="unknown omega proxy"):
        omega_proxy(ds, -0.05, 0.25, 0.75, 1.0, which="median")
    for delta_lm in (0.0, -0.3):
        with pytest.raises(ValueError, match="delta_lm must be positive"):
            omega_proxy(ds, -0.05, 0.25, delta_lm, 1.0, which="materials")


def test_recover_productivity_identity(bench):
    ds, truth, cfg = bench
    p = cfg.params
    params = TranslogParams(p.beta_k, p.beta_kk, p.beta_l, p.beta_m, p.beta_0, theta=cfg.theta)
    omega = recover_productivity(ds, params, truth.phi.ravel(), truth.eta.ravel())
    assert np.max(np.abs(omega - truth.omega.ravel())) < 1e-8


# -- step two ------------------------------------------------------------------


def test_step2_residual_zero_at_truth_noiseless(noiseless):
    ds, _, cfg = noiseless
    s1 = step1_cost_share(ds)
    e = phi_law_columns(*_step2_arrays(ds))
    alpha = np.array([cfg.params.beta_0, cfg.params.beta_l, cfg.laws.rho_phi_1])
    resid = e @ phi_law_coef(alpha, s1.delta_lm)
    assert np.max(np.abs(resid)) < 1e-10


def test_step2_jacobian_matches_finite_differences(bench, rng):
    ds, _, _ = bench
    s1 = step1_cost_share(ds)
    e = phi_law_columns(*_step2_arrays(ds))
    for _ in range(20):
        alpha = np.array([
            -rng.uniform(0.01, 0.2), rng.uniform(0.05, 0.6), rng.uniform(-0.9, 0.95),
        ])
        analytic = e @ phi_law_coef_jacobian(alpha, s1.delta_lm)
        fd = finite_diff_jacobian(lambda a: e @ phi_law_coef(a, s1.delta_lm), alpha)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1.0)
        assert np.max(rel) < 1e-6


def test_instrument_sets():
    ds = PanelDataset(
        firm_ids=["a", "a", "b", "b"], years=[0, 1, 0, 1],
        y=np.zeros(4), k=np.arange(4.0), l=np.zeros(4), m=np.ones(4),
        s_l=np.full(4, 0.4), ln_r=np.zeros(4),
        z=np.arange(4.0), z_names=["export"],
    )
    q, names = build_instruments(ds, kind="default")
    assert names == ("const", "ml_lag", "s_l_lag", "export_lag", "k", "k_lag")
    assert q.shape == (2, 6)
    q2, names2 = build_instruments(ds, kind="exactly_identified")
    assert names2 == ("const", "ml_lag", "s_l_lag", "export_lag")
    with pytest.raises(ValueError):
        build_instruments(ds, kind="lasso")


def test_step2_gmm_needs_enough_pairs():
    ds = PanelDataset(
        firm_ids=["a", "a", "b", "b"], years=[0, 1, 0, 1],
        y=np.zeros(4), k=np.arange(4.0), l=np.zeros(4), m=np.ones(4),
        s_l=np.full(4, 0.4), ln_r=np.full(4, -0.3),
    )
    with pytest.raises(ValueError, match="lag pairs"):
        step2_gmm(ds, step1_cost_share(ds), EstimateOptions())


def test_step2_gmm_recovers_truth_noiseless(noiseless):
    ds, _, cfg = noiseless
    s1 = step1_cost_share(ds)
    s2 = step2_gmm(ds, s1, EstimateOptions())
    assert s2.converged
    assert abs(s2.beta_0 - cfg.params.beta_0) < 1e-6
    assert abs(s2.beta_l - cfg.params.beta_l) < 1e-6
    assert abs(s2.rho_phi_1 - cfg.laws.rho_phi_1) < 1e-6
    assert s2.objective < 1e-16
    assert abs(s2.beta_m - (s1.delta_lm - s2.beta_l)) < 1e-14


def test_information_matrix_full_rank_at_truth(bench):
    ds, _, cfg = bench
    s1 = step1_cost_share(ds)
    alpha = np.array([cfg.params.beta_0, cfg.params.beta_l, cfg.laws.rho_phi_1])
    info, rank, cond = information_matrix(ds, s1, alpha, EstimateOptions())
    assert info.shape == (3, 3)
    assert rank == 3
    assert np.isfinite(cond)
    # curvature agrees with a finite-difference rebuild of the moment jacobian
    e = phi_law_columns(*_step2_arrays(ds))
    q, _ = build_instruments(ds)
    n_pairs = q.shape[0]
    weight = np.linalg.pinv(q.T @ q / n_pairs)
    g_fd = finite_diff_jacobian(lambda a: q.T @ (e @ phi_law_coef(a, s1.delta_lm)) / n_pairs, alpha)
    info_fd = g_fd.T @ weight @ g_fd
    rel = np.max(np.abs(info - info_fd) / np.maximum(np.abs(info), 1e-12))
    assert rel < 1e-6


# -- full pipeline -------------------------------------------------------------


def test_sequential_estimate_exact_on_noiseless_data(noiseless):
    ds, _, cfg = noiseless
    est = estimate(ds, EstimateOptions(refine="none"))
    assert est.system is None
    assert abs(est.params.beta_k - cfg.params.beta_k) < 1e-6
    assert abs(est.params.beta_kk - cfg.params.beta_kk) < 1e-6
    assert abs(est.params.beta_l - cfg.params.beta_l) < 1e-6
    assert abs(est.params.beta_0 - cfg.params.beta_0) < 1e-6
    assert abs(est.laws.rho_phi_1 - cfg.laws.rho_phi_1) < 1e-6
    assert abs(est.laws.rho_omega_0 - cfg.laws.rho_omega_0) < 1e-6
    assert abs(est.laws.rho_omega_1 - cfg.laws.rho_omega_1) < 1e-6


def test_system_refine_escapes_step2_valley(bench):
    ds, _, cfg = bench
    est = estimate(ds)
    assert est.system is not None
    assert est.system.converged
    # the sequential criterion sits in the rescaling valley on this panel
    assert any("valley" in w for w in est.step2.warnings)
    truth_alpha = np.array([cfg.params.beta_0, cfg.params.beta_l, cfg.laws.rho_phi_1])
    seq_alpha = np.array([est.step2.beta_0, est.step2.beta_l, est.step2.rho_phi_1])
    ref_alpha = np.array([est.params.beta_0, est.params.beta_l, est.laws.rho_phi_1])
    assert np.linalg.norm(ref_alpha - truth_alpha) < np.linalg.norm(seq_alpha - truth_alpha)
    assert abs(est.params.beta_l - cfg.params.beta_l) < 0.01
    assert abs(est.params.beta_0 - cfg.params.beta_0) < 0.01
    assert abs(est.laws.rho_phi_1 - cfg.laws.rho_phi_1) < 0.01
    assert abs(est.params.beta_k - cfg.params.beta_k) < 0.08
    assert abs(est.laws.rho_omega_1 - cfg.laws.rho_omega_1) < 0.05


def test_system_refine_keeps_the_converged_interior_point():
    # on this panel the joint refinement's first grid start runs out of
    # iterations toward the corner beta_0 = -1e-10, beta_k = beta_kk = 5 at a
    # lower objective (0.0065) than the interior optimum (0.0088) that the
    # other grid starts converge to
    ds, _ = generate_panel(benchmark_config(n=200, seed=1035, markup=1.2))
    est = estimate(ds)
    assert est.system.converged
    assert est.params.beta_0 < -0.01


def _layer_runs(monkeypatch, module, layer, fit):
    """``fit()`` and the ``(start, OptimResult)`` of each optimizer start run inside ``module.layer``."""
    runs, inside = [], [False]
    lm_single, traced = optim._lm_single, getattr(module, layer)

    def recorded(problem, x0, **kwargs):
        res = lm_single(problem, x0, **kwargs)
        if inside[0]:
            runs.append((np.array(x0, dtype=float), res))
        return res

    def traced_layer(*args, **kwargs):
        inside[0] = True
        try:
            return traced(*args, **kwargs)
        finally:
            inside[0] = False

    with monkeypatch.context() as patch:
        patch.setattr(optim, "_lm_single", recorded)
        patch.setattr(module, layer, traced_layer)
        return fit(), runs


def _system_runs(monkeypatch, dataset):
    """``estimate(dataset)`` and the ``(start, OptimResult)`` of each joint-refinement start."""
    return _layer_runs(monkeypatch, translog, "system_refine", lambda: estimate(dataset))


def _assert_bitwise_equal(got, want, name="result"):
    """Every float and array of two results, dataclass fields followed down, has the same bytes."""
    if dataclasses.is_dataclass(got):
        for field in dataclasses.fields(got):
            _assert_bitwise_equal(getattr(got, field.name), getattr(want, field.name), f"{name}.{field.name}")
    elif isinstance(got, (float, np.ndarray)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    else:
        assert got == want, name


#: the statuses of a start stopped by a guard or out of iterations
GUARD_STOPS = (optim.STALL_STATUS, "max iterations reached")


def _step2_profile_minima(est):
    """Step two's profile minima on the whitened ``Q'E/n`` of step two's record, which the joint system reads."""
    delta = est.step1.delta_lm
    return translog._phi_slope_minima(est.step2.whitened_qe, delta, translog._beta_box(delta))


def _assert_start_is_the_profile_minimum(ds, est, starts):
    """One start, at the lowest interior local minimum of the scanned profile ``J(beta_0)``."""
    (start,) = starts
    curve = profile_curve(ds, est.step1, est.step2, est.options)
    interior = [i for i in range(1, curve.size - 1) if curve[i - 1] > curve[i] <= curve[i + 1]]
    assert start[0] == translog._PROFILE_BETA_0[min(interior, key=curve.__getitem__)]


def _counting_calls(monkeypatch, names):
    """Count the calls to each of the ``translog`` functions ``names`` from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(translog, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(translog, name, counted)
    return calls


@pytest.mark.parametrize("fit", ["estimate", "bootstrap_replicate"])
def test_a_refined_fit_forms_step_two_once(monkeypatch, bench, bench_est, fit):
    # the joint system reads step two's whitened Q'E/n and slope minima
    # from step two's record instead of forming and scanning them again
    ds, _, _ = bench
    residuals = bootstrap.compute_residuals(ds, bench_est)
    weights = bootstrap.mammen_weights(ds.n_firms, np.random.SeedSequence(11))
    run = {"estimate": lambda: estimate(ds),
           "bootstrap_replicate": lambda: bootstrap.bootstrap_replicate(ds, bench_est, residuals, weights)}[fit]
    calls = _counting_calls(monkeypatch, ("build_instruments", "_phi_slope_minima"))
    run()
    assert calls == {"build_instruments": 1, "_phi_slope_minima": 1}


def test_step_two_record_keeps_the_minima_of_its_own_block(bench_est):
    step2, delta = bench_est.step2, bench_est.step1.delta_lm
    minima = translog._phi_slope_minima(step2.whitened_qe, delta, translog._beta_box(delta))
    # step two's answer is the polish of one minimum of its record's block
    assert min(np.max(np.abs(m - [step2.beta_0, step2.beta_l, step2.rho_phi_1])) for m in minima) < 1e-6
    assert step2.whitened_qe.shape == (len(step2.instrument_names), 5)


def test_an_ill_conditioned_step_two_gram_is_warned_once(bench):
    # a modifier equal to m - l makes its lag a copy of the instrument ml_lag;
    # the system reads step two's block and does not repeat step two's warning
    ds, _, _ = bench
    dup = PanelDataset(firm_ids=ds.labels, years=ds.year, y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=ds.s_l, ln_r=ds.ln_r,
                       z=(ds.m - ds.l)[:, None], ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m)
    est = estimate(dup)
    step2_gram = [w for w in est.warnings if "instrument Gram" in w and "output-level" not in w]
    assert len(step2_gram) == 1
    assert step2_gram == [f"step 2: {w}" for w in est.step2.warnings if "instrument Gram" in w]


def test_system_refine_refuses_a_step_two_record_of_another_instrument_set(bench):
    ds, _, _ = bench
    exact = EstimateOptions(instruments="exactly_identified")
    step1 = step1_cost_share(ds)
    step2 = step2_gmm(ds, step1, exact)
    step3 = translog.step3_nls(ds, step1, step2, exact)
    with pytest.raises(ValueError, match="instruments='default' gives 5"):
        translog.system_refine(ds, step1, step2, step3, EstimateOptions())


def test_system_refine_refuses_a_step_two_record_of_another_panel(bench, small_panel):
    (ds, _, _), (other, _, _) = bench, small_panel
    options = EstimateOptions()
    step1, other_step1 = step1_cost_share(ds), step1_cost_share(other)
    step2 = step2_gmm(other, other_step1, options)
    step3 = translog.step3_nls(ds, step1, step2, options)
    with pytest.raises(ValueError, match="lag pairs"):
        translog.system_refine(ds, step1, step2, step3, options)


def test_system_starts_on_panel_401_stay_off_the_cobb_douglas_edge(monkeypatch):
    # on this panel (a sieve_partialid benchmark panel) a start of the old
    # grid (beta_0 = -0.05) reached beta_0's upper bound -1e-10 within a few
    # accepted iterates and used to crawl along it to max_iter = 500; the
    # one start the profile scan names stops on no guard
    ds, _ = generate_panel(benchmark_config(n=200, seed=401, markup=1.2))
    est, runs = _system_runs(monkeypatch, ds)
    _assert_start_is_the_profile_minimum(ds, est, [x0 for x0, _ in runs])
    assert not any(r.status in GUARD_STOPS for _, r in runs)
    # no start ends on beta_0's upper bound
    assert all(r.params[0] < translog._beta_box(est.step1.delta_lm)[1][0] for _, r in runs)
    assert sum(r.n_iter for _, r in runs) <= 600
    assert est.params.beta_0 < -0.01 and est.system.converged


def test_system_starts_on_panel_401_do_not_slide_along_the_box(monkeypatch):
    # on the same panel a start of the old grid (beta_0 = -0.02, beta_l =
    # 0.75 delta) reached rho_phi's face and bounced on beta_l's lower bound,
    # and stopped only by the rule on cut steps; no start of the scan does
    ds, _ = generate_panel(benchmark_config(n=200, seed=401, markup=1.2))
    est, runs = _system_runs(monkeypatch, ds)
    assert not any(r.status in GUARD_STOPS for _, r in runs)
    assert sum(r.n_iter for _, r in runs) <= 200

    monkeypatch.setattr(optim, "BOX_STALL_STEPS", est.options.max_iter + 1)
    crawled, crawl_runs = _system_runs(monkeypatch, ds)
    assert [r.n_iter for _, r in crawl_runs] == [r.n_iter for _, r in runs]
    # without the rule the refined point is bit for bit the same
    _assert_bitwise_equal(est.system, crawled.system)


def test_series_step_two_starts_on_a_markup_1_panel_stop_along_the_box(monkeypatch):
    # the series phi law still runs _phi_law_gmm's 15-start grid; on this
    # competitive panel three of its starts slide along the box until the
    # rule on cut steps stops them, which is why BOX_STALL_STEPS stays
    ds, _ = generate_panel(benchmark_config(n=200, seed=1000, markup=1.0))
    fit = lambda: sieve.sieve_estimate(ds, degree="auto", degrees=(2, 3))
    est, runs = _layer_runs(monkeypatch, sieve, "sieve_step2_gmm", fit)
    stalled = [i for i, (_, r) in enumerate(runs) if r.status == optim.STALL_STATUS]
    assert len(runs) == 15 and len(stalled) == 3

    max_iter = EstimateOptions().max_iter
    monkeypatch.setattr(optim, "BOX_STALL_STEPS", max_iter + 1)
    crawled, crawl_runs = _layer_runs(monkeypatch, sieve, "sieve_step2_gmm", fit)
    # without the rule those starts run to max_iter and the rest are unchanged
    assert [r.n_iter for _, r in crawl_runs] == [max_iter if i in stalled else r.n_iter for i, (_, r) in enumerate(runs)]
    assert all(crawl_runs[i][1].status == "max iterations reached" for i in stalled)
    # and the estimate is bit for bit the same
    _assert_bitwise_equal(est, crawled)


def test_system_starts_on_panel_403_converge(monkeypatch):
    # on panel 403 a start of the old grid bounced off the box for all of its
    # 500 steps; the one start the profile scan names converges
    ds, _ = generate_panel(benchmark_config(n=200, seed=403, markup=1.2))
    est, runs = _system_runs(monkeypatch, ds)
    _assert_start_is_the_profile_minimum(ds, est, [x0 for x0, _ in runs])
    assert all(r.converged for _, r in runs)
    assert not any(r.status in GUARD_STOPS for _, r in runs)
    assert all(r.params[0] < translog._beta_box(est.step1.delta_lm)[1][0] for _, r in runs)


@pytest.mark.parametrize("markup, beta_0, objective", [(1.0, -0.04913, 0.008304), (1.2, -0.02688, 0.006489)])
def test_system_reaches_the_truth_side_when_step_two_has_one_minimum(markup, beta_0, objective):
    # on panel 1070 step two's profile has one minimum, in the rescaling
    # valley, so no seed starts near the truth: the fixed start (-0.2,
    # delta/2) reaches it, where the sequential start ends at objective 0.08
    ds, _ = generate_panel(benchmark_config(n=200, seed=1070, markup=markup))
    est = estimate(ds)
    assert len(_step2_profile_minima(est)) == 1
    assert est.system.converged
    assert est.params.beta_0 == pytest.approx(beta_0, abs=5e-5)
    assert est.system.objective == pytest.approx(objective, rel=1e-3)


def test_estimate_reports_no_valley_warning_for_the_refined_point(bench_est):
    # step two's point sits in the rescaling valley on this panel and the
    # refined point does not; each copied warning names the fit it describes
    est = bench_est
    assert est.params.beta_0 == est.system.beta_0
    assert any("valley" in w for w in est.step2.warnings)
    assert not any("valley" in w for w in est.system.warnings)
    assert all(w.startswith(("step 2: ", "step 3: ", "system: ")) for w in est.warnings)
    assert [w for w in est.warnings if "valley" in w] == [f"step 2: {w}" for w in est.step2.warnings if "valley" in w]


def test_valley_check_flags_a_collapsed_proxy(bench):
    ds, truth, _ = bench
    assert _valley_warning(ds, truth.phi.ravel()) == []
    (warning,) = _valley_warning(ds, np.full(ds.n_obs, 0.3))
    assert "rescaling valley" in warning


def test_estimate_reports_consistent_fields(bench_est, bench):
    ds, _, _ = bench
    est = bench_est
    assert abs((est.params.beta_l + est.params.beta_m) - est.step1.delta_lm) < 1e-12
    assert est.phi_hat.shape == (ds.n_obs,)
    assert est.omega_hat.shape == (ds.n_obs,)
    assert est.eta_hat.shape == (ds.n_obs,)
    assert est.params.theta == est.step1.theta
    # recovered omega is consistent with the reported parameters
    rebuilt = recover_productivity(ds, est.params, est.phi_hat, est.eta_hat)
    assert np.max(np.abs(rebuilt - est.omega_hat)) < 1e-12


def test_estimate_rejects_unknown_refine(bench):
    ds, _, _ = bench
    with pytest.raises(ValueError):
        estimate(ds, EstimateOptions(refine="polish"))


@pytest.mark.parametrize("setting", [
    {"proxy": "capital"}, {"instruments": "bogus"}, {"refine": "polish"}, {"grad_tol": 0.0}, {"max_iter": 0},
    {"grad_tol": math.inf}, {"max_iter": 2.5}, {"max_iter": True}, {"grad_tol": 1.0}, {"grad_tol": 1e300},
])
def test_estimate_options_validate_names_the_setting(setting):
    EstimateOptions().validate()
    with pytest.raises(ValueError, match=next(iter(setting))):
        EstimateOptions(**setting).validate()
