"""The joint system's stacked residual against the moment core on lag-pair arrays.

``system_refine`` hands the optimizer a residual that stacks the whitened,
std-normalised phi-law moments and omega-law moments.  Here that residual is
captured from the optimizer call and compared with a direct evaluation on
the lag-pair arrays through :func:`phi_innovation`, :func:`flexible_output`
and :func:`omega_residual`.  The benchmark panels carry no controls, so the
controlled panel below is the check of the lagged ``z`` and ``x`` columns.
On a simulated panel the labor share is exactly the ratio of labor to
flexible-input expenditure, so the labor and materials first-order
conditions agree up to rounding; the noisy-share panel perturbs the share
so that the three omega proxies differ.
"""

import numpy as np
import pytest
from moments_reference import LinearLaw
from system_reference import build_level_instruments, inverse_root

from prodsys import translog
from prodsys.moments import (
    capital_terms,
    flexible_output,
    omega_residual,
    phi_innovation,
    phi_law_coef,
    phi_proxy,
    proxied_omega_coef,
)
from prodsys.optim import finite_diff_jacobian
from prodsys.panel import PanelDataset
from prodsys.simulate import benchmark_config, generate_panel

PROXIES = ("materials", "labor", "average")


class _Captured(Exception):
    """Stops ``system_refine`` once its optimizer problem is in hand."""


def _with_controls(ds, rng):
    return PanelDataset(
        firm_ids=ds.labels, years=ds.year, y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=ds.s_l, ln_r=ds.ln_r,
        x=rng.standard_normal((ds.n_obs, 2)), z=rng.standard_normal((ds.n_obs, 1)),
        ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m,
    )


def _with_noisy_share(ds, rng):
    logit = np.log(ds.s_l / (1.0 - ds.s_l)) + 0.1 * rng.standard_normal(ds.n_obs)
    return PanelDataset(
        firm_ids=ds.labels, years=ds.year, y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=1.0 / (1.0 + np.exp(-logit)),
        ln_r=ds.ln_r, ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m,
    )


@pytest.fixture(scope="module", params=("plain", "controls", "noisy_share"))
def panel_steps(request):
    cfg = benchmark_config(n=400, seed=201)
    ds, _ = generate_panel(cfg, seed=201)
    if request.param == "controls":
        ds = _with_controls(ds, np.random.default_rng(5))
    if request.param == "noisy_share":
        ds = _with_noisy_share(ds, np.random.default_rng(9))
    step1 = translog.step1_cost_share(ds)
    step2 = translog.step2_gmm(ds, step1, translog.EstimateOptions())
    return ds, step1, step2


def _captured_problem(monkeypatch, ds, step1, step2, step3, proxy):
    seen = {}

    def capture(problem, x0, *, starts=None, **_):
        seen.update(problem=problem, starts=[np.asarray(x0, dtype=float)] + list(starts or []))
        raise _Captured

    monkeypatch.setattr(translog, "minimize_nls", capture)
    with pytest.raises(_Captured):
        translog.system_refine(ds, step1, step2, step3, translog.EstimateOptions(proxy=proxy))
    return seen["problem"], seen["starts"]


def _pair_array_residual(ds, step1, proxy):
    """The joint residual evaluated row by row on the lag pairs."""
    delta, theta = step1.delta_lm, step1.theta
    pairs = ds.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    n = cur.size
    ml_cur, ml_prev = ds.m[cur] - ds.l[cur], ds.m[prev] - ds.l[prev]
    s_cur, s_prev = ds.s_l[cur], ds.s_l[prev]
    z_prev, x_prev = ds.z[prev], ds.x[prev]
    cap_cur, cap_prev = capital_terms(ds.k[cur]), capital_terms(ds.k[prev])
    materials = ds.ln_price_m[prev] - np.log(delta * (1.0 - s_prev)) + ds.m[prev]
    labor = ds.ln_price_l[prev] - np.log(delta * s_prev) + ds.l[prev]
    foc_prev = {"materials": materials, "labor": labor, "average": 0.5 * (materials + labor)}[proxy] - np.log(theta)
    q, _ = translog.build_instruments(ds)
    h, _ = build_level_instruments(ds)
    half_q, half_h = inverse_root(q.T @ q / n), inverse_root(h.T @ h / n)
    pz = z_prev.shape[1]
    phi_law, omega_law = LinearLaw(intercept=False), LinearLaw(intercept=True)

    def residual(lam):
        alpha, gamma = lam[:3 + pz], lam[3 + pz:]
        b0, bl = alpha[0], alpha[1]
        bm = delta - bl
        eps = phi_innovation(alpha, phi_law, delta, ml_cur, ml_prev, s_cur, s_prev, z_prev)
        phi_cur = phi_proxy(ml_cur, s_cur, b0, bl, delta)
        phi_prev = phi_proxy(ml_prev, s_prev, b0, bl, delta)
        ystar = ds.y[cur] - flexible_output(b0, bl, bm, ds.m[cur], ds.l[cur], phi_cur)
        mstar_prev = foc_prev - flexible_output(b0, bl, bm, ds.m[prev], ds.l[prev], phi_prev)
        r = omega_residual(gamma, omega_law, ystar, cap_cur, cap_prev, mstar_prev, x_prev)
        s_eps = max(float(np.std(eps)), 1e-8)
        s_r = max(float(np.std(r)), 1e-8)
        return np.concatenate([half_q @ (q.T @ eps) / (n * s_eps), half_h @ (h.T @ r) / (n * s_r)])

    return residual


@pytest.mark.parametrize("proxy", PROXIES)
def test_system_residual_matches_pair_array_residual(monkeypatch, panel_steps, proxy):
    ds, step1, step2 = panel_steps
    step3 = translog.step3_nls(ds, step1, step2, translog.EstimateOptions(proxy=proxy))
    problem, starts = _captured_problem(monkeypatch, ds, step1, step2, step3, proxy)
    reference = _pair_array_residual(ds, step1, proxy)
    lo, hi = problem.bounds
    rng = np.random.default_rng(17)
    seq = starts[0]
    points = list(starts) + [
        np.clip(seq + 0.05 * np.maximum(np.abs(seq), 0.1) * rng.standard_normal(seq.size), lo + 1e-9, hi - 1e-9)
        for _ in range(20)
    ]
    for lam in points:
        got, want = problem.residual(lam), reference(lam)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want))), np.max(np.abs(got - want))


def test_output_level_whitening_from_the_gram_matches_the_pair_rows():
    """``H'H/n`` read from the lag-pair Gram whitens ``H'R/n`` as ``H'H/n`` from the rows of ``H`` does.

    The two ``H'H/n`` differ in the last bits (their sums run in another
    order) and have a condition number near 4e8; the direct inverse root
    keeps the whitened rows within 1e-10 of each other, where an inverse
    followed by a root moved them by 3e-6.
    """
    ds, _ = generate_panel(benchmark_config(n=400, seed=201), seed=201)
    options = translog.EstimateOptions()
    step1 = translog.step1_cost_share(ds)
    step2 = translog.step2_gmm(ds, step1, options)
    proj_r, _, _, h_names = translog._system_cross_products(ds, step2, options, [])
    maps = translog._block_maps(step2.gram_columns, options)
    h, names = build_level_instruments(ds)
    n = h.shape[0]
    hr = maps["H"].T @ step2.gram @ maps["R"] / n
    want = translog._inverse_root(h.T @ h / n, "output-level instrument", []) @ hr
    assert h_names == names
    assert np.max(np.abs(proj_r - want)) <= 1e-10 * np.max(np.abs(want))


def _from_scratch_residual(ds, step1, step2, proxy):
    """The joint residual as first written on the cross products: both blocks at every call."""
    proj_e = step2.whitened_qe
    proj_r, gram_e, gram_r, *_ = translog._system_cross_products(ds, step2, translog.EstimateOptions(proxy=proxy), [])
    delta, pz = step1.delta_lm, ds.z.shape[1]

    def residual(lam):
        a = phi_law_coef(lam[:3 + pz], delta)
        c = proxied_omega_coef(lam[3 + pz:], lam[0], lam[1], delta)
        s_eps = max(float(np.sqrt(max(a @ gram_e @ a, 0.0))), 1e-8)
        s_r = max(float(np.sqrt(max(c @ gram_r @ c, 0.0))), 1e-8)
        return np.concatenate([proj_e @ a / s_eps, proj_r @ c / s_r])

    return residual


@pytest.mark.parametrize("proxy", PROXIES)
def test_system_residual_is_bitwise_the_same_in_any_call_order(monkeypatch, panel_steps, proxy):
    """The residual's value at a point does not depend on the points evaluated before it.

    One captured residual is evaluated in the optimizer's order (the accepted
    point, then the finite-difference Jacobian's columns) and then at those
    and random points in a random order, with repeats.  Every value must be
    bitwise the value of a freshly captured residual at the same point and
    of the residual computed from scratch, and overwriting a returned array
    must not change a later value.
    """
    ds, step1, step2 = panel_steps
    step3 = translog.step3_nls(ds, step1, step2, translog.EstimateOptions(proxy=proxy))
    problem, starts = _captured_problem(monkeypatch, ds, step1, step2, step3, proxy)
    lo, hi = problem.bounds
    rng = np.random.default_rng(29)
    seen = []

    def recorded(lam):
        out = problem.residual(lam)
        seen.append((lam.copy(), out.copy()))
        out[:] = np.nan
        return out.copy()

    for x in starts[:2]:
        recorded(x)
        finite_diff_jacobian(recorded, x)
    walk = [lam for lam, _ in seen]
    walk += [rng.uniform(lo + 1e-9, hi - 1e-9) for _ in range(5)]
    for i in rng.permutation(np.arange(len(walk)).repeat(2))[:40]:
        recorded(walk[i])
    from_scratch = _from_scratch_residual(ds, step1, step2, proxy)
    for lam, got in seen:
        fresh, _ = _captured_problem(monkeypatch, ds, step1, step2, step3, proxy)
        assert got.tobytes() == fresh.residual(lam).tobytes() == from_scratch(lam).tobytes()


def _scattered_points(problem, starts, seed):
    """Every start and 20 points scattered around the sequential start, inside the box."""
    lo, hi = problem.bounds
    rng = np.random.default_rng(seed)
    seq = starts[0]
    return list(starts) + [
        np.clip(seq + 0.05 * np.maximum(np.abs(seq), 0.1) * rng.standard_normal(seq.size), lo + 1e-9, hi - 1e-9)
        for _ in range(20)
    ]


@pytest.mark.parametrize("proxy", PROXIES)
def test_system_jacobian_is_the_finite_difference_jacobian_of_the_residual(monkeypatch, panel_steps, proxy):
    """The phi rows are the phi block's differences, bitwise the whole residual's.

    A column that moves a coordinate one block does not read leaves that
    block's value as it was, so its difference is exactly zero; the phi rows
    have zeros in every omega column and the omega rows (the closed form,
    held to the differences by the next test) in every ``rho_phi`` column.
    """
    ds, step1, step2 = panel_steps
    step3 = translog.step3_nls(ds, step1, step2, translog.EstimateOptions(proxy=proxy))
    problem, starts = _captured_problem(monkeypatch, ds, step1, step2, step3, proxy)
    assert problem.jacobian is not None
    n_phi = 3 + ds.z.shape[1]
    n_e = translog.build_instruments(ds)[0].shape[1]
    for lam in _scattered_points(problem, starts, 41):
        jac = problem.jacobian(lam)
        assert jac[:n_e].tobytes() == finite_diff_jacobian(problem.residual, lam)[:n_e].tobytes()
        assert not np.any(jac[:n_e, n_phi:]) and not np.any(jac[n_e:, 2:n_phi])
        assert np.all(np.isfinite(jac))


@pytest.mark.parametrize("proxy", PROXIES)
def test_system_jacobian_omega_rows_are_the_finite_differences(monkeypatch, panel_steps, proxy):
    """The closed-form omega rows agree with central differences of the residual to 1e-6."""
    ds, step1, step2 = panel_steps
    step3 = translog.step3_nls(ds, step1, step2, translog.EstimateOptions(proxy=proxy))
    problem, starts = _captured_problem(monkeypatch, ds, step1, step2, step3, proxy)
    n_e = translog.build_instruments(ds)[0].shape[1]
    for lam in _scattered_points(problem, starts, 43):
        got = problem.jacobian(lam)[n_e:]
        want = finite_diff_jacobian(problem.residual, lam)[n_e:]
        assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want))), np.max(np.abs(got - want))


@pytest.mark.parametrize("proxy", PROXIES)
def test_system_jacobian_omega_rows_under_the_scale_floor(monkeypatch, noiseless, proxy):
    """At the truth of a noiseless panel the omega residual vanishes and its std is floored.

    The omega moments are then ``P c / scale_floor`` around the truth.  The
    residual's central differences at steps a thousand times smaller than
    the default stay under the floor, and the closed form agrees with them.
    """
    ds, truth, _ = noiseless
    options = translog.EstimateOptions(proxy=proxy)
    step1 = translog.step1_cost_share(ds)
    step2 = translog.step2_gmm(ds, step1, options)
    step3 = translog.step3_nls(ds, step1, step2, options)
    problem, _ = _captured_problem(monkeypatch, ds, step1, step2, step3, proxy)
    params, laws = truth.params, truth.laws
    lam = np.concatenate((
        [params.beta_0, params.beta_l, laws.rho_phi_1], laws.rho_phi_2,
        [params.beta_k, params.beta_kk, laws.rho_omega_0, laws.rho_omega_1], laws.rho_omega_2,
    ))
    gram_r = translog._system_cross_products(ds, step2, options, [])[2]
    c = proxied_omega_coef(lam[3:], lam[0], lam[1], step1.delta_lm)
    assert np.sqrt(max(c @ gram_r @ c, 0.0)) < 1e-8  # the floor binds
    n_e = translog.build_instruments(ds)[0].shape[1]
    got = problem.jacobian(lam)[n_e:]
    shrink = 1e-3
    want = finite_diff_jacobian(lambda u: problem.residual(lam + shrink * u)[n_e:], np.zeros_like(lam)) / shrink
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
