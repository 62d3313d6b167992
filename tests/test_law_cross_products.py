"""Steps two and three hand the optimizer what the lag-pair laws would give.

``step2_gmm`` hands ``minimize_gmm`` a moment vector and its Jacobian, and
``step3_core`` hands ``minimize_nls`` a residual and its Jacobian.  Both are
captured from the optimizer call and compared, at every start and at
perturbed points, with a direct evaluation on the lag-pair arrays through
:func:`phi_innovation` and :func:`omega_residual` under the linear laws.
Levenberg-Marquardt reads a least-squares problem only through ``J'J``,
``J'r`` and ``r'r``, so step three is compared on those: a residual of
another length with the same three products gives the same iterates.  The
benchmark panels carry no controls, so the controlled panel below is the
check of the lagged ``z`` and ``x`` columns.
"""

import numpy as np
import pytest
from moments_reference import LinearLaw

from prodsys import translog
from prodsys.moments import (
    capital_terms,
    flexible_output,
    omega_law_columns,
    omega_residual,
    omega_residual_jacobian,
    phi_innovation,
    phi_innovation_jacobian,
    phi_proxy,
)
from prodsys.optim import _psd_sqrt
from prodsys.panel import PanelDataset
from prodsys.simulate import benchmark_config, generate_panel

PHI_LAW, OMEGA_LAW = LinearLaw(intercept=False), LinearLaw(intercept=True)


class _Captured(Exception):
    """Stops a step once its optimizer problem is in hand."""


def _with_controls(ds, rng):
    return PanelDataset(
        firm_ids=ds.labels, years=ds.year, y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=ds.s_l, ln_r=ds.ln_r,
        x=rng.standard_normal((ds.n_obs, 2)), z=rng.standard_normal((ds.n_obs, 1)),
        ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m,
    )


@pytest.fixture(scope="module", params=("plain", "controls"))
def panel_steps(request):
    cfg = benchmark_config(n=400, seed=201)
    ds, _ = generate_panel(cfg, seed=201)
    if request.param == "controls":
        ds = _with_controls(ds, np.random.default_rng(5))
    step1 = translog.step1_cost_share(ds)
    step2 = translog.step2_gmm(ds, step1, translog.EstimateOptions())
    return ds, step1, step2


def _capture(monkeypatch, name, run):
    seen = {}

    def capture(problem, x0, *, starts=None, **_):
        seen.update(problem=problem, starts=[np.asarray(x0, dtype=float)] + list(starts or []))
        raise _Captured

    monkeypatch.setattr(translog, name, capture)
    with pytest.raises(_Captured):
        run()
    return seen["problem"], seen["starts"]


def _points(problem_bounds, starts):
    """The starts plus 20 clipped random perturbations of the first one."""
    lo, hi = problem_bounds
    rng = np.random.default_rng(17)
    first = starts[0]
    return list(starts) + [
        np.clip(first + 0.05 * np.maximum(np.abs(first), 0.1) * rng.standard_normal(first.size), lo + 1e-9, hi - 1e-9)
        for _ in range(20)
    ]


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want))), float(np.max(np.abs(got - want)))


def test_step2_moments_match_pair_array_moments(monkeypatch, panel_steps):
    ds, step1, _ = panel_steps
    problem, starts = _capture(monkeypatch, "minimize_gmm", lambda: translog.step2_gmm(ds, step1, translog.EstimateOptions()))
    # one start per minimum of step two's slope profile
    _, weight, e, qe = translog._phi_moment_block(ds, translog.EstimateOptions(), "instrument", [])
    box = tuple(bound[:2] for bound in problem.bounds)
    minima = translog._phi_slope_minima(_psd_sqrt(weight) @ qe / e.shape[0], step1.delta_lm, box)
    assert len(starts) == len(minima) >= 1
    assert all(np.array_equal(start, minimum) for start, minimum in zip(starts, minima))

    pairs = ds.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    args = (PHI_LAW, step1.delta_lm, ds.m[cur] - ds.l[cur], ds.m[prev] - ds.l[prev],
            ds.s_l[cur], ds.s_l[prev], ds.z[prev])
    q, _ = translog.build_instruments(ds)
    n = cur.size
    for alpha in _points(problem.bounds, starts):
        _assert_close(problem.moments(alpha), q.T @ phi_innovation(alpha, *args) / n)
        _assert_close(problem.jacobian(alpha), q.T @ phi_innovation_jacobian(alpha, *args) / n)


def test_step3_products_match_pair_array_products(monkeypatch, panel_steps):
    ds, step1, step2 = panel_steps
    delta, b0, bl = step1.delta_lm, step2.beta_0, step2.beta_l
    pairs = ds.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    flex = flexible_output(b0, bl, delta - bl, ds.m, ds.l, phi_proxy(ds.m - ds.l, ds.s_l, b0, bl, delta))
    ystar = ds.y - flex
    mstar = translog.omega_proxy(ds, b0, bl, delta, step1.theta)
    core_args = (ystar[cur], ds.k[cur], ds.k[prev], mstar[prev], ds.x[prev])
    options = translog.EstimateOptions()
    problem, starts = _capture(monkeypatch, "minimize_nls", lambda: translog.step3_core(*core_args, options))
    # one start per minimum of step three's slope profile
    minima = translog._omega_slope_minima(np.linalg.qr(omega_law_columns(*core_args), mode="r"))
    assert len(starts) == len(minima) >= 1
    assert all(np.array_equal(start, minimum) for start, minimum in zip(starts, minima))

    args = (OMEGA_LAW, ystar[cur], capital_terms(ds.k[cur]), capital_terms(ds.k[prev]), mstar[prev], ds.x[prev])
    for gamma in _points(problem.bounds, starts):
        r, jac = problem.residual(gamma), problem.jacobian(gamma)
        r_ref, jac_ref = omega_residual(gamma, *args), omega_residual_jacobian(gamma, *args)
        _assert_close(jac.T @ jac, jac_ref.T @ jac_ref)
        _assert_close(jac.T @ r, jac_ref.T @ r_ref)
        _assert_close(r @ r, r_ref @ r_ref)
