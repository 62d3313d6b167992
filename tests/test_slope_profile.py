"""The slope profiles of steps two and three: one batched scan over the lagged-productivity slope.

At a fixed slope both fits are linear least squares in their other
coefficients (variable projection).  The oracle here writes each residual
out column by column from the coefficient maps of :mod:`prodsys.moments`
and solves it with ``np.linalg.lstsq``; where the free solution leaves step
two's box, the oracle is the lowest feasible ``lstsq`` over the box's faces.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from moments_reference import proxied_omega_map
from system_reference import uncentered_root

from prodsys import translog
from prodsys.moments import omega_law_coef, omega_law_columns, phi_law_coef, proxied_omega_coef

SLOPES = st.floats(-0.999999, 0.999999)


def step2_profile_inputs(ds, step1):
    """``(proj, delta, box)``: step two's whitened ``Q'E/n`` and the box of ``(beta_0, beta_l)``."""
    gram, _, columns = translog._lag_pair_gram(ds, step1, translog.EstimateOptions())
    whitened_qe = translog._phi_cross_products(gram, columns, translog.EstimateOptions(), [])
    lo, hi = translog._phi_law_gmm(None, None, 2, 3 + ds.z.shape[1], step1.delta_lm)[0].bounds
    return whitened_qe, step1.delta_lm, (lo[:2], hi[:2])


@pytest.fixture(scope="module")
def fits(bench):
    ds, _, _ = bench
    step1 = translog.step1_cost_share(ds)
    step2 = translog.step2_gmm(ds, step1, translog.EstimateOptions())
    ystar, mstar = translog._omega_law_data(ds, step2.beta_0, step2.beta_l, step1.delta_lm, step1.theta, "materials")
    cur, prev = ds.lag_pairs().cur, ds.lag_pairs().prev
    d = omega_law_columns(ystar[cur], ds.k[cur], ds.k[prev], mstar[prev], ds.x[prev])
    return step2_profile_inputs(ds, step1), np.linalg.qr(d, mode="r"), step2


def affine_columns(coef_at, theta0):
    """``(base, cols)`` with ``coef_at(theta) == base + cols @ theta`` for an affine map, read at ``theta0``."""
    at0 = coef_at(theta0)
    cols = np.column_stack([coef_at(theta0 + e) - at0 for e in np.eye(theta0.size)])
    return at0 - cols @ theta0, cols


def lstsq_fit(mat, base, cols):
    """``(theta, crit)`` minimizing ``|mat @ (base + cols @ theta)|^2``."""
    theta, *_ = np.linalg.lstsq(mat @ cols, -(mat @ base), rcond=None)
    resid = mat @ (base + cols @ theta)
    return theta, float(resid @ resid)


def assert_rel(got, want, tol=1e-10):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))), (got, want)


#: boxes on ``(beta_0, beta_l)`` that bind on the bench panel: ``beta_0 >= -0.1`` with ``beta_l``'s lower
#: bound, and with its upper bound
TIGHT_BOXES = {"low": ((-0.1, 0.3), (-1e-10, 0.4)), "high": ((-0.1, 0.05), (-1e-10, 0.2))}


@pytest.mark.parametrize("box_name", ["estimator", *TIGHT_BOXES])
@settings(max_examples=60, deadline=None)
@given(slope=SLOPES)
def test_step2_scan_is_the_least_squares_of_its_whitened_residual(fits, box_name, slope):
    (proj, delta, box), _, _ = fits
    (lo_0, lo_l), (hi_0, hi_l) = TIGHT_BOXES.get(box_name, box)
    # theta = (c, u) with u = 1/beta_0 and c = beta_l/beta_0
    base, cols = affine_columns(lambda th: phi_law_coef(np.array([1 / th[1], th[0] / th[1], slope]), delta),
                                np.array([-1.0, -2.0]))
    # the free problem, then every face of the box: u at 1/lo_0, c at lo_l*u or hi_l*u, or both
    candidates = [lstsq_fit(proj, base, cols)]
    u_max = 1.0 / lo_0
    for share in (lo_l, hi_l):
        (u,), crit = lstsq_fit(proj, base, cols @ [[share], [1.0]])
        candidates += [(np.array([share * u, u]), crit), (np.array([share * u_max, u_max]), float(
            np.sum((proj @ (base + cols @ [share * u_max, u_max])) ** 2)))]
    (c,), crit = lstsq_fit(proj, base + cols[:, 1] * u_max, cols[:, :1])
    candidates.append((np.array([c, u_max]), crit))

    def inside(theta):
        beta_0, beta_l = 1 / theta[1], theta[0] / theta[1]
        return lo_0 * (1 + 1e-12) <= beta_0 <= hi_0 and lo_l * (1 - 1e-12) <= beta_l <= hi_l * (1 + 1e-12)

    want_theta, want_crit = min((cand for cand in candidates if inside(cand[0])), key=lambda cand: cand[1])
    crit, theta = translog._phi_profile(proj, delta, ((lo_0, lo_l), (hi_0, hi_l)))(np.array([slope]))
    assert_rel(crit[0], want_crit)
    assert_rel(theta[:, 0], want_theta)


@settings(max_examples=60, deadline=None)
@given(slope=SLOPES)
def test_step3_scan_is_the_least_squares_of_s_c(fits, slope):
    _, root, _ = fits
    # theta = (rho_0, beta_k, beta_kk)
    base, cols = affine_columns(lambda th: omega_law_coef(np.array([th[1], th[2], th[0], slope])), np.zeros(3))
    want_theta, want_crit = lstsq_fit(root, base, cols)
    crit, theta = translog._omega_profile(root)(np.array([slope]))
    assert_rel(crit[0], want_crit)
    assert_rel(theta[:, 0], want_theta)


def test_step2_profile_has_two_minima_on_the_bench_panel(fits, bench_est):
    (proj, delta, box), _, step2 = fits
    valley, truth_side = translog._phi_slope_minima(proj, delta, box)
    assert valley[2] == pytest.approx(0.787, abs=1e-3) and valley[0] == pytest.approx(-0.1475, abs=5e-4)
    assert truth_side[2] == pytest.approx(0.902, abs=1e-3) and truth_side[0] == pytest.approx(-0.060, abs=5e-4)
    # step two reports the lower minimum, polished; the joint system ends beside the other one
    assert abs(step2.rho_phi_1 - valley[2]) < 1e-6 and abs(step2.beta_0 - valley[0]) < 1e-6
    assert bench_est.params.beta_0 == pytest.approx(-0.0541, abs=1e-4)


def test_step3_minimum_is_step_threes_answer(bench):
    ds, _, _ = bench
    step1 = translog.step1_cost_share(ds)
    step2 = translog.step2_gmm(ds, step1, translog.EstimateOptions())
    step3 = translog.step3_nls(ds, step1, step2, translog.EstimateOptions())
    # a root of the joint system's uncentered R'R, carried to step two's point, is a root of step three's D'D
    carried = uncentered_root(ds, step1, translog.EstimateOptions()) @ proxied_omega_map(step2.beta_0, step2.beta_l, step1.delta_lm, ds.x.shape[1])
    best = translog._omega_slope_minima(carried)[0]
    got = [step3.beta_k, step3.beta_kk, step3.rho_omega_0, step3.rho_omega_1]
    assert np.max(np.abs(best - got)) < 1e-6


def test_a_singular_slope_is_infeasible_without_a_warning():
    rng = np.random.default_rng(3)
    b, a0 = rng.standard_normal((2, 6)), rng.standard_normal((6, 2))
    profile = translog._slope_profile(b, np.stack([a0, -a0]))  # A0 + r A1 vanishes at r = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crit, theta = profile(np.array([0.5, 1.0, -0.5]))
    assert np.isinf(crit[1]) and np.all(np.isnan(theta[:, 1]))
    assert np.all(np.isfinite(crit[[0, 2]])) and np.all(np.isfinite(theta[:, [0, 2]]))


def test_a_profile_with_no_feasible_slope_has_no_minima():
    slopes, theta, crit = translog._profile_minima(lambda s: (np.full(s.shape, np.inf), np.full((2, s.size), np.nan)))
    assert slopes.size == crit.size == len(theta) == 0


def test_proxied_omega_map_is_the_expansion_as_a_matrix(rng):
    for px in (0, 2):
        gamma, (beta_0, beta_l, delta) = rng.standard_normal(4 + px), (-0.07, 0.3, 0.75)
        got = proxied_omega_map(beta_0, beta_l, delta, px) @ omega_law_coef(gamma)
        assert_rel(got, proxied_omega_coef(gamma, beta_0, beta_l, delta), 1e-14)


def test_step3_without_capital_falls_back_to_the_first_grid_start():
    # with k = 0 the capital columns of D are zero, every normal matrix is
    # singular and the profile has no minimum; the fit still runs, from the
    # series laws' first start, and lands on the least squares of y* on [1, m*]
    rng = np.random.default_rng(4)
    y, mstar, zeros = rng.standard_normal(50), rng.standard_normal(50), np.zeros(50)
    root = np.linalg.qr(omega_law_columns(y, zeros, zeros, mstar, np.zeros((50, 0))), mode="r")
    assert translog._omega_slope_minima(root) == []
    result = translog.step3_core(translog._gram_root(root.T @ root), translog.EstimateOptions())
    ols, *_ = np.linalg.lstsq(np.column_stack([np.ones(50), mstar]), y, rcond=None)
    assert result.converged and np.all(result.params[:2] == 0.0)
    assert_rel(result.params[2:], ols, 1e-8)
