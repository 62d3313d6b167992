"""The joint system's profile over ``beta_0``: its identities, its start rule and its answers.

``system_refine`` scans ``J(beta_0)``, the joint criterion minimized over
every other coordinate at a fixed curvature, and polishes its lowest interior
local minimum with one start, checked against the sequential point.  The
tests here hold the profile to the joint objective, its ratio minima to a
generalized eigensolver, and its answers to those of the former start rule
(``system_reference``) and, on a noiseless panel, to the truth.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from system_reference import reference_system_fit, system_vector

from prodsys import translog
from prodsys.moments import phi_law_coef
from prodsys.panel import PanelDataset
from prodsys.simulate import benchmark_config, generate_panel
from prodsys.translog import EstimateOptions, estimate


def _with_controls(ds, rng):
    return PanelDataset(
        firm_ids=ds.labels, years=ds.year, y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=ds.s_l, ln_r=ds.ln_r,
        x=rng.standard_normal((ds.n_obs, 2)), z=rng.standard_normal((ds.n_obs, 1)),
        ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m,
    )


def _panel(name):
    """The plain and controls panels of ``test_system_residual.py``, or a benchmark panel ``(n, seed, markup)``."""
    if name in ("plain", "controls"):
        ds, _ = generate_panel(benchmark_config(n=400, seed=201), seed=201)
        return _with_controls(ds, np.random.default_rng(5)) if name == "controls" else ds
    n, seed, markup = name
    return generate_panel(benchmark_config(n=n, seed=seed, markup=markup))[0]


PARITY_CASES = [
    *[(panel, EstimateOptions(proxy=proxy)) for panel in ("plain", "controls") for proxy in translog.PROXIES],
    ("plain", EstimateOptions(instruments="exactly_identified")),
    *[((200, seed, markup), EstimateOptions()) for seed, markup in ((401, 1.2), (403, 1.2), (1070, 1.0), (1035, 1.2))],
]


@pytest.mark.parametrize("panel, options", PARITY_CASES, ids=lambda case: str(case).replace(" ", ""))
def test_the_profile_start_reaches_the_former_start_rules_answer(panel, options):
    # the former rule ran the sequential point, step two's other minima and
    # a fixed start; the one polished profile minimum lands on its answer,
    # or on a lower objective
    ds = _panel(panel)
    est = estimate(ds, options)
    reference, starts = reference_system_fit(ds, options)
    assert len(starts) >= 2 and est.system.converged
    gap = np.max(np.abs(system_vector(est.system) - reference.params))
    assert gap <= 1e-6 or est.system.objective < reference.objective, (gap, est.system.objective, reference.objective)


def test_a_small_markup_panel_leaves_the_rescaling_valley():
    # every start of the former rule ended in the rescaling valley here, at
    # objective 0.1227 and beta_0 -0.1237 with a valley warning; the
    # profile's lowest minimum polishes to the truth side
    ds, _ = generate_panel(benchmark_config(n=40, seed=31, markup=1.2))
    est = estimate(ds)
    assert est.system.converged and est.system.objective < 0.05
    assert -0.06 < est.params.beta_0 < -0.01
    assert not any(w.startswith("system:") and "valley" in w for w in est.warnings)


@pytest.mark.parametrize("panel", ["plain", "controls"])
def test_the_profile_at_the_polished_point_is_the_joint_objective(panel):
    ds = _panel(panel)
    est = estimate(ds)
    system, delta = est.system, est.step1.delta_lm
    proj_r, gram_e, gram_r, _ = translog._system_cross_products(ds, est.step1, est.options, [])
    profile = translog._system_profile(est.step2.whitened_qe, gram_e, proj_r, gram_r, delta)
    (phi_crit, beta_l, rho_phi_2), _ = profile(np.array([system.beta_0]), np.array([system.rho_phi_1]))
    _, (omega_crit, _, v) = profile(np.array([system.beta_0]), np.array([system.rho_omega_1]))
    assert phi_crit[0] + omega_crit[0] == pytest.approx(system.objective, rel=1e-10)
    # the blocks' closed forms are the polished coordinates
    assert np.allclose(np.r_[beta_l, rho_phi_2[:, 0]], np.r_[system.beta_l, system.rho_phi_2], rtol=0, atol=1e-6)
    assert np.allclose(v[1:, 0], np.r_[system.beta_k, system.beta_kk, system.rho_omega_2], rtol=0, atol=1e-6)
    # and no slope near the polished ones does better: J(beta_0) is the sum of the two
    slopes = np.linspace(-1e-3, 1e-3, 201)
    (phi_near, *_), _ = profile(np.full(slopes.size, system.beta_0), system.rho_phi_1 + slopes)
    _, (omega_near, *_) = profile(np.full(slopes.size, system.beta_0), system.rho_omega_1 + slopes)
    assert np.min(phi_near) + np.min(omega_near) >= system.objective * (1 - 1e-10)


def test_the_phi_block_on_a_face_of_the_box_is_the_box_minimum():
    # with a modifier the phi block's ratio runs over (1, rho_phi_2); where
    # the free beta_l leaves the box the face's minimum must be the box's,
    # which a grid over beta_l and rho_phi_2 cannot undercut
    ds = _panel("controls")
    options = EstimateOptions()
    step1 = translog.step1_cost_share(ds)
    step2 = translog.step2_gmm(ds, step1, options)
    proj_r, gram_e, gram_r, _ = translog._system_cross_products(ds, step1, options, [])
    delta = step1.delta_lm
    profile = translog._system_profile(step2.whitened_qe, gram_e, proj_r, gram_r, delta)
    beta_0 = np.repeat(translog._PROFILE_BETA_0, translog._PROFILE_SLOPES.size)
    slopes = np.tile(translog._PROFILE_SLOPES, translog._PROFILE_BETA_0.size)
    (crit, beta_l, rho_2), _ = profile(beta_0, slopes)
    (_, lo_l), (_, hi_l) = translog._beta_box(delta)
    on_face = np.flatnonzero((beta_l == lo_l) | (beta_l == hi_l))
    assert on_face.size
    i = on_face[np.argmin(crit[on_face])]

    def ratio(bl, rho):
        a = np.array([phi_law_coef(np.array([beta_0[i], b, slopes[i], r]), delta) for b, r in zip(bl, rho)]).T
        return np.sum((step2.whitened_qe @ a) ** 2, axis=0) / np.einsum("kg,kl,lg->g", a, gram_e, a)

    assert ratio([beta_l[i]], rho_2[:, i])[0] == pytest.approx(crit[i], rel=1e-10)
    bl, rho = np.meshgrid(np.linspace(lo_l, hi_l, 101), rho_2[0, i] + np.linspace(-1.0, 1.0, 101))
    assert np.min(ratio(bl.ravel(), rho.ravel())) >= crit[i] * (1 - 1e-10)


def _pencil(k):
    """A symmetric positive definite ``k x k`` matrix ``X'X + I/10`` from bounded entries."""
    return hnp.arrays(np.float64, (k + 2, k), elements=st.floats(-1, 1)).map(lambda x: x.T @ x + 0.1 * np.eye(k))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(3, 5))
def test_the_ratio_minimum_is_the_smallest_generalized_eigenvalue(data, k):
    num, den = data.draw(_pencil(k)), data.draw(_pencil(k))
    root = np.linalg.inv(np.linalg.cholesky(den))
    values, vectors = np.linalg.eigh(root @ num @ root.T)
    want, vector = values[0], root.T @ vectors[:, 0]
    # with v[0] = 0 the minimum over v[0] = 1 is not attained
    assume(abs(vector[0]) >= 0.05 * np.linalg.norm(vector))
    with np.errstate(all="ignore"):
        got, v = translog._ratio_minimum(num[:, :, None], den[:, :, None])
    assert got[0] == pytest.approx(want, rel=1e-10)
    assert v[0, 0] == 1.0 and got[0] == pytest.approx(v[:, 0] @ num @ v[:, 0] / (v[:, 0] @ den @ v[:, 0]), rel=1e-12)


def test_no_ratio_minimum_on_a_panels_scan_needs_the_eigensolver(monkeypatch, bench):
    # Dinkelbach's steps certify every minimum of the benchmark panel's scan
    # on their own; the eigensolver is for pencils unlike the estimator's
    def refused(*args):
        raise AssertionError("a ratio minimum went to the eigensolver")

    monkeypatch.setattr(translog, "_eigen_minimum", refused)
    estimate(bench[0])


def test_a_noiseless_panel_reaches_the_truth(noiseless):
    # without noise each block's normalized criterion is of order one at
    # every point but the exact fit, so the scan cannot see the truth's
    # basin; the polish that misses it is checked against the sequential
    # point, which is the truth here
    ds, truth, _ = noiseless
    est = estimate(ds)
    assert est.system.converged and est.system.objective < 1e-6
    got = [est.params.beta_0, est.params.beta_l, est.params.beta_k, est.params.beta_kk]
    want = [truth.params.beta_0, truth.params.beta_l, truth.params.beta_k, truth.params.beta_kk]
    assert np.allclose(got, want, rtol=0, atol=1e-6)
    assert not any(w.startswith("system:") for w in est.warnings)
