"""Golden parameter vectors: refactors of the estimator must keep these answers.

The values were recorded from the estimator as it stood before the phi and
omega laws were gathered into one residual core.  The tolerance is the
benchmark's output check, |value - golden| <= 1e-4 + 1e-4*|golden|.
"""

import numpy as np

from prodsys.bootstrap import bootstrap_replicate, compute_residuals, mammen_weights, pack_parameters
from prodsys.sieve import sieve_estimate
from prodsys.translog import EstimateOptions, estimate

GOLDEN = {
    "estimate": [
        0.1673163380278984, -0.004878037575856317, 0.25319051077233046, 0.4972500506017914,
        -0.05414282718295377, 1.0024965056253123, 0.9016117602676496, 0.24337200134959922,
        0.5929854168607687,
    ],
    "estimate_refine_none": [
        0.16497900236651913, -0.0059729403026397895, 0.34948999237427564, 0.4009505689998462,
        -0.14746536766210036, 1.0024965056253123, 0.7869656666175603, 0.2702374705525167,
        0.613549579539282,
    ],
    "bootstrap_replicate": [
        0.09043993886341305, 0.010224953411710919, 0.25074540356236447, 0.4999140804804128,
        -0.05176618515450146, 1.0028917599704334, 0.8972897008394142, 0.32400586288776306,
        0.5825167206251024,
    ],
    # technology parameters, then the phi-law and omega-law series coefficients
    "sieve_degree2": [
        0.33766355727363634, -0.0317688659177993, 0.350509982187589, 0.4001742315179414,
        -0.14859563770297127, 1.0023641820096125, 0.25661156232091015, -0.010313504471693609,
        -0.0734306428321245, 0.20755845995507202, 0.0032515428298102817,
    ],
}


def assert_golden(name, vec):
    ref = np.asarray(GOLDEN[name])
    vec = np.asarray(vec, dtype=float)
    assert vec.shape == ref.shape, name
    dev = np.abs(vec - ref)
    assert np.all(dev <= 1e-4 + 1e-4 * np.abs(ref)), (name, float(np.max(dev)))


def test_golden_estimate(bench_est):
    assert_golden("estimate", pack_parameters(bench_est.params, bench_est.laws))


def test_golden_estimate_refine_none(bench):
    ds, _, _ = bench
    est = estimate(ds, EstimateOptions(refine="none"))
    assert_golden("estimate_refine_none", pack_parameters(est.params, est.laws))


def test_golden_bootstrap_replicate(bench, bench_est):
    ds, _, _ = bench
    residuals = compute_residuals(ds, bench_est)
    weights = mammen_weights(ds.n_firms, seed=12)
    assert_golden("bootstrap_replicate", bootstrap_replicate(ds, bench_est, residuals, weights))


def test_golden_sieve_degree2(small_panel):
    ds, _, _ = small_panel
    est = sieve_estimate(ds, degree=2)
    p = est.params
    assert_golden("sieve_degree2", np.concatenate((
        [p.beta_k, p.beta_kk, p.beta_l, p.beta_m, p.beta_0, p.theta], est.step2.coef, est.step3.coef,
    )))
