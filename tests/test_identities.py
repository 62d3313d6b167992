"""Flexible-input elasticities on proxied phi: the identities the estimator leans on.

With phi proxied from the ratio of the flexible-input first-order
conditions, the implied elasticities are ``beta_l + beta_0*x = delta*s_l``
and ``beta_m - beta_0*x = delta*(1 - s_l)`` with ``x = m - phi - l``, at any
curvature and labor coefficient.  Both are positive whenever the shares lie
strictly inside (0, 1), so the omega proxy is defined on every row; it is
checked here against the general first-order-condition formula.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsys.moments import flexible_output, phi_proxy
from prodsys.translog import omega_proxy, step1_cost_share


@settings(max_examples=40, deadline=None)
@given(st.floats(-1.0, -1e-3), st.floats(0.05, 0.95))
def test_proxied_phi_elasticities_are_share_identities(bench, beta_0, frac):
    ds, _, _ = bench
    step1 = step1_cost_share(ds)
    delta = step1.delta_lm
    beta_l = frac * delta
    beta_m = delta - beta_l
    phi = phi_proxy(ds.m - ds.l, ds.s_l, beta_0, beta_l, delta)
    x = ds.m - phi - ds.l
    assert np.max(np.abs(beta_l + beta_0 * x - delta * ds.s_l)) < 1e-10
    assert np.max(np.abs(beta_m - beta_0 * x - delta * (1.0 - ds.s_l))) < 1e-10

    # the general FOC formula m* = ln(P/P^Y) - ln(theta) - ln(e) + input - f,
    # with the elasticity e written in the candidate's coefficients
    flex = flexible_output(beta_0, beta_l, beta_m, ds.m, ds.l, phi)
    materials = ds.ln_price_m - np.log(step1.theta) - np.log(beta_m - beta_0 * x) + ds.m - flex
    labor = ds.ln_price_l - np.log(step1.theta) - np.log(beta_l + beta_0 * x) + ds.l - flex
    reference = {"materials": materials, "labor": labor, "average": 0.5 * (materials + labor)}
    for which, expected in reference.items():
        proxy = omega_proxy(ds, beta_0, beta_l, delta, step1.theta, which=which)
        assert proxy.shape == (ds.n_obs,)
        assert np.max(np.abs(proxy - expected)) < 1e-8 * max(1.0, float(np.max(np.abs(expected))))
