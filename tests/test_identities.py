"""Flexible-input elasticities on proxied phi: the identities the estimator leans on.

With phi proxied from the ratio of the flexible-input first-order
conditions, the implied elasticities are ``beta_l + beta_0*x = delta*s_l``
and ``beta_m - beta_0*x = delta*(1 - s_l)`` with ``x = m - phi - l``, at any
curvature and labor coefficient.  Both are positive whenever the shares lie
strictly inside (0, 1), so the omega proxy never drops a row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsys.moments import phi_proxy
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
    for which in ("materials", "labor", "average"):
        proxy, valid, n_dropped = omega_proxy(ds, beta_0, beta_l, beta_m, step1.theta, phi, which=which)
        assert n_dropped == 0 and valid.all() and np.all(np.isfinite(proxy))
