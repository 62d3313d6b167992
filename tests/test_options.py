"""One ``EstimateOptions`` object configures every fit of a run."""

import prodsys.optim
from prodsys.bootstrap import bootstrap_replicate, compute_residuals, mammen_weights
from prodsys.sieve import sieve_estimate
from prodsys.translog import EstimateOptions, estimate


def test_one_options_object_reaches_every_optimizer_start(small_panel, monkeypatch):
    ds, _, _ = small_panel
    seen = []
    lm_single = prodsys.optim._lm_single

    def spy(problem, x0, *, grad_tol, max_iter):
        seen.append((grad_tol, max_iter))
        return lm_single(problem, x0, grad_tol=grad_tol, max_iter=max_iter)

    monkeypatch.setattr(prodsys.optim, "_lm_single", spy)
    options = EstimateOptions(proxy="labor", instruments="exactly_identified", grad_tol=1e-7, max_iter=300)
    est = estimate(ds, options)
    after_estimate = len(seen)
    sieve_estimate(ds, degree=2, options=options)
    after_sieve = len(seen)
    bootstrap_replicate(ds, est, compute_residuals(ds, est), mammen_weights(ds.n_firms, 0))
    assert 0 < after_estimate < after_sieve < len(seen)
    assert set(seen) == {(1e-7, 300)}
