"""The lag-pair Gram, built a block of pairs at a time, against its former one-block form."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from translog_reference import former_lag_pair_gram

from prodsys import translog
from prodsys.panel import PanelDataset
from prodsys.simulate import benchmark_config, generate_panel
from prodsys.translog import EstimateOptions, estimate, step1_cost_share

#: entries of a blocked Gram agree with the one-block Gram to this fraction of ``sqrt(G_ii G_jj)``
GRAM_RTOL = 1e-13


def check_against_the_former_gram(ds, refine):
    """One block gives the former bytes; blocks of 1, 7, 64 and ``n - 1`` pairs give its matrices to ``GRAM_RTOL``."""
    step1, options = step1_cost_share(ds), EstimateOptions(refine=refine)
    want = former_lag_pair_gram(ds, step1, options)
    n = ds.lag_pairs().cur.size
    assert n <= translog._GRAM_BLOCK_ROWS
    for rows in (translog._GRAM_BLOCK_ROWS, n, n + 1, 1, 7, 64, n - 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(translog, "_GRAM_BLOCK_ROWS", rows)
            got = translog._lag_pair_gram(ds, step1, options)
        assert got[2] == want[2]
        assert (got[1] is None) == (want[1] is None) == (refine == "none")
        for gram, former in zip(got[:2], want[:2]):
            if former is None:
                continue
            if rows >= n:
                assert gram.tobytes() == former.tobytes()
            scale = np.sqrt(np.outer(np.diag(former), np.diag(former)))
            assert np.all(np.abs(gram - former) <= GRAM_RTOL * scale), rows


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(0, 2), n_z=st.integers(0, 2),
       refine=st.sampled_from(("none", "system")))
def test_the_blocked_gram_matches_the_former_gram(small_panel, seed, n_x, n_z, refine):
    # the centered Gram sums blocks shifted by the first block's means and
    # takes s s'/n off once; one block is centered on its own means
    ds, _, _ = small_panel
    rng = np.random.default_rng(seed)
    ds = PanelDataset(
        firm_ids=ds.labels, years=ds.year, y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=ds.s_l, ln_r=ds.ln_r,
        x=rng.standard_normal((ds.n_obs, n_x)), z=rng.standard_normal((ds.n_obs, n_z)),
    )
    check_against_the_former_gram(ds, refine)


@pytest.mark.parametrize("refine", ["none", "system"])
@pytest.mark.parametrize("panel", ["bench", "noiseless"])
def test_the_blocked_gram_matches_the_former_gram_on_the_fixtures(request, panel, refine):
    # the noiseless panel's centered Gram has a null direction: its exact fit
    check_against_the_former_gram(request.getfixturevalue(panel)[0], refine)


@pytest.mark.parametrize("refine", ["none", "system"])
def test_the_gram_takes_memory_for_a_few_blocks_not_the_panel(monkeypatch, refine):
    ds, _ = generate_panel(benchmark_config(n=1000, seed=5), seed=5)
    step1, options = step1_cost_share(ds), EstimateOptions(refine=refine)
    ds.lag_pairs()
    monkeypatch.setattr(translog, "_GRAM_BLOCK_ROWS", 512, raising=False)
    tracemalloc.start()
    try:
        gram, centered, columns = translog._lag_pair_gram(ds, step1, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = gram.nbytes + (0 if centered is None else centered.nbytes)
    block = len(columns) * 512 * 8
    # one block of all 9 000 pairs would take 17.6 blocks of 512
    assert ds.lag_pairs().cur.size == 9000
    assert peak <= 3 * block + outputs, (peak, block, outputs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("refine", ["none", "system"])
def test_a_panel_without_lag_pairs_is_refused_before_its_gram(refine):
    # every firm observed once: the centered Gram once took the mean of no
    # pairs, whose RuntimeWarning came before step two's error
    n = 30
    rng = np.random.default_rng(3)
    ds = PanelDataset(np.arange(n), np.full(n, 2000), *rng.standard_normal((4, n)), np.full(n, 0.5), np.full(n, -0.3))
    with pytest.raises(ValueError, match="not enough lag pairs for the instrument count"):
        estimate(ds, EstimateOptions(refine=refine))
