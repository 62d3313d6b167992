"""Invariances of the estimate: row order, firm labels and a CSV round trip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsys.bootstrap import pack_parameters
from prodsys.panel import PanelDataset, load_csv, write_csv
from prodsys.translog import estimate


def packed(dataset):
    est = estimate(dataset)
    return pack_parameters(est.params, est.laws)


def rebuilt(ds, order, labels):
    """``ds`` with its rows in ``order`` and firm ``f`` relabeled ``labels[f]``."""
    return PanelDataset(
        labels[ds.firm][order], ds.year[order], ds.y[order], ds.k[order], ds.l[order], ds.m[order],
        ds.s_l[order], ds.ln_r[order], x=ds.x[order], z=ds.z[order], x_names=ds.x_names, z_names=ds.z_names,
        ln_price_l=ds.ln_price_l[order], ln_price_m=ds.ln_price_m[order],
    )


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_permutation_leaves_the_estimate_bit_identical(bench, bench_est, seed):
    ds, _, _ = bench
    order = np.random.default_rng(seed).permutation(ds.n_obs)
    assert np.array_equal(packed(rebuilt(ds, order, ds.firm_labels)), pack_parameters(bench_est.params, bench_est.laws))


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_firm_relabeling_leaves_the_estimate_unchanged(bench, bench_est, seed):
    # new labels reorder the firms, so sums run in another order: equal to
    # rounding carried by the optimizers, not bit for bit
    ds, _, _ = bench
    rng = np.random.default_rng(seed)
    labels = np.array([f"firm{v}" for v in rng.choice(10**6, size=ds.n_firms, replace=False)], dtype=object)
    new = packed(rebuilt(ds, np.arange(ds.n_obs), labels))
    old = pack_parameters(bench_est.params, bench_est.laws)
    assert np.max(np.abs(new - old)) < 1e-6


def test_load_write_load_gives_the_same_estimate(bench, tmp_path):
    ds, _, _ = bench
    write_csv(ds, tmp_path / "simulated.csv")
    first, _ = load_csv(tmp_path / "simulated.csv")
    write_csv(first, tmp_path / "rewritten.csv")
    second, _ = load_csv(tmp_path / "rewritten.csv")
    assert (tmp_path / "simulated.csv").read_text() == (tmp_path / "rewritten.csv").read_text()
    assert np.array_equal(packed(first), packed(second))
