"""Container, shares and CSV round-trip behavior."""

import csv
import dataclasses
import io
import math
import os
import re
import warnings

import numpy as np
import panel_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsys import bootstrap, panel
from prodsys.panel import (
    REQUIRED_COLUMNS,
    LoadReport,
    PanelDataset,
    _parse_prices,
    build_lag_pairs,
    compute_shares,
    load_csv,
    shares_from_logs,
    write_csv,
    write_prices_csv,
)
from prodsys.simulate import benchmark_config, generate_panel
from prodsys.translog import estimate


#: the value columns of tiny_panel
COLUMNS = dict(
    y=[1.0, 2.0, 3.0, 4.0, 5.0],
    k=[0.1, 0.2, 0.3, 0.4, 0.5],
    l=[0.5, 0.6, 0.7, 0.8, 0.9],
    m=[1.1, 1.2, 1.3, 1.4, 1.5],
    s_l=[0.3, 0.4, 0.5, 0.6, 0.7],
    ln_r=[-0.1, -0.2, -0.3, -0.4, -0.5],
)


def tiny_panel(**kw):
    base = dict(firm_ids=["b", "a", "a", "b", "a"], years=[2001, 2002, 2001, 2002, 2004], **COLUMNS)
    base.update(kw)
    return PanelDataset(**base)


# -- shares -------------------------------------------------------------------


def test_compute_shares_exact_values():
    s_l, ln_r = compute_shares(30.0, 70.0, 100.0)
    assert s_l == 0.3
    assert ln_r == 0.0


def test_compute_shares_rejects_nonpositive_levels():
    with pytest.raises(ValueError):
        compute_shares(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        compute_shares(1.0, 1.0, -2.0)


def test_shares_from_logs_matches_level_computation():
    wl, wm, rev = 12.5, 30.0, 55.0
    s_direct, r_direct = compute_shares(wl, wm, rev)
    s_log, r_log = shares_from_logs(np.log(rev), np.log(wl), np.log(wm))
    assert abs(s_log - s_direct) < 1e-14
    assert abs(r_log - r_direct) < 1e-14


def test_shares_from_logs_applies_price_ratios():
    # price ratios shift the cost logs, not the quantity logs
    s1, r1 = shares_from_logs(1.0, 0.2, 0.8, ln_price_l=0.1, ln_price_m=-0.3)
    s2, r2 = shares_from_logs(1.0, 0.2 + 0.1, 0.8 - 0.3)
    assert abs(s1 - s2) < 1e-15
    assert abs(r1 - r2) < 1e-15


# -- container ----------------------------------------------------------------


def test_dataset_sorts_by_firm_then_year():
    ds = tiny_panel()
    assert list(ds.labels) == ["a", "a", "a", "b", "b"]
    assert list(ds.year) == [2001, 2002, 2004, 2001, 2002]
    # y followed its rows through the sort
    assert list(ds.y) == [3.0, 2.0, 5.0, 1.0, 4.0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 1.0, "1", "1.0", True, np.int64(1), "a", 2]), st.integers(2000, 2003)),
                min_size=1, max_size=24))
def test_firm_codes_are_those_of_the_id_strings(keys):
    # ids are coded by their str(): 1 and 1.0 (or True) compare equal but are
    # different firms, and so are grouped runs of them
    keys = list({(str(f), yr): (f, yr) for f, yr in keys}.values())
    n = len(keys)
    ds = PanelDataset(
        firm_ids=[f for f, _ in keys], years=[yr for _, yr in keys],
        y=np.zeros(n), k=np.zeros(n), l=np.zeros(n), m=np.zeros(n), s_l=np.full(n, 0.5), ln_r=np.zeros(n),
    )
    labels, codes = np.unique(np.array([str(f) for f, _ in keys]), return_inverse=True)
    assert list(ds.firm_labels) == list(labels)
    assert sorted(zip(ds.firm.tolist(), ds.year.tolist())) == list(zip(ds.firm.tolist(), ds.year.tolist()))
    assert sorted(zip(ds.firm.tolist(), ds.year.tolist())) == sorted(zip(codes.tolist(), (yr for _, yr in keys)))
    assert list(ds.labels) == [ds.firm_labels[c] for c in ds.firm]


def test_dataset_rejects_duplicate_keys():
    with pytest.raises(ValueError, match="duplicate"):
        tiny_panel(years=[2001, 2002, 2002, 2002, 2004], firm_ids=["a", "a", "a", "b", "a"])


def test_dataset_rejects_nonfinite_and_bad_shares():
    with pytest.raises(ValueError, match="non-finite"):
        tiny_panel(y=[1.0, np.nan, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="shares"):
        tiny_panel(s_l=[0.3, 1.0, 0.5, 0.6, 0.7])


def test_lag_pairs_skip_gap_years():
    ds = tiny_panel()
    pairs = ds.lag_pairs()
    # firm a has years 2001, 2002, 2004: one pair; firm b 2001, 2002: one pair
    assert len(pairs) == 2
    assert list(ds.year[pairs.cur]) == [2002, 2002]
    assert list(ds.year[pairs.prev]) == [2001, 2001]
    assert list(ds.labels[pairs.cur]) == ["a", "b"]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(2000, 2008)),
        min_size=1,
        max_size=30,
        unique=True,
    )
)
def test_lag_pairs_are_exactly_consecutive_firm_years(keys):
    n = len(keys)
    ds = PanelDataset(
        firm_ids=[f"f{f}" for f, _ in keys],
        years=[yr for _, yr in keys],
        y=np.zeros(n), k=np.zeros(n), l=np.zeros(n), m=np.zeros(n),
        s_l=np.full(n, 0.5), ln_r=np.zeros(n),
    )
    pairs = build_lag_pairs(ds)
    for c, p in zip(pairs.cur, pairs.prev):
        assert ds.firm[c] == ds.firm[p]
        assert ds.year[c] == ds.year[p] + 1
    # count matches a direct enumeration over the key set
    key_set = {(str(f"f{f}"), yr) for f, yr in keys}
    expected = sum(1 for f, yr in key_set if (f, yr - 1) in key_set)
    assert len(pairs) == expected


def test_controls_carry_names_and_shapes():
    ds = tiny_panel(x=np.arange(5.0), x_names=["age"], z=np.arange(10.0).reshape(5, 2))
    assert ds.x.shape == (5, 1)
    assert ds.x_names == ("age",)
    assert ds.z_names == ("z0", "z1")
    with pytest.raises(ValueError):
        tiny_panel(x=np.arange(5.0), x_names=["a", "b"])


@pytest.mark.parametrize(
    "years, bad",
    [
        ([2001.7, 2002.2, 2001, 2002], "2001.7"),  # read as 2001 and 2002, two lag pairs
        ([2001, 2001.9, 2001, 2002], "2001.9"),  # read as a duplicate key (a, 2001)
        ([True, False, 1, 2], "True"),  # read as the years 1 and 0
        (np.array([2001.0, np.nan, 2001.0, 2002.0]), "nan"),
        (np.array([2001.0, np.inf, 2001.0, 2002.0]), "inf"),
        (np.array([2001.0, 1e19, 2001.0, 2002.0]), "1e+19"),
        (np.array([True, False, True, False]), "True"),
    ],
)
def test_dataset_refuses_years_that_are_not_whole_numbers(years, bad):
    # load_csv drops such rows as bad_year; the constructor refuses them and names the first
    with pytest.raises(ValueError, match=re.escape(f"whole numbers that fit in 64 bits, got {bad}") + "$"):
        tiny_panel(firm_ids=["a", "a", "b", "b"], years=years, **{c: COLUMNS[c][:4] for c in COLUMNS})


def test_dataset_reads_whole_float_years_as_integers():
    ds = tiny_panel(firm_ids=["a", "a", "b", "b"], years=[2001.0, np.float64(2002.0), 2001, 2002],
                    **{c: COLUMNS[c][:4] for c in COLUMNS})
    assert ds.year.dtype == np.array([2001]).dtype
    assert ds.year.tolist() == [2001, 2002, 2001, 2002]
    assert len(ds.lag_pairs()) == 2


# -- the constructor against the reference copy in panel_reference.py ---------------

#: the reference constructor's attributes, each compared with np.array_equal and its dtype
ARRAYS = ("labels", "firm", "firm_labels", "year", "y", "k", "l", "m", "s_l", "ln_r", "x", "z", "ln_price_l", "ln_price_m")


def assert_same_panel(got: PanelDataset, want: PanelDataset):
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert (got.x_names, got.z_names) == (want.x_names, want.z_names)
    assert (got.levels is None) == (want.levels is None)
    for key in want.levels or {}:
        a, b = got.levels[key], want.levels[key]
        assert a.dtype == b.dtype and np.array_equal(a, b), key
    for a, b in zip(dataclasses.astuple(got.lag_pairs()), dataclasses.astuple(want.lag_pairs())):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# ints, 1 against 1.0 (and True, "1"), and strings with commas or spaces
PANEL_IDS = st.one_of(st.integers(-3, 12), st.sampled_from([1, 1.0, True, "1", " 1", "a,b", "a b", "b"]))


@st.composite
def panel_columns(draw):
    """Constructor arguments for a panel with gap years and controls, rows shuffled or in order."""
    ids = list({str(f): f for f in draw(st.lists(PANEL_IDS, min_size=1, max_size=6))}.values())
    keys = [(f, yr) for f in ids for yr in sorted(draw(st.sets(st.integers(1998, 2006), min_size=1, max_size=5)))]
    keys = sorted(keys, key=lambda key: (str(key[0]), key[1])) if draw(st.booleans()) else draw(st.permutations(keys))
    n = len(keys)
    value = st.floats(-5.0, 5.0)

    def column(*shape):
        return np.array(draw(st.lists(value, min_size=n * math.prod(shape), max_size=n * math.prod(shape)))).reshape(n, *shape)

    kx, kz = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    years = [yr for _, yr in keys]
    args = dict(
        firm_ids=[f for f, _ in keys],
        years=draw(st.sampled_from([years, np.array(years), np.array(years, dtype=float)])),
        y=column(), k=column(), l=column(), m=column(),
        s_l=np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n))),
        ln_r=column(),
        x=column(kx) if kx else draw(st.sampled_from([None, column()])),
        z=column(kz) if kz else None,
        ln_price_l=draw(st.one_of(value, st.just(column()))),
        ln_price_m=column(),
    )
    if draw(st.booleans()):
        args["levels"] = {"firm_id": np.asarray(args["firm_ids"], dtype=object), "year": np.array(years), "output": column()}
    return args


@settings(max_examples=300, deadline=None)
@given(panel_columns())
def test_constructor_builds_the_reference_panel(args):
    got, want = PanelDataset(**args), panel_reference.ReferencePanelDataset(**args)
    assert_same_panel(got, want)
    # in order or not, the panel holds its own columns
    for name in ("y", "k", "l", "m", "s_l", "ln_r", "ln_price_m"):
        assert not np.shares_memory(getattr(got, name), args[name]), name


def index_of(ds: PanelDataset) -> tuple:
    return ds.labels, ds.firm, ds.firm_labels, ds.year


def test_generate_panel_builds_the_constructors_panel():
    ds, truth = generate_panel(benchmark_config(n=12, t_periods=4, seed=5), seed=5)
    columns = dict(y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=ds.s_l, ln_r=ds.ln_r,
                   ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m)
    assert_same_panel(ds, PanelDataset(ds.labels, ds.year, **columns))
    assert_same_panel(ds, panel_reference.ReferencePanelDataset(ds.labels, ds.year, **columns))
    assert ds.labels[0] == "f00" and ds.n_firms == 12
    # the truth keeps its own inputs
    for name in ("k", "l", "m"):
        assert not np.shares_memory(getattr(ds, name), getattr(truth, name)), name


def test_private_constructor_refuses_unsorted_rows_and_duplicate_keys():
    ds = tiny_panel()
    columns = {c: getattr(ds, c) for c in COLUMNS}
    assert_same_panel(PanelDataset._from_index(*index_of(ds), **columns), ds)
    swap = np.array([1, 0, 2, 3, 4])
    labels, firm, firm_labels, year = index_of(ds)
    with pytest.raises(ValueError, match="not in \\(firm, year\\) order"):
        PanelDataset._from_index(labels[swap], firm[swap], firm_labels, year[swap], **columns)
    with pytest.raises(ValueError, match="not in \\(firm, year\\) order"):  # a firm's rows split in two
        PanelDataset._from_index(labels[[0, 1, 3, 2, 4]], firm[[0, 1, 3, 2, 4]], firm_labels, year[[0, 1, 3, 2, 4]],
                                 **columns)
    with pytest.raises(ValueError, match="duplicate \\(firm, year\\) key: \\(a, 2002\\)"):
        PanelDataset._from_index(labels, firm, firm_labels, np.array([2001, 2002, 2002, 2001, 2002]), **columns)
    with pytest.raises(ValueError, match="equal length"):
        PanelDataset._from_index(labels, firm, firm_labels, year[:4], **columns)


# -- CSV I/O ------------------------------------------------------------------


def write_rows(path, rows, header="firm_id,year,output,capital,labor_cost,material_cost,revenue"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_load_csv_basic_and_drop_accounting(tmp_path):
    path = tmp_path / "p.csv"
    write_rows(path, [
        ("a", 2001, 10.0, 5.0, 3.0, 7.0, 20.0),
        ("a", 2002, 11.0, 5.5, 3.1, 7.2, 21.0),
        ("b", 2001, -1.0, 5.0, 3.0, 7.0, 20.0),   # nonpositive output
        ("b", 2002, 9.0, 5.0, 0.0, 7.0, 20.0),    # nonpositive labor cost
    ])
    ds, report = load_csv(path)
    assert report.rows_read == 4
    assert report.rows_kept == 2
    assert report.rows_dropped == 2
    assert report.dropped == {"nonpositive_output": 1, "nonpositive_labor_cost": 1}
    assert ds.n_obs == 2
    assert np.allclose(ds.y, np.log([10.0, 11.0]))
    s_exp, r_exp = compute_shares(3.0, 7.0, 20.0)
    assert abs(ds.s_l[0] - s_exp) < 1e-15
    assert abs(ds.ln_r[0] - r_exp) < 1e-15


def test_load_csv_drops_a_year_too_large_for_an_integer_column(tmp_path):
    path = tmp_path / "p.csv"
    write_rows(path, [
        ("a", 2001, 10.0, 5.0, 3.0, 7.0, 20.0),
        ("a", 10**30, 11.0, 5.5, 3.1, 7.2, 21.0),
        ("b", 10**30, -1.0, 5.0, 3.0, 7.0, 20.0),
    ])
    ds, report = load_csv(path)
    assert report.dropped == {"bad_year": 2}
    assert list(ds.year) == [2001]


def test_load_csv_missing_column_raises(tmp_path):
    path = tmp_path / "p.csv"
    write_rows(path, [("a", 2001, 1, 1, 1, 1, 1)], header="firm_id,year,output")
    with pytest.raises(ValueError, match="column"):
        load_csv(path)


def test_load_csv_duplicate_key_raises(tmp_path):
    path = tmp_path / "p.csv"
    write_rows(path, [
        ("a", 2001, 10.0, 5.0, 3.0, 7.0, 20.0),
        ("a", 2001, 11.0, 5.5, 3.1, 7.2, 21.0),
    ])
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(path)


def test_write_then_load_round_trips_bytes(tmp_path, small_panel):
    ds, _, _ = small_panel
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ds, p1)
    loaded, report = load_csv(p1)
    assert report.rows_dropped == 0
    write_csv(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_years_a_double_cannot_hold_round_trip(tmp_path):
    # through %.17g both years wrote as 1.152921504606847e+18, and load_csv dropped both rows
    years = [2**60 + 1, 2**60 + 2]
    prices = np.array([0.1, 0.2])
    ds = tiny_panel(firm_ids=["a", "a"], years=years, ln_price_l=prices, ln_price_m=-prices,
                    **{name: values[:2] for name, values in COLUMNS.items()})
    write_csv(ds, tmp_path / "panel.csv")
    write_prices_csv(ds, tmp_path / "prices.csv")
    loaded, report = load_csv(tmp_path / "panel.csv", prices=tmp_path / "prices.csv")
    assert report.rows_kept == 2
    assert loaded.year.tolist() == years
    assert np.allclose(loaded.ln_price_l, prices, atol=1e-12)
    assert np.allclose(loaded.ln_price_m, -prices, atol=1e-12)


def test_write_then_load_keeps_level_contract(tmp_path, small_panel):
    # l and m are logs of the expenditure columns; the price table rides
    # along separately rather than being divided out
    ds, _, _ = small_panel
    panel_path = tmp_path / "p.csv"
    price_path = tmp_path / "prices.csv"
    write_csv(ds, panel_path)
    write_prices_csv(ds, price_path)
    loaded, _ = load_csv(panel_path, prices=price_path)
    for name in ("y", "k", "s_l", "ln_r"):
        assert np.allclose(getattr(loaded, name), getattr(ds, name), atol=1e-12)
    assert np.allclose(loaded.l, ds.l + ds.ln_price_l, atol=1e-12)
    assert np.allclose(loaded.m, ds.m + ds.ln_price_m, atol=1e-12)
    assert np.allclose(loaded.ln_price_l, ds.ln_price_l, atol=1e-12)
    assert np.allclose(loaded.ln_price_m, ds.ln_price_m, atol=1e-12)


def test_price_table_load_and_write(tmp_path, small_panel):
    ds, _, _ = small_panel
    panel_path = tmp_path / "p.csv"
    price_path = tmp_path / "prices.csv"
    write_csv(ds, panel_path)
    years = np.unique(ds.year)
    table = {int(yr): (1.0 + 0.01 * i, 2.0 - 0.05 * i) for i, yr in enumerate(years)}
    with open(price_path, "w") as fh:
        fh.write("year,ratio_l,ratio_m\n")
        for yr, (rl, rm) in table.items():
            fh.write(f"{yr},{rl},{rm}\n")
    loaded, _ = load_csv(panel_path, prices=price_path)
    for i in range(loaded.n_obs):
        rl, rm = table[int(loaded.year[i])]
        assert abs(loaded.ln_price_l[i] - np.log(rl)) < 1e-12
        assert abs(loaded.ln_price_m[i] - np.log(rm)) < 1e-12
    # the writer reproduces the per-year ratios from the loaded panel
    out_path = tmp_path / "prices_out.csv"
    write_prices_csv(loaded, out_path)
    reloaded, _ = load_csv(panel_path, prices=out_path)
    assert np.allclose(reloaded.ln_price_l, loaded.ln_price_l, atol=1e-12)
    assert np.allclose(reloaded.ln_price_m, loaded.ln_price_m, atol=1e-12)


@pytest.mark.parametrize("name", ["ln_price_l", "ln_price_m"])
def test_write_prices_csv_refuses_prices_that_vary_within_a_year(tmp_path, name):
    # the table holds one ratio per year, so a second price in 2002 would be lost
    prices = {"ln_price_l": 0.0, "ln_price_m": 0.0, name: np.array([0.1, 0.1, 0.2, 0.3, 0.3])}
    dataset = tiny_panel(firm_ids=["a", "b", "a", "b", "a"], years=[2001, 2001, 2002, 2002, 2004], **prices)
    path = tmp_path / "prices.csv"
    with pytest.raises(ValueError, match=f"{name} varies within year 2002"):
        write_prices_csv(dataset, path)
    assert not path.exists()


def test_load_csv_reads_control_columns(tmp_path):
    path = tmp_path / "p.csv"
    write_rows(path, [
        ("a", 2001, 10.0, 5.0, 3.0, 7.0, 20.0, 0.5, -1.0),
        ("a", 2002, 11.0, 5.5, 3.1, 7.2, 21.0, 0.6, -1.1),
    ], header="firm_id,year,output,capital,labor_cost,material_cost,revenue,rd,exported")
    ds, _ = load_csv(path, x_columns=("rd",), z_columns=("exported",))
    assert ds.x_names == ("rd",)
    assert ds.z_names == ("exported",)
    assert np.allclose(ds.x[:, 0], [0.5, 0.6])
    assert np.allclose(ds.z[:, 0], [-1.0, -1.1])


# -- the column-wise reader against a row-at-a-time reference -------------------


def _rowwise_load_csv(path, *, x_columns=(), z_columns=(), prices=None):
    """Reference reader: one ``csv.DictReader`` record at a time, every check per row."""
    report = LoadReport()

    def drop(reason):
        report.dropped[reason] = report.dropped.get(reason, 0) + 1

    price_table = _parse_prices(prices)
    controls = list(x_columns) + [c for c in z_columns if c not in x_columns]

    records: list[dict] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in fields]
        if missing:
            raise ValueError(f"missing required columns: {', '.join(missing)}")
        missing = [c for c in controls if c not in fields]
        if missing:
            raise ValueError(f"missing control columns: {', '.join(missing)}")
        for rec in reader:
            report.rows_read += 1
            try:
                year = int(rec["year"])
            except (TypeError, ValueError):
                drop("bad_year")
                continue
            vals = {}
            ok = True
            for colname in ("output", "capital", "labor_cost", "material_cost", "revenue"):
                raw = rec.get(colname, "")
                try:
                    v = float(raw)
                except (TypeError, ValueError):
                    drop(f"missing_{colname}")
                    ok = False
                    break
                if not math.isfinite(v) or v <= 0.0:
                    drop(f"nonpositive_{colname}")
                    ok = False
                    break
                vals[colname] = v
            if not ok:
                continue
            ctrl = {}
            for colname in controls:
                try:
                    ctrl[colname] = float(rec[colname])
                except (TypeError, ValueError):
                    drop(f"missing_{colname}")
                    ok = False
                    break
            if not ok or not all(math.isfinite(v) for v in ctrl.values()):
                if ok:
                    drop("nonfinite_control")
                continue
            records.append({"firm_id": rec["firm_id"], "year": year, **vals, **ctrl})

    if not records:
        raise ValueError(f"no usable rows in {path}")
    report.rows_kept = len(records)

    def pull(name, typ=float):
        return np.asarray([r[name] for r in records], dtype=typ)

    out = pull("output")
    cap = pull("capital")
    wl = pull("labor_cost")
    wm = pull("material_cost")
    rev = pull("revenue")
    years = pull("year", int)
    s_l, ln_r = compute_shares(wl, wm, rev)
    ratio_l = np.asarray([price_table.get(int(t), (1.0, 1.0))[0] for t in years])
    ratio_m = np.asarray([price_table.get(int(t), (1.0, 1.0))[1] for t in years])
    if np.any(ratio_l <= 0) or np.any(ratio_m <= 0):
        raise ValueError("price ratios must be strictly positive")

    levels = {c: pull(c, object) for c in REQUIRED_COLUMNS + tuple(controls) if c != "firm_id"}
    levels["firm_id"] = np.asarray([r["firm_id"] for r in records], dtype=object)

    dataset = PanelDataset(
        firm_ids=[r["firm_id"] for r in records],
        years=years,
        y=np.log(out),
        k=np.log(cap),
        l=np.log(wl),
        m=np.log(wm),
        s_l=s_l,
        ln_r=ln_r,
        x=np.column_stack([pull(c) for c in x_columns]) if x_columns else None,
        z=np.column_stack([pull(c) for c in z_columns]) if z_columns else None,
        x_names=tuple(x_columns),
        z_names=tuple(z_columns),
        ln_price_l=np.log(ratio_l),
        ln_price_m=np.log(ratio_m),
        levels=levels,
    )
    if report.rows_dropped:
        report.messages.append(
            f"dropped {report.rows_dropped} of {report.rows_read} rows: "
            + ", ".join(f"{k}={v}" for k, v in sorted(report.dropped.items()))
        )
    return dataset, report


FUZZ_HEADER = ("firm_id", "year", "output", "capital", "labor_cost", "material_cost", "revenue", "xc", "zc")
# numpy's C parser refuses 1_000, 2_001 and non-ASCII digits (\u0663 is an Arabic-Indic 3), which
# float() and int() accept: a file with one goes to the fallback; '"1.5"' is written with its quotes escaped
BAD_LEVELS = (
    "", "abc", "0", "-0.0", "-2.5", "nan", "inf", "-inf", "1.50", " 3", "1e400",
    "1_000", " 1.5 ", "+inf", "Infinity", "0x1p3", "#", "\u0663", '"1.5"',
)
# no year beyond 64 bits: the reference raises OverflowError on one that it
# keeps, where load_csv drops it as bad_year (tested on its own above)
BAD_YEARS = ("", "y2k", "2001.0", " 2002", "-7", "2_001", "\u0662\u0660\u0660\u0661", "+2001")


@st.composite
def messy_csv(draw):
    """A small panel file with bad cells, ragged rows and blank lines, and the reader's options.

    A clean file has only good cells and whole rows, so numpy's C parser reads it.
    """
    header = list(draw(st.permutations(FUZZ_HEADER)))
    if draw(st.booleans()):
        header.append(draw(st.sampled_from(FUZZ_HEADER[1:])))  # a repeated name: the last column wins
    clean = draw(st.booleans())
    def one_in_five(good, other):
        if clean:
            return good
        return st.tuples(st.integers(0, 4), good, other).map(lambda t: t[2] if t[0] == 0 else t[1])

    level = one_in_five(st.floats(1e-3, 1e3).map(repr), st.sampled_from(BAD_LEVELS))
    control = one_in_five(st.floats(-5.0, 5.0).map(repr), st.sampled_from(BAD_LEVELS))
    rows = []
    for i in range(draw(st.integers(0, 12))):
        cell = {
            "firm_id": draw(st.sampled_from(["a", "b", "c,d", " e", "a\nb", "#x"])),
            "year": draw(one_in_five(st.just(str(2000 + i // 2)), st.sampled_from(("2001", "2003") + BAD_YEARS))),
            "xc": draw(control),
            "zc": draw(control),
        }
        row = [cell[name] if name in cell else draw(level) for name in header]
        shape = "whole" if clean else draw(st.sampled_from(["whole"] * 6 + ["short", "long", "blank"]))
        if shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row = row + ["9"] * draw(st.integers(1, 2))
        elif shape == "blank":
            row = []
        rows.append(row)
    options = {
        "x_columns": draw(st.sampled_from([(), ("xc",)])),
        "z_columns": draw(st.sampled_from([(), ("zc",)])),
    }
    if draw(st.booleans()):
        ratio = st.sampled_from([0.5, 1.0, 2.0, 0.0])
        options["prices"] = {yr: (draw(ratio), draw(ratio)) for yr in (2000, 2001, 2003)}
    return header, rows, options


def _load_or_error(reader, path, options):
    try:
        return reader(path, **options)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(messy_csv())
def test_load_csv_matches_the_rowwise_reader(tmp_path_factory, case):
    header, rows, options = case
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "panel.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    expected = _load_or_error(_rowwise_load_csv, path, options)
    got = _load_or_error(load_csv, path, options)
    if isinstance(expected, str):
        assert got == expected
        return
    (exp_ds, exp_report), (ds, report) = expected, got
    assert vars(report) == vars(exp_report)
    assert list(report.dropped) == list(exp_report.dropped)
    for name, exp_value in vars(exp_ds).items():
        value = getattr(ds, name)
        if isinstance(exp_value, np.ndarray):
            assert value.dtype == exp_value.dtype, name
            assert value.shape == exp_value.shape, name
            assert value.tolist() == exp_value.tolist(), name
            if exp_value.dtype != object:
                assert value.tobytes() == exp_value.tobytes(), name
        elif name not in ("levels", "_lag_pairs"):
            assert value == exp_value, name
    write_csv(exp_ds, work / "expected.csv")
    write_csv(ds, work / "got.csv")
    assert (work / "got.csv").read_bytes() == (work / "expected.csv").read_bytes()


def test_load_then_write_normalizes_cells_once(tmp_path):
    # levels hold parsed values, not the cells' text: the first write
    # normalizes, and from then on the file round-trips byte for byte
    path = tmp_path / "p.csv"
    write_rows(path, [("a", " 2001", "1.50", 5, 3, 7, "2e1"), ("a", 2002, 11, 5.5, 3.1, 7.2, 21)])
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(load_csv(path)[0], first)
    assert first.read_text().splitlines()[1:] == [
        "a,2001,1.5,5,3,7,20",
        "a,2002,11,5.5,3.1000000000000001,7.2000000000000002,21",
    ]
    write_csv(load_csv(first)[0], second)
    assert second.read_bytes() == first.read_bytes()


# -- the writer against the reference copy in panel_reference.py --------------------

# every character csv's QUOTE_MINIMAL quotes, whitespace, a quote it leaves alone, non-ASCII and a comment sign
CSV_TEXT = st.text(alphabet=[",", '"', "\r", "\n", " ", "\t", "'", "a", "é", "#"], max_size=4)


@st.composite
def writable_panel(draw):
    """A PanelDataset with awkward firm ids and control names, and its x/z column names."""
    ids = draw(st.lists(CSV_TEXT, min_size=1, max_size=6, unique=True))
    keys = [(f, yr) for f in ids for yr in sorted(draw(st.sets(st.integers(1998, 2003), min_size=1, max_size=4)))]
    keys = draw(st.permutations(keys))
    n = len(keys)
    value = st.floats(-5.0, 5.0)

    def column():
        return draw(st.lists(value, min_size=n, max_size=n))

    x_names = draw(st.lists(CSV_TEXT, max_size=2, unique=True))
    z_names = draw(st.lists(CSV_TEXT, max_size=2, unique=True))
    dataset = PanelDataset(
        firm_ids=[f for f, _ in keys],
        years=[yr for _, yr in keys],
        y=column(), k=column(), l=column(), m=column(),
        s_l=draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)),
        ln_r=column(),
        x=np.array([column() for _ in x_names]).T if x_names else None,
        z=np.array([column() for _ in z_names]).T if z_names else None,
        x_names=x_names,
        z_names=z_names,
        ln_price_l=draw(value),
        ln_price_m=np.array(column()),
    )
    return dataset, {"x_columns": x_names, "z_columns": z_names}


@settings(max_examples=200, deadline=None)
@given(writable_panel(), st.integers(1, 5))
def test_write_csv_writes_the_reference_bytes(tmp_path_factory, case, chunk_rows):
    # a small chunk puts an id that needs quoting in a later chunk than the first
    dataset, options = case
    work = tmp_path_factory.mktemp("writer")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panel, "CHUNK_ROWS", chunk_rows)
        panel_reference.write_csv(dataset, work / "built-reference.csv")
        write_csv(dataset, work / "built.csv")
        assert (work / "built.csv").read_bytes() == (work / "built-reference.csv").read_bytes()
        loaded, report = load_csv(work / "built-reference.csv", **options)
        assert report.rows_kept == dataset.n_obs
        panel_reference.write_csv(loaded, work / "loaded-reference.csv")
        write_csv(loaded, work / "loaded.csv")
        assert (work / "loaded.csv").read_bytes() == (work / "loaded-reference.csv").read_bytes()
    assert loaded.labels.tolist() == dataset.labels.tolist()


#: float cells the writers must agree on: infinities, NaN, signed zeros and subnormals among them
SPECIAL_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.2250738585072009e-308]
)
INT64 = st.integers(-(2**63), 2**63 - 1)
#: CSV_TEXT and a NUL, which numpy's text dtype drops from the end of a string
TABLE_TEXT = st.text(alphabet=[",", '"', "\r", "\n", " ", "'", "a", "é", "\x00"], max_size=4)


@st.composite
def cli_table(draw):
    """A header and columns of strings, integers, bools and floats, as lists or arrays, and their kinds."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["text", "int", "bool", "float"]), min_size=1, max_size=5))
    cells = {"text": TABLE_TEXT, "int": INT64, "bool": st.booleans(), "float": SPECIAL_FLOATS}
    columns = [draw(st.lists(cells[kind], min_size=n, max_size=n)) for kind in kinds]
    header = draw(st.lists(TABLE_TEXT, min_size=len(kinds), max_size=len(kinds)))
    return header, columns, kinds


@settings(max_examples=300, deadline=None)
@given(cli_table(), st.sampled_from(["lists", "arrays", "objects"]), st.integers(1, 5))
def test_write_table_writes_the_former_cli_bytes(tmp_path_factory, case, form, chunk_rows):
    # the former per-cell writer on the rows, the shared writer on the columns;
    # a column held as objects writes integers and bools through %d and floats through FLOAT_FORMAT
    header, columns, kinds = case
    work = tmp_path_factory.mktemp("table")
    panel_reference.write_table(work / "reference.csv", header, zip(*columns))
    if form != "lists":
        columns = [np.array(col, dtype=object if form == "objects" or kind == "text" else None)
                   for col, kind in zip(columns, kinds)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panel, "CHUNK_ROWS", chunk_rows)
        panel._write_table(work / "table.csv", header, columns, "\n")
    assert (work / "table.csv").read_bytes() == (work / "reference.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(writable_panel(), st.data(), st.integers(1, 5))
def test_write_csv_writes_any_levels_as_the_reference(tmp_path_factory, case, data, chunk_rows):
    # levels are written as they are held, so integer years and special floats go through the shared writer
    dataset, _ = case
    n = dataset.n_obs
    levels = {"firm_id": dataset.labels, "year": np.array(data.draw(st.lists(INT64, min_size=n, max_size=n)))}
    for name in REQUIRED_COLUMNS[2:] + dataset.x_names + dataset.z_names:
        levels[name] = np.array(data.draw(st.lists(SPECIAL_FLOATS, min_size=n, max_size=n)), dtype=float)
    dataset.levels = levels
    work = tmp_path_factory.mktemp("levels")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(panel, "CHUNK_ROWS", chunk_rows)
        panel_reference.write_csv(dataset, work / "reference.csv")
        write_csv(dataset, work / "panel.csv")
    assert (work / "panel.csv").read_bytes() == (work / "reference.csv").read_bytes()


# -- which parser reads a file ----------------------------------------------------


@pytest.fixture()
def chunked_calls(monkeypatch):
    """Every call of load_csv's fallback reader, recorded."""
    calls = []
    fallback = panel._parse_chunked

    def spy(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(panel, "_parse_chunked", spy)
    return calls


@pytest.fixture()
def cli_file(tmp_path):
    """A small copy of the estimate_cli benchmark's input file."""
    dataset, _ = generate_panel(benchmark_config(n=40, seed=101), seed=101)
    path = tmp_path / "panel.csv"
    write_csv(dataset, path)
    return path


def test_the_benchmark_file_never_reaches_the_fallback(cli_file, chunked_calls):
    _, report = load_csv(cli_file)
    assert chunked_calls == []
    assert report.rows_read == report.rows_kept == 400


def test_an_empty_cell_sends_the_file_to_the_fallback(cli_file, chunked_calls):
    with open(cli_file, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[7][REQUIRED_COLUMNS.index("output")] = ""
    with open(cli_file, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _, report = load_csv(cli_file)
    assert len(chunked_calls) == 1
    assert report.dropped == {"missing_output": 1}


def test_a_parse_that_only_warns_is_refused(tmp_path, monkeypatch, chunked_calls):
    # numpy 1.23-1.26 read a 2002.0 year as 2002 with only a DeprecationWarning; int() refuses it
    path = tmp_path / "p.csv"
    write_rows(path, [("a", 2001, 10.0, 5.0, 3.0, 7.0, 20.0), ("a", "2002.0", 11.0, 5.5, 3.1, 7.2, 21.0)])
    loadtxt = np.loadtxt

    def numpy_1_24(fh, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt(io.StringIO(fh.read().replace("2002.0", "2002")), *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", numpy_1_24)
    ds, report = load_csv(path)
    assert len(chunked_calls) == 1
    assert report.dropped == {"bad_year": 1}
    assert ds.year.tolist() == [2001]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe by /dev/fd")
def test_a_pipe_goes_straight_to_the_fallback(chunked_calls):
    # a pipe cannot be read twice, so the C parser may not take a file it could refuse
    read_end, write_end = os.pipe()
    os.write(write_end, (HEADER + "\na,2001,,5,3,7,20\na,2002,11,5,3,7,20\n").encode())
    os.close(write_end)
    try:
        _, report = load_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert len(chunked_calls) == 1
    assert report.dropped == {"missing_output": 1}


def _long_cell_rows(blank_output: bool):
    """Two rows, the second with a firm id longer than the csv module's field limit."""
    return [("a", 2001, "" if blank_output else 10.0, 5.0, 3.0, 7.0, 20.0), ("b" * 200_000, 2001, 11.0, 5.5, 3.1, 7.2, 21.0)]


def test_a_cell_the_fallback_cannot_hold_names_its_line(tmp_path):
    path = tmp_path / "p.csv"
    write_rows(path, _long_cell_rows(blank_output=False))
    _, report = load_csv(path)  # the C parser has no field limit
    assert report.rows_kept == 2
    write_rows(path, _long_cell_rows(blank_output=True))
    with pytest.raises(ValueError, match="^line 3: field larger than field limit"):
        load_csv(path)


def test_a_price_cell_the_csv_module_cannot_hold_names_its_line(tmp_path):
    path = tmp_path / "p.csv"
    write_rows(path, [("a", 2001, 10.0, 5.0, 3.0, 7.0, 20.0)])
    prices = tmp_path / "prices.csv"
    prices.write_text("year,value\n2001,1.5\n2002," + "9" * 200_000 + "\n")
    with pytest.raises(ValueError, match="prices.csv, line 3: field larger than field limit"):
        load_csv(path, prices=prices)


def _load_as_bytes(path, options):
    """load_csv's report, and every array of its dataset and levels by dtype, shape and content."""
    ds, report = load_csv(path, **options)
    arrays = {name: v for name, v in vars(ds).items() if isinstance(v, np.ndarray)}
    arrays.update((f"levels.{name}", v) for name, v in ds.levels.items())
    content = {name: (a.dtype.str, a.shape, a.tolist() if a.dtype == object else a.tobytes()) for name, a in arrays.items()}
    return vars(report), content


HEADER = ",".join(REQUIRED_COLUMNS)
ACCEPTED = {
    "quoted-cells": (HEADER + '\r\n"a","2001","10.5",5,3,7,"20"\r\n"c,d",2002,11,5,3,7,20\r\n', {}),
    "cr-line-ends": (HEADER + "\ra,2001,10,5,3,7,20\ra,2002,11,5,3,7,20\r", {}),
    "lf-blank-lines": (HEADER + "\n\na,2001,10,5,3,7,20\n\n\na,2002,11,5,3,7,20", {}),
    "padded-cells": (HEADER + "\r\n a , 2001 , 10.5 ,\t5,3 ,+7,2e1\r\n", {}),
    "odd-ids": (HEADER + '\r\n"a""b",2001,1,1,1,1,1\r\n#x,2001,1,1,1,1,1\r\n"a\nb",2001,1,1,1,1,1\r\n"",2001,1,1,1,1,1\r\n', {}),
    "odd-years": (HEADER + "\r\na,+2001,1,1,1,1,1\r\na,0002002,1,1,1,1,1\r\nb,-0,1,1,1,1,1\r\n", {}),
    "long-rows-unused-and-repeated-columns": (
        "firm_id,note,year,output,capital,labor_cost,material_cost,revenue,year\r\n"
        "a,x,1999,10,5,3,7,20,2001\r\na,,1999,11,5,3,7,20,2002,9,9\r\n", {}),
    "drops-on-parsed-values": (
        HEADER + "\r\na,2001,10,5,3,7,20\r\na,2002,-1,5,3,7,20\r\na,2003,10,0,3,7,20\r\n"
        "a,2004,10,5,nan,7,20\r\na,2005,10,5,3,inf,20\r\na,2006,10,5,3,7,1e400\r\na,2007,-0.0,5,3,7,20\r\n", {}),
    "controls-and-prices": (
        HEADER + ",rd,exp\r\na,2001,10,5,3,7,20,0.5,-1\r\na,2002,11,5,3,7,20,nan,1\r\nb,2001,12,5,3,7,20,-2,-inf\r\n"
        "b,2002,13,5,3,7,20,1e-3,2\r\n",
        {"x_columns": ("rd",), "z_columns": ("exp", "rd"), "prices": {2001: (0.5, 2.0)}}),
}


@pytest.mark.parametrize(("text", "options"), ACCEPTED.values(), ids=ACCEPTED)
def test_both_parsers_read_an_accepted_file_alike(tmp_path, monkeypatch, chunked_calls, text, options):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    fast = _load_as_bytes(path, options)
    assert chunked_calls == []

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert _load_as_bytes(path, options) == fast
    assert len(chunked_calls) == 1


# -- the index a load builds ---------------------------------------------------


def constructor_panel(header, rows, prices):
    """The public constructor's panel on a file's rows with a positive output, read cell by cell."""
    at = {name: i for i, name in enumerate(header)}
    rows = [row for row in rows if float(row[at["output"]]) > 0.0]
    ids = np.array([row[at["firm_id"]] for row in rows], dtype=object)
    years = np.array([int(row[at["year"]]) for row in rows])
    levels = {name: np.array([float(row[at[name]]) for row in rows]) for name in header[2:]}
    ratios = np.array([prices.get(int(yr), (1.0, 1.0)) for yr in years])
    return PanelDataset(
        ids, years, *(np.log(levels[name]) for name in ("output", "capital", "labor_cost", "material_cost")),
        *compute_shares(levels["labor_cost"], levels["material_cost"], levels["revenue"]),
        x=levels["rd"], x_names=["rd"], ln_price_l=np.log(ratios[:, 0]), ln_price_m=np.log(ratios[:, 1]),
        levels={"firm_id": ids, "year": years, **levels},
    )


@pytest.mark.parametrize("prices", [{}, {1: (0.5, 2.0), 4: (1.5, 0.25)}], ids=["no-prices", "prices"])
def test_a_file_and_its_reversed_twin_load_to_the_constructors_panel(cli_file, tmp_path, monkeypatch, prices):
    with open(cli_file, newline="") as fh:
        header, *rows = csv.reader(fh)
    rng = np.random.default_rng(7)
    header.append("rd")
    for row in rows:
        row.append(repr(float(rng.normal())))
    rows[5][header.index("output")] = "-1"  # a dropped row, so the kept rows are a subset to reorder
    want = constructor_panel(header, rows, prices)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys[0])) or lexsort(keys))
    for name, body in (("ordered", rows), ("reversed", rows[::-1])):
        path = tmp_path / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *body])
        ds, report = load_csv(path, x_columns=["rd"], prices=prices)
        assert report.dropped == {"nonpositive_output": 1}
        assert_same_panel(ds, want)
    assert sorts == [want.n_obs]  # only the reversed file is sorted


def test_a_loaded_panel_holds_its_own_arrays(cli_file):
    ds, _ = load_csv(cli_file)
    assert not np.shares_memory(ds.year, ds.levels["year"])
    assert not np.shares_memory(ds.labels, ds.levels["firm_id"])
    for a in [v for v in vars(ds).values() if isinstance(v, np.ndarray)] + list(ds.levels.values()):
        while isinstance(a, np.ndarray):  # not a view of the parser's table of records
            assert a.dtype.names is None
            a = a.base


def test_a_short_row_with_no_id_reads_None_in_both_parsers(tmp_path, chunked_calls):
    # a short row sends its file to the fallback; the C parser reads the id written out
    header = "year,output,capital,labor_cost,material_cost,revenue,firm_id\n"
    short, spelled = tmp_path / "short.csv", tmp_path / "spelled.csv"
    short.write_text(header + "2001,10,5,3,7,20,a\n2002,11,5,3,7,20\n")
    spelled.write_text(header + "2001,10,5,3,7,20,a\n2002,11,5,3,7,20,None\n")
    got = _load_as_bytes(short, {})
    assert len(chunked_calls) == 1
    assert _load_as_bytes(spelled, {}) == got
    assert len(chunked_calls) == 1
    assert got[1]["labels"][2] == got[1]["levels.firm_id"][2] == ["None", "a"]


@pytest.fixture(scope="module")
def controlled(bench):
    """The bench panel with a control in each law, and its point estimate."""
    ds, _, _ = bench
    rng = np.random.default_rng(3)
    ds = PanelDataset(ds.labels, ds.year, ds.y, ds.k, ds.l, ds.m, ds.s_l, ds.ln_r,
                      x=rng.normal(size=ds.n_obs), z=rng.normal(size=ds.n_obs), x_names=["age"], z_names=["rd"],
                      ln_price_l=ds.ln_price_l, ln_price_m=rng.normal(0.0, 0.1, ds.n_obs))
    return ds, estimate(ds)


def test_bootstrap_replicate_builds_the_constructors_panel(controlled, monkeypatch):
    ds, est = controlled
    seen = []
    real = bootstrap.step1_cost_share
    monkeypatch.setattr(bootstrap, "step1_cost_share", lambda d: seen.append(d) or real(d))
    bootstrap.bootstrap_replicate(ds, est, bootstrap.compute_residuals(ds, est), bootstrap.mammen_weights(ds.n_firms, 4))
    (ds_b,) = seen
    want = PanelDataset(
        ds.labels, ds.year, ds_b.y, ds.k, ds.l, ds_b.m, ds.s_l, ds_b.ln_r, x=ds.x, z=ds.z,
        x_names=ds.x_names, z_names=ds.z_names, ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m,
    )
    assert_same_panel(ds_b, want)
    assert not np.array_equal(ds_b.y, ds.y) and not np.array_equal(ds_b.m, ds.m)
    # what the replicate shares with the observed panel it cannot write to
    for name in ("labels", "year", "k", "x", "ln_price_m"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds_b, name)[0] = getattr(ds, name)[0]
    for name in ("cur", "prev"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds_b.lag_pairs(), name)[0] = 0
