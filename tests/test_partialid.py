"""Moment-inequality bounds: IPW statistic, propensity fit, grid sweep."""

import dataclasses

import numpy as np
import partialid_reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodsys.panel import PanelDataset
from prodsys.partialid import (
    GRID_AXES,
    GRID_EDGE_WARNING,
    MomentInequalityConfig,
    cutoff_values,
    default_grid,
    estimate_propensity,
    identified_set,
    moment_statistic,
)
from prodsys.simulate import benchmark_config, generate_panel
from prodsys.translog import TranslogParams, estimate


def six_row_panel(y_shift=0.0):
    """Two firms, three years, four lag pairs with hand-picked numbers."""
    firm = np.array([0, 0, 0, 1, 1, 1])
    year = np.array([0, 1, 2, 0, 1, 2])
    y = np.array([0.0, 0.5, 1.2, 0.0, -0.3, 0.8]) + y_shift
    k = np.array([0.0, 0.1, 0.2, 0.0, 0.3, 0.4])
    m = np.array([0.0, 1.0, 3.0, 0.0, 2.0, 4.0])
    l = np.zeros(6)
    s_l = np.full(6, 0.5)
    ln_r = np.full(6, -0.3)
    return PanelDataset(firm, year, y, k, l, m, s_l, ln_r)


def test_statistic_matches_longhand():
    ds = six_row_panel()
    beta = (0.2, -0.01, 0.25, 0.5, -0.05)
    cutoff = 2.5
    scores = np.array([0.2, 0.4, 0.6, 0.8])

    # loadings of ybar on (1, k, k^2/2, m, s_l^2), written out
    bk, bkk, bl, bm, b0 = beta
    delta = bl + bm
    load = [bl * bl / (2 * b0), bk, bkk, delta, -delta * delta / (2 * b0)]
    total = 0.0
    pairs = ds.lag_pairs()
    for i, row in enumerate(pairs.cur):
        ybar = (load[0] + load[1] * ds.k[row] + load[2] * ds.k[row] ** 2 / 2
                + load[3] * ds.m[row] + load[4] * ds.s_l[row] ** 2)
        if ds.m[row] > cutoff:
            w = 1.0 / scores[i]
        else:
            w = -1.0 / (1.0 - scores[i])
        total += (ds.y[row] - ybar) * w
    expected = total / len(pairs)

    got = moment_statistic(ds, beta, cutoff, scores)
    assert abs(got - expected) < 1e-12


def test_statistic_input_validation():
    ds = six_row_panel()
    scores = np.full(4, 0.5)
    with pytest.raises(ValueError, match="candidate"):
        moment_statistic(ds, (0.2, -0.01, 0.25), 2.5, scores)
    with pytest.raises(ValueError, match="beta_0"):
        moment_statistic(ds, (0.2, -0.01, 0.25, 0.5, 0.0), 2.5, scores)


def test_constant_output_shift_invariance():
    # scores 0.5 on a balanced split make the signed weights sum to zero,
    # so the statistic ignores a level shift of output
    beta = (0.1, -0.02, 0.3, 0.45, -0.06)
    scores = np.full(4, 0.5)
    a = moment_statistic(six_row_panel(), beta, 2.5, scores)
    b = moment_statistic(six_row_panel(y_shift=3.7), beta, 2.5, scores)
    assert abs(a - b) < 1e-12


def test_cutoff_values_are_material_quantiles(bench):
    ds, _, _ = bench
    pairs = ds.lag_pairs()
    got = cutoff_values(ds, (0.25, 0.5, 0.75))
    want = np.quantile(ds.m[pairs.cur], [0.25, 0.5, 0.75])
    assert np.array_equal(got, want)


def test_statistic_sign_at_truth_and_at_inflated_delta(bench):
    ds, truth, _ = bench
    t = truth.params
    beta_true = (t.beta_k, t.beta_kk, t.beta_l, t.beta_m, t.beta_0)
    beta_fat = (t.beta_k, t.beta_kk, t.beta_l, t.beta_m + 1.0, t.beta_0)
    for cutoff in cutoff_values(ds, (0.25, 0.5, 0.75)):
        scores = estimate_propensity(ds, float(cutoff))
        assert moment_statistic(ds, beta_true, float(cutoff), scores) > 0.0
        assert moment_statistic(ds, beta_fat, float(cutoff), scores) < 0.0


def test_propensity_balances_and_tracks_capital(bench):
    ds, _, _ = bench
    pairs = ds.lag_pairs()
    cutoff = float(np.median(ds.m[pairs.cur]))
    scores = estimate_propensity(ds, cutoff)
    assert scores.shape == (len(pairs),)
    assert np.all((scores >= 0.01) & (scores <= 0.99))
    outcome = (ds.m[pairs.cur] > cutoff).astype(float)
    # fitted probabilities track the base rate (approximately: clipping at
    # 0.01/0.99 moves the tails off the exact intercept score equation)
    assert abs(np.mean(scores) - np.mean(outcome)) < 0.005
    # richer capital means more material use, so scores rise with lagged k
    rk = np.argsort(np.argsort(ds.k[pairs.prev])).astype(float)
    rs = np.argsort(np.argsort(scores)).astype(float)
    assert np.corrcoef(rk, rs)[0, 1] > 0.9


def test_propensity_score_equation_when_interior(rng):
    # weak capital signal keeps every score far from the clip bounds, so
    # the logistic intercept equation holds to solver precision
    n, t_per = 50, 4
    firm = np.repeat(np.arange(n), t_per)
    year = np.tile(np.arange(t_per), n)
    k = rng.standard_normal(n * t_per)
    m = 0.2 * k + rng.standard_normal(n * t_per)
    ds = PanelDataset(firm, year, np.zeros(n * t_per), k, np.zeros(n * t_per),
                      m, np.full(n * t_per, 0.5), np.full(n * t_per, -0.3))
    pairs = ds.lag_pairs()
    cutoff = float(np.median(m[pairs.cur]))
    scores = estimate_propensity(ds, cutoff)
    assert np.all((scores > 0.02) & (scores < 0.98))
    outcome = (m[pairs.cur] > cutoff).astype(float)
    assert abs(np.mean(scores) - np.mean(outcome)) < 1e-8


def test_propensity_degenerate_cutoffs_raise():
    ds = six_row_panel()
    with pytest.raises(ValueError, match="one side"):
        estimate_propensity(ds, 100.0)

    # materials a strict monotone function of lagged capital: separation
    n, t_per = 30, 4
    firm = np.repeat(np.arange(n), t_per)
    year = np.tile(np.arange(t_per), n)
    k = firm * 0.1 + year * 0.01
    m = k + 1.0
    sep = PanelDataset(firm, year, np.zeros(n * t_per), k, np.zeros(n * t_per),
                       m, np.full(n * t_per, 0.5), np.full(n * t_per, -0.3))
    cutoff = float(np.median(m[sep.lag_pairs().cur]))
    with pytest.raises(ValueError, match="coarser cutoff"):
        estimate_propensity(sep, cutoff)


SMALL_GRID = {
    "beta_k": np.array([0.1, 0.3]),
    "beta_kk": np.array([-0.02, -0.005]),
    "beta_l": np.array([0.2, 0.3]),
    "beta_m": np.array([0.4, 0.6]),
    "beta_0": np.array([-0.08, -0.03]),
}


def test_set_statistics_match_pointwise_recomputation(small_panel):
    ds, _, _ = small_panel
    cfg = MomentInequalityConfig(cutoffs=(0.3, 0.7), grid=SMALL_GRID, slack=0.05)
    res = identified_set(ds, cfg)
    assert res.candidates.shape == (32, 5)
    assert res.statistics.shape == (32, 2)
    for j, cutoff in enumerate(res.cutoffs):
        scores = estimate_propensity(ds, float(cutoff), degree=1)
        for g in range(res.candidates.shape[0]):
            direct = moment_statistic(ds, res.candidates[g], float(cutoff), scores)
            assert abs(res.statistics[g, j] - direct) < 1e-12
    assert np.array_equal(res.feasible, np.min(res.statistics, axis=1) >= -res.slack)
    assert res.volume_fraction == np.mean(res.feasible)


def test_slack_grows_the_set(small_panel):
    ds, _, _ = small_panel
    tight = identified_set(ds, MomentInequalityConfig(grid=SMALL_GRID, slack=0.02))
    loose = identified_set(ds, MomentInequalityConfig(grid=SMALL_GRID, slack=0.2))
    assert np.all(loose.feasible[tight.feasible])
    assert np.sum(loose.feasible) >= np.sum(tight.feasible)

    scaled = identified_set(ds, MomentInequalityConfig(grid=SMALL_GRID, slack_scale=2.0))
    assert np.isclose(scaled.slack, 2.0 * scaled.n_pairs ** (-1.0 / 3.0))


def test_infinite_slack_keeps_everything(small_panel):
    ds, _, _ = small_panel
    res = identified_set(ds, MomentInequalityConfig(grid=SMALL_GRID, slack=np.inf))
    assert np.all(res.feasible)
    assert res.volume_fraction == 1.0
    assert not res.empty
    for name in GRID_AXES:
        lo, hi = res.bounding_box[name]
        assert lo == SMALL_GRID[name][0] and hi == SMALL_GRID[name][-1]


def test_empty_set_is_flagged_not_raised(small_panel):
    ds, _, _ = small_panel
    bad = dict(SMALL_GRID, beta_m=np.array([1.5, 2.0]))
    res = identified_set(ds, MomentInequalityConfig(grid=bad, slack=0.0))
    assert res.empty
    assert np.sum(res.feasible) == 0
    assert any("no grid candidate" in msg for msg in res.warnings)
    assert all(np.isnan(res.bounding_box[name]).all() for name in GRID_AXES)
    assert res.at_grid_edge == {name: (False, False) for name in GRID_AXES}
    assert not any(msg.startswith(GRID_EDGE_WARNING) for msg in res.warnings)


def test_default_path_builds_grid_from_point_estimate(small_panel):
    ds, _, _ = small_panel
    res = identified_set(ds, MomentInequalityConfig())
    assert res.candidates.shape == (11**5, 5)
    assert res.statistics.shape == (11**5, 3)


def test_default_grid_floors():
    grid = default_grid(TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.25, beta_m=0.5, beta_0=-0.06))
    assert set(grid) == set(GRID_AXES)
    for name, values in grid.items():
        assert values.shape == (11,)
    # half-widths: floored for beta_k/beta_kk/beta_0, proportional for beta_m
    assert np.isclose(grid["beta_k"][0], -0.1) and np.isclose(grid["beta_k"][-1], 0.5)
    assert np.isclose(grid["beta_kk"][0], -0.06) and np.isclose(grid["beta_kk"][-1], 0.04)
    assert np.isclose(grid["beta_m"][0], 0.25) and np.isclose(grid["beta_m"][-1], 0.75)
    assert np.isclose(grid["beta_0"][0], -0.11) and np.isclose(grid["beta_0"][-1], -0.01)


def test_config_validation(small_panel):
    ds, _, _ = small_panel
    with pytest.raises(ValueError, match="cutoff"):
        MomentInequalityConfig(cutoffs=()).validate()
    with pytest.raises(ValueError, match="outside"):
        MomentInequalityConfig(cutoffs=(0.5, 1.5)).validate()
    with pytest.raises(ValueError, match="axes"):
        MomentInequalityConfig(grid={"beta_k": np.array([0.1])}).validate()
    with pytest.raises(ValueError, match="empty grid axis"):
        MomentInequalityConfig(grid=dict(SMALL_GRID, beta_l=np.array([]))).validate()
    with pytest.raises(ValueError, match="slack"):
        MomentInequalityConfig(slack=-0.1).validate()
    with pytest.raises(ValueError, match="slack scale"):
        MomentInequalityConfig(slack_scale=-1.0).validate()
    with pytest.raises(ValueError, match="degree"):
        MomentInequalityConfig(propensity_degree=0).validate()
    with pytest.raises(ValueError, match="beta_0 = 0"):
        identified_set(ds, MomentInequalityConfig(grid=dict(SMALL_GRID, beta_0=np.array([-0.05, 0.0]))))


def test_default_grid_at_benchmark_truth_stays_negative_in_beta_0(small_panel):
    ds, _, cfg = small_panel
    grid = default_grid(cfg.params)
    # beta_0 = -0.05 with the 0.05 floor would end the axis at zero
    assert np.all(grid["beta_0"] < 0.0)
    assert grid["beta_0"][0] == -0.1 and grid["beta_0"][-1] == -0.025
    res = identified_set(ds, MomentInequalityConfig(grid=grid))
    assert res.candidates.shape == (11**5, 5)


@pytest.fixture(scope="module")
def markup_panel():
    """A panel like the benchmark's partial-identification pool (n = 200, markup 1.2) and its default grid."""
    ds, _ = generate_panel(benchmark_config(n=200, seed=401, markup=1.2), seed=401)
    return ds, default_grid(estimate(ds).params)


def test_bounds_on_the_grid_ends_are_flagged(markup_panel):
    # every inequality's normal in (beta_k, beta_kk) has both entries
    # positive here, so the set runs off the grid on every axis
    ds, grid = markup_panel
    res = identified_set(ds, MomentInequalityConfig(grid=grid))
    assert res.at_grid_edge == {name: (True, True) for name in GRID_AXES}
    assert all(res.bounding_box[name] == (grid[name][0], grid[name][-1]) for name in GRID_AXES)
    (edge,) = [msg for msg in res.warnings if msg.startswith(GRID_EDGE_WARNING)]
    assert all(f"{name} {end}" in edge for name in GRID_AXES for end in ("low", "high"))


def test_a_bound_inside_the_grid_is_not_flagged(markup_panel):
    ds, grid = markup_panel
    wide = dict(grid, beta_m=np.linspace(0.05, 1.7, 34))
    res = identified_set(ds, MomentInequalityConfig(grid=wide))
    lo, hi = res.bounding_box["beta_m"]
    assert lo == wide["beta_m"][0] and hi < wide["beta_m"][-1]
    assert res.at_grid_edge == {name: (True, name != "beta_m") for name in GRID_AXES}
    (edge,) = [msg for msg in res.warnings if msg.startswith(GRID_EDGE_WARNING)]
    assert "beta_m low" in edge and "beta_m high" not in edge


# -- the tensor sweep against the reference copy in partialid_reference.py -----

# a few shared values make repeated entries on an axis likely
_axis = st.lists(st.one_of(st.sampled_from((-0.3, 0.0, 1.75)), st.floats(-3.0, 3.0)), min_size=1, max_size=4)
_beta_0_axis = st.lists(
    st.one_of(st.sampled_from((-0.05, -0.2)), st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3)),
    min_size=1, max_size=4,
)


@st.composite
def _grids(draw):
    """An unsorted grid of one to four values per axis, and a slack."""
    grid = {name: np.array(draw(_beta_0_axis if name == "beta_0" else _axis)) for name in GRID_AXES}
    # a slack of 0 can leave the set empty, and a huge one keeps all of it
    slack = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 2.0), st.just(1e9)))
    return grid, slack


@settings(max_examples=60, deadline=None)
@given(_grids(), st.sampled_from([(0.25, 0.5, 0.75), (0.4,), (0.3, 0.7)]))
@example((dict(SMALL_GRID, beta_m=np.array([2.0, 1.5])), 0.0), (0.25, 0.5, 0.75))  # the empty set
def test_identified_set_equals_the_reference_sweep(small_panel, case, cutoffs):
    ds, _, _ = small_panel
    grid, slack = case
    config = MomentInequalityConfig(cutoffs=cutoffs, grid=grid, slack=slack)
    got, want = identified_set(ds, config), partialid_reference.identified_set(ds, config)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        elif field.name == "bounding_box":
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[name], b[name], equal_nan=True) for name in a)
        else:
            assert a == b, field.name
