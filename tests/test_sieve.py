"""Polynomial sieve: basis enumeration, GCV selection, parametric nesting."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sieve_reference import (
    FormerLaw,
    former_monomials,
    former_omega_residual,
    former_omega_residual_jacobian,
    former_phi_innovation,
    former_phi_innovation_jacobian,
)

from prodsys.moments import (
    capital_terms,
    omega_residual,
    omega_residual_jacobian,
    phi_innovation,
    phi_innovation_jacobian,
)
from prodsys.panel import PanelDataset, shares_from_logs
from prodsys.simulate import benchmark_config, generate_panel, solve_translog_inputs
from prodsys.sieve import (
    build_basis,
    build_sieve_instruments,
    gcv_select_degree,
    sieve_estimate,
)
from prodsys.translog import (
    EstimateOptions,
    TranslogParams,
    _step2_arrays,
    estimate,
    phi_proxy,
    step3_nls,
)


# -- basis ---------------------------------------------------------------------


def test_basis_enumeration_order():
    basis = build_basis(2, 2, intercept=False)
    assert basis.exponents.tolist() == [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    with_const = build_basis(2, 2, intercept=True)
    assert with_const.exponents.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert with_const.n_terms == 6
    with pytest.raises(ValueError):
        build_basis(0, 2)


def test_basis_evaluation_and_derivative():
    basis = build_basis(2, 2, intercept=True)
    vals = basis.evaluate(np.array([[2.0, 3.0]]))
    assert vals.tolist() == [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]]
    dx = basis.evaluate_deriv(np.array([[2.0, 3.0]]), 0)
    assert dx.tolist() == [[0.0, 1.0, 0.0, 4.0, 3.0, 0.0]]
    dy = basis.evaluate_deriv(np.array([[2.0, 3.0]]), 1)
    assert dy.tolist() == [[0.0, 0.0, 1.0, 0.0, 2.0, 6.0]]


def test_basis_affine_map_round_trip(rng):
    basis = build_basis(1, 3, intercept=True)
    mapped = dataclasses.replace(basis, centers=np.array([1.5]), scales=np.array([2.0]))
    u = rng.uniform(-2, 2, (20, 1))
    z = (u - 1.5) / 2.0
    direct = np.column_stack([np.ones(20), z[:, 0], z[:, 0] ** 2, z[:, 0] ** 3])
    assert np.allclose(mapped.evaluate(u), direct, atol=1e-14)


def test_basis_reuses_its_power_table_only_for_the_same_inputs_map_and_exponents(rng):
    # a Jacobian's evaluate_deriv(u, 0) reads the table its residual's
    # evaluate(u) built; new bytes in u, the map or the exponents build it again
    basis = dataclasses.replace(
        build_basis(2, 3, intercept=True), centers=np.array([0.5, -1.0]), scales=np.array([2.0, 0.5]))
    u = rng.uniform(-2, 2, (30, 2))

    def same_as_fresh(coord=None):
        fresh = dataclasses.replace(basis)
        got, want = (b.evaluate(u) if coord is None else b.evaluate_deriv(u, coord) for b in (basis, fresh))
        return got.tobytes() == want.tobytes()

    assert same_as_fresh(0) and same_as_fresh() and same_as_fresh(0) and same_as_fresh(1)
    u[3, 1] += 1.0
    assert same_as_fresh(0) and same_as_fresh()
    basis.centers[0] = 0.25
    assert same_as_fresh()
    basis.exponents[-1] = [0, 5]  # a power above every one the table holds
    assert same_as_fresh(1) and same_as_fresh()


def test_basis_derivative_refuses_wrong_columns_and_coord():
    basis = build_basis(2, 2)
    u = np.array([[2.0, 3.0]])
    with pytest.raises(ValueError, match="input columns"):
        basis.evaluate_deriv(u[:, :1], 0)
    for coord in (-1, 2):
        with pytest.raises(ValueError, match="coord"):
            basis.evaluate_deriv(u, coord)


@pytest.mark.parametrize("exponents", [[[1, 0], [-1, 1]], [[1.0, 0.0]], [[1], [2]]])
def test_basis_refuses_malformed_exponents(exponents):
    with pytest.raises(ValueError, match="exponents"):
        dataclasses.replace(build_basis(2, 2), exponents=np.array(exponents))


@pytest.mark.parametrize("replace, match", [
    ({"centers": [1.0], "scales": [2.0]}, "one value per input"),
    ({"centers": [1.0]}, "one value per input"),
    ({"scales": [1.0, 1.0, 1.0]}, "one value per input"),
    ({"scales": [[1.0, 1.0]]}, "one value per input"),
    ({"scales": [1.0, 0.0]}, "finite and positive"),
    ({"scales": [-2.0, 1.0]}, "finite and positive"),
    ({"scales": [1.0, np.inf]}, "finite and positive"),
    ({"scales": [np.nan, 1.0]}, "finite and positive"),
])
def test_basis_refuses_an_affine_map_that_is_not_one_finite_positive_scale_per_input(replace, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(build_basis(2, 2), **{k: np.array(v) for k, v in replace.items()})


# zero or at least 1e-6 in magnitude: a difference of two such values cubed
# (or raised to the sixth) stays far above the subnormal range, so the exact
# product below bounds every entry in relative terms
_signed = st.one_of(st.just(0.0), st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6))


@st.composite
def mapped_bases(draw):
    """A basis with a random affine map, and inputs of both signs.

    A drawn factor of 2 doubles every exponent without touching ``degree``:
    the dataclass is public, so exponents above ``degree`` must evaluate too.
    """
    dim = draw(st.integers(1, 4))
    basis = build_basis(dim, draw(st.integers(1, 3)), intercept=draw(st.booleans()))
    vec = st.lists(_signed, min_size=dim, max_size=dim)
    basis = dataclasses.replace(
        basis,
        exponents=basis.exponents * draw(st.sampled_from((1, 2))),
        centers=np.array(draw(vec)),
        scales=np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))),
    )
    u = np.array(draw(st.lists(vec, min_size=1, max_size=5)))
    return basis, u


def _exact_z(basis, u):
    return [
        [(Fraction(x) - Fraction(c)) / Fraction(s) for x, c, s in zip(row, basis.centers, basis.scales)]
        for row in u
    ]


def _exact_monomial(z_row, expo):
    out = Fraction(1)
    for z, e in zip(z_row, expo):
        out *= z ** int(e)
    return out


@settings(max_examples=150, deadline=None)
@given(case=mapped_bases())
def test_basis_matches_exact_products(case):
    basis, u = case
    z = _exact_z(basis, u)
    exact = np.array([[float(_exact_monomial(row, e)) for e in basis.exponents] for row in z])
    got = basis.evaluate(u)
    assert got.shape == (u.shape[0], basis.n_terms)
    np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0)
    # the broadcast-power form the basis used to be evaluated with
    zf = (u - basis.centers) / basis.scales
    np.testing.assert_allclose(got, np.prod(zf[:, None, :] ** basis.exponents[None], axis=2), rtol=1e-13, atol=0)
    for coord in range(basis.dim):
        lowered = np.array([
            [float(e[coord] * _exact_monomial(row, e - (np.arange(basis.dim) == coord)) / Fraction(basis.scales[coord]))
             if e[coord] else 0.0 for e in basis.exponents]
            for row in z
        ])
        np.testing.assert_allclose(basis.evaluate_deriv(u, coord), lowered, rtol=1e-13, atol=0)


def _same_array(got, want):
    """Equal shape, strides and bytes: the reductions downstream read the layout too."""
    assert (got.shape, got.strides) == (want.shape, want.strides)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(case=mapped_bases(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_the_series_arithmetic_keeps_its_bits(case, seed, n):
    # the basis writes each term column in its own passes, and the Jacobians
    # each output column with its own ufunc; the frozen copies form the same
    # arrays as whole (n, k) blocks. The benchmark's laws have one input and
    # degree 2 or 3: the draws reach more inputs, degree one, exponents above
    # the degree, signed inputs and x/z control columns.
    basis, u = case
    _same_array(basis.evaluate(u), former_monomials(basis, u))
    for coord in range(basis.dim):
        _same_array(basis.evaluate_deriv(u, coord), former_monomials(basis, u, coord))
    _same_array(basis.evaluate(u), former_monomials(basis, u))  # read from the kept table

    rng = np.random.default_rng(seed)
    controls = rng.standard_normal((n, basis.dim - 1))
    coef = rng.standard_normal(basis.n_terms)
    phi_params = np.concatenate(([rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0), rng.uniform(0.1, 0.9)], coef))
    ml_cur, ml_prev = rng.standard_normal((2, n))
    sl_cur, sl_prev = rng.uniform(0.1, 0.9, (2, n))
    phi_args = (rng.uniform(0.5, 1.0), ml_cur, ml_prev, sl_cur, sl_prev, controls)
    omega_params = np.concatenate((rng.standard_normal(2), coef))
    k_cur, k_prev = rng.normal(2.0, 1.0, (2, n))
    omega_args = (rng.standard_normal(n), capital_terms(k_cur), capital_terms(k_prev), rng.standard_normal(n), controls)
    for live, former, params, args in (
        (phi_innovation, former_phi_innovation, phi_params, phi_args),
        (phi_innovation_jacobian, former_phi_innovation_jacobian, phi_params, phi_args),
        (omega_residual, former_omega_residual, omega_params, omega_args),
        (omega_residual_jacobian, former_omega_residual_jacobian, omega_params, omega_args),
    ):
        _same_array(live(params, basis, *args), former(params, FormerLaw(basis), *args))


def test_term_names():
    basis = build_basis(2, 2, intercept=True)
    assert basis.term_names(("a", "b")) == ("const", "a", "b", "a^2", "a*b", "b^2")


# -- GCV -----------------------------------------------------------------------


def test_gcv_values_match_direct_formula(rng):
    x = rng.uniform(-1, 1, 200)
    y = x - 0.2 * x**2 + 0.05 * rng.standard_normal(200)
    degree, values, warnings = gcv_select_degree(y, x[:, None], degrees=(1, 2, 3), intercept=True)
    assert warnings == []
    # recompute one entry with an explicit standardized regression
    z = (x - x.mean()) / x.std()
    p = np.column_stack([np.ones(200), z, z**2])
    coef, *_ = np.linalg.lstsq(p, y, rcond=None)
    resid = y - p @ coef
    expected = float(np.mean(resid**2) / (1.0 - 3 / 200) ** 2)
    assert abs(values[2] - expected) < 1e-12
    assert degree == 2


def test_gcv_picks_cubic_on_cubic_data(rng):
    x = rng.uniform(-1, 1, 400)
    y = x - 0.2 * x**2 + 0.5 * x**3 + 0.02 * rng.standard_normal(400)
    degree, values, _ = gcv_select_degree(y, x[:, None], degrees=(1, 2, 3), intercept=True)
    assert degree == 3


def test_gcv_prefers_smallest_within_band(rng):
    x = rng.uniform(-1, 1, 300)
    y = 0.7 * x + 0.05 * rng.standard_normal(300)
    degree, values, _ = gcv_select_degree(y, x[:, None], degrees=(1, 2, 3), intercept=True)
    # on linear data all degrees fit equally well, the band rule keeps degree 1
    assert degree == 1
    assert values[1] <= min(values.values()) * 1.002


def test_gcv_single_candidate_short_circuits():
    degree, values, warnings = gcv_select_degree(np.zeros(10), np.arange(10.0)[:, None], degrees=(2,))
    assert degree == 2
    assert values == {}


def test_sieve_instruments_degree_one_unchanged(bench):
    ds, _, _ = bench
    q1, names1 = build_sieve_instruments(ds, degree=1)
    from prodsys.translog import build_instruments
    q0, names0 = build_instruments(ds)
    assert np.array_equal(q1, q0)
    assert names1 == names0
    q2, names2 = build_sieve_instruments(ds, degree=2)
    assert q2.shape[0] == q1.shape[0]
    assert q2.shape[1] == len(names2) > q1.shape[1]
    assert names2[0] == "const"


# -- nesting and law capture -----------------------------------------------------


def test_degree_one_equals_parametric(bench):
    ds, _, _ = bench
    par = estimate(ds)
    sv = sieve_estimate(ds, degree=1)
    assert sv.degree_phi == 1 and sv.degree_omega == 1
    assert abs(sv.params.beta_0 - par.params.beta_0) < 1e-8
    assert abs(sv.params.beta_l - par.params.beta_l) < 1e-8
    assert abs(sv.params.beta_k - par.params.beta_k) < 1e-8
    assert abs(sv.params.beta_kk - par.params.beta_kk) < 1e-8
    assert sv.laws is not None
    assert abs(sv.laws.rho_phi_1 - par.laws.rho_phi_1) < 1e-8
    assert abs(sv.laws.rho_omega_0 - par.laws.rho_omega_0) < 1e-8
    assert abs(sv.laws.rho_omega_1 - par.laws.rho_omega_1) < 1e-8
    assert np.max(np.abs(sv.phi_hat - par.phi_hat)) < 1e-8


def test_auto_degree_runs_each_parametric_step_once(bench, monkeypatch):
    import prodsys.sieve

    ds, _, _ = bench
    calls = {"step2_gmm": 0, "step3_nls": 0}
    for name, fit in [(name, getattr(prodsys.sieve, name)) for name in calls]:
        def spy(*args, _name=name, _fit=fit, **kwargs):
            calls[_name] += 1
            return _fit(*args, **kwargs)
        monkeypatch.setattr(prodsys.sieve, name, spy)
    sv = sieve_estimate(ds, degree="auto")
    # GCV picks degree one for both laws here: the parametric fits are
    # the reference's and the reported ones at once
    assert (sv.degree_phi, sv.degree_omega) == (1, 1)
    assert calls == {"step2_gmm": 1, "step3_nls": 1}


def test_mixed_degrees_fit_omega_parametrically_at_the_series_phi_point(small_panel):
    ds, _, _ = small_panel
    sv = sieve_estimate(ds, degree="auto")
    assert (sv.degree_phi, sv.degree_omega) == (3, 1)
    par = step3_nls(ds, sv.step1, sv.step2, EstimateOptions())
    assert (sv.step3.beta_k, sv.step3.beta_kk, sv.step3.objective) == (par.beta_k, par.beta_kk, par.objective)
    assert np.array_equal(sv.step3.coef, np.concatenate(([par.rho_omega_0, par.rho_omega_1], par.rho_omega_2)))
    assert sv.laws is None


def _held_bytes(obj) -> int:
    """Bytes of the arrays and byte strings an object's attributes hold, through tuples and lists."""
    total, stack = 0, list(vars(obj).values())
    while stack:
        value = stack.pop()
        if isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, bytes):
            total += len(value)
    return total


def test_a_fitted_series_law_keeps_no_power_table(small_panel):
    # the fits evaluate their basis on every lag pair; the estimate keeps the
    # law, not the last power table and its key (a copy of the law's inputs)
    ds, _, _ = small_panel
    sv = sieve_estimate(ds, degree=2)
    for basis in (sv.step2.basis, sv.step3.basis):
        assert basis.degree == 2
        assert _held_bytes(basis) == basis.exponents.nbytes + basis.centers.nbytes + basis.scales.nbytes


def test_degree_below_one_is_refused(small_panel):
    ds, _, _ = small_panel
    with pytest.raises(ValueError):
        sieve_estimate(ds, degree=0)


@pytest.mark.parametrize("kwargs", [
    {"degree": 2.7}, {"degree": 2.0}, {"degree": True}, {"degree": "2"}, {"degree": None},
    {"degree": "auto", "degrees": (2.5, 3)},
])
def test_a_degree_that_is_not_an_integer_is_refused_not_truncated(small_panel, monkeypatch, kwargs):
    # 2.7 used to fit degree 2, True degree 1, and (2.5, 3) to choose between 2 and 3
    import prodsys.sieve

    monkeypatch.setattr(prodsys.sieve, "step1_cost_share", lambda *_: pytest.fail("fitted before refusing"))
    ds, _, _ = small_panel
    with pytest.raises(ValueError, match="integer of at least 1"):
        sieve_estimate(ds, **kwargs)


@pytest.mark.parametrize("degrees", [(2.5, 3), (1.9, 3), (True, 2), (0, 2), (2.0,), ("2",)])
def test_candidate_degrees_that_are_not_integers_are_refused(degrees):
    # (1.9, 3) used to report a key 1, and a single candidate skipped every check
    with pytest.raises(ValueError, match="integer of at least 1"):
        gcv_select_degree(np.arange(10.0) ** 2, np.arange(10.0)[:, None], degrees=degrees)


def test_integer_degrees_of_any_integer_type_are_accepted():
    degree, values, _ = gcv_select_degree(np.arange(10.0) ** 2, np.arange(10.0)[:, None], degrees=(np.int64(3), 1))
    assert degree == 3 and type(degree) is int and set(values) == {1, 3}


def test_refine_none_is_refused(small_panel):
    # degrees are picked at the refined point; "none" is not ignored
    ds, _, _ = small_panel
    with pytest.raises(ValueError, match="refine"):
        sieve_estimate(ds, degree=2, options=EstimateOptions(refine="none"))


def quadratic_law_panel(n=300, t_periods=10, seed=9):
    """Panel whose labor-augmenting law has a genuine quadratic term."""
    r = np.random.default_rng(seed)
    params = TranslogParams(beta_k=0.2, beta_kk=-0.01, beta_l=0.25, beta_m=0.5, beta_0=-0.05)
    phi = np.empty((n, t_periods))
    omega = np.empty((n, t_periods))
    phi[:, 0] = r.uniform(-1.0, 1.0, n)
    omega[:, 0] = r.uniform(-1.0, 1.0, n)
    for t in range(1, t_periods):
        phi[:, t] = 0.55 * phi[:, t - 1] + 0.3 * phi[:, t - 1] ** 2 + 0.02 * r.standard_normal(n)
        omega[:, t] = 0.2 + 0.6 * omega[:, t - 1] + 0.02 * r.standard_normal(n)
    k0 = np.log(r.uniform(10.0, 200.0, n))
    k = k0[:, None] + np.cumsum(0.1 * r.standard_normal((n, t_periods)), axis=1)
    l, m, foc = solve_translog_inputs(params, omega.ravel(), phi.ravel(), k.ravel(), theta=1.0)
    assert foc < 1e-10
    y = (params.beta_k * k.ravel() + 0.5 * params.beta_kk * k.ravel() ** 2
         + params.beta_m * m + params.beta_l * (phi.ravel() + l)
         - 0.5 * params.beta_0 * (m - phi.ravel() - l) ** 2 + omega.ravel())
    s_l, ln_r = shares_from_logs(y, l, m)
    firm = np.repeat(np.arange(n), t_periods)
    year = np.tile(np.arange(t_periods), n)
    return PanelDataset(firm, year, y, k.ravel(), l, m, s_l, ln_r), params


def test_quadratic_basis_improves_phi_law_fit():
    ds, _ = quadratic_law_panel()
    est = sieve_estimate(ds, degree=2)
    s1, fit2 = est.step1, est.step2
    assert fit2.converged
    # score both degrees on the same proxied series so the comparison is
    # about the basis, not about where the GMM landed
    pairs = ds.lag_pairs()
    phi = phi_proxy(ds.m - ds.l, ds.s_l, fit2.beta_0, fit2.beta_l, s1.delta_lm)
    pc, pp = phi[pairs.cur], phi[pairs.prev]
    rss = {}
    for deg in (1, 2):
        basis = build_basis(1, deg, intercept=False)
        bx = basis.evaluate(pp[:, None])
        coef, *_ = np.linalg.lstsq(bx, pc, rcond=None)
        rss[deg] = float(np.sum((pc - bx @ coef) ** 2))
    assert rss[2] < 0.8 * rss[1]


def test_degree_selection_reference_uses_the_callers_options(small_panel, monkeypatch):
    import prodsys.sieve

    ds, _, _ = small_panel
    seen = {}

    class Recorded(Exception):
        pass

    def spy(dataset, step1, step2, step3, options):
        seen["options"] = options
        raise Recorded

    monkeypatch.setattr(prodsys.sieve, "system_refine", spy)
    options = EstimateOptions(proxy="labor", instruments="exactly_identified", grad_tol=1e-7, max_iter=300)
    with pytest.raises(Recorded):
        sieve_estimate(ds, degree="auto", options=options)
    assert seen["options"] == options


def test_degree_two_phi_law_has_two_roots_with_equal_moments():
    # A known defect, pinned and not fixed.  The degree-2 phi law has no
    # intercept, and proxied phi is p(beta_0) + c with c = beta_l/beta_0, so
    # the innovation p_cur + c - a1 z - a2 z^2, z = (p_prev + c)/sigma, is the
    # same function of the data at (c, a1, a2) and at
    #   c' = c - sigma (sigma - a1)/a2,  a1' = a1 + 2 a2 (c - c')/sigma,
    # with the same beta_0 and a2.  Step two's moments cannot tell the roots
    # apart, so which one the fit reports can flip under a rounding change.
    ds, _ = generate_panel(benchmark_config(n=200, seed=401, markup=1.2), seed=401)
    est = sieve_estimate(ds, degree="auto", degrees=(2, 3))
    fit = est.step2
    assert fit.degree == 2 and fit.basis.exponents.tolist() == [[1], [2]]
    sigma = float(fit.basis.scales[0])
    (a1, a2), c = fit.coef, fit.beta_l / fit.beta_0
    c_other = c - sigma * (sigma - a1) / a2
    root = np.array([fit.beta_0, fit.beta_l, a1, a2])
    other = np.array([fit.beta_0, c_other * fit.beta_0, a1 + 2 * a2 * (c - c_other) / sigma, a2])

    q, _ = build_sieve_instruments(ds, degree=2)
    arrays = _step2_arrays(ds)

    def moments(alpha):
        return q.T @ phi_innovation(alpha, fit.basis, est.step1.delta_lm, *arrays) / q.shape[0]

    assert np.max(np.abs(moments(root) - moments(other))) <= 1e-12
    assert abs(root[1] - other[1]) > 0.01  # beta_l 0.290 against 0.267
