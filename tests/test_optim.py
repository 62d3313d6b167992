"""Solver behavior on problems with known closed-form answers."""

import math

import numpy as np
import optim_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsys import optim
from prodsys.optim import (
    GmmProblem,
    NlsProblem,
    _psd_sqrt,
    finite_diff_jacobian,
    minimize_gmm,
    minimize_nls,
)


def test_finite_diff_matches_analytic_jacobian(rng):
    a = rng.standard_normal((4, 3))

    def fun(x):
        return np.array([
            np.sin(x[0]) * x[1],
            x[2] ** 3,
            np.exp(0.3 * x[0] - x[2]),
            x[0] * x[1] * x[2],
        ]) + a @ x

    def jac(x):
        base = np.array([
            [np.cos(x[0]) * x[1], np.sin(x[0]), 0.0],
            [0.0, 0.0, 3 * x[2] ** 2],
            [0.3 * np.exp(0.3 * x[0] - x[2]), 0.0, -np.exp(0.3 * x[0] - x[2])],
            [x[1] * x[2], x[0] * x[2], x[0] * x[1]],
        ])
        return base + a

    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, 3)
        fd = finite_diff_jacobian(fun, x)
        assert np.max(np.abs(fd - jac(x))) < 1e-6


def test_linear_least_squares_hits_normal_equations(rng):
    a = rng.standard_normal((30, 4))
    b = rng.standard_normal(30)
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)

    problem = NlsProblem(residual=lambda x: a @ x - b, jacobian=lambda x: a)
    res = minimize_nls(problem, np.zeros(4))
    assert res.converged
    assert np.max(np.abs(res.params - expected)) < 1e-10
    assert abs(res.objective - float(np.sum((a @ expected - b) ** 2))) < 1e-10


def test_rosenbrock_residual_form():
    # f(x) = (1-x0)^2 + 100 (x1-x0^2)^2 as a two-residual problem
    def residual(x):
        return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])

    def jacobian(x):
        return np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])

    res = minimize_nls(NlsProblem(residual=residual, jacobian=jacobian), np.array([-1.2, 1.0]))
    assert res.converged
    assert np.max(np.abs(res.params - 1.0)) < 1e-8


def test_finite_difference_fallback_when_jacobian_missing(rng):
    a = rng.standard_normal((10, 2))
    b = rng.standard_normal(10)
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = minimize_nls(NlsProblem(residual=lambda x: a @ x - b), np.zeros(2))
    assert np.max(np.abs(res.params - expected)) < 1e-8


def test_bounds_clip_iterates_onto_the_box():
    # unconstrained minimum at x = 2, box caps it at 1.5
    problem = NlsProblem(
        residual=lambda x: x - 2.0,
        jacobian=lambda x: np.eye(1),
        bounds=(np.array([0.0]), np.array([1.5])),
    )
    res = minimize_nls(problem, np.array([0.5]))
    assert abs(res.params[0] - 1.5) < 1e-12


def test_multistart_keeps_lowest_objective():
    # double well in residual form: r(x) = x^2 - 1 has roots at +-1, and
    # r(x) = (x - 0.5)^2... use a quartic with distinct basin depths
    def residual(x):
        return np.array([x[0] ** 2 - 1.0, 0.1 * (x[0] - 1.0)])

    # basin near x=1 zeroes both residuals almost exactly; near x=-1 the
    # second residual stays at 0.2 scale
    problem = NlsProblem(residual=residual)
    res_bad = minimize_nls(problem, np.array([-1.3]))
    res_multi = minimize_nls(problem, np.array([-1.3]), starts=[np.array([1.4])])
    assert res_bad.params[0] < 0
    assert res_multi.params[0] > 0
    assert res_multi.objective < res_bad.objective
    assert res_multi.start_index == 1


def test_multistart_prefers_a_converged_start_to_a_lower_unconverged_one():
    # right of x = 1 a linear well with objective 1 at x = 3; left of it
    # exp(x), which falls toward the box edge at -50 by about one unit of x
    # per Gauss-Newton step, so max_iter = 6 stops that start far from it
    def residual(x):
        return np.array([x[0] - 3.0, 1.0]) if x[0] > 1.0 else np.array([math.exp(x[0]), 0.0])

    def jacobian(x):
        return np.array([[1.0], [0.0]]) if x[0] > 1.0 else np.array([[math.exp(x[0])], [0.0]])

    problem = NlsProblem(residual=residual, jacobian=jacobian, bounds=(np.array([-50.0]), np.array([50.0])))
    well, slide = np.array([5.0]), np.array([0.0])
    alone = minimize_nls(problem, slide, max_iter=6)
    assert not alone.converged and alone.objective < 1e-4 and alone.params[0] > -10.0

    res = minimize_nls(problem, well, starts=[slide], max_iter=6)
    assert res.converged and res.start_index == 0
    assert abs(res.params[0] - 3.0) < 1e-8 and res.objective > alone.objective
    # the order of the starts does not matter
    res = minimize_nls(problem, slide, starts=[well], max_iter=6)
    assert res.converged and res.start_index == 1
    # among unconverged starts the lowest objective still wins
    res = minimize_nls(problem, np.array([0.5]), starts=[slide], max_iter=6)
    assert not res.converged and res.start_index == 1


def test_start_sliding_onto_an_upper_bound_ends_as_the_reference_loop_ends_it():
    # r(x) = exp(-x) falls without end as x grows, by about one unit of x per
    # Gauss-Newton step, so from x = 0 the third step is clipped onto hi = 2.5
    problem = NlsProblem(residual=lambda x: np.exp(-x), jacobian=lambda x: -np.diag(np.exp(-x)),
                         bounds=(np.array([-50.0]), np.array([2.5])))
    got = optim._lm_single(problem, np.array([0.0]), grad_tol=1e-8, max_iter=500)
    want = optim_reference._lm_single(problem, np.array([0.0]), grad_tol=1e-8, max_iter=500)
    assert (got.status, got.converged, got.n_iter) == (want.status, want.converged, want.n_iter)
    assert _bits(got.params) == _bits(want.params) and got.params[0] == 2.5
    # it does not stop on reaching the bound
    assert got.n_iter > 3


def test_trial_step_clipped_onto_the_upper_bound_and_rejected_still_converges():
    # r(x) = x^3 - 0.1 is nearly flat at x = 0.1, so the first trial steps
    # overshoot, are clipped onto the upper bound 1 and rejected there
    seen = []

    def residual(x):
        seen.append(float(x[0]))
        return x**3 - 0.1

    problem = NlsProblem(residual=residual, jacobian=lambda x: np.diag(3.0 * x**2),
                         bounds=(np.array([0.0]), np.array([1.0])))
    res = optim._lm_single(problem, np.array([0.1]), grad_tol=1e-12, max_iter=500)
    assert 1.0 in seen
    assert res.converged
    assert abs(res.params[0] - 0.1 ** (1 / 3)) < 1e-8


def _face_slide():
    # r = (10 (x - y), y + 1) with x >= 0: the unconstrained minimum is at
    # x = y = -1, so from (5, 5) the first step lands just inside the face
    # x = 0 and every later Gauss-Newton step wants x below it; the clipped
    # steps crawl along the face toward y = -1/101 without ever converging
    problem = NlsProblem(residual=lambda v: np.array([10.0 * (v[0] - v[1]), v[1] + 1.0]),
                         jacobian=lambda v: np.array([[10.0, -10.0], [0.0, 1.0]]),
                         bounds=(np.array([0.0, -100.0]), np.array([10.0, 100.0])))
    return problem, np.array([5.0, 5.0])


def test_descent_along_a_face_stops_after_box_stall_steps_cut_steps():
    problem, x0 = _face_slide()
    res = optim._lm_single(problem, x0, grad_tol=1e-8, max_iter=500)
    assert (res.status, res.converged) == (optim.STALL_STATUS, False)
    # one uncut step onto the face, then BOX_STALL_STEPS cut ones
    assert res.n_iter == optim.BOX_STALL_STEPS + 1
    assert res.params[0] == 0.0 and res.grad_norm > 1.0
    # it stops at the iterate the loop without the rule reaches at that iteration
    want = optim_reference._lm_single(problem, x0, grad_tol=1e-8, max_iter=res.n_iter)
    assert _bits(res.params) == _bits(want.params) and _bits(res.objective) == _bits(want.objective)
    # without the rule the start crawls on to max_iter
    full = optim_reference._lm_single(problem, x0, grad_tol=1e-8, max_iter=500)
    assert (full.n_iter, full.status) == (500, "max iterations reached")
    assert full.params[0] == 0.0 and full.objective < res.objective
    # minimize_nls ranks a stalled start like any other unconverged start
    face_min = np.array([0.0, -1.0 / 101.0])
    for x0_, starts, index in ((x0, [face_min], 1), (face_min, [x0], 0)):
        res = minimize_nls(problem, x0_, starts=starts)
        assert res.start_index == index and res.converged


def test_psd_sqrt_properties(rng):
    a = rng.standard_normal((5, 5))
    w = a @ a.T
    half = _psd_sqrt(w)
    assert np.allclose(half @ half, w, atol=1e-10)
    assert np.allclose(half, half.T, atol=1e-12)
    with pytest.raises(ValueError, match="symmetric"):
        _psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="semidefinite"):
        _psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="square"):
        _psd_sqrt(np.ones((2, 3)))


def test_gmm_linear_moments_closed_form(rng):
    # g(x) = A x - b, minimizer of g'Wg solves A'WA x = A'Wb
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    w = np.diag(rng.uniform(0.5, 2.0, 6))
    expected = np.linalg.solve(a.T @ w @ a, a.T @ w @ b)

    problem = GmmProblem(moments=lambda x: a @ x - b, jacobian=lambda x: a, weight=w)
    res = minimize_gmm(problem, np.zeros(3))
    assert res.converged
    assert np.max(np.abs(res.params - expected)) < 1e-8
    g = a @ res.params - b
    assert abs(res.objective - float(g @ w @ g)) < 1e-12


def test_gmm_identity_weight_default(rng):
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal(5)
    res = minimize_gmm(GmmProblem(moments=lambda x: a @ x - b), np.zeros(2))
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.max(np.abs(res.params - expected)) < 1e-8


# -- the faster loop against the reference copies in optim_reference.py -------

_coef = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@st.composite
def _bounded_problems(draw):
    """A small nonlinear least-squares problem, its box and a start.

    ``r(x) = A sin(x) + c * x'x - b``.  Optionally the residual turns NaN
    above and inf below a cut in the last coordinate, and the analytic
    Jacobian turns NaN above a cut in the first: the loop must refuse those
    trial points and carry a NaN gradient the same way in both versions.
    """
    p, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    a = np.array(draw(st.lists(_coef, min_size=m * p, max_size=m * p))).reshape(m, p)
    b = np.array(draw(st.lists(_coef, min_size=m, max_size=m)))
    curv = draw(_coef)
    nan_above, inf_below, nan_grad_above = (draw(st.one_of(st.none(), _coef)) for _ in range(3))

    def residual(x):
        r = a @ np.sin(x) + curv * (x @ x) - b
        if nan_above is not None and x[-1] > nan_above:
            r[0] = np.nan
        if inf_below is not None and x[-1] < inf_below:
            r[-1] = np.inf
        return r

    def jacobian(x):
        jac = a * np.cos(x) + 2.0 * curv * x
        if nan_grad_above is not None and x[0] > nan_grad_above:
            jac[:, 0] = np.nan
        return jac

    bounds = None
    if draw(st.booleans()):
        lo = np.array(draw(st.lists(_coef, min_size=p, max_size=p)))
        bounds = (lo, lo + np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=p, max_size=p))))
    problem = NlsProblem(residual=residual, jacobian=jacobian if draw(st.booleans()) else None, bounds=bounds)
    x0 = np.array(draw(st.lists(_coef, min_size=p, max_size=p)))
    return problem, x0


@settings(max_examples=300, deadline=None)
@given(_bounded_problems(), st.sampled_from([1e-8, 1e-3]), st.integers(1, 3 * optim.BOX_STALL_STEPS))
def test_lm_single_is_bitwise_equal_to_the_reference_loop(case, grad_tol, max_iter):
    problem, x0 = case
    with np.errstate(invalid="ignore"):  # inf - inf in a Jacobian column is part of the case
        got = optim._lm_single(problem, x0, grad_tol=grad_tol, max_iter=max_iter)
        if got.status == optim.STALL_STATUS:
            # the reference has no stop on the box: cut off at the same iteration,
            # it must stand on the same iterate
            assert not got.converged and got.n_iter >= optim.BOX_STALL_STEPS
            want = optim_reference._lm_single(problem, x0, grad_tol=grad_tol, max_iter=got.n_iter)
            assert want.status == "max iterations reached"
            assert _bits(got.params) == _bits(want.params)
            assert _bits(got.objective) == _bits(want.objective)
            assert _bits(got.grad_norm) == _bits(want.grad_norm)
            return
        want = optim_reference._lm_single(problem, x0, grad_tol=grad_tol, max_iter=max_iter)
    assert _bits(got.params) == _bits(want.params)
    assert _bits(got.objective) == _bits(want.objective)
    assert _bits(got.grad_norm) == _bits(want.grad_norm)
    assert (got.n_iter, got.status, got.converged) == (want.n_iter, want.status, want.converged)


@settings(max_examples=200, deadline=None)
@given(_bounded_problems())
def test_finite_diff_jacobian_is_bitwise_equal_to_the_reference(case):
    problem, x0 = case
    with np.errstate(invalid="ignore"):
        got = optim.finite_diff_jacobian(problem.residual, x0)
        want = optim_reference.finite_diff_jacobian(problem.residual, x0)
    assert _bits(got) == _bits(want)


def test_finite_diff_jacobian_evaluates_only_the_perturbed_points(rng):
    a = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    got, want = [], []
    optim.finite_diff_jacobian(lambda v: got.append(v.copy()) or a @ v, x)
    optim_reference.finite_diff_jacobian(lambda v: want.append(v.copy()) or a @ v, x)
    assert len(got) == 2 * x.size
    assert np.array_equal(got, want[1:])  # the reference's first call is the centre
    assert optim.finite_diff_jacobian(lambda v: a[:, :0] @ v, np.zeros(0)).shape == (3, 0)
