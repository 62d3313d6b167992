"""Solver behavior on problems with known closed-form answers."""

import numpy as np
import pytest

from prodsys.optim import (
    GmmProblem,
    NlsProblem,
    _psd_sqrt,
    check_gradient,
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
        assert check_gradient(fun, jac, x) < 1e-6


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
