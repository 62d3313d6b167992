"""The series fits share one law point between a residual and its Jacobian.

Levenberg-Marquardt evaluates a Jacobian only at its latest residual
evaluation, so ``sieve.sieve_step2_gmm`` and ``sieve.sieve_step3_nls`` hand
both the point ``moments.last_point`` keeps: the basis is built once per
point.  The fits must give the bits of the former closures, which built it
at every call (``sieve_reference``), and the leaner ``SieveBasis`` products
must follow every change of the basis's fields.
"""

import dataclasses

import numpy as np
import pytest
from sieve_reference import former_step2_fit, former_step2_problem, former_step3_fit, former_step3_problem

from prodsys import sieve, translog
from prodsys.optim import NlsProblem
from prodsys.panel import PanelDataset
from prodsys.simulate import benchmark_config, generate_panel

OPTIONS = translog.EstimateOptions()


class _Captured(Exception):
    """Stops a fit once its optimizer problem is in hand."""


def _bits(*values) -> bytes:
    return b"".join(np.ascontiguousarray(v, dtype=float).tobytes() for v in values)


@pytest.fixture(scope="module", params=("plain", "modifiers"))
def fitted(request):
    """A markup-1.2 panel, with one ``x`` and one ``z`` column or none, and its steps one and two."""
    ds, _ = generate_panel(benchmark_config(n=100, seed=401, markup=1.2), seed=401)
    if request.param == "modifiers":
        rng = np.random.default_rng(5)
        ds = PanelDataset(
            firm_ids=ds.labels, years=ds.year, y=ds.y, k=ds.k, l=ds.l, m=ds.m, s_l=ds.s_l, ln_r=ds.ln_r,
            x=rng.standard_normal((ds.n_obs, 1)), z=rng.standard_normal((ds.n_obs, 1)),
            ln_price_l=ds.ln_price_l, ln_price_m=ds.ln_price_m,
        )
    step1 = translog.step1_cost_share(ds)
    return ds, step1, translog.step2_gmm(ds, step1, OPTIONS)


def _bases(ds, step1, step2, degree):
    """Both laws' bases, mapped on their inputs at step two's point as ``sieve_estimate`` maps them."""
    pairs = ds.lag_pairs()
    phi_inputs = np.column_stack([step2.phi_hat[pairs.prev], ds.z[pairs.prev]])
    mstar = translog.omega_proxy(ds, step2.beta_0, step2.beta_l, step1.delta_lm, step1.theta, which=OPTIONS.proxy)
    omega_inputs = np.column_stack([mstar[pairs.prev], ds.x[pairs.prev]])
    phi_basis = dataclasses.replace(
        sieve.build_basis(phi_inputs.shape[1], degree), scales=sieve._guarded_std(phi_inputs))
    omega_basis = dataclasses.replace(
        sieve.build_basis(omega_inputs.shape[1], degree, intercept=True),
        centers=np.mean(omega_inputs, axis=0), scales=sieve._guarded_std(omega_inputs))
    return phi_basis, omega_basis


@pytest.mark.parametrize("degree", [2, 3])
def test_series_fits_give_the_former_closures_bits(fitted, degree):
    ds, step1, step2 = fitted
    phi_basis, omega_basis = _bases(ds, step1, step2, degree)
    assert phi_basis.dim == omega_basis.dim == 1 + ds.x.shape[1]

    got2 = sieve.sieve_step2_gmm(ds, step1, phi_basis, OPTIONS)
    want2, want_phi = former_step2_fit(ds, step1, phi_basis, OPTIONS)
    assert _bits(got2.beta_0, got2.beta_l, got2.coef) == _bits(want2.params)
    assert _bits(got2.objective, got2.phi_hat) == _bits(want2.objective, want_phi)
    assert got2.converged == want2.converged

    got3 = sieve.sieve_step3_nls(ds, step1, got2, omega_basis, OPTIONS)
    want3 = former_step3_fit(ds, step1, got2, omega_basis, OPTIONS)
    assert _bits(got3.beta_k, got3.beta_kk, got3.coef) == _bits(want3.params)
    assert _bits(got3.objective) == _bits(want3.objective)
    assert got3.converged == want3.converged


def _captured(monkeypatch, step, ds, step1, step2, basis):
    """``(problem, starts)`` the fit of ``step`` hands its optimizer."""
    seen = {}

    def capture(problem, x0, *, starts, **_):
        seen["problem"], seen["starts"] = problem, [x0, *starts]
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(sieve, "minimize_gmm" if step == 2 else "minimize_nls", capture)
        with pytest.raises(_Captured):
            if step == 2:
                sieve.sieve_step2_gmm(ds, step1, basis, OPTIONS)
            else:
                sieve.sieve_step3_nls(ds, step1, step2, basis, OPTIONS)
    return seen["problem"], seen["starts"]


@pytest.mark.parametrize("step", [2, 3])
@pytest.mark.parametrize("degree", [2, 3])
def test_a_jacobian_is_never_served_a_stale_point(fitted, monkeypatch, step, degree):
    ds, step1, step2 = fitted
    basis = _bases(ds, step1, step2, degree)[step - 2]
    problem, starts = _captured(monkeypatch, step, ds, step1, step2, basis)
    if step == 2:
        former, _ = former_step2_problem(ds, step1, basis, OPTIONS)
    else:
        former, _ = former_step3_problem(ds, step1, step2, basis, OPTIONS)
    residual, jacobian, former_residual = problem.residual, problem.jacobian, former.residual

    x1 = starts[0]
    others = [x1.copy() for _ in range(3)]
    others[0][0] *= 1.01  # another point, in either coordinate
    others[1][1] *= 1.01
    others[2][2:] *= 0.5  # the same point, other law coefficients
    for x2 in others:
        # a residual at x1, then at x2, then a Jacobian at x1, and one at x2
        for fun, former_fun, x in ((residual, former_residual, x1), (residual, former_residual, x2),
                                   (jacobian, former.jacobian, x1), (jacobian, former.jacobian, x2)):
            assert _bits(fun(x)) == _bits(former_fun(x))


@pytest.mark.parametrize("step", [2, 3])
def test_a_series_fit_evaluates_its_basis_once_per_point_and_never_in_a_jacobian(fitted, monkeypatch, step):
    ds, step1, step2 = fitted
    basis = _bases(ds, step1, step2, 2)[step - 2]
    phase = [None]
    evaluations = {"residual": 0, "jacobian": 0}
    keys = []  # (phase, bytes of the first two parameters) of every call, in order
    real_evaluate = sieve.SieveBasis.evaluate

    def counted(self, u):
        if phase[0] is not None:
            evaluations[phase[0]] += 1
        return real_evaluate(self, u)

    def traced(name, fun):
        def call(x):
            keys.append((name, x[:2].tobytes()))
            phase[0] = name
            try:
                return fun(x)
            finally:
                phase[0] = None
        return call

    monkeypatch.setattr(sieve.SieveBasis, "evaluate", counted)
    if step == 2:
        real = sieve.minimize_gmm
        monkeypatch.setattr(sieve, "minimize_gmm", lambda problem, x0, **kw: real(NlsProblem(
            traced("residual", problem.residual), traced("jacobian", problem.jacobian), problem.bounds), x0, **kw))
        sieve.sieve_step2_gmm(ds, step1, basis, OPTIONS)
    else:
        real = sieve.minimize_nls
        monkeypatch.setattr(sieve, "minimize_nls", lambda problem, x0, **kw: real(NlsProblem(
            traced("residual", problem.residual), traced("jacobian", problem.jacobian), problem.bounds), x0, **kw))
        sieve.sieve_step3_nls(ds, step1, step2, basis, OPTIONS)

    new_points = sum(
        name == "residual" and (i == 0 or key != keys[i - 1][1]) for i, (name, key) in enumerate(keys))
    n_jacobians = sum(name == "jacobian" for name, _ in keys)
    assert n_jacobians > 0 and new_points > 0
    assert evaluations == {"residual": new_points, "jacobian": 0}


def _direct(basis, u, coord=None):
    """The broadcast-power form of the basis, or of its derivative in ``u[:, coord]``."""
    z = (u - basis.centers) / basis.scales
    expo = basis.exponents
    if coord is None:
        return np.prod(z[:, None, :] ** expo[None], axis=2)
    low = expo.copy()
    low[:, coord] = np.maximum(low[:, coord] - 1, 0)
    return np.prod(z[:, None, :] ** low[None], axis=2) * expo[:, coord] / basis.scales[coord]


@pytest.mark.parametrize("change", [
    lambda b: setattr(b, "scales", np.array([3.0, 0.25])),
    lambda b: setattr(b, "centers", np.array([-0.5, 2.0])),
    lambda b: setattr(b, "exponents", np.array([[0, 0], [3, 0], [1, 2], [0, 1]])),
    lambda b: b.scales.__setitem__(0, 3.0),
    lambda b: b.exponents.__setitem__((4, 0), 3),
], ids=["scales", "centers", "exponents", "scales in place", "exponents in place"])
def test_a_basis_follows_its_fields_after_an_evaluation(change):
    basis = dataclasses.replace(
        sieve.build_basis(2, 2, intercept=True), centers=np.array([0.5, -1.0]), scales=np.array([2.0, 0.5]))
    u = np.random.default_rng(3).standard_normal((7, 2))
    before = [basis.evaluate(u), basis.evaluate_deriv(u, 0), basis.evaluate_deriv(u, 1)]
    change(basis)
    after = [basis.evaluate(u), basis.evaluate_deriv(u, 0), basis.evaluate_deriv(u, 1)]
    for coord, got, old in zip((None, 0, 1), after, before):
        want = _direct(basis, u, coord)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert got.shape != old.shape or not np.allclose(got, old)
