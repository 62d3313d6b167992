"""Polynomial-sieve variants of the productivity laws of motion.

The parametric estimator assumes linear laws for ``phi`` and ``omega``.
Here the conditional means are approximated by polynomial series in
(lagged productivity, controls), with the approximation degree chosen by
generalized cross-validation.  Degree one is the linear law, so those
paths run the parametric steps: degree one equals the sequential
``estimate(refine="none")``, not the jointly refined ``estimate()``
(ROADMAP item 4(b)).

Degree selection needs a trustworthy point at which to evaluate the
proxied regressors: the sequential step-two solution can sit in the
degenerate rescaling valley (see ``translog.system_refine``), where the
proxied series is an artifact and its conditional mean looks nonlinear.
``sieve_estimate`` therefore selects degrees at the jointly refined
solution and then fixes them.

The series laws enter the same residuals and Jacobians as the linear
ones, defined once in :mod:`prodsys.moments`; a :class:`SieveBasis` is
the law object there.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .moments import (
    capital_terms,
    omega_residual,
    omega_residual_jacobian,
    phi_innovation,
    phi_innovation_jacobian,
    phi_proxy,
)
from .optim import minimize_gmm, minimize_nls
from .panel import PanelDataset
from .translog import (
    ProductivityLaws,
    Step1Result,
    TranslogParams,
    _omega_law_data,
    _omega_law_nls,
    _phi_law_gmm,
    _step2_arrays,
    build_instruments,
    omega_proxy,
    recover_productivity,
    step1_cost_share,
    step2_gmm,
    step3_nls,
    system_refine,
)

__all__ = [
    "SieveBasis",
    "SieveStep2Result",
    "SieveStep3Result",
    "SieveEstimate",
    "build_basis",
    "build_sieve_instruments",
    "gcv_select_degree",
    "sieve_step2_gmm",
    "sieve_step3_nls",
    "sieve_estimate",
]


#: relative GCV margin within which the smallest degree is preferred
GCV_TOLERANCE = 0.002


@dataclasses.dataclass
class SieveBasis:
    """Multivariate monomial basis with a recorded affine input map.

    Terms are ordered by total degree, then lexicographically within a
    degree (x before y, x^2 before xy before y^2).  Inputs are mapped
    through ``(u - centers) / scales`` before the monomials are formed, so
    the fitted function can be translated back to raw coordinates.
    """

    dim: int
    degree: int
    exponents: np.ndarray
    include_intercept: bool
    centers: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    scales: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        if self.centers.size == 0:
            self.centers = np.zeros(self.dim)
        if self.scales.size == 0:
            self.scales = np.ones(self.dim)

    @property
    def n_terms(self) -> int:
        return self.exponents.shape[0]

    def evaluate(self, u) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} input columns, got {u.shape[1]}")
        z = (u - self.centers) / self.scales
        return np.prod(z[:, None, :] ** self.exponents[None, :, :], axis=2)

    def evaluate_deriv(self, u, coord: int) -> np.ndarray:
        """Derivative of every term in the raw input ``u[:, coord]``."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        z = (u - self.centers) / self.scales
        expo = self.exponents
        down = expo.copy()
        down[:, coord] = np.maximum(down[:, coord] - 1, 0)
        vals = np.prod(z[:, None, :] ** down[None, :, :], axis=2)
        return vals * expo[:, coord] / self.scales[coord]

    def term_names(self, var_names) -> tuple[str, ...]:
        names = []
        for expo in self.exponents:
            if not expo.any():
                names.append("const")
                continue
            parts = []
            for d, e in enumerate(expo):
                if e == 1:
                    parts.append(str(var_names[d]))
                elif e > 1:
                    parts.append(f"{var_names[d]}^{e}")
            names.append("*".join(parts))
        return tuple(names)


def build_basis(dim: int, degree: int, intercept: bool = False) -> SieveBasis:
    """Monomial exponent table for all terms of total degree up to ``degree``."""
    if dim < 1 or degree < 1:
        raise ValueError("need dim >= 1 and degree >= 1")
    rows = []
    for grade in range(0 if intercept else 1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(dim), grade):
            e = np.zeros(dim, dtype=int)
            for idx in combo:
                e[idx] += 1
            rows.append(e)
    return SieveBasis(dim=dim, degree=degree, exponents=np.array(rows, dtype=int), include_intercept=intercept)


def _guarded_std(a: np.ndarray) -> np.ndarray:
    s = np.std(a, axis=0)
    return np.where(s > 0, s, 1.0)


def gcv_select_degree(target, inputs, degrees=(1, 2, 3), *, intercept: bool = False):
    """Pick the approximation degree by generalized cross-validation.

    The criterion for a candidate is ``mean((I - P)target^2) / (1 -
    n_terms/n)^2`` with ``P`` the least-squares projection on the basis
    columns.  The returned degree is the smallest whose criterion is
    within ``GCV_TOLERANCE`` (relative) of the minimum: GCV values of nested
    fits differ only by O(terms/n) noise on correctly specified data, so
    a strict argmin keeps spurious extra terms with probability that does
    not vanish with the sample size.  Rank-deficient candidate bases are
    skipped with a warning; a single candidate is returned without
    evaluation.

    Returns ``(degree, gcv_by_degree, warnings)``.
    """
    target = np.ravel(np.asarray(target, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[0] != target.size:
        inputs = inputs.T
    n, dim = inputs.shape
    degrees = sorted(int(d) for d in degrees)
    if not degrees:
        raise ValueError("no candidate degrees")
    if len(degrees) == 1:
        return degrees[0], {}, []

    # standardization never moves the projection (span-preserving for the
    # intercept case, scale-only otherwise) but keeps the Gram matrix sane
    centers = np.mean(inputs, axis=0) if intercept else np.zeros(dim)
    scales = _guarded_std(inputs)

    warnings: list[str] = []
    values: dict[int, float] = {}
    for d in degrees:
        basis = build_basis(dim, d, intercept)
        basis = dataclasses.replace(basis, centers=centers, scales=scales)
        p = basis.evaluate(inputs)
        if p.shape[1] >= n:
            warnings.append(f"degree {d}: more basis terms than observations; skipped")
            continue
        coef, _, rank, _ = np.linalg.lstsq(p, target, rcond=None)
        if rank < p.shape[1]:
            warnings.append(f"degree {d}: rank-deficient basis Gram matrix; skipped")
            continue
        resid = target - p @ coef
        values[d] = float(np.mean(resid**2) / (1.0 - p.shape[1] / n) ** 2)
    if not values:
        raise ValueError("every candidate degree was rank-deficient")
    cutoff = min(values.values()) * (1.0 + GCV_TOLERANCE)
    chosen = min(d for d, v in values.items() if v <= cutoff)
    return chosen, values, warnings


def build_sieve_instruments(dataset: PanelDataset, *, degree: int, kind: str = "default"):
    """Polynomial expansion of the step-two instruments to the sieve degree.

    Degree one returns the parametric instrument matrix unchanged; higher
    degrees replace it with every monomial of total degree up to
    ``degree`` in the non-constant instrument columns (standardized
    first: the GMM criterion with the inverse-Gram weight is invariant to
    such affine maps, but the conditioning is not).
    """
    q, names = build_instruments(dataset, kind=kind)
    if degree == 1:
        return q, names
    vars_ = q[:, 1:]
    basis = build_basis(vars_.shape[1], degree, intercept=True)
    basis = dataclasses.replace(basis, centers=np.mean(vars_, axis=0), scales=_guarded_std(vars_))
    return basis.evaluate(vars_), basis.term_names(names[1:])


@dataclasses.dataclass
class SieveStep2Result:
    beta_0: float
    beta_l: float
    beta_m: float
    coef: np.ndarray
    basis: SieveBasis
    degree: int
    gcv: dict[int, float] | None
    phi_hat: np.ndarray
    objective: float
    converged: bool
    n_pairs: int
    instrument_names: tuple[str, ...]
    warnings: list[str] = dataclasses.field(default_factory=list)

    def linear_law(self) -> tuple[float, np.ndarray]:
        """(rho_phi_1, rho_phi_2) in raw coordinates; degree one only."""
        if self.degree != 1:
            raise ValueError("law is nonlinear above degree one")
        slopes = self.coef / self.basis.scales
        return float(slopes[0]), np.asarray(slopes[1:], dtype=float)


@dataclasses.dataclass
class SieveStep3Result:
    beta_k: float
    beta_kk: float
    coef: np.ndarray
    basis: SieveBasis
    degree: int
    gcv: dict[int, float] | None
    objective: float
    converged: bool
    proxy: str
    n_pairs: int
    warnings: list[str] = dataclasses.field(default_factory=list)

    def linear_law(self) -> tuple[float, float, np.ndarray]:
        """(rho_omega_0, rho_omega_1, rho_omega_2) in raw coordinates; degree one only."""
        if self.degree != 1:
            raise ValueError("law is nonlinear above degree one")
        slopes = self.coef[1:] / self.basis.scales
        intercept = float(self.coef[0] - np.sum(slopes * self.basis.centers))
        return intercept, float(slopes[0]), np.asarray(slopes[1:], dtype=float)


def _linear_term_index(basis: SieveBasis, coord: int) -> int:
    e = np.zeros(basis.dim, dtype=int)
    e[coord] = 1
    hits = np.where((basis.exponents == e).all(axis=1))[0]
    if hits.size != 1:
        raise ValueError("basis lacks a unique linear term")
    return int(hits[0])


def _refined_reference(dataset, step1, *, proxy, instruments, grad_tol, max_iter):
    p2 = step2_gmm(dataset, step1, instruments=instruments, grad_tol=grad_tol, max_iter=max_iter)
    p3 = step3_nls(dataset, step1, p2, proxy=proxy, grad_tol=grad_tol, max_iter=max_iter)
    return system_refine(
        dataset, step1, p2, p3, proxy=proxy, instruments=instruments, grad_tol=grad_tol, max_iter=max_iter,
    )


def sieve_step2_gmm(
    dataset: PanelDataset,
    step1: Step1Result,
    *,
    degree="auto",
    degrees=(1, 2, 3),
    instruments: str = "default",
    reference=None,
    grad_tol: float = 1e-8,
    max_iter: int = 500,
) -> SieveStep2Result:
    """Series version of the second step.

    The law ``r_phi(phi_lag, Z_lag)`` is a polynomial without intercept
    (zero stays a fixed point of the law, as in the linear normalization).
    Degree one runs the parametric step and repackages it.  For higher
    degrees and for ``degree="auto"`` the proxied regressors are formed
    at ``reference`` (any object with ``beta_0``/``beta_l``); when that
    is omitted the joint refinement is run internally, since the
    sequential solution may sit in the degenerate valley where the series
    target is an artifact.
    """
    delta = step1.delta_lm
    arrays = _step2_arrays(dataset)
    ml_cur, ml_prev, sl_cur, sl_prev, z_prev = arrays
    pz = z_prev.shape[1]
    dim = 1 + pz

    warnings: list[str] = []
    gcv_table = None
    ref = reference
    if degree == "auto" or int(degree) > 1:
        if ref is None:
            ref = _refined_reference(
                dataset, step1, proxy="materials", instruments=instruments,
                grad_tol=grad_tol, max_iter=max_iter,
            )
        phi_cur_ref = phi_proxy(ml_cur, sl_cur, ref.beta_0, ref.beta_l, delta)
        phi_prev_ref = phi_proxy(ml_prev, sl_prev, ref.beta_0, ref.beta_l, delta)
        inputs_ref = np.column_stack([phi_prev_ref, z_prev])
        if degree == "auto":
            degree, gcv_table, gcv_warnings = gcv_select_degree(
                phi_cur_ref, inputs_ref, degrees, intercept=False
            )
            warnings += gcv_warnings
    degree = int(degree)

    if degree == 1:
        par = step2_gmm(dataset, step1, instruments=instruments, grad_tol=grad_tol, max_iter=max_iter)
        return SieveStep2Result(
            beta_0=par.beta_0,
            beta_l=par.beta_l,
            beta_m=par.beta_m,
            coef=np.concatenate(([par.rho_phi_1], par.rho_phi_2)),
            basis=build_basis(dim, 1, intercept=False),
            degree=1,
            gcv=gcv_table,
            phi_hat=par.phi_hat,
            objective=par.objective,
            converged=par.converged,
            n_pairs=par.n_pairs,
            instrument_names=par.instrument_names,
            warnings=warnings + par.warnings,
        )

    basis = build_basis(dim, degree, intercept=False)
    # scale only: centering would break the r(0) = 0 normalization
    basis = dataclasses.replace(basis, scales=_guarded_std(inputs_ref))

    q, qnames = build_sieve_instruments(dataset, degree=degree, kind=instruments)
    n_pairs = q.shape[0]
    if n_pairs <= q.shape[1]:
        raise ValueError("not enough lag pairs for the expanded instrument count")
    # expanded monomial Grams are poorly conditioned; an eigendecomposition
    # inverse stays symmetric PSD where inv() would not, and truncating the
    # tiny eigenvalues doubles as the pseudo-inverse fallback
    qq = q.T @ q / n_pairs
    vals, vecs = np.linalg.eigh(qq)
    keep = vals > vals[-1] * 1e-12
    if not np.all(keep):
        warnings.append(
            f"instrument Gram matrix ill-conditioned (cond={vals[-1] / max(vals[0], 1e-300):.2e}); "
            f"dropping {int(np.sum(~keep))} directions"
        )
    weight = (vecs * np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)) @ vecs.T

    args = (basis, delta, *arrays)
    problem, starts = _phi_law_gmm(
        lambda alpha: q.T @ phi_innovation(alpha, *args) / n_pairs,
        lambda alpha: q.T @ phi_innovation_jacobian(alpha, *args) / n_pairs,
        2 + _linear_term_index(basis, 0), 2 + basis.n_terms, delta, weight,
    )
    result = minimize_gmm(problem, starts[0], starts=starts[1:], grad_tol=grad_tol, max_iter=max_iter)

    beta_0, beta_l, coef = result.params[0], result.params[1], result.params[2:]
    phi_hat = phi_proxy(dataset.m - dataset.l, dataset.s_l, beta_0, beta_l, delta)
    if not result.converged:
        warnings.append(f"sieve step-2 GMM did not converge: {result.status}")

    return SieveStep2Result(
        beta_0=float(beta_0),
        beta_l=float(beta_l),
        beta_m=float(delta - beta_l),
        coef=np.asarray(coef, dtype=float),
        basis=basis,
        degree=degree,
        gcv=gcv_table,
        phi_hat=phi_hat,
        objective=result.objective,
        converged=result.converged,
        n_pairs=n_pairs,
        instrument_names=qnames,
        warnings=warnings,
    )


def sieve_step3_nls(
    dataset: PanelDataset,
    step1: Step1Result,
    step2,
    *,
    degree="auto",
    degrees=(1, 2, 3),
    proxy: str = "materials",
    reference=None,
    grad_tol: float = 1e-8,
    max_iter: int = 500,
) -> SieveStep3Result:
    """Series version of the third step.

    ``step2`` is any result carrying ``beta_0`` and ``beta_l``: phi, the
    purged output and the omega proxy are all formed on phi proxied at that
    point with ``step1.delta_lm``.  The law ``r_omega(omega_lag, X_lag)`` is
    a polynomial with intercept.  Degree one runs the parametric step and
    repackages it.  For higher degrees and ``degree="auto"``, the omega
    series used for degree selection and input scaling is formed at
    ``reference`` (any object with ``beta_0``, ``beta_l``, ``beta_k`` and
    ``beta_kk``, e.g. the joint refinement); omitted, the parametric step 3
    at the ``step2`` point fills that role.
    """
    ystar, mstar = _omega_law_data(dataset, step2.beta_0, step2.beta_l, step1.delta_lm, step1.theta, proxy)
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    dim = 1 + dataset.x.shape[1]

    warnings: list[str] = []
    gcv_table = None
    inputs_ref = None
    if degree == "auto" or int(degree) > 1:
        ref_phi = ref_omega = reference
        if reference is None:
            ref_phi = step2
            ref_omega = step3_nls(dataset, step1, step2, proxy=proxy, grad_tol=grad_tol, max_iter=max_iter)
        mstar_ref = omega_proxy(dataset, ref_phi.beta_0, ref_phi.beta_l, step1.delta_lm, step1.theta, which=proxy)
        omega_ref = mstar_ref - ref_omega.beta_k * dataset.k - ref_omega.beta_kk * 0.5 * dataset.k**2
        inputs_ref = np.column_stack([omega_ref[prev], dataset.x[prev]])
        if degree == "auto":
            degree, gcv_table, gcv_warnings = gcv_select_degree(
                omega_ref[cur], inputs_ref, degrees, intercept=True
            )
            warnings += gcv_warnings
    degree = int(degree)

    if degree == 1:
        par = step3_nls(dataset, step1, step2, proxy=proxy, grad_tol=grad_tol, max_iter=max_iter)
        return SieveStep3Result(
            beta_k=par.beta_k,
            beta_kk=par.beta_kk,
            coef=np.concatenate(([par.rho_omega_0, par.rho_omega_1], par.rho_omega_2)),
            basis=build_basis(dim, 1, intercept=True),
            degree=1,
            gcv=gcv_table,
            objective=par.objective,
            converged=par.converged,
            proxy=proxy,
            n_pairs=par.n_pairs,
            warnings=warnings + par.warnings,
        )

    if cur.size < 3 + dim:
        raise ValueError("too few usable lag pairs for step three")
    basis = build_basis(dim, degree, intercept=True)
    basis = dataclasses.replace(
        basis, centers=np.mean(inputs_ref, axis=0), scales=_guarded_std(inputs_ref)
    )

    args = (
        basis, ystar[cur], capital_terms(dataset.k[cur]), capital_terms(dataset.k[prev]),
        mstar[prev], dataset.x[prev],
    )
    problem, starts = _omega_law_nls(
        lambda gamma: omega_residual(gamma, *args),
        lambda gamma: omega_residual_jacobian(gamma, *args),
        2 + _linear_term_index(basis, 0), 2 + basis.n_terms,
        np.column_stack([args[2], np.ones(cur.size)]), ystar[cur],
    )
    result = minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=grad_tol, max_iter=max_iter)

    if not result.converged:
        warnings.append(f"sieve step-3 NLS did not converge: {result.status}")
    return SieveStep3Result(
        beta_k=float(result.params[0]),
        beta_kk=float(result.params[1]),
        coef=np.asarray(result.params[2:], dtype=float),
        basis=basis,
        degree=degree,
        gcv=gcv_table,
        objective=result.objective,
        converged=result.converged,
        proxy=proxy,
        n_pairs=int(cur.size),
        warnings=warnings,
    )


@dataclasses.dataclass
class SieveEstimate:
    params: TranslogParams
    laws: ProductivityLaws | None
    degree_phi: int
    degree_omega: int
    phi_hat: np.ndarray
    omega_hat: np.ndarray
    eta_hat: np.ndarray
    step1: Step1Result
    step2: SieveStep2Result
    step3: SieveStep3Result
    warnings: list[str] = dataclasses.field(default_factory=list)


def sieve_estimate(
    dataset: PanelDataset,
    *,
    degree="auto",
    degrees=(1, 2, 3),
    proxy: str = "materials",
    instruments: str = "default",
    grad_tol: float = 1e-8,
    max_iter: int = 500,
) -> SieveEstimate:
    """Three-step estimation with series laws of motion.

    ``laws`` on the returned estimate is populated only when both selected
    degrees are one (the series then is a linear law).  The series steps
    run sequentially; there is no joint refinement of nonlinear laws, but
    the refined parametric solution anchors degree selection and input
    scaling.
    """
    step1 = step1_cost_share(dataset)
    reference = None
    if degree == "auto" or int(degree) > 1:
        reference = _refined_reference(
            dataset, step1, proxy=proxy, instruments=instruments,
            grad_tol=grad_tol, max_iter=max_iter,
        )
    s2 = sieve_step2_gmm(
        dataset, step1, degree=degree, degrees=degrees, instruments=instruments,
        reference=reference, grad_tol=grad_tol, max_iter=max_iter,
    )
    s3 = sieve_step3_nls(
        dataset, step1, s2, degree=degree, degrees=degrees, proxy=proxy,
        reference=reference, grad_tol=grad_tol, max_iter=max_iter,
    )
    params = TranslogParams(
        beta_k=s3.beta_k, beta_kk=s3.beta_kk, beta_l=s2.beta_l, beta_m=s2.beta_m,
        beta_0=s2.beta_0, theta=step1.theta,
    )
    laws = None
    if s2.degree == 1 and s3.degree == 1:
        rho_1, rho_2 = s2.linear_law()
        om_0, om_1, om_2 = s3.linear_law()
        laws = ProductivityLaws(
            rho_phi_1=rho_1, rho_omega_0=om_0, rho_omega_1=om_1,
            rho_phi_2=rho_2, rho_omega_2=om_2,
        )
    omega_hat = recover_productivity(dataset, params, s2.phi_hat, step1.eta_hat)
    return SieveEstimate(
        params=params,
        laws=laws,
        degree_phi=s2.degree,
        degree_omega=s3.degree,
        phi_hat=s2.phi_hat,
        omega_hat=omega_hat,
        eta_hat=step1.eta_hat,
        step1=step1,
        step2=s2,
        step3=s3,
        warnings=s2.warnings + s3.warnings,
    )
