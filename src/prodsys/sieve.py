"""Polynomial-sieve variants of the productivity laws of motion.

The parametric estimator assumes linear laws for ``phi`` and ``omega``.
Here the conditional means are approximated by polynomial series in
(lagged productivity, controls), with the approximation degree chosen by
generalized cross-validation.

``sieve_estimate`` runs the parametric steps two and three once.  A law of
degree one reports that fit, so degree one equals the sequential
``estimate(refine="none")``, not the jointly refined ``estimate()``.  When
a degree is ``"auto"`` or above one, the parametric fit is also refined
jointly: the sequential step-two solution can sit in the degenerate
rescaling valley (see ``translog.system_refine``), where the proxied
series is an artifact and its conditional mean looks nonlinear.  The
refined point is the reference at which degrees are chosen and the series
bases are scaled; the series steps then fit only the laws of degree two
or more, each in the basis it is handed.

The series laws enter the same residuals and Jacobians as the linear
ones, defined once in :mod:`prodsys.moments`; a :class:`SieveBasis` is
the law object there.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import numbers

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
    EstimateOptions,
    ProductivityLaws,
    Step1Result,
    TranslogParams,
    _omega_law_data,
    _omega_law_nls,
    _phi_law_gmm,
    _point_estimate,
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

    ``exponents`` holds one row of non-negative integer powers per term,
    one column per input.  Each mapped input's powers, up to the largest
    exponent, are formed by repeated multiplication, and a term is the
    product of its inputs' powers, taken in input order.
    """

    dim: int
    degree: int
    exponents: np.ndarray
    include_intercept: bool
    centers: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))
    scales: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        expo = self.exponents
        if expo.ndim != 2 or expo.shape[1] != self.dim or expo.dtype.kind not in "iu" or np.any(expo < 0):
            raise ValueError(f"exponents must be a table of non-negative integers with {self.dim} columns")
        if self.centers.size == 0:
            self.centers = np.zeros(self.dim)
        if self.scales.size == 0:
            self.scales = np.ones(self.dim)
        # one of each per input: numpy would broadcast a single one over every input
        if self.centers.shape != (self.dim,) or self.scales.shape != (self.dim,):
            raise ValueError(f"centers and scales must hold one value per input ({self.dim})")
        if not np.all(np.isfinite(self.scales) & (self.scales > 0)):
            raise ValueError("scales must be finite and positive")

    @property
    def n_terms(self) -> int:
        return self.exponents.shape[0]

    def evaluate(self, u) -> np.ndarray:
        return self._monomials(u, self.exponents)

    def evaluate_deriv(self, u, coord: int) -> np.ndarray:
        """Derivative of every term in the raw input ``u[:, coord]``."""
        if not 0 <= coord < self.dim:
            raise ValueError(f"coord {coord} outside the basis's {self.dim} inputs")
        expo = self.exponents
        down = expo.copy()
        down[:, coord] = np.maximum(down[:, coord] - 1, 0)
        vals = self._monomials(u, down)
        vals *= expo[:, coord] / self.scales[coord]
        return vals

    def _monomials(self, u, exponents: np.ndarray) -> np.ndarray:
        """``prod_d z_d ** exponents[t, d]`` for every row of ``u``, ``z`` the mapped input.

        The powers come from a per-input table of repeated products:
        numpy's ``**`` with an array exponent is an order of magnitude
        slower, and not correctly rounded on every CPU.
        """
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim} input columns, got {u.shape[1]}")
        z = ((u - self.centers) / self.scales).T
        table = np.empty((self.dim, int(exponents.max(initial=0)) + 1, z.shape[1]))
        table[:, 0] = 1.0
        for p in range(1, table.shape[1]):
            np.multiply(table[:, p - 1], z, out=table[:, p])
        out = np.empty((z.shape[1], exponents.shape[0]))
        for t, expo in enumerate(exponents.tolist()):
            factors = [table[d, e] for d, e in enumerate(expo) if e] or [table[0, 0]]
            out[:, t] = functools.reduce(np.multiply, factors)
        return out

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


def _degree(value, what: str) -> int:
    """``value`` as a series degree: an integer of at least 1, never truncated."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be an integer of at least 1, got {value!r}")
    return int(value)


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
    evaluation.  Every candidate must be an integer of at least 1.

    Returns ``(degree, gcv_by_degree, warnings)``.
    """
    target = np.ravel(np.asarray(target, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[0] != target.size:
        inputs = inputs.T
    n, dim = inputs.shape
    degrees = sorted(_degree(d, "candidate degree") for d in degrees)
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


def _linear_term_index(basis: SieveBasis, coord: int) -> int:
    e = np.zeros(basis.dim, dtype=int)
    e[coord] = 1
    hits = np.where((basis.exponents == e).all(axis=1))[0]
    if hits.size != 1:
        raise ValueError("basis lacks a unique linear term")
    return int(hits[0])


def sieve_step2_gmm(
    dataset: PanelDataset, step1: Step1Result, basis: SieveBasis, options: EstimateOptions
) -> SieveStep2Result:
    """Series version of the second step, with the phi law in ``basis``.

    The law ``r_phi(phi_lag, Z_lag)`` is a polynomial without intercept
    (zero stays a fixed point of the law, as in the linear normalization),
    so ``basis`` has no constant term and no centering.  The instruments
    are expanded to the basis degree.
    """
    delta = step1.delta_lm
    arrays = _step2_arrays(dataset)
    warnings: list[str] = []

    q, qnames = build_sieve_instruments(dataset, degree=basis.degree, kind=options.instruments)
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
    result = minimize_gmm(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)

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
        degree=basis.degree,
        gcv=None,
        phi_hat=phi_hat,
        objective=result.objective,
        converged=result.converged,
        n_pairs=n_pairs,
        instrument_names=qnames,
        warnings=warnings,
    )


def sieve_step3_nls(
    dataset: PanelDataset, step1: Step1Result, step2, basis: SieveBasis, options: EstimateOptions
) -> SieveStep3Result:
    """Series version of the third step, with the omega law in ``basis``.

    ``step2`` is any result carrying ``beta_0`` and ``beta_l``: phi, the
    purged output and the omega proxy are all formed on phi proxied at that
    point with ``step1.delta_lm``.  The law ``r_omega(omega_lag, X_lag)`` is
    a polynomial with intercept, so ``basis`` has a constant term.
    """
    ystar, mstar = _omega_law_data(dataset, step2.beta_0, step2.beta_l, step1.delta_lm, step1.theta, options.proxy)
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    if cur.size < 3 + basis.dim:
        raise ValueError("too few usable lag pairs for step three")

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
    result = minimize_nls(problem, starts[0], starts=starts[1:], grad_tol=options.grad_tol, max_iter=options.max_iter)

    warnings = []
    if not result.converged:
        warnings.append(f"sieve step-3 NLS did not converge: {result.status}")
    return SieveStep3Result(
        beta_k=float(result.params[0]),
        beta_kk=float(result.params[1]),
        coef=np.asarray(result.params[2:], dtype=float),
        basis=basis,
        degree=basis.degree,
        gcv=None,
        objective=result.objective,
        converged=result.converged,
        proxy=options.proxy,
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
    dataset: PanelDataset, *, degree="auto", degrees=(1, 2, 3), options: EstimateOptions | None = None
) -> SieveEstimate:
    """Three-step estimation with series laws of motion.

    ``degree`` sets both laws' degree, an integer of at least 1, or
    ``"auto"`` picks each from ``degrees`` by GCV at the refined parametric
    point.  A law of degree one is the parametric step's fit; for omega that
    is step three at the series phi point when phi is of a higher degree.
    ``laws`` on the returned estimate is populated only when both degrees
    are one.  The series steps run sequentially; there is no joint
    refinement of nonlinear laws.

    The one ``options`` object (default ``EstimateOptions()``) reaches every
    fit.  Degrees are picked at the refined point, so ``refine="none"`` is
    refused.
    """
    opts = options or EstimateOptions()
    opts.validate()
    if opts.refine != "system":
        raise ValueError(f"refine must be system: the sieve picks degrees at the refined point; got {opts.refine!r}")
    if degree != "auto":
        degree = _degree(degree, 'sieve degree (or "auto")')
    else:  # refused before any fit, not after the refinement
        degrees = [_degree(d, "candidate degree") for d in degrees]
    step1 = step1_cost_share(dataset)
    p2 = step2_gmm(dataset, step1, opts)
    p3 = step3_nls(dataset, step1, p2, opts)

    degree_phi = degree_omega = degree
    gcv_phi = gcv_omega = None
    warn_phi: list[str] = []
    warn_omega: list[str] = []
    if degree == "auto" or degree > 1:
        ref = system_refine(dataset, step1, p2, p3, opts)
        # both laws' series at the reference: targets and (lagged) inputs
        delta = step1.delta_lm
        ml_cur, ml_prev, sl_cur, sl_prev, z_prev = _step2_arrays(dataset)
        phi_cur = phi_proxy(ml_cur, sl_cur, ref.beta_0, ref.beta_l, delta)
        phi_inputs = np.column_stack([phi_proxy(ml_prev, sl_prev, ref.beta_0, ref.beta_l, delta), z_prev])
        mstar = omega_proxy(dataset, ref.beta_0, ref.beta_l, delta, step1.theta, which=opts.proxy)
        omega = mstar - ref.beta_k * dataset.k - ref.beta_kk * 0.5 * dataset.k**2
        pairs = dataset.lag_pairs()
        omega_inputs = np.column_stack([omega[pairs.prev], dataset.x[pairs.prev]])
        if degree == "auto":
            degree_phi, gcv_phi, warn_phi = gcv_select_degree(phi_cur, phi_inputs, degrees, intercept=False)
            degree_omega, gcv_omega, warn_omega = gcv_select_degree(
                omega[pairs.cur], omega_inputs, degrees, intercept=True
            )

    if degree_phi == 1:
        s2 = SieveStep2Result(
            beta_0=p2.beta_0, beta_l=p2.beta_l, beta_m=p2.beta_m,
            coef=np.concatenate(([p2.rho_phi_1], p2.rho_phi_2)), basis=build_basis(1 + dataset.z.shape[1], 1),
            degree=1, gcv=None, phi_hat=p2.phi_hat, objective=p2.objective, converged=p2.converged,
            n_pairs=p2.n_pairs, instrument_names=p2.instrument_names, warnings=p2.warnings,
        )
    else:
        # scale only: centering would break the r(0) = 0 normalization
        basis = dataclasses.replace(build_basis(phi_inputs.shape[1], degree_phi), scales=_guarded_std(phi_inputs))
        s2 = sieve_step2_gmm(dataset, step1, basis, opts)
    s2 = dataclasses.replace(s2, gcv=gcv_phi, warnings=warn_phi + s2.warnings)

    if degree_omega == 1:
        par = p3 if degree_phi == 1 else step3_nls(dataset, step1, s2, opts)
        s3 = SieveStep3Result(
            beta_k=par.beta_k, beta_kk=par.beta_kk,
            coef=np.concatenate(([par.rho_omega_0, par.rho_omega_1], par.rho_omega_2)),
            basis=build_basis(1 + dataset.x.shape[1], 1, intercept=True), degree=1, gcv=None,
            objective=par.objective, converged=par.converged, proxy=opts.proxy, n_pairs=par.n_pairs,
            warnings=par.warnings,
        )
    else:
        basis = dataclasses.replace(
            build_basis(omega_inputs.shape[1], degree_omega, intercept=True),
            centers=np.mean(omega_inputs, axis=0), scales=_guarded_std(omega_inputs),
        )
        s3 = sieve_step3_nls(dataset, step1, s2, basis, opts)
    s3 = dataclasses.replace(s3, gcv=gcv_omega, warnings=warn_omega + s3.warnings)

    params = TranslogParams(
        beta_k=s3.beta_k, beta_kk=s3.beta_kk, beta_l=s2.beta_l, beta_m=s2.beta_m,
        beta_0=s2.beta_0, theta=step1.theta,
    )
    laws = _point_estimate(step1, p2, p3)[1] if degree_phi == degree_omega == 1 else None
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
