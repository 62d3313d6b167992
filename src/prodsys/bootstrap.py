"""Wild residual block bootstrap for the three-step estimator.

Residuals from each estimation step are scaled by a single two-point
weight per firm (the block), synthetic outcomes are rebuilt step by step
(the revenue ratio directly, the flexible-input gap through its
autoregressive recursion, the purged output through the omega law), and
the full estimator is re-run on each synthetic panel.  Labor shares and
all right-hand-side observables stay at their observed values by design;
only the step outcomes are resampled.  The step residuals and the fitted
omega law are the ones defined in :mod:`prodsys.moments`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .moments import flexible_output, omega_law_coef, omega_law_columns, phi_law_coef, phi_law_columns, phi_proxy
from .panel import LagPairs, PanelDataset
from .translog import (
    TranslogEstimate,
    _point_estimate,
    _step3_result,
    _omega_law_data,
    _step2_arrays,
    omega_proxy,
    step1_cost_share,
    step2_gmm,
    step3_core,
    system_refine,
)

__all__ = [
    "GOLDEN",
    "GOLDEN_PROB",
    "BootstrapConfig",
    "BootstrapResult",
    "ResidualSet",
    "mammen_weights",
    "compute_residuals",
    "synthetic_outcomes",
    "bootstrap_replicate",
    "parameter_names",
    "pack_parameters",
    "run_bootstrap",
]

#: two-point weight values: golden ratio and its negative reciprocal,
#: giving E[w] = 0, E[w^2] = 1
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
GOLDEN_PROB = (np.sqrt(5.0) - 1.0) / (2.0 * np.sqrt(5.0))

#: exceptions that count a replicate as failed; anything else is a bug and
#: propagates (``ValueError`` covers ``numpy.linalg.LinAlgError``)
NUMERICAL_FAILURES = (ValueError, RuntimeError, FloatingPointError)


@dataclasses.dataclass
class BootstrapConfig:
    """Replication count B, master seed and reporting levels.

    ``weight_override`` fixes every firm's weight to a constant, which is
    only useful for testing (1 reproduces the original sample relations,
    0 gives the noiseless refit).
    """

    n_reps: int = 200
    seed: int = 0
    weight_override: float | None = None
    levels: tuple = (0.90, 0.95, 0.99)

    def validate(self) -> None:
        if self.n_reps < 1:
            raise ValueError("need at least one replication")
        for level in self.levels:
            if not 0.0 < level < 1.0:
                raise ValueError(f"interval level {level} outside (0, 1)")
        if self.weight_override is not None and not np.isfinite(self.weight_override):
            raise ValueError(f"weight_override must be finite, got {self.weight_override}")


@dataclasses.dataclass
class BootstrapResult:
    """Draws are stacked replicate parameter vectors, one row per success."""

    draws: np.ndarray
    names: tuple[str, ...]
    standard_errors: np.ndarray
    intervals: dict[float, tuple[np.ndarray, np.ndarray]]
    n_reps: int
    n_failures: int
    failures: list[str]
    unreliable: bool
    warnings: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ResidualSet:
    """Recentered step residuals at the reported point estimates.

    ``eta`` lives on every row, ``zeta_phi`` and ``resid_omega`` on the lag
    pairs.  ``mstar`` is the omega proxy on the observed data at the
    reported point (:func:`~prodsys.translog.omega_proxy`, finite on every
    row), reused by every replicate when rebuilding the purged output.
    """

    eta: np.ndarray
    zeta_phi: np.ndarray
    resid_omega: np.ndarray
    mstar: np.ndarray


def mammen_weights(firm_ids, seed=None) -> np.ndarray:
    """One two-point weight per firm.

    ``firm_ids`` is an integer count or a sequence of per-observation
    identifiers; with a sequence the result has one entry per distinct
    identifier, counted by ``str()`` as :class:`PanelDataset` codes them
    (``1`` and ``1.0`` are two firms), so expanding by firm code keeps the
    weight constant within firm.  Values are (1+sqrt(5))/2 with probability
    (sqrt(5)-1)/(2 sqrt(5)) and (1-sqrt(5))/2 otherwise.
    """
    if np.ndim(firm_ids) == 0:
        n = int(firm_ids)
    else:
        n = len(set(map(str, firm_ids)))
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n) < GOLDEN_PROB, GOLDEN, 1.0 - GOLDEN)


#: the :class:`PanelDataset` arrays a synthetic panel shares with the observed one
_SHARED_COLUMNS = ("labels", "firm", "firm_labels", "year", "k", "l", "s_l", "x", "z", "ln_price_l", "ln_price_m")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that raises on writes."""
    view = a.view()
    view.flags.writeable = False
    return view


def _omega_law_coef(params, laws) -> np.ndarray:
    """:func:`~prodsys.moments.omega_law_coef` at the reported omega-law parameters."""
    return omega_law_coef(
        np.concatenate(([params.beta_k, params.beta_kk, laws.rho_omega_0, laws.rho_omega_1], laws.rho_omega_2))
    )


def compute_residuals(dataset: PanelDataset, estimate: TranslogEstimate) -> ResidualSet:
    """Step residuals at the reported parameters, each recentered to mean zero."""
    params, laws = estimate.params, estimate.laws
    pairs = dataset.lag_pairs()
    eta = estimate.eta_hat - np.mean(estimate.eta_hat)

    alpha = np.concatenate(([params.beta_0, params.beta_l, laws.rho_phi_1], laws.rho_phi_2))
    zeta = phi_law_columns(*_step2_arrays(dataset)) @ phi_law_coef(alpha, estimate.step1.delta_lm)
    zeta = zeta - np.mean(zeta)

    ystar, mstar = _omega_law_data(
        dataset, params.beta_0, params.beta_l, estimate.step1.delta_lm, params.theta, estimate.step3.proxy,
    )
    cur, prev = pairs.cur, pairs.prev
    d = omega_law_columns(ystar[cur], dataset.k[cur], dataset.k[prev], mstar[prev], dataset.x[prev])
    resid = d @ _omega_law_coef(params, laws)
    resid = resid - np.mean(resid)
    return ResidualSet(eta=eta, zeta_phi=zeta, resid_omega=resid, mstar=mstar)


def synthetic_outcomes(dataset: PanelDataset, estimate: TranslogEstimate, residuals: ResidualSet, weights):
    """Step outcomes for one replicate, before any re-estimation.

    Returns ``(lnr_b, ml_b, ystar_b)``: the resampled revenue ratio (all
    rows), the flexible-input gap rebuilt through the phi-law recursion
    (all rows; non-pair rows keep their observed values, which also
    restarts the recursion after panel gaps), and the purged output on
    the lag pairs, in pair order.
    """
    params, laws = estimate.params, estimate.laws
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    w_obs = np.asarray(weights, dtype=float)[dataset.firm]

    lnr_b = estimate.step1.ln_theta_delta - w_obs * residuals.eta

    delta = params.beta_l + params.beta_m
    ratio = params.beta_l / params.beta_0
    slope = delta / params.beta_0
    z_term = dataset.z[prev] @ laws.rho_phi_2
    shock = w_obs[cur] * residuals.zeta_phi
    ml_b = (dataset.m - dataset.l).copy()
    s = dataset.s_l
    # pairs are ordered by (firm, year): a pair extends the chain of the pair
    # before it when its lagged row is that pair's current row, and a chain
    # restarts after a gap.  Pairs at the same depth of their chains read only
    # rows written at smaller depths, so each depth is one step across firms.
    restart = np.ones(len(pairs), dtype=bool)
    restart[1:] = prev[1:] != cur[:-1]
    depth = np.arange(len(pairs)) - np.flatnonzero(restart)[np.cumsum(restart) - 1]
    order = np.argsort(depth, kind="stable")
    for i in np.split(order, np.cumsum(np.bincount(depth))[:-1]):
        c, p = cur[i], prev[i]
        ml_b[c] = (
            -ratio + slope * s[c]
            + laws.rho_phi_1 * (ml_b[p] + ratio - slope * s[p])
            + z_term[i] + shock[i]
        )

    # the omega-law residual of a zero target is minus the fitted law
    fitted = -omega_law_columns(
        np.zeros(cur.size), dataset.k[cur], dataset.k[prev], residuals.mstar[prev], dataset.x[prev],
    ) @ _omega_law_coef(params, laws)
    ystar_b = fitted + w_obs[cur] * residuals.resid_omega
    return lnr_b, ml_b, ystar_b


def bootstrap_replicate(
    dataset: PanelDataset, estimate: TranslogEstimate, residuals: ResidualSet, weights
) -> np.ndarray:
    """Re-run the estimator on one synthetic panel; returns a parameter vector.

    The synthetic panel replaces the revenue ratio, the flexible-input
    gap (hence materials, holding labor and shares fixed) and output.
    Output is rebuilt by inverting the purged-output identity at the
    reported parameters, so that re-deriving ``y*`` on the synthetic
    panel returns exactly the resampled ``y*``; first-period rows keep
    observed output, which no step consumes.  Everything else, the index
    and lag pairs included, is the observed panel's, shared through
    read-only views, so the synthetic panel does no id work and cannot
    write to the observed arrays.  The replicate runs with the
    options the point estimate ran with (``estimate.options``).  Vector
    layout matches :func:`parameter_names`.
    """
    opts = estimate.options
    params = estimate.params
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    lnr_b, ml_b, ystar_b = synthetic_outcomes(dataset, estimate, residuals, weights)
    m_b = dataset.l + ml_b
    delta = params.beta_l + params.beta_m
    phi_rep = phi_proxy(ml_b[cur], dataset.s_l[cur], params.beta_0, params.beta_l, delta)
    y_b = dataset.y.copy()
    y_b[cur] = ystar_b + flexible_output(params.beta_0, params.beta_l, params.beta_m, m_b[cur], dataset.l[cur], phi_rep)
    # the observed panel's index, pairs and unchanged columns, through views that refuse writes
    shared = {name: _read_only(getattr(dataset, name)) for name in _SHARED_COLUMNS}
    ds_b = PanelDataset._from_index(
        y=y_b, m=m_b, ln_r=lnr_b, x_names=dataset.x_names, z_names=dataset.z_names,
        lag_pairs=LagPairs(cur=_read_only(cur), prev=_read_only(prev)), **shared,
    )

    step1_b = step1_cost_share(ds_b)
    step2_b = step2_gmm(ds_b, step1_b, opts)

    # third step: resampled y* against the omega proxy rebuilt from the
    # observed inputs at the replicate's second-step parameters
    mstar_b = omega_proxy(dataset, step2_b.beta_0, step2_b.beta_l, step1_b.delta_lm, step1_b.theta, which=opts.proxy)
    core = step3_core(ystar_b, dataset.k[cur], dataset.k[prev], mstar_b[prev], dataset.x[prev], opts)
    step3_b = _step3_result(core, proxy=opts.proxy, n_pairs=int(cur.size))
    sys_b = system_refine(ds_b, step1_b, step2_b, step3_b, opts) if opts.refine == "system" else None
    return pack_parameters(*_point_estimate(step1_b, step2_b, step3_b, sys_b))


def parameter_names(dataset: PanelDataset) -> tuple[str, ...]:
    """Column labels for replicate parameter vectors."""
    return (
        "beta_k", "beta_kk", "beta_l", "beta_m", "beta_0", "theta", "rho_phi_1",
        *[f"rho_phi_2[{name}]" for name in dataset.z_names],
        "rho_omega_0", "rho_omega_1",
        *[f"rho_omega_2[{name}]" for name in dataset.x_names],
    )


def pack_parameters(params, laws) -> np.ndarray:
    """Point estimates stacked in the layout of :func:`parameter_names`.

    ``laws=None`` (series laws, which have no linear coefficients) packs
    only the leading technology block.
    """
    technology = [params.beta_k, params.beta_kk, params.beta_l, params.beta_m, params.beta_0, params.theta]
    if laws is None:
        return np.asarray(technology, dtype=float)
    return np.concatenate(
        (
            technology,
            [laws.rho_phi_1],
            np.asarray(laws.rho_phi_2, dtype=float).ravel(),
            [laws.rho_omega_0, laws.rho_omega_1],
            np.asarray(laws.rho_omega_2, dtype=float).ravel(),
        )
    )


def run_bootstrap(dataset: PanelDataset, estimate: TranslogEstimate, config: BootstrapConfig) -> BootstrapResult:
    """B replicates with per-replicate seeds spawned from the master seed.

    Every replicate re-runs the estimator with ``estimate.options``.

    Failed replicates are recorded and skipped, never resampled; more
    than 20% failures flags the result unreliable.  Standard errors are
    sample standard deviations across successful replicates, intervals
    are equal-tailed percentile intervals at the configured levels.
    """
    config.validate()
    residuals = compute_residuals(dataset, estimate)
    names = parameter_names(dataset)
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_reps)

    rows: list[np.ndarray] = []
    failures: list[str] = []
    for b, seq in enumerate(seeds):
        if config.weight_override is not None:
            w = np.full(dataset.n_firms, float(config.weight_override))
        else:
            w = mammen_weights(dataset.n_firms, seq)
        try:
            rows.append(bootstrap_replicate(dataset, estimate, residuals, w))
        except NUMERICAL_FAILURES as exc:
            failures.append(f"replicate {b}: {exc}")
    if not rows:
        raise ValueError("all bootstrap replicates failed")

    draws = np.vstack(rows)
    warnings: list[str] = []
    unreliable = len(failures) > 0.2 * config.n_reps
    if unreliable:
        warnings.append(f"{len(failures)} of {config.n_reps} replicates failed; results unreliable")
    if draws.shape[0] < 2:
        warnings.append("single successful replicate; standard errors degenerate at zero")
        se = np.zeros(draws.shape[1])
    else:
        se = np.std(draws, axis=0, ddof=1)
    intervals = {}
    for level in config.levels:
        tail = 100.0 * (1.0 - level) / 2.0
        intervals[float(level)] = (
            np.percentile(draws, tail, axis=0),
            np.percentile(draws, 100.0 - tail, axis=0),
        )
    return BootstrapResult(
        draws=draws,
        names=names,
        standard_errors=se,
        intervals=intervals,
        n_reps=config.n_reps,
        n_failures=len(failures),
        failures=failures,
        unreliable=unreliable,
        warnings=warnings,
    )
