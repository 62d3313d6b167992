"""Post-estimation summaries and the simulation study runner.

Input elasticities and returns to scale per observation, output-weighted
industry productivity aggregates, and a replicated simulate-estimate
study reporting mean, RMSE and MAE per parameter.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import io
import os
import types

import numpy as np

from .bootstrap import NUMERICAL_FAILURES, pack_parameters, parameter_names
from .panel import PanelDataset, _write_table
from .simulate import DgpConfig, generate_panel
from .translog import EstimateOptions, TranslogParams, estimate

__all__ = [
    "ElasticityRecord",
    "AggregateProductivity",
    "McStudyReport",
    "elasticities",
    "aggregate_productivity",
    "monte_carlo_study",
]


@dataclasses.dataclass
class ElasticityRecord:
    """Output elasticities of each input; rts is their sum by construction."""

    capital: np.ndarray
    labor: np.ndarray
    material: np.ndarray
    rts: np.ndarray


def elasticities(params: TranslogParams, k, m, l, phi) -> ElasticityRecord:
    """Pointwise input elasticities of the restricted translog.

    ``labor + material`` is free of the curvature term, so it equals
    ``beta_l + beta_m`` everywhere.
    """
    gap = np.asarray(m, dtype=float) - np.asarray(phi, dtype=float) - np.asarray(l, dtype=float)
    capital = params.beta_k + params.beta_kk * np.asarray(k, dtype=float)
    labor = params.beta_l + params.beta_0 * gap
    material = params.beta_m - params.beta_0 * gap
    return ElasticityRecord(capital=capital, labor=labor, material=material, rts=capital + labor + material)


@dataclasses.dataclass
class AggregateProductivity:
    """Per-period output-weighted productivity series, first period at zero.

    ``labor_phi`` weights the product of the labor elasticity and phi,
    expressing labor-augmenting productivity in output terms.
    """

    years: np.ndarray
    phi: np.ndarray
    omega: np.ndarray
    labor_phi: np.ndarray


def aggregate_productivity(dataset: PanelDataset, estimate_result) -> AggregateProductivity:
    """Output-share-weighted means of phi, omega and labor-elasticity*phi.

    Works with any estimate carrying ``params``, ``phi_hat`` and
    ``omega_hat``.  Weights are ``exp(y)`` shares within each period;
    each series is normalized to zero in the first period.
    """
    params = estimate_result.params
    phi = estimate_result.phi_hat
    omega = estimate_result.omega_hat
    record = elasticities(params, dataset.k, dataset.m, dataset.l, phi)
    years = np.unique(dataset.year)
    out = np.zeros((3, years.size))
    output = np.exp(dataset.y)
    for j, year in enumerate(years):
        rows = dataset.year == year
        w = output[rows] / np.sum(output[rows])
        out[0, j] = np.sum(w * phi[rows])
        out[1, j] = np.sum(w * omega[rows])
        out[2, j] = np.sum(w * record.labor[rows] * phi[rows])
    out -= out[:, :1]
    return AggregateProductivity(years=years, phi=out[0], omega=out[1], labor_phi=out[2])


@dataclasses.dataclass
class McStudyReport:
    """Mean, RMSE and MAE per parameter across simulation replications."""

    names: tuple[str, ...]
    truth: np.ndarray
    mean: np.ndarray
    rmse: np.ndarray
    mae: np.ndarray
    n_replications: int
    n_failures: int
    failures: list[str]
    config: DgpConfig
    seed: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        columns = [self.names, self.truth, self.mean, self.rmse, self.mae]
        _write_table(buf, ("parameter", "truth", "mean", "rmse", "mae"), columns, "\n")
        return buf.getvalue()

    def to_text(self) -> str:
        width = max(len(n) for n in self.names)
        lines = [
            "%-*s %12s %12s %12s %12s" % (width, "parameter", "truth", "mean", "rmse", "mae"),
        ]
        for i, name in enumerate(self.names):
            lines.append(
                "%-*s %+12.6f %+12.6f %12.6f %12.6f"
                % (width, name, self.truth[i], self.mean[i], self.rmse[i], self.mae[i])
            )
        lines.append(
            "replications: %d successful, %d failed" % (self.n_replications - self.n_failures, self.n_failures)
        )
        return "\n".join(lines)


def _truth_vector(config: DgpConfig) -> tuple[tuple[str, ...], np.ndarray]:
    laws = config.laws
    # simulated panels carry unnamed controls, which take PanelDataset's default names
    controls = types.SimpleNamespace(
        z_names=[f"z{j}" for j in range(laws.rho_phi_2.size)],
        x_names=[f"x{j}" for j in range(laws.rho_omega_2.size)],
    )
    params = dataclasses.replace(config.params, theta=config.theta)
    return parameter_names(controls), pack_parameters(params, laws)


def _mc_replicate(config: DgpConfig, seed: int, options: EstimateOptions):
    try:
        dataset, _ = generate_panel(config, seed=seed)
        result = estimate(dataset, options)
        return "ok", pack_parameters(result.params, result.laws)
    except NUMERICAL_FAILURES as exc:
        return "fail", str(exc)


def monte_carlo_study(
    config: DgpConfig,
    replications: int,
    options: EstimateOptions | None = None,
    *,
    seed: int = 0,
    threads: int = 1,
) -> McStudyReport:
    """Simulate and re-estimate ``replications`` times with derived seeds.

    Per-replication seeds are hashed out of the master seed, so parallel
    and sequential execution give identical reports; at most
    ``min(threads, replications, os.cpu_count())`` worker processes start.
    Failures are excluded from the statistics and counted; every
    replication failing is an error.  Only translog panels are accepted: the study fits the
    translog estimator and reports the translog truth.
    """
    if config.technology != "translog":
        raise ValueError(f"the study fits the translog estimator; {config.technology!r} data have no translog truth")
    if replications < 1:
        raise ValueError("need at least one replication")
    options = options or EstimateOptions()
    options.validate()  # a bad setting is the caller's error, not a failed replication
    names, truth = _truth_vector(config)
    rep_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(replications, dtype=np.uint64)]

    # seeds are per replication, so the worker count changes no report
    workers = min(threads, replications, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_mc_replicate, [config] * replications, rep_seeds, [options] * replications))
    else:
        outcomes = [_mc_replicate(config, s, options) for s in rep_seeds]

    draws = [vec for status, vec in outcomes if status == "ok"]
    failures = [f"replication {i}: {msg}" for i, (status, msg) in enumerate(outcomes) if status == "fail"]
    if not draws:
        raise ValueError("all replications failed: " + failures[0])
    stacked = np.vstack(draws)
    if stacked.shape[1] != truth.size:
        raise ValueError("estimate parameter layout does not match the configured truth")
    err = stacked - truth[None, :]
    return McStudyReport(
        names=names,
        truth=truth,
        mean=np.mean(stacked, axis=0),
        rmse=np.sqrt(np.mean(err**2, axis=0)),
        mae=np.mean(np.abs(err), axis=0),
        n_replications=replications,
        n_failures=len(failures),
        failures=failures,
        config=config,
        seed=seed,
    )
