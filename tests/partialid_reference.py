"""Reference copy of the identified-set grid sweep.

``identified_set`` is the straightforward sweep: the grid is spelled out
with ``np.meshgrid`` and ``np.column_stack``, the loadings are stacked
per candidate, a candidate is feasible when its smallest statistic clears
the slack, and each bound is a min/max over the feasible candidates' rows.
``prodsys.partialid.identified_set`` reads the grid as a tensor instead;
``test_partialid.py`` requires both to return equal results, with the
candidates and statistics bitwise equal.

The function bodies are kept exactly as they were when the faster version
replaced them.  :func:`moment_statistic` is the statistic of one candidate
at one cutoff, formed directly: the pointwise check of the sweep's rows.

:func:`former_sigmoid` and :func:`former_estimate_propensity` are the
propensity fit as it was before its Newton loop wrote the weighted design a
column at a time and its logistic function stopped gathering through
boolean masks; ``test_partialid.py`` requires the live fit's bytes to equal
theirs.
"""

from __future__ import annotations

import numpy as np

from prodsys.panel import PanelDataset
from prodsys.partialid import (
    GRID_AXES,
    GRID_EDGE_WARNING,
    IdentifiedSet,
    MomentInequalityConfig,
    _features,
    _propensity_design,
    _signed_weights,
    cutoff_values,
    default_grid,
    estimate_propensity,
)
from prodsys.translog import estimate


def _candidate_loadings(beta_k, beta_kk, beta_l, beta_m, beta_0):
    """Coefficients of ybar on the features (1, k, k^2/2, m, S^2)."""
    delta = beta_l + beta_m
    return np.stack(
        [
            beta_l**2 / (2.0 * beta_0),
            beta_k,
            beta_kk,
            delta,
            -(delta**2) / (2.0 * beta_0),
        ],
        axis=-1,
    )


def former_sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def former_estimate_propensity(dataset: PanelDataset, cutoff: float, *, degree: int = 1) -> np.ndarray:
    """Logistic probability that current materials exceed the cutoff.

    Fitted on lag-pair rows against the lagged conditioning variables;
    returns one score per pair, clipped to [0.01, 0.99].  Raises on a
    degenerate or completely separated outcome with a recommendation to
    pick a coarser cutoff.
    """
    pairs = dataset.lag_pairs()
    outcome = (dataset.m[pairs.cur] > cutoff).astype(float)
    if outcome.min() == outcome.max():
        raise ValueError(
            "cutoff puts every observation on one side; use a coarser cutoff nearer the interior quantiles"
        )
    design = _propensity_design(dataset, degree)
    coef = np.zeros(design.shape[1])
    for _ in range(100):
        p = former_sigmoid(design @ coef)
        w = p * (1.0 - p)
        grad = design.T @ (outcome - p)
        hess = design.T @ (design * w[:, None])
        hess[np.diag_indices_from(hess)] += 1e-10
        step = np.linalg.solve(hess, grad)
        coef = coef + step
        if np.max(np.abs(step)) < 1e-10:
            break
        if np.max(np.abs(coef)) > 40.0:
            raise ValueError(
                "propensity fit diverged (complete separation); use a coarser cutoff"
            )
    p = former_sigmoid(design @ coef)
    # perfectly classified outcomes mean the IPW weights are unbounded
    if np.min(np.abs(outcome - p)) > 0 and np.max(np.abs(outcome - p)) < 1e-6:
        raise ValueError("propensity scores separate the sample completely; use a coarser cutoff")
    return np.clip(p, 0.01, 0.99)


def moment_statistic(dataset: PanelDataset, beta, cutoff: float, scores: np.ndarray) -> float:
    """IPW mean difference of (y - ybar) between high- and low-materials firms.

    ``beta`` is (beta_k, beta_kk, beta_l, beta_m, beta_0).  Nonnegative
    at the true coefficients when material demand rises with both
    productivities.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (5,):
        raise ValueError("candidate must be (beta_k, beta_kk, beta_l, beta_m, beta_0)")
    if beta[4] == 0.0:
        raise ValueError("candidate beta_0 must be nonzero")
    cur = dataset.lag_pairs().cur
    resid = dataset.y[cur] - _features(dataset) @ _candidate_loadings(*beta)
    w = _signed_weights(dataset, cutoff, scores)
    return float(np.mean(resid * w))


def identified_set(dataset: PanelDataset, config: MomentInequalityConfig) -> IdentifiedSet:
    """Evaluate every grid candidate against every cutoff inequality.

    The statistic is affine in the candidate loadings, so the data enter
    only through one scalar and one feature-moment vector per cutoff;
    the grid sweep is a matrix product and its result does not depend on
    evaluation order.  An empty feasible set is a valid outcome and is
    flagged, not raised.
    """
    config.validate()
    warnings: list[str] = []
    grid = config.grid
    if grid is None:
        point = estimate(dataset)
        grid = default_grid(point.params)
        warnings.extend(point.warnings)
    axes = [np.asarray(grid[name], dtype=float) for name in GRID_AXES]
    if np.any(axes[GRID_AXES.index("beta_0")] == 0.0):
        raise ValueError("grid contains beta_0 = 0, where the proxy is undefined")

    cur = dataset.lag_pairs().cur
    n_pairs = cur.size
    features = _features(dataset)
    levels = tuple(float(v) for v in config.cutoffs)
    cutoffs = cutoff_values(dataset, levels)
    a_terms = np.empty(len(cutoffs))
    b_terms = np.empty((len(cutoffs), 5))
    for j, cutoff in enumerate(cutoffs):
        scores = estimate_propensity(dataset, float(cutoff), degree=config.propensity_degree)
        w = _signed_weights(dataset, float(cutoff), scores)
        a_terms[j] = np.mean(dataset.y[cur] * w)
        b_terms[j] = features.T @ w / n_pairs

    mesh = np.meshgrid(*axes, indexing="ij")
    candidates = np.column_stack([g.reshape(-1) for g in mesh])
    loadings = _candidate_loadings(
        candidates[:, 0], candidates[:, 1], candidates[:, 2], candidates[:, 3], candidates[:, 4]
    )
    statistics = a_terms[None, :] - loadings @ b_terms.T

    slack = config.slack
    if slack is None:
        slack = config.slack_scale * float(n_pairs) ** (-1.0 / 3.0)
    feasible = np.min(statistics, axis=1) >= -slack
    n_feasible = int(np.sum(feasible))
    bounding_box = {}
    at_grid_edge = {}
    for i, name in enumerate(GRID_AXES):
        if n_feasible:
            coord = candidates[feasible, i]
            lo, hi = float(np.min(coord)), float(np.max(coord))
        else:
            lo, hi = np.nan, np.nan
        bounding_box[name] = (lo, hi)
        at_grid_edge[name] = (bool(lo == np.min(axes[i])), bool(hi == np.max(axes[i])))
    if n_feasible == 0:
        warnings.append("no grid candidate satisfies all inequalities")
    edges = [f"{name} {end}" for name in GRID_AXES for end, flag in zip(("low", "high"), at_grid_edge[name]) if flag]
    if edges:
        warnings.append(f"{GRID_EDGE_WARNING}: {', '.join(edges)}; widen the grid there to find those bounds")
    return IdentifiedSet(
        candidates=candidates,
        statistics=statistics,
        feasible=feasible,
        cutoff_levels=levels,
        cutoffs=cutoffs,
        slack=float(slack),
        volume_fraction=n_feasible / candidates.shape[0],
        bounding_box=bounding_box,
        at_grid_edge=at_grid_edge,
        empty=n_feasible == 0,
        n_pairs=n_pairs,
        warnings=warnings,
    )
