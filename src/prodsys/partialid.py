"""Set identification of the translog coefficients under market power.

With monopolistic competition the revenue-share step only recovers the
flexible-input coefficient sum scaled by the markup, so no step of the
point estimator identifies the technology.  The labor-augmenting term
can still be concentrated out through the input-ratio proxy, leaving
output minus a known function of observables equal to the factor-neutral
unobservables.  Because material demand is increasing in both
productivities, high-materials firms are more productive on average, and
an inverse-propensity-weighted mean difference between high- and
low-materials firms must be nonnegative at the true coefficients.  The
identified set collects the candidates that satisfy the inequality at
every cutoff.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .panel import PanelDataset
from .translog import TranslogParams, estimate

__all__ = [
    "GRID_AXES",
    "GRID_EDGE_WARNING",
    "MomentInequalityConfig",
    "IdentifiedSet",
    "cutoff_values",
    "estimate_propensity",
    "moment_statistic",
    "default_grid",
    "identified_set",
]

#: candidate coordinate order used throughout
GRID_AXES = ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0")

#: the stable opening of the warning that some bound is the grid's end
GRID_EDGE_WARNING = "identified set reaches the grid edge"

# half-width floors keep the default grid wide enough to cover the truth
# when a coordinate's (markup-biased) point estimate sits near zero
_HALF_WIDTH_FLOOR = {
    "beta_k": 0.30,
    "beta_kk": 0.05,
    "beta_l": 0.10,
    "beta_m": 0.20,
    "beta_0": 0.05,
}


@dataclasses.dataclass
class MomentInequalityConfig:
    """Cutoff quantile levels, candidate grid, slack and propensity settings.

    ``grid`` maps coordinate names to 1-D candidate arrays; ``None``
    builds the default grid around a point estimate of the dataset.
    ``slack`` of ``None`` uses ``slack_scale * N**(-1/3)`` with N the
    number of usable lag pairs.  ``propensity_degree`` expands the
    conditioning variables polynomially before the logistic fit.
    """

    cutoffs: tuple = (0.25, 0.5, 0.75)
    grid: dict | None = None
    slack: float | None = None
    slack_scale: float = 1.0
    propensity_degree: int = 1

    def validate(self) -> None:
        if len(self.cutoffs) == 0:
            raise ValueError("need at least one cutoff level")
        for level in self.cutoffs:
            if not 0.0 < level < 1.0:
                raise ValueError(f"cutoff quantile level {level} outside (0, 1)")
        if self.grid is not None:
            if set(self.grid) != set(GRID_AXES):
                raise ValueError(f"grid must have exactly the axes {GRID_AXES}")
            for name, values in self.grid.items():
                if np.asarray(values).size == 0:
                    raise ValueError(f"empty grid axis {name}")
        if self.slack is not None and self.slack < 0:
            raise ValueError("slack must be nonnegative")
        if self.slack_scale < 0:
            raise ValueError("slack scale must be nonnegative")
        if self.propensity_degree < 1:
            raise ValueError("propensity degree must be at least 1")


@dataclasses.dataclass
class IdentifiedSet:
    """Grid candidates with per-cutoff statistics and feasibility flags.

    ``candidates`` has one row per grid point in ``GRID_AXES`` order;
    ``statistics`` one column per cutoff.  A candidate is feasible when
    its smallest statistic is at least ``-slack``.  ``bounding_box``
    gives per-coordinate (min, max) over the feasible points, and
    ``at_grid_edge`` per coordinate whether each of those two bounds is the
    grid's own end on that axis, where the set may go on past the grid.
    """

    candidates: np.ndarray
    statistics: np.ndarray
    feasible: np.ndarray
    cutoff_levels: tuple
    cutoffs: np.ndarray
    slack: float
    volume_fraction: float
    bounding_box: dict
    at_grid_edge: dict
    empty: bool
    n_pairs: int
    warnings: list[str] = dataclasses.field(default_factory=list)


def cutoff_values(dataset: PanelDataset, levels) -> np.ndarray:
    """Material-log cutoffs at the given quantile levels over lag-pair rows."""
    pairs = dataset.lag_pairs()
    return np.quantile(dataset.m[pairs.cur], np.asarray(levels, dtype=float))


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _propensity_design(dataset: PanelDataset, degree: int) -> np.ndarray:
    """Conditioning variables at the lagged observation: (1, k, x, z).

    Homogeneous prices carry no cross-sectional information and are
    omitted.  ``degree > 1`` appends elementwise powers of the
    non-constant columns.
    """
    pairs = dataset.lag_pairs()
    prev = pairs.prev
    cols = [dataset.k[prev][:, None]]
    if dataset.x.shape[1]:
        cols.append(dataset.x[prev])
    if dataset.z.shape[1]:
        cols.append(dataset.z[prev])
    base = np.hstack(cols)
    blocks = [np.ones((base.shape[0], 1)), base]
    for power in range(2, degree + 1):
        blocks.append(base**power)
    return np.hstack(blocks)


def estimate_propensity(dataset: PanelDataset, cutoff: float, *, degree: int = 1) -> np.ndarray:
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
        p = _sigmoid(design @ coef)
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
    p = _sigmoid(design @ coef)
    # perfectly classified outcomes mean the IPW weights are unbounded
    if np.min(np.abs(outcome - p)) > 0 and np.max(np.abs(outcome - p)) < 1e-6:
        raise ValueError("propensity scores separate the sample completely; use a coarser cutoff")
    return np.clip(p, 0.01, 0.99)


def _stack_last(arrays) -> np.ndarray:
    """The arrays broadcast against each other, stacked along a new last axis."""
    out = np.empty(np.broadcast_shapes(*(np.shape(a) for a in arrays)) + (len(arrays),))
    for j, a in enumerate(arrays):
        out[..., j] = a
    return out


def _candidate_loadings(beta_k, beta_kk, beta_l, beta_m, beta_0):
    """Coefficients of ybar on the features (1, k, k^2/2, m, S^2).

    The coordinates broadcast against each other, so each term is computed
    over only the axes it reads; the result has their broadcast shape plus a
    last axis of five.
    """
    delta = beta_l + beta_m
    return _stack_last((beta_l**2 / (2.0 * beta_0), beta_k, beta_kk, delta, -(delta**2) / (2.0 * beta_0)))


def _features(dataset: PanelDataset) -> np.ndarray:
    """The features (1, k, k^2/2, m, S^2) of :func:`_candidate_loadings` on the lag pairs."""
    cur = dataset.lag_pairs().cur
    k = dataset.k[cur]
    return np.column_stack([np.ones(cur.size), k, 0.5 * k**2, dataset.m[cur], dataset.s_l[cur] ** 2])


def _signed_weights(dataset: PanelDataset, cutoff: float, scores: np.ndarray) -> np.ndarray:
    pairs = dataset.lag_pairs()
    high = dataset.m[pairs.cur] > cutoff
    return np.where(high, 1.0 / scores, -1.0 / (1.0 - scores))


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


def default_grid(params: TranslogParams) -> dict:
    """Candidate ranges of 11 points bracketing a point estimate by 50% per coordinate.

    Half-widths are floored so the grid stays informative when an
    estimated coordinate is close to zero.  The curvature must stay
    negative, so a ``beta_0`` axis that would reach zero ends at half its
    center instead.
    """
    centers = {
        "beta_k": params.beta_k,
        "beta_kk": params.beta_kk,
        "beta_l": params.beta_l,
        "beta_m": params.beta_m,
        "beta_0": params.beta_0,
    }
    grid = {}
    for name in GRID_AXES:
        center = centers[name]
        half = max(0.5 * abs(center), _HALF_WIDTH_FLOOR[name])
        upper = center + half
        if name == "beta_0" and upper >= 0.0:
            upper = center / 2.0
        grid[name] = np.linspace(center - half, upper, 11)
    return grid


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

    # the grid is a tensor: each axis broadcasts along its own dimension, and
    # the C-order rows of (N, 5) are the candidates in meshgrid order
    shape = tuple(axis.size for axis in axes)
    open_axes = np.ix_(*axes)
    candidates = _stack_last(open_axes).reshape(-1, 5)
    loadings = _candidate_loadings(*open_axes).reshape(-1, 5)
    statistics = a_terms[None, :] - loadings @ b_terms.T

    slack = config.slack
    if slack is None:
        slack = config.slack_scale * float(n_pairs) ** (-1.0 / 3.0)
    feasible = statistics[:, 0] >= -slack
    for column in statistics.T[1:]:
        feasible &= column >= -slack
    n_feasible = int(np.count_nonzero(feasible))
    feasible_grid = feasible.reshape(shape)
    bounding_box = {}
    at_grid_edge = {}
    for i, name in enumerate(GRID_AXES):
        if n_feasible:
            # the axis values that some feasible candidate takes
            coord = axes[i][feasible_grid.any(axis=tuple(d for d in range(5) if d != i))]
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
