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
from .sieve import _degree
from .translog import TranslogParams, estimate

__all__ = [
    "GRID_AXES",
    "GRID_EDGE_WARNING",
    "MomentInequalityConfig",
    "IdentifiedSet",
    "cutoff_values",
    "estimate_propensity",
    "default_grid",
    "identified_set",
]

#: candidate coordinate order used throughout
GRID_AXES = ("beta_k", "beta_kk", "beta_l", "beta_m", "beta_0")

#: the stable opening of the warning that some bound is the grid's end
GRID_EDGE_WARNING = "identified set reaches the grid edge"

#: least rows of one block of the grid sweep's matrix product
_SWEEP_BLOCK_ROWS = 4096

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
                values = np.asarray(values, dtype=float)
                if values.size == 0:
                    raise ValueError(f"empty grid axis {name}")
                if values.ndim != 1 or not np.all(np.isfinite(values)):
                    raise ValueError(f"grid axis {name} must be a 1-D array of finite values")
        # negated comparisons, so that NaN is refused too
        if self.slack is not None and not self.slack >= 0:
            raise ValueError(f"slack must be nonnegative, got {self.slack!r}")
        if not self.slack_scale >= 0:
            raise ValueError(f"slack_scale: slack scale must be nonnegative, got {self.slack_scale!r}")
        _degree(self.propensity_degree, "propensity_degree")


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
    # each side's own formula from one exp of -|eta|, written so that a NaN keeps its bits, which -abs would sign
    pos = eta >= 0
    ez = np.exp(np.where(pos, -eta, eta))
    return np.where(pos, 1.0, ez) / (1.0 + ez)


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
    weighted = np.empty_like(design, order="C")  # design * w, written a column per ufunc: its rows are a few wide
    coef = np.zeros(design.shape[1])
    for _ in range(100):
        p = _sigmoid(design @ coef)
        w = p * (1.0 - p)
        grad = design.T @ (outcome - p)
        for col, term in zip(weighted.T, design.T):
            np.multiply(term, w, out=col)
        hess = design.T @ weighted
        hess.ravel()[:: hess.shape[0] + 1] += 1e-10  # its diagonal, a view: no index arrays
        step = np.linalg.solve(hess, grad)
        coef = coef + step
        if np.abs(step).max() < 1e-10:
            break
        if np.abs(coef).max() > 40.0:
            raise ValueError(
                "propensity fit diverged (complete separation); use a coarser cutoff"
            )
    p = _sigmoid(design @ coef)
    # perfectly classified outcomes mean the IPW weights are unbounded
    if np.min(np.abs(outcome - p)) > 0 and np.max(np.abs(outcome - p)) < 1e-6:
        raise ValueError("propensity scores separate the sample completely; use a coarser cutoff")
    return np.clip(p, 0.01, 0.99)


def _candidate_loadings(beta_k, beta_kk, beta_l, beta_m, beta_0, *, candidate_major: bool = True):
    """Coefficients of ybar on the features (1, k, k^2/2, m, S^2): a ``(5, candidates)`` array, one row per feature.

    The coordinates broadcast against each other, so each term is computed
    over only the axes it reads and written over its row.  ``candidate_major``
    stores the rows contiguously, else the array is the transpose of a C-order ``(candidates, 5)`` one.
    """
    delta = beta_l + beta_m
    terms = (beta_l**2 / (2.0 * beta_0), beta_k, beta_kk, delta, -(delta**2) / (2.0 * beta_0))
    shape = np.broadcast_shapes(*(np.shape(a) for a in terms))
    out = np.empty((5, *shape)) if candidate_major else np.moveaxis(np.empty((*shape, 5)), -1, 0)
    for row, a in zip(out, terms):
        row[...] = a
    return out.reshape(5, -1)


def _features(dataset: PanelDataset) -> np.ndarray:
    """The features (1, k, k^2/2, m, S^2) of :func:`_candidate_loadings` on the lag pairs."""
    cur = dataset.lag_pairs().cur
    k = dataset.k[cur]
    return np.column_stack([np.ones(cur.size), k, 0.5 * k**2, dataset.m[cur], dataset.s_l[cur] ** 2])


def _signed_weights(dataset: PanelDataset, cutoff: float, scores: np.ndarray) -> np.ndarray:
    pairs = dataset.lag_pairs()
    high = dataset.m[pairs.cur] > cutoff
    return np.where(high, 1.0 / scores, -1.0 / (1.0 - scores))


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


def _sweep_blocks(n_slices: int, slice_rows: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` ranges of ``beta_k`` slices, each block at least :data:`_SWEEP_BLOCK_ROWS` rows.

    A grid with fewer rows is one block.  A short tail joins the block
    before it, so no block has exactly one row unless the grid has: a
    one-row product takes numpy's vector path, whose bits differ.
    """
    step = -(-_SWEEP_BLOCK_ROWS // slice_rows)
    edges = [*range(0, n_slices, step), n_slices]
    if len(edges) > 2 and (edges[-1] - edges[-2]) * slice_rows < _SWEEP_BLOCK_ROWS:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def identified_set(dataset: PanelDataset, config: MomentInequalityConfig) -> IdentifiedSet:
    """Evaluate every grid candidate against every cutoff inequality.

    The statistic is affine in the candidate loadings, so the data enter
    only through one scalar and one feature-moment vector per cutoff;
    the grid sweep is a matrix product and its result does not depend on
    evaluation order.  The product runs in blocks of whole ``beta_k``
    slices (:func:`_sweep_blocks`), so the sweep's memory is its outputs
    and one block.  An empty feasible set is a valid outcome and is
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
    # the C-order rows of (N, 5) are the candidates in meshgrid order, written
    # one contiguous coordinate column at a time
    shape = tuple(axis.size for axis in axes)
    open_axes = np.ix_(*axes)
    candidates = np.stack(np.broadcast_arrays(*open_axes)).reshape(5, -1).T
    # statistics are written in place, a block of whole beta_k slices at a
    # time, so neither the (N, 5) loadings nor the (N, cutoffs) product exists:
    # a block's (cutoffs, 5) @ (5, rows) product goes to the transpose of its
    # rows. BLAS's matrix kernel runs several times faster on contiguous
    # loading rows, to the same bits; one cutoff takes numpy's vector path,
    # whose bits follow the layout. Only the beta_k row differs between
    # blocks, so the loadings are built once; feasibility reads hot blocks.
    slack = config.slack
    if slack is None:
        slack = config.slack_scale * float(n_pairs) ** (-1.0 / 3.0)
    statistics = np.empty((candidates.shape[0], len(cutoffs)))
    feasible = np.empty(candidates.shape[0], dtype=bool)
    slice_rows = statistics.shape[0] // shape[0]
    blocks = _sweep_blocks(shape[0], slice_rows)
    widest = max(hi - lo for lo, hi in blocks)
    loadings = _candidate_loadings(open_axes[0][:widest], *open_axes[1:], candidate_major=len(cutoffs) > 1)
    for lo, hi in blocks:
        rows, flags = statistics[lo * slice_rows:hi * slice_rows], feasible[lo * slice_rows:hi * slice_rows]
        loadings[1, :len(rows)].reshape(hi - lo, slice_rows)[...] = axes[0][lo:hi, None]
        np.matmul(b_terms, loadings[:, :len(rows)], out=rows.T)
        for a, column in zip(a_terms, rows.T):  # a pass over all of rows loops over the few cutoffs
            np.subtract(a, column, out=column)
        np.greater_equal(rows[:, 0], -slack, out=flags)
        for column in rows.T[1:]:
            flags &= column >= -slack
    n_feasible = int(np.count_nonzero(feasible))
    # per axis, the values some feasible candidate takes, from one chain of
    # reductions: only its first two passes read the whole mask
    taken, rest = [], feasible.reshape(shape)
    for _ in range(4):
        taken.append(rest.reshape(rest.shape[0], -1).any(axis=1))
        rest = rest.any(axis=0)
    taken.append(rest)
    bounding_box = {}
    at_grid_edge = {}
    for i, name in enumerate(GRID_AXES):
        if n_feasible:
            coord = axes[i][taken[i]]
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
