"""Panel-data containers and CSV I/O.

All quantity variables are stored internally in logs: ``y`` (output),
``k`` (capital), ``l`` (labor), ``m`` (materials).  Alongside the logs the
dataset carries the labor share of flexible-input expenditure ``s_l`` and
the log revenue-to-expenditure ratio ``ln_r``, because every estimation
step consumes them.  Rows are kept in canonical (firm, year) order.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "LagPairs",
    "LoadReport",
    "PanelDataset",
    "compute_shares",
    "shares_from_logs",
    "build_lag_pairs",
    "load_csv",
    "write_csv",
    "write_prices_csv",
]

#: Columns every input CSV must provide, in this order for the writer.
REQUIRED_COLUMNS = (
    "firm_id",
    "year",
    "output",
    "capital",
    "labor_cost",
    "material_cost",
    "revenue",
)

#: printf-style float format that round-trips IEEE doubles exactly.
FLOAT_FORMAT = "%.17g"


@dataclasses.dataclass(frozen=True)
class LagPairs:
    """Aligned row indices: ``cur[i]`` is exactly one year after ``prev[i]``.

    Both arrays index rows of the same dataset and are ordered by
    (firm, year) of the current observation.
    """

    cur: np.ndarray
    prev: np.ndarray

    def __len__(self) -> int:
        return int(self.cur.size)


@dataclasses.dataclass
class LoadReport:
    """Row-level accounting of a CSV load."""

    rows_read: int = 0
    rows_kept: int = 0
    dropped: dict[str, int] = dataclasses.field(default_factory=dict)
    messages: list[str] = dataclasses.field(default_factory=list)

    def drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    @property
    def rows_dropped(self) -> int:
        return sum(self.dropped.values())


def compute_shares(labor_cost, material_cost, revenue):
    """Labor expenditure share and log revenue-to-expenditure ratio.

    Parameters
    ----------
    labor_cost, material_cost, revenue : array_like
        Strictly positive levels (currency units).

    Returns
    -------
    s_l : ndarray
        ``labor_cost / (labor_cost + material_cost)``.
    ln_r : ndarray
        Log cost-to-revenue ratio
        ``log((labor_cost + material_cost) / revenue)``.
    """
    wl = np.asarray(labor_cost, dtype=float)
    wm = np.asarray(material_cost, dtype=float)
    rev = np.asarray(revenue, dtype=float)
    if np.any(wl <= 0) or np.any(wm <= 0) or np.any(rev <= 0):
        raise ValueError("compute_shares requires strictly positive levels")
    total = wl + wm
    return wl / total, np.log(total / rev)


def shares_from_logs(y, l, m, ln_price_l=0.0, ln_price_m=0.0):
    """Same as :func:`compute_shares` but from logs, overflow-safe.

    ``ln_price_l`` and ``ln_price_m`` are log price ratios relative to the
    output price, so ``ln_r = logaddexp(l + ln_price_l, m + ln_price_m) - y``.
    """
    a = np.asarray(l, dtype=float) + ln_price_l
    b = np.asarray(m, dtype=float) + ln_price_m
    tot = np.logaddexp(a, b)
    s_l = np.exp(a - tot)
    ln_r = tot - np.asarray(y, dtype=float)
    return s_l, ln_r


def _as_float_matrix(arr, n_obs: int, name: str) -> np.ndarray:
    if arr is None:
        return np.empty((n_obs, 0), dtype=float)
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.shape[0] != n_obs:
        raise ValueError(f"{name} has {out.shape[0]} rows, expected {n_obs}")
    return out


class PanelDataset:
    """Validated panel of firm-year observations, sorted by (firm, year).

    Parameters
    ----------
    firm_ids : sequence
        Firm identifiers (any hashable scalars; stored as strings).
    years : sequence of int
    y, k, l, m : array_like
        Logs of output, capital, labor and materials.
    s_l : array_like
        Labor share of flexible-input expenditure, strictly in (0, 1).
    ln_r : array_like
        Log revenue over flexible-input expenditure.
    x, z : array_like, optional
        Productivity modifiers entering the Hicks-neutral and the
        labor-augmenting law of motion respectively, shape (n_obs, dim).
    ln_price_l, ln_price_m : array_like or float, optional
        Per-observation log price ratios ln(P^L/P^Y) and ln(P^M/P^Y).
    levels : dict, optional
        Original level columns keyed by CSV column name; kept verbatim so
        that a write after a load reproduces the file.
    """

    def __init__(
        self,
        firm_ids,
        years,
        y,
        k,
        l,
        m,
        s_l,
        ln_r,
        *,
        x=None,
        z=None,
        x_names: Sequence[str] = (),
        z_names: Sequence[str] = (),
        ln_price_l=0.0,
        ln_price_m=0.0,
        levels: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        labels = np.asarray([str(f) for f in firm_ids], dtype=object)
        years = np.asarray(years, dtype=int)
        n = labels.size
        if years.size != n:
            raise ValueError("firm_ids and years must have equal length")

        self.firm_labels, firm = np.unique(labels, return_inverse=True)
        order = np.lexsort((years, firm))

        def col(v, name):
            a = np.asarray(v, dtype=float)
            if a.shape != (n,):
                raise ValueError(f"column {name} has shape {a.shape}, expected ({n},)")
            return a[order]

        self.firm = firm[order]
        self.labels = labels[order]
        self.year = years[order]
        self.y = col(y, "y")
        self.k = col(k, "k")
        self.l = col(l, "l")
        self.m = col(m, "m")
        self.s_l = col(s_l, "s_l")
        self.ln_r = col(ln_r, "ln_r")
        self.x = _as_float_matrix(x, n, "x")[order]
        self.z = _as_float_matrix(z, n, "z")[order]
        self.x_names = tuple(x_names) if x_names else tuple(f"x{j}" for j in range(self.x.shape[1]))
        self.z_names = tuple(z_names) if z_names else tuple(f"z{j}" for j in range(self.z.shape[1]))
        if len(self.x_names) != self.x.shape[1] or len(self.z_names) != self.z.shape[1]:
            raise ValueError("control names do not match control dimensions")
        def price_col(v, name):
            a = np.asarray(v, dtype=float)
            if a.ndim == 0:
                return np.full(n, float(a))
            if a.shape != (n,):
                raise ValueError(f"column {name} has shape {a.shape}, expected ({n},)")
            return a[order]

        self.ln_price_l = price_col(ln_price_l, "ln_price_l")
        self.ln_price_m = price_col(ln_price_m, "ln_price_m")
        self.levels = None
        if levels is not None:
            self.levels = {key: np.asarray(vals, dtype=object)[order] for key, vals in levels.items()}
        self._lag_pairs: LagPairs | None = None
        self.validate()

    # -- basic protocol ----------------------------------------------------

    @property
    def n_obs(self) -> int:
        return int(self.year.size)

    @property
    def n_firms(self) -> int:
        return int(self.firm_labels.size)

    def __len__(self) -> int:
        return self.n_obs

    # -- validation and derived structure ----------------------------------

    def validate(self) -> None:
        if self.n_obs == 0:
            raise ValueError("empty panel")
        # rows are sorted, so duplicate keys are lexicographically adjacent
        dup = (self.firm[1:] == self.firm[:-1]) & (self.year[1:] == self.year[:-1])
        if np.any(dup):
            i = int(np.flatnonzero(dup)[0]) + 1
            raise ValueError(f"duplicate (firm, year) key: ({self.labels[i]}, {self.year[i]})")
        for name in ("y", "k", "l", "m", "s_l", "ln_r", "x", "z", "ln_price_l", "ln_price_m"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in column {name}")
        if np.any(self.s_l <= 0.0) or np.any(self.s_l >= 1.0):
            raise ValueError("labor shares must lie strictly inside (0, 1)")

    def lag_pairs(self) -> LagPairs:
        if self._lag_pairs is None:
            self._lag_pairs = build_lag_pairs(self)
        return self._lag_pairs


def build_lag_pairs(dataset: PanelDataset) -> LagPairs:
    """Indices of consecutive within-firm year pairs.

    Gaps in a firm's year sequence simply contribute no pair; the order of
    pairs follows the dataset's canonical (firm, year) order of the current
    observation, so the result is deterministic.
    """
    same_firm = dataset.firm[1:] == dataset.firm[:-1]
    consecutive = dataset.year[1:] == dataset.year[:-1] + 1
    cur = np.flatnonzero(same_firm & consecutive) + 1
    return LagPairs(cur=cur, prev=cur - 1)


# -- CSV I/O ---------------------------------------------------------------


def _parse_prices(prices) -> dict[int, tuple[float, float]]:
    """Normalize a price-ratio spec into {year: (ratio_l, ratio_m)} levels.

    Accepts a mapping {year: value} (applied to the materials ratio, labor
    defaults to 1), a mapping {year: (ratio_l, ratio_m)}, or a CSV path with
    header ``year,value`` or ``year,ratio_l,ratio_m``.
    """
    if prices is None:
        return {}
    if isinstance(prices, (str, os.PathLike)):
        table: dict[int, tuple[float, float]] = {}
        with open(prices, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            if "year" not in fields:
                raise ValueError("price CSV must have a 'year' column")
            for rec in reader:
                yr = int(rec["year"])
                if "ratio_l" in fields and "ratio_m" in fields:
                    table[yr] = (float(rec["ratio_l"]), float(rec["ratio_m"]))
                elif "value" in fields:
                    table[yr] = (1.0, float(rec["value"]))
                else:
                    raise ValueError("price CSV needs 'value' or 'ratio_l'/'ratio_m' columns")
        return table
    table = {}
    for yr, val in prices.items():
        if np.ndim(val) == 0:
            table[int(yr)] = (1.0, float(val))
        else:
            rl, rm = val
            table[int(yr)] = (float(rl), float(rm))
    return table


def load_csv(
    path,
    *,
    x_columns: Sequence[str] = (),
    z_columns: Sequence[str] = (),
    prices=None,
) -> tuple[PanelDataset, LoadReport]:
    """Load a firm-year panel from CSV.

    Required columns: ``firm_id, year, output, capital, labor_cost,
    material_cost, revenue``.  Logs are taken of the level columns, so the
    labor and material inputs are measured by deflated expenditures.  Rows
    with missing or nonpositive levels are dropped and counted per reason
    in the returned :class:`LoadReport`; duplicate (firm, year) keys raise.

    ``prices`` optionally supplies per-year price ratios P/P^Y (see
    ``_parse_prices`` for accepted forms); years without an entry default
    to ratio 1.
    """
    report = LoadReport()
    price_table = _parse_prices(prices)
    controls = list(x_columns) + [c for c in z_columns if c not in x_columns]

    records: list[dict] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in fields]
        if missing:
            raise ValueError(f"missing required columns: {', '.join(missing)}")
        missing = [c for c in controls if c not in fields]
        if missing:
            raise ValueError(f"missing control columns: {', '.join(missing)}")
        for rec in reader:
            report.rows_read += 1
            try:
                year = int(rec["year"])
            except (TypeError, ValueError):
                report.drop("bad_year")
                continue
            vals = {}
            ok = True
            for colname in ("output", "capital", "labor_cost", "material_cost", "revenue"):
                raw = rec.get(colname, "")
                try:
                    v = float(raw)
                except (TypeError, ValueError):
                    report.drop(f"missing_{colname}")
                    ok = False
                    break
                if not math.isfinite(v) or v <= 0.0:
                    report.drop(f"nonpositive_{colname}")
                    ok = False
                    break
                vals[colname] = v
            if not ok:
                continue
            ctrl = {}
            for colname in controls:
                try:
                    ctrl[colname] = float(rec[colname])
                except (TypeError, ValueError):
                    report.drop(f"missing_{colname}")
                    ok = False
                    break
            if not ok or not all(math.isfinite(v) for v in ctrl.values()):
                if ok:
                    report.drop("nonfinite_control")
                continue
            records.append({"firm_id": rec["firm_id"], "year": year, **vals, **ctrl})

    if not records:
        raise ValueError(f"no usable rows in {path}")
    report.rows_kept = len(records)

    def pull(name, typ=float):
        return np.asarray([r[name] for r in records], dtype=typ)

    out = pull("output")
    cap = pull("capital")
    wl = pull("labor_cost")
    wm = pull("material_cost")
    rev = pull("revenue")
    years = pull("year", int)
    s_l, ln_r = compute_shares(wl, wm, rev)
    ratio_l = np.asarray([price_table.get(int(t), (1.0, 1.0))[0] for t in years])
    ratio_m = np.asarray([price_table.get(int(t), (1.0, 1.0))[1] for t in years])
    if np.any(ratio_l <= 0) or np.any(ratio_m <= 0):
        raise ValueError("price ratios must be strictly positive")

    levels = {c: pull(c, object) for c in REQUIRED_COLUMNS + tuple(controls) if c != "firm_id"}
    levels["firm_id"] = np.asarray([r["firm_id"] for r in records], dtype=object)

    dataset = PanelDataset(
        firm_ids=[r["firm_id"] for r in records],
        years=years,
        y=np.log(out),
        k=np.log(cap),
        l=np.log(wl),
        m=np.log(wm),
        s_l=s_l,
        ln_r=ln_r,
        x=np.column_stack([pull(c) for c in x_columns]) if x_columns else None,
        z=np.column_stack([pull(c) for c in z_columns]) if z_columns else None,
        x_names=tuple(x_columns),
        z_names=tuple(z_columns),
        ln_price_l=np.log(ratio_l),
        ln_price_m=np.log(ratio_m),
        levels=levels,
    )
    if report.rows_dropped:
        report.messages.append(
            f"dropped {report.rows_dropped} of {report.rows_read} rows: "
            + ", ".join(f"{k}={v}" for k, v in sorted(report.dropped.items()))
        )
    return dataset, report


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return FLOAT_FORMAT % float(value)


def write_csv(dataset: PanelDataset, path) -> None:
    """Write a panel back to CSV.

    Datasets that came from a CSV keep their original level columns and
    those are emitted verbatim, so load -> write -> load is exact.  For
    simulated datasets the levels are reconstructed from the logs with the
    output price normalized to one: labor and material columns carry
    expenditures P*quantity, matching the semantics of the load path.
    """
    extra = [c for c in (dataset.x_names + dataset.z_names)]
    header = list(REQUIRED_COLUMNS) + [c for c in dict.fromkeys(extra)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if dataset.levels is not None:
            cols = [dataset.levels[c] for c in header[1:]]
            ids = dataset.levels["firm_id"]
            for i in range(dataset.n_obs):
                writer.writerow([ids[i]] + [_fmt(col[i]) for col in cols])
            return
        out = np.exp(dataset.y)
        cap = np.exp(dataset.k)
        wl = np.exp(dataset.l + dataset.ln_price_l)
        wm = np.exp(dataset.m + dataset.ln_price_m)
        rev = np.exp(dataset.y)
        xz = {}
        for j, name in enumerate(dataset.x_names):
            xz[name] = dataset.x[:, j]
        for j, name in enumerate(dataset.z_names):
            xz.setdefault(name, dataset.z[:, j])
        for i in range(dataset.n_obs):
            rowvals = [out[i], cap[i], wl[i], wm[i], rev[i]] + [xz[c][i] for c in header[7:]]
            writer.writerow([dataset.labels[i], int(dataset.year[i])] + [_fmt(v) for v in rowvals])


def write_prices_csv(dataset: PanelDataset, path) -> None:
    """Persist per-year price ratios (levels) alongside an exported panel."""
    years, first = np.unique(dataset.year, return_index=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "ratio_l", "ratio_m"])
        for yr, i in zip(years, first):
            writer.writerow(
                [int(yr), _fmt(np.exp(dataset.ln_price_l[i])), _fmt(np.exp(dataset.ln_price_m[i]))]
            )
