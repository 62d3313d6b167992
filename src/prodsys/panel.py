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
import itertools
import os
import re
import warnings
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

#: Level columns, in the order the loader checks them.
LEVEL_COLUMNS = REQUIRED_COLUMNS[2:]

#: printf-style float format that round-trips IEEE doubles exactly.
FLOAT_FORMAT = "%.17g"

#: Rows the fallback CSV reader and the writer hold as strings at a time.
CHUNK_ROWS = 4096


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


def _as_years(years) -> np.ndarray:
    """``years`` as a new integer array, refusing bools and values that are not whole numbers in 64 bits.

    An integer array is only copied.  Input that is not an array is checked
    value by value, since numpy reads ``[True, 2]`` as the integers 1 and 2.
    """
    raw = years if isinstance(years, np.ndarray) else np.array(years, dtype=object)
    if raw.dtype.kind in "iu":
        return raw.astype(int)
    flat = raw.ravel()
    if raw.dtype == object:
        is_bool = np.fromiter((isinstance(v, (bool, np.bool_)) for v in flat), bool, flat.size)
    else:
        is_bool = np.full(flat.size, raw.dtype == bool)
    values = flat.astype(float)
    whole = np.isfinite(values) & (values == np.trunc(values)) & (np.abs(values) < 2.0**63)
    bad = np.flatnonzero(is_bool | ~whole)
    if bad.size:
        raise ValueError(f"years must be whole numbers that fit in 64 bits, got {flat[bad[:1]].tolist()[0]!r}")
    return raw.astype(int)


def _code_runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(labels, return_inverse=True)``, one lookup per run of equal labels.

    Grouped input (simulated, read from a file, or a dataset's own labels)
    codes each firm once.  Runs are found on the strings, since raw ids such
    as 1 and 1.0 compare equal but are different ids.
    """
    n = labels.size
    starts = np.flatnonzero(np.concatenate(([n > 0], labels[1:] != labels[:-1])))
    runs = labels[starts].tolist()
    distinct = sorted(dict.fromkeys(runs))  # first-seen order: sorted input sorts in one pass
    code = {name: i for i, name in enumerate(distinct)}
    firm = np.repeat(np.fromiter(map(code.__getitem__, runs), np.intp, len(runs)), np.diff(starts, append=n))
    return np.asarray(distinct, dtype=object), firm


def _in_order(firm: np.ndarray, year: np.ndarray) -> bool:
    """Whether rows are in (firm, year) order, equal keys allowed (``validate`` refuses those)."""
    step = np.diff(firm)
    return bool(np.all((step > 0) | ((step == 0) & (year[1:] >= year[:-1]))))


class PanelDataset:
    """Validated panel of firm-year observations, sorted by (firm, year).

    Parameters
    ----------
    firm_ids : sequence
        Firm identifiers (any scalars), stored and coded as their ``str()``,
        so ``1`` and ``1.0`` are different firms.
    years : sequence of int
        Whole numbers that fit in 64 bits, as ``load_csv`` keeps: bools,
        fractions and non-finite values raise ``ValueError``; whole floats
        such as ``2001.0`` are read as integers.
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
        Parsed level columns keyed by CSV column name (floats, integer
        years, firm ids), which :func:`write_csv` writes back.  They hold
        the parsed values, not the cells' text, so ``1.50`` writes back as
        ``1.5``.

    Notes
    -----
    The constructor first builds the panel's index: each id's ``str()``,
    the firm codes (one lookup per run of equal ids) and the row order,
    by ``np.lexsort``.  Every column is gathered through that order, so
    none is aliased, and :meth:`validate` runs last.

    Code that already holds a canonical index (the simulator, the
    bootstrap) builds the panel with the private ``_from_index`` instead,
    which does no id work: it checks in O(n) that the rows are in
    (firm, year) order, stores the arrays it is given without copying them,
    and runs :meth:`validate`.
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
        year = _as_years(years)
        if year.size != labels.size:
            raise ValueError("firm_ids and years must have equal length")
        firm_labels, firm = _code_runs(labels)
        order = np.lexsort((year, firm))
        self._store(
            labels[order], firm[order], firm_labels, year[order], order, y, k, l, m, s_l, ln_r,
            x=x, z=z, x_names=x_names, z_names=z_names, ln_price_l=ln_price_l, ln_price_m=ln_price_m, levels=levels,
        )

    @classmethod
    def _from_index(cls, labels, firm, firm_labels, year, y, k, l, m, s_l, ln_r, *, lag_pairs=None, **columns):
        """A panel on a canonical index, with no id work and no copies.

        ``firm_labels`` holds the sorted distinct labels, ``firm`` each row's
        ``intp`` code into them, ``labels`` is ``firm_labels[firm]`` and
        ``year`` holds integer years.  Rows out of (firm, year) order raise
        ``ValueError``; :meth:`validate` refuses duplicate keys and bad
        columns.  Every array is stored as given, so the caller hands over
        arrays it does not write to again.  ``lag_pairs`` are those of a
        panel on the same index; the keywords are the constructor's.
        """
        if not labels.shape == firm.shape == year.shape:
            raise ValueError("labels, firm codes and years must have equal length")
        if not _in_order(firm, year):
            raise ValueError("rows are not in (firm, year) order")
        self = cls.__new__(cls)
        self._store(labels, firm, firm_labels, year, None, y, k, l, m, s_l, ln_r, **columns)
        self._lag_pairs = lag_pairs
        return self

    def _store(
        self, labels, firm, firm_labels, year, order, y, k, l, m, s_l, ln_r, *,
        x=None, z=None, x_names=(), z_names=(), ln_price_l=0.0, ln_price_m=0.0, levels=None,
    ) -> None:
        """Set the index and the columns, each column gathered through ``order`` (None: as given), and validate."""
        n = year.size

        def take(a):
            return a if order is None else a[order]

        def col(v, name):
            a = np.asarray(v, dtype=float)
            if a.shape != (n,):
                raise ValueError(f"column {name} has shape {a.shape}, expected ({n},)")
            return take(a)

        def price_col(v, name):
            a = np.asarray(v, dtype=float)
            if a.ndim == 0:
                return np.full(n, float(a))
            return col(a, name)

        self.labels = labels
        self.firm = firm
        self.firm_labels = firm_labels
        self.year = year
        self.y = col(y, "y")
        self.k = col(k, "k")
        self.l = col(l, "l")
        self.m = col(m, "m")
        self.s_l = col(s_l, "s_l")
        self.ln_r = col(ln_r, "ln_r")
        self.x = take(_as_float_matrix(x, n, "x"))
        self.z = take(_as_float_matrix(z, n, "z"))
        self.x_names = tuple(x_names) if x_names else tuple(f"x{j}" for j in range(self.x.shape[1]))
        self.z_names = tuple(z_names) if z_names else tuple(f"z{j}" for j in range(self.z.shape[1]))
        if len(self.x_names) != self.x.shape[1] or len(self.z_names) != self.z.shape[1]:
            raise ValueError("control names do not match control dimensions")
        self.ln_price_l = price_col(ln_price_l, "ln_price_l")
        self.ln_price_m = price_col(ln_price_m, "ln_price_m")
        self.levels = None
        if levels is not None:
            self.levels = {key: take(np.asarray(vals)) for key, vals in levels.items()}
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
            try:
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
            except csv.Error as exc:  # DictReader counts only the lines of rows it returned
                raise ValueError(f"{prices}, line {reader.reader.line_num}: {exc}") from exc
        return table
    table = {}
    for yr, val in prices.items():
        if np.ndim(val) == 0:
            table[int(yr)] = (1.0, float(val))
        else:
            rl, rm = val
            table[int(yr)] = (float(rl), float(rm))
    return table


def _convert(cells, conv, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``cells`` through ``conv`` as an array, and the mask of cells ``conv`` rejects.

    The fallback reader's conversion.  A rejected cell, or one whose value
    ``dtype`` cannot hold, reads 0 in the array.  The column is converted in
    one pass; only a column with a rejected cell is converted again cell by cell.
    """
    try:
        return np.fromiter(map(conv, cells), dtype, len(cells)), np.zeros(len(cells), dtype=bool)
    except (TypeError, ValueError, OverflowError):
        pass
    out = np.zeros(len(cells), dtype)
    bad = np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):
        try:
            out[i] = conv(cell)
        except (TypeError, ValueError, OverflowError):
            bad[i] = True
    return out, bad


def _parse_c(fh, where, numeric):
    """What :func:`_parse_chunked` returns, with no cell rejected, from one pass of numpy's C parser;
    or None where that parser refuses the file, which it may have read in part."""
    if not fh.seekable():  # the fallback could not read it again
        return None
    dtype = np.dtype([("", object), ("", int)] + [("", float)] * len(numeric))
    usecols = [where[name] for name in ("firm_id", "year", *numeric)]
    try:
        with warnings.catch_warnings():
            # numpy < 2.0 reads a 2001.0 year as 2001 with only a DeprecationWarning; an empty body only warns
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype, delimiter=",", quotechar='"', comments=None, usecols=usecols, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    ids, years, *columns = (table[name] for name in dtype.names)
    clean = np.zeros(len(ids), dtype=bool)
    return ids, years, clean, dict(zip(numeric, columns)), dict.fromkeys(numeric, clean)


def _parse_chunked(reader, width, where, numeric):
    """The fallback parse, or None for a body with no row: the firm ids, the years and the mask
    of bad years, and the ``numeric`` columns with their masks of cells that are not numbers."""
    ids: list = []
    year_parts = []
    parts: dict[str, list] = {name: [] for name in numeric}
    # a chunk at a time, so only one chunk's cells are held as strings
    for chunk in iter(lambda: list(itertools.islice(reader, CHUNK_ROWS)), []):
        rows = [row for row in chunk if row]
        if not rows:
            continue
        if set(map(len, rows)) != {width}:  # csv.DictReader's restval and restkey
            rows = [(row + [None] * width)[:width] for row in rows]
        cols = list(zip(*rows))
        ids.extend(cols[where["firm_id"]])
        year_parts.append(_convert(cols[where["year"]], int, int))
        for name in numeric:
            parts[name].append(_convert(cols[where[name]], float, float))
    if not ids:
        return None
    years, bad_year = (np.concatenate(p) for p in zip(*year_parts))
    values, failed = {}, {}
    for name, chunks in parts.items():
        values[name], failed[name] = (np.concatenate(p) for p in zip(*chunks))
    return ids, years, bad_year, values, failed


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
    A row is dropped for the first check it fails, in this order: the year
    is not an integer that fits in 64 bits (``bad_year``); then for each
    level column in the order above, the cell is not a number
    (``missing_<col>``) or is not finite and positive
    (``nonpositive_<col>``); then a control cell is not a number
    (``missing_<col>``), in control order; then a control is not finite
    (``nonfinite_control``).  As in :class:`csv.DictReader`, blank lines
    are skipped, a short row reads its missing cells as empty, a long row's
    extra cells are ignored and a repeated header name reads its last
    column.  The dataset's ``levels`` hold the parsed cells of the kept
    rows, not their text (see :func:`write_csv`).

    numpy's C parser (``np.loadtxt``) reads the body in one pass; where it
    refuses a cell or a row, or warns, the chunked ``csv.reader`` fallback
    reads the file again.  The two read alike every file both accept, so the
    result does not depend on which one ran.  A row ``csv.reader`` cannot
    split, such as one with a cell longer than ``csv.field_size_limit()``,
    raises ``ValueError`` naming its line.

    ``prices`` optionally supplies per-year price ratios P/P^Y (see
    ``_parse_prices`` for accepted forms); years without an entry default
    to ratio 1.
    """
    report = LoadReport()
    price_table = _parse_prices(prices)
    controls = list(x_columns) + [c for c in z_columns if c not in x_columns]
    numeric = list(dict.fromkeys(LEVEL_COLUMNS + tuple(controls)))

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            fields = next(reader, [])
            missing = [c for c in REQUIRED_COLUMNS if c not in fields]
            if missing:
                raise ValueError(f"missing required columns: {', '.join(missing)}")
            missing = [c for c in controls if c not in fields]
            if missing:
                raise ValueError(f"missing control columns: {', '.join(missing)}")
            where = {name: i for i, name in enumerate(fields)}  # a repeated name keeps its last column
            parsed = _parse_c(fh, where, numeric)
            if parsed is None:
                if fh.seekable():  # a fresh reader, so its line numbers count from the header again
                    fh.seek(0)
                    reader = csv.reader(fh)
                    next(reader)
                parsed = _parse_chunked(reader, len(fields), where, numeric)
        except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
            raise ValueError(f"line {reader.line_num}: {exc}") from exc

    if parsed is None:
        raise ValueError(f"no usable rows in {path}")
    ids, years, bad_year, values, failed = parsed
    report.rows_read = len(ids)

    checks = [("bad_year", bad_year)]
    for name in LEVEL_COLUMNS:
        v = values[name]
        checks += [(f"missing_{name}", failed[name]), (f"nonpositive_{name}", ~(np.isfinite(v) & (v > 0.0)))]
    checks += [(f"missing_{name}", failed[name]) for name in controls]
    if controls:
        checks.append(("nonfinite_control", ~np.all([np.isfinite(values[c]) for c in controls], axis=0)))
    keep = np.ones(len(ids), dtype=bool)
    first_hit = {}
    for reason, mask in checks:
        hit = mask & keep
        if hit.any():
            keep &= ~hit
            first_hit[reason] = (int(hit.argmax()), int(np.count_nonzero(hit)))
    # reasons in the order they first occur in the file
    for reason, (_, count) in sorted(first_hit.items(), key=lambda item: item[1][0]):
        report.dropped[reason] = count

    if not keep.any():
        raise ValueError(f"no usable rows in {path}")
    report.rows_kept = int(np.count_nonzero(keep))
    years = years[keep]
    kept = {name: v[keep] for name, v in values.items()}
    firm_ids = np.asarray(ids, dtype=object)[keep]
    s_l, ln_r = compute_shares(kept["labor_cost"], kept["material_cost"], kept["revenue"])
    table_years, at = np.unique(years, return_inverse=True)
    ratios = np.array([price_table.get(int(t), (1.0, 1.0)) for t in table_years], dtype=float)
    ratio_l, ratio_m = ratios[at, 0], ratios[at, 1]
    if np.any(ratio_l <= 0) or np.any(ratio_m <= 0):
        raise ValueError("price ratios must be strictly positive")

    levels = {"firm_id": firm_ids, "year": years}
    levels.update((c, kept[c]) for c in LEVEL_COLUMNS + tuple(controls))
    dataset = PanelDataset(
        firm_ids=firm_ids,
        years=years,
        y=np.log(kept["output"]),
        k=np.log(kept["capital"]),
        l=np.log(kept["labor_cost"]),
        m=np.log(kept["material_cost"]),
        s_l=s_l,
        ln_r=ln_r,
        x=np.column_stack([kept[c] for c in x_columns]) if x_columns else None,
        z=np.column_stack([kept[c] for c in z_columns]) if z_columns else None,
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


#: the characters that make ``csv``'s ``QUOTE_MINIMAL`` quote a cell: delimiter, quote, line ends
_needs_quotes = re.compile('[,"\r\n]').search


def _csv_cell(text: str) -> str:
    """``text`` as one ``csv.writer`` cell: quoted, with its quotes doubled, if it needs quotes."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(dataset: PanelDataset, path) -> None:
    """Write a panel back to CSV.

    Datasets that came from a CSV write their ``levels``, the parsed cells
    of the file, through ``FLOAT_FORMAT``: a file this function wrote
    reloads and rewrites byte for byte, other files come back normalized
    (``1.50`` as ``1.5``, `` 2001`` as ``2001``).  For simulated datasets
    the levels are reconstructed from the logs with the output price
    normalized to one: labor and material columns carry expenditures
    P*quantity, matching the semantics of the load path.

    Each row is formatted from one ``%`` template, and cells are quoted as
    ``csv.writer`` quotes them, so the file is what ``csv.writer`` writes.
    """
    extra = [c for c in (dataset.x_names + dataset.z_names)]
    header = list(REQUIRED_COLUMNS) + [c for c in dict.fromkeys(extra)]
    if dataset.levels is not None:
        ids = dataset.levels["firm_id"]
        cols = [dataset.levels[c] for c in header[1:]]
    else:
        xz = {}
        for j, name in enumerate(dataset.x_names):
            xz[name] = dataset.x[:, j]
        for j, name in enumerate(dataset.z_names):
            xz.setdefault(name, dataset.z[:, j])
        ids = dataset.labels
        cols = [
            dataset.year,
            np.exp(dataset.y),
            np.exp(dataset.k),
            np.exp(dataset.l + dataset.ln_price_l),
            np.exp(dataset.m + dataset.ln_price_m),
            np.exp(dataset.y),
        ] + [xz[c] for c in header[7:]]
    row = ",".join(["%s"] + [FLOAT_FORMAT] * len(cols)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([_csv_cell(str(name)) for name in header]) + "\r\n")
        # a chunk at a time, so only one chunk's cells are held as strings
        for start in range(0, dataset.n_obs, CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            labels = list(map(str, ids[part].tolist()))
            if _needs_quotes("".join(labels)):
                labels = list(map(_csv_cell, labels))
            fh.write("".join([row % r for r in zip(labels, *(c[part].tolist() for c in cols))]))


def write_prices_csv(dataset: PanelDataset, path) -> None:
    """Persist per-year price ratios (levels) alongside an exported panel."""
    years, first = np.unique(dataset.year, return_index=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "ratio_l", "ratio_m"])
        for yr, i in zip(years, first):
            writer.writerow(
                [int(yr), FLOAT_FORMAT % np.exp(dataset.ln_price_l[i]), FLOAT_FORMAT % np.exp(dataset.ln_price_m[i])]
            )
