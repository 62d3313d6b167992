"""Reference copies of the CSV writers and of the panel constructor.

``write_csv`` is the straightforward panel writer: every number cell goes
through ``FLOAT_FORMAT``, or ``%d`` for an integer, and ``csv.writer`` does
the quoting.
``write_table`` is the command line's former table writer, which formats
one cell at a time.  ``prodsys.panel._write_table``, which writes both
kinds of file, formats each row from one template and quotes only what
``csv`` would quote; ``test_panel.py`` requires each reference and the
shared writer to write the same bytes.

``ReferencePanelDataset`` builds every panel's index the one way: each
id's ``str()``, its code, and a ``np.lexsort`` of the rows, with every
column gathered through that order.  ``prodsys.panel.PanelDataset`` codes
each run of equal ids once, and the simulator and the bootstrap hand on
an index they already hold; ``test_panel.py`` requires every
attribute and the lag pairs of each path to equal this one's.

The function bodies are kept as they were when the faster versions
replaced them, but for one change both writers made together: integer
cells write through ``%d``, which keeps every digit of an integer that a
double cannot hold.
"""

from __future__ import annotations

import csv
from typing import Mapping, Sequence

import numpy as np

from prodsys.panel import (
    CHUNK_ROWS, FLOAT_FORMAT, REQUIRED_COLUMNS, LagPairs, PanelDataset, _as_float_matrix, _csv_cell,
)


def write_csv(dataset: PanelDataset, path) -> None:
    """Write a panel back to CSV.

    Datasets that came from a CSV write their ``levels``, the parsed cells
    of the file, through ``FLOAT_FORMAT``: a file this function wrote
    reloads and rewrites byte for byte, other files come back normalized
    (``1.50`` as ``1.5``, `` 2001`` as ``2001``).  For simulated datasets
    the levels are reconstructed from the logs with the output price
    normalized to one: labor and material columns carry expenditures
    P*quantity, matching the semantics of the load path.
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # a chunk at a time, so only one chunk's cells are held as strings
        for start in range(0, dataset.n_obs, CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            cells = ((("%d" if isinstance(v, int) else FLOAT_FORMAT) % v for v in col[part].tolist()) for col in cols)
            writer.writerows(zip(ids[part].tolist(), *cells))


def write_table(path: str, header, rows) -> None:
    """CSV with ``header``; string cells quoted as ``csv`` quotes them, integer and bool
    cells through ``%d``, every other cell through ``FLOAT_FORMAT``."""
    with open(path, "w", newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(_csv_cell(v) if isinstance(v, str) else ("%d" if isinstance(v, int) else FLOAT_FORMAT) % v
                              for v in row) + "\n")


class ReferencePanelDataset(PanelDataset):
    """``PanelDataset`` with the constructor that coded, sorted and gathered every panel."""

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

        # np.unique(labels, return_inverse=True), one lookup per run of equal
        # labels: grouped input (simulated, read from a file, or a dataset's
        # own labels) codes each firm once.  Runs are found on the strings,
        # since raw ids such as 1 and 1.0 compare equal but are different ids.
        starts = np.flatnonzero(np.concatenate(([n > 0], labels[1:] != labels[:-1])))
        runs = labels[starts].tolist()
        distinct = sorted(dict.fromkeys(runs))  # first-seen order: sorted input sorts in one pass
        code = {name: i for i, name in enumerate(distinct)}
        self.firm_labels = np.asarray(distinct, dtype=object)
        firm = np.repeat(np.fromiter(map(code.__getitem__, runs), np.intp, len(runs)), np.diff(starts, append=n))
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
            self.levels = {key: np.asarray(vals)[order] for key, vals in levels.items()}
        self._lag_pairs: LagPairs | None = None
        self.validate()
