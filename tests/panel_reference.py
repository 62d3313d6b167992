"""Reference copy of the panel CSV writer.

This is the straightforward version: every cell goes through
``FLOAT_FORMAT`` and ``csv.writer``, which does the quoting.
``prodsys.panel.write_csv`` formats each row from one template and quotes
only what ``csv`` would quote; ``test_panel.py`` requires both to write
the same bytes.  The function body is kept exactly as it was when the
faster version replaced it.
"""

from __future__ import annotations

import csv

import numpy as np

from prodsys.panel import CHUNK_ROWS, FLOAT_FORMAT, REQUIRED_COLUMNS, PanelDataset


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
            cells = (map(FLOAT_FORMAT.__mod__, col[part].tolist()) for col in cols)
            writer.writerows(zip(ids[part].tolist(), *cells))
