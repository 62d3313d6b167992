"""The lag-pair Gram as it was when every column was written into one block.

``translog._lag_pair_gram`` writes its columns into one reused buffer, a
block of lag pairs at a time, and sums the blocks' products.
:func:`former_lag_pair_gram` is the former function, frozen: all the pairs
in one block and the centered Gram from a second pass over the columns
less their means.  It is the oracle of the blocked Gram: the same bits on
a panel of one block, and the same matrices to rounding on more.
"""

from __future__ import annotations

import numpy as np

from prodsys import translog


def former_lag_pair_gram(dataset, step1, options):
    """``(G, G_c, columns)``: the Gram ``X'X`` of every lag-pair column the linear-law fits read, and its keys.

    Step two's ``Q`` and ``E``, the omega block ``R`` and, under
    ``refine="system"``, the level instruments ``H`` are each ``X T`` for a
    fixed map ``T`` (``translog._block_maps``), so every cross-product the fits
    read is a block of ``T' G T``.  ``H`` adds only ``m_prev``; ``R``'s FOC
    column is kept for both inputs, so one Gram serves every omega proxy.
    The columns are written once into one column-major block.  ``G_c`` is
    the Gram of the centered columns (``None`` without refinement), formed
    from them: ``G/n - mu mu'`` cancels, and puts a residual variance of
    1e-15 where a noiseless panel's exact fit has zero.
    """
    pairs = dataset.lag_pairs()
    cur, prev = pairs.cur, pairs.prev
    delta, log_theta = step1.delta_lm, np.log(step1.theta)
    pz, px = dataset.z.shape[1], dataset.x.shape[1]
    columns = ("const", "ml_cur", "ml_prev", "s_cur", "s_prev", "k_cur", "k_prev", "y_flex", "s_cur_sq", "k_cur_sq",
               "foc_materials", "foc_labor", "s_prev_sq", "k_prev_sq", *(f"z{j}" for j in range(pz)),
               *(f"x{j}" for j in range(px)), *(["m_prev"] if options.refine == "system" else []))
    # X' row by row, so X is stored column-major; each column is written in place
    block = np.empty((len(columns), cur.size))
    (const, ml_cur, ml_prev, s_cur, s_prev, k_cur, k_prev, y_flex, s_cur_sq, k_cur_sq,
     foc_materials, foc_labor, s_prev_sq, k_prev_sq) = block[:14]
    m_cur, m_prev, l_prev = dataset.m[cur], dataset.m[prev], dataset.l[prev]
    const.fill(1.0)
    np.subtract(m_cur, dataset.l[cur], out=ml_cur)
    np.subtract(m_prev, l_prev, out=ml_prev)
    s_cur[:], s_prev[:], k_cur[:], k_prev[:] = dataset.s_l[cur], dataset.s_l[prev], dataset.k[cur], dataset.k[prev]
    np.subtract(dataset.y[cur], delta * m_cur, out=y_flex)
    np.square(s_cur, out=s_cur_sq)
    np.multiply(0.5, k_cur**2, out=k_cur_sq)
    flex_prev = delta * m_prev
    focs = translog._foc_terms(dataset.ln_price_m[prev], dataset.ln_price_l[prev], m_prev, l_prev, s_prev, delta)
    for foc, out in zip(focs, (foc_materials, foc_labor)):
        np.subtract(foc - log_theta, flex_prev, out=out)
    np.square(s_prev, out=s_prev_sq)
    np.multiply(0.5, k_prev**2, out=k_prev_sq)
    block[14:14 + pz + px] = np.concatenate((dataset.z[prev], dataset.x[prev]), axis=1).T
    if options.refine != "system":
        return block @ block.T, None, columns
    block[-1] = m_prev
    gram = block @ block.T
    block -= block.mean(axis=1)[:, None]
    return gram, block @ block.T, columns
