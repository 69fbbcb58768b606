"""CSR cross-product expansion for the cell-pair frontier.

The grid engine stores leaf-cell membership as CSR slices into the
pyramid's sorted position array.  :func:`expand_products` turns a batch
of cell pairs into flat index arrays enumerating every particle-pair
combination, in memory-bounded chunks — the enumeration step in front
of the gathered leaf kernels (the grid engine's intra-cell leaf pairs).  (Moved here from
``core/dm_sdh_grid.py`` so both kernel backends and the engines can
share it without an import cycle.)
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["expand_products"]


def expand_products(
    starts1: np.ndarray,
    counts1: np.ndarray,
    starts2: np.ndarray,
    counts2: np.ndarray,
    chunk: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Global index arrays of all cross products, in bounded chunks.

    Given per-pair CSR slices ``[starts1, starts1+counts1)`` and
    ``[starts2, starts2+counts2)``, produce index arrays ``(g1, g2)``
    enumerating every cross combination.  Pairs are grouped into slices
    whose total product size stays near ``chunk`` (a single huge pair
    may overshoot); within a slice everything is ``np.repeat``-based.
    """
    counts1 = np.asarray(counts1, dtype=np.int64)
    counts2 = np.asarray(counts2, dtype=np.int64)
    starts1 = np.asarray(starts1, dtype=np.int64)
    starts2 = np.asarray(starts2, dtype=np.int64)

    # Group pairs by the partner count c2 (few distinct values at leaf
    # occupancies near beta): within a group the within-pair decoding
    # uses a *scalar* divisor, which numpy handles far faster than the
    # per-element divisor a mixed batch would need.
    for c2_value in np.unique(counts2):
        if c2_value == 0:
            continue
        group = counts2 == c2_value
        g_counts1 = counts1[group]
        g_starts1 = starts1[group]
        g_starts2 = starts2[group]
        prod = g_counts1 * c2_value
        total = int(prod.sum())
        if total == 0:
            continue
        ends = np.cumsum(prod)
        cut_points = np.searchsorted(
            ends, np.arange(chunk, total, chunk), side="left"
        )
        boundaries = np.unique(
            np.concatenate(([0], cut_points + 1, [prod.size]))
        )
        for s_begin, s_end in zip(boundaries[:-1], boundaries[1:]):
            pr = prod[s_begin:s_end]
            live = pr > 0
            if not live.any():
                continue
            pr = pr[live]
            s1 = g_starts1[s_begin:s_end][live]
            s2 = g_starts2[s_begin:s_end][live]
            slice_total = int(pr.sum())
            offsets = np.cumsum(pr) - pr
            r = np.arange(slice_total, dtype=np.int64) - np.repeat(
                offsets, pr
            )
            g1 = np.repeat(s1, pr) + r // c2_value
            g2 = np.repeat(s2, pr) + r % c2_value
            yield g1, g2
