"""Pure-numpy leaf-resolution backend (always available).

Performs exactly the float operations the engines used inline before
the kernel tier existed — elementwise delta, minimum-image wrap via
``np.round`` (round-half-even), ordered per-axis sum of squares through
``einsum``, ``sqrt``, then a clamped truncating division — so the
histograms it produces are bit-identical to the historical engine
output and serve as the reference the numba tier is verified against.
"""

from __future__ import annotations

import numpy as np

from ..geometry.distance import (
    PANEL_ROWS,
    iter_cross_distance_chunks,
    iter_self_distance_chunks,
    minimum_image,
)
from . import exact

__all__ = [
    "NAME",
    "bin_gathered_pairs",
    "bin_dense_self",
    "bin_dense_cross",
    "bin_gathered_pairs_weighted",
    "bin_dense_self_weighted",
    "bin_dense_cross_weighted",
]

NAME = "numpy"


def _bin(distances: np.ndarray, width: float, nbins: int) -> np.ndarray:
    # Truncation of a non-negative quotient == floor, and the clamp
    # covers the topmost bucket edge — the same expression as
    # UniformBuckets.bucket_of under the fast-binning eligibility
    # condition (see kernels.fast_uniform_width).
    idx = np.minimum((distances / width).astype(np.int64), nbins - 1)
    return np.bincount(idx, minlength=nbins).astype(np.int64)


def bin_gathered_pairs(
    positions: np.ndarray,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Histogram the distances of explicitly enumerated index pairs."""
    delta = positions[idx_a] - positions[idx_b]
    if box_lengths is not None:
        delta = minimum_image(delta, box_lengths)
    distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
    return _bin(distances, width, nbins), int(distances.size)


def bin_dense_self(
    positions: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Histogram all ``n(n-1)/2`` intra-set distances."""
    hist = np.zeros(nbins, dtype=np.int64)
    total = 0
    for distances in iter_self_distance_chunks(
        positions, chunk=chunk, box_lengths=box_lengths
    ):
        hist += _bin(distances, width, nbins)
        total += distances.size
    return hist, total


def bin_dense_cross(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Histogram all ``len(a) * len(b)`` cross-set distances."""
    hist = np.zeros(nbins, dtype=np.int64)
    total = 0
    for distances in iter_cross_distance_chunks(
        pos_a, pos_b, chunk=chunk, box_lengths=box_lengths
    ):
        hist += _bin(distances, width, nbins)
        total += distances.size
    return hist, total


# ----------------------------------------------------------------------
# Weighted variants: same distance op-sequence and bin indices as the
# unweighted kernels, with pair weights ``w_i * w_j`` accumulated through
# the exact fixed-point machinery of :mod:`repro.kernels.exact` (limb
# arrays).  Returns ``(limbs, n_distances)``; callers convert limbs to
# exact bucket integers and round once at the end of the query.
# ----------------------------------------------------------------------


class _WeightScatter:
    """Exact pair-product scatter with bounded-overflow normalization."""

    def __init__(self, weights: np.ndarray, nbins: int):
        self.mant, self.shift = exact.decompose(weights)
        self.limbs = exact.new_limbs(nbins)
        self._pending = 0

    def add(self, bins: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray):
        exact.scatter_products(
            self.limbs, bins,
            self.mant[idx_a], self.shift[idx_a],
            self.mant[idx_b], self.shift[idx_b],
        )
        self._pending += bins.size
        if self._pending >= exact.SCATTER_LIMIT:
            exact.normalize_limbs(self.limbs)
            self._pending = 0


def _bin_idx(distances: np.ndarray, width: float, nbins: int) -> np.ndarray:
    return np.minimum((distances / width).astype(np.int64), nbins - 1)


def bin_gathered_pairs_weighted(
    positions: np.ndarray,
    weights: np.ndarray,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS * PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of explicitly enumerated index pairs.

    ``chunk`` counts pairs, not rows: by default one dense panel pair's
    worth, so the scatter temporaries match the dense sweeps' bound.
    """
    scatter = _WeightScatter(weights, nbins)
    for start in range(0, idx_a.shape[0], chunk):
        ia = idx_a[start : start + chunk]
        ib = idx_b[start : start + chunk]
        delta = positions[ia] - positions[ib]
        if box_lengths is not None:
            delta = minimum_image(delta, box_lengths)
        distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        scatter.add(_bin_idx(distances, width, nbins), ia, ib)
    return scatter.limbs, int(idx_a.shape[0])


def bin_dense_self_weighted(
    positions: np.ndarray,
    weights: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of all ``n(n-1)/2`` intra-set pairs."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    dim = positions.shape[1]
    scatter = _WeightScatter(weights, nbins)
    total = 0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = positions[start:stop]
        m = stop - start
        if m >= 2:
            iu, ju = np.triu_indices(m, k=1)
            delta = block[iu] - block[ju]
            if box_lengths is not None:
                delta = minimum_image(delta, box_lengths)
            distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
            scatter.add(
                _bin_idx(distances, width, nbins), start + iu, start + ju
            )
            total += distances.size
        for rstart in range(stop, n, chunk):
            rstop = min(rstart + chunk, n)
            rblock = positions[rstart:rstop]
            delta = (block[:, None, :] - rblock[None, :, :]).reshape(-1, dim)
            if box_lengths is not None:
                delta = minimum_image(delta, box_lengths)
            distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
            ia = np.repeat(np.arange(start, stop), rstop - rstart)
            ib = np.tile(np.arange(rstart, rstop), m)
            scatter.add(_bin_idx(distances, width, nbins), ia, ib)
            total += distances.size
    return scatter.limbs, total


def bin_dense_cross_weighted(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of all ``len(a) * len(b)`` cross-set pairs."""
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    mant_a, shift_a = exact.decompose(weights_a)
    mant_b, shift_b = exact.decompose(weights_b)
    limbs = exact.new_limbs(nbins)
    pending = 0
    total = 0
    for astart in range(0, pos_a.shape[0], chunk):
        astop = min(astart + chunk, pos_a.shape[0])
        ablock = pos_a[astart:astop]
        for bstart in range(0, pos_b.shape[0], chunk):
            bstop = min(bstart + chunk, pos_b.shape[0])
            bblock = pos_b[bstart:bstop]
            delta = (ablock[:, None, :] - bblock[None, :, :]).reshape(
                -1, pos_a.shape[1]
            )
            if box_lengths is not None:
                delta = minimum_image(delta, box_lengths)
            distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
            ia = np.repeat(np.arange(astart, astop), bstop - bstart)
            ib = np.tile(np.arange(bstart, bstop), astop - astart)
            exact.scatter_products(
                limbs, _bin_idx(distances, width, nbins),
                mant_a[ia], shift_a[ia], mant_b[ib], shift_b[ib],
            )
            pending += distances.size
            total += distances.size
            if pending >= exact.SCATTER_LIMIT:
                exact.normalize_limbs(limbs)
                pending = 0
    return limbs, total
