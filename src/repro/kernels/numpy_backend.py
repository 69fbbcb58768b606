"""Pure-numpy leaf-resolution backend (always available).

Performs exactly the float operations of the kernel contract —
elementwise delta, minimum-image wrap ``delta - L * round(delta / L)``
(round-half-even), per-axis squares summed in axis order, ``sqrt``,
then a clamped truncating division — so the histograms it produces are
bit-identical to the historical engine output and serve as the
reference the numba tier is verified against.

The dense kernels work axis-major (:class:`_Panels`): each panel is an
``m x k`` array built one coordinate axis at a time, the same
``d2 += delta * delta`` loop as the compiled tier, at a quarter of the
cost of an interleaved ``(m * k, d)`` delta array reduced by
``einsum``.  The gathered kernels sum the gathered deltas' squares
column by column in the same axis order (``einsum`` would sum 3D rows
as ``(x0² + x2²) + x1²``).
"""

from __future__ import annotations

import numpy as np

from ..geometry.distance import PANEL_ROWS, minimum_image
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


def _gathered_bins(
    positions: np.ndarray,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None,
) -> np.ndarray:
    """Clamped bucket index of each enumerated pair's distance."""
    delta = positions[idx_a] - positions[idx_b]
    if box_lengths is not None:
        delta = minimum_image(delta, box_lengths)
    # Squares summed in axis order; einsum would sum 3D rows as
    # (x0² + x2²) + x1².
    total = delta[:, 0] * delta[:, 0]
    for axis in range(1, delta.shape[1]):
        total += delta[:, axis] * delta[:, axis]
    distances = np.sqrt(total)
    # Truncation of a non-negative quotient == floor, and the clamp
    # covers the topmost bucket edge — the same expression as
    # UniformBuckets.bucket_of under the fast-binning eligibility
    # condition (see kernels.fast_uniform_width).
    return np.minimum((distances / width).astype(np.int64), nbins - 1)


class _Panels:
    """Scratch for axis-major distance panels, owned by one kernel call.

    Every dense kernel computes an ``m x k`` panel of distances axis by
    axis into two buffers sized for its largest panel (a third holds the
    minimum-image correction when periodic) and reuses them for every
    panel of the call.  The buffers belong to the call, never to the
    module: the service runs queries on concurrent threads.  They are
    cut from one allocation, which numpy asks Linux to back with huge
    pages once it reaches 4 MiB (two 512 x 512 panels): fresh scratch
    for a 512 x 512 panel then faults in in ~0.2 ms instead of ~2 ms.
    """

    def __init__(
        self, rows_a: int, rows_b: int, dim: int, box_lengths, chunk: int
    ):
        size = min(chunk, rows_a) * min(chunk, rows_b)
        self._lengths = None
        if box_lengths is not None:
            self._lengths = np.ones(dim) * box_lengths
        scratch = np.empty((2 if self._lengths is None else 3, size))
        self._acc, self._term = scratch[0], scratch[1]
        self._wrap = None if self._lengths is None else scratch[2]

    def bins(
        self, a: np.ndarray, b: np.ndarray, width: float, nbins: int
    ) -> np.ndarray:
        """Clamped bucket index of every ``a x b`` distance, row-major.

        Per axis: the delta, its minimum-image wrap and its square; the
        squares summed in axis order; then ``sqrt`` and the truncating
        division.  Clamping before the cast truncates alike, as both
        are monotone and ``nbins - 1`` is integral.  The result is a
        view of this object's scratch, valid until the next call.
        """
        size = a.shape[0] * b.shape[0]
        shape = (a.shape[0], b.shape[0])
        acc = self._acc[:size].reshape(shape)
        term = self._term[:size].reshape(shape)
        for axis in range(a.shape[1]):
            delta = term if axis else acc
            np.subtract.outer(a[:, axis], b[:, axis], out=delta)
            if self._lengths is not None:
                length = self._lengths[axis]
                wrap = self._wrap[:size].reshape(shape)
                np.divide(delta, length, out=wrap)
                np.rint(wrap, out=wrap)  # np.round's half-even rounding
                wrap *= length
                delta -= wrap
            np.multiply(delta, delta, out=delta)
            if axis:
                acc += term
        np.sqrt(acc, out=acc)
        acc /= width
        np.minimum(acc, nbins - 1, out=acc)
        idx = self._term[:size].view(np.intp)
        np.copyto(idx, acc.ravel(), casting="unsafe")
        return idx


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
    bins = _gathered_bins(positions, idx_a, idx_b, width, nbins, box_lengths)
    return np.bincount(bins, minlength=nbins).astype(np.int64), int(bins.size)


def bin_dense_self(
    positions: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Histogram all ``n(n-1)/2`` intra-set distances.

    A diagonal panel bins its full symmetric ``m x m`` square and folds
    it: ``d(i, j)`` and ``d(j, i)`` are bit-equal (subtraction and the
    round-half-even wrap are odd-symmetric), so every off-diagonal
    distance lands twice in its bucket and the ``m`` zero self-distances
    in bucket 0.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    hist = np.zeros(nbins, dtype=np.int64)
    if n < 2:
        return hist, 0
    panels = _Panels(n, n, positions.shape[1], box_lengths, chunk)
    for start in range(0, n, chunk):
        block = positions[start : start + chunk]
        full = np.bincount(
            panels.bins(block, block, width, nbins), minlength=nbins
        )
        full[0] -= block.shape[0]
        hist += full // 2
        for rstart in range(start + chunk, n, chunk):
            rblock = positions[rstart : rstart + chunk]
            hist += np.bincount(
                panels.bins(block, rblock, width, nbins), minlength=nbins
            )
    return hist, n * (n - 1) // 2


def bin_dense_cross(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Histogram all ``len(a) * len(b)`` cross-set distances."""
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    na, nb = pos_a.shape[0], pos_b.shape[0]
    hist = np.zeros(nbins, dtype=np.int64)
    if na == 0 or nb == 0:
        return hist, 0
    panels = _Panels(na, nb, pos_a.shape[1], box_lengths, chunk)
    for astart in range(0, na, chunk):
        ablock = pos_a[astart : astart + chunk]
        for bstart in range(0, nb, chunk):
            bblock = pos_b[bstart : bstart + chunk]
            hist += np.bincount(
                panels.bins(ablock, bblock, width, nbins), minlength=nbins
            )
    return hist, na * nb


# ----------------------------------------------------------------------
# Weighted variants: same distance op-sequence and bin indices as the
# unweighted kernels, with pair weights ``w_i * w_j`` accumulated through
# the exact fixed-point machinery of :mod:`repro.kernels.exact` (limb
# arrays).  Returns ``(limbs, n_distances)``; callers convert limbs to
# exact bucket integers and round once at the end of the query.
# ----------------------------------------------------------------------


class _WeightScatter:
    """Exact pair-product scatter with bounded-overflow normalization.

    ``weights_b`` defaults to ``weights_a`` (pairs within one set).
    """

    def __init__(self, nbins: int, weights_a: np.ndarray, weights_b=None):
        self.mant_a, self.shift_a = exact.decompose(weights_a)
        self.mant_b, self.shift_b = (
            (self.mant_a, self.shift_a)
            if weights_b is None
            else exact.decompose(weights_b)
        )
        self.limbs = exact.new_limbs(nbins)
        self._pending = 0

    def add(self, bins: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray):
        exact.scatter_products(
            self.limbs, bins,
            self.mant_a[idx_a], self.shift_a[idx_a],
            self.mant_b[idx_b], self.shift_b[idx_b],
        )
        self._pending += bins.size
        if self._pending >= exact.SCATTER_LIMIT:
            exact.normalize_limbs(self.limbs)
            self._pending = 0

    def add_panel(
        self, bins: np.ndarray, a_start: int, m: int, b_start: int, k: int
    ):
        """Scatter the row-major bins of rows ``a_start:a_start + m``
        against rows ``b_start:b_start + k``."""
        self.add(
            bins,
            np.repeat(np.arange(a_start, a_start + m), k),
            np.tile(np.arange(b_start, b_start + k), m),
        )


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
    scatter = _WeightScatter(nbins, weights)
    for start in range(0, idx_a.shape[0], chunk):
        ia = idx_a[start : start + chunk]
        ib = idx_b[start : start + chunk]
        scatter.add(
            _gathered_bins(positions, ia, ib, width, nbins, box_lengths),
            ia, ib,
        )
    return scatter.limbs, int(idx_a.shape[0])


def bin_dense_self_weighted(
    positions: np.ndarray,
    weights: np.ndarray,
    width: float,
    nbins: int,
    box_lengths: np.ndarray | None = None,
    chunk: int = PANEL_ROWS,
) -> tuple[np.ndarray, int]:
    """Weighted histogram of all ``n(n-1)/2`` intra-set pairs.

    A diagonal panel is binned as a full square like the unweighted
    kernel's, but only its upper triangle is scattered: pair weights
    cannot be folded the way counts can.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    scatter = _WeightScatter(nbins, weights)
    if n < 2:
        return scatter.limbs, 0
    panels = _Panels(n, n, positions.shape[1], box_lengths, chunk)
    for start in range(0, n, chunk):
        block = positions[start : start + chunk]
        m = block.shape[0]
        if m >= 2:
            iu, ju = np.triu_indices(m, k=1)
            bins = panels.bins(block, block, width, nbins)
            scatter.add(bins[iu * m + ju], start + iu, start + ju)
        for rstart in range(start + chunk, n, chunk):
            rblock = positions[rstart : rstart + chunk]
            scatter.add_panel(
                panels.bins(block, rblock, width, nbins),
                start, m, rstart, rblock.shape[0],
            )
    return scatter.limbs, n * (n - 1) // 2


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
    na, nb = pos_a.shape[0], pos_b.shape[0]
    scatter = _WeightScatter(nbins, weights_a, weights_b)
    if na == 0 or nb == 0:
        return scatter.limbs, 0
    panels = _Panels(na, nb, pos_a.shape[1], box_lengths, chunk)
    for astart in range(0, na, chunk):
        ablock = pos_a[astart : astart + chunk]
        for bstart in range(0, nb, chunk):
            bblock = pos_b[bstart : bstart + chunk]
            scatter.add_panel(
                panels.bins(ablock, bblock, width, nbins),
                astart, ablock.shape[0], bstart, bblock.shape[0],
            )
    return scatter.limbs, na * nb
