"""Dense pair binning: the one place realized distances are binned.

The brute-force baseline ("calculate distances between all pairs of
particles and put the distances into bins", Sec. I-A) and DM-SDH's leaf
step (Fig. 2 lines 7-11) do the same job: compute every distance of a
set of point pairs and credit its bucket.  :class:`DenseBinner` does it
for every exact engine (brute force, the grid, the tree, the kd-tree,
incremental updates and the parallel sweep), and makes the one decision
they share:

* **fast path** -- when :func:`~repro.kernels.fast_uniform_width` says
  the buckets are the standard uniform cover of every realizable
  distance, the selected backend's ``bin_dense_*`` kernels bin the
  pairs (``*_weighted`` into the exact accumulator's limbs);
* **policy path** -- otherwise (custom buckets, ``low > 0``, buckets
  short of the reach) the distances are realized panel by panel and
  binned by :meth:`~repro.core.buckets.BucketSpec.bin_counts_query`, or
  by :meth:`~repro.core.weighted.WeightedAccumulator.bin_products` when
  weighted, honouring the overflow policy.

Both paths compute each distance with the kernel contract's op
sequence, so the histogram does not depend on the path, the block
shapes or the order of the blocks.  Every block binned at once holds at
most ``PANEL_ROWS**2`` distances.
"""

from __future__ import annotations

import numpy as np

from ..geometry import iter_cross_distance_chunks, iter_self_distance_chunks
from ..geometry.distance import PANEL_ROWS
from ..kernels import fast_uniform_width, get_backend
from .buckets import BucketSpec, OverflowPolicy
from .histogram import DistanceHistogram
from .instrumentation import SDHStats
from .weighted import WeightedAccumulator

__all__ = ["DenseBinner", "TILE"]

#: Most distances in one binned block.
TILE = PANEL_ROWS * PANEL_ROWS


class DenseBinner:
    """Bins every distance of point sets into one query's sinks.

    Built once per query.  ``reach`` is the largest realizable distance
    (box diagonal, or the minimum-image bound when ``box_lengths`` makes
    distances periodic).  Counts go to ``histogram``, or to ``accum``
    when the query is weighted (the caller finalizes it); every computed
    distance is counted in ``stats``.  A weighted binner needs the
    weights of every point it bins.
    """

    def __init__(
        self,
        spec: BucketSpec,
        policy: OverflowPolicy,
        kernel: str,
        reach: float,
        histogram: DistanceHistogram,
        stats: SDHStats,
        accum: WeightedAccumulator | None = None,
        box_lengths: np.ndarray | None = None,
    ):
        self.spec = spec
        self.policy = policy
        self.backend = get_backend(kernel)
        #: Bucket width of the fast path, or None for the policy path.
        self.width = fast_uniform_width(spec, reach)
        self.histogram = histogram
        self.stats = stats
        self.accum = accum
        self.box_lengths = box_lengths

    def self_pairs(
        self,
        positions: np.ndarray,
        weights: np.ndarray | None = None,
        first: int = 0,
        step: int = 1,
    ) -> None:
        """Bin the pairs of panels ``first, first + step, ...``.

        Panel ``p`` is rows ``p * PANEL_ROWS`` up to the next panel; its
        pairs among themselves and with every later row are binned, so
        the panels of all ``first < step`` together bin every pair once.
        A contiguous range (``step == 1``) is one self kernel call, so a
        compiled tier keeps its own parallel loop over panels.
        """
        begin = first * PANEL_ROWS
        if step == 1 and self.width is not None:
            rows = slice(begin, None)
            self._self_block(positions[rows], _rows(weights, rows))
            return
        n = positions.shape[0]
        for start in range(begin, n, step * PANEL_ROWS):
            panel = slice(start, min(start + PANEL_ROWS, n))
            rest = slice(panel.stop, n)
            self._self_block(positions[panel], _rows(weights, panel))
            self.cross_pairs(
                positions[panel], positions[rest],
                _rows(weights, panel), _rows(weights, rest),
            )

    def cross_pairs(
        self,
        pos_a: np.ndarray,
        pos_b: np.ndarray,
        weights_a: np.ndarray | None = None,
        weights_b: np.ndarray | None = None,
    ) -> None:
        """Bin all ``len(a) * len(b)`` cross-set pairs.

        Blocks hold at most ``TILE`` distances: the whole tile when it
        fits, else A against blocks of ``TILE // len(A)`` rows of B, and
        ``PANEL_ROWS``-square panels when both sides are longer.
        """
        na, nb = pos_a.shape[0], pos_b.shape[0]
        if na == 0 or nb == 0:
            return
        chunk = max(PANEL_ROWS, TILE // min(na, nb))
        nbins = self.spec.num_buckets
        if self.width is not None and self.accum is not None:
            limbs, computed = self.backend.bin_dense_cross_weighted(
                pos_a, pos_b, weights_a, weights_b, self.width, nbins,
                self.box_lengths, chunk,
            )
            self.accum.add_limbs(limbs, computed)
        elif self.width is not None:
            hist, computed = self.backend.bin_dense_cross(
                pos_a, pos_b, self.width, nbins, self.box_lengths, chunk
            )
            self.histogram.counts += hist
        else:
            blocks = iter_cross_distance_chunks(
                pos_a, pos_b, chunk, self.box_lengths
            )
            for astart in range(0, na, chunk):
                wa = _rows(weights_a, slice(astart, astart + chunk))
                for bstart in range(0, nb, chunk):
                    distances = next(blocks)
                    if wa is None:
                        self._bin(distances)
                        continue
                    # Distances are row-major over (a, b).
                    wb = weights_b[bstart : bstart + chunk]
                    self._bin(
                        distances, np.repeat(wa, wb.size), np.tile(wb, wa.size)
                    )
            return
        self.stats.distance_computations += computed

    def _self_block(
        self, positions: np.ndarray, weights: np.ndarray | None
    ) -> None:
        """All pairs within ``positions`` (at most one panel on the
        policy path)."""
        if positions.shape[0] < 2:
            return
        nbins = self.spec.num_buckets
        if self.width is not None and self.accum is not None:
            limbs, computed = self.backend.bin_dense_self_weighted(
                positions, weights, self.width, nbins, self.box_lengths
            )
            self.accum.add_limbs(limbs, computed)
        elif self.width is not None:
            hist, computed = self.backend.bin_dense_self(
                positions, self.width, nbins, self.box_lengths
            )
            self.histogram.counts += hist
        else:
            # One panel, so one upper-triangle block in triu order.
            (distances,) = iter_self_distance_chunks(
                positions, PANEL_ROWS, self.box_lengths
            )
            if weights is None:
                self._bin(distances)
            else:
                iu, ju = np.triu_indices(positions.shape[0], k=1)
                self._bin(distances, weights[iu], weights[ju])
            return
        self.stats.distance_computations += computed

    def _bin(
        self,
        distances: np.ndarray,
        weights_a: np.ndarray | None = None,
        weights_b: np.ndarray | None = None,
    ) -> None:
        """The policy path: bin realized distances (with their pairs'
        weights when weighted)."""
        self.stats.distance_computations += distances.size
        if self.accum is not None:
            self.accum.bin_products(distances, weights_a, weights_b)
        else:
            self.histogram.add_counts(
                self.spec.bin_counts_query(distances, policy=self.policy)
            )


def _rows(weights: np.ndarray | None, rows: slice) -> np.ndarray | None:
    """``weights[rows]``, or None for an unweighted query."""
    return None if weights is None else weights[rows]
