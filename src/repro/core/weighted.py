"""Shared exact accumulation state for weighted SDH engines.

Every engine that supports per-particle weights (brute, tree, grid)
funnels its weighted contributions through a :class:`WeightedAccumulator`
so that the whole query is one exact integer computation (see
:mod:`repro.kernels.exact`):

* resolved cell pairs add products of exact cell weight sums;
* kernel leaf batches add their limb arrays;
* slow-path leaf batches (custom buckets, ``low > 0``) scatter per-pair
  products into the same limbs, keyed by
  :meth:`~repro.core.buckets.BucketSpec.bucket_of` indices and honouring
  the overflow policy exactly like
  :meth:`~repro.core.buckets.BucketSpec.bin_counts_query`;
* :meth:`finalize_into` rounds each bucket total once, so the result is
  the correctly-rounded double of the exact real sum regardless of
  which engine (or kernel tier, or chunking) produced it.
"""

from __future__ import annotations

import numpy as np

from ..errors import DistanceOverflowError
from ..kernels import exact
from .buckets import BucketSpec, OverflowPolicy
from .histogram import DistanceHistogram

__all__ = ["WeightedAccumulator"]


class WeightedAccumulator:
    """Exact per-bucket integer sums of pair-weight products."""

    def __init__(self, spec: BucketSpec, policy: OverflowPolicy):
        self.spec = spec
        self.policy = policy
        #: Arbitrary-precision bucket totals (engine-level resolution).
        self.buckets = exact.zero_ints(spec.num_buckets)
        #: Fixed-width limb totals (kernel-level batches), merged into
        #: :attr:`buckets` once at finalization.
        self._limbs = exact.new_limbs(spec.num_buckets)
        self._pending = 0

    # ------------------------------------------------------------------
    def add_mass(self, bucket: int, mass: int) -> None:
        """Add one exact product-scale integer to a bucket."""
        self.buckets[bucket] += mass

    def add_resolved(self, bucket_idx: np.ndarray, masses: np.ndarray) -> None:
        """Add a batch of resolved-pair masses (object-int array)."""
        if bucket_idx.size:
            np.add.at(self.buckets, bucket_idx, masses)

    def add_limbs(self, limbs: np.ndarray, pairs: int) -> None:
        """Merge one kernel batch's limb array (exact integer addition)."""
        self._limbs += limbs
        self._count(max(int(pairs), 1))

    def _count(self, pairs: int) -> None:
        """Note ``pairs`` more products in the limbs; normalize them
        before the int64 digits could overflow."""
        self._pending += pairs
        if self._pending >= exact.SCATTER_LIMIT:
            exact.normalize_limbs(self._limbs)
            self._pending = 0

    def add_overflow(self, mass: int, pairs: int) -> None:
        """A batch of pairs entirely above the last edge, per policy."""
        if self.policy is OverflowPolicy.RAISE:
            raise DistanceOverflowError(
                f"{pairs} weighted pair(s) above {self.spec.high}"
            )
        if self.policy is OverflowPolicy.CLAMP:
            self.buckets[self.spec.num_buckets - 1] += mass
        # DROP: nothing to do.

    def bin_products(
        self,
        distances: np.ndarray,
        weights_a: np.ndarray,
        weights_b: np.ndarray,
    ) -> None:
        """Slow-path binning of realized distances with exact products.

        ``weights_a`` / ``weights_b`` are float weight arrays aligned
        with ``distances``; their products are scattered exactly into
        the limbs.  Below-range distances are dropped (the query
        convention of ``bin_counts_query``); above-range ones follow the
        overflow policy.
        """
        idx = self.spec.bucket_of(distances)
        num = self.spec.num_buckets
        high = idx >= num
        if high.any():
            if self.policy is OverflowPolicy.RAISE:
                bad = np.asarray(distances)[high]
                raise DistanceOverflowError(
                    f"{bad.size} distance(s) above {self.spec.high}, "
                    f"e.g. {bad.flat[0]!r}"
                )
            if self.policy is OverflowPolicy.CLAMP:
                idx = np.where(high, num - 1, idx)
            else:  # DROP
                keep = ~high
                idx = idx[keep]
                weights_a, weights_b = weights_a[keep], weights_b[keep]
        keep = idx >= 0
        if not keep.all():
            idx = idx[keep]
            weights_a, weights_b = weights_a[keep], weights_b[keep]
        if idx.size:
            exact.scatter_products(
                self._limbs, idx,
                *exact.decompose(weights_a), *exact.decompose(weights_b),
            )
            self._count(int(idx.size))

    # ------------------------------------------------------------------
    def totals(self) -> np.ndarray:
        """Exact product-scale integer total per bucket (object array)."""
        return self.buckets + exact.limbs_to_ints(self._limbs)

    def finalize_into(self, histogram: DistanceHistogram) -> DistanceHistogram:
        """Overwrite a histogram's counts with the rounded exact totals."""
        histogram.counts[:] = exact.finalize(self.totals())
        return histogram
