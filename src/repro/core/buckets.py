"""Histogram bucket specifications.

Section II of the paper defines the *standard* SDH query: ``l`` buckets
of equal width ``p`` covering ``[0, l*p]``, the last bucket closed so the
maximum pairwise distance lands in bucket ``l-1``.  It also notes the
extension to non-uniform bucket widths, which costs ``O(log l)`` per
lookup instead of ``O(1)``.  Both live here:

* :class:`UniformBuckets` — the standard query (constant-time lookup via
  ``floor(D / p)``);
* :class:`CustomBuckets` — arbitrary monotone edges (binary-search
  lookup).

All SDH engines talk to the :class:`BucketSpec` interface only, so every
algorithm in the library supports both forms, exactly as claimed in the
paper.

A shared *edge convention* keeps cell resolution consistent with direct
distance binning (see DESIGN.md): a distance maps to the bucket whose
half-open range contains it; a distance exactly equal to the overall
upper edge is clamped into the last bucket.  Distances beyond the upper
edge are governed by :class:`OverflowPolicy`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from enum import Enum
from typing import Sequence

import numpy as np

from ..errors import BucketSpecError, DistanceOverflowError

__all__ = ["OverflowPolicy", "BucketSpec", "UniformBuckets", "CustomBuckets"]

# Relative tolerance when deciding whether a distance that landed just
# past the final edge is a floating-point artefact of the edge itself.
_EDGE_RTOL = 1e-9


class OverflowPolicy(Enum):
    """What to do with distances beyond the last bucket edge."""

    RAISE = "raise"  #: raise :class:`DistanceOverflowError`
    CLAMP = "clamp"  #: count them in the last bucket
    DROP = "drop"  #: silently ignore them


class BucketSpec(ABC):
    """Interface for a series of distance buckets ``[e_0, e_1, ..., e_l]``.

    Buckets are ``[e_i, e_{i+1})`` for ``i < l-1`` and ``[e_{l-1}, e_l]``
    for the last one, matching the paper's standard query where the final
    edge is the maximum pairwise distance.
    """

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def num_buckets(self) -> int:
        """Number of buckets ``l``."""

    @property
    @abstractmethod
    def edges(self) -> np.ndarray:
        """Float array of ``l + 1`` monotonically increasing edges."""

    @property
    def low(self) -> float:
        """Lower edge of the first bucket (``r_0``)."""
        return float(self.edges[0])

    @property
    def high(self) -> float:
        """Upper edge of the last bucket (``r_l``)."""
        return float(self.edges[-1])

    @property
    def widths(self) -> np.ndarray:
        """Per-bucket widths."""
        return np.diff(self.edges)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @abstractmethod
    def bucket_of(self, distances: np.ndarray) -> np.ndarray:
        """Bucket index for each distance, **without** overflow handling.

        Returns an int64 array; distances below ``low`` map to ``-1`` and
        distances above ``high`` (beyond tolerance) map to
        ``num_buckets``.  Engines needing policy enforcement should call
        :meth:`bin_counts` or :meth:`apply_policy` instead.
        """

    def apply_policy(
        self,
        distances: np.ndarray,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
    ) -> np.ndarray:
        """Bucket indices with the overflow policy applied.

        Under ``DROP`` the returned array may be shorter than the input
        (out-of-range distances removed); under ``CLAMP`` every distance
        maps to a valid index; under ``RAISE`` any out-of-range distance
        aborts with :class:`DistanceOverflowError`.
        """
        distances = np.asarray(distances, dtype=float)
        idx = self.bucket_of(distances)
        out_low = idx < 0
        out_high = idx >= self.num_buckets
        if policy is OverflowPolicy.RAISE:
            if out_low.any() or out_high.any():
                bad = distances[out_low | out_high]
                raise DistanceOverflowError(
                    f"{bad.size} distance(s) outside [{self.low}, "
                    f"{self.high}], e.g. {bad.flat[0]!r}"
                )
            return idx
        if policy is OverflowPolicy.CLAMP:
            return np.clip(idx, 0, self.num_buckets - 1)
        keep = ~(out_low | out_high)
        return idx[keep]

    def bin_counts(
        self,
        distances: np.ndarray,
        weights: np.ndarray | None = None,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
    ) -> np.ndarray:
        """Histogram an array of distances into per-bucket counts.

        Returns a float64 array of length ``num_buckets`` (float so that
        weighted/approximate counts can share the code path; exact
        engines produce integral values).
        """
        distances = np.asarray(distances, dtype=float)
        if policy is OverflowPolicy.DROP and weights is not None:
            idx_all = self.bucket_of(distances)
            keep = (idx_all >= 0) & (idx_all < self.num_buckets)
            idx = idx_all[keep]
            weights = np.asarray(weights, dtype=float)[keep]
        else:
            idx = self.apply_policy(distances, policy)
        if weights is None:
            return np.bincount(idx, minlength=self.num_buckets).astype(float)
        return np.bincount(
            idx, weights=weights, minlength=self.num_buckets
        ).astype(float)

    def bin_counts_query(
        self,
        distances: np.ndarray,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
    ) -> np.ndarray:
        """Histogram distances for a *query*: below-range is not an error.

        An SDH query with ``r_0 > 0`` simply does not count distances
        below ``r_0``; only the high side is governed by ``policy``.
        For the standard query (``low == 0``) this is identical to
        :meth:`bin_counts`.
        """
        distances = np.asarray(distances, dtype=float)
        if self.low == 0:
            return self.bin_counts(distances, policy=policy)
        # Slot 0 counts the distances below low, slot num + 1 those above.
        num = self.num_buckets
        idx = self.bucket_of(distances)
        idx += 1
        counts = np.bincount(idx, minlength=num + 2)
        above = int(counts[num + 1])
        if above and policy is OverflowPolicy.RAISE:
            raise DistanceOverflowError(
                f"{above} distance(s) outside [{self.low}, {self.high}], "
                f"e.g. {distances[idx == num + 1][0]!r}"
            )
        if policy is OverflowPolicy.CLAMP:
            counts[num] += above
        return counts[1 : num + 1].astype(float)

    # ------------------------------------------------------------------
    # Cell resolution (the heart of DM-SDH)
    # ------------------------------------------------------------------
    def _bucket_index_scalar(self, d: float) -> int:
        """Scalar :meth:`bucket_of` for one distance.

        The node-recursive engines call :meth:`resolve_range` once per
        visited cell pair, so this path must not pay per-call numpy
        array construction.  Subclasses override with an O(1) or
        O(log l) pure-Python lookup; this fallback keeps exotic
        subclasses correct by deferring to their vectorized
        :meth:`bucket_of`.
        """
        return int(self.bucket_of(np.asarray([d], dtype=float))[0])

    def resolve_range(self, u: float, v: float) -> int | None:
        """Bucket that the whole distance range ``[u, v]`` falls into.

        Returns the bucket index when every distance in ``[u, v]`` is
        guaranteed to land in one bucket (the two cells *resolve*, paper
        Sec. III-B), else ``None``.
        """
        lo = self._bucket_index_scalar(float(u))
        if lo < 0 or lo >= self.num_buckets:
            return None
        if lo != self._bucket_index_scalar(float(v)):
            return None
        return lo

    def resolve_ranges(
        self, u: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized bucket indices of range endpoints.

        For each pair the range resolves iff the two returned indices are
        equal (and in range).  The upper endpoint uses the same clamping
        convention as :meth:`bucket_of`, so resolution can never disagree
        with direct binning of the realized distances.
        """
        return self.bucket_of(u), self.bucket_of(v)

    def overlapped_buckets(self, u: float, v: float) -> tuple[int, int]:
        """Inclusive index range of buckets overlapped by ``[u, v]``.

        Used by the approximate heuristics (Sec. V, Fig. 7) to know which
        buckets receive shares of an unresolved pair.  Endpoints are
        clipped into the valid bucket range.
        """
        last = self.num_buckets - 1
        lo = min(max(self._bucket_index_scalar(float(u)), 0), last)
        hi = min(max(self._bucket_index_scalar(float(v)), 0), last)
        return lo, hi

    def __len__(self) -> int:
        return self.num_buckets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BucketSpec):
            return NotImplemented
        return self.num_buckets == other.num_buckets and bool(
            np.array_equal(self.edges, other.edges)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self.num_buckets, self.edges.tobytes()))


class UniformBuckets(BucketSpec):
    """The paper's standard SDH buckets: equal width ``p`` starting at 0.

    ``bucket_of`` is a constant-time ``floor(D / p)``, as assumed by the
    complexity analysis in Sec. II.
    """

    def __init__(self, width: float, num_buckets: int):
        if not math.isfinite(width) or width <= 0:
            raise BucketSpecError(f"bucket width must be positive, got {width}")
        if num_buckets < 1:
            raise BucketSpecError(
                f"need at least one bucket, got {num_buckets}"
            )
        self._width = float(width)
        self._num = int(num_buckets)
        self._edges = np.arange(self._num + 1, dtype=float) * self._width
        self._high_tol = float(self._edges[-1]) * (1.0 + _EDGE_RTOL)

    # ------------------------------------------------------------------
    @staticmethod
    def cover(max_distance: float, width: float) -> "UniformBuckets":
        """Buckets of width ``width`` covering ``[0, max_distance]``.

        The standard query sets the last edge to the maximum pairwise
        distance; this helper rounds the bucket count up so the whole
        range is covered.
        """
        if max_distance <= 0:
            raise BucketSpecError(
                f"max_distance must be positive, got {max_distance}"
            )
        num = max(1, int(math.ceil(max_distance / width - _EDGE_RTOL)))
        return UniformBuckets(width, num)

    @staticmethod
    def with_count(max_distance: float, num_buckets: int) -> "UniformBuckets":
        """``num_buckets`` equal buckets exactly covering ``[0, max_distance]``.

        This is how the paper's experiments parameterize queries: a total
        bucket count ``l`` over the domain diameter, giving
        ``p = max_distance / l``.
        """
        if max_distance <= 0:
            raise BucketSpecError(
                f"max_distance must be positive, got {max_distance}"
            )
        if num_buckets < 1:
            raise BucketSpecError(
                f"need at least one bucket, got {num_buckets}"
            )
        return UniformBuckets(max_distance / num_buckets, num_buckets)

    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """The bucket width ``p``."""
        return self._width

    @property
    def num_buckets(self) -> int:
        return self._num

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    def bucket_of(self, distances: np.ndarray) -> np.ndarray:
        distances = np.asarray(distances, dtype=float)
        idx = np.floor(distances / self._width).astype(np.int64)
        # Clamp the closed upper edge of the last bucket: D == l*p (up to
        # floating-point noise of the edge itself) belongs to bucket l-1.
        high = self.high
        at_edge = (idx == self._num) & (
            distances <= high * (1.0 + _EDGE_RTOL)
        )
        idx[at_edge] = self._num - 1
        idx[distances < 0] = -1
        return idx

    def _bucket_index_scalar(self, d: float) -> int:
        # Mirrors bucket_of exactly: floor(d / p), the closed last edge
        # clamped (within _EDGE_RTOL) into the final bucket.
        if d < 0:
            return -1
        idx = int(d / self._width)
        if idx == self._num and d <= self._high_tol:
            return self._num - 1
        return idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformBuckets(width={self._width:g}, l={self._num})"


class CustomBuckets(BucketSpec):
    """Non-uniform buckets defined by an explicit edge sequence.

    Lookup is ``O(log l)``, matching the paper's remark in Sec. II that
    binary search over the edge index is the only complication of
    non-uniform widths (the tree-structured bucket index of Buccafurri
    et al.): array lookups go through :func:`numpy.searchsorted`, the
    per-cell-pair scalar path through :func:`bisect.bisect_right` over
    a cached plain-Python edge list, so the node-recursive engines
    never pay numpy array construction per resolved pair.
    """

    def __init__(self, edges: Sequence[float]):
        arr = np.asarray(list(edges), dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise BucketSpecError("need at least two edges")
        if not np.all(np.isfinite(arr)):
            raise BucketSpecError("edges must be finite")
        if not np.all(np.diff(arr) > 0):
            raise BucketSpecError("edges must be strictly increasing")
        if arr[0] < 0:
            raise BucketSpecError("edges must be non-negative distances")
        self._edges = arr
        # Cached for the scalar bisect path: plain floats beat numpy
        # scalars by ~10x in bisect_right comparisons.
        self._edge_list = arr.tolist()
        self._high_tol = float(arr[-1]) * (1.0 + _EDGE_RTOL)
        # bucket_of places distances among these edges alone: the last
        # edge moved just past the tolerance band closes the last bucket
        # there, and everything beyond lands on num_buckets.
        self._search_edges = arr.copy()
        self._search_edges[-1] = np.nextafter(self._high_tol, np.inf)

    @property
    def num_buckets(self) -> int:
        return self._edges.size - 1

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    def bucket_of(self, distances: np.ndarray) -> np.ndarray:
        distances = np.asarray(distances, dtype=float)
        idx = np.searchsorted(self._search_edges, distances, side="right")
        idx = idx.astype(np.int64, copy=False)
        idx -= 1
        if np.isinf(self._high_tol):
            # No double lies past an infinite band; keep +inf inside.
            idx[distances == np.inf] = self.num_buckets - 1
        return idx

    def _bucket_index_scalar(self, d: float) -> int:
        # Mirrors bucket_of exactly, including the closed-last-edge
        # clamp and the below-low / above-high sentinels.
        edges = self._edge_list
        high = edges[-1]
        if d >= high:
            return self.num_buckets - 1 if d <= self._high_tol \
                else self.num_buckets
        if d < edges[0]:
            return -1
        return bisect_right(edges, d) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CustomBuckets(l={self.num_buckets}, high={self.high:g})"
