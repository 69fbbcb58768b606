"""The quadratic baseline: compute every pairwise distance.

This is the "current solution" the paper improves on — "calculate
distances between all pairs of particles and put the distances into
bins" (Sec. I-A) — and the ``Dist`` curves of Figs. 8 and 9.  Both
entry points are one :class:`~repro.core.dense.DenseBinner` pass, the
blocked kernels DM-SDH's leaf step uses too, so it is a fair (actually
generous) baseline for the pure-Python engines; its operation count is
exactly ``N(N-1)/2`` distance computations regardless.
"""

from __future__ import annotations

import numpy as np

from ..data.particles import ParticleSet
from ..geometry import AABB
from .buckets import BucketSpec, OverflowPolicy, UniformBuckets
from .dense import DenseBinner
from .histogram import DistanceHistogram
from .instrumentation import SDHStats
from .weighted import WeightedAccumulator

__all__ = ["brute_force_sdh", "brute_force_cross_sdh"]


def brute_force_sdh(
    particles: ParticleSet | np.ndarray,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
    periodic: bool = False,
    kernel: str = "auto",
) -> DistanceHistogram:
    """SDH of one particle set by exhaustive distance computation.

    Parameters
    ----------
    particles:
        A :class:`ParticleSet` or a raw ``(N, d)`` coordinate array.
    spec:
        Bucket specification.  When omitted, ``bucket_width`` must be
        given and the standard query's buckets are derived: equal width,
        covering ``[0, diagonal of the box]``.
    bucket_width:
        Width ``p`` for the derived standard buckets.
    policy:
        Overflow policy for distances beyond the last edge.
    stats:
        Optional counter object; receives the distance-computation count.
    periodic:
        Measure distances under the minimum-image convention over the
        particle set's box (requires a :class:`ParticleSet` input).
    kernel:
        Leaf-resolution backend tier (see :mod:`repro.kernels`):
        ``"auto"`` picks the fastest available, ``"numpy"`` / ``"numba"``
        pin a tier.  All tiers produce bit-identical histograms.
    """
    box_lengths = None
    weights = None
    if isinstance(particles, ParticleSet):
        positions = particles.positions
        weights = particles.weights
        if periodic:
            max_distance = particles.max_periodic_distance
            box_lengths = np.asarray(particles.box.sides)
        else:
            max_distance = particles.max_possible_distance
    else:
        if periodic:
            raise ValueError("periodic SDH needs a ParticleSet with a box")
        positions = np.asarray(particles, dtype=float)
        max_distance = _diagonal(positions)
    if spec is None:
        if bucket_width is None:
            raise ValueError("provide either spec or bucket_width")
        spec = UniformBuckets.cover(max_distance or bucket_width, bucket_width)
    histogram = DistanceHistogram(spec)
    accum = None if weights is None else WeightedAccumulator(spec, policy)
    DenseBinner(
        spec, policy, kernel, max_distance, histogram,
        stats if stats is not None else SDHStats(), accum, box_lengths,
    ).self_pairs(positions, weights)
    if accum is not None:
        accum.finalize_into(histogram)
    return histogram


def brute_force_cross_sdh(
    a: ParticleSet | np.ndarray,
    b: ParticleSet | np.ndarray,
    spec: BucketSpec,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
    periodic: bool = False,
    kernel: str = "auto",
) -> DistanceHistogram:
    """Histogram of all cross distances between two particle sets.

    Used by the type-restricted query baseline (distances between, say,
    every carbon and every oxygen atom) and by tests of the engines'
    cross-cell arithmetic.  ``periodic`` applies the minimum-image
    convention over ``a``'s box (both sets must share it).  ``kernel``
    selects the leaf-resolution backend tier (see :mod:`repro.kernels`).
    """
    pos_a = a.positions if isinstance(a, ParticleSet) else np.asarray(a, float)
    pos_b = b.positions if isinstance(b, ParticleSet) else np.asarray(b, float)
    if periodic:
        if not isinstance(a, ParticleSet):
            raise ValueError("periodic SDH needs ParticleSets with a box")
        box_lengths = np.asarray(a.box.sides)
        reach = a.max_periodic_distance
    else:
        box_lengths = None
        reach = 0.0
        if pos_a.shape[0] and pos_b.shape[0]:
            reach = _diagonal(np.vstack((pos_a, pos_b)))

    weights_a = a.weights if isinstance(a, ParticleSet) else None
    weights_b = b.weights if isinstance(b, ParticleSet) else None
    accum = None
    if weights_a is not None or weights_b is not None:
        if weights_a is None:
            weights_a = np.ones(pos_a.shape[0])
        if weights_b is None:
            weights_b = np.ones(pos_b.shape[0])
        accum = WeightedAccumulator(spec, policy)
    histogram = DistanceHistogram(spec)
    DenseBinner(
        spec, policy, kernel, reach, histogram,
        stats if stats is not None else SDHStats(), accum, box_lengths,
    ).cross_pairs(pos_a, pos_b, weights_a, weights_b)
    if accum is not None:
        accum.finalize_into(histogram)
    return histogram


def _diagonal(positions: np.ndarray) -> float:
    """Diagonal of the points' bounding box (0 for fewer than two)."""
    if positions.shape[0] < 2:
        return 0.0
    return AABB.of_points(positions).diagonal
