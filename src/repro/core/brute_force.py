"""The quadratic baseline: compute every pairwise distance.

This is the "current solution" the paper improves on — "calculate
distances between all pairs of particles and put the distances into
bins" (Sec. I-A) — and the ``Dist`` curves of Figs. 8 and 9.  The
implementation is blocked numpy, so it is a fair (actually generous)
baseline for the pure-Python engines; its operation count is exactly
``N(N-1)/2`` distance computations regardless.
"""

from __future__ import annotations

import numpy as np

from ..data.particles import ParticleSet
from ..geometry import AABB, iter_cross_distance_chunks, iter_self_distance_chunks
from ..geometry.distance import PANEL_ROWS, minimum_image
from ..kernels import exact, fast_uniform_width, get_backend
from .buckets import BucketSpec, OverflowPolicy, UniformBuckets
from .histogram import DistanceHistogram
from .instrumentation import SDHStats
from .weighted import WeightedAccumulator

__all__ = ["brute_force_sdh", "brute_force_cross_sdh"]


def brute_force_sdh(
    particles: ParticleSet | np.ndarray,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    chunk: int = PANEL_ROWS,
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
    chunk:
        Block size for the chunked distance sweep.
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
    if isinstance(particles, ParticleSet):
        positions = particles.positions
        if periodic:
            max_distance = particles.max_periodic_distance
            box_lengths = np.asarray(particles.box.sides)
        else:
            max_distance = particles.max_possible_distance
    else:
        if periodic:
            raise ValueError("periodic SDH needs a ParticleSet with a box")
        positions = np.asarray(particles, dtype=float)
        max_distance = None
    spec = _derive_spec(spec, bucket_width, max_distance, positions)
    backend = get_backend(kernel)

    fast_width = None
    if positions.shape[0] > 1:
        reach = max_distance
        if reach is None:
            reach = AABB.of_points(positions).diagonal
        fast_width = fast_uniform_width(spec, reach)

    weights = (
        particles.weights if isinstance(particles, ParticleSet) else None
    )
    histogram = DistanceHistogram(spec)
    if weights is not None:
        accum = WeightedAccumulator(spec, policy)
        if fast_width is not None:
            limbs, computed = backend.bin_dense_self_weighted(
                positions, weights, fast_width, spec.num_buckets,
                box_lengths, chunk=chunk,
            )
            accum.add_limbs(limbs, computed)
        else:
            computed = _slow_weighted_self(
                positions, weights, accum, box_lengths, chunk
            )
        accum.finalize_into(histogram)
    elif fast_width is not None:
        hist, computed = backend.bin_dense_self(
            positions, fast_width, spec.num_buckets, box_lengths, chunk=chunk
        )
        histogram.counts += hist
    else:
        computed = 0
        for distances in iter_self_distance_chunks(
            positions, chunk=chunk, box_lengths=box_lengths
        ):
            histogram.add_counts(
                spec.bin_counts_query(distances, policy=policy)
            )
            computed += distances.size
    if stats is not None:
        stats.distance_computations += computed
    return histogram


def brute_force_cross_sdh(
    a: ParticleSet | np.ndarray,
    b: ParticleSet | np.ndarray,
    spec: BucketSpec,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    chunk: int = PANEL_ROWS,
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
    box_lengths = None
    if periodic:
        if not isinstance(a, ParticleSet):
            raise ValueError("periodic SDH needs ParticleSets with a box")
        box_lengths = np.asarray(a.box.sides)
    pos_a = a.positions if isinstance(a, ParticleSet) else np.asarray(a, float)
    pos_b = b.positions if isinstance(b, ParticleSet) else np.asarray(b, float)
    backend = get_backend(kernel)

    fast_width = None
    if pos_a.shape[0] and pos_b.shape[0]:
        if periodic:
            reach = a.max_periodic_distance
        else:
            reach = AABB.of_points(np.vstack((pos_a, pos_b))).diagonal
        fast_width = fast_uniform_width(spec, reach)

    weights_a = a.weights if isinstance(a, ParticleSet) else None
    weights_b = b.weights if isinstance(b, ParticleSet) else None
    weighted = weights_a is not None or weights_b is not None
    histogram = DistanceHistogram(spec)
    if weighted:
        if weights_a is None:
            weights_a = np.ones(pos_a.shape[0])
        if weights_b is None:
            weights_b = np.ones(pos_b.shape[0])
        accum = WeightedAccumulator(spec, policy)
        if fast_width is not None:
            limbs, computed = backend.bin_dense_cross_weighted(
                pos_a, pos_b, weights_a, weights_b, fast_width,
                spec.num_buckets, box_lengths, chunk=chunk,
            )
            accum.add_limbs(limbs, computed)
        else:
            computed = _slow_weighted_cross(
                pos_a, pos_b, weights_a, weights_b, accum, box_lengths,
                chunk,
            )
        accum.finalize_into(histogram)
    elif fast_width is not None:
        hist, computed = backend.bin_dense_cross(
            pos_a, pos_b, fast_width, spec.num_buckets, box_lengths,
            chunk=chunk,
        )
        histogram.counts += hist
    else:
        computed = 0
        for distances in iter_cross_distance_chunks(
            pos_a, pos_b, chunk=chunk, box_lengths=box_lengths
        ):
            histogram.add_counts(
                spec.bin_counts_query(distances, policy=policy)
            )
            computed += distances.size
    if stats is not None:
        stats.distance_computations += computed
    return histogram


def _slow_weighted_self(
    positions: np.ndarray,
    weights: np.ndarray,
    accum: WeightedAccumulator,
    box_lengths: np.ndarray | None,
    chunk: int,
) -> int:
    """Weighted self sweep for kernel-ineligible bucket specs.

    Enumerates the same blocked pair order (and the identical distance
    op-sequence) as the kernels, but bins through ``spec.bucket_of`` so
    custom buckets, ``low > 0`` and the overflow policy behave exactly
    like the unweighted ``bin_counts_query`` path.
    """
    positions = np.asarray(positions, dtype=float)
    w_ints = exact.weight_ints(weights)
    n, dim = positions.shape
    computed = 0
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
            accum.bin_products(
                distances, w_ints[start + iu], w_ints[start + ju]
            )
            computed += distances.size
        for rstart in range(stop, n, chunk):
            rstop = min(rstart + chunk, n)
            delta = (
                block[:, None, :] - positions[rstart:rstop][None, :, :]
            ).reshape(-1, dim)
            if box_lengths is not None:
                delta = minimum_image(delta, box_lengths)
            distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
            ia = np.repeat(np.arange(start, stop), rstop - rstart)
            ib = np.tile(np.arange(rstart, rstop), m)
            accum.bin_products(distances, w_ints[ia], w_ints[ib])
            computed += distances.size
    return computed


def _slow_weighted_cross(
    pos_a: np.ndarray,
    pos_b: np.ndarray,
    weights_a: np.ndarray,
    weights_b: np.ndarray,
    accum: WeightedAccumulator,
    box_lengths: np.ndarray | None,
    chunk: int,
) -> int:
    """Weighted cross sweep for kernel-ineligible bucket specs."""
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    wa_ints = exact.weight_ints(weights_a)
    wb_ints = exact.weight_ints(weights_b)
    computed = 0
    for astart in range(0, pos_a.shape[0], chunk):
        astop = min(astart + chunk, pos_a.shape[0])
        ablock = pos_a[astart:astop]
        for bstart in range(0, pos_b.shape[0], chunk):
            bstop = min(bstart + chunk, pos_b.shape[0])
            delta = (
                ablock[:, None, :] - pos_b[bstart:bstop][None, :, :]
            ).reshape(-1, pos_a.shape[1])
            if box_lengths is not None:
                delta = minimum_image(delta, box_lengths)
            distances = np.sqrt(np.einsum("ij,ij->i", delta, delta))
            ia = np.repeat(np.arange(astart, astop), bstop - bstart)
            ib = np.tile(np.arange(bstart, bstop), astop - astart)
            accum.bin_products(distances, wa_ints[ia], wb_ints[ib])
            computed += distances.size
    return computed


def _derive_spec(
    spec: BucketSpec | None,
    bucket_width: float | None,
    max_distance: float | None,
    positions: np.ndarray,
) -> BucketSpec:
    """Resolve the (spec, bucket_width) calling convention."""
    if spec is not None:
        return spec
    if bucket_width is None:
        raise ValueError("provide either spec or bucket_width")
    if max_distance is None:
        from ..geometry import AABB

        max_distance = AABB.of_points(positions).diagonal
        if max_distance <= 0:
            max_distance = bucket_width
    return UniformBuckets.cover(max_distance, bucket_width)
