"""Incremental SDH maintenance across simulation frames.

The paper's future work (Sec. VIII): "Simulation data are essentially
continuous snapshots (called frames) ... processing SDH separately for
each frame will take intolerably long ... Incremental solutions need to
be developed, taking advantage of the similarity between neighbouring
frames."

This module implements that extension.  When only ``k`` of ``N``
particles moved between frames, the new histogram differs from the old
one only in the distances involving moved particles:

    h_new = h_old
            - cross(moved_old, static) - intra(moved_old)
            + cross(moved_new, static) + intra(moved_new)

which costs ``O(k * N)`` distance computations instead of ``O(N^2)`` —
a win whenever ``k << N``, the regime of neighbouring frames.  All four
correction terms are brute-force histograms (one dense binning pass
each); the result is *exact* (tests assert integer equality with a
from-scratch recomputation).
"""

from __future__ import annotations

import numpy as np

from ..core.brute_force import brute_force_cross_sdh, brute_force_sdh
from ..core.buckets import BucketSpec, OverflowPolicy
from ..core.histogram import DistanceHistogram
from ..data.particles import ParticleSet
from ..data.trajectory import Trajectory
from ..errors import QueryError

__all__ = ["IncrementalSDH", "update_histogram", "sdh_over_trajectory"]


def update_histogram(
    histogram: DistanceHistogram,
    old_positions: np.ndarray,
    new_positions: np.ndarray,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
) -> DistanceHistogram:
    """Exact histogram for ``new_positions`` given one for ``old_positions``.

    The two coordinate arrays must describe the same particles (same
    order, same length); rows that changed are detected automatically.
    Returns a new histogram; the input is not modified.
    """
    old_positions = np.asarray(old_positions, dtype=float)
    new_positions = np.asarray(new_positions, dtype=float)
    if old_positions.shape != new_positions.shape:
        raise QueryError("frame shapes differ; not the same particle set")

    moved = np.any(old_positions != new_positions, axis=1)
    if not moved.any():
        return DistanceHistogram(histogram.spec, histogram.counts)

    spec = histogram.spec
    static = old_positions[~moved]
    out = DistanceHistogram(spec, histogram.counts)

    # Remove the moved particles' old contributions...
    _apply(out, spec, old_positions[moved], static, sign=-1.0, policy=policy)
    # ...and add their new ones.
    _apply(out, spec, new_positions[moved], static, sign=+1.0, policy=policy)
    return out


def _apply(
    histogram: DistanceHistogram,
    spec: BucketSpec,
    moved: np.ndarray,
    static: np.ndarray,
    sign: float,
    policy: OverflowPolicy,
) -> None:
    """Add/subtract cross(moved, static) + intra(moved) contributions."""
    cross = brute_force_cross_sdh(moved, static, spec, policy=policy)
    intra = brute_force_sdh(moved, spec=spec, policy=policy)
    histogram.add_counts(sign * cross.counts)
    histogram.add_counts(sign * intra.counts)


class IncrementalSDH:
    """Stateful frame-to-frame SDH maintenance.

    Feed frames in order; the first frame pays a full computation (via
    the caller-provided base histogram or brute force), every following
    frame pays only for its moved particles.

    >>> inc = IncrementalSDH(spec, frame0)      # doctest: +SKIP
    >>> h1 = inc.advance(frame1)                # doctest: +SKIP
    """

    def __init__(
        self,
        spec: BucketSpec,
        initial: ParticleSet,
        base_histogram: DistanceHistogram | None = None,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
    ):
        self.spec = spec
        self.policy = policy
        self._positions = initial.positions.copy()
        if base_histogram is None:
            base_histogram = brute_force_sdh(
                initial, spec=spec, policy=policy
            )
        elif base_histogram.spec != spec:
            raise QueryError("base histogram spec mismatch")
        self._histogram = DistanceHistogram(spec, base_histogram.counts)
        self.frames_processed = 1
        self.moved_total = 0

    @property
    def histogram(self) -> DistanceHistogram:
        """Histogram of the most recently ingested frame (a copy)."""
        return DistanceHistogram(self.spec, self._histogram.counts)

    def advance(self, frame: ParticleSet) -> DistanceHistogram:
        """Ingest the next frame and return its histogram."""
        new_positions = frame.positions
        if new_positions.shape != self._positions.shape:
            raise QueryError("frame shape changed mid-trajectory")
        moved = np.any(new_positions != self._positions, axis=1)
        self.moved_total += int(moved.sum())
        self._histogram = update_histogram(
            self._histogram, self._positions, new_positions,
            policy=self.policy,
        )
        self._positions = new_positions.copy()
        self.frames_processed += 1
        return self.histogram


def sdh_over_trajectory(
    trajectory: Trajectory,
    spec: BucketSpec,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
) -> list[DistanceHistogram]:
    """Histograms for every frame, maintained incrementally."""
    frames = trajectory.frames
    inc = IncrementalSDH(spec, frames[0], policy=policy)
    out = [inc.histogram]
    for frame in frames[1:]:
        out.append(inc.advance(frame))
    return out
