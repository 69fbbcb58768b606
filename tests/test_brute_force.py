"""Tests for repro.core.brute_force (the quadratic baseline)."""

import numpy as np
import pytest

from repro.core import (
    CustomBuckets,
    SDHStats,
    UniformBuckets,
    brute_force_cross_sdh,
    brute_force_sdh,
)
from repro.data import uniform
from repro.errors import DistanceOverflowError
from repro.geometry import pairwise_distances
from repro.geometry.distance import PANEL_ROWS


class TestSelfSDH:
    def test_mass_conservation(self):
        data = uniform(150, dim=2, rng=0)
        h = brute_force_sdh(data, bucket_width=0.2)
        assert h.total == data.num_pairs

    def test_known_tiny_case(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        spec = UniformBuckets(1.0, 2)
        h = brute_force_sdh(pts, spec=spec)
        # distances: 1, 1, sqrt(2)
        np.testing.assert_allclose(h.counts, [0.0, 3.0])

    def test_distance_on_bucket_edge(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        spec = UniformBuckets(0.5, 4)
        h = brute_force_sdh(pts, spec=spec)
        # D == 1.0 goes to bucket [1.0, 1.5).
        np.testing.assert_allclose(h.counts, [0, 0, 1, 0])

    def test_max_distance_in_last_bucket(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        spec = UniformBuckets(1.0, 2)
        h = brute_force_sdh(pts, spec=spec)
        np.testing.assert_allclose(h.counts, [0, 1])

    def test_overflow_raises(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])
        with pytest.raises(DistanceOverflowError):
            brute_force_sdh(pts, spec=UniformBuckets(1.0, 2))

    def test_requires_spec_or_width(self):
        with pytest.raises(ValueError):
            brute_force_sdh(np.zeros((3, 2)))

    def test_stats_count(self):
        data = uniform(60, dim=2, rng=1)
        stats = SDHStats()
        brute_force_sdh(data, bucket_width=0.3, stats=stats)
        assert stats.distance_computations == 60 * 59 // 2

    @pytest.mark.parametrize("custom", [False, True])
    def test_panel_blocking_invariance(self, custom):
        # More than two panels: the blocked sweep (fast kernels, or the
        # policy path for custom buckets) bins exactly like one
        # unblocked distance array.
        data = uniform(2 * PANEL_ROWS + 3, dim=3, rng=2)
        diag = data.max_possible_distance
        spec = UniformBuckets.with_count(diag, 8)
        if custom:
            spec = CustomBuckets([0.0, 0.1 * diag, 0.5 * diag, 1.01 * diag])
        got = brute_force_sdh(data, spec=spec).counts
        want = spec.bin_counts(pairwise_distances(data.positions))
        np.testing.assert_array_equal(got, want)

    def test_raw_array_input(self, rng):
        pts = rng.uniform(size=(50, 2))
        h = brute_force_sdh(pts, bucket_width=0.25)
        assert h.total == 50 * 49 // 2


class TestCrossSDH:
    def test_mass(self, rng):
        a = rng.uniform(size=(30, 2))
        b = rng.uniform(size=(20, 2))
        spec = UniformBuckets(0.5, 4)
        h = brute_force_cross_sdh(a, b, spec)
        assert h.total == 600

    def test_matches_manual(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.3, 0.0], [0.0, 0.7]])
        spec = UniformBuckets(0.5, 2)
        h = brute_force_cross_sdh(a, b, spec)
        np.testing.assert_allclose(h.counts, [1.0, 1.0])

    def test_stats(self, rng):
        a = rng.uniform(size=(5, 2))
        b = rng.uniform(size=(7, 2))
        stats = SDHStats()
        brute_force_cross_sdh(a, b, UniformBuckets(1.0, 2), stats=stats)
        assert stats.distance_computations == 35
