"""Tests for repro.core.buckets (bucket specifications)."""

import numpy as np
import pytest

from repro.core import CustomBuckets, OverflowPolicy, UniformBuckets
from repro.errors import BucketSpecError, DistanceOverflowError


class TestUniformConstruction:
    def test_basic(self):
        spec = UniformBuckets(0.5, 4)
        assert spec.num_buckets == 4
        assert spec.low == 0.0
        assert spec.high == 2.0
        np.testing.assert_allclose(spec.edges, [0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(spec.widths, 0.5)

    def test_rejects_bad_width(self):
        with pytest.raises(BucketSpecError):
            UniformBuckets(0.0, 4)
        with pytest.raises(BucketSpecError):
            UniformBuckets(-1.0, 4)
        with pytest.raises(BucketSpecError):
            UniformBuckets(float("inf"), 4)

    def test_rejects_zero_buckets(self):
        with pytest.raises(BucketSpecError):
            UniformBuckets(1.0, 0)

    def test_cover_rounds_up(self):
        spec = UniformBuckets.cover(1.0, 0.3)
        assert spec.num_buckets == 4
        assert spec.high >= 1.0

    def test_cover_exact_multiple(self):
        spec = UniformBuckets.cover(1.5, 0.5)
        assert spec.num_buckets == 3

    def test_with_count(self):
        spec = UniformBuckets.with_count(10.0, 4)
        assert spec.width == pytest.approx(2.5)
        assert spec.high == pytest.approx(10.0)

    def test_equality_and_len(self):
        assert UniformBuckets(1.0, 3) == UniformBuckets(1.0, 3)
        assert UniformBuckets(1.0, 3) != UniformBuckets(1.0, 4)
        assert len(UniformBuckets(1.0, 3)) == 3


class TestUniformLookup:
    def setup_method(self):
        self.spec = UniformBuckets(1.0, 4)  # [0,1) [1,2) [2,3) [3,4]

    def test_interior_values(self):
        d = np.array([0.0, 0.5, 1.0, 2.99, 3.5])
        np.testing.assert_array_equal(
            self.spec.bucket_of(d), [0, 0, 1, 2, 3]
        )

    def test_closed_last_edge(self):
        """D == l*p belongs to the last bucket (paper Sec. II)."""
        assert self.spec.bucket_of(np.array([4.0]))[0] == 3

    def test_beyond_range(self):
        assert self.spec.bucket_of(np.array([4.5]))[0] >= 4

    def test_negative_is_flagged(self):
        assert self.spec.bucket_of(np.array([-0.1]))[0] == -1

    def test_interior_edges_open(self):
        """D exactly on an interior edge belongs to the upper bucket."""
        np.testing.assert_array_equal(
            self.spec.bucket_of(np.array([1.0, 2.0, 3.0])), [1, 2, 3]
        )


class TestOverflowPolicies:
    def setup_method(self):
        self.spec = UniformBuckets(1.0, 2)

    def test_raise(self):
        with pytest.raises(DistanceOverflowError):
            self.spec.apply_policy(
                np.array([0.5, 9.0]), OverflowPolicy.RAISE
            )

    def test_clamp(self):
        idx = self.spec.apply_policy(
            np.array([0.5, 9.0]), OverflowPolicy.CLAMP
        )
        np.testing.assert_array_equal(idx, [0, 1])

    def test_drop(self):
        idx = self.spec.apply_policy(
            np.array([0.5, 9.0]), OverflowPolicy.DROP
        )
        np.testing.assert_array_equal(idx, [0])

    def test_bin_counts(self):
        counts = self.spec.bin_counts(np.array([0.1, 0.2, 1.5]))
        np.testing.assert_allclose(counts, [2.0, 1.0])

    def test_bin_counts_weighted(self):
        counts = self.spec.bin_counts(
            np.array([0.5, 1.5]), weights=np.array([2.0, 3.0])
        )
        np.testing.assert_allclose(counts, [2.0, 3.0])

    def test_bin_counts_weighted_drop(self):
        counts = self.spec.bin_counts(
            np.array([0.5, 5.0]),
            weights=np.array([2.0, 3.0]),
            policy=OverflowPolicy.DROP,
        )
        np.testing.assert_allclose(counts, [2.0, 0.0])


class TestResolveRange:
    def setup_method(self):
        self.spec = UniformBuckets(3.0, 4)

    def test_resolvable(self):
        assert self.spec.resolve_range(3.2, 5.9) == 1

    def test_straddles_boundary(self):
        assert self.spec.resolve_range(2.9, 3.1) is None

    def test_upper_edge_exactly_on_boundary(self):
        """[u, v] with v on an interior boundary must NOT resolve:
        a realized distance equal to v belongs to the next bucket."""
        assert self.spec.resolve_range(3.5, 6.0) is None

    def test_last_bucket_closed(self):
        assert self.spec.resolve_range(9.5, 12.0) == 3

    def test_paper_table2_example(self):
        """X0A0-Z0B0 in Table II: [sqrt(10), sqrt(34)] resolves into
        bucket [3, 6)."""
        assert self.spec.resolve_range(
            np.sqrt(10), np.sqrt(34)
        ) == 1

    def test_degenerate_range(self):
        assert self.spec.resolve_range(4.0, 4.0) == 1


class TestCustomBuckets:
    def test_basic(self):
        spec = CustomBuckets([0.0, 1.0, 4.0, 5.0])
        assert spec.num_buckets == 3
        d = np.array([0.5, 1.0, 3.9, 4.2, 5.0])
        np.testing.assert_array_equal(
            spec.bucket_of(d), [0, 1, 1, 2, 2]
        )

    def test_rejects_unsorted(self):
        with pytest.raises(BucketSpecError):
            CustomBuckets([0.0, 2.0, 1.0])

    def test_rejects_too_few_edges(self):
        with pytest.raises(BucketSpecError):
            CustomBuckets([1.0])

    def test_rejects_negative_edges(self):
        with pytest.raises(BucketSpecError):
            CustomBuckets([-1.0, 1.0])

    def test_nonzero_r0(self):
        """The paper's arbitrary-r0 extension: distances below r0 are
        not part of the query."""
        spec = CustomBuckets([1.0, 2.0, 3.0])
        assert spec.bucket_of(np.array([0.5]))[0] == -1
        counts = spec.bin_counts_query(np.array([0.5, 1.5, 2.5]))
        np.testing.assert_allclose(counts, [1.0, 1.0])

    def test_overlapped_buckets(self):
        spec = CustomBuckets([0.0, 1.0, 2.0, 4.0])
        assert spec.overlapped_buckets(0.5, 2.5) == (0, 2)
        assert spec.overlapped_buckets(1.2, 1.8) == (1, 1)

    def test_equality_across_types(self):
        uniform = UniformBuckets(1.0, 3)
        custom = CustomBuckets([0.0, 1.0, 2.0, 3.0])
        assert uniform == custom

    def test_resolve_range_log_lookup(self):
        spec = CustomBuckets([0.0, 1.0, 10.0, 11.0])
        assert spec.resolve_range(2.0, 9.5) == 1
        assert spec.resolve_range(9.5, 10.5) is None


class TestScalarLookupRegression:
    """The O(log l) scalar lookup must mirror the vectorized binning.

    ``resolve_range`` / ``overlapped_buckets`` run per node pair in the
    tree engine, so they use a bisect-based scalar fast path
    (Buccafurri-style index over the edge array) instead of building
    1-element numpy arrays.  These tests pin the two paths together on
    the layout most likely to expose a divergence: log-scaled
    non-uniform buckets with a non-zero r0.
    """

    def log_spec(self) -> CustomBuckets:
        edges = np.logspace(-2, 1, 24)  # 0.01 .. 10, 23 buckets
        return CustomBuckets(edges)

    def test_scalar_matches_vectorized_on_log_buckets(self):
        spec = self.log_spec()
        rng = np.random.default_rng(42)
        samples = np.concatenate(
            [
                rng.uniform(0.0, 12.0, 2000),
                spec.edges,  # exactly on every edge
                np.nextafter(spec.edges, -np.inf),
                np.nextafter(spec.edges, np.inf),
            ]
        )
        vectorized = spec.bucket_of(samples)
        for d, expected in zip(samples, vectorized):
            assert spec._bucket_index_scalar(float(d)) == expected

    def test_resolve_range_log_buckets(self):
        spec = self.log_spec()
        # Inside one bucket resolves; straddling an edge does not.
        lo, hi = float(spec.edges[10]), float(spec.edges[11])
        mid = (lo + hi) / 2.0
        assert spec.resolve_range(lo, mid) == 10
        assert spec.resolve_range(mid, hi * 1.001) is None
        # Below r0 or beyond the last edge never resolves.
        assert spec.resolve_range(0.001, 0.005) is None
        assert spec.resolve_range(20.0, 30.0) is None

    def test_overlapped_buckets_log_buckets(self):
        spec = self.log_spec()
        rng = np.random.default_rng(7)
        for _ in range(500):
            u, v = np.sort(rng.uniform(0.0, 12.0, 2))
            lo, hi = spec.overlapped_buckets(float(u), float(v))
            assert 0 <= lo <= hi <= spec.num_buckets - 1
            # The span is exactly the buckets the endpoints map into,
            # clamped to the histogram domain.
            expected_lo = min(
                max(spec._bucket_index_scalar(float(u)), 0),
                spec.num_buckets - 1,
            )
            expected_hi = min(
                max(spec._bucket_index_scalar(float(v)), 0),
                spec.num_buckets - 1,
            )
            assert (lo, hi) == (expected_lo, expected_hi)

    def test_uniform_scalar_fast_path_closed_last_edge(self):
        spec = UniformBuckets(1.0, 8)
        assert spec._bucket_index_scalar(8.0) == 7  # closed last edge
        assert spec._bucket_index_scalar(8.0 * (1 + 1e-12)) == 7
        assert spec._bucket_index_scalar(8.1) == 8  # overflow sentinel
        assert spec._bucket_index_scalar(-0.5) == -1


class TestCustomLookupPaths:
    """The vectorized lookup and the fused query binning agree with the
    scalar bisect reference."""

    @staticmethod
    def samples(spec):
        edges = spec.edges
        band = edges[-1] * (1.0 + 1e-9)
        rng = np.random.default_rng(11)
        return np.concatenate(
            [
                rng.uniform(0.0, 1.2 * edges[-1], 3000),
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [band, np.nextafter(band, np.inf), 0.0, np.inf],
            ]
        )

    @pytest.mark.parametrize("count", [2, 24, 300])
    def test_vectorized_matches_scalar(self, count):
        spec = CustomBuckets(np.logspace(-2, 1, count + 1))
        samples = self.samples(spec)
        vectorized = spec.bucket_of(samples)
        assert vectorized.dtype == np.int64
        for d, got in zip(samples.tolist(), vectorized.tolist()):
            assert got == spec._bucket_index_scalar(d)

    def test_top_edge_at_the_double_range(self):
        spec = CustomBuckets([0.5, 1.0, np.finfo(float).max])
        samples = np.array([0.1, 0.5, 2.0, np.finfo(float).max, np.inf])
        np.testing.assert_array_equal(spec.bucket_of(samples), [-1, 0, 1, 1, 1])

    @pytest.mark.parametrize("policy", list(OverflowPolicy))
    def test_query_binning_drops_below_low(self, policy):
        spec = CustomBuckets([0.2, 0.5, 0.6, 1.0])
        samples = self.samples(spec)
        kept = samples[samples >= spec.low]
        try:
            want = spec.bin_counts(kept, policy=policy)
        except DistanceOverflowError:
            with pytest.raises(DistanceOverflowError):
                spec.bin_counts_query(samples, policy=policy)
            return
        np.testing.assert_array_equal(
            spec.bin_counts_query(samples, policy=policy), want
        )
