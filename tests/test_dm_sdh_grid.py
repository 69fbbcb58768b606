"""Tests for repro.core.dm_sdh_grid internals and edge cases."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    GridSDHEngine,
    OverflowPolicy,
    SDHStats,
    UniformBuckets,
    brute_force_sdh,
    dm_sdh_grid,
    make_allocator,
)
from repro.data import uniform, zipf_clustered
from repro.kernels import expand_products
from repro.errors import DistanceOverflowError, QueryError
from repro.quadtree import GridPyramid


class TestExpandProducts:
    """The ragged CSR cross-product expansion (leaf distance kernel)."""

    @staticmethod
    def _collect(*args, **kwargs):
        pairs = []
        for g1, g2 in expand_products(*args, **kwargs):
            pairs.extend(zip(g1.tolist(), g2.tolist()))
        return pairs

    def test_basic(self):
        pairs = set(
            self._collect(
                np.array([0, 5]),
                np.array([2, 1]),
                np.array([10, 20]),
                np.array([2, 3]),
                chunk=100,
            )
        )
        assert pairs == {
            (0, 10), (0, 11), (1, 10), (1, 11),
            (5, 20), (5, 21), (5, 22),
        }

    def test_chunking_preserves_pairs(self):
        args = (
            np.array([0, 3, 9]),
            np.array([3, 2, 4]),
            np.array([100, 200, 300]),
            np.array([2, 5, 3]),
        )
        big = self._collect(*args, chunk=1000)
        small = self._collect(*args, chunk=4)
        assert set(big) == set(small)
        assert len(big) == len(small) == (3 * 2 + 2 * 5 + 4 * 3)

    def test_zero_count_pairs_skipped(self):
        pairs = self._collect(
            np.array([0, 4, 9]),
            np.array([2, 0, 1]),
            np.array([10, 20, 30]),
            np.array([1, 5, 2]),
            chunk=3,
        )
        assert set(pairs) == {(0, 10), (1, 10), (9, 30), (9, 31)}

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert self._collect(empty, empty, empty, empty, chunk=10) == []


class TestExpand:
    """Child-pair expansion against a nested loop over child geometry."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_nested_loops(self, dim):
        pyramid = GridPyramid(zipf_clustered(300, dim=dim, rng=11), height=4)
        engine = GridSDHEngine(pyramid, bucket_width=0.1, pair_chunk=256)
        level = 2
        child_counts = pyramid.counts(level + 1)
        rng = np.random.default_rng(dim)
        cells = pyramid.counts(level).size
        carry = [
            (rng.integers(0, cells, n), rng.integers(0, cells, n))
            for n in (3, 50, 400)
        ]
        got = Counter()
        for a, b in engine._expand(carry, child_level=level + 1):
            got.update(zip(a.tolist(), b.tolist()))

        def live_children(cell):
            corner = 2 * pyramid.decode(level, [cell])[0]
            kids = [
                int(pyramid.encode(level + 1, corner + np.array(shift)))
                for shift in itertools.product((0, 1), repeat=dim)
            ]
            return [k for k in kids if child_counts[k] > 0]

        expected = Counter()
        for cells_a, cells_b in carry:
            for pa, pb in zip(cells_a.tolist(), cells_b.tolist()):
                for ka in live_children(pa):
                    for kb in live_children(pb):
                        expected[(ka, kb)] += 1
        # Parents with some empty children are exercised.
        assert any(
            0 < len(live_children(c)) < 2**dim for c in range(cells)
        )
        assert got == expected


class TestChunkInvariance:
    """Results must not depend on internal batching sizes."""

    def test_pair_chunk(self):
        data = uniform(400, dim=2, rng=61)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        pyramid = GridPyramid(data)
        baseline = dm_sdh_grid(pyramid, spec=spec)
        tiny = GridSDHEngine(
            pyramid, spec=spec, pair_chunk=17, distance_chunk=13
        ).run()
        np.testing.assert_array_equal(baseline.counts, tiny.counts)

    def test_stats_invariant_under_chunking(self):
        data = uniform(300, dim=2, rng=62)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        pyramid = GridPyramid(data)
        s1, s2 = SDHStats(), SDHStats()
        GridSDHEngine(pyramid, spec=spec, stats=s1).run()
        GridSDHEngine(
            pyramid, spec=spec, stats=s2, pair_chunk=19, distance_chunk=11
        ).run()
        assert s1.resolve_calls == s2.resolve_calls
        assert s1.resolved_pairs == s2.resolved_pairs
        assert s1.distance_computations == s2.distance_computations


class TestPolicies:
    def test_overflow_raises_for_short_spec(self):
        data = uniform(100, dim=2, rng=63)
        short = UniformBuckets(
            data.max_possible_distance / 8, 2
        )  # covers a quarter of the diagonal
        with pytest.raises(DistanceOverflowError):
            dm_sdh_grid(data, spec=short)

    def test_clamp_matches_brute_force(self):
        data = uniform(200, dim=2, rng=64)
        short = UniformBuckets(data.max_possible_distance / 6, 3)
        got = dm_sdh_grid(data, spec=short, policy=OverflowPolicy.CLAMP)
        expected = brute_force_sdh(
            data, spec=short, policy=OverflowPolicy.CLAMP
        )
        np.testing.assert_array_equal(expected.counts, got.counts)
        assert got.total == data.num_pairs

    def test_drop_matches_brute_force(self):
        data = uniform(200, dim=2, rng=65)
        short = UniformBuckets(data.max_possible_distance / 6, 3)
        got = dm_sdh_grid(data, spec=short, policy=OverflowPolicy.DROP)
        expected = brute_force_sdh(
            data, spec=short, policy=OverflowPolicy.DROP
        )
        np.testing.assert_array_equal(expected.counts, got.counts)
        assert got.total < data.num_pairs


class TestNonzeroR0:
    def test_custom_low_edge_matches_brute_force(self):
        """r0 > 0 queries drop short distances, per the problem
        statement's generalization."""
        from repro.core import CustomBuckets

        data = uniform(250, dim=2, rng=66)
        diag = data.max_possible_distance
        spec = CustomBuckets(
            [0.2 * diag, 0.4 * diag, 0.7 * diag, diag]
        )
        got = dm_sdh_grid(data, spec=spec)
        expected = brute_force_sdh(data, spec=spec)
        np.testing.assert_array_equal(expected.counts, got.counts)

    def test_nonuniform_buckets_match(self):
        from repro.core import CustomBuckets

        data = uniform(250, dim=2, rng=67)
        diag = data.max_possible_distance
        spec = CustomBuckets(
            [0.0, 0.05 * diag, 0.3 * diag, 0.35 * diag, diag]
        )
        got = dm_sdh_grid(data, spec=spec)
        expected = brute_force_sdh(data, spec=spec)
        np.testing.assert_array_equal(expected.counts, got.counts)
        assert got.total == data.num_pairs


class TestApproximateModeGuards:
    def test_stop_without_allocator_rejected(self):
        data = uniform(100, rng=0)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        with pytest.raises(QueryError):
            GridSDHEngine(pyramid, spec=spec, stop_after_levels=2)

    def test_allocator_without_stop_rejected(self):
        data = uniform(100, rng=0)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        with pytest.raises(QueryError):
            GridSDHEngine(pyramid, spec=spec, allocator=make_allocator(3))

    def test_negative_stop_rejected(self):
        data = uniform(100, rng=0)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        with pytest.raises(QueryError):
            GridSDHEngine(
                pyramid,
                spec=spec,
                stop_after_levels=-1,
                allocator=make_allocator(3),
            )


class TestStats:
    def test_mass_accounting(self):
        """Resolved + computed + approximated == all pairs."""
        data = uniform(500, dim=2, rng=68)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        stats = SDHStats()
        h = dm_sdh_grid(data, spec=spec, stats=stats)
        resolved = sum(stats.resolved_distances.values())
        intra = h.counts[0]  # includes the bucket-0 shortcut mass
        # resolved + computed covers everything outside the intra-cell
        # shortcut; total is conserved regardless.
        assert h.total == data.num_pairs
        assert resolved + stats.distance_computations <= data.num_pairs
        assert resolved + stats.distance_computations >= (
            data.num_pairs - intra
        )

    def test_levels_visited(self):
        data = uniform(1000, dim=2, rng=69)
        spec = UniformBuckets.with_count(data.max_possible_distance, 2)
        stats = SDHStats()
        dm_sdh_grid(data, spec=spec, stats=stats)
        pyramid_height = GridPyramid(data).height
        assert stats.start_level is not None
        assert (
            stats.levels_visited
            == pyramid_height - stats.start_level
        )
