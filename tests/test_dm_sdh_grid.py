"""Tests for repro.core.dm_sdh_grid internals and edge cases."""

import importlib
import itertools
import types
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    CustomBuckets,
    GridSDHEngine,
    OverflowPolicy,
    SDHStats,
    UniformBuckets,
    brute_force_cross_sdh,
    brute_force_sdh,
    dm_sdh_grid,
    make_allocator,
)
from repro.core.dm_sdh_grid import _concat_rows
from repro.data import ParticleSet, uniform, zipf_clustered
from repro.geometry.distance import PANEL_ROWS, minimum_image
from repro.kernels import expand_products, numpy_backend
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
        tiny = GridSDHEngine(pyramid, spec=spec, pair_chunk=17).run()
        np.testing.assert_array_equal(baseline.counts, tiny.counts)

    def test_stats_invariant_under_chunking(self):
        data = uniform(300, dim=2, rng=62)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        pyramid = GridPyramid(data)
        s1, s2 = SDHStats(), SDHStats()
        GridSDHEngine(pyramid, spec=spec, stats=s1).run()
        GridSDHEngine(pyramid, spec=spec, stats=s2, pair_chunk=19).run()
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


class _GatheredLeaves(GridSDHEngine):
    """The gathered formulation of the leaf step, as a reference.

    Every open leaf-cell pair is enumerated into explicit particle index
    pairs, whose distances are binned through the numpy backend's
    gathered kernels (fast binning) or the policy path.
    """

    def _leaf_distances(self, a_ids, b_ids):
        if self.on_leaf_pairs is not None:
            self.on_leaf_pairs(a_ids, b_ids)
        counts = self.pyramid.counts(self.pyramid.leaf_level)
        starts = self.pyramid.leaf_starts
        for g1, g2 in expand_products(
            starts[a_ids], counts[a_ids], starts[b_ids], counts[b_ids],
            1 << 22,
        ):
            if self._sides_sorted is not None:
                keep = self._sides_sorted[g1] != self._sides_sorted[g2]
                g1, g2 = g1[keep], g2[keep]
                if g1.size == 0:
                    continue
            self._bin_gathered(g1, g2)

    def _bin_gathered(self, g1, g2):
        positions = self.pyramid.sorted_positions
        binner = self.binner
        width = binner.width
        nbins = self.spec.num_buckets
        if width is not None and self.weighted:
            limbs, computed = numpy_backend.bin_gathered_pairs_weighted(
                positions, self._w_sorted, g1, g2, width, nbins,
                binner.box_lengths,
            )
            self.stats.distance_computations += computed
            self._accum.add_limbs(limbs, computed)
        elif width is not None:
            hist, computed = numpy_backend.bin_gathered_pairs(
                positions, g1, g2, width, nbins, binner.box_lengths
            )
            self.stats.distance_computations += computed
            self.histogram.counts += hist
        else:
            delta = positions[g1] - positions[g2]
            if self.periodic:
                delta = minimum_image(delta, binner.box_lengths)
            # Squares summed in axis order, as the kernel contract says.
            total = delta[:, 0] * delta[:, 0]
            for axis in range(1, delta.shape[1]):
                total += delta[:, axis] * delta[:, axis]
            distances = np.sqrt(total)
            if self.weighted:
                binner._bin(distances, self._w_sorted[g1], self._w_sorted[g2])
            else:
                binner._bin(distances)


def _recording_backend(calls):
    """The numpy backend, recording the operand sizes of dense calls.

    A cross call records ``(name, len(a), len(b))``, a self call over
    ``n`` points ``(name, n, n)``.
    """

    def recorded(name):
        kernel = getattr(numpy_backend, name)

        def call(pos_a, *args, **kwargs):
            if "cross" in name:
                calls.append((name, len(pos_a), len(args[0])))
            else:
                calls.append((name, len(pos_a), len(pos_a)))
            return kernel(pos_a, *args, **kwargs)

        return call

    backend = types.SimpleNamespace(**{
        name: getattr(numpy_backend, name) for name in numpy_backend.__all__
    })
    for name in numpy_backend.__all__:
        if name.startswith("bin_dense"):
            setattr(backend, name, recorded(name))
    return backend


def _clustered(n, dim, rng, crowd=0.0):
    """Uniform points, with a ``crowd`` fraction packed into one corner."""
    gen = np.random.default_rng(rng)
    pos = gen.random((n, dim))
    packed = int(crowd * n)
    pos[:packed] *= 0.1
    weights = gen.integers(1, 50, n) / 8.0
    return pos, weights


def _leaf_engines(data, spec, cls=GridSDHEngine, height=None, **kwargs):
    """Histogram and stats of one run (or the raised error type)."""
    stats = SDHStats()
    pyramid = GridPyramid(data, height=height)
    engine = cls(pyramid, spec=spec, stats=stats, **kwargs)
    try:
        counts = engine.run().counts.copy()
    except DistanceOverflowError:
        return DistanceOverflowError, None
    # The descent ran, so open leaf pairs reached the leaf step.
    assert stats.resolve_calls
    return counts, stats.distance_computations


class TestDenseLeafTiles:
    """The dense leaf tiles reproduce the gathered leaf step bit for bit."""

    def _same(self, data, spec, **kwargs):
        got = _leaf_engines(data, spec, **kwargs)
        want = _leaf_engines(data, spec, cls=_GatheredLeaves, **kwargs)
        if want[0] is DistanceOverflowError:
            assert got[0] is DistanceOverflowError
            return
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1] > 0

    @pytest.mark.parametrize("dim,num", [(2, 3), (2, 16), (3, 2), (3, 4)])
    def test_plain(self, dim, num):
        pos, _ = _clustered(1500, dim, rng=dim * 10 + num, crowd=0.2)
        data = ParticleSet(pos)
        spec = UniformBuckets.with_count(data.max_possible_distance, num)
        self._same(data, spec)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_weighted(self, dim):
        pos, weights = _clustered(1200, dim, rng=dim + 70, crowd=0.2)
        data = ParticleSet(pos, weights=weights)
        spec = UniformBuckets.with_count(data.max_possible_distance, 5)
        # One level more than the default keeps the 3D start above the
        # leaf map (TestLeafStartSweep has the leaf-start twin).
        self._same(data, spec, height=GridPyramid(data).height + 1)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_cross_split(self, dim, weighted):
        # Side A fills the lower half of axis 0 and side B the upper
        # half except for a mixed strip, so many leaf cells hold only
        # one side and the rest hold both.
        pos, weights = _clustered(1400, dim, rng=dim + 80)
        split = 700
        pos[:split, 0] *= 0.55
        pos[split:, 0] = 0.45 + 0.55 * pos[split:, 0]
        data = ParticleSet(
            pos, weights=weights if weighted else None
        )
        spec = UniformBuckets.with_count(data.max_possible_distance, 5)
        # One level more than the default keeps the 3D start above the
        # leaf map (TestLeafStartSweep has the leaf-start twin).
        height = GridPyramid(data).height + 1
        pyramid = GridPyramid(data, height=height)
        sides = pyramid.order >= split
        leaf = pyramid.leaf_level
        cells = np.repeat(
            np.arange(pyramid.counts(leaf).size), pyramid.counts(leaf)
        )
        side_b = np.bincount(cells, weights=sides, minlength=cells.max() + 1)
        total = np.bincount(cells, minlength=cells.max() + 1)
        assert ((side_b == 0) & (total > 0)).any()
        assert ((side_b == total) & (total > 0)).any()
        assert ((side_b > 0) & (side_b < total)).any()
        self._same(data, spec, height=height, cross_split=split)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_periodic(self, dim):
        pos, _ = _clustered(1500, dim, rng=dim + 90, crowd=0.1)
        data = ParticleSet(pos)
        spec = UniformBuckets.with_count(
            data.max_periodic_distance, 6 if dim == 2 else 2
        )
        self._same(data, spec, periodic=True)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("policy", list(OverflowPolicy))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_custom_buckets(self, dim, policy, weighted):
        pos, weights = _clustered(1000, dim, rng=dim + 100, crowd=0.2)
        data = ParticleSet(pos, weights=weights if weighted else None)
        diag = data.max_possible_distance
        # Uneven edges and a top edge short of the diagonal, so leaf
        # distances fall inside and above the buckets.  low == 0 keeps
        # the start above the leaf map (TestLeafStartSweep has the
        # low > 0 twin).
        spec = CustomBuckets([0.0, 0.3 * diag, 0.33 * diag, 0.6 * diag])
        self._same(data, spec, policy=policy)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_custom_buckets_raise_inside_range(self, dim):
        pos, _ = _clustered(800, dim, rng=dim + 110)
        data = ParticleSet(pos)
        diag = data.max_possible_distance
        spec = CustomBuckets([0.0, 0.3 * diag, 1.01 * diag])
        self._same(data, spec, policy=OverflowPolicy.RAISE)

    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_tiles_stay_within_panel_bound(self, cross, weighted):
        # One corner leaf cell holds more than PANEL_ROWS particles, so
        # A slices split and B blocks span several cells.
        pos, weights = _clustered(2400, 2, rng=120, crowd=0.4)
        data = ParticleSet(pos, weights=weights if weighted else None)
        pyramid = GridPyramid(data, height=3)
        assert pyramid.counts(pyramid.leaf_level).max() > PANEL_ROWS
        spec = UniformBuckets.with_count(data.max_possible_distance, 2)
        calls = []
        kwargs = {"cross_split": 1000} if cross else {}
        engine = GridSDHEngine(pyramid, spec=spec, **kwargs)
        engine.binner.backend = _recording_backend(calls)
        got = engine.run().counts
        want = _GatheredLeaves(pyramid, spec=spec, **kwargs).run().counts
        np.testing.assert_array_equal(got, want)
        assert calls
        assert max(a for _, a, _ in calls) == PANEL_ROWS
        assert all(a * b <= PANEL_ROWS**2 for _, a, b in calls)

    @pytest.mark.parametrize("cross", [False, True])
    def test_spans_split_across_row_blocks(self, cross, monkeypatch):
        # A small tile budget cuts the batch's B rows into many blocks,
        # so A cells' partner spans straddle block edges.
        grid_module = importlib.import_module("repro.core.dm_sdh_grid")
        monkeypatch.setattr(grid_module, "TILE", 600)
        pos, _ = _clustered(1500, 2, rng=125)
        data = ParticleSet(pos)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_possible_distance, 3)
        calls = []
        kwargs = {"cross_split": 700} if cross else {}
        engine = GridSDHEngine(pyramid, spec=spec, **kwargs)
        engine.binner.backend = _recording_backend(calls)
        got = engine.run().counts
        want = _GatheredLeaves(pyramid, spec=spec, **kwargs).run().counts
        np.testing.assert_array_equal(got, want)
        assert len(calls) > 100
        assert all(a * b <= 600 for _, a, b in calls)

    def test_leaf_observer_sees_the_same_pairs(self):
        pos, _ = _clustered(1500, 2, rng=130, crowd=0.2)
        data = ParticleSet(pos)
        spec = UniformBuckets.with_count(data.max_possible_distance, 16)
        pyramid = GridPyramid(data)
        seen = {}
        for cls in (GridSDHEngine, _GatheredLeaves):
            engine = cls(pyramid, spec=spec, pair_chunk=5000)
            calls = seen[cls] = []
            engine.on_leaf_pairs = lambda a, b, calls=calls: calls.append(
                (a.copy(), b.copy())
            )
            engine.run()
        assert len(seen[GridSDHEngine]) > 1
        assert len(seen[GridSDHEngine]) == len(seen[_GatheredLeaves])
        for (a1, b1), (a2, b2) in zip(
            seen[GridSDHEngine], seen[_GatheredLeaves]
        ):
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(b1, b2)

    def test_inter_cell_leaf_step_expands_no_products(self, monkeypatch):
        # repro.core re-exports a function that shadows the module name.
        grid_module = importlib.import_module("repro.core.dm_sdh_grid")
        calls = []

        def counting(*args):
            calls.append(args)
            return expand_products(*args)

        def gathered(*args, **kwargs):
            raise AssertionError("gathered kernel called")

        monkeypatch.setattr(grid_module, "expand_products", counting)
        pos, weights = _clustered(1500, 2, rng=140)
        # 16 buckets descend to leaf tiles, 256 start on the leaf map.
        for num, weighted in itertools.product((16, 256), (False, True)):
            data = ParticleSet(pos, weights=weights if weighted else None)
            spec = UniformBuckets.with_count(data.max_possible_distance, num)
            stats = SDHStats()
            engine = GridSDHEngine(GridPyramid(data), spec=spec, stats=stats)
            dense = []
            engine.binner.backend = backend = _recording_backend(dense)
            backend.bin_gathered_pairs = gathered
            backend.bin_gathered_pairs_weighted = gathered
            engine.run()
            assert stats.distance_computations > 0
            assert dense
        assert calls == []

    @pytest.mark.parametrize(
        "limit,counts",
        [(4, [3, 0, 5, 2]), (1, [2, 2]), (7, [20]), (100, [1, 4, 0, 9])],
    )
    def test_concat_rows(self, limit, counts):
        counts = np.array(counts)
        starts = np.array([40, 3, 11, 70, 90])[: counts.size]
        blocks = list(_concat_rows(starts, counts, limit))
        assert all(1 <= block.size <= limit for _, block in blocks)
        assert [begin for begin, _ in blocks] == list(
            range(0, counts.sum(), limit)
        )
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        )
        np.testing.assert_array_equal(
            np.concatenate([block for _, block in blocks]), expected
        )


class TestLeafStartSweep:
    """A start on the leaf map bins every distance in one dense sweep."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_sweep_matches_descent(self, dim, periodic):
        data = zipf_clustered(900, dim=dim, rng=150 + dim)
        reach = (
            data.max_periodic_distance if periodic
            else data.max_possible_distance
        )
        # Narrower than a leaf cell of the default pyramid, wider than
        # one of a pyramid three levels taller.
        spec = UniformBuckets.with_count(reach, 24 if dim == 2 else 12)
        pyramid = GridPyramid(data)
        stats = SDHStats()
        got = GridSDHEngine(
            pyramid, spec=spec, stats=stats, periodic=periodic
        ).run()
        assert stats.start_level == pyramid.leaf_level
        assert stats.resolve_calls == {}
        assert stats.distance_computations == data.num_pairs
        # Three more levels put the leaf map below the start map, so the
        # same query descends and reaches the leaf tiles.
        want = _leaf_engines(
            data, spec, cls=_GatheredLeaves, height=pyramid.height + 3,
            periodic=periodic,
        )
        np.testing.assert_array_equal(got.counts, want[0])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "mode",
        [
            "cross", "mbr", "weighted", "cross-weighted", "periodic",
            "custom-clamp", "custom-drop", "custom-raise",
            "custom-raise-covered", "custom-weighted",
            "custom-weighted-drop", "custom-weighted-raise",
            "custom-cross-weighted",
        ],
    )
    def test_every_exact_mode_sweeps(self, mode, dim):
        # More than two panels, so a panel's later rows span several
        # kernel panels.
        pos, weights = _clustered(1100, dim, rng=160 + dim, crowd=0.2)
        data = ParticleSet(
            pos, weights=weights if "weighted" in mode else None
        )
        diag = data.max_possible_distance
        kwargs = {}
        if mode.startswith("custom"):
            # low > 0 always starts on the leaf map.
            top = 1.01 if mode.endswith("covered") else 0.6
            spec = CustomBuckets(
                [0.05 * diag, 0.2 * diag, 0.23 * diag, top * diag]
            )
            policy = next(
                (p for p in ("DROP", "RAISE") if p.lower() in mode), "CLAMP"
            )
            kwargs["policy"] = OverflowPolicy[policy]
        elif mode == "periodic":
            spec = UniformBuckets.with_count(data.max_periodic_distance, 256)
            kwargs["periodic"] = True
        else:
            spec = UniformBuckets.with_count(diag, 256)
        if mode == "mbr":
            kwargs["use_mbr"] = True
        split = 500 if "cross" in mode else None
        pyramid = GridPyramid(data)
        stats = SDHStats()
        try:
            got = GridSDHEngine(
                pyramid, spec=spec, stats=stats, cross_split=split, **kwargs
            ).run().counts
        except DistanceOverflowError:
            got = DistanceOverflowError
        kwargs.pop("use_mbr", None)
        try:
            if split is None:
                want = brute_force_sdh(data, spec=spec, **kwargs).counts
            else:
                want = brute_force_cross_sdh(
                    data.select(np.arange(split)),
                    data.select(np.arange(split, data.size)),
                    spec, **kwargs,
                ).counts
        except DistanceOverflowError:
            want = DistanceOverflowError
        assert stats.start_level == pyramid.leaf_level
        assert stats.resolve_calls == {}
        if want is DistanceOverflowError:
            assert got is DistanceOverflowError
            return
        np.testing.assert_array_equal(got, want)
        pairs = data.num_pairs if split is None else split * (1100 - split)
        assert stats.distance_computations == pairs
