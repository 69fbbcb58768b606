"""Tests for repro.core.dense (the one dense pair binner)."""

import numpy as np
import pytest

from repro.core import (
    CustomBuckets,
    DistanceHistogram,
    OverflowPolicy,
    SDHStats,
    UniformBuckets,
    brute_force_cross_sdh,
    brute_force_sdh,
    dm_sdh_tree,
)
from repro.core.dense import TILE, DenseBinner
from repro.core.weighted import WeightedAccumulator
from repro.data import ParticleSet
from repro.errors import DistanceOverflowError
from repro.geometry.distance import PANEL_ROWS
from repro.quadtree import DensityMapTree

MODES = [
    "plain", "weighted", "periodic", "custom-clamp", "custom-drop",
    "custom-raise", "custom-weighted",
]


def _query(mode, n, dim, rng):
    """(positions, weights, spec, policy, reach, box_lengths) of a mode."""
    gen = np.random.default_rng(rng)
    positions = gen.random((n, dim))
    positions[: n // 4] *= 0.2  # a crowded corner
    weights = None
    if "weighted" in mode:
        weights = gen.integers(1, 50, n) / 8.0
    data = ParticleSet(positions)
    reach = data.max_possible_distance
    box_lengths = None
    policy = OverflowPolicy.RAISE
    if mode == "periodic":
        reach = data.max_periodic_distance
        box_lengths = np.asarray(data.box.sides)
    if mode.startswith("custom"):
        # low > 0, uneven edges; RAISE gets a last edge past the reach.
        top = 1.01 if mode.endswith("raise") else 0.6
        spec = CustomBuckets([0.05 * reach, 0.2 * reach, 0.23 * reach,
                              top * reach])
        policy = next(
            (p for p in OverflowPolicy if p.name.lower() in mode),
            OverflowPolicy.CLAMP,
        )
    else:
        spec = UniformBuckets.with_count(reach, 64)
    return positions, weights, spec, policy, reach, box_lengths


def _binned(query, calls):
    """Counts and distance count after ``calls(binner)`` on fresh sinks."""
    positions, weights, spec, policy, reach, box_lengths = query
    histogram = DistanceHistogram(spec)
    stats = SDHStats()
    accum = None if weights is None else WeightedAccumulator(spec, policy)
    binner = DenseBinner(
        spec, policy, "numpy", reach, histogram, stats, accum, box_lengths
    )
    calls(binner)
    if accum is not None:
        accum.finalize_into(histogram)
    return histogram.counts, stats.distance_computations


class TestSelfPairs:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "n", [PANEL_ROWS - 1, PANEL_ROWS + 1, 2 * PANEL_ROWS + 1]
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_strided_ranges_sum_to_the_whole_sweep(self, mode, n, dim):
        query = _query(mode, n, dim, rng=n + dim)
        positions, weights = query[0], query[1]
        whole, computed = _binned(
            query, lambda binner: binner.self_pairs(positions, weights)
        )
        assert computed == n * (n - 1) // 2
        for step in (1, 2, 3):

            def strided(binner, step=step):
                for first in range(step):
                    binner.self_pairs(positions, weights, first, step)

            counts, computed = _binned(query, strided)
            np.testing.assert_array_equal(counts, whole)
            assert computed == n * (n - 1) // 2

    @pytest.mark.parametrize("mode", ["plain", "custom-clamp"])
    def test_matches_brute_force(self, mode):
        query = _query(mode, PANEL_ROWS + 7, 3, rng=5)
        positions, _, spec, policy = query[:4]
        counts, _ = _binned(
            query, lambda binner: binner.self_pairs(positions)
        )
        want = brute_force_sdh(positions, spec=spec, policy=policy).counts
        np.testing.assert_array_equal(counts, want)

    def test_raise_past_the_last_edge(self):
        positions, _, spec, _, reach, _ = _query("custom-drop", 700, 2, 6)
        query = (positions, None, spec, OverflowPolicy.RAISE, reach, None)
        with pytest.raises(DistanceOverflowError):
            _binned(query, lambda binner: binner.self_pairs(positions))


class TestCrossPairs:
    @pytest.mark.parametrize("mode", ["plain", "weighted", "custom-drop",
                                      "custom-weighted", "periodic"])
    def test_matches_brute_force(self, mode):
        positions, weights, spec, policy, reach, box = _query(
            mode, 1400, 2, rng=7
        )
        split = 300
        query = (positions, weights, spec, policy, reach, box)
        w = weights if weights is not None else None
        counts, computed = _binned(
            query,
            lambda binner: binner.cross_pairs(
                positions[:split], positions[split:],
                None if w is None else w[:split],
                None if w is None else w[split:],
            ),
        )
        assert computed == split * (1400 - split)
        data = ParticleSet(positions, weights=weights)
        want = brute_force_cross_sdh(
            data.select(np.arange(split)),
            data.select(np.arange(split, 1400)),
            spec, policy=policy, periodic=box is not None,
        ).counts
        np.testing.assert_array_equal(counts, want)

    @pytest.mark.parametrize("rows_a", [3, 300, 700])
    def test_policy_blocks_stay_within_a_tile(self, rows_a, monkeypatch):
        positions, _, spec, policy, reach, _ = _query(
            "custom-clamp", rows_a + 1500, 2, rng=8
        )
        sizes = []
        original = CustomBuckets.bin_counts_query

        def recording(self, distances, policy=OverflowPolicy.RAISE):
            sizes.append(distances.size)
            return original(self, distances, policy=policy)

        monkeypatch.setattr(CustomBuckets, "bin_counts_query", recording)
        query = (positions, None, spec, policy, reach, None)
        counts, _ = _binned(
            query,
            lambda binner: binner.cross_pairs(
                positions[:rows_a], positions[rows_a:]
            ),
        )
        assert sum(sizes) == rows_a * 1500
        assert max(sizes) <= TILE


class TestTreeLeafBlocks:
    def test_big_leaf_cell_bins_in_bounded_blocks(self, monkeypatch):
        # One crowded leaf cell holds more than PANEL_ROWS points, so its
        # pairs (low > 0: no bucket-0 shortcut) exceed one panel pair.
        gen = np.random.default_rng(9)
        positions = gen.random((1400, 2))
        positions[:900] *= 0.2
        data = ParticleSet(positions)
        tree = DensityMapTree(data, height=2)
        assert max(c.p_count for c in tree.density_map(1).cells) > PANEL_ROWS
        diag = data.max_possible_distance
        spec = CustomBuckets([0.01 * diag, 0.3 * diag, 1.01 * diag])
        sizes = []
        original = CustomBuckets.bin_counts_query

        def recording(self, distances, policy=OverflowPolicy.RAISE):
            sizes.append(distances.size)
            return original(self, distances, policy=policy)

        monkeypatch.setattr(CustomBuckets, "bin_counts_query", recording)
        got = dm_sdh_tree(tree, spec=spec).counts
        assert sizes
        assert max(sizes) <= PANEL_ROWS**2
        monkeypatch.setattr(CustomBuckets, "bin_counts_query", original)
        np.testing.assert_array_equal(
            got, brute_force_sdh(data, spec=spec).counts
        )
