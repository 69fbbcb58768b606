"""Tests for repro.quadtree.grid (the array density-map pyramid)."""

import numpy as np
import pytest

from repro.data import uniform, zipf_clustered
from repro.errors import TreeError
from repro.quadtree import DensityMapTree, GridPyramid


class TestCounts:
    def setup_method(self):
        self.data = uniform(500, dim=2, rng=21)
        self.pyramid = GridPyramid(self.data)

    def test_level_sums(self):
        for level in range(self.pyramid.height):
            assert self.pyramid.counts(level).sum() == 500

    def test_level_sizes(self):
        for level in range(self.pyramid.height):
            assert self.pyramid.counts(level).size == 4**level

    def test_root_level(self):
        assert self.pyramid.counts(0)[0] == 500

    def test_pooling_consistency(self):
        """Each parent's count equals the sum of its children."""
        for level in range(self.pyramid.height - 1):
            parents = self.pyramid.counts(level)
            ids = np.arange(parents.size, dtype=np.int64)
            children = self.pyramid.children_of(level, ids)
            child_counts = self.pyramid.counts(level + 1)[children]
            np.testing.assert_array_equal(
                child_counts.sum(axis=1), parents
            )

    def test_level_range_checked(self):
        with pytest.raises(TreeError):
            self.pyramid.counts(self.pyramid.height)

    def test_matches_node_tree(self):
        """The pyramid and the linked tree are the same density maps.

        Each tree node is located in the pyramid through its
        coordinates (``encode`` of its per-axis cell index).
        """
        tree = DensityMapTree(self.data, height=self.pyramid.height)
        for level in range(self.pyramid.height):
            grid_counts = self.pyramid.counts(level)
            tree_cells = tree.density_map(level).cells
            sides = self.pyramid.cell_sides(level)
            lo = np.asarray(self.data.box.lo)
            for node in tree_cells:
                idx = np.floor(
                    (np.asarray(node.bounds.lo) - lo) / sides + 0.5
                ).astype(np.int64)
                flat = self.pyramid.encode(level, idx[None, :])[0]
                assert grid_counts[flat] == node.p_count


class TestMortonLayout:
    """Cell ids are Morton codes: the node tree's child order."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cells_are_leaf_slices_at_every_level(self, dim):
        pyramid = GridPyramid(zipf_clustered(600, dim=dim, rng=5))
        starts = pyramid.leaf_starts
        for level in range(pyramid.height):
            shift = dim * (pyramid.leaf_level - level)
            cells = np.arange(pyramid.counts(level).size)
            sizes = starts[(cells + 1) << shift] - starts[cells << shift]
            np.testing.assert_array_equal(pyramid.counts(level), sizes)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_children_are_consecutive_ids(self, dim):
        pyramid = GridPyramid(uniform(200, dim=dim, rng=6), height=4)
        for level in range(pyramid.height - 1):
            cells = np.arange(pyramid.counts(level).size)
            np.testing.assert_array_equal(
                pyramid.children_of(level, cells),
                2**dim * cells[:, None] + np.arange(2**dim),
            )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_offset_ids_match_decoded_offsets(self, dim, rng):
        pyramid = GridPyramid(uniform(100, dim=dim, rng=8), height=7)
        for level in range(pyramid.height):
            a, b = rng.integers(0, pyramid.counts(level).size, (2, 500))
            np.testing.assert_array_equal(
                pyramid.encode(level, pyramid.decode(level, a)), a
            )
            offsets = np.abs(pyramid.decode(level, a) - pyramid.decode(level, b))
            np.testing.assert_array_equal(
                pyramid.offset_ids(level, a, b), pyramid.encode(level, offsets)
            )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tree_order_is_pyramid_order(self, dim):
        data = zipf_clustered(700, dim=dim, rng=7)
        pyramid = GridPyramid(data)
        tree = DensityMapTree(data, height=pyramid.height)
        for level in range(pyramid.height):
            np.testing.assert_array_equal(
                pyramid.counts(level),
                [node.p_count for node in tree.density_map(level).cells],
            )


class TestEncodeDecode:
    def test_roundtrip(self, rng):
        pyramid = GridPyramid(uniform(100, dim=3, rng=2), height=4)
        flat = rng.integers(0, 8**3, size=50)
        idx = pyramid.decode(3, flat)
        back = pyramid.encode(3, idx)
        np.testing.assert_array_equal(back, flat)

    def test_children_of_geometry(self):
        pyramid = GridPyramid(uniform(100, dim=2, rng=2), height=3)
        children = pyramid.children_of(0, np.array([0]))[0]
        idx = pyramid.decode(1, children)
        assert {tuple(i) for i in idx} == {
            (0, 0), (1, 0), (0, 1), (1, 1)
        }

    def test_children_at_leaf_raises(self):
        pyramid = GridPyramid(uniform(100, dim=2, rng=2), height=2)
        with pytest.raises(TreeError):
            pyramid.children_of(1, np.array([0]))


class TestCSRLayout:
    def test_leaf_slices_partition_particles(self):
        data = zipf_clustered(400, dim=2, rng=8)
        pyramid = GridPyramid(data)
        leaf = pyramid.leaf_level
        counts = pyramid.counts(leaf)
        seen = []
        for cell in range(counts.size):
            idx = pyramid.leaf_slice(cell)
            assert idx.size == counts[cell]
            seen.append(idx)
        all_idx = np.sort(np.concatenate(seen))
        np.testing.assert_array_equal(all_idx, np.arange(400))

    def test_particles_in_their_cells(self):
        data = uniform(300, dim=2, rng=9)
        pyramid = GridPyramid(data)
        leaf = pyramid.leaf_level
        sides = pyramid.cell_sides(leaf)
        lo = np.asarray(data.box.lo)
        grid = pyramid.cells_per_axis(leaf)
        for cell in np.flatnonzero(pyramid.counts(leaf)):
            pts = data.positions[pyramid.leaf_slice(cell)]
            idx = pyramid.decode(leaf, np.asarray([cell]))[0]
            cell_lo = lo + idx * sides
            cell_hi = cell_lo + sides
            assert bool((pts >= cell_lo - 1e-12).all())
            # Upper-face particles are clipped into the last cell.
            strict = (pts < cell_hi).all(axis=1) | (idx == grid - 1).any()
            assert bool(np.all(strict))

    def test_sorted_positions_match_order(self):
        data = uniform(200, dim=2, rng=10)
        pyramid = GridPyramid(data)
        np.testing.assert_array_equal(
            pyramid.sorted_positions, data.positions[pyramid.order]
        )


class TestMBRArrays:
    def test_built_lazily_on_first_use(self):
        data = uniform(200, dim=3, rng=1)
        pyramid = GridPyramid(data)
        assert pyramid._mbrs is None
        lo = pyramid.mbr_lo(1)
        assert pyramid.mbr_hi(1) is pyramid.mbr_hi(1)
        for cell in np.flatnonzero(pyramid.counts(1)):
            start, stop = pyramid.leaf_starts[[cell << 3, (cell + 1) << 3]]
            np.testing.assert_array_equal(
                lo[cell], pyramid.sorted_positions[start:stop].min(axis=0)
            )

    def test_mbrs_bound_particles(self):
        data = uniform(300, dim=2, rng=12)
        pyramid = GridPyramid(data)
        leaf = pyramid.leaf_level
        lo = pyramid.mbr_lo(leaf)
        hi = pyramid.mbr_hi(leaf)
        for cell in np.flatnonzero(pyramid.counts(leaf)):
            pts = data.positions[pyramid.leaf_slice(cell)]
            assert bool((pts >= lo[cell] - 1e-12).all())
            assert bool((pts <= hi[cell] + 1e-12).all())

    def test_root_mbr_is_global(self):
        data = uniform(300, dim=2, rng=12)
        pyramid = GridPyramid(data)
        np.testing.assert_allclose(
            pyramid.mbr_lo(0)[0], data.positions.min(axis=0)
        )
        np.testing.assert_allclose(
            pyramid.mbr_hi(0)[0], data.positions.max(axis=0)
        )

    def test_empty_cells_are_infinite(self):
        data = zipf_clustered(100, dim=2, rng=3)
        pyramid = GridPyramid(data)
        leaf = pyramid.leaf_level
        counts = pyramid.counts(leaf)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            assert np.isinf(pyramid.mbr_lo(leaf)[empty]).all()


class TestStartLevel:
    def test_agrees_with_tree(self):
        data = uniform(800, dim=2, rng=4)
        pyramid = GridPyramid(data)
        tree = DensityMapTree(data, height=pyramid.height)
        for l_buckets in (2, 4, 8, 32):
            p = data.max_possible_distance / l_buckets
            assert pyramid.start_level_for(p) == tree.start_level_for(p)

    def test_diagonal_values(self):
        data = uniform(100, dim=3, rng=4)
        pyramid = GridPyramid(data, height=3)
        d0 = pyramid.cell_diagonal(0)
        assert pyramid.cell_diagonal(1) == pytest.approx(d0 / 2)
        assert pyramid.cell_diagonal(2) == pytest.approx(d0 / 4)
