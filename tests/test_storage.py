"""Tests for repro.storage (pages, buffer pool, layout, I/O model)."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.core import UniformBuckets
from repro.data import uniform, zipf_clustered
from repro.errors import StorageError
from repro.quadtree import GridPyramid
from repro.storage import (
    BufferPool,
    CellPageLayout,
    IOCounter,
    PagedFile,
    blocked_join_io,
    dm_sdh_io,
    dm_sdh_io_bound,
)
from repro.storage import io_model


class TestPagedFile:
    def test_append_and_read(self):
        f = PagedFile(page_size=3)
        first, last = f.append_records(np.arange(7))
        assert (first, last) == (0, 2)
        assert f.num_pages == 3
        np.testing.assert_array_equal(f.read_page(0), [0, 1, 2])
        np.testing.assert_array_equal(f.read_page(2), [6])

    def test_appends_never_share_pages(self):
        f = PagedFile(page_size=4)
        f.append_records(np.arange(3))
        first, _last = f.append_records(np.arange(2))
        assert first == 1

    def test_bad_page_id(self):
        f = PagedFile(page_size=2)
        with pytest.raises(StorageError):
            f.read_page(0)

    def test_rejects_bad_size_and_empty(self):
        with pytest.raises(StorageError):
            PagedFile(page_size=0)
        with pytest.raises(StorageError):
            PagedFile(page_size=2).append_records(np.empty(0))


class TestBufferPool:
    def test_hit_miss_accounting(self):
        pool = BufferPool(2)
        assert pool.get("f", 1) is False  # miss
        assert pool.get("f", 1) is True  # hit
        assert pool.get("f", 2) is False
        assert pool.get("f", 3) is False  # evicts page 1 (LRU)
        assert pool.get("f", 1) is False  # miss again
        c = pool.counter
        assert c.reads == 4
        assert c.hits == 1
        assert c.logical_reads == 5
        assert c.hit_ratio == pytest.approx(0.2)

    def test_lru_order_updated_on_hit(self):
        pool = BufferPool(2)
        pool.get("f", 1)
        pool.get("f", 2)
        pool.get("f", 1)  # 1 becomes most recent
        pool.get("f", 3)  # evicts 2
        assert pool.contains("f", 1)
        assert not pool.contains("f", 2)

    def test_capacity_never_exceeded(self, rng):
        pool = BufferPool(5)
        for page in rng.integers(0, 50, size=500):
            pool.get("f", int(page))
            assert len(pool) <= 5

    def test_files_are_distinct(self):
        pool = BufferPool(4)
        pool.get("a", 1)
        assert pool.get("b", 1) is False

    def test_get_many_and_clear(self):
        pool = BufferPool(10)
        misses = pool.get_many("f", np.array([1, 2, 1, 3]))
        assert misses == 3
        pool.clear()
        assert len(pool) == 0
        assert pool.counter.reads == 3  # counters survive clear

    def test_counter_reset(self):
        counter = IOCounter(reads=5, hits=2, writes=1)
        counter.reset()
        assert counter.reads == counter.hits == counter.writes == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(StorageError):
            BufferPool(0)


class TestCellPageLayout:
    def test_layout_verifies(self):
        data = zipf_clustered(300, dim=2, rng=17)
        layout = CellPageLayout(GridPyramid(data), page_size=16)
        layout.verify()
        assert layout.num_pages == -(-300 // 16)

    def test_pages_of_cell_cover_particles(self):
        data = uniform(200, dim=2, rng=18)
        pyramid = GridPyramid(data)
        layout = CellPageLayout(pyramid, page_size=8)
        counts = pyramid.counts(pyramid.leaf_level)
        for cell in np.flatnonzero(counts):
            pages = layout.pages_of_cell(int(cell))
            assert pages.size >= 1
            # Page span must be contiguous.
            np.testing.assert_array_equal(
                pages, np.arange(pages[0], pages[-1] + 1)
            )

    def test_empty_cell_has_no_pages(self):
        data = zipf_clustered(100, dim=2, rng=19)
        pyramid = GridPyramid(data)
        layout = CellPageLayout(pyramid, page_size=8)
        counts = pyramid.counts(pyramid.leaf_level)
        empty = np.flatnonzero(counts == 0)
        assert empty.size > 0
        assert layout.pages_of_cell(int(empty[0])).size == 0

    def test_pages_of_cells_deduplicates(self):
        data = uniform(100, dim=2, rng=20)
        pyramid = GridPyramid(data)
        layout = CellPageLayout(pyramid, page_size=50)
        counts = pyramid.counts(pyramid.leaf_level)
        cells = np.flatnonzero(counts)[:10]
        merged = layout.pages_of_cells(cells)
        # 100 particles / 50 per page = 2 pages total; consecutive
        # duplicates must collapse.
        assert merged.size <= 4

    def test_rejects_bad_page_size(self):
        data = uniform(50, rng=0)
        with pytest.raises(StorageError):
            CellPageLayout(GridPyramid(data), page_size=0)


class TestIOModel:
    def test_blocked_join_analytic_vs_simulated(self):
        analytic = blocked_join_io(60, 6, simulate=False)
        simulated = blocked_join_io(60, 6, simulate=True)
        # The LRU replay can only beat the analytic upper bound.
        assert simulated.page_reads <= analytic.page_reads
        assert simulated.page_reads >= 60  # must at least scan the file

    def test_blocked_join_quadratic_scaling(self):
        small = blocked_join_io(50, 6).page_reads
        big = blocked_join_io(200, 6).page_reads
        assert big > 10 * small  # ~16x for 4x pages

    def test_blocked_join_validation(self):
        with pytest.raises(StorageError):
            blocked_join_io(0, 4)
        with pytest.raises(StorageError):
            blocked_join_io(10, 1)

    def test_dm_sdh_io_runs_and_counts(self):
        data = uniform(600, dim=2, rng=21)
        spec = UniformBuckets.with_count(data.max_possible_distance, 4)
        report = dm_sdh_io(data, spec, page_size=32, buffer_pages=8)
        assert report.num_pages == -(-600 // 32)
        assert report.page_reads >= 0
        assert report.logical_reads >= report.page_reads
        assert 0.0 <= report.hit_ratio <= 1.0

    def test_dm_sdh_io_zero_when_everything_resolves(self):
        """With very wide buckets nothing reaches the leaf level, so
        the data file is never touched."""
        data = uniform(600, dim=2, rng=22)
        spec = UniformBuckets.with_count(data.max_possible_distance, 1)
        report = dm_sdh_io(data, spec, page_size=32, buffer_pages=8)
        assert report.page_reads == 0

    def test_dm_sdh_io_leaf_start_sees_every_occupied_pair_once(
        self, monkeypatch
    ):
        """Buckets narrower than a leaf cell start the run on the leaf
        map, whose dense sweep computes every pair of occupied leaf
        cells: the replay sees the intra-cell scans, then each pair of
        distinct occupied cells exactly once."""
        seen = []

        class Recording(io_model.GridSDHEngine):
            def run(self):
                observe = self.on_leaf_pairs

                def record(a_ids, b_ids):
                    seen.append((a_ids.copy(), b_ids.copy()))
                    observe(a_ids, b_ids)

                self.on_leaf_pairs = record
                return super().run()

        monkeypatch.setattr(io_model, "GridSDHEngine", Recording)
        data = uniform(600, dim=2, rng=23)
        spec = UniformBuckets.with_count(data.max_possible_distance, 64)
        pyramid = GridPyramid(data)
        report = dm_sdh_io(
            data, spec, page_size=32, buffer_pages=8, pyramid=pyramid
        )
        occupied = np.flatnonzero(pyramid.counts(pyramid.leaf_level))
        np.testing.assert_array_equal(seen[0][0], occupied)
        np.testing.assert_array_equal(seen[0][1], occupied)
        pairs = Counter(
            pair
            for a_ids, b_ids in seen[1:]
            for pair in zip(a_ids.tolist(), b_ids.tolist())
        )
        assert set(pairs.values()) == {1}
        assert set(pairs) == set(
            itertools.combinations(occupied.tolist(), 2)
        )
        first = CellPageLayout(pyramid, 32).first_pages
        assert report.page_pairs == len(
            {(first[a], first[b]) for a, b in pairs}
        )
        assert report.logical_reads >= report.page_reads > 0

    def test_bound_values(self):
        assert dm_sdh_io_bound(1000, 10, 2) == pytest.approx(100**1.5)
        assert dm_sdh_io_bound(1000, 10, 3) == pytest.approx(
            100 ** (5 / 3)
        )
        with pytest.raises(StorageError):
            dm_sdh_io_bound(0, 10, 2)
