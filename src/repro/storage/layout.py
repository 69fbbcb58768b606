"""Physical layout: pack particle data into pages by density-map cell.

Sec. IV-B item 1: "the distance calculations will happen between data
points organized in data pages of associated density map cells (i.e.,
no random reading is needed)".  :class:`CellPageLayout` realizes that
layout over a :class:`~repro.quadtree.grid.GridPyramid`: the particle
rows, already sorted by leaf cell (the pyramid's CSR order), are packed
into consecutive pages, and every leaf cell knows the contiguous page
run holding its particles.  The pyramid numbers cells in Morton order,
so that leaf order is the quadtree's depth-first leaf order and every
coarser cell's particles are one contiguous page run as well.
"""

from __future__ import annotations

import numpy as np

from ..errors import StorageError
from ..quadtree.grid import GridPyramid
from .pager import PagedFile

__all__ = ["CellPageLayout"]


class CellPageLayout:
    """Pages of particle rows, clustered by leaf density-map cell.

    Parameters
    ----------
    pyramid:
        The density-map pyramid whose leaf order defines clustering.
    page_size:
        Records per page (the paper's blocking factor ``b``).
    """

    def __init__(self, pyramid: GridPyramid, page_size: int):
        if page_size < 1:
            raise StorageError(f"page_size must be >= 1, got {page_size}")
        self.pyramid = pyramid
        self.page_size = int(page_size)
        self.file = PagedFile(page_size)

        order = pyramid.order
        positions = pyramid.sorted_positions
        # One big append keeps rows in leaf-cell order; cell boundaries
        # are recovered arithmetically below.
        self.file.append_records(
            np.concatenate(
                [order[:, None].astype(float), positions], axis=1
            )
        )
        # Page span of each leaf cell: record range [start, stop) maps
        # to pages [start // b, (stop - 1) // b].
        starts = pyramid.leaf_starts
        self._first_page = starts[:-1] // self.page_size
        last_record = np.maximum(starts[1:] - 1, starts[:-1])
        self._last_page = last_record // self.page_size

    @property
    def num_pages(self) -> int:
        """Total data pages (``ceil(N / b)``)."""
        return self.file.num_pages

    @property
    def first_pages(self) -> np.ndarray:
        """Per-leaf-cell id of the first page holding its particles.

        Meaningless for empty cells (they own no records); callers must
        mask those out.
        """
        return self._first_page

    def pages_of_cell(self, flat_cell: int) -> np.ndarray:
        """Page ids holding a leaf cell's particles (empty cell -> none)."""
        starts = self.pyramid.leaf_starts
        if starts[flat_cell + 1] == starts[flat_cell]:
            return np.empty(0, dtype=np.int64)
        return np.arange(
            self._first_page[flat_cell],
            self._last_page[flat_cell] + 1,
            dtype=np.int64,
        )

    def pages_of_cells(self, flat_cells: np.ndarray) -> np.ndarray:
        """Deduplicated, order-preserving page ids for a batch of cells.

        Consecutive duplicate pages (cells sharing a page) collapse, so
        replays charge each physically contiguous access once.
        """
        flat_cells = np.asarray(flat_cells, dtype=np.int64)
        if flat_cells.size == 0:
            return np.empty(0, dtype=np.int64)
        runs = [self.pages_of_cell(int(c)) for c in flat_cells]
        runs = [r for r in runs if r.size]
        if not runs:
            return np.empty(0, dtype=np.int64)
        merged = np.concatenate(runs)
        keep = np.ones(merged.size, dtype=bool)
        keep[1:] = merged[1:] != merged[:-1]
        return merged[keep]

    def verify(self) -> None:
        """Check that page contents agree with the pyramid's CSR order."""
        starts = self.pyramid.leaf_starts
        positions = self.pyramid.sorted_positions
        n = positions.shape[0]
        row = 0
        for page_id in range(self.file.num_pages):
            payload = self.file.read_page(page_id)
            span = payload.shape[0]
            if not np.array_equal(payload[:, 1:], positions[row : row + span]):
                raise StorageError(f"page {page_id} payload mismatch")
            row += span
        if row != n:
            raise StorageError(f"pages hold {row} records, expected {n}")
        if int(self._last_page[-1]) != self.file.num_pages - 1 and starts[
            -1
        ] != starts[-2]:
            raise StorageError("cell-to-page map out of range")
