"""Array-based density-map pyramid.

The linked-node tree of :mod:`repro.quadtree.tree` is a faithful replica
of the paper's data structure, but Python objects are slow to traverse
at scale.  :class:`GridPyramid` stores the *same* series of density maps
as numpy arrays — one count array per level, plus a CSR layout of the
particles sorted by finest-level cell — so the vectorized DM-SDH engine
(:mod:`repro.core.dm_sdh_grid`) can process millions of cell pairs in
bulk.  Both structures represent identical density maps; tests assert
their per-level counts agree cell by cell.

Cells at level ``k`` form a ``2**k``-per-axis grid over the simulation
box, numbered in Morton (Z-) order: bit ``b`` of a cell's index on axis
``a`` is bit ``b * d + a`` of its id.  That is the node tree's child
order (child bit ``a`` set for the upper half of axis ``a``), so

* the children of cell ``c`` are cells ``2**d * c + k`` one level down,
  and each level pools from the next with one ``reshape(-1, 2**d)``
  reduction (:func:`pool_levels`);
* particles sorted by leaf id are in the quadtree's depth-first leaf
  order (Sec. IV-B), and cell ``c`` of level ``k`` owns the contiguous
  slice ``leaf_starts[c << s] : leaf_starts[(c + 1) << s]`` of
  :attr:`GridPyramid.sorted_positions`, with ``s = d * (leaf - k)``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..data.particles import ParticleSet
from ..errors import TreeError
from .tree import tree_height

__all__ = ["GridPyramid", "pool_levels"]

#: Index bits per axis that one lookup in the de-interleave table covers.
_CHUNK_BITS = 4


def pool_levels(
    leaf_values: np.ndarray, dim: int, reduce: np.ufunc = np.add
) -> "list[np.ndarray]":
    """Per-level cell reductions of a leaf-level array, coarsest first.

    Row ``c`` of each level reduces rows ``2**d * c ... 2**d * c +
    2**d - 1`` of the level below.  Works for any dtype ``reduce``
    accepts: int counts, float side counts, python-int (object) weight
    sums, which stay exact, and ``(cells, d)`` MBR bounds pooled with
    ``np.minimum`` / ``np.maximum``.
    """
    degree = 1 << dim
    levels = [leaf_values]
    while levels[-1].shape[0] > 1:
        child = levels[-1]
        levels.append(
            reduce.reduce(child.reshape(-1, degree, *child.shape[1:]), axis=1)
        )
    levels.reverse()
    return levels


@functools.lru_cache(maxsize=None)
def _deinterleave_table(dim: int) -> np.ndarray:
    """Per-axis index bits ``(d, 2**(d*_CHUNK_BITS))`` of each id chunk."""
    chunk = np.arange(1 << (dim * _CHUNK_BITS), dtype=np.int32)
    table = np.zeros((dim, chunk.size), dtype=np.int32)
    for bit in range(_CHUNK_BITS):
        for axis in range(dim):
            table[axis] |= ((chunk >> (bit * dim + axis)) & 1) << bit
    table.setflags(write=False)  # shared by every caller of the cache
    return table


@functools.lru_cache(maxsize=None)
def _axis_masks(dim: int, level: int) -> "tuple[int, ...]":
    """Per axis, the bits of a level's cell ids that hold that axis."""
    return tuple(
        sum(1 << (bit * dim + axis) for bit in range(level))
        for axis in range(dim)
    )


class GridPyramid:
    """Density maps of doubling resolution stored as numpy count arrays.

    Parameters mirror :class:`~repro.quadtree.tree.DensityMapTree`.
    The per-cell MBRs of Sec. III-C.3 are pooled on first use
    (:meth:`mbr_lo` / :meth:`mbr_hi`).
    """

    def __init__(
        self,
        particles: ParticleSet,
        height: int | None = None,
        beta: float | None = None,
    ):
        if height is None:
            height = tree_height(particles.size, particles.dim, beta)
        if height < 1:
            raise TreeError(f"height must be >= 1, got {height}")
        self._particles = particles
        self._height = int(height)
        self._mbrs = None
        self._build()

    # ------------------------------------------------------------------
    @classmethod
    def from_components(
        cls,
        particles: ParticleSet,
        height: int,
        leaf_starts: np.ndarray,
        sorted_positions: np.ndarray,
    ) -> "GridPyramid":
        """Reassemble a pyramid from its leaf-level arrays without rebuilding.

        This is the parallel engine's worker-side constructor: the
        parent ships ``sorted_positions`` and ``leaf_starts`` through
        shared memory, and each worker wraps zero-copy views of them
        into a pyramid whose per-level counts are re-pooled from the
        leaf counts (cheap — the whole pyramid holds ~(2^d/(2^d-1))×
        the leaf cell count).  ``particles`` must already hold the
        *sorted* positions, so :attr:`order` is the identity and is not
        materialized.
        """
        self = cls.__new__(cls)
        if height < 1:
            raise TreeError(f"height must be >= 1, got {height}")
        self._particles = particles
        self._height = int(height)
        self._mbrs = None
        self._leaf_starts = np.asarray(leaf_starts, dtype=np.int64)
        self._sorted_positions = sorted_positions
        self._order = None  # identity by construction; never gathered
        dim = particles.dim
        num_leaves = 1 << (dim * (self._height - 1))
        if self._leaf_starts.size != num_leaves + 1:
            raise TreeError(
                f"leaf_starts has {self._leaf_starts.size} entries, "
                f"expected {num_leaves + 1} for height {self._height}"
            )
        self._counts = pool_levels(np.diff(self._leaf_starts), dim)
        return self

    @property
    def particles(self) -> ParticleSet:
        """The indexed dataset."""
        return self._particles

    @property
    def height(self) -> int:
        """Number of levels H (level 0 is the single-cell map)."""
        return self._height

    @property
    def dim(self) -> int:
        """Spatial dimensionality."""
        return self._particles.dim

    @property
    def leaf_level(self) -> int:
        """Index of the finest density map."""
        return self._height - 1

    def cells_per_axis(self, level: int) -> int:
        """Grid size ``2**level`` of a level."""
        self._check_level(level)
        return 1 << level

    def cell_sides(self, level: int) -> np.ndarray:
        """Per-axis cell side lengths at a level."""
        self._check_level(level)
        sides = np.asarray(self._particles.box.sides, dtype=float)
        return sides / (1 << level)

    def cell_diagonal(self, level: int) -> float:
        """Cell diagonal at a level (start-map criterion input)."""
        sides = self.cell_sides(level)
        return float(math.sqrt(float((sides * sides).sum())))

    def counts(self, level: int) -> np.ndarray:
        """Int64 per-cell particle counts at a level, indexed by cell id."""
        self._check_level(level)
        return self._counts[level]

    def start_level_for(self, bucket_width: float) -> int | None:
        """First level with cell diagonal <= bucket width, else None."""
        for level in range(self._height):
            if self.cell_diagonal(level) <= bucket_width:
                return level
        return None

    # -- cell id arithmetic (Morton order) -------------------------------
    def decode(self, level: int, ids: np.ndarray) -> np.ndarray:
        """Per-axis integer indices ``(..., d)`` of cell ids (de-interleave)."""
        self._check_level(level)
        ids = np.asarray(ids, dtype=np.int64)
        dim = self.dim
        table = _deinterleave_table(dim)
        chunk_bits = dim * _CHUNK_BITS
        chunks = [
            (ids >> (c * chunk_bits)) & ((1 << chunk_bits) - 1)
            for c in range(-(-level // _CHUNK_BITS))
        ]
        out = np.zeros(ids.shape + (dim,), dtype=np.int64)
        for axis in range(dim):
            for c, chunk in enumerate(chunks):
                out[..., axis] |= table[axis][chunk] << (c * _CHUNK_BITS)
        return out

    def encode(self, level: int, idx: np.ndarray) -> np.ndarray:
        """Cell ids of per-axis indices (interleave; inverse of :meth:`decode`)."""
        self._check_level(level)
        idx = np.asarray(idx, dtype=np.int64)
        dim = self.dim
        ids = np.zeros(idx.shape[:-1], dtype=np.int64)
        for bit in range(level):
            for axis in range(dim):
                ids |= ((idx[..., axis] >> bit) & 1) << (bit * dim + axis)
        return ids

    def offset_ids(
        self, level: int, ids_a: np.ndarray, ids_b: np.ndarray
    ) -> np.ndarray:
        """Cell ids of the per-axis index offsets ``|i_a - i_b|`` of pairs.

        Each axis keeps its own bits of a Morton id, and the masked
        difference of two ids is the masked id of the difference
        (dilated-integer arithmetic), so nothing is de-interleaved.
        """
        out = np.zeros(np.shape(ids_a), dtype=np.int64)
        for mask in _axis_masks(self.dim, level):
            out |= np.abs((ids_a & mask) - (ids_b & mask)) & mask
        return out

    def children_of(self, level: int, ids: np.ndarray) -> np.ndarray:
        """Ids ``(n, 2**d)`` of each cell's children one level down.

        This is the refinement step of ``RESOLVETWOCELLS`` (Fig. 2 lines
        13–16): a non-resolvable cell is replaced by its 4/8 partitions
        on the next density map.
        """
        if level + 1 >= self._height:
            raise TreeError(f"level {level} has no children")
        ids = np.asarray(ids, dtype=np.int64)
        return (ids[:, None] << self.dim) + np.arange(1 << self.dim)

    # -- particle access (leaf level, CSR layout) -----------------------
    def leaf_slice(self, flat: int) -> np.ndarray:
        """Dataset indices of the particles in one leaf cell."""
        start = self._leaf_starts[flat]
        stop = self._leaf_starts[flat + 1]
        return self._order[start:stop]

    @property
    def leaf_starts(self) -> np.ndarray:
        """CSR offsets: leaf cell ``c`` owns ``order[starts[c]:starts[c+1]]``."""
        return self._leaf_starts

    @property
    def order(self) -> np.ndarray:
        """Dataset indices sorted by leaf cell id."""
        return self._order

    @property
    def sorted_positions(self) -> np.ndarray:
        """Positions re-ordered by leaf cell (cache-friendly gathers)."""
        return self._sorted_positions

    # -- MBR arrays ------------------------------------------------------
    def mbr_lo(self, level: int) -> np.ndarray:
        """Per-cell particle-coordinate minima ``(cells, d)``.

        Empty cells hold ``+inf``; engines must mask them out (they skip
        empty cells anyway).
        """
        self._check_level(level)
        return self._pooled_mbrs()[0][level]

    def mbr_hi(self, level: int) -> np.ndarray:
        """Per-cell particle-coordinate maxima (``-inf`` when empty)."""
        self._check_level(level)
        return self._pooled_mbrs()[1][level]

    # ------------------------------------------------------------------
    def _build(self) -> None:
        particles = self._particles
        positions = particles.positions
        grid = 1 << (self._height - 1)

        lo = np.asarray(particles.box.lo)
        sides = np.asarray(particles.box.sides, dtype=float)
        # Bin to the finest level; particles exactly on the upper box
        # face are clipped into the last cell.
        scaled = (positions - lo) / sides * grid
        cell_idx = np.clip(scaled.astype(np.int64), 0, grid - 1)
        ids = self.encode(self.leaf_level, cell_idx)

        leaf_counts = np.bincount(ids, minlength=grid**particles.dim)
        self._order = np.argsort(ids, kind="stable").astype(np.int64)
        self._sorted_positions = np.ascontiguousarray(positions[self._order])
        starts = np.zeros(leaf_counts.size + 1, dtype=np.int64)
        np.cumsum(leaf_counts, out=starts[1:])
        self._leaf_starts = starts
        self._counts = pool_levels(leaf_counts.astype(np.int64), particles.dim)

    def _pooled_mbrs(self) -> "tuple[list[np.ndarray], list[np.ndarray]]":
        """Per-level MBR minima and maxima, pooled from the leaves once.

        Every leaf cell is a contiguous run of :attr:`sorted_positions`,
        so one ``reduceat`` over the occupied cells' starts gives the
        leaf MBRs.  Racing first calls each pool the same arrays and the
        last assignment wins, so a shared plan needs no lock here.
        """
        if self._mbrs is None:
            counts = self._counts[-1]
            lo = np.full((counts.size, self.dim), np.inf)
            hi = np.full((counts.size, self.dim), -np.inf)
            occupied = np.flatnonzero(counts)
            if occupied.size:
                starts = self._leaf_starts[occupied]
                positions = self._sorted_positions
                lo[occupied] = np.minimum.reduceat(positions, starts, axis=0)
                hi[occupied] = np.maximum.reduceat(positions, starts, axis=0)
            self._mbrs = (
                pool_levels(lo, self.dim, np.minimum),
                pool_levels(hi, self.dim, np.maximum),
            )
        return self._mbrs

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self._height:
            raise TreeError(
                f"level {level} out of range [0, {self._height})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridPyramid(N={self._particles.size}, d={self.dim}, "
            f"H={self._height})"
        )
