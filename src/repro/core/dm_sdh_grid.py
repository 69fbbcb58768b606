"""Vectorized DM-SDH over the array-based density-map pyramid.

Functionally identical to :mod:`repro.core.dm_sdh` (tests assert exact
integer equality of the histograms), but the recursion is flattened
into a level-by-level worklist of cell-pair arrays so that numpy can
resolve millions of pairs per call — the pure-Python recursion is the
bottleneck the paper's C implementation never had, and this module is
the honest Python answer to it.

Three engine-level optimizations exploit the grid structure (results
are bit-identical to the naive formulation, which the test suite checks):

* **offset-class tables** — on a given level, the min/max distance
  bounds of a cell pair depend only on the per-axis index offset, so
  the resolve decision, target bucket and bounds are precomputed once
  per level for all ``G^d`` offset classes and then applied to pair
  batches with a single gather.  A pair's class is the Morton id of its
  offsets, computed from the two cell ids by masked subtraction; only
  the allocator's per-axis offsets are ever de-interleaved;
* **Morton-code expansion** — pyramid cells are Morton-ordered, so the
  children of cell ``c`` are ``2^d * c + k``: a batch of unresolved
  pairs is refined by one broadcast per side, a liveness lookup and
  ``np.flatnonzero`` over the (parent, child_a, child_b) mask;
* **dense leaf tiles** — every leaf cell is one slice of the sorted
  positions, so the open leaf pairs of a cell are binned as dense
  cell x block tiles by the query's :class:`~repro.core.dense.DenseBinner`
  instead of as gathered particle index pairs; an exact run whose
  start map is the leaf map has nothing to resolve and bins every
  pair in one dense sweep (:meth:`GridSDHEngine.sweep_panels`).

The same engine runs the approximate ADM-SDH of Sec. V: a ``stop``
parameter bounds how many density maps are visited, and the pairs still
unresolved at the stop level are handed to an
:class:`~repro.core.heuristics.Allocator` instead of being refined
further (no distance is ever computed in approximate mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..data.particles import ParticleSet
from ..errors import DistanceOverflowError, QueryError
from ..geometry import box_pair_bounds
from ..geometry.distance import PANEL_ROWS
from ..kernels import exact
# Unused here; perfbench/layers.py wraps it by name in this module.
from ..kernels import expand_products  # noqa: F401
from ..quadtree.grid import GridPyramid, pool_levels
from .buckets import BucketSpec, OverflowPolicy, UniformBuckets
from .dense import TILE, DenseBinner
from .heuristics import AllocationContext, Allocator
from .histogram import DistanceHistogram
from .instrumentation import SDHStats
from .weighted import WeightedAccumulator

__all__ = ["GridSDHEngine", "dm_sdh_grid"]

#: Default ceiling on the number of cell pairs processed per batch.
DEFAULT_PAIR_CHUNK = 1 << 19

# Offset-class statuses.
_RESOLVED = 0
_OPEN = 1
_BELOW = 2
_ABOVE = 3


def dm_sdh_grid(
    data: GridPyramid | ParticleSet,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    use_mbr: bool = False,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
    stop_after_levels: int | None = None,
    allocator: Allocator | None = None,
    rng: np.random.Generator | int | None = None,
    periodic: bool = False,
    kernel: str = "auto",
    cross_split: int | None = None,
) -> DistanceHistogram:
    """Compute an SDH with the vectorized DM-SDH engine.

    With ``periodic=True``, distances are measured under the
    minimum-image convention over the simulation box (the molecular-
    dynamics setting); cell resolution then uses torus distance bounds.

    Parameters mirror :func:`repro.core.dm_sdh.dm_sdh_tree` where they
    overlap.  ``kernel`` selects the leaf-resolution backend (see
    :mod:`repro.kernels`).  Weighted datasets (a :class:`ParticleSet`
    carrying per-particle weights) accumulate exact pair products; see
    :mod:`repro.core.weighted`.  The extra parameters select cross-set
    and approximate mode:

    cross_split:
        Cross-set mode: ``data`` holds the concatenation of two sets
        (A first), ``cross_split`` is ``|A|``, and the histogram counts
        only pairs with one particle from each side (every cell tracks
        per-side counts, so a resolved cell pair contributes
        ``na1 * nb2 + nb1 * na2``).
    stop_after_levels:
        Visit at most this many density maps below the start map
        (the paper's ``m``).  Requires ``allocator``.
    allocator:
        Heuristic that distributes the unresolved pairs' counts
        (Sec. V heuristics; see :func:`repro.core.heuristics.make_allocator`).
    """
    pyramid = data if isinstance(data, GridPyramid) else GridPyramid(data)
    engine = GridSDHEngine(
        pyramid,
        spec=spec,
        bucket_width=bucket_width,
        use_mbr=use_mbr,
        policy=policy,
        stats=stats,
        stop_after_levels=stop_after_levels,
        allocator=allocator,
        rng=rng,
        periodic=periodic,
        kernel=kernel,
        cross_split=cross_split,
    )
    return engine.run()


@dataclass
class _LevelTable:
    """Per-level lookup over all offset classes ``|di|`` per axis.

    ``status[cls]`` is one of the class constants above, ``bucket[cls]``
    the target bucket for resolved classes and ``u``/``v`` the class's
    min/max distance bounds.  ``cls`` is the Morton id of the per-axis
    absolute offsets (:meth:`GridPyramid.offset_ids`).
    """

    status: np.ndarray
    bucket: np.ndarray
    u: np.ndarray
    v: np.ndarray


class GridSDHEngine:
    """One (exact or approximate) SDH computation over a grid pyramid."""

    def __init__(
        self,
        pyramid: GridPyramid,
        spec: BucketSpec | None = None,
        bucket_width: float | None = None,
        use_mbr: bool = False,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
        stats: SDHStats | None = None,
        stop_after_levels: int | None = None,
        allocator: Allocator | None = None,
        rng: np.random.Generator | int | None = None,
        pair_chunk: int = DEFAULT_PAIR_CHUNK,
        periodic: bool = False,
        kernel: str = "auto",
        cross_split: int | None = None,
    ):
        self.pyramid = pyramid
        self.particles = pyramid.particles
        self.periodic = bool(periodic)
        self.spec = _resolve_spec(
            spec, bucket_width, self.particles, periodic=self.periodic
        )
        if use_mbr and self.periodic:
            raise QueryError(
                "MBR resolution is not defined under periodic boundaries"
            )
        self.use_mbr = use_mbr
        self.policy = policy
        self.stats = stats if stats is not None else SDHStats()
        if (stop_after_levels is None) != (allocator is None):
            raise QueryError(
                "approximate mode needs both stop_after_levels and allocator"
            )
        if stop_after_levels is not None and stop_after_levels < 0:
            raise QueryError("stop_after_levels must be >= 0")
        if allocator is not None and self.spec.low > 0:
            raise QueryError(
                "approximate mode supports standard queries (r0 == 0) only"
            )
        self.stop_after_levels = stop_after_levels
        self.allocator = allocator
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        self.pair_chunk = int(pair_chunk)
        self.histogram = DistanceHistogram(self.spec)
        self._tables: dict[int, _LevelTable] = {}
        self._float_counts: dict[int, np.ndarray] = {}
        #: Optional observer called with (a_ids, b_ids) for every batch
        #: of leaf-cell pairs whose distances are computed directly —
        #: the access pattern the storage layer replays to count I/O
        #: (Sec. IV-B).  A leaf-start sweep first reports the intra-cell
        #: scans as pairs (c, c), then every pair of occupied cells.
        self.on_leaf_pairs: (
            "callable[[np.ndarray, np.ndarray], None] | None"
        ) = None

        # Weighted / cross-set state.  Weighted mode replaces the float
        # histogram accumulation with the exact integer machinery of
        # repro.core.weighted; cross mode tracks per-side cell masses.
        self.cross_split = None if cross_split is None else int(cross_split)
        self.weighted = self.particles.weighted
        if self.weighted or self.cross_split is not None:
            if self.approximate:
                raise QueryError(
                    "weighted/cross-set queries cannot run in "
                    "approximate mode"
                )
            if pyramid.order is None:
                raise QueryError(
                    "weighted/cross-set queries need a pyramid with a "
                    "materialized sort order"
                )
        if self.cross_split is not None and not (
            0 < self.cross_split < self.particles.size
        ):
            raise QueryError(
                f"cross_split must split the set, got {cross_split} "
                f"of {self.particles.size}"
            )
        self._accum = (
            WeightedAccumulator(self.spec, policy) if self.weighted else None
        )
        if self.periodic:
            reach = self.particles.max_periodic_distance
            box_lengths = np.asarray(self.particles.box.sides, np.float64)
        else:
            reach = self.particles.max_possible_distance
            box_lengths = None
        #: Bins every distance the run computes (repro.core.dense).
        self.binner = DenseBinner(
            self.spec, policy, kernel, reach, self.histogram, self.stats,
            self._accum, box_lengths,
        )
        self.kernel = self.binner.backend.NAME
        self._sides_sorted = (
            None
            if self.cross_split is None
            else pyramid.order >= self.cross_split
        )
        self._w_sorted = (
            self.particles.weights[pyramid.order] if self.weighted else None
        )
        self._w_obj_sorted = (
            exact.weight_ints(self._w_sorted) if self.weighted else None
        )
        self._wsum_levels: "list[np.ndarray] | None" = None
        self._side_wsum_levels: (
            "tuple[list[np.ndarray], list[np.ndarray]] | None"
        ) = None
        self._side_count_levels: (
            "tuple[list[np.ndarray], list[np.ndarray]] | None"
        ) = None

    # ------------------------------------------------------------------
    @property
    def approximate(self) -> bool:
        """Whether this run is ADM-SDH (no distance ever computed)."""
        return self.allocator is not None

    def run(self) -> DistanceHistogram:
        """Execute the algorithm and return the histogram."""
        start = self._start_level()
        self.stats.start_level = start
        leaf = self.pyramid.leaf_level
        if self.stop_after_levels is None:
            last_level = leaf
        else:
            last_level = min(leaf, start + self.stop_after_levels)
        self.stats.levels_visited = last_level - start + 1

        if start == leaf and not self.approximate:
            # Starting on the leaf map leaves no level to refine into:
            # every distance is computed directly, so one dense sweep
            # bins them at brute force's per-distance cost.
            if self.on_leaf_pairs is not None:
                occupied = np.flatnonzero(self.pyramid.counts(leaf))
                self.on_leaf_pairs(occupied, occupied)
                for cells_a, cells_b in self._start_pairs(leaf):
                    self.on_leaf_pairs(cells_a, cells_b)
            if self._sides_sorted is None:
                self.sweep_panels()
            else:
                self._bin_rows(~self._sides_sorted, self._sides_sorted)
        else:
            self._intra_cell(start)
            self._drain(start, self._start_pairs(start), last_level)
        if self._accum is not None:
            self._accum.finalize_into(self.histogram)
        return self.histogram

    def _drain(
        self,
        level: int,
        batches: "Iterator[tuple[np.ndarray, np.ndarray]]",
        last_level: int,
    ) -> None:
        """Run the level-by-level worklist from ``level`` down to the end.

        ``batches`` yields same-level cell-pair batches as pairs of
        cell-id arrays.  Unresolved pairs are expanded to their children
        and re-drained until ``last_level`` settles everything
        (distances in exact mode, the allocator in approximate mode).
        """
        while True:
            carry: list[tuple[np.ndarray, np.ndarray]] = []
            for cells_a, cells_b in batches:
                unresolved = self._process_batch(level, cells_a, cells_b,
                                                 last_level)
                if unresolved is not None:
                    carry.append(unresolved)
            if level == last_level or not carry:
                break
            level += 1
            batches = iter(self._expand(carry, child_level=level))

    # ------------------------------------------------------------------
    # Resumable entry points (used by the parallel engine's workers)
    # ------------------------------------------------------------------
    def process_pairs(
        self, level: int, cells_a: np.ndarray, cells_b: np.ndarray
    ) -> None:
        """Fully resolve one batch of same-level cell pairs.

        Picks up the algorithm mid-descent: the pairs are processed at
        ``level`` and their unresolved children drained down to the leaf
        map exactly as :meth:`run` would have.  Counts accumulate into
        :attr:`histogram` / :attr:`stats`; a parallel worker calls this
        for its shard of the frontier and ships both back for merging.
        """
        last_level = self.pyramid.leaf_level
        self._drain(level, iter([(cells_a, cells_b)]), last_level)

    def sweep_panels(self, first: int = 0, step: int = 1) -> None:
        """Dense self sweep over panels ``first, first + step, ...``.

        Panel ``p`` is ``PANEL_ROWS`` consecutive sorted particles (see
        :meth:`DenseBinner.self_pairs`).  :meth:`run` sweeps all of them
        when an exact single-set run starts on the leaf map; the
        parallel engine strides them over its workers.  Weighted runs
        leave the exact totals in the accumulator for :meth:`run` to
        finalize.
        """
        self.binner.self_pairs(
            self.pyramid.sorted_positions, self._w_sorted, first, step
        )

    # ------------------------------------------------------------------
    # Level geometry tables
    # ------------------------------------------------------------------
    def _level_table(self, level: int) -> _LevelTable:
        """Status, bucket and bounds of every offset class (cached)."""
        table = self._tables.get(level)
        if table is not None:
            return table
        grid = self.pyramid.cells_per_axis(level)
        sides = self.pyramid.cell_sides(level)
        # Row c: the per-axis offsets whose Morton id is c.
        offsets = self.pyramid.decode(
            level, np.arange(grid**self.pyramid.dim)
        )
        gap = np.maximum(offsets - 1, 0) * sides
        if self.periodic:
            from ..geometry.distance import periodic_interval_minmax

            gap, span = periodic_interval_minmax(
                gap, np.minimum(offsets + 1, grid) * sides, grid * sides
            )
        else:
            span = (offsets + 1) * sides
        gap_sq = np.zeros(offsets.shape[0])
        span_sq = np.zeros(offsets.shape[0])
        for ax in range(self.pyramid.dim):
            gap_sq = gap_sq + gap[:, ax] ** 2
            span_sq = span_sq + span[:, ax] ** 2
        u = np.sqrt(gap_sq)
        v = np.sqrt(span_sq)
        status, bucket = self._classify(u, v)
        table = _LevelTable(
            status=status, bucket=bucket.astype(np.int32), u=u, v=v
        )
        self._tables[level] = table
        return table

    def _classify(
        self, u: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Status and target bucket of cell pairs with distances in [u, v]."""
        num = self.spec.num_buckets
        bu = self.spec.bucket_of(u)
        bv = self.spec.bucket_of(v)
        status = np.full(u.shape, _OPEN, dtype=np.int8)
        status[bv < 0] = _BELOW
        status[bu >= num] = _ABOVE
        status[(bu == bv) & (bu >= 0) & (bu < num)] = _RESOLVED
        return status, bu

    def _counts_float(self, level: int) -> np.ndarray:
        """Per-cell counts as float64 (cached; avoids per-batch casts)."""
        cached = self._float_counts.get(level)
        if cached is None:
            cached = self.pyramid.counts(level).astype(np.float64)
            self._float_counts[level] = cached
        return cached

    # ------------------------------------------------------------------
    # Weighted / cross auxiliary pyramids (built lazily, all levels)
    # ------------------------------------------------------------------
    def _leaf_cell_ids(self) -> np.ndarray:
        """Leaf cell id of every sorted particle (CSR expansion)."""
        starts = self.pyramid.leaf_starts
        return np.repeat(
            np.arange(starts.size - 1, dtype=np.int64), np.diff(starts)
        )

    def _weight_sums(self, level: int) -> np.ndarray:
        """Exact integer weight sum per cell at a level (object array)."""
        if self._wsum_levels is None:
            leaf = exact.zero_ints(self.pyramid.leaf_starts.size - 1)
            np.add.at(leaf, self._leaf_cell_ids(), self._w_obj_sorted)
            self._wsum_levels = pool_levels(leaf, self.pyramid.dim)
        return self._wsum_levels[level]

    def _side_weight_sums(
        self, level: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-side weight sums per cell (cross mode, object arrays)."""
        if self._side_wsum_levels is None:
            cells = self._leaf_cell_ids()
            num = self.pyramid.leaf_starts.size - 1
            sides = self._sides_sorted
            leaf_a = exact.zero_ints(num)
            leaf_b = exact.zero_ints(num)
            np.add.at(leaf_a, cells[~sides], self._w_obj_sorted[~sides])
            np.add.at(leaf_b, cells[sides], self._w_obj_sorted[sides])
            self._side_wsum_levels = (
                pool_levels(leaf_a, self.pyramid.dim),
                pool_levels(leaf_b, self.pyramid.dim),
            )
        return (
            self._side_wsum_levels[0][level],
            self._side_wsum_levels[1][level],
        )

    def _side_counts(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-side float cell counts (cross mode)."""
        if self._side_count_levels is None:
            cells = self._leaf_cell_ids()
            num = self.pyramid.leaf_starts.size - 1
            leaf_b = np.bincount(
                cells[self._sides_sorted], minlength=num
            ).astype(np.float64)
            nb_levels = pool_levels(leaf_b, self.pyramid.dim)
            na_levels = [
                self._counts_float(lvl) - nb_levels[lvl]
                for lvl in range(self.pyramid.height)
            ]
            self._side_count_levels = (na_levels, nb_levels)
        return (
            self._side_count_levels[0][level],
            self._side_count_levels[1][level],
        )

    def _pair_masses(
        self, level: int, cells_a: np.ndarray, cells_b: np.ndarray
    ) -> np.ndarray:
        """Exact pair-product masses of whole cell pairs (object array).

        For a resolved pair the sum of its particle-pair products equals
        the product of the two cell weight sums — exactly, because the
        sums are exact integers (the float shortcut the density-map
        engines rely on would not survive rounding).
        """
        if self.cross_split is not None:
            wa, wb = self._side_weight_sums(level)
            return wa[cells_a] * wb[cells_b] + wb[cells_a] * wa[cells_b]
        w = self._weight_sums(level)
        return w[cells_a] * w[cells_b]

    # ------------------------------------------------------------------
    # Stage 1: intra-cell counts on the start map (Fig. 2 lines 3-5)
    # ------------------------------------------------------------------
    def _intra_cell(self, start: int) -> None:
        counts = self.pyramid.counts(start)
        shortcut = (
            self.spec.low == 0.0
            and self.pyramid.cell_diagonal(start) <= float(self.spec.edges[1])
        )
        if shortcut:
            if self.weighted:
                if self.cross_split is not None:
                    wa, wb = self._side_weight_sums(start)
                    mass = sum((wa * wb).tolist(), 0)
                else:
                    # sum_c (W_c^2 - S2_c) / 2, with sum_c S2_c equal to
                    # the level-independent global sum of squares.
                    w = self._weight_sums(start)
                    square = sum(
                        (x * x for x in self._w_obj_sorted.tolist()), 0
                    )
                    mass = (sum((w * w).tolist(), 0) - square) >> 1
                self._accum.add_mass(0, mass)
                return
            if self.cross_split is not None:
                na, nb = self._side_counts(start)
                self.histogram.add(0, float((na * nb).sum()))
                return
            n = counts.astype(np.float64)
            self.histogram.add(0, float((n * (n - 1)).sum() / 2.0))
            return
        # Only ADM-SDH gets here without the shortcut (an exact run that
        # starts on the leaf map sweeps instead), and it computes no
        # distance: distribute intra-cell ranges [0, diagonal]
        # heuristically.
        nonempty = np.flatnonzero(counts >= 2)
        if nonempty.size == 0:
            return
        n = counts[nonempty].astype(np.float64)
        weights = n * (n - 1) / 2.0
        u = np.zeros(nonempty.size)
        v = np.full(nonempty.size, self.pyramid.cell_diagonal(start))
        context = AllocationContext(
            offsets=np.zeros((nonempty.size, self.pyramid.dim), np.int64),
            cell_sides=self.pyramid.cell_sides(start),
            rng=self.rng,
        )
        self._allocate(u, v, weights, context)

    # ------------------------------------------------------------------
    # Stage 2: the level loop
    # ------------------------------------------------------------------
    def _start_pairs(self, level: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """All unordered pairs of non-empty cells on the start map."""
        nonempty = np.flatnonzero(self.pyramid.counts(level))
        c = nonempty.size
        if c < 2:
            return
        # Emit blocks of rows of the (strict upper) pair triangle.
        row = 0
        while row < c - 1:
            rows_here = max(1, min(c - 1 - row,
                                   self.pair_chunk // max(1, c - row - 1)))
            chunk_rows = np.arange(row, row + rows_here)
            repeats = c - 1 - chunk_rows
            a_rows = np.repeat(chunk_rows, repeats)
            b_rows = np.concatenate(
                [np.arange(r + 1, c) for r in chunk_rows]
            )
            yield nonempty[a_rows], nonempty[b_rows]
            row += rows_here

    def _process_batch(
        self,
        level: int,
        cells_a: np.ndarray,
        cells_b: np.ndarray,
        last_level: int,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Resolve one batch of same-level cell pairs.

        Returns the unresolved sub-batch (to be expanded to the next
        level) or None when everything was settled here.
        """
        if self.cross_split is not None:
            na, nb = self._side_counts(level)
            weights = na[cells_a] * nb[cells_b] + nb[cells_a] * na[cells_b]
        else:
            counts = self._counts_float(level)
            weights = counts[cells_a] * counts[cells_b]
        num = self.spec.num_buckets

        if self.use_mbr:
            status, bucket = self._classify(
                *self._mbr_bounds(level, cells_a, cells_b)
            )
        else:
            table = self._level_table(level)
            cls = self.pyramid.offset_ids(level, cells_a, cells_b)
            status = table.status[cls]
            bucket = table.bucket[cls]

        resolved = status == _RESOLVED
        if resolved.any():
            if self.weighted:
                self._accum.add_resolved(
                    np.asarray(bucket[resolved], dtype=np.int64),
                    self._pair_masses(level, cells_a[resolved],
                                      cells_b[resolved]),
                )
            else:
                self.histogram.add_counts(
                    np.bincount(
                        bucket[resolved], weights=weights[resolved],
                        minlength=num,
                    )
                )
        above = status == _ABOVE
        if self.cross_split is not None:
            # A cell pair holding no cross pairs (e.g. both cells pure
            # side A) contributes nothing and must not trip the policy.
            above = above & (weights > 0)
        if above.any():
            if self.weighted:
                masses = self._pair_masses(
                    level, cells_a[above], cells_b[above]
                )
                self._accum.add_overflow(
                    sum(masses.tolist(), 0), int(above.sum())
                )
            else:
                self._handle_overflow(weights[above])
        self.stats.record_batch(
            level,
            examined=cells_a.shape[0],
            resolved=int(resolved.sum()),
            resolved_distances=float(weights[resolved].sum()),
        )

        open_mask = status == _OPEN
        if not open_mask.any():
            return None
        a_open = cells_a[open_mask]
        b_open = cells_b[open_mask]
        if level < last_level:
            return a_open, b_open
        if self.approximate:
            self._allocate_open(level, a_open, b_open, weights[open_mask])
        else:
            self._leaf_distances(a_open, b_open)
        return None

    def _allocate_open(
        self,
        level: int,
        cells_a: np.ndarray,
        cells_b: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Hand the pairs still open at the stop level to the allocator."""
        cls = self.pyramid.offset_ids(level, cells_a, cells_b)
        if self.use_mbr:
            u, v = self._mbr_bounds(level, cells_a, cells_b)
        else:
            table = self._level_table(level)
            u, v = table.u[cls], table.v[cls]
        context = AllocationContext(
            # Under periodic boundaries the offset class does not
            # determine the pair geometry the sampling model assumes;
            # omit it so heuristic 4 falls back to the proportional
            # allocation.
            offsets=None if self.periodic else self.pyramid.decode(level, cls),
            cell_sides=self.pyramid.cell_sides(level),
            rng=self.rng,
        )
        self._allocate(u, v, weights, context)

    def _mbr_bounds(
        self, level: int, cells_a: np.ndarray, cells_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Min/max distance bounds of cell pairs from their particle MBRs."""
        lo_arr = self.pyramid.mbr_lo(level)
        hi_arr = self.pyramid.mbr_hi(level)
        return box_pair_bounds(
            lo_arr[cells_a], hi_arr[cells_a], lo_arr[cells_b], hi_arr[cells_b]
        )

    def _expand(
        self,
        carry: list[tuple[np.ndarray, np.ndarray]],
        child_level: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Children pairs of the unresolved parents (Fig. 2 lines 13-16).

        Cell ``c``'s children are ``2^d * c + k``, so a chunk of parent
        pairs expands with one broadcast per side; a flat index into the
        (parent, child_a, child_b) liveness mask names each child pair
        whose two cells both hold particles.
        """
        pyramid = self.pyramid
        dim = pyramid.dim
        degree = 1 << dim
        live = pyramid.counts(child_level) > 0
        step = max(1, self.pair_chunk // (degree * degree))

        # Chunks with few live children are small; coalesce them into
        # ~pair_chunk-sized batches so downstream processing stays
        # vectorized.
        buffer_a: list[np.ndarray] = []
        buffer_b: list[np.ndarray] = []
        buffered = 0
        for cells_a, cells_b in carry:
            for begin in range(0, cells_a.shape[0], step):
                kids_a = pyramid.children_of(
                    child_level - 1, cells_a[begin : begin + step]
                ).ravel()
                kids_b = pyramid.children_of(
                    child_level - 1, cells_b[begin : begin + step]
                ).ravel()
                mask = (
                    live[kids_a].reshape(-1, degree, 1)
                    & live[kids_b].reshape(-1, 1, degree)
                )
                # hit == (parent * 2^d + child_a) * 2^d + child_b
                hit = np.flatnonzero(mask)
                buffer_a.append(kids_a[hit >> dim])
                buffer_b.append(
                    kids_b[((hit >> (2 * dim)) << dim) | (hit & (degree - 1))]
                )
                buffered += hit.size
                if buffered >= self.pair_chunk:
                    yield np.concatenate(buffer_a), np.concatenate(buffer_b)
                    buffer_a, buffer_b = [], []
                    buffered = 0
        if buffered:
            yield np.concatenate(buffer_a), np.concatenate(buffer_b)

    # ------------------------------------------------------------------
    # Stage 3: leaf distances (Fig. 2 lines 7-11)
    # ------------------------------------------------------------------
    def _leaf_distances(self, a_ids: np.ndarray, b_ids: np.ndarray) -> None:
        """Compute the distances of open leaf-cell pairs as dense tiles.

        Every leaf cell is one slice of ``sorted_positions``.  The pairs
        are grouped by their A cell, so each A cell's open B cells are
        one span of the batch's concatenated B rows, whose indices are
        expanded in blocks of at most ``PANEL_ROWS**2``.  Each A-slice x
        B-span tile of at most ``PANEL_ROWS**2`` distances is binned in
        one dense call.
        """
        if self.on_leaf_pairs is not None:
            self.on_leaf_pairs(a_ids, b_ids)
        counts = self.pyramid.counts(self.pyramid.leaf_level)
        starts = self.pyramid.leaf_starts
        order = np.argsort(a_ids)
        a_ids = a_ids[order]
        b_ids = b_ids[order]
        cuts = np.flatnonzero(a_ids[1:] != a_ids[:-1]) + 1
        cells = a_ids[np.concatenate(([0], cuts))]
        # Each A cell's partners own one span of the concatenated B rows.
        row_ends = np.cumsum(counts[b_ids])[np.append(cuts, a_ids.size) - 1]
        groups = zip(
            starts[cells].tolist(),
            starts[cells + 1].tolist(),
            np.concatenate(([0], row_ends[:-1])).tolist(),
            row_ends.tolist(),
        )
        a_start, a_stop, lo, hi = next(groups)
        for begin, b_rows in _concat_rows(starts[b_ids], counts[b_ids], TILE):
            stop = begin + b_rows.size
            while True:
                for a_lo in range(a_start, a_stop, PANEL_ROWS):
                    a_rows = slice(a_lo, min(a_lo + PANEL_ROWS, a_stop))
                    limit = TILE // (a_rows.stop - a_lo)
                    for row in range(max(lo, begin), min(hi, stop), limit):
                        end = min(row + limit, hi)
                        self._bin_tile(a_rows, b_rows[row - begin : end - begin])
                if hi > stop:
                    break  # the span continues in the next block
                next_group = next(groups, None)
                if next_group is None:
                    break
                a_start, a_stop, lo, hi = next_group

    def _bin_tile(self, a_rows: slice, b_rows: np.ndarray) -> None:
        """Bin every distance between a slice and a set of sorted particles.

        Cross-set runs bin the two one-sided tiles ``A0 x B1`` and
        ``A1 x B0`` (side 1 is the second set).
        """
        if self._sides_sorted is None:
            self._bin_rows(a_rows, b_rows)
            return
        side_a = self._sides_sorted[a_rows]
        side_b = self._sides_sorted[b_rows]
        a_idx = np.arange(a_rows.start, a_rows.stop)
        self._bin_rows(a_idx[~side_a], b_rows[side_b])
        self._bin_rows(a_idx[side_a], b_rows[~side_b])

    def _bin_rows(
        self, a_rows: slice | np.ndarray, b_rows: np.ndarray
    ) -> None:
        """Bin every distance between two selections of sorted particles
        (slices, row indices or boolean masks)."""
        positions = self.pyramid.sorted_positions
        weights = self._w_sorted
        self.binner.cross_pairs(
            positions[a_rows], positions[b_rows],
            None if weights is None else weights[a_rows],
            None if weights is None else weights[b_rows],
        )

    # ------------------------------------------------------------------
    def _allocate(
        self,
        u: np.ndarray,
        v: np.ndarray,
        weights: np.ndarray,
        context: AllocationContext,
    ) -> None:
        assert self.allocator is not None
        self.stats.approximated_pairs += int(u.size)
        self.stats.approximated_distances += float(weights.sum())
        self.histogram.add_counts(
            self.allocator.allocate(self.spec, u, v, weights, context)
        )

    def _handle_overflow(self, weights: np.ndarray) -> None:
        if self.policy is OverflowPolicy.RAISE:
            raise DistanceOverflowError(
                f"{weights.size} cell pair(s) entirely above "
                f"{self.spec.high}"
            )
        if self.policy is OverflowPolicy.CLAMP:
            self.histogram.add(
                self.spec.num_buckets - 1, float(weights.sum())
            )
        # DROP: nothing to do.

    def _start_level(self) -> int:
        if self.spec.low == 0.0:
            first_width = float(self.spec.edges[1])
            level = self.pyramid.start_level_for(first_width)
            if level is not None:
                return level
        return self.pyramid.leaf_level


def _concat_rows(
    starts: np.ndarray, counts: np.ndarray, limit: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Indices of the slices ``[starts[k], starts[k] + counts[k])``,
    concatenated in order and yielded in blocks of at most ``limit``,
    each with the position of its first row in the concatenation."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    # Row r of the concatenation, inside slice k, is shift[k] + r.
    shift = starts - (ends - counts)
    for begin in range(0, total, limit):
        stop = min(begin + limit, total)
        # Slices overlapping rows [begin, stop) of the concatenation.
        first = int(np.searchsorted(ends, begin, side="right"))
        last = int(np.searchsorted(ends, stop, side="left")) + 1
        own = slice(first, last)
        lo = np.maximum(ends[own] - counts[own], begin)
        hi = np.minimum(ends[own], stop)
        yield begin, np.repeat(shift[own], hi - lo) + np.arange(begin, stop)


def _resolve_spec(
    spec: BucketSpec | None,
    bucket_width: float | None,
    particles: ParticleSet,
    periodic: bool = False,
) -> BucketSpec:
    if spec is not None:
        if bucket_width is not None:
            raise QueryError("provide spec or bucket_width, not both")
        return spec
    if bucket_width is None:
        raise QueryError("provide either spec or bucket_width")
    if periodic:
        return UniformBuckets.cover(
            particles.max_periodic_distance, bucket_width
        )
    return UniformBuckets.cover(particles.max_possible_distance, bucket_width)
