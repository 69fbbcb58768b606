"""DM-SDH: the density-map-based SDH algorithm (paper Fig. 2).

This is the *reference* engine: a direct, readable implementation of the
paper's pseudocode on the linked-node tree, including the two query
varieties of Sec. III-C.3 (region-restricted and type-restricted
queries) and the MBR optimization.  Its recursive structure mirrors
``RESOLVETWOCELLS`` line by line:

* start on the first density map whose cell diagonal fits inside the
  first bucket, crediting each cell's internal pairs to bucket 0;
* for every pair of cells, compute the min/max inter-cell distance
  bounds (constant time from the cell corners, Fig. 3); when the bounds
  fall inside one bucket the pair *resolves* and contributes
  ``n1 * n2`` to that bucket;
* otherwise recurse into all child-pair combinations on the next map,
  or compute the remaining distances directly at the leaf level.

A vectorized translation with identical output lives in
:mod:`repro.core.dm_sdh_grid`; tests assert the two agree exactly.
"""

from __future__ import annotations

import numpy as np

from ..data.particles import ParticleSet
from ..errors import QueryError
from ..geometry import Region, Relation
from ..kernels import exact
from ..quadtree.node import DensityNode
from ..quadtree.tree import DensityMapTree
from .buckets import BucketSpec, OverflowPolicy, UniformBuckets
from .dense import DenseBinner
from .histogram import DistanceHistogram
from .instrumentation import SDHStats
from .weighted import WeightedAccumulator

__all__ = ["TreeSDHEngine", "dm_sdh_tree"]


def dm_sdh_tree(
    data: DensityMapTree | ParticleSet,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    use_mbr: bool = False,
    region: Region | None = None,
    type_filter: int | str | None = None,
    type_pair: tuple[int | str, int | str] | None = None,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
    kernel: str = "auto",
) -> DistanceHistogram:
    """Compute an SDH with the node-recursive DM-SDH engine.

    Parameters
    ----------
    data:
        A pre-built :class:`DensityMapTree`, or a :class:`ParticleSet`
        (a tree with default height is built on the fly).
    spec / bucket_width:
        Either an explicit bucket specification, or a width ``p`` from
        which the standard query's buckets are derived (equal width,
        covering the box diagonal).
    use_mbr:
        Resolve cells by their particle MBRs instead of the full cell
        boundary (requires a tree built ``with_mbr=True``).
    region:
        Restrict the histogram to particles inside a query region
        (first variety of Sec. III-C.3).
    type_filter:
        Restrict to particles of one type (second variety).
    type_pair:
        Count only *cross* pairs between two distinct types (one
        particle of each), e.g. carbon-oxygen distances.
    policy:
        Overflow policy for distances beyond the last bucket edge.
    stats:
        Optional :class:`SDHStats` receiving operation counts.
    kernel:
        Leaf-resolution backend tier (see :mod:`repro.kernels`):
        ``"auto"`` picks the fastest available, ``"numpy"`` / ``"numba"``
        pin a tier.  All tiers produce bit-identical histograms.
    """
    if isinstance(data, DensityMapTree):
        tree = data
    else:
        tree = DensityMapTree(data, with_mbr=use_mbr)
    engine = TreeSDHEngine(
        tree,
        spec=spec,
        bucket_width=bucket_width,
        use_mbr=use_mbr,
        region=region,
        type_filter=type_filter,
        type_pair=type_pair,
        policy=policy,
        stats=stats,
        kernel=kernel,
    )
    return engine.run()


class TreeSDHEngine:
    """One DM-SDH computation over a density-map tree.

    The class exists to hold per-run state (histogram, caches, counters)
    so the recursion stays close to the paper's pseudocode; use
    :func:`dm_sdh_tree` for the one-call interface.
    """

    def __init__(
        self,
        tree: DensityMapTree,
        spec: BucketSpec | None = None,
        bucket_width: float | None = None,
        use_mbr: bool = False,
        region: Region | None = None,
        type_filter: int | str | None = None,
        type_pair: tuple[int | str, int | str] | None = None,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
        stats: SDHStats | None = None,
        kernel: str = "auto",
    ):
        self.tree = tree
        self.particles = tree.particles
        self.spec = _resolve_spec(spec, bucket_width, self.particles)
        if use_mbr and not tree.has_mbr:
            raise QueryError("use_mbr requires a tree built with_mbr=True")
        self.use_mbr = use_mbr
        self.region = region
        if region is not None and region.dim != self.particles.dim:
            raise QueryError("region dimensionality does not match data")
        if region is not None and not bool(
            region.contains_points(self.particles.positions).any()
        ):
            # Same contract as the subsetting engines: an empty region
            # is a caller error, not a silently-zero histogram.
            raise QueryError("query region contains no particles")
        self.policy = policy
        self.stats = stats if stats is not None else SDHStats()
        self.histogram = DistanceHistogram(self.spec)

        if type_filter is not None and type_pair is not None:
            raise QueryError("type_filter and type_pair are exclusive")
        self._type_a: int | None = None
        self._type_b: int | None = None
        if type_filter is not None:
            code = self.particles.resolve_type(type_filter)
            self._type_a = self._type_b = code
        elif type_pair is not None:
            code_a = self.particles.resolve_type(type_pair[0])
            code_b = self.particles.resolve_type(type_pair[1])
            if code_a == code_b:
                raise QueryError(
                    "type_pair needs two distinct types; use type_filter"
                )
            self._type_a, self._type_b = code_a, code_b

        # Per-node caches for filtered particle indices and effective
        # counts under region/type restrictions.
        self._indices_cache: dict[int, tuple[np.ndarray, ...]] = {}
        self._count_cache: dict[int, tuple[float, ...]] = {}

        # Weighted datasets route every contribution through one exact
        # accumulator (see repro.core.weighted); control flow stays
        # count-based so a zero *mass* never prunes unresolved pairs.
        self.weighted = self.particles.weighted
        self._accum: WeightedAccumulator | None = None
        self._w_ints: np.ndarray | None = None
        self._mass_cache: dict[int, tuple[int, int, int]] = {}
        if self.weighted:
            self._accum = WeightedAccumulator(self.spec, policy)
            self._w_ints = exact.weight_ints(self.particles.weights)
        #: Bins every distance the run computes (repro.core.dense).
        self.binner = DenseBinner(
            self.spec, policy, kernel, self.particles.max_possible_distance,
            self.histogram, self.stats, self._accum,
        )
        self.kernel = self.binner.backend.NAME

    # ------------------------------------------------------------------
    # Entry point (Algorithm DM-SDH, Fig. 2)
    # ------------------------------------------------------------------
    def run(self) -> DistanceHistogram:
        """Execute the algorithm and return the histogram."""
        start = self._start_level()
        self.stats.start_level = start
        self.stats.levels_visited = self.tree.height - start
        dm = self.tree.density_map(start)
        shortcut = (
            self.spec.low == 0.0
            and dm.cell_diagonal <= float(self.spec.edges[1])
        )

        cells = [cell for cell in dm.cells if self._cell_active(cell)]
        # Lines 3-5: intra-cell pairs all land in the first bucket.
        for cell in cells:
            if shortcut:
                weight = self._self_weight(cell)
                if weight:
                    if self._accum is not None:
                        self._accum.add_mass(0, self._self_mass(cell))
                    else:
                        self.histogram.add(0, weight)
            else:
                self._intra_distances(cell)
        # Lines 6-7: resolve every pair of cells on the start map.
        for i, m1 in enumerate(cells):
            for m2 in cells[i + 1 :]:
                self._resolve_two_cells(m1, m2)
        if self._accum is not None:
            self._accum.finalize_into(self.histogram)
        return self.histogram

    # ------------------------------------------------------------------
    # Procedure RESOLVETWOCELLS (Fig. 2)
    # ------------------------------------------------------------------
    def _resolve_two_cells(self, m1: DensityNode, m2: DensityNode) -> None:
        weight = self._pair_weight(m1, m2)
        if weight == 0:
            return
        b1 = m1.resolution_bounds(self.use_mbr)
        b2 = m2.resolution_bounds(self.use_mbr)
        u, v = b1.distance_bounds(b2)

        level = m1.level
        self.stats.record_batch(level, examined=1, resolved=0,
                                resolved_distances=0.0)

        # Entirely outside the queried distance range?
        if v < self.spec.low:
            return
        if u > self.spec.high:
            self._handle_overflow_pair(weight, m1, m2)
            return

        bucket = self.spec.resolve_range(u, v)
        clean_region = self.region is None or (
            self._relation(m1) is Relation.INSIDE
            and self._relation(m2) is Relation.INSIDE
        )
        if bucket is not None and clean_region:
            # Lines 2-5: the pair resolves.
            self.stats.record_batch(level, examined=0, resolved=1,
                                    resolved_distances=float(weight))
            if self._accum is not None:
                self._accum.add_mass(bucket, self._pair_mass(m1, m2))
            else:
                self.histogram.add(bucket, weight)
            return

        if m1.is_leaf or m2.is_leaf:
            # Lines 6-11: no finer map; fall back to real distances —
            # except that with filters active a resolvable bucket can
            # still be credited using the *filtered* counts.
            if bucket is not None:
                self.stats.record_batch(level, examined=0, resolved=1,
                                        resolved_distances=float(weight))
                if self._accum is not None:
                    self._accum.add_mass(bucket, self._pair_mass(m1, m2))
                else:
                    self.histogram.add(bucket, weight)
                return
            self._leaf_distances(m1, m2)
            return

        # Lines 12-16: recurse into all child pairs on the next map.
        for c1 in m1.children():
            if c1.p_count == 0:
                continue
            for c2 in m2.children():
                if c2.p_count == 0:
                    continue
                self._resolve_two_cells(c1, c2)

    # ------------------------------------------------------------------
    # Weights under region/type restrictions
    # ------------------------------------------------------------------
    def _cell_active(self, cell: DensityNode) -> bool:
        """Whether a cell can contribute anything to the query."""
        if cell.p_count == 0:
            return False
        if self.region is not None and self._relation(cell) is Relation.OUTSIDE:
            return False
        return True

    def _relation(self, cell: DensityNode) -> Relation:
        assert self.region is not None
        return self.region.classify(cell.bounds)

    def _effective_counts(self, cell: DensityNode) -> tuple[float, float]:
        """Counts of qualifying particles (type a, type b) in a cell.

        For untyped queries both entries equal the plain (possibly
        region-filtered) count.  Region-partial cells require walking to
        the subtree's leaves; results are cached per node.
        """
        key = id(cell)
        cached = self._count_cache.get(key)
        if cached is not None:
            return cached

        if self.region is not None:
            relation = self._relation(cell)
            if relation is Relation.OUTSIDE:
                result = (0.0, 0.0)
                self._count_cache[key] = result
                return result
            if relation is Relation.PARTIAL:
                idx_a, idx_b = self._qualifying_indices(cell)
                result = (float(idx_a.size), float(idx_b.size))
                self._count_cache[key] = result
                return result

        if self._type_a is None:
            result = (float(cell.p_count), float(cell.p_count))
        else:
            counts = cell.type_counts
            if counts is None:
                raise QueryError("typed query on an untyped tree")
            na = float(counts[self._type_a]) if self._type_a < len(counts) else 0.0
            nb = float(counts[self._type_b]) if self._type_b < len(counts) else 0.0
            result = (na, nb)
        self._count_cache[key] = result
        return result

    def _pair_weight(self, m1: DensityNode, m2: DensityNode) -> float:
        """Number of qualifying particle pairs across two distinct cells."""
        a1, b1 = self._effective_counts(m1)
        a2, b2 = self._effective_counts(m2)
        if self._type_a is not None and self._type_a != self._type_b:
            return a1 * b2 + b1 * a2
        return a1 * a2

    def _self_weight(self, cell: DensityNode) -> float:
        """Number of qualifying particle pairs within one cell."""
        a, b = self._effective_counts(cell)
        if self._type_a is not None and self._type_a != self._type_b:
            return a * b
        return a * (a - 1) / 2.0

    # ------------------------------------------------------------------
    # Exact weight masses (weighted datasets only)
    # ------------------------------------------------------------------
    def _mass_sums(self, cell: DensityNode) -> tuple[int, int, int]:
        """Exact (type-a sum, type-b sum, type-a sum of squares) of a cell.

        Sums are weight-scale integers (see :mod:`repro.kernels.exact`);
        the sum of squares is product-scale and only consumed by the
        untyped :meth:`_self_mass`.  Cached per node like the counts.
        """
        assert self._w_ints is not None
        key = id(cell)
        cached = self._mass_cache.get(key)
        if cached is None:
            idx_a, idx_b = self._qualifying_indices(cell)
            wa = sum(self._w_ints[idx_a].tolist(), 0)
            if idx_b is idx_a:
                wb = wa
            else:
                wb = sum(self._w_ints[idx_b].tolist(), 0)
            s2 = sum((x * x for x in self._w_ints[idx_a].tolist()), 0)
            cached = (wa, wb, s2)
            self._mass_cache[key] = cached
        return cached

    def _pair_mass(self, m1: DensityNode, m2: DensityNode) -> int:
        """Exact product-scale pair mass across two distinct cells.

        ``(Σa)(Σb) = ΣΣ aᵢbⱼ`` holds exactly over the scaled integers,
        so crediting a resolved pair here agrees bit for bit with the
        leaf-level enumeration of the same pairs.
        """
        wa1, wb1, _ = self._mass_sums(m1)
        wa2, wb2, _ = self._mass_sums(m2)
        if self._type_a is not None and self._type_a != self._type_b:
            return wa1 * wb2 + wb1 * wa2
        return wa1 * wa2

    def _self_mass(self, cell: DensityNode) -> int:
        """Exact product-scale mass of qualifying pairs within one cell."""
        wa, wb, s2 = self._mass_sums(cell)
        if self._type_a is not None and self._type_a != self._type_b:
            return wa * wb
        # Σ_{i<j} wᵢwⱼ = (W² − Σw²)/2; the numerator is exactly even.
        return (wa * wa - s2) >> 1

    # ------------------------------------------------------------------
    # Leaf-level distance computation
    # ------------------------------------------------------------------
    def _qualifying_indices(self, node: DensityNode) -> tuple[np.ndarray, np.ndarray]:
        """Dataset indices of qualifying particles in a node's subtree.

        Returns the (type-a, type-b) index arrays; for untyped queries
        both refer to the same array.  Region filtering is applied here.
        """
        key = id(node)
        cached = self._indices_cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]

        idx = _collect_indices(node)
        positions = self.particles.positions
        if self.region is not None and idx.size:
            relation = self._relation(node)
            if relation is Relation.OUTSIDE:
                idx = idx[:0]
            elif relation is Relation.PARTIAL:
                idx = idx[self.region.contains_points(positions[idx])]
        if self._type_a is None:
            result = (idx, idx)
        else:
            types = self.particles.types
            assert types is not None
            cell_types = types[idx]
            result = (
                idx[cell_types == self._type_a],
                idx[cell_types == self._type_b],
            )
        self._indices_cache[key] = result
        return result

    def _leaf_distances(self, m1: DensityNode, m2: DensityNode) -> None:
        """Fig. 2 lines 7-11: bin every qualifying cross distance."""
        a1, b1 = self._qualifying_indices(m1)
        a2, b2 = self._qualifying_indices(m2)
        if self._type_a is not None and self._type_a != self._type_b:
            self._bin_cross(a1, b2)
            self._bin_cross(b1, a2)
        else:
            self._bin_cross(a1, a2)

    def _intra_distances(self, cell: DensityNode) -> None:
        """Distances within one start-map cell when no bucket-0 shortcut.

        This happens when even the finest map's diagonal exceeds the
        first bucket (the small-N / large-l corner of Fig. 8) or when
        the query's ``r_0 > 0``.
        """
        a, b = self._qualifying_indices(cell)
        if self._type_a is not None and self._type_a != self._type_b:
            self._bin_cross(a, b)
            return
        weights = self.particles.weights
        self.binner.self_pairs(
            self.particles.positions[a],
            None if weights is None else weights[a],
        )

    def _bin_cross(self, left: np.ndarray, right: np.ndarray) -> None:
        """Bin all cross pairs of two index sets."""
        positions = self.particles.positions
        weights = self.particles.weights
        self.binner.cross_pairs(
            positions[left], positions[right],
            None if weights is None else weights[left],
            None if weights is None else weights[right],
        )

    # ------------------------------------------------------------------
    def _handle_overflow_pair(
        self, weight: float, m1: DensityNode, m2: DensityNode
    ) -> None:
        """A whole cell pair lies beyond the histogram's range."""
        if self._accum is not None:
            self._accum.add_overflow(self._pair_mass(m1, m2), int(weight))
            return
        if self.policy is OverflowPolicy.RAISE:
            from ..errors import DistanceOverflowError

            raise DistanceOverflowError(
                f"cell pair with all distances above {self.spec.high}"
            )
        if self.policy is OverflowPolicy.CLAMP:
            self.histogram.add(self.spec.num_buckets - 1, weight)
        # DROP: nothing to do.

    def _start_level(self) -> int:
        """Fig. 2 line 2, falling back to the leaf map when p is tiny."""
        if self.spec.low == 0.0:
            first_width = float(self.spec.edges[1])
            level = self.tree.start_level_for(first_width)
            if level is not None:
                return level
        return self.tree.height - 1


def _collect_indices(node: DensityNode) -> np.ndarray:
    """All dataset indices in a node's subtree (leaf p-lists union)."""
    if node.is_leaf:
        if node.p_list is None:
            return np.empty(0, dtype=np.int64)
        return node.p_list
    parts = [
        _collect_indices(child)
        for child in node.children()
        if child.p_count > 0
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _resolve_spec(
    spec: BucketSpec | None,
    bucket_width: float | None,
    particles: ParticleSet,
) -> BucketSpec:
    if spec is not None:
        if bucket_width is not None:
            raise QueryError("provide spec or bucket_width, not both")
        return spec
    if bucket_width is None:
        raise QueryError("provide either spec or bucket_width")
    return UniformBuckets.cover(particles.max_possible_distance, bucket_width)
