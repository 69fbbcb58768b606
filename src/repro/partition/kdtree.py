"""Alternative space partitioning: a kd-tree SDH engine.

The paper's future work (Sec. VIII) asks to "explore more space
partitioning plans in building the Quadtree in hope to find one with
the 'optimal' (or just better) cell resolving percentage", and its
related work points at metric trees.  This module provides one such
plan: a median-split kd-tree whose nodes carry tight bounding boxes,
driven by a dual-tree traversal — the same resolve-or-refine principle
as DM-SDH, but with data-adaptive, always-tight partitions instead of a
fixed grid:

* nodes split at the coordinate median of their widest axis, so every
  leaf holds ~``leaf_capacity`` particles regardless of skew (a
  quadtree's occupancy collapses on clustered data);
* node boxes are the tight MBRs of their particles — the Sec. III-C.3
  optimization is built into the structure rather than bolted on;
* the pair recursion is symmetric (dual-tree): a self pair splits into
  two self pairs and one cross pair; a cross pair resolves, splits its
  larger node, or computes distances at the leaves.

The engine is exact (tests assert integer equality with brute force)
and shares :class:`~repro.core.instrumentation.SDHStats`, so resolving
percentages of the two partitioning plans can be compared head to head
(see ``benchmarks/bench_ablation_partition.py``).
"""

from __future__ import annotations

import numpy as np

from ..core.buckets import BucketSpec, OverflowPolicy, UniformBuckets
from ..core.dense import DenseBinner
from ..core.histogram import DistanceHistogram
from ..core.instrumentation import SDHStats
from ..data.particles import ParticleSet
from ..errors import QueryError, TreeError

__all__ = ["KDNode", "KDPartition", "kd_sdh"]


class KDNode:
    """One kd-tree node: tight box, count, split children or leaf rows."""

    __slots__ = ("lo", "hi", "count", "left", "right", "rows", "depth")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        count: int,
        depth: int,
    ):
        self.lo = lo
        self.hi = hi
        self.count = count
        self.depth = depth
        self.left: KDNode | None = None
        self.right: KDNode | None = None
        #: Leaf nodes: row indices into the partition's coordinate array.
        self.rows: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        """Whether the node holds its particles directly."""
        return self.left is None

    def diameter(self) -> float:
        """Largest distance between two points of the node's box."""
        span = self.hi - self.lo
        return float(np.sqrt((span * span).sum()))

    def min_distance(self, other: "KDNode") -> float:
        """Smallest possible inter-node point distance."""
        gap = np.maximum(
            np.maximum(other.lo - self.hi, self.lo - other.hi), 0.0
        )
        return float(np.sqrt((gap * gap).sum()))

    def max_distance(self, other: "KDNode") -> float:
        """Largest possible inter-node point distance."""
        span = np.maximum(other.hi - self.lo, self.hi - other.lo)
        return float(np.sqrt((span * span).sum()))


class KDPartition:
    """A kd-tree over a particle set, ready to answer SDH queries.

    Parameters
    ----------
    particles:
        The dataset to index.
    leaf_capacity:
        Split until nodes hold at most this many particles.  Plays the
        role of the paper's beta (Eq. 2): below it, resolving costs
        more than computing the distances directly.
    """

    def __init__(self, particles: ParticleSet, leaf_capacity: int = 8):
        if leaf_capacity < 1:
            raise TreeError(
                f"leaf_capacity must be >= 1, got {leaf_capacity}"
            )
        self.particles = particles
        self.leaf_capacity = int(leaf_capacity)
        self._positions = particles.positions
        self.root = self._build(
            np.arange(particles.size, dtype=np.int64), depth=0
        )
        self.node_count = self._count_nodes(self.root)

    # ------------------------------------------------------------------
    def _build(self, rows: np.ndarray, depth: int) -> KDNode:
        pts = self._positions[rows]
        node = KDNode(
            pts.min(axis=0), pts.max(axis=0), rows.size, depth
        )
        if rows.size <= self.leaf_capacity:
            node.rows = rows
            return node
        spans = node.hi - node.lo
        axis = int(np.argmax(spans))
        if spans[axis] <= 0.0:
            # All particles coincide; no split can make progress.
            node.rows = rows
            return node
        order = np.argsort(pts[:, axis], kind="stable")
        half = rows.size // 2
        node.left = self._build(rows[order[:half]], depth + 1)
        node.right = self._build(rows[order[half:]], depth + 1)
        return node

    def _count_nodes(self, node: KDNode) -> int:
        if node.is_leaf:
            return 1
        assert node.left is not None and node.right is not None
        return 1 + self._count_nodes(node.left) + self._count_nodes(
            node.right
        )

    def depth(self) -> int:
        """Maximum node depth of the tree."""

        def walk(node: KDNode) -> int:
            if node.is_leaf:
                return node.depth
            assert node.left is not None and node.right is not None
            return max(walk(node.left), walk(node.right))

        return walk(self.root)

    def validate(self) -> None:
        """Check structural invariants (counts, containment, leaves)."""

        def walk(node: KDNode) -> int:
            if node.is_leaf:
                if node.rows is None or node.rows.size != node.count:
                    raise TreeError("leaf row bookkeeping broken")
                pts = self._positions[node.rows]
                if (pts < node.lo - 1e-12).any() or (
                    pts > node.hi + 1e-12
                ).any():
                    raise TreeError("leaf particles escape node box")
                return node.count
            assert node.left is not None and node.right is not None
            total = walk(node.left) + walk(node.right)
            if total != node.count:
                raise TreeError("child counts do not sum to parent")
            for child in (node.left, node.right):
                if (child.lo < node.lo - 1e-12).any() or (
                    child.hi > node.hi + 1e-12
                ).any():
                    raise TreeError("child box escapes parent box")
            return total

        if walk(self.root) != self.particles.size:
            raise TreeError("tree does not cover the dataset")

    # ------------------------------------------------------------------
    def histogram(
        self,
        spec: BucketSpec | None = None,
        bucket_width: float | None = None,
        policy: OverflowPolicy = OverflowPolicy.RAISE,
        stats: SDHStats | None = None,
    ) -> DistanceHistogram:
        """Exact SDH via dual-tree resolve-or-refine traversal."""
        if spec is None:
            if bucket_width is None:
                raise QueryError("provide either spec or bucket_width")
            spec = UniformBuckets.cover(
                self.particles.max_possible_distance, bucket_width
            )
        elif bucket_width is not None:
            raise QueryError("provide spec or bucket_width, not both")
        run = _DualTreeRun(self, spec, policy,
                           stats if stats is not None else SDHStats())
        run.traverse()
        return run.histogram


class _DualTreeRun:
    """State of one dual-tree SDH computation."""

    def __init__(
        self,
        partition: KDPartition,
        spec: BucketSpec,
        policy: OverflowPolicy,
        stats: SDHStats,
    ):
        self.partition = partition
        self.spec = spec
        self.policy = policy
        self.stats = stats
        self.histogram = DistanceHistogram(spec)
        self._positions = partition.particles.positions
        self._binner = DenseBinner(
            spec, policy, "auto", partition.particles.max_possible_distance,
            self.histogram, stats,
        )

    def traverse(self) -> None:
        self.stats.start_level = 0
        self._self_pair(self.partition.root)

    # -- self pairs -----------------------------------------------------
    def _self_pair(self, node: KDNode) -> None:
        if node.count < 2:
            return
        bucket = self.spec.resolve_range(0.0, node.diameter())
        self.stats.record_batch(node.depth, examined=1, resolved=0,
                                resolved_distances=0.0)
        weight = node.count * (node.count - 1) / 2.0
        if bucket is not None:
            self.stats.record_batch(node.depth, examined=0, resolved=1,
                                    resolved_distances=weight)
            self.histogram.add(bucket, weight)
            return
        if node.is_leaf:
            assert node.rows is not None
            self._binner.self_pairs(self._positions[node.rows])
            return
        assert node.left is not None and node.right is not None
        self._self_pair(node.left)
        self._self_pair(node.right)
        self._cross_pair(node.left, node.right)

    # -- cross pairs ------------------------------------------------------
    def _cross_pair(self, a: KDNode, b: KDNode) -> None:
        if a.count == 0 or b.count == 0:
            return
        u = a.min_distance(b)
        v = a.max_distance(b)
        depth = min(a.depth, b.depth)
        self.stats.record_batch(depth, examined=1, resolved=0,
                                resolved_distances=0.0)
        if v < self.spec.low:
            return
        if u > self.spec.high:
            self._overflow(a.count * b.count)
            return
        bucket = self.spec.resolve_range(u, v)
        if bucket is not None:
            weight = float(a.count * b.count)
            self.stats.record_batch(depth, examined=0, resolved=1,
                                    resolved_distances=weight)
            self.histogram.add(bucket, weight)
            return
        if a.is_leaf and b.is_leaf:
            assert a.rows is not None and b.rows is not None
            self._binner.cross_pairs(
                self._positions[a.rows], self._positions[b.rows]
            )
            return
        # Refine the bulkier node (classic dual-tree split rule).
        if b.is_leaf or (not a.is_leaf and a.diameter() >= b.diameter()):
            assert a.left is not None and a.right is not None
            self._cross_pair(a.left, b)
            self._cross_pair(a.right, b)
        else:
            assert b.left is not None and b.right is not None
            self._cross_pair(a, b.left)
            self._cross_pair(a, b.right)

    def _overflow(self, weight: float) -> None:
        if self.policy is OverflowPolicy.RAISE:
            from ..errors import DistanceOverflowError

            raise DistanceOverflowError(
                f"node pair with all distances above {self.spec.high}"
            )
        if self.policy is OverflowPolicy.CLAMP:
            self.histogram.add(self.spec.num_buckets - 1, weight)


def kd_sdh(
    particles: ParticleSet,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    leaf_capacity: int = 8,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
) -> DistanceHistogram:
    """One-call kd-tree SDH (build + query)."""
    partition = KDPartition(particles, leaf_capacity=leaf_capacity)
    return partition.histogram(
        spec=spec, bucket_width=bucket_width, policy=policy, stats=stats
    )
