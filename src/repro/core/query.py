"""High-level SDH query interface.

The canonical entry points take an :class:`~repro.core.request.SDHRequest`
— one frozen dataclass describing the whole query — and dispatch through
the capability-based engine registry (:mod:`repro.core.engines`):

* ``compute_sdh(particles, request)`` — one-shot;
* ``SDHQuery.run(request)`` — against a prebuilt, reusable plan (the
  scenario the paper's storage discussion assumes, where the quadtree
  is a persistent index answering many queries).

Both share one execution path: :func:`route_request` settles the
engine, then the registered runner executes the query.  A plan only
adds its prebuilt index (the pyramid, or the node tree) to the call;
a one-shot query lets the engine index the data itself.

Registered engines:

* ``brute`` — the O(N^2) baseline;
* ``tree`` — the node-recursive reference engine (the paper's in-index
  pruning for region- and type-restricted queries);
* ``grid`` — the vectorized engine (the ``auto`` default; restricted
  queries run on it by subsetting, approximate requests run ADM-SDH);
* ``parallel`` — the multi-core engine (:mod:`repro.parallel`), chosen
  by ``auto`` whenever ``workers`` asks for more than one process.
"""

from __future__ import annotations

import numpy as np

from ..data.particles import ParticleSet
from ..errors import QueryError
from ..observability import trace_span
from ..quadtree.grid import GridPyramid
from ..quadtree.tree import DensityMapTree
from .approximate import adm_sdh
from .brute_force import brute_force_sdh
from .buckets import BucketSpec
from ..kernels import available_kernel_tiers
from .dm_sdh import dm_sdh_tree
from .dm_sdh_grid import dm_sdh_grid
from .engines import EngineCapabilities, get_engine, register_engine
from .histogram import DistanceHistogram
from .instrumentation import SDHStats, publish_stats
from .request import SDHRequest

__all__ = [
    "compute_sdh",
    "build_plan",
    "SDHQuery",
    "resolve_engine_name",
    "route_request",
]


def compute_sdh(
    particles: ParticleSet,
    request: SDHRequest,
    *,
    b: ParticleSet | None = None,
    stats: SDHStats | None = None,
    rng: np.random.Generator | int | None = None,
) -> DistanceHistogram:
    """Compute a spatial distance histogram.

    ``request`` is an :class:`~repro.core.request.SDHRequest`; see it
    for every query knob.  ``stats`` and ``rng`` are runtime arguments
    (counters and sampling randomness), not part of the query itself.

    ``b`` makes the query a *cross-set* SDH: the histogram counts every
    pair with one particle from ``particles`` and one from ``b``
    (``N_a * N_b`` pairs), never intra-set pairs.  Both sets must share
    the simulation box and dimensionality.  ``request.weights``
    attaches per-particle weights to ``particles`` for this call
    (equivalent to ``particles.with_weights(...)``); ``b`` carries its
    own weights, if any, on the set itself.
    """
    request = _checked_request(request, "compute_sdh")
    particles, request = _apply_request_weights(particles, request)
    b = _check_cross_operand(particles, request, b)
    # One-shot: any index is built inside the engine for this call
    # alone, so the planner prices its construction (cache_hot=False).
    request, _ = route_request(particles, request, b=b)
    return _execute(particles, request, "query", stats=stats, rng=rng, b=b)


def _checked_request(request, caller: str) -> SDHRequest:
    if not isinstance(request, SDHRequest):
        raise QueryError(
            f"{caller} takes an SDHRequest, got {type(request).__name__}; "
            "build the query with SDHRequest(...)"
        )
    return request.normalize()


def _execute(
    particles: ParticleSet,
    request: SDHRequest,
    span: str,
    *,
    stats: SDHStats | None,
    rng,
    b: ParticleSet | None = None,
    plan: SDHQuery | None = None,
) -> DistanceHistogram:
    """Run a routed request on its registered engine: the one dispatch.

    A ``plan`` lends its prebuilt index to the built-in runners that
    take one; no other runner is handed an ``index`` keyword.
    """
    spec = request.resolved_spec(particles)
    name = resolve_engine_name(request)
    engine = get_engine(name)
    weighted = particles.weighted or (b is not None and b.weighted)
    engine.check(request, weighted=weighted, cross=b is not None)
    if stats is None:
        stats = SDHStats()
    extra = {} if b is None else {"b": b}
    with trace_span(
        span,
        engine=name,
        particles=particles.size,
        approximate=request.approximate,
    ):
        index = None if plan is None else plan._index_for(engine)
        if index is not None:
            extra["index"] = index
        result = engine.run(
            particles, request, spec, stats=stats, rng=rng, **extra
        )
    publish_stats(stats, name)
    return result


def _apply_request_weights(
    particles: ParticleSet, request: SDHRequest
) -> tuple[ParticleSet, SDHRequest]:
    """Fold ``request.weights`` into the dataset for this call.

    The request field is the wire/per-call override; engines only ever
    see weights on the :class:`ParticleSet` itself.  Returns the
    (possibly reweighted) dataset and the request with the field
    cleared, so downstream caching and checks key off the dataset.
    """
    if request.weights is None:
        return particles, request
    weights = np.asarray(request.weights, dtype=float)
    if weights.size != particles.size:
        raise QueryError(
            f"request carries {weights.size} weight(s) for a dataset of "
            f"{particles.size} particle(s)"
        )
    return particles.with_weights(weights), request.replace(weights=None)


def _check_cross_operand(
    particles: ParticleSet, request: SDHRequest, b: ParticleSet | None
) -> ParticleSet | None:
    """Validate the second operand of a cross-set query.

    ``request.dataset_b`` is the wire-level name of the second set; at
    the library level the caller must supply the actual
    :class:`ParticleSet` via ``compute_sdh(a, request, b=...)``.
    """
    if b is None:
        if request.dataset_b is not None:
            raise QueryError(
                f"request names dataset_b={request.dataset_b!r} but no "
                "second particle set was supplied; call "
                "compute_sdh(a, request, b=...)"
            )
        return None
    if not isinstance(b, ParticleSet):
        raise QueryError(
            f"b must be a ParticleSet, got {type(b).__name__}"
        )
    if b.dim != particles.dim:
        raise QueryError(
            f"cross-set operands disagree on dimensionality "
            f"({particles.dim} vs {b.dim})"
        )
    if b.box != particles.box:
        raise QueryError(
            "cross-set operands must share the simulation box; "
            "construct both sets with an explicit common AABB"
        )
    if request.restricted:
        raise QueryError(
            "cross-set queries cannot be combined with region or type "
            "restrictions"
        )
    if request.approximate:
        raise QueryError(
            "cross-set queries cannot run in approximate mode"
        )
    return b


def resolve_engine_name(request: SDHRequest) -> str:
    """Map ``engine="auto"`` to a concrete registered engine.

    This is the *static* fallback rule (``planner="off"``): ``auto``
    means the vectorized grid engine, except that a request for more
    than one worker selects the multi-core parallel engine.  With the
    planner on (the default), ``auto`` requests are routed by
    :func:`repro.planner.plan_request` before reaching this rule.
    Explicit names pass through untouched (the registry validates them).
    """
    if request.engine != "auto":
        return request.engine
    if request.workers is not None and request.workers > 1:
        return "parallel"
    return "grid"


def route_request(
    particles: ParticleSet,
    request: SDHRequest,
    *,
    cache_hot: bool = False,
    b: ParticleSet | None = None,
):
    """Settle which engine runs a request; returns ``(request, plan)``.

    The cost-based planner engages when it is on and there is a
    decision to make — the engine is unresolved, or a latency SLO must
    be admitted.  The planned request comes back with a concrete engine
    and ``planner="off"``, so routing it again is a no-op; ``plan`` is
    the :class:`~repro.planner.ExecutionPlan` (``None`` when nothing was
    planned).  ``cache_hot`` prices the index build as sunk, which is
    right only when a prebuilt plan will answer the query.  Raises
    :class:`~repro.errors.SLOInfeasibleError` when no strategy fits
    the budget.
    """
    if request.planner != "auto" or (
        request.engine != "auto" and request.latency_budget_ms is None
    ):
        return request, None
    # Imported lazily: the planner package sits above core in the
    # layering (it also feeds the service and CLI).
    from ..planner import plan_request

    plan = plan_request(request, particles, cache_hot=cache_hot, b=b)
    return plan.request, plan


# ----------------------------------------------------------------------
# Engine runners (registered at the bottom of the module)
# ----------------------------------------------------------------------
def _combined_cross_set(a: ParticleSet, b: ParticleSet) -> ParticleSet:
    """Concatenate the operands of a cross-set query into one set.

    The DM engines index the union and count only pairs whose sides
    differ; the side label rides along as the type array (the cross
    query rejects type restrictions, so the slot is free).  When either
    side is weighted, the other defaults to unit weights so one exact
    accumulation covers both.
    """
    positions = np.vstack((a.positions, b.positions))
    sides = np.concatenate(
        [
            np.zeros(a.size, dtype=np.int64),
            np.ones(b.size, dtype=np.int64),
        ]
    )
    weights = None
    if a.weighted or b.weighted:
        weights = np.concatenate(
            [
                a.weights if a.weighted else np.ones(a.size),
                b.weights if b.weighted else np.ones(b.size),
            ]
        )
    return ParticleSet(positions, box=a.box, types=sides, weights=weights)


def _run_brute(particles, request, spec, *, stats, rng, b=None):
    def run_full(subset: ParticleSet) -> DistanceHistogram:
        return brute_force_sdh(
            subset, spec=spec, policy=request.policy, stats=stats,
            periodic=request.periodic, kernel=request.kernel,
        )

    def run_cross(sa: ParticleSet, sb: ParticleSet) -> DistanceHistogram:
        from .brute_force import brute_force_cross_sdh

        return brute_force_cross_sdh(
            sa, sb, spec, policy=request.policy, stats=stats,
            periodic=request.periodic, kernel=request.kernel,
        )

    if b is not None:
        return run_cross(particles, b)
    if request.restricted:
        return _restricted_subsets(
            particles, spec, request, run_full, run_cross
        )
    return run_full(particles)


def _run_tree(particles, request, spec, *, stats, rng, b=None, index=None):
    type_pair = request.type_pair
    if b is not None:
        # Cross-set on the reference engine: index the union with side
        # labels as types and reuse the type-pair machinery — a (0, 1)
        # pair is exactly "one particle from each side".
        particles, type_pair = _combined_cross_set(particles, b), (0, 1)
    tree = index
    if tree is None:
        tree = DensityMapTree(particles, with_mbr=request.use_mbr)
    return dm_sdh_tree(
        tree,
        spec=spec,
        use_mbr=request.use_mbr,
        region=request.region,
        type_filter=request.type_filter,
        type_pair=type_pair,
        policy=request.policy,
        stats=stats,
        kernel=request.kernel,
    )


def _run_grid(particles, request, spec, *, stats, rng, b=None, index=None):
    if b is not None:
        combined = _combined_cross_set(particles, b)
        return dm_sdh_grid(
            combined, spec=spec, use_mbr=request.use_mbr,
            policy=request.policy, stats=stats, periodic=request.periodic,
            kernel=request.kernel, cross_split=particles.size,
        )
    if request.approximate:
        if particles.weighted:
            raise QueryError(
                "weighted queries cannot run in approximate mode "
                "(fractional allocation is not exact)"
            )
        return adm_sdh(
            particles if index is None else index,
            spec=spec,
            levels=request.levels,
            error_bound=request.error_bound,
            heuristic=request.heuristic,
            use_mbr=request.use_mbr,
            policy=request.policy,
            stats=stats,
            rng=rng,
            periodic=request.periodic,
        )

    def run_full(subset: ParticleSet | GridPyramid) -> DistanceHistogram:
        return dm_sdh_grid(
            subset, spec=spec, use_mbr=request.use_mbr,
            policy=request.policy, stats=stats, periodic=request.periodic,
            kernel=request.kernel,
        )

    def run_cross(sa: ParticleSet, sb: ParticleSet) -> DistanceHistogram:
        return dm_sdh_grid(
            _combined_cross_set(sa, sb), spec=spec,
            use_mbr=request.use_mbr, policy=request.policy, stats=stats,
            periodic=request.periodic, kernel=request.kernel,
            cross_split=sa.size,
        )

    if request.restricted:
        # Subsets index their own (small) pyramids; a prebuilt index
        # answers only the unrestricted queries.  The union identity is
        # cheaper here than a combined cross-set pyramid, except that on
        # weighted datasets its three independently rounded terms would
        # be off by an ulp from engines counting cross pairs directly.
        return _restricted_subsets(
            particles, spec, request, run_full,
            run_cross if particles.weighted else None,
        )
    return run_full(particles if index is None else index)


def _run_parallel(
    particles, request, spec, *, stats, rng, b=None, index=None
):
    if b is not None:  # pragma: no cover - capability check rejects first
        raise QueryError("engine 'parallel' does not support cross-set queries")
    # Imported lazily: repro.parallel imports this module's siblings,
    # and the registry must be populated before the first query anyway.
    from ..parallel.engine import parallel_sdh

    def run_full(subset) -> DistanceHistogram:
        return parallel_sdh(
            subset, spec=spec, workers=request.workers,
            policy=request.policy, stats=stats, periodic=request.periodic,
            kernel=request.kernel,
        )

    if request.restricted:
        return _restricted_subsets(particles, spec, request, run_full)
    return run_full(particles if index is None else index)


def _restricted_subsets(
    particles: ParticleSet,
    spec: BucketSpec,
    request: SDHRequest,
    run_full,
    run_cross=None,
) -> DistanceHistogram:
    """Restricted queries on a plain engine via subsetting.

    The paper's in-index approach (engine="tree") prunes inside the
    prebuilt quadtree; materializing the qualifying subset and running
    the plain algorithm is equivalent and, in this implementation,
    usually faster.  Cross-type histograms count the pairs directly
    with ``run_cross`` when the engine passes one, and otherwise use the
    exact identity ``h(A x B) = h(A u B) - h(A) - h(B)`` for disjoint
    A, B, which weighted datasets cannot use (see ``_run_grid``).
    """
    current = particles
    if request.region is not None:
        mask = request.region.contains_points(current.positions)
        if not mask.any():
            raise QueryError("query region contains no particles")
        current = current.select(mask)

    def run(subset: ParticleSet) -> DistanceHistogram:
        if subset.size < 2:
            return DistanceHistogram(spec)
        return run_full(subset)

    if request.type_filter is not None:
        return run(current.of_type(request.type_filter))
    if request.type_pair is not None:
        pair = request.type_pair
        _require_distinct_pair(particles, pair)
        subset_a = current.of_type(pair[0])
        subset_b = current.of_type(pair[1])
        if run_cross is not None:
            return run_cross(subset_a, subset_b)
        if current.weighted:  # pragma: no cover - engines that subset
            # never advertise weights without a cross path
            raise QueryError(
                "this engine cannot run weighted type-pair queries"
            )
        both = current.select(
            (current.types == current.resolve_type(pair[0]))
            | (current.types == current.resolve_type(pair[1]))
        )
        union_hist = run(both)
        cross = union_hist.counts - run(subset_a).counts - run(
            subset_b
        ).counts
        return DistanceHistogram(spec, cross)
    return run(current)


def build_plan(
    particles: ParticleSet,
    use_mbr: bool = False,
    height: int | None = None,
    beta: float | None = None,
    request: SDHRequest | None = None,
) -> "SDHQuery":
    """Build a reusable :class:`SDHQuery` plan for a dataset.

    This is the cacheable unit of the query service: construction pays
    the full density-map pyramid build, and the returned plan answers
    any number of queries (exact, approximate, restricted) without
    rebuilding.  Callers that hold plans keyed by
    :meth:`~repro.data.particles.ParticleSet.fingerprint` get the
    paper's persistent-index behaviour: one index, many queries.

    When a ``request`` is given, the plan is built to serve it (today
    that means honouring ``use_mbr``; the request's
    :meth:`~repro.core.request.SDHRequest.plan_key` names the variant
    for cache keying).
    """
    if request is not None:
        use_mbr = use_mbr or request.use_mbr
    return SDHQuery(particles, use_mbr=use_mbr, height=height, beta=beta)


class SDHQuery:
    """Reusable query plan: build the density maps once, query many times.

    The paper's setting is a scientific *database*: the quadtree is a
    persistent index over a static dataset (Sec. III-C.1 even drops the
    parent pointers because the data never changes), and SDH queries
    with different bucket widths arrive over time.  This class captures
    that usage: construction pays the indexing cost, each :meth:`run`
    call only pays query time.
    """

    def __init__(
        self,
        particles: ParticleSet,
        use_mbr: bool = False,
        height: int | None = None,
        beta: float | None = None,
    ):
        self._particles = particles
        self._use_mbr = use_mbr
        with trace_span(
            "plan_build", particles=particles.size, use_mbr=use_mbr
        ) as span:
            self._pyramid = GridPyramid(
                particles, height=height, beta=beta, with_mbr=use_mbr
            )
            span.annotate(height=self._pyramid.height)
        self._tree: DensityMapTree | None = None
        self._height = height
        self._beta = beta

    @property
    def particles(self) -> ParticleSet:
        """The indexed dataset."""
        return self._particles

    @property
    def pyramid(self) -> GridPyramid:
        """The array-based density maps answering plain queries."""
        return self._pyramid

    def describe(self) -> dict:
        """Plan metadata for introspection (used by ``GET /v1/stats``).

        Cheap to call: reports the indexed dataset's shape and the
        pyramid geometry without touching particle data.
        """
        pyramid = self._pyramid
        leaf = pyramid.counts(pyramid.leaf_level)
        return {
            "num_particles": self._particles.size,
            "dim": self._particles.dim,
            "height": pyramid.height,
            "leaf_cells": int(leaf.size),
            "occupied_leaf_cells": int(np.count_nonzero(leaf)),
            "use_mbr": self._use_mbr,
        }

    @property
    def tree(self) -> DensityMapTree:
        """The node-based density maps (built lazily for restricted queries)."""
        if self._tree is None:
            self._tree = DensityMapTree(
                self._particles,
                height=self._height,
                beta=self._beta,
                with_mbr=self._use_mbr,
            )
        return self._tree

    def run(
        self,
        request: SDHRequest,
        *,
        stats: SDHStats | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> DistanceHistogram:
        """Answer one :class:`SDHRequest` against the prebuilt density maps.

        The plan analogue of :func:`compute_sdh`, on the same dispatch:
        the built-in grid, parallel and approximate runners reuse the
        cached pyramid, ``engine="tree"`` the lazily built node tree,
        instead of re-indexing per call.
        """
        request = _checked_request(request, "SDHQuery.run")
        if request.dataset_b is not None:
            raise QueryError(
                "a prebuilt plan indexes one dataset; run cross-set "
                "queries with compute_sdh(a, request, b=...)"
            )
        if request.weights is not None:
            # The cached pyramid indexes the unweighted dataset; a
            # per-call weight override runs the one-shot path instead.
            particles, request = _apply_request_weights(
                self._particles, request
            )
            return compute_sdh(particles, request, stats=stats, rng=rng)
        # The pyramid is already built, so planning treats index
        # construction as sunk cost (cache_hot).
        request, _ = route_request(self._particles, request, cache_hot=True)
        return _execute(
            self._particles,
            request,
            "plan_query",
            stats=stats,
            rng=rng,
            plan=self,
        )

    def _index_for(self, engine):
        """The prebuilt index a built-in runner accepts, else ``None``."""
        if engine.run is _run_tree:
            return self.tree
        if engine.run in (_run_grid, _run_parallel):
            return self._pyramid
        return None


def _require_distinct_pair(particles: ParticleSet, pair) -> None:
    """Reject ``type_pair`` naming one type twice, on every engine.

    The tree engine always rejected this (the cross identity
    ``h(A x B) = h(A u B) - h(A) - h(B)`` needs disjoint sides; with
    A == B it degenerates to ``-h(A)``, i.e. negative counts); the
    subsetting engines must agree rather than return garbage.
    """
    if particles.resolve_type(pair[0]) == particles.resolve_type(pair[1]):
        raise QueryError(
            "type_pair needs two distinct types; use type_filter"
        )


# ----------------------------------------------------------------------
# Built-in engine registrations.  ``replace=True`` keeps re-imports
# (e.g. under importlib.reload in tests) idempotent.
# ----------------------------------------------------------------------
register_engine(
    "brute",
    _run_brute,
    EngineCapabilities(
        supports_periodic=True,
        supports_region=True,
        supports_type_filter=True,
        supports_type_pair=True,
        supports_mbr=True,
        supports_weights=True,
        supports_cross=True,
        kernel_tiers=available_kernel_tiers(),
    ),
    replace=True,
)
register_engine(
    "tree",
    _run_tree,
    EngineCapabilities(
        supports_region=True,
        supports_type_filter=True,
        supports_type_pair=True,
        supports_mbr=True,
        supports_weights=True,
        supports_cross=True,
        kernel_tiers=available_kernel_tiers(),
    ),
    replace=True,
)
register_engine(
    "grid",
    _run_grid,
    EngineCapabilities(
        supports_periodic=True,
        supports_region=True,
        supports_type_filter=True,
        supports_type_pair=True,
        supports_approximate=True,
        supports_mbr=True,
        supports_weights=True,
        supports_cross=True,
        kernel_tiers=available_kernel_tiers(),
    ),
    replace=True,
)
register_engine(
    "parallel",
    _run_parallel,
    EngineCapabilities(
        supports_periodic=True,
        supports_region=True,
        supports_type_filter=True,
        supports_type_pair=True,
        supports_workers=True,
        kernel_tiers=available_kernel_tiers(),
    ),
    replace=True,
)
