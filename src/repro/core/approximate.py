"""ADM-SDH: the approximate SDH algorithm (paper Sec. V).

The approximate algorithm is DM-SDH stopped early: after visiting
``m + 1`` density maps, the remaining unresolved cell pairs distribute
their counts heuristically instead of recursing further, and **no**
point-to-point distance is ever computed.  Its cost (Eq. 5) is

    T(N) ~ I * 2^{(2d-1) m}  ~  I * (1/epsilon)^{2d-1}

independent of the dataset size N; the analytical model of
:mod:`repro.core.analysis` converts a requested error bound ``epsilon``
into the number of levels ``m`` to visit (rule of thumb:
``m = log2(1 / epsilon)``) — or, in anytime mode, converts an operation
budget into the deepest affordable ``m`` by inverting Eq. (3).

This module is a thin, user-facing layer over
:class:`repro.core.dm_sdh_grid.GridSDHEngine`'s approximate mode.
"""

from __future__ import annotations

import numpy as np

from ..data.particles import ParticleSet
from ..errors import QueryError
from ..quadtree.grid import GridPyramid
from .analysis import choose_levels_for_budget, choose_levels_for_error
from .buckets import BucketSpec, OverflowPolicy
from .dm_sdh_grid import GridSDHEngine, _resolve_spec
from .heuristics import Allocator, make_allocator
from .histogram import DistanceHistogram
from .instrumentation import SDHStats

__all__ = ["adm_sdh", "levels_for_error"]


def adm_sdh(
    data: GridPyramid | ParticleSet,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    levels: int | None = None,
    error_bound: float | None = None,
    op_budget: float | None = None,
    heuristic: int | str | Allocator = 3,
    use_mbr: bool = False,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
    rng: np.random.Generator | int | None = None,
    periodic: bool = False,
) -> DistanceHistogram:
    """Approximate SDH with guaranteed-bounded unresolved mass.

    Parameters
    ----------
    data:
        A pre-built :class:`GridPyramid` or a raw :class:`ParticleSet`.
    spec / bucket_width:
        Bucket specification, as in the exact engines.
    levels:
        The paper's ``m``: number of density maps visited below the
        start map.  Mutually exclusive with ``error_bound``.
    error_bound:
        Desired bound ``epsilon`` on the fraction of distances left to
        the heuristic (the conservative guarantee of Sec. V).  The
        required ``m`` is read off the covering-factor model
        (:func:`repro.core.analysis.choose_levels_for_error`).
    op_budget:
        Anytime mode: spend at most roughly this many cell-resolution
        operations; the deepest affordable ``m`` comes from inverting
        the Eq.-(3) cost model against the actual start-map pair count.
    heuristic:
        Which Sec.-V heuristic distributes the unresolved counts: 1-4 or
        an :class:`Allocator` instance.  Defaults to 3 (proportional),
        the best constant-time heuristic in the paper's experiments.
    use_mbr / policy / stats / rng:
        As in the exact engines.
    """
    given = sum(
        value is not None for value in (levels, error_bound, op_budget)
    )
    if given != 1:
        raise QueryError(
            "provide exactly one of levels / error_bound / op_budget"
        )

    pyramid = data if isinstance(data, GridPyramid) else GridPyramid(data)

    resolved_spec = _resolve_spec(
        spec, bucket_width, pyramid.particles, periodic=periodic
    )
    if levels is None and error_bound is not None:
        levels = levels_for_error(
            error_bound,
            num_buckets=resolved_spec.num_buckets,
            dim=pyramid.dim,
        )
    elif levels is None:
        assert op_budget is not None
        levels = choose_levels_for_budget(
            _start_pair_count(pyramid, resolved_spec),
            op_budget,
            dim=pyramid.dim,
        )

    engine = GridSDHEngine(
        pyramid,
        spec=resolved_spec,
        use_mbr=use_mbr,
        policy=policy,
        stats=stats,
        stop_after_levels=levels,
        allocator=make_allocator(heuristic),
        rng=rng,
        periodic=periodic,
    )
    return engine.run()


def _start_pair_count(pyramid: GridPyramid, spec) -> float:
    """Non-empty cell pairs on the map DM-SDH would start from."""
    if spec.low == 0.0:
        level = pyramid.start_level_for(float(spec.edges[1]))
        if level is None:
            level = pyramid.leaf_level
    else:
        level = pyramid.leaf_level
    import numpy as _np

    nonempty = int(_np.count_nonzero(pyramid.counts(level)))
    return nonempty * (nonempty - 1) / 2.0


def levels_for_error(
    error_bound: float,
    num_buckets: int,
    dim: int = 2,
) -> int:
    """Levels ``m`` to visit so unresolved mass stays below the bound.

    Thin forwarding wrapper over the analytical model; kept here so the
    approximate API is self-contained.
    """
    if not 0 < error_bound < 1:
        raise QueryError(
            f"error_bound must be in (0, 1), got {error_bound}"
        )
    return choose_levels_for_error(error_bound, num_buckets, dim)
