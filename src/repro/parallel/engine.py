"""Multi-core DM-SDH: shard the cell-pair frontier across processes.

The single-core grid engine descends the pyramid level by level,
resolving cell pairs where it can and refining the rest.  Every pair in
that frontier is *independent* — resolving it touches only the
histogram and counters it credits — and every count an exact run
produces is an integral float64 far below 2^53, so partial histograms
sum without rounding.  That makes the parallel decomposition exact:

1. the parent builds (or receives) the pyramid and processes the first
   few coarse levels inline — there are too few pairs up there to be
   worth shipping — until the unresolved frontier is wide enough;
2. the frontier pairs are strided round-robin into tasks; a query
   that starts on the leaf map strides the panels of the serial
   engine's dense self sweep instead;
3. each worker attaches the shared-memory coordinate arrays once
   (:mod:`repro.parallel.shm`), rebuilds a zero-copy pyramid view, and
   drains its tasks down to the leaf level with the *same* engine code
   the single-core path runs;
4. the parent sums the per-task histograms and merges the
   :class:`~repro.core.instrumentation.SDHStats` — a pure, order-
   independent sum, so the result is bit-identical to ``engine="grid"``.

Only the tasks' cell-id arrays travel through pickles; coordinates live in
one shared segment per run, created and unlinked by the parent.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable

import numpy as np

from ..core.buckets import BucketSpec, OverflowPolicy
from ..core.dm_sdh_grid import DEFAULT_PAIR_CHUNK, GridSDHEngine, dm_sdh_grid
from ..core.histogram import DistanceHistogram
from ..core.instrumentation import SDHStats
from ..data.particles import ParticleSet
from ..errors import QueryError
from ..geometry import AABB
from ..geometry.distance import PANEL_ROWS
from ..observability import get_logger, get_registry, log_event, trace_span
from ..quadtree.grid import GridPyramid
from .shm import SharedArrayBundle, attach

__all__ = ["parallel_sdh"]

#: Tasks created per worker: more than 1 so early-finishing workers
#: pick up slack from uneven shards.
DEFAULT_TASKS_PER_WORKER = 8


def parallel_sdh(
    data: GridPyramid | ParticleSet,
    spec: BucketSpec | None = None,
    bucket_width: float | None = None,
    workers: int | None = None,
    policy: OverflowPolicy = OverflowPolicy.RAISE,
    stats: SDHStats | None = None,
    periodic: bool = False,
    tasks_per_worker: int = DEFAULT_TASKS_PER_WORKER,
    fanout_pairs: int | None = None,
    mp_context: multiprocessing.context.BaseContext | str | None = None,
    pair_chunk: int = DEFAULT_PAIR_CHUNK,
    kernel: str = "auto",
) -> DistanceHistogram:
    """Compute an exact SDH on multiple cores; bit-identical to the grid engine.

    Parameters beyond :func:`~repro.core.dm_sdh_grid.dm_sdh_grid`:

    workers:
        Process count.  ``None`` means ``os.cpu_count()``; ``1`` runs
        the single-core engine inline (no pool, no shared memory).
    tasks_per_worker / fanout_pairs:
        Sharding knobs: the parent descends until the frontier holds at
        least ``fanout_pairs`` cell pairs (default scales with the task
        count), then splits it into ``workers * tasks_per_worker``
        round-robin shards.
    mp_context:
        A :mod:`multiprocessing` context or start-method name; the
        platform default (``fork`` on Linux) when None.
    kernel:
        Leaf-resolution backend tier (see :mod:`repro.kernels`) used by
        every worker; processes and SIMD compose.  All tiers are
        bit-identical, so the merge stays exact.

    Approximate mode and MBR resolution are not offered here — the
    allocator heuristics sample RNG state per batch, which has no
    order-independent merge; use the grid engine for those.
    """
    pyramid = data if isinstance(data, GridPyramid) else GridPyramid(data)
    if pyramid.particles.weighted:
        # The merge of exact weighted accumulators across workers is
        # not implemented; the capability registry routes weighted
        # queries elsewhere, this guard catches direct calls.
        raise QueryError(
            "the parallel engine does not support weighted datasets"
        )
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return dm_sdh_grid(
            pyramid, spec=spec, bucket_width=bucket_width, policy=policy,
            stats=stats, periodic=periodic, kernel=kernel,
        )
    if tasks_per_worker < 1:
        raise QueryError(
            f"tasks_per_worker must be >= 1, got {tasks_per_worker}"
        )

    run_stats = stats if stats is not None else SDHStats()
    engine = GridSDHEngine(
        pyramid,
        spec=spec,
        bucket_width=bucket_width,
        policy=policy,
        stats=run_stats,
        periodic=periodic,
        pair_chunk=pair_chunk,
        kernel=kernel,
    )
    start = engine._start_level()
    leaf = pyramid.leaf_level
    run_stats.start_level = start
    run_stats.levels_visited = leaf - start + 1

    num_tasks = workers * tasks_per_worker
    if fanout_pairs is None:
        fanout_pairs = 64 * num_tasks

    if start == leaf:
        # The serial engine's dense self sweep, strided over workers.
        panels = -(-pyramid.particles.size // PANEL_ROWS)
        shards = min(num_tasks, panels)
        tasks = [("sweep", t, shards) for t in range(shards)]
    else:
        # A start above the leaf map always takes the closed-form
        # intra-cell count: O(cells) arithmetic, never worth a process.
        engine._intra_cell(start)
        tasks = list(_frontier_tasks(engine, start, leaf, fanout_pairs,
                                     num_tasks))
    if not tasks:
        return engine.histogram

    if isinstance(mp_context, str):
        ctx = multiprocessing.get_context(mp_context)
    elif mp_context is None:
        ctx = multiprocessing.get_context()
    else:
        ctx = mp_context

    bundle = SharedArrayBundle(
        {
            "positions": pyramid.sorted_positions,
            "leaf_starts": pyramid.leaf_starts,
        }
    )
    config = {
        "spec": engine.spec,
        "policy": policy,
        "periodic": periodic,
        "height": pyramid.height,
        "box_lo": tuple(pyramid.particles.box.lo),
        "box_hi": tuple(pyramid.particles.box.hi),
        "pair_chunk": pair_chunk,
        "kernel": engine.kernel,
    }
    registry = get_registry()
    task_seconds = registry.histogram(
        "sdh_parallel_task_seconds",
        "Wall-clock seconds per parallel worker shard.",
        ("kind",),
    )
    tasks_total = registry.counter(
        "sdh_parallel_tasks_total",
        "Parallel worker shards completed.",
        ("kind",),
    )
    log = get_logger("parallel")
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(bundle.descriptor(), config),
    )
    try:
        with trace_span(
            "parallel_fanout",
            workers=min(workers, len(tasks)),
            tasks=len(tasks),
            particles=pyramid.particles.size,
        ):
            futures = [pool.submit(_run_task, task) for task in tasks]
            try:
                for task, future in zip(tasks, futures):
                    counts, worker_stats, seconds, pid = future.result()
                    engine.histogram.add_counts(counts)
                    run_stats.merge(worker_stats)
                    kind = task[0]
                    task_seconds.labels(kind=kind).observe(seconds)
                    tasks_total.labels(kind=kind).inc()
                    if log.isEnabledFor(logging.DEBUG):
                        log_event(
                            log, logging.DEBUG, "parallel_task_done",
                            kind=kind, worker_pid=pid,
                            duration_seconds=round(seconds, 9),
                        )
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                raise
    finally:
        pool.shutdown(wait=True)
        bundle.unlink()
    return engine.histogram


# ----------------------------------------------------------------------
# Parent-side sharding
# ----------------------------------------------------------------------
def _frontier_tasks(
    engine: GridSDHEngine,
    start: int,
    leaf: int,
    fanout_pairs: int,
    num_tasks: int,
) -> Iterable[tuple]:
    """Descend inline until the frontier is wide enough, then shard it.

    The parent resolves coarse-level pairs itself (they are few and
    cheap) and stops at the first level whose *unprocessed* expansion
    reaches ``fanout_pairs`` pairs — or at the leaf map, whose pairs
    always go to the workers.
    """
    level = start
    frontier: list[tuple[np.ndarray, np.ndarray]] = list(
        engine._start_pairs(start)
    )
    while level < leaf and frontier:
        total = sum(a.shape[0] for a, _ in frontier)
        if total >= fanout_pairs:
            break
        carry = []
        for cells_a, cells_b in frontier:
            unresolved = engine._process_batch(level, cells_a, cells_b, leaf)
            if unresolved is not None:
                carry.append(unresolved)
        if not carry:
            return
        level += 1
        frontier = list(engine._expand(carry, child_level=level))
    if not frontier:
        return
    cells_a = np.concatenate([a for a, _ in frontier])
    cells_b = np.concatenate([b for _, b in frontier])
    shards = min(int(cells_a.shape[0]), num_tasks)
    for t in range(shards):
        yield ("pairs", level, cells_a[t::shards], cells_b[t::shards])


# ----------------------------------------------------------------------
# Worker side (module-level so both fork and spawn can pickle them)
# ----------------------------------------------------------------------
_WORKER_ENGINE: GridSDHEngine | None = None
_WORKER_HANDLE = None


def _init_worker(descriptor, config) -> None:
    """Attach shared memory once and build the per-process engine.

    The engine (and its cached per-level offset-class tables) is reused
    across every task this worker runs; only the histogram and stats
    are reset per task.
    """
    global _WORKER_ENGINE, _WORKER_HANDLE
    views, handle = attach(descriptor)
    _WORKER_HANDLE = handle  # keeps the mapping alive for the views
    particles = ParticleSet(
        views["positions"],
        box=AABB.from_arrays(config["box_lo"], config["box_hi"]),
    )
    pyramid = GridPyramid.from_components(
        particles,
        height=config["height"],
        leaf_starts=views["leaf_starts"],
        sorted_positions=views["positions"],
    )
    _WORKER_ENGINE = GridSDHEngine(
        pyramid,
        spec=config["spec"],
        policy=config["policy"],
        periodic=config["periodic"],
        pair_chunk=config["pair_chunk"],
        kernel=config["kernel"],
    )


def _run_task(task: tuple) -> tuple[np.ndarray, SDHStats, float, int]:
    """Resolve one shard; returns ``(counts, stats, seconds, pid)``.

    The duration is measured inside the worker so the parent can
    attribute wall-clock per shard kind (and per worker process)
    without including pool queueing time.
    """
    engine = _WORKER_ENGINE
    assert engine is not None, "worker used before initialization"
    # Fresh sinks per task, for the engine and the binner it bins into:
    # a binner left on the last task's sinks would drop this task's
    # counts.
    engine.histogram = engine.binner.histogram = DistanceHistogram(engine.spec)
    engine.stats = engine.binner.stats = SDHStats()
    started = time.perf_counter()
    if task[0] == "sweep":
        engine.sweep_panels(task[1], task[2])
    else:
        _, level, cells_a, cells_b = task
        engine.process_pairs(level, cells_a, cells_b)
    seconds = time.perf_counter() - started
    return engine.histogram.counts, engine.stats, seconds, os.getpid()
