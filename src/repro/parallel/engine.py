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
2. the frontier pairs (and, when the start map is the leaf map, the
   intra-cell leaf scans) are strided round-robin into tasks; a plain
   query that starts on the leaf map strides the panels of the serial
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
from ..core.dm_sdh_grid import (
    DEFAULT_DISTANCE_CHUNK,
    DEFAULT_PAIR_CHUNK,
    GridSDHEngine,
    dm_sdh_grid,
)
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
    distance_chunk: int = DEFAULT_DISTANCE_CHUNK,
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
        distance_chunk=distance_chunk,
        kernel=kernel,
    )
    start = engine._start_level()
    leaf = pyramid.leaf_level
    run_stats.start_level = start
    run_stats.levels_visited = leaf - start + 1

    num_tasks = workers * tasks_per_worker
    if fanout_pairs is None:
        fanout_pairs = 64 * num_tasks

    if start == leaf and engine._sweeps_leaf_start():
        # The serial engine's dense self sweep, strided over workers.
        panels = -(-pyramid.particles.size // PANEL_ROWS)
        shards = min(num_tasks, panels)
        tasks = [("sweep", t, shards) for t in range(shards)]
    else:
        tasks = list(_intra_tasks(engine, start, num_tasks))
        tasks.extend(_frontier_tasks(engine, start, leaf, fanout_pairs,
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
        "distance_chunk": distance_chunk,
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
def _intra_tasks(
    engine: GridSDHEngine, start: int, num_tasks: int
) -> Iterable[tuple]:
    """Intra-cell work: inline when it is a closed-form count, sharded
    leaf scans otherwise."""
    pyramid = engine.pyramid
    shortcut = (
        engine.spec.low == 0.0
        and pyramid.cell_diagonal(start) <= float(engine.spec.edges[1])
    )
    if shortcut:
        # O(cells) arithmetic — never worth a process round-trip.
        engine._intra_cell(start)
        return
    # Not a shortcut, so the start map is the leaf map (see
    # GridSDHEngine._start_level) and intra-cell distances are computed
    # directly.  Shard the occupied cells, largest first, round-robin —
    # a cell costs ~count^2, so interleaving the sorted order keeps the
    # shards even.
    counts = pyramid.counts(pyramid.leaf_level)
    cells = np.flatnonzero(counts >= 2)
    if cells.size == 0:
        return
    cells = cells[np.argsort(-counts[cells], kind="stable")]
    shards = min(int(cells.size), num_tasks)
    for t in range(shards):
        yield ("intra", cells[t::shards])


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

    When the start map already is the leaf map the pair triangle can be
    enormous; instead of materializing it here, workers receive row
    strides of the triangle and enumerate their own pairs (the shard
    payload is two integers).
    """
    if start == leaf:
        occupied = int(
            np.count_nonzero(engine.pyramid.counts(leaf))
        )
        if occupied < 2:
            return
        shards = min(num_tasks, occupied - 1)
        for t in range(shards):
            yield ("triangle", t, shards)
        return
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
        distance_chunk=config["distance_chunk"],
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
    engine.histogram = DistanceHistogram(engine.spec)
    engine.stats = SDHStats()
    started = time.perf_counter()
    if task[0] == "intra":
        engine.process_intra_cells(task[1])
    elif task[0] == "triangle":
        _run_triangle(engine, task[1], task[2])
    elif task[0] == "sweep":
        engine.sweep_panels(task[1], task[2])
    else:
        _, level, cells_a, cells_b = task
        engine.process_pairs(level, cells_a, cells_b)
    seconds = time.perf_counter() - started
    return engine.histogram.counts, engine.stats, seconds, os.getpid()


def _run_triangle(engine: GridSDHEngine, t: int, shards: int) -> None:
    """Resolve rows ``t, t+shards, ...`` of the leaf-map pair triangle.

    Mirrors ``GridSDHEngine._start_pairs`` for the start==leaf case:
    the worker enumerates unordered pairs (r, s>r) of occupied leaf
    cells for its row stride, in blocks of ~pair_chunk pairs, so no
    process ever holds the full triangle.
    """
    pyramid = engine.pyramid
    level = pyramid.leaf_level
    nonempty = np.flatnonzero(pyramid.counts(level))
    c = nonempty.size
    if c < 2:
        return
    rows = np.arange(t, c - 1, shards, dtype=np.int64)
    if rows.size == 0:
        return
    per_row = c - 1 - rows
    ends = np.cumsum(per_row)
    cuts = np.searchsorted(
        ends, np.arange(engine.pair_chunk, ends[-1], engine.pair_chunk),
        side="left",
    )
    bounds = np.unique(np.concatenate(([0], cuts + 1, [rows.size])))
    for begin, end in zip(bounds[:-1], bounds[1:]):
        block = rows[begin:end]
        a_rows = np.repeat(block, per_row[begin:end])
        b_rows = np.concatenate([np.arange(r + 1, c) for r in block])
        engine.process_pairs(level, nonempty[a_rows], nonempty[b_rows])
