"""SHA-1 digests of exact histograms across engines, modes and dims.

Every exact engine (brute force, the grid, the tree, the kd-tree,
incremental updates and the parallel engine) is run on fixed seeded
inputs in each mode it supports, and the SHA-1 of each histogram's
float64 counts is printed as JSON.  Two source trees that print the
same digests produce bit-identical histograms on these inputs, which is
how a refactor of the binning code is checked against its parent:

    PYTHONPATH=src python benchmarks/histogram_digests.py > after.json
    PYTHONPATH=<parent>/src python benchmarks/histogram_digests.py > before.json

Only library entry points that have been stable across releases are
called, so the script runs unchanged on older trees.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.core import (
    CustomBuckets,
    OverflowPolicy,
    UniformBuckets,
    brute_force_cross_sdh,
    brute_force_sdh,
    dm_sdh_grid,
    dm_sdh_tree,
)
from repro.data import ParticleSet, uniform, zipf_clustered
from repro.incremental import update_histogram
from repro.parallel import parallel_sdh
from repro.partition import kd_sdh


def _digest(histogram) -> str:
    return hashlib.sha1(
        np.ascontiguousarray(histogram.counts, dtype=np.float64).tobytes()
    ).hexdigest()


def _weighted(data: ParticleSet, seed: int) -> ParticleSet:
    gen = np.random.default_rng(seed)
    return data.with_weights(gen.integers(1, 50, data.size) / 8.0)


def _custom(diag: float, low: float = 0.05) -> CustomBuckets:
    """Uneven edges from ``low`` to a last edge short of the diagonal."""
    return CustomBuckets([low * diag, 0.2 * diag, 0.23 * diag, 0.6 * diag])


def cases(dim: int):
    """(name, thunk) pairs for one dimensionality."""
    n = 3000 if dim == 2 else 2000
    data = zipf_clustered(n, dim=dim, rng=10 + dim)
    diag = data.max_possible_distance
    heavy = _weighted(data, 20 + dim)
    sweep = UniformBuckets.with_count(diag, 256)
    descent = UniformBuckets.with_count(diag, 16 if dim == 2 else 4)
    periodic = UniformBuckets.with_count(data.max_periodic_distance, 256)
    clamp = OverflowPolicy.CLAMP
    split = n // 3
    side_a = data.select(np.arange(split))
    side_b = data.select(np.arange(split, n))

    small = uniform(800, dim=dim, rng=30 + dim)
    small_diag = small.max_possible_distance
    small_heavy = _weighted(small, 40 + dim)

    gen = np.random.default_rng(50 + dim)
    moved = data.positions.copy()
    rows = gen.choice(n, n // 20, replace=False)
    moved[rows] = gen.random((rows.size, dim)) * 0.999
    base = brute_force_sdh(data, spec=sweep)

    return [
        ("grid/plain", lambda: dm_sdh_grid(data, spec=sweep)),
        ("grid/periodic", lambda: dm_sdh_grid(
            data, spec=periodic, periodic=True)),
        ("grid/weighted", lambda: dm_sdh_grid(heavy, spec=sweep)),
        ("grid/cross", lambda: dm_sdh_grid(
            data, spec=sweep, cross_split=split)),
        ("grid/cross-weighted", lambda: dm_sdh_grid(
            heavy, spec=sweep, cross_split=split)),
        ("grid/custom", lambda: dm_sdh_grid(
            data, spec=_custom(diag), policy=clamp)),
        ("grid/custom-weighted", lambda: dm_sdh_grid(
            heavy, spec=_custom(diag), policy=clamp)),
        ("grid/descent", lambda: dm_sdh_grid(data, spec=descent)),
        ("grid/descent-weighted", lambda: dm_sdh_grid(heavy, spec=descent)),
        ("tree/descent", lambda: dm_sdh_tree(
            small, spec=UniformBuckets.with_count(small_diag, 16))),
        ("tree/weighted", lambda: dm_sdh_tree(
            small_heavy, spec=UniformBuckets.with_count(small_diag, 16))),
        ("tree/custom", lambda: dm_sdh_tree(
            small, spec=_custom(small_diag), policy=clamp)),
        ("brute/plain", lambda: brute_force_sdh(data, spec=sweep)),
        ("brute/custom", lambda: brute_force_sdh(
            data, spec=_custom(diag), policy=clamp)),
        ("brute/custom-weighted", lambda: brute_force_sdh(
            heavy, spec=_custom(diag), policy=clamp)),
        ("brute/cross", lambda: brute_force_cross_sdh(
            side_a, side_b, sweep)),
        ("kdtree/plain", lambda: kd_sdh(
            small, spec=UniformBuckets.with_count(small_diag, 16))),
        ("kdtree/custom", lambda: kd_sdh(
            small, spec=_custom(small_diag, low=0.0), policy=clamp)),
        ("incremental", lambda: update_histogram(
            base, data.positions, moved)),
        ("parallel/plain", lambda: parallel_sdh(
            data, spec=sweep, workers=2)),
        ("parallel/custom", lambda: parallel_sdh(
            data, spec=_custom(diag), policy=clamp, workers=2)),
        ("parallel/periodic", lambda: parallel_sdh(
            data, spec=periodic, periodic=True, workers=2)),
    ]


def main() -> int:
    digests = {}
    for dim in (2, 3):
        for name, run in cases(dim):
            digests[f"{dim}d/{name}"] = _digest(run())
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
