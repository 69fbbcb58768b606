"""Workload rows, the inputs they are made from, and reference answers.

Inputs come from ``repro.bench.workloads.make_dataset`` with a seed
derived from the benchmark's ``--seed``; the program only receives the
generated particles, saved as ``.npz`` files under the output
directory.  Exact references are brute-force histograms, computed
outside every timed region and cached next to their dataset, so a
repeated seed reuses them.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

FAMILIES = ("uniform", "zipf", "membrane")
#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Row:
    """One query of a library workload pass."""

    family: str
    dim: int
    n: int
    num_buckets: int
    error_bound: float | None = None

    @property
    def label(self) -> str:
        text = f"{self.family}-{self.dim}d-n{self.n}-l{self.num_buckets}"
        if self.error_bound is not None:
            text += f"-eps{self.error_bound:g}"
        return text


# Fig 8/9 rows.  With the built-in planner constants the small bucket
# counts route to the grid engine and the largest to brute force, so a
# kernel speed-up, a child-expansion rewrite and a routing fix can each
# show here.
EXACT_AUTO = tuple(
    Row(family, 2, 4000, l) for family in FAMILIES for l in (2, 16, 64)
) + tuple(
    Row(family, 3, 3000, l) for family in FAMILIES for l in (2, 4, 8)
)

# ADM-SDH rows.  No distance is ever computed, so all the work is in the
# start frontier, the level loop, child expansion and the allocator.
# Their costs are graded (about 0.2 s to 1.3 s each) so that the median
# query falls between rows of similar cost, not on a jump between two.
APPROX_RESOLVE = (
    Row("uniform", 2, 6000, 4, 0.1),
    Row("uniform", 2, 6000, 8, 0.05),
    Row("zipf", 2, 6000, 4, 0.1),
    Row("zipf", 2, 6000, 8, 0.1),
    Row("zipf", 2, 6000, 16, 0.05),
    Row("membrane", 2, 6000, 4, 0.1),
    Row("membrane", 2, 6000, 8, 0.05),
    Row("zipf", 3, 6000, 4, 0.1),
    Row("zipf", 3, 6000, 8, 0.05),
    Row("membrane", 3, 6000, 4, 0.1),
)

LIBRARY_WORKLOADS = {"exact-auto": EXACT_AUTO, "approx-resolve": APPROX_RESOLVE}


def derived_seed(seed: int, *parts) -> int:
    """A stable 32-bit seed for one input of one benchmark seed."""
    text = "/".join(str(p) for p in (seed, *parts))
    return zlib.crc32(text.encode("utf-8"))


def publish(path: str, write) -> None:
    """Write through a temporary name so readers never see a partial file."""
    root, ext = os.path.splitext(path)
    tmp = f"{root}.tmp{os.getpid()}{ext}"
    write(tmp)
    os.replace(tmp, path)


def dataset_file(
    out: str, seed: int, family: str, dim: int, n: int, tag: str = ""
) -> str:
    """The ``.npz`` input for one dataset, generated on first use."""
    path = os.path.join(out, "inputs", f"{family}-{dim}d-n{n}-s{seed}{tag}.npz")
    if not os.path.exists(path):
        from repro.bench.workloads import make_dataset
        from repro.data.io import save_particles

        os.makedirs(os.path.dirname(path), exist_ok=True)
        particles = make_dataset(
            family, n, dim, seed=derived_seed(seed, family, dim, n, tag)
        )
        publish(path, lambda tmp: save_particles(tmp, particles))
    return path


def brute_force_counts(particles, buckets) -> dict[int, np.ndarray]:
    """Exact histograms for several bucket counts from one distance sweep.

    Every pairwise distance is computed once, by the library's own
    distance sweep, and binned by the standard query's rule
    ``min(floor(d / width), l - 1)``: the brute-force answer every
    exact engine must reproduce bit for bit.
    """
    from repro.core.request import SDHRequest
    from repro.geometry import iter_self_distance_chunks

    widths = {
        l: SDHRequest(num_buckets=l).resolved_spec(particles).width
        for l in buckets
    }
    counts = {l: np.zeros(l, dtype=np.int64) for l in buckets}
    for distances in iter_self_distance_chunks(particles.positions):
        for l, width in widths.items():
            idx = np.minimum((distances / width).astype(np.int64), l - 1)
            counts[l] += np.bincount(idx, minlength=l)
    return {l: c.astype(float) for l, c in counts.items()}


def exact_references(path: str, buckets) -> dict[int, str]:
    """Cached brute-force reference files for one dataset file."""
    refs = {l: f"{os.path.splitext(path)[0]}-l{l}.npy" for l in buckets}
    missing = [l for l, ref in refs.items() if not os.path.exists(ref)]
    if missing:
        from repro.data.io import load_particles

        computed = brute_force_counts(load_particles(path), missing)
        for l in missing:
            publish(refs[l], lambda tmp, l=l: np.save(tmp, computed[l]))
    return refs


def adm_envelope(out: str, path: str, num_buckets: int, error_bound: float) -> float:
    """The Sec. V error envelope the verify harness applies to heuristic 3.

    The model is evaluated at the number of maps the query can actually
    visit below its start map (the pyramid may end before the Table III
    level ``m``); envelopes are cached by (l, levels, dim).
    """
    from repro.core.approximate import levels_for_error
    from repro.core.error_model import predict_error
    from repro.core.request import SDHRequest
    from repro.data.io import load_particles
    from repro.quadtree.grid import GridPyramid
    from repro.verify.differential import ADM_MODEL_FLOOR, ADM_MODEL_SLACK

    particles = load_particles(path)
    pyramid = GridPyramid(particles)
    first = float(SDHRequest(num_buckets=num_buckets).resolved_spec(particles).edges[1])
    start = pyramid.start_level_for(first)
    start = pyramid.leaf_level if start is None else start
    levels = min(
        levels_for_error(error_bound, num_buckets, particles.dim),
        pyramid.leaf_level - start,
    )
    cache_path = os.path.join(out, "envelopes.json")
    cache = {}
    if os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8") as handle:
            cache = json.load(handle)
    key = f"{num_buckets}/{levels}/{particles.dim}"
    if key not in cache:
        predicted = predict_error(
            3, m=max(levels, 1), num_buckets=num_buckets, dim=particles.dim
        ).total
        cache[key] = ADM_MODEL_SLACK * predicted + ADM_MODEL_FLOOR

        def write(tmp):
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(cache, handle)

        publish(cache_path, write)
    return cache[key]


def library_plan(out: str, seed: int, workload: str) -> list[dict]:
    """The worker's rows: input files, references and checks for one seed."""
    rows = LIBRARY_WORKLOADS[workload]
    paths = [dataset_file(out, seed, r.family, r.dim, r.n) for r in rows]
    buckets: dict[str, set[int]] = {}
    for row, path in zip(rows, paths):
        buckets.setdefault(path, set()).add(row.num_buckets)
    refs = {path: exact_references(path, sorted(ls)) for path, ls in buckets.items()}
    plan = []
    for index, (row, path) in enumerate(zip(rows, paths)):
        entry = {
            "label": row.label,
            "path": path,
            "num_buckets": row.num_buckets,
            "error_bound": row.error_bound,
            "num_pairs": row.n * (row.n - 1) // 2,
            "reference": refs[path][row.num_buckets],
            "rng": derived_seed(seed, "rng", index),
        }
        if row.error_bound is not None:
            entry["envelope"] = adm_envelope(out, path, row.num_buckets, row.error_bound)
        plan.append(entry)
    return plan
