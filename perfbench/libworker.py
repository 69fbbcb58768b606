"""Library workload worker: one fresh process per measured run.

    python3 perfbench/libworker.py probe
    python3 perfbench/libworker.py run PLAN.json RESULT.json

Both modes import the library and load the planner calibration, then
print ``ready``; the parent times process start to that line as one
set-up sample.  ``probe`` exits there.  ``run`` loads the inputs named
in PLAN.json, runs one untimed warm-up pass over its rows, then whole
passes until the time budget is spent, checking every histogram.  With
tracing on, every second pass runs with every layer entry point wrapped.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def check(row: dict, counts, reference) -> str | None:
    """Why one histogram is wrong, or None."""
    import numpy as np

    total = float(counts.sum())
    if row["error_bound"] is None:
        if total != row["num_pairs"]:
            return f"total {total:.0f} != N(N-1)/2 = {row['num_pairs']}"
        if not np.array_equal(counts, reference):
            return "differs from the brute-force reference"
        return None
    if abs(total - row["num_pairs"]) > 1e-6 * row["num_pairs"]:
        return f"ADM lost pair mass: {total:.6g} of {row['num_pairs']}"
    error = float(np.abs(reference - counts).sum() / reference.sum())
    if error > row["envelope"]:
        return f"ADM error {error:.4f} exceeds the envelope {row['envelope']:.4f}"
    return None


def run(plan: dict) -> dict:
    import numpy as np

    import repro.core.query as query
    from repro.core.instrumentation import SDHStats
    from repro.core.request import SDHRequest
    from repro.data.io import load_particles
    from repro.errors import ReproError
    from repro.observability import get_registry

    import layers
    from tracer import Tracer, self_sum_errors

    rows = plan["rows"]
    loaded = {}
    for row in rows:
        if row["path"] not in loaded:
            loaded[row["path"]] = load_particles(row["path"])
    references = [np.load(row["reference"]) for row in rows]
    requests = [
        SDHRequest(num_buckets=row["num_buckets"], error_bound=row["error_bound"])
        for row in rows
    ]
    failures: list[str] = []
    passes: list[dict] = []
    tracer = Tracer() if plan["trace"] else None

    def one_pass(traced: bool, warmup: bool = False) -> None:
        if traced:
            layers.install(tracer)
        try:
            measure_pass(traced, warmup)
        finally:
            if traced:
                tracer.uninstall()

    def measure_pass(traced: bool, warmup: bool) -> None:
        before = layers.choice_counts(get_registry().render())
        times = []
        counts = dict.fromkeys(
            ("core.resolve_calls", "core.resolved_pairs", "core.levels_visited",
             "core.distance_computations"), 0
        )
        for row, request, reference in zip(rows, requests, references):
            stats = SDHStats()
            started = time.perf_counter()
            try:
                hist = query.compute_sdh(
                    loaded[row["path"]], request, stats=stats, rng=row["rng"]
                )
            except ReproError as exc:
                times.append(time.perf_counter() - started)
                failures.append(f"{row['label']}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - started)
            problem = check(row, hist.counts, reference)
            if problem is not None:
                failures.append(f"{row['label']}: {problem}")
            counts["core.resolve_calls"] += stats.total_resolve_calls
            counts["core.resolved_pairs"] += stats.total_resolved_pairs
            counts["core.levels_visited"] += stats.levels_visited
            counts["core.distance_computations"] += stats.distance_computations
        after = layers.choice_counts(get_registry().render())
        counts.update(layers.choice_metrics(before, after))
        passes.append(
            {"traced": traced, "warmup": warmup, "times": times, "counts": counts}
        )

    # One untimed pass first, so lazy imports, first-touch page faults
    # and allocator growth are paid before timing starts.
    one_pass(False, warmup=True)
    # Whole passes while another one fits in the time budget.  With
    # tracing on, traced and untraced passes alternate, so a drift in
    # host speed does not read as tracing overhead.
    end = time.perf_counter() + plan["seconds"]
    least = 3 if plan["trace"] else 1
    while len(passes) <= least or time.perf_counter() + sum(passes[-1]["times"]) <= end:
        one_pass(bool(plan["trace"]) and len(passes) % 2 == 0)
    result = {"passes": passes, "failures": failures}
    if plan["trace"]:
        tracer.dump(plan["spans"])
        traced = sum(p["traced"] for p in passes)
        result["span_metrics"] = layers.span_metrics(tracer.spans, traced)
        result["self_sum_max_error"] = max(self_sum_errors(tracer.spans), default=0.0)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv: list[str]) -> int:
    import repro.core.query  # noqa: F401  (the timed entry point)
    from repro.planner import get_calibration

    calibration = get_calibration()
    print("ready", flush=True)
    if argv[1] == "probe":
        return 0
    with open(argv[2], encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run(plan)
    result["calibrated"] = calibration.calibrated
    result["planner_cpu_count"] = calibration.cpu_count
    with open(argv[3], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
