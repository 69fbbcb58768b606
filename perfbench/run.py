#!/usr/bin/env python3
"""The repository benchmark: SDH queries end to end and layer by layer.

    python3 perfbench/run.py --workload exact-auto --seed 1 --seconds 10 --trace 0

Workloads (why each exists is in BENCHMARK.json):

* ``exact-auto`` -- sequential library ``compute_sdh`` calls with
  ``engine="auto"`` over fixed Fig 8/9 rows, in a fresh worker process;
* ``approx-resolve`` -- the same loop, every query ADM-SDH;
* ``service-mixed`` -- the HTTP service in its own process, driven by
  two closed-loop client threads (see ``service.py``).

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced periods with periods in which every
layer entry point is wrapped (``layers.py``), and reports the
per-layer metrics, including the tracing overhead; a layer the
workload does not reach reads 0.  The program's planner is pinned to
its built-in cost constants.  Every answer is checked; the run prints
its metrics with units, then one JSON line, and exits nonzero when a
check failed.  Inputs, cached references, spans and per-run records go
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("exact-auto", "approx-resolve", "service-mixed")


def metric_table(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


def pin_environment() -> None:
    """Point child processes at this checkout and pin the planner.

    The calibration path holds no file, so every run prices with the
    built-in cost constants instead of a per-host calibration.
    """
    calibration = os.path.join(OUT, "no-calibration", "calibration.json")
    if os.path.exists(calibration):
        os.remove(calibration)
    os.environ["REPRO_SDH_CALIBRATION"] = calibration
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, SRC)


def host_info() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_worker(args: list[str], timeout: float) -> float:
    """Run ``libworker.py``; returns seconds from its start to ``ready``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "libworker.py"), *args],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"library worker {args[0]} failed ({proc.returncode})")
    return ready


def run_library(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import median, percentile
    from workloads import SETUP_SAMPLES, library_plan

    rows = library_plan(OUT, seed, workload)
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = os.path.join(runs, f"{workload}-s{seed}-t{int(trace)}")
    plan_path, result_path = f"{tag}-plan.json", f"{tag}-result.json"
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows, "seconds": seconds, "trace": trace,
                   "spans": f"{tag}-spans.jsonl"}, handle)
    setup = [run_worker(["probe"], 120) for _ in range(0 if trace else SETUP_SAMPLES - 1)]
    setup.append(run_worker(["run", plan_path, result_path], seconds + 600))
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    passes = result["passes"]
    timed = [p for p in passes if not p["warmup"]]
    untraced = [p for p in timed if not p["traced"]]
    per_row = [median(p["times"][i] for p in untraced) for i in range(len(rows))]
    samples = [t for p in untraced for t in p["times"]]
    metrics = {
        "setup_s": median(setup),
        "query_p50_s": median(per_row),
        "pairs_per_s": sum(r["num_pairs"] for r in rows) * len(untraced) / sum(samples),
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": median(samples) * 1e3,
        "op_p95_ms": percentile(samples, 95) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    counts = passes[0]["counts"]
    problems = [
        f"pass {i} counted {p['counts']}, pass 0 counted {counts}"
        for i, p in enumerate(passes) if p["counts"] != counts
    ]
    if result["calibrated"]:
        problems.append("the planner loaded a calibration")
    exact_counts = dict(counts)
    if trace:
        traced = [p for p in timed if p["traced"]]
        metrics.update(result["span_metrics"])
        metrics.update(counts)
        metrics["observability.trace_overhead_pct"] = (
            median(sum(p["times"]) for p in traced)
            / median(sum(p["times"]) for p in untraced) - 1.0
        ) * 100.0
        if result["self_sum_max_error"] > 1e-6:
            problems.append(
                f"self times miss their root span by {result['self_sum_max_error']:.3g} s"
            )
        exact_counts["kernels.pairs"] = metrics["kernels.pairs"]
    return {
        "metrics": metrics,
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": len(result["failures"]),
        "failures": result["failures"],
        "problems": problems,
        "calibrated": result["calibrated"],
        "exact_counts": exact_counts,
        "spread_counts": {},
    }


def compare_counts(workload: str, seed: int, report: dict) -> dict:
    """Check exact counts against earlier runs of this seed; track spreads.

    Library counts (SDHStats totals, kernel pairs, planner choices) must
    repeat exactly for the same code and seed, so the history is keyed
    by a hash of the library and benchmark sources.  The service's cache
    counters may not repeat, because two concurrent clients can turn a
    miss into a coalesce; their range over the runs is reported instead.
    """
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "repro"), HERE):
        for base, dirs, files in sorted(os.walk(folder)):
            dirs.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(handle.read())
    path = os.path.join(
        OUT, "counts", f"{workload}-s{seed}-{digest.hexdigest()[:12]}.json"
    )
    history = {"exact": {}, "spread": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            history = json.load(handle)
    for key, value in report["exact_counts"].items():
        earlier = history["exact"].setdefault(key, value)
        if earlier != value:
            report["problems"].append(
                f"{key} was {earlier} in an earlier run of seed {seed}, now {value}"
            )
    if report["spread_counts"]:
        history["spread"].append(report["spread_counts"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle)
    return {
        key: [min(h[key] for h in history["spread"]), max(h[key] for h in history["spread"])]
        for key in report["spread_counts"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    pin_environment()
    import layers

    trace = bool(args.trace)
    if args.workload == "service-mixed":
        import service

        report = service.run(OUT, args.seed, args.seconds, trace)
    else:
        report = run_library(args.workload, args.seed, args.seconds, trace)
    spreads = compare_counts(args.workload, args.seed, report)
    if trace:
        layers.derive_rates(report["metrics"])
        metrics = {
            name: {"value": float(report["metrics"].get(name, 0.0)), "unit": unit}
            for name, unit in metric_table("per_layer")
        }
    else:
        metrics = {
            name: {"value": float(report["metrics"][name]), "unit": unit}
            for name, unit in metric_table("end_to_end")
        }
    correct = report["failed"] == 0 and not report["problems"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "calibrated": report["calibrated"],
        "host": host_info(), "exact_counts": report["exact_counts"],
        "counter_spread": spreads, "failures": report["failures"][:50],
        "problems": report["problems"], "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = os.path.join(
        OUT, "results", f"{args.workload}-s{args.seed}-t{args.trace}.json"
    )
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(info, handle, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"calibrated={str(report['calibrated']).lower()} host={info['host']}")
    if spreads:
        print(f"counter range over runs of this seed: {spreads}")
    heads = [f"{name}[{m['unit']}]" for name, m in metrics.items()]
    print(" | ".join(["workload"] + heads))
    print(" | ".join([args.workload] + [
        f"{m['value']:.6g}".rjust(len(head)) for head, m in zip(heads, metrics.values())
    ]))
    for line in report["failures"][:20] + report["problems"]:
        print(f"CHECK FAILED: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
