"""Which library entry points a traced run wraps, and the metrics of their spans.

The layers are this repository's modules on the request path:

* ``service`` -- ``repro.service``: server, result cache, plan cache,
  executor;
* ``planner`` -- ``repro.planner``;
* ``core`` -- ``repro.core``: query, engines, grid engine, brute force,
  ADM, heuristics;
* ``quadtree`` -- ``repro.quadtree``: grid pyramid (and node tree);
* ``kernels`` -- ``repro.kernels``: CSR expansion, numpy backend;
* ``observability`` -- the cost of the tracing itself.

Each name is wrapped where its caller looks it up: ``expand_products``
and ``brute_force_sdh`` are imported by name into the engine modules,
so they are rebound there; ``plan_request`` is looked up on the
``repro.planner`` package at call time.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

from tracer import Span, Tracer, self_times

#: numpy-backend kernels that compute and bin distances.
BIN_FUNCTIONS = (
    "bin_gathered_pairs",
    "bin_dense_self",
    "bin_dense_cross",
    "bin_gathered_pairs_weighted",
    "bin_dense_self_weighted",
    "bin_dense_cross_weighted",
)

def bytes_per_pair(dim: int) -> int:
    """Bytes computed (not measured) per binned distance: two int64
    indices, two ``dim``-vector float64 gathers, one int64 bucket index."""
    return 8 * 2 + 8 * dim * 2 + 8


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation); 0.0 when empty."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1])


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _note_stats(span: Span, args, kwargs, result) -> None:
    stats = kwargs.get("stats")
    if stats is not None:
        span.attrs["levels"] = stats.levels_visited


def _note_plan(span: Span, args, kwargs, plan) -> None:
    span.attrs["predicted_s"] = plan.chosen.estimate.seconds


def _note_pairs(span: Span, args, kwargs, result) -> None:
    span.attrs.update(pairs=int(result[1]), dim=int(args[0].shape[1]))


def _allocators(base) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not base and "allocate" in vars(cls):
            found.append(cls)
    return found


def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer entry point on the library's request path."""
    # ``repro.core`` re-exports a function named ``dm_sdh_grid`` that
    # shadows the submodule of the same name, so fetch the module itself.
    grid_engine = importlib.import_module("repro.core.dm_sdh_grid")
    import repro.core.heuristics as heuristics
    import repro.core.query as query
    import repro.kernels.numpy_backend as numpy_backend
    import repro.planner as planner
    from repro.quadtree.grid import GridPyramid
    from repro.quadtree.tree import DensityMapTree

    tracer.wrap(query, "compute_sdh", "core.compute_sdh")
    tracer.wrap(query.SDHQuery, "run", "core.plan_run", on_result=_note_stats)
    tracer.wrap(query, "brute_force_sdh", "core.brute")
    for cls in _allocators(heuristics.Allocator):
        tracer.wrap(cls, "allocate", "core.allocate")
    tracer.wrap(planner, "plan_request", "planner.plan", on_result=_note_plan)
    tracer.wrap(GridPyramid, "__init__", "quadtree.build")
    tracer.wrap(DensityMapTree, "__init__", "quadtree.build")
    tracer.wrap_generator(grid_engine, "expand_products", "kernels.expand")
    for name in BIN_FUNCTIONS:
        tracer.wrap(numpy_backend, name, "kernels.bin", on_result=_note_pairs)
    if service:
        _install_service(tracer)


def _install_service(tracer: Tracer) -> None:
    from repro.core.request import SDHRequest
    from repro.service.cache import PlanCache
    from repro.service.executor import QueryExecutor
    from repro.service.server import _Handler

    def request_id(args) -> str | None:
        return args[0].headers.get("X-Trace-Id")

    tracer.wrap(_Handler, "do_GET", "service.request", req_of=request_id)
    tracer.wrap(_Handler, "do_POST", "service.request", req_of=request_id)
    tracer.wrap(SDHRequest, "from_dict", "service.parse")
    tracer.wrap(PlanCache, "get_or_build", "service.plan_cache")

    submit = QueryExecutor.submit

    def traced_submit(self, fn, *args, timeout=..., **kwargs):
        def timed(*a, **k):
            span, token = tracer.begin("service.exec")
            try:
                return fn(*a, **k)
            finally:
                tracer.end(span, token)

        # The executor copies the caller's context onto its worker
        # thread, so the exec span becomes a child of this submit span.
        span, token = tracer.begin("service.submit")
        try:
            return submit(self, timed, *args, timeout=timeout, **kwargs)
        finally:
            tracer.end(span, token)

    tracer.install(QueryExecutor, "submit", traced_submit)


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------
def span_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer times and counts of the traced periods, divided by
    ``passes``: the number of traced library passes, or 1 for the
    service, whose figures are totals over its traced windows."""
    selfs = self_times(spans)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        self_total[s.name] += selfs[s.sid]
        calls[s.name] += 1
    bins = [s for s in spans if s.name == "kernels.bin"]
    pairs = sum(s.attrs["pairs"] for s in bins)
    computed = sum(s.attrs["pairs"] * bytes_per_pair(s.attrs["dim"]) for s in bins)
    bin_s = self_total["kernels.bin"]
    return {
        "planner.plan_ms": median(
            s.duration * 1e3 for s in spans if s.name == "planner.plan"
        ),
        "planner.cost_ratio": median(_cost_ratios(spans)),
        "core.self_s": (self_total["core.compute_sdh"] + self_total["core.plan_run"])
        / passes,
        "core.brute_s": self_total["core.brute"] / passes,
        "core.allocate_s": self_total["core.allocate"] / passes,
        "quadtree.build_s": self_total["quadtree.build"] / passes,
        "quadtree.builds": calls["quadtree.build"] / passes,
        "kernels.expand_s": self_total["kernels.expand"] / passes,
        "kernels.bin_s": bin_s / passes,
        "kernels.pairs": pairs / passes,
        "kernels.pairs_per_s": pairs / bin_s if bin_s > 0 else 0.0,
        "kernels.bytes_computed": computed / passes,
    }


def derive_rates(metrics: dict) -> None:
    """Fill in the core ratios from the totals they are made of."""
    calls = metrics["core.resolve_calls"]
    metrics["core.resolve_rate"] = metrics["core.resolved_pairs"] / calls if calls else 0.0
    self_s = metrics["core.self_s"]
    metrics["core.cell_pairs_per_s"] = calls / self_s if self_s > 0 else 0.0


def _cost_ratios(spans: list[Span]) -> list[float]:
    """Actual over predicted seconds for each planned query.

    The actual time of a plan is the run that follows it: the matching
    ``SDHQuery.run`` of the same request in the service, or the rest of
    the ``compute_sdh`` call in the library.
    """
    by_req: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_req[s.req].append(s)
    ratios = []
    for group in by_req.values():
        group.sort(key=lambda s: s.start)
        plans = [s for s in group if s.name == "planner.plan"]
        runs = [s for s in group if s.name == "core.plan_run"]
        roots = [s for s in group if s.parent == 0]
        if runs and len(runs) == len(plans):
            actual = [r.duration for r in runs]
        elif not runs and roots and roots[0].name == "core.compute_sdh":
            actual = [roots[0].end - p.end for p in plans]
        else:
            continue
        for plan, seconds in zip(plans, actual):
            if plan.attrs.get("predicted_s", 0.0) > 0:
                ratios.append(seconds / plan.attrs["predicted_s"])
    return ratios


def choice_counts(prometheus_text: str) -> dict[str, float]:
    """``planner_decisions_total`` per engine from a metrics exposition."""
    counts: dict[str, float] = defaultdict(float)
    for line in prometheus_text.splitlines():
        if line.startswith("planner_decisions_total{"):
            labels, value = line.rsplit(" ", 1)
            engine = labels.split('engine="', 1)[1].split('"', 1)[0]
            counts[engine] += float(value)
    return dict(counts)


def choice_metrics(before: dict, after: dict) -> dict[str, float]:
    return {
        f"planner.choice.{engine}": after.get(engine, 0.0) - before.get(engine, 0.0)
        for engine in ("grid", "brute", "parallel")
    }
