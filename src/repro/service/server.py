"""JSON-over-HTTP SDH query server (stdlib ``http.server`` only).

Endpoints:

* ``POST /v1/datasets`` — register a dataset, either inline (JSON
  coordinate rows) or from a server-local ``.npz``/``.xyz`` file.  The
  returned dataset id is the content fingerprint; an optional ``name``
  registers a human-friendly alias.
* ``POST /v1/sdh`` — compute a distance histogram against a registered
  dataset.  The body is parsed once into a
  :class:`~repro.core.request.SDHRequest`; the plan cache guarantees
  the density-map pyramid is built once per dataset no matter how many
  queries arrive.  A ``weights`` list runs a weighted (per-particle
  mass) query, and ``dataset_b`` (a second registered dataset id or
  alias) runs a two-dataset cross-set query; cross results are cached
  under both content fingerprints and echo ``dataset_b`` (resolved to
  its fingerprint) in the response.  ``engine="auto"`` queries are routed by the
  cost-based planner (:mod:`repro.planner`); the chosen strategy and
  the ranked candidates are echoed back in a ``plan`` response block,
  and an infeasible ``latency_budget_ms`` is rejected with HTTP 422
  (:class:`~repro.errors.SLOInfeasibleError`).
* ``POST /v1/sdh/batch`` — answer a list of bucket specs against one
  dataset, amortizing a single pyramid across all of them.  Per-item
  failures come back as ``{"error": ...}`` entries instead of failing
  the whole batch.
* ``POST /v1/rdf`` — compute g(r) (an SDH normalized per the paper's
  Eq. 1).
* ``GET /v1/stats`` — cache, executor, per-engine operation counters,
  and the dataset registry.
* ``GET /metrics`` — the same counters (plus the library's phase-span
  histograms and per-level resolve counters) in the Prometheus text
  exposition format; see ``docs/OBSERVABILITY.md``.
* ``GET /healthz`` — liveness probe.

Every request is tagged with a trace ID — the client's ``X-Trace-Id``
header when present, a fresh one otherwise — echoed in the response's
``X-Trace-Id`` header and stamped on every log record the request
produces, including spans recorded on executor worker threads.

Errors travel as a JSON envelope ``{"error": {"type", "message"}}``
with the HTTP status drawn from the :class:`~repro.errors.ServiceError`
taxonomy (library errors such as :class:`~repro.errors.QueryError` map
to 400), so :class:`~repro.service.client.SDHClient` can re-raise the
original exception type with its message intact.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import numpy as np

from ..core.instrumentation import SDHStats
from ..core.query import compute_sdh, resolve_engine_name, route_request
from ..core.request import SDHRequest
from ..data.io import load_particles, load_xyz
from ..data.particles import ParticleSet
from ..errors import (
    DatasetNotFound,
    ReproError,
    ServiceError,
)
from ..geometry import AABB
from ..observability import (
    MetricSample,
    MetricsRegistry,
    bind_trace_id,
    current_trace_id,
    get_logger,
    get_registry,
    log_event,
)
from ..physics.rdf import rdf_from_histogram
from .cache import PlanCache
from .executor import QueryExecutor
from .results import ResultCache, result_cache_key

__all__ = ["SDHService", "ServiceConfig"]

#: Largest accepted request body (inline uploads of ~1M 3D particles).
_MAX_BODY_BYTES = 256 * 1024 * 1024

#: Level of per-request access-log events.
_ACCESS_LEVEL = logging.INFO


def _sample(name: str, kind: str, help: str, value: float) -> MetricSample:
    """One unlabelled scrape-time sample."""
    return MetricSample(name, kind, help, [(None, float(value))])


class _BadRequest(ServiceError):
    """A request the protocol layer could not even hand to the library:
    malformed JSON, unknown fields, missing required keys.  Maps to 400
    (library-level :class:`ReproError` subclasses also map to 400, but
    keep their own exception type in the envelope)."""

    http_status = 400


@dataclass
class ServiceConfig:
    """Capacity-tuning knobs of one server instance.

    See ``docs/SERVICE.md`` for guidance on sizing these against the
    expected dataset sizes and query mix.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it back from .address
    cache_capacity: int = 8
    max_workers: int = 4
    max_queue: int = 16
    timeout: float | None = 30.0
    #: Finished responses kept in the result cache (LRU); 0 disables
    #: storage but keeps request coalescing.  See docs/SERVICE.md.
    result_cache_capacity: int = 256
    #: Seconds a cached result stays servable; None = no expiry.
    result_ttl: float | None = None


@dataclass
class _EngineAggregate:
    """Accumulated :class:`SDHStats` for one engine kind."""

    queries: int = 0
    distance_computations: int = 0
    resolve_calls: int = 0
    resolved_pairs: int = 0
    approximated_distances: float = 0.0

    def absorb(self, stats: SDHStats) -> None:
        self.queries += 1
        self.distance_computations += stats.distance_computations
        self.resolve_calls += stats.total_resolve_calls
        self.resolved_pairs += stats.total_resolved_pairs
        self.approximated_distances += stats.approximated_distances

    def snapshot(self) -> dict:
        return {
            "queries": self.queries,
            "distance_computations": self.distance_computations,
            "resolve_calls": self.resolve_calls,
            "resolved_pairs": self.resolved_pairs,
            "approximated_distances": self.approximated_distances,
        }


@dataclass
class _ServiceState:
    """Everything the request handlers share, with its own locking."""

    config: ServiceConfig
    cache: PlanCache = field(init=False)
    executor: QueryExecutor = field(init=False)
    results: ResultCache = field(init=False)

    def __post_init__(self) -> None:
        self.results = ResultCache(
            capacity=self.config.result_cache_capacity,
            ttl=self.config.result_ttl,
        )
        # Evicting a dataset's pyramid drops its cached results too:
        # the pyramid is gone, so re-serving histograms derived from it
        # while a rebuild would be needed misrepresents server state.
        self.cache = PlanCache(
            capacity=self.config.cache_capacity,
            on_evict=self.results.invalidate_dataset,
        )
        self.executor = QueryExecutor(
            max_workers=self.config.max_workers,
            max_queue=self.config.max_queue,
            default_timeout=self.config.timeout,
        )
        self._lock = threading.Lock()
        self._datasets: dict[str, ParticleSet] = {}
        self._aliases: dict[str, str] = {}
        self._engines: dict[str, _EngineAggregate] = {}
        self._requests: dict[str, int] = {}
        self._started = time.monotonic()
        self.metrics = get_registry()
        self.http_seconds = self.metrics.histogram(
            "sdh_http_request_seconds",
            "HTTP request latency by route.",
            ("route",),
        )
        self.http_requests = self.metrics.counter(
            "sdh_http_requests_total",
            "HTTP requests served, by route and status code.",
            ("route", "status"),
        )

    # -- dataset registry ----------------------------------------------
    def register(self, particles: ParticleSet, name: str | None) -> str:
        key = particles.fingerprint()
        with self._lock:
            previous = self._aliases.get(name) if name is not None else None
            self._datasets[key] = particles
            if name is not None:
                self._aliases[name] = key
        # (Re-)registration invalidates cached results for the dataset —
        # and for whatever dataset the alias used to point at.  Keys are
        # content fingerprints, so this is conservative staleness
        # policy, not correctness (identical content hashes identically).
        self.results.invalidate_dataset(key)
        if previous is not None and previous != key:
            self.results.invalidate_dataset(previous)
        return key

    def resolve_dataset(self, ref: str) -> ParticleSet:
        with self._lock:
            key = self._aliases.get(ref, ref)
            particles = self._datasets.get(key)
        if particles is None:
            raise DatasetNotFound(
                f"dataset {ref!r} is not registered; "
                "POST it to /v1/datasets first"
            )
        return particles

    # -- accounting ----------------------------------------------------
    def count_request(self, route: str) -> None:
        with self._lock:
            self._requests[route] = self._requests.get(route, 0) + 1

    def absorb_stats(self, engine: str, stats: SDHStats) -> None:
        with self._lock:
            agg = self._engines.get(engine)
            if agg is None:
                agg = self._engines[engine] = _EngineAggregate()
            agg.absorb(stats)

    def stats_body(self) -> dict:
        with self._lock:
            datasets = {
                key: {
                    "num_particles": p.size,
                    "dim": p.dim,
                    "aliases": [
                        a for a, k in self._aliases.items() if k == key
                    ],
                }
                for key, p in self._datasets.items()
            }
            engines = {
                name: agg.snapshot() for name, agg in self._engines.items()
            }
            requests = dict(self._requests)
            uptime = time.monotonic() - self._started
        return {
            "uptime_seconds": uptime,
            "datasets": datasets,
            "cache": self.cache.snapshot(),
            "results": self.results.snapshot(),
            "executor": self.executor.snapshot(),
            "engines": engines,
            "requests": requests,
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus exposition.

        The library's own instruments (phase spans, per-level resolve
        counters, shared-memory gauges) render from the process
        registry; the cache/executor/engine counters — which keep their
        own stats objects — are folded in at scrape time from locked
        snapshots, so the exposition never double-counts and never
        serves torn values.
        """
        cache = self.cache.snapshot()
        results = self.results.snapshot()
        executor = self.executor.snapshot()
        with self._lock:
            engines = {
                name: agg.snapshot() for name, agg in self._engines.items()
            }
            uptime = time.monotonic() - self._started
        samples = [
            _sample("sdh_uptime_seconds", "gauge",
                    "Seconds since this server started.", uptime),
            _sample("sdh_cache_hits_total", "counter",
                    "Plan-cache lookups served from cache.", cache["hits"]),
            _sample("sdh_cache_misses_total", "counter",
                    "Plan-cache lookups that required a build.",
                    cache["misses"]),
            _sample("sdh_cache_evictions_total", "counter",
                    "Plans evicted from the cache.", cache["evictions"]),
            _sample("sdh_cache_builds_total", "counter",
                    "Density-map pyramid builds.", cache["builds"]),
            _sample("sdh_cache_plans", "gauge",
                    "Plans currently resident in the cache.", cache["size"]),
            _sample("sdh_cache_capacity", "gauge",
                    "Plan-cache capacity.", cache["capacity"]),
            _sample("sdh_result_cache_hits_total", "counter",
                    "Queries served straight from the result cache.",
                    results["hits"]),
            _sample("sdh_result_cache_misses_total", "counter",
                    "Result-cache lookups that ran a computation.",
                    results["misses"]),
            _sample("sdh_result_coalesced_total", "counter",
                    "Queries that shared an identical in-flight "
                    "computation instead of starting their own.",
                    results["coalesced"]),
            _sample("sdh_result_cache_evictions_total", "counter",
                    "Results evicted by the LRU capacity bound.",
                    results["evictions"]),
            _sample("sdh_result_cache_expirations_total", "counter",
                    "Results dropped at lookup because their TTL passed.",
                    results["expirations"]),
            _sample("sdh_result_cache_invalidations_total", "counter",
                    "Results dropped by dataset re-registration or "
                    "plan eviction.", results["invalidations"]),
            _sample("sdh_result_cache_bypassed_total", "counter",
                    "Requests that legitimately skipped the result "
                    "cache (e.g. unseeded approximate queries).",
                    results["bypassed"]),
            _sample("sdh_result_cache_entries", "gauge",
                    "Results currently resident in the cache.",
                    results["size"]),
            _sample("sdh_result_cache_capacity", "gauge",
                    "Result-cache capacity.", results["capacity"]),
            _sample("sdh_executor_submitted_total", "counter",
                    "Queries admitted to the worker pool.",
                    executor["submitted"]),
            _sample("sdh_executor_completed_total", "counter",
                    "Queries that finished successfully.",
                    executor["completed"]),
            _sample("sdh_executor_rejected_total", "counter",
                    "Queries rejected by admission control (503).",
                    executor["rejected"]),
            _sample("sdh_executor_timeouts_total", "counter",
                    "Queries that exceeded the server time budget (504).",
                    executor["timeouts"]),
            _sample("sdh_executor_failures_total", "counter",
                    "Queries that raised.", executor["failures"]),
            _sample("sdh_executor_late_completions_total", "counter",
                    "Abandoned (timed-out) queries that later finished.",
                    executor["late_completions"]),
            _sample("sdh_executor_late_failures_total", "counter",
                    "Abandoned (timed-out) queries that later raised.",
                    executor["late_failures"]),
            _sample("sdh_executor_in_flight", "gauge",
                    "Queries currently running or queued.",
                    executor["in_flight"]),
        ]
        if engines:
            samples.append(
                MetricSample(
                    "sdh_service_queries_total", "counter",
                    "Queries answered, by engine aggregate.",
                    [({"engine": name}, agg["queries"])
                     for name, agg in engines.items()],
                )
            )
        scratch = MetricsRegistry()
        scratch.add_collector(lambda: samples)
        return self.metrics.render() + scratch.render()


#: Bounded route labels for the latency/request metrics (unknown paths
#: collapse into "other" so clients cannot explode label cardinality).
_ROUTE_LABELS = {
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
    ("GET", "/v1/stats"): "stats",
    ("POST", "/v1/datasets"): "datasets",
    ("POST", "/v1/sdh"): "sdh",
    ("POST", "/v1/sdh/batch"): "sdh_batch",
    ("POST", "/v1/rdf"): "rdf",
}

_access_log = get_logger("service.access")


class _Handler(BaseHTTPRequestHandler):
    """One request; all state lives on ``server.state``."""

    server_version = "repro-sdh"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection: a response never sits in
    # the kernel waiting for the client to ACK the previous segment.
    disable_nagle_algorithm = True

    @property
    def state(self) -> _ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._traced(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._traced(self._route_post)

    def _traced(self, route_fn: Any) -> None:
        """Bind a trace ID, time the request, record metrics + access log.

        The trace ID comes from the client's ``X-Trace-Id`` header when
        present (so callers can correlate with their own systems) and is
        generated otherwise; either way every response echoes it and
        every log record emitted while handling the request — including
        on executor worker threads — carries it.
        """
        incoming = (self.headers.get("X-Trace-Id") or "").strip() or None
        started = time.perf_counter()
        self._status = 500
        route = _ROUTE_LABELS.get((self.command, self.path), "other")
        with bind_trace_id(incoming) as trace_id:
            try:
                route_fn()
            except Exception as exc:
                self._send_exception(exc)
            seconds = time.perf_counter() - started
            state = self.state
            state.http_seconds.labels(route=route).observe(seconds)
            state.http_requests.labels(
                route=route, status=self._status
            ).inc()
            if _access_log.isEnabledFor(_ACCESS_LEVEL):
                log_event(
                    _access_log, _ACCESS_LEVEL, "http_request",
                    method=self.command, path=self.path, route=route,
                    status=self._status,
                    duration_seconds=round(seconds, 9),
                    trace_id=trace_id,
                )

    def _route_get(self) -> None:
        if self.path == "/healthz":
            self._send(200, {"status": "ok"})
        elif self.path == "/metrics":
            self.state.count_request("metrics")
            self._send_text(200, self.state.metrics_text())
        elif self.path == "/v1/stats":
            self.state.count_request("stats")
            self._send(200, self.state.stats_body())
        else:
            self._send_error_body(
                404, "ServiceError", f"no such route: GET {self.path}"
            )

    def _route_post(self) -> None:
        body = self._read_json()
        if self.path == "/v1/datasets":
            self.state.count_request("datasets")
            self._send(200, _handle_register(self.state, body))
        elif self.path == "/v1/sdh":
            self.state.count_request("sdh")
            self._send(200, _handle_sdh(self.state, body))
        elif self.path == "/v1/sdh/batch":
            self.state.count_request("sdh_batch")
            self._send(200, _handle_batch(self.state, body))
        elif self.path == "/v1/rdf":
            self.state.count_request("rdf")
            self._send(200, _handle_rdf(self.state, body))
        else:
            self._send_error_body(
                404, "ServiceError", f"no such route: POST {self.path}"
            )

    # -- plumbing ------------------------------------------------------
    def _read_json(self) -> dict:
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if not 0 < length <= _MAX_BODY_BYTES:
            # A body left unread would be parsed as the next request on
            # this keep-alive connection: answer, then hang up.
            self.close_connection = True
            if length < 0:
                raise _BadRequest(
                    f"malformed Content-Length header {declared!r}"
                )
            if length == 0:
                raise _BadRequest("request body required")
            raise _BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    def _send(self, status: int, payload: dict) -> None:
        self._send_bytes(
            status, json.dumps(payload).encode("utf-8"), "application/json"
        )

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(
            status, text.encode("utf-8"), "text/plain; charset=utf-8"
        )

    def _send_bytes(
        self, status: int, data: bytes, content_type: str
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        trace_id = current_trace_id()
        if trace_id:
            self.send_header("X-Trace-Id", trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        # Status line, headers and body leave in one write.  Written as
        # two (end_headers(), then the body) under Nagle, the body waits
        # for the client's delayed ACK of the headers: ~40 ms on every
        # keep-alive response.
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.extend((b"\r\n", data))
            self.flush_headers()
        else:  # HTTP/0.9 has no status line or headers: the body alone
            self.wfile.write(data)

    def _send_exception(self, exc: Exception) -> None:
        if isinstance(exc, ServiceError):
            status = exc.http_status
        elif isinstance(exc, ReproError):
            status = 400  # the request itself was inconsistent
        else:
            status = 500
        # lstrip: module-private classes (_BadRequest) should surface
        # under their public-looking name in the wire envelope.
        self._send_error_body(
            status, type(exc).__name__.lstrip("_"), str(exc)
        )

    def _send_error_body(
        self, status: int, err_type: str, message: str
    ) -> None:
        self._send(status, {"error": {"type": err_type, "message": message}})


# ----------------------------------------------------------------------
# Endpoint implementations (module-level so they are unit-testable
# without a socket).
# ----------------------------------------------------------------------
def _handle_register(state: _ServiceState, body: dict) -> dict:
    name = body.get("name")
    if name is not None and not isinstance(name, str):
        raise _BadRequest("dataset name must be a string")
    if "path" in body:
        particles = _load_path(str(body["path"]))
    elif "positions" in body:
        particles = _particles_from_json(body)
    else:
        raise _BadRequest(
            "register a dataset with either 'path' (server-local "
            ".npz/.xyz file) or inline 'positions'"
        )
    key = state.register(particles, name)
    response = {
        "dataset": key,
        "num_particles": particles.size,
        "dim": particles.dim,
    }
    if name is not None:
        response["name"] = name
    if body.get("build"):
        # Eager warm-up: pay the pyramid build at registration time.
        state.executor.submit(state.cache.get_or_build, particles)
        response["built"] = True
    return response


def _load_path(path: str) -> ParticleSet:
    try:
        if path.endswith(".xyz"):
            return load_xyz(path)
        return load_particles(path)
    except OSError as exc:
        raise _BadRequest(f"cannot load dataset from {path!r}: {exc}")


def _particles_from_json(body: dict) -> ParticleSet:
    positions = np.asarray(body["positions"], dtype=float)
    box = None
    if "box" in body:
        spec = body["box"]
        if (
            not isinstance(spec, dict)
            or "lo" not in spec
            or "hi" not in spec
        ):
            raise _BadRequest("box must be {'lo': [...], 'hi': [...]}")
        box = AABB.from_arrays(
            np.asarray(spec["lo"], dtype=float),
            np.asarray(spec["hi"], dtype=float),
        )
    types = None
    if body.get("types") is not None:
        types = np.asarray(body["types"], dtype=np.int32)
    type_names = None
    if body.get("type_names") is not None:
        type_names = {
            int(code): str(label)
            for code, label in body["type_names"].items()
        }
    return ParticleSet(positions, box, types, type_names)


#: Body keys consumed by the protocol layer, not the query itself.
_PROTOCOL_KEYS = frozenset({"dataset", "timeout", "rng"})

#: Wire-level query fields, straight from the request schema.
_WIRE_FIELDS = SDHRequest.json_field_names()


def _parse_request(body: dict, *, protocol: frozenset = _PROTOCOL_KEYS):
    """Parse one JSON body into an :class:`SDHRequest` plus rng seed.

    Unknown keys are a protocol error (:class:`_BadRequest`, so the
    envelope carries ``ServiceError``); inconsistent-but-recognized
    queries fall through to :meth:`SDHRequest.from_dict`, which raises
    the library's own :class:`~repro.errors.QueryError` so clients can
    re-raise the exact type.
    """
    unknown = set(body) - _WIRE_FIELDS - protocol
    if unknown:
        allowed = sorted(_WIRE_FIELDS | {"rng"})
        raise _BadRequest(
            f"unknown query parameters: {sorted(unknown)}; "
            f"allowed: {allowed}"
        )
    payload = {
        key: body[key]
        for key in _WIRE_FIELDS
        if body.get(key) is not None
    }
    return SDHRequest.from_dict(payload), body.get("rng")


def _engine_label(request: SDHRequest) -> str:
    """Stats-aggregate bucket: approx / parallel / exact."""
    if request.approximate:
        return "approx"
    if resolve_engine_name(request) == "parallel":
        return "parallel"
    return "exact"


def _histogram_body(hist: Any, request: SDHRequest) -> dict:
    return {
        "edges": hist.edges.tolist(),
        "counts": hist.counts.tolist(),
        "total": hist.total,
        "num_buckets": int(hist.counts.size),
        "approximate": request.approximate,
        "engine": resolve_engine_name(request),
    }


#: Extra seconds a coalesced waiter outlasts the leader's server time
#: budget before giving up: the leader enforces the actual budget (and
#: propagates its QueryTimeout to every waiter); the slack only covers
#: scheduling and serialization around it.
_COALESCE_SLACK = 2.0


def _wait_budget(state: _ServiceState, body: dict) -> float | None:
    """How long a coalesced request waits for the in-flight leader."""
    timeout = body.get("timeout", ...)
    if timeout is ...:
        timeout = state.config.timeout
    if timeout is None:
        return None
    return float(timeout) + _COALESCE_SLACK


def _compute_sdh_body(
    state: _ServiceState,
    particles: ParticleSet,
    request: SDHRequest,
    rng: Any,
    timeout: Any,
    b: ParticleSet | None = None,
) -> dict:
    """Route, execute, and account one SDH query; returns the wire body.

    Cross-set queries (``b`` supplied) bypass the plan cache — the
    cached pyramid indexes dataset A alone, while the cross engines
    build a combined (A ∪ B) structure — and run through
    :func:`compute_sdh` directly inside the executor slot.
    """
    # The plan cache amortizes pyramids across queries, so the planner
    # prices index builds as sunk (cache_hot) — except for cross-set
    # queries, whose combined (A ∪ B) pyramid is built per call.
    routed, query_plan = route_request(
        particles, request, cache_hot=b is None, b=b
    )

    def run() -> tuple[Any, SDHStats]:
        stats = SDHStats()
        if b is not None:
            hist = compute_sdh(particles, routed, b=b, stats=stats, rng=rng)
            return hist, stats
        plan = state.cache.get_or_build(particles)
        hist = plan.run(routed, stats=stats, rng=rng)
        return hist, stats

    hist, stats = state.executor.submit(run, timeout=timeout)
    state.absorb_stats(_engine_label(routed), stats)
    response = _histogram_body(hist, routed)
    if query_plan is not None:
        response["plan"] = query_plan.to_dict()
    return response


def _handle_sdh(state: _ServiceState, body: dict) -> dict:
    particles = state.resolve_dataset(_dataset_ref(body))
    request, rng = _parse_request(body)
    fingerprint = particles.fingerprint()
    b = b_fingerprint = None
    key_fp, keyed = fingerprint, request
    if request.dataset_b is not None:
        # Cross-set query: resolve the second operand like the primary
        # one (alias or fingerprint; unknown -> 404 DatasetNotFound).
        # The cache key folds in BOTH content fingerprints — the
        # compound fingerprint slot makes re-registration of either
        # operand invalidate the entry, and rewriting ``dataset_b`` to
        # the resolved fingerprint means an alias re-pointed at new
        # content can never be served a stale body.
        b = state.resolve_dataset(request.dataset_b)
        b_fingerprint = b.fingerprint()
        key_fp = f"{fingerprint}+{b_fingerprint}"
        keyed = request.replace(dataset_b=b_fingerprint)
    key = result_cache_key("sdh", key_fp, keyed, rng)

    def compute() -> dict:
        return _compute_sdh_body(
            state, particles, request, rng, body.get("timeout", ...), b=b
        )

    if key is None:
        # Not a pure function of the request (unseeded sampling): every
        # call is its own computation, never cached, never coalesced.
        state.results.count_bypass()
        cached, outcome = compute(), "bypass"
    else:
        cached, outcome = state.results.fetch(
            key, compute, wait_timeout=_wait_budget(state, body)
        )
    # Shallow copy: the cached body is shared across responses and must
    # never be mutated; the per-response fields ride on the copy.
    response = dict(cached, dataset=fingerprint, result_source=outcome)
    if b_fingerprint is not None:
        response["dataset_b"] = b_fingerprint
    return response


def _handle_batch(state: _ServiceState, body: dict) -> dict:
    """One dataset, many bucket specs: a single pyramid answers all.

    Items are parsed up front; bad ones become per-item error entries
    rather than failing the batch, and every runnable item shares one
    executor slot (one admission-control unit per batch)."""
    particles = state.resolve_dataset(_dataset_ref(body))
    queries = body.get("queries")
    if not isinstance(queries, list) or not queries:
        raise _BadRequest(
            "batch body must carry 'queries': a non-empty list of "
            "query objects"
        )
    fingerprint = particles.fingerprint()
    parsed: list[Any] = []
    for index, item in enumerate(queries):
        if not isinstance(item, dict):
            parsed.append(_BadRequest(f"queries[{index}] must be an object"))
            continue
        try:
            request, rng = _parse_request(
                item, protocol=frozenset({"rng"})
            )
            if request.dataset_b is not None:
                # The batch amortizes ONE pyramid across items; a
                # cross-set item needs a combined (A ∪ B) structure.
                raise _BadRequest(
                    f"queries[{index}] names dataset_b: cross-set "
                    "queries must go to /v1/sdh"
                )
            routed, _ = route_request(particles, request, cache_hot=True)
            key = result_cache_key("sdh", fingerprint, request, rng)
            parsed.append((routed, rng, key))
        except ReproError as exc:
            # Includes per-item SLOInfeasibleError: one infeasible
            # budget must not fail the whole batch.
            parsed.append(exc)

    def run() -> tuple[list[dict], list[tuple[str, SDHStats]]]:
        results: list[dict] = []
        absorbed: list[tuple[str, SDHStats]] = []
        for entry in parsed:
            if isinstance(entry, Exception):
                results.append(_error_entry(entry))
                continue
            request, rng, key = entry
            # Batch items share the result cache with /v1/sdh (same
            # keys), but do not coalesce — the whole batch already runs
            # in one executor slot, so the only stampede it could join
            # is itself.
            if key is not None:
                cached = state.results.get(key)
                if cached is not None:
                    results.append(_batch_entry(cached))
                    continue
            else:
                state.results.count_bypass()
            stats = SDHStats()
            try:
                plan = state.cache.get_or_build(particles)
                hist = plan.run(request, stats=stats, rng=rng)
            except ReproError as exc:
                results.append(_error_entry(exc))
                continue
            absorbed.append((_engine_label(request), stats))
            entry_body = _histogram_body(hist, request)
            if key is not None:
                state.results.put(key, entry_body)
            results.append(entry_body)
        return results, absorbed

    results, absorbed = state.executor.submit(
        run, timeout=body.get("timeout", ...)
    )
    for label, stats in absorbed:
        state.absorb_stats(label, stats)
    return {
        "dataset": particles.fingerprint(),
        "count": len(results),
        "results": results,
    }


def _batch_entry(cached: dict) -> dict:
    """A batch item body from a cached result (keys are shared with
    ``/v1/sdh``, whose stored bodies may carry a ``plan`` block that
    batch items never include)."""
    return {k: v for k, v in cached.items() if k != "plan"}


def _error_entry(exc: Exception) -> dict:
    return {
        "error": {
            "type": type(exc).__name__.lstrip("_"),
            "message": str(exc),
        }
    }


def _dataset_ref(body: dict) -> str:
    ref = body.get("dataset")
    if not isinstance(ref, str) or not ref:
        raise _BadRequest("request must name a 'dataset'")
    return ref


def _handle_rdf(state: _ServiceState, body: dict) -> dict:
    particles = state.resolve_dataset(_dataset_ref(body))
    request = SDHRequest(num_buckets=body.get("num_buckets", 100)).normalize()
    finite_size = body.get("finite_size", "corrected")
    fingerprint = particles.fingerprint()
    # RDFs cache and coalesce like SDHs; the finite-size normalization
    # is part of the key (same histogram, different g(r)).
    key = result_cache_key(
        f"rdf[{finite_size}]", fingerprint, request, None
    )

    def compute() -> dict:
        def run() -> tuple[Any, SDHStats]:
            plan = state.cache.get_or_build(particles)
            stats = SDHStats()
            hist = plan.run(request, stats=stats)
            return rdf_from_histogram(hist, particles, finite_size), stats

        rdf, stats = state.executor.submit(
            run, timeout=body.get("timeout", ...)
        )
        state.absorb_stats("rdf", stats)
        return {
            "r": rdf.r.tolist(),
            "g": rdf.g.tolist(),
            "edges": rdf.edges.tolist(),
            "density": rdf.density,
            "num_particles": rdf.num_particles,
            "dim": rdf.dim,
        }

    if key is None:  # pragma: no cover - plain requests always key
        state.results.count_bypass()
        cached, outcome = compute(), "bypass"
    else:
        cached, outcome = state.results.fetch(
            key, compute, wait_timeout=_wait_budget(state, body)
        )
    return dict(cached, dataset=fingerprint, result_source=outcome)


# ----------------------------------------------------------------------
class SDHService:
    """A running (or startable) SDH query server.

    Usable three ways: as a context manager (tests, examples), via
    :meth:`start`/:meth:`shutdown` (embedding), or via
    :meth:`serve_forever` (the ``repro-sdh serve`` CLI).

    Parameters mirror :class:`ServiceConfig`; pass either a config or
    individual overrides.
    """

    def __init__(self, config: ServiceConfig | None = None, **overrides: Any):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ServiceError("pass a config or overrides, not both")
        self.config = config
        self.state = _ServiceState(config)
        self._httpd = ThreadingHTTPServer(
            (config.host, config.port), _Handler
        )
        self._httpd.daemon_threads = True
        self._httpd.state = self.state  # type: ignore[attr-defined]
        self._httpd.verbose = False  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even for 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def preload(self, particles: ParticleSet, name: str | None = None) -> str:
        """Register (and index) a dataset before serving traffic."""
        key = self.state.register(particles, name)
        self.state.cache.get_or_build(particles)
        return key

    def start(self) -> "SDHService":
        """Serve on a background thread; returns self for chaining."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="sdh-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self, verbose: bool = False) -> None:
        """Serve on the calling thread until interrupted (CLI mode)."""
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the worker pool."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.state.executor.shutdown(wait=False)

    def __enter__(self) -> "SDHService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
