"""The service-mixed workload: the SDH service under two closed-loop clients.

The server runs in its own process (``server_main.py``) with two worker
threads.  Two client threads of this process drive it, each over one
keep-alive HTTP connection, each sending its next request only when the
previous one was answered.  Every client repeats the same cycle of
operation kinds (``CYCLE``), so every seed runs the same mix; the seed
picks the contents, the order of the warm queries and the fresh
bucket counts:

* ``repeat`` -- the next warm query, answered from the result cache
  unless a write has replaced its dataset since;
* ``cold`` -- an exact query with a bucket count never asked before: it
  runs the planner, the plan cache and an engine;
* ``approx`` -- an ADM-SDH query with a fresh ``rng`` seed;
* ``batch`` -- ``/v1/sdh/batch`` with two warm queries and one cold one;
* ``twin`` -- both clients meet at a barrier and send the same cold
  query, so one of them coalesces onto the other's computation;
* ``write`` (client 0 only) -- ``POST /v1/datasets`` re-registers the 2D
  dataset with fresh content.  Its cached results are invalidated and
  its next query rebuilds the pyramid.  Contents are never reused, so
  the registry's growth (it keeps every copy) shows in ``peak_rss_mb``.

Every answer is checked after the timed window: exact histograms
against brute-force references, approximate ones against the library
run on the same request, content and seed; all must be bit-identical.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import layers
from layers import median, percentile
from tracer import load_spans, self_sum_errors
from workloads import (
    SETUP_SAMPLES,
    brute_force_counts,
    dataset_file,
    derived_seed,
    publish,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SERVER = os.path.join(HERE, "server_main.py")

#: Registered datasets: alias -> (family, dim, n).  Writes replace ``d2``.
DATASETS = {"d2": ("uniform", 2, 4000), "d3": ("membrane", 3, 4000)}
WRITTEN = "d2"
#: Warm bucket counts per dataset, computed before timing starts.
POOL = {"d2": (2, 8, 16, 48), "d3": (2, 4, 12, 32)}
#: (num_buckets, error_bound) of the approximate queries per dataset.
APPROX = {"d2": (8, 0.1), "d3": (16, 0.05)}
#: Cold bucket counts are drawn from this range, each at most once.
COLD_RANGE = (64, 1024)
#: One client's repeating operation schedule; client 1 repeats instead
#: of writing.  About a third of the requests make the server compute.
CYCLE = (
    "repeat", "repeat", "cold", "repeat", "repeat",
    "approx", "repeat", "repeat", "batch", "repeat",
    "repeat", "cold", "repeat", "repeat", "write",
    "repeat", "repeat", "repeat", "repeat", "twin",
)
CLIENTS = 2
#: Windows of a traced run: untraced and traced, alternating.
TRACE_WINDOWS = 4
HTTP_TIMEOUT = 150.0


def call(conn, method: str, path: str, body: bytes | None = None, trace_id=None):
    """One request on a keep-alive connection: (status, seconds, raw body)."""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    if trace_id is not None:
        headers["X-Trace-Id"] = trace_id
    started = time.perf_counter()
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, time.perf_counter() - started, raw


def post(conn, path: str, payload: dict) -> dict:
    status, _, raw = call(conn, "POST", path, json.dumps(payload).encode())
    if status != 200:
        raise RuntimeError(f"POST {path} answered {status}: {raw[:200]!r}")
    return json.loads(raw)


def get(conn, path: str) -> bytes:
    status, _, raw = call(conn, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return raw


class Server:
    """One server process, launched and made ready the way a user would."""

    def __init__(self, inputs: dict[str, str], spans: str | None = None):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, SERVER, *(["--spans", spans] if spans else [])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
            self.control = self.connect()
            if json.loads(get(self.control, "/healthz")).get("status") != "ok":
                raise RuntimeError("server is not healthy")
            self.fingerprints = {
                alias: post(
                    self.control, "/v1/datasets",
                    {"path": path, "name": alias, "build": True},
                )["dataset"]
                for alias, path in inputs.items()
            }
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT)

    def counters(self) -> dict:
        stats = json.loads(get(self.control, "/v1/stats"))
        engines = stats["engines"].values()
        choices = layers.choice_counts(get(self.control, "/metrics").decode())
        return {
            "results.hits": stats["results"]["hits"],
            "results.misses": stats["results"]["misses"],
            "results.coalesced": stats["results"]["coalesced"],
            "results.bypassed": stats["results"]["bypassed"],
            "cache.builds": stats["cache"]["builds"],
            "executor.rejected": stats["executor"]["rejected"],
            "executor.timeouts": stats["executor"]["timeouts"],
            "core.resolve_calls": sum(e["resolve_calls"] for e in engines),
            "core.resolved_pairs": sum(e["resolved_pairs"] for e in engines),
            "core.distance_computations": sum(
                e["distance_computations"] for e in engines
            ),
            **{f"planner.choice.{k}": choices.get(k, 0.0)
               for k in ("grid", "brute", "parallel")},
        }

    def command(self, text: str) -> None:
        """``trace`` or ``untrace`` (see ``server_main.py``)."""
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError(f"server did not accept {text!r}")

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (``VmHWM``), read while alive."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut down and wait for the process; kill it if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.communicate("quit\n", timeout=60)
        except (subprocess.TimeoutExpired, OSError, ValueError):
            self.proc.kill()
            self.proc.communicate()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")


class Schedule:
    """The deterministic operation stream of every client."""

    def __init__(self, seed: int, contents: dict):
        self.seed = seed
        self.contents = contents  # fingerprint -> ParticleSet
        rng = np.random.default_rng(derived_seed(seed, "service-schedule"))
        self.warm = [(a, l) for a in POOL for l in POOL[a]]
        self.warm = [self.warm[i] for i in rng.permutation(len(self.warm))]
        cold = rng.permutation(np.arange(*COLD_RANGE)).tolist()
        # Disjoint streams of fresh bucket counts: one per client, one
        # for the twin queries both clients send.
        self.cold = [cold[i::CLIENTS + 1] for i in range(CLIENTS + 1)]
        self.used = [defaultdict(int) for _ in range(CLIENTS)]
        self.position = [0] * CLIENTS
        self.version = 0

    def _take(self, client: int, kind: str) -> int:
        count = self.used[client][kind]
        self.used[client][kind] += 1
        return count

    def _fresh(self, client: int, stream: int) -> int:
        values = self.cold[stream]
        return values[self._take(client, f"cold{stream}") % len(values)]

    def next(self, client: int) -> dict:
        """The next operation of one client."""
        kind = CYCLE[self.position[client] % len(CYCLE)]
        self.position[client] += 1
        if kind == "write" and client != 0:
            kind = "repeat"
        if kind == "repeat":
            k = self._take(client, kind)
            alias, l = self.warm[(k + client * len(self.warm) // 2) % len(self.warm)]
            return {"kind": kind, "path": "/v1/sdh",
                    "body": {"dataset": alias, "num_buckets": l}}
        if kind == "cold":
            k = self._take(client, kind)
            return {"kind": kind, "path": "/v1/sdh",
                    "body": {"dataset": ("d2", "d3")[(k + client) % 2],
                             "num_buckets": self._fresh(client, client)}}
        if kind == "twin":
            # Both clients derive the twin query from the cycle number,
            # which the barrier keeps equal between them.
            cycle = (self.position[client] - 1) // len(CYCLE)
            values = self.cold[CLIENTS]
            return {"kind": kind, "path": "/v1/sdh",
                    "body": {"dataset": ("d2", "d3")[cycle % 2],
                             "num_buckets": values[cycle % len(values)]}}
        if kind == "approx":
            k = self._take(client, kind)
            alias = ("d2", "d3")[(k + client) % 2]
            l, eps = APPROX[alias]
            return {"kind": kind, "path": "/v1/sdh",
                    "body": {"dataset": alias, "num_buckets": l, "error_bound": eps,
                             "rng": derived_seed(self.seed, "adm", client, k)}}
        if kind == "batch":
            k = self._take(client, kind)
            alias = ("d2", "d3")[(k + client) % 2]
            warm = POOL[alias]
            items = [{"num_buckets": warm[k % len(warm)]},
                     {"num_buckets": warm[(k + 1) % len(warm)]},
                     {"num_buckets": self._fresh(client, client)}]
            return {"kind": kind, "path": "/v1/sdh/batch",
                    "body": {"dataset": alias, "queries": items}}
        return self._write()

    def _write(self) -> dict:
        """Fresh content for the written dataset, made before it is sent."""
        from repro.bench.workloads import make_dataset

        self.version += 1
        family, dim, n = DATASETS[WRITTEN]
        particles = make_dataset(
            family, n, dim, seed=derived_seed(self.seed, WRITTEN, "version", self.version)
        )
        self.contents[particles.fingerprint()] = particles
        body = {
            "name": WRITTEN,
            "positions": particles.positions.tolist(),
            "box": {"lo": list(particles.box.lo), "hi": list(particles.box.hi)},
        }
        return {"kind": "write", "path": "/v1/datasets", "body": body,
                "fingerprint": particles.fingerprint()}


def client_loop(client: int, server: Server, schedule: Schedule, deadline: float,
                barrier: threading.Barrier, log: list, lock: threading.Lock) -> None:
    """Closed loop: send, wait for the answer, record it, repeat."""
    conn = server.connect()
    try:
        while time.perf_counter() < deadline:
            with lock:
                op = schedule.next(client)
            if op["kind"] == "twin":
                try:
                    barrier.wait(timeout=max(deadline - time.perf_counter(), 0) + 60)
                except threading.BrokenBarrierError:
                    # The other client has stopped: leave the twin query
                    # for the next window, where both send it.
                    with lock:
                        schedule.position[client] -= 1
                    break
            body = json.dumps(op["body"]).encode()
            trace_id = f"c{client}-{schedule.position[client]}"
            try:
                status, seconds, raw = call(conn, "POST", op["path"], body, trace_id)
            except (OSError, http.client.HTTPException) as exc:
                op.update(status=0, seconds=0.0, error=f"{type(exc).__name__}: {exc}")
                conn.close()
                conn = server.connect()
            else:
                op.update(status=status, seconds=seconds, trace_id=trace_id,
                          response=json.loads(raw) if raw else None)
            op["done"] = time.perf_counter()
            log.append(op)
    finally:
        barrier.abort()
        conn.close()


def run_window(server: Server, schedule: Schedule, seconds: float) -> dict:
    """Both clients for ``seconds``; returns their ops and the counter deltas."""
    before = server.counters()
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS)
    logs: list[list] = [[] for _ in range(CLIENTS)]
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=client_loop,
            args=(c, server, schedule, started + seconds, barrier, logs[c], lock),
        )
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ops = [op for log in logs for op in log]
    wall = max((op["done"] for op in ops), default=started + seconds) - started
    after = server.counters()
    return {
        "ops": ops,
        "wall": wall,
        "deltas": {key: after[key] - before[key] for key in after},
    }


def merge(windows: list[dict]) -> dict:
    """Several windows as one: their ops, summed wall time and deltas."""
    deltas: dict[str, float] = defaultdict(float)
    for window in windows:
        for key, value in window["deltas"].items():
            deltas[key] += value
    return {
        "ops": [op for window in windows for op in window["ops"]],
        "wall": sum(window["wall"] for window in windows),
        "deltas": dict(deltas),
    }


def classify(op: dict) -> str:
    """``write``, ``hit`` (served from the result cache) or ``computed``."""
    if op["kind"] == "write":
        return "write"
    if op["kind"] != "batch" and op["response"].get("result_source") == "hit":
        return "hit"
    return "computed"


def window_metrics(window: dict) -> tuple[dict, list[dict]]:
    """End-to-end metrics of one window, and its successful ops."""
    ok = [op for op in window["ops"] if op["status"] == 200]
    latency = [op["seconds"] for op in ok]
    computed = [op for op in ok if classify(op) == "computed"]
    pairs = 0
    for op in computed:
        items = len(op["body"]["queries"]) if op["kind"] == "batch" else 1
        n = DATASETS[op["body"]["dataset"]][2]
        pairs += items * n * (n - 1) // 2
    busy = sum(op["seconds"] for op in computed)
    return {
        "query_p50_s": median(op["seconds"] for op in computed),
        "pairs_per_s": pairs / busy if busy > 0 else 0.0,
        "ops_per_s": len(ok) / window["wall"],
        "op_p50_ms": median(latency) * 1e3,
        "op_p95_ms": percentile(latency, 95) * 1e3,
    }, ok


def _answers(op: dict):
    """(fingerprint, request, counts) for every histogram an op returned."""
    response = op["response"]
    if op["kind"] == "batch":
        for item, result in zip(op["body"]["queries"], response["results"]):
            yield response["dataset"], item, result.get("counts")
    else:
        yield response["dataset"], op["body"], response.get("counts")


def check_answers(out: str, ops: list[dict], contents: dict) -> list[str]:
    """Compare every answer with its library reference; returns failures.

    References are cached in the output directory by dataset content,
    so a repeated seed reuses them.
    """
    from repro.core.query import compute_sdh
    from repro.core.request import SDHRequest

    failures = []
    wanted = {}
    for op in ops:
        if op["kind"] == "write":
            if op["response"].get("dataset") != op["fingerprint"]:
                failures.append("write: the server stored other content than was sent")
            continue
        for fingerprint, item, counts in _answers(op):
            if fingerprint not in contents or counts is None:
                failures.append(f"{op['kind']}: unknown content or no counts")
                continue
            key = (fingerprint, item["num_buckets"], item.get("error_bound"),
                   item.get("rng"))
            wanted.setdefault(key, []).append(np.asarray(counts, dtype=float))
    refs_dir = os.path.join(out, "refs")
    os.makedirs(refs_dir, exist_ok=True)

    def ref_path(fingerprint, l, eps, rng):
        tag = "" if eps is None else f"-eps{eps:g}-rng{rng}"
        return os.path.join(refs_dir, f"{fingerprint[:20]}-l{l}{tag}.npy")

    missing: dict[str, list[int]] = defaultdict(list)
    for fingerprint, l, eps, rng in wanted:
        if eps is None and not os.path.exists(ref_path(fingerprint, l, None, None)):
            missing[fingerprint].append(l)
    for fingerprint, buckets in missing.items():
        computed = brute_force_counts(contents[fingerprint], buckets)
        for l in buckets:
            publish(ref_path(fingerprint, l, None, None),
                    lambda tmp, l=l: np.save(tmp, computed[l]))
    for (fingerprint, l, eps, rng), answers in wanted.items():
        path = ref_path(fingerprint, l, eps, rng)
        if not os.path.exists(path):
            hist = compute_sdh(
                contents[fingerprint], SDHRequest(num_buckets=l, error_bound=eps),
                rng=rng,
            )
            publish(path, lambda tmp: np.save(tmp, hist.counts))
        reference = np.load(path)
        wrong = sum(not np.array_equal(a, reference) for a in answers)
        if wrong:
            failures.append(
                f"{fingerprint[:12]} l={l} eps={eps} rng={rng}: {wrong} of "
                f"{len(answers)} answers differ from the library result"
            )
    return failures


def span_layer_metrics(spans, ops: list[dict]) -> dict:
    """The ``service.*`` metrics measured from the server's spans."""
    by_req: dict[str, list] = defaultdict(list)
    for s in spans:
        by_req[s.req].append(s)
    parse = [
        sum(s.duration for s in group if s.name == "service.parse")
        for group in by_req.values()
        if any(s.name == "service.parse" for s in group)
    ]
    execs = {s.parent: s for s in spans if s.name == "service.exec"}
    waits = [
        s.duration - (execs[s.sid].duration if s.sid in execs else 0.0)
        for s in spans if s.name == "service.submit"
    ]
    builds = {s.parent for s in spans if s.name == "quadtree.build"}
    plan_builds = [
        s.duration for s in spans if s.name == "service.plan_cache" and s.sid in builds
    ]
    overhead = [
        op["seconds"] - sum(
            s.duration for s in by_req.get(op["trace_id"], ()) if s.name == "service.exec"
        )
        for op in ops
    ]
    return {
        "service.parse_ms": median(parse) * 1e3,
        "service.overhead_ms": median(overhead) * 1e3,
        "service.queue_wait_p95_ms": percentile(waits, 95) * 1e3,
        "service.exec_ms": median(s.duration for s in execs.values()) * 1e3,
        "service.plan_cache_builds": float(len(plan_builds)),
        "service.plan_build_ms": median(plan_builds) * 1e3,
        "core.levels_visited": float(
            sum(s.attrs.get("levels", 0) for s in spans if s.name == "core.plan_run")
        ),
    }


def run(out: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.data.io import load_particles

    inputs = {
        alias: dataset_file(out, seed, family, dim, n, tag="-service")
        for alias, (family, dim, n) in DATASETS.items()
    }
    contents = {}
    for path in inputs.values():
        particles = load_particles(path)
        contents[particles.fingerprint()] = particles
    # Every launch but the last is a set-up sample only.
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Server(inputs)
        setup.append(probe.setup_s)
        probe.stop()
    spans_path = os.path.join(out, "runs", f"service-mixed-s{seed}-spans.jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    server = Server(inputs, spans_path if trace else None)
    setup.append(server.setup_s)
    try:
        problems = [
            f"{alias}: the server fingerprinted other content"
            for alias, fp in server.fingerprints.items() if fp not in contents
        ]
        schedule = Schedule(seed, contents)
        for alias, l in schedule.warm:
            post(server.control, "/v1/sdh", {"dataset": alias, "num_buckets": l})
        if trace:
            # Untraced and traced windows alternate, so a drift in host
            # speed does not read as tracing overhead.
            split: dict[bool, list] = {False: [], True: []}
            for index in range(TRACE_WINDOWS):
                traced = index % 2 == 1
                server.command("trace" if traced else "untrace")
                split[traced].append(
                    run_window(server, schedule, seconds / TRACE_WINDOWS)
                )
            windows = [merge(split[False]), merge(split[True])]
        else:
            windows = [run_window(server, schedule, seconds)]
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    metrics, _ = window_metrics(windows[0])
    metrics["setup_s"] = median(setup)
    metrics["peak_rss_mb"] = peak
    ops = [op for w in windows for op in w["ops"]]
    failures = [f"{op['kind']}: {op.get('error') or op['status']}"
                for op in ops if op["status"] != 200]
    good = [op for op in ops if op["status"] == 200]
    failures += check_answers(out, good, contents)
    calibrated = any(
        op["response"].get("plan", {}).get("calibrated", False)
        for op in good if op["kind"] != "write"
    )
    totals = merge(windows)["deltas"]
    spread = {k: totals[k] for k in
              ("results.hits", "results.misses", "results.coalesced", "cache.builds",
               "planner.choice.grid", "planner.choice.brute", "planner.choice.parallel")}
    if trace:
        traced = windows[1]
        spans = load_spans(spans_path)
        traced_metrics, traced_ok = window_metrics(traced)
        deltas = traced["deltas"]
        metrics.update(layers.span_metrics(spans, 1))
        metrics.update(span_layer_metrics(spans, traced_ok))
        lookups = deltas["results.hits"] + deltas["results.misses"] + deltas["results.coalesced"]
        metrics.update({
            "service.result_hit_ratio": deltas["results.hits"] / lookups if lookups else 0.0,
            "service.coalesced": deltas["results.coalesced"],
            "service.rejected": deltas["executor.rejected"],
            "service.timeouts": deltas["executor.timeouts"],
            "service.hit_p50_ms": median(
                op["seconds"] for op in traced_ok if classify(op) == "hit") * 1e3,
            "service.write_p50_ms": median(
                op["seconds"] for op in traced_ok if classify(op) == "write") * 1e3,
            "observability.trace_overhead_pct":
                (metrics["ops_per_s"] / traced_metrics["ops_per_s"] - 1.0) * 100.0,
        })
        for key in ("core.resolve_calls", "core.resolved_pairs",
                    "core.distance_computations", "planner.choice.grid",
                    "planner.choice.brute", "planner.choice.parallel"):
            metrics[key] = deltas[key]
        worst = max(self_sum_errors(spans), default=0.0)
        if worst > 1e-6:
            problems.append(f"self times miss their root span by {worst:.3g} s")
    return {
        "metrics": metrics,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "calibrated": calibrated,
        "exact_counts": {},
        "spread_counts": spread,
    }
