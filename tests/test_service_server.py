"""End-to-end tests for the SDH query service over localhost HTTP."""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import SDHRequest, compute_sdh
from repro.data import random_types, save_particles, uniform
from repro.errors import (
    BucketSpecError,
    DatasetNotFound,
    QueryError,
    ServerOverloaded,
    ServiceError,
)
from repro.physics import rdf_from_histogram
from repro.service import SDHClient, SDHService, ServiceConfig


@pytest.fixture(scope="module")
def dataset():
    return uniform(300, dim=2, rng=11)


@pytest.fixture()
def service():
    with SDHService(max_workers=2, max_queue=4) as running:
        yield running


@pytest.fixture()
def client(service):
    return SDHClient(service.url)


class TestLifecycle:
    def test_healthz(self, client):
        assert client.health()

    def test_unknown_routes_are_404(self, client):
        with pytest.raises(ServiceError, match="no such route"):
            client._request("GET", "/v1/nope")
        with pytest.raises(ServiceError, match="no such route"):
            client._request("POST", "/v1/nope", {})

    def test_config_or_overrides_not_both(self):
        with pytest.raises(ServiceError):
            SDHService(ServiceConfig(), max_workers=2)


class TestRegisterAndQuery:
    def test_register_inline_and_query(self, client, dataset):
        key = client.register(dataset)
        assert key == dataset.fingerprint()
        hist = client.sdh(key, num_buckets=8)
        direct = compute_sdh(dataset, SDHRequest(num_buckets=8))
        np.testing.assert_array_equal(hist.counts, direct.counts)
        np.testing.assert_allclose(hist.edges, direct.edges)

    def test_register_by_path_npz_and_alias(self, client, dataset, tmp_path):
        path = tmp_path / "d.npz"
        save_particles(path, dataset)
        key = client.register(path=str(path), name="mine")
        assert key == dataset.fingerprint()
        by_name = client.sdh("mine", num_buckets=6)
        by_key = client.sdh(key, num_buckets=6)
        np.testing.assert_array_equal(by_name.counts, by_key.counts)

    def test_register_typed_roundtrip(self, client):
        typed = random_types(
            uniform(150, dim=2, rng=3), {"C": 2, "O": 1}, rng=4
        )
        key = client.register(typed)
        hist = client.sdh(key, num_buckets=5, type_filter="C")
        direct = compute_sdh(typed, SDHRequest(num_buckets=5, type_filter="C"))
        np.testing.assert_array_equal(hist.counts, direct.counts)

    def test_bucket_width_query(self, client, dataset):
        key = client.register(dataset)
        hist = client.sdh(key, bucket_width=0.25)
        direct = compute_sdh(dataset, SDHRequest(bucket_width=0.25))
        np.testing.assert_array_equal(hist.counts, direct.counts)

    def test_approximate_query(self, client, dataset):
        key = client.register(dataset)
        hist = client.sdh(key, num_buckets=16, levels=2, heuristic=1, rng=9)
        # Approximate histograms conserve total pair mass.
        assert hist.total == pytest.approx(dataset.num_pairs)

    def test_rdf_matches_direct(self, client, dataset):
        key = client.register(dataset)
        remote = client.rdf(key, num_buckets=24)
        direct = rdf_from_histogram(
            compute_sdh(dataset, SDHRequest(num_buckets=24)), dataset
        )
        np.testing.assert_allclose(remote.g, direct.g)
        np.testing.assert_allclose(remote.r, direct.r)

    def test_register_validation(self, client, dataset):
        with pytest.raises(ServiceError):
            client.register()
        with pytest.raises(ServiceError):
            client.register(dataset, path="also.npz")


class TestPlanReuse:
    def test_one_build_across_queries(self, service, client, dataset):
        """The acceptance criterion: two queries, one pyramid build."""
        key = client.register(dataset)
        client.sdh(key, num_buckets=8)
        client.sdh(key, num_buckets=32)  # different query, same plan
        stats = client.stats()
        assert stats["cache"]["builds"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hits"] == 1
        assert key in stats["cache"]["plans"]

    def test_eager_build_on_register(self, client, dataset):
        client.register(dataset, build=True)
        stats = client.stats()
        assert stats["cache"]["builds"] == 1
        assert stats["cache"]["misses"] == 1


class TestErrorPaths:
    def test_unknown_dataset_404(self, client):
        with pytest.raises(DatasetNotFound, match="not registered"):
            client.sdh("deadbeef", num_buckets=4)

    def test_bad_bucket_spec_roundtrips_message(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(BucketSpecError, match="at least one bucket"):
            client.sdh(key, num_buckets=-2)

    def test_query_error_roundtrips_message(self, client, dataset):
        key = client.register(dataset)
        # Exactly the library's QueryError type and message text.
        with pytest.raises(
            QueryError, match="exactly one of bucket_width"
        ):
            client.sdh(key)

    def test_unknown_parameter_rejected(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(ServiceError, match="unknown query parameters"):
            client._request(
                "POST", "/v1/sdh",
                {"dataset": key, "num_buckets": 4, "wat": 1},
            )

    def test_kernel_field_over_the_wire(self, client, dataset):
        key = client.register(dataset)
        pinned = client.sdh(key, num_buckets=8, kernel="numpy")
        base = client.sdh(key, num_buckets=8)
        np.testing.assert_array_equal(pinned.counts, base.counts)

    def test_bad_kernel_rejected_as_query_error(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(QueryError, match="kernel must be one of"):
            client.sdh(key, num_buckets=8, kernel="cuda")

    def test_nan_region_rejected_as_400(self, service, client, dataset):
        # Python's json parser accepts bare NaN, so a hostile payload
        # can smuggle non-finite coordinates past JSON syntax; the wire
        # layer must reject them as a QueryError -> HTTP 400.
        import urllib.error
        import urllib.request

        key = client.register(dataset)
        body = (
            '{"dataset": "%s", "num_buckets": 4, "region": '
            '{"kind": "rect", "lo": [0, NaN], "hi": [1, 1]}}' % key
        )
        request = urllib.request.Request(
            f"{service.url}/v1/sdh",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_infinite_bucket_width_rejected(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(BucketSpecError, match="finite"):
            client.sdh(key, bucket_width=float("inf"))

    def test_malformed_json_rejected(self, service):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{service.url}/v1/sdh",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_oversized_queue_rejected_as_503(self, dataset):
        """Saturate a 1-worker/0-queue server; the overflow request
        must come back as ServerOverloaded, not hang.  The burst uses
        *distinct* queries — identical ones would coalesce onto a
        single executor slot and never overload the pool."""
        config = ServiceConfig(max_workers=1, max_queue=0, timeout=None)
        with SDHService(config) as service:
            client = SDHClient(service.url)
            key = client.register(uniform(2500, dim=2, rng=1))
            rejected = []
            done = []
            lock = threading.Lock()

            def fire(buckets):
                try:
                    done.append(client.sdh(key, num_buckets=buckets))
                except ServerOverloaded:
                    with lock:
                        rejected.append(1)

            threads = [
                threading.Thread(target=fire, args=(60 + i,))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert done, "at least one query must get through"
            assert rejected, "an oversized burst must see 503s"
            stats = client.stats()
            assert stats["executor"]["rejected"] == len(rejected)


class TestConcurrencySmoke:
    def test_parallel_clients_match_direct(self, dataset):
        """N concurrent /v1/sdh requests, all bit-identical to
        compute_sdh on the same inputs."""
        stack = SDHService(max_workers=4, max_queue=16)
        with stack as service:
            self._run_smoke(service, dataset)

    def _run_smoke(self, service, dataset):
        client = SDHClient(service.url)
        key = client.register(dataset)
        expected = {
            l: compute_sdh(dataset, SDHRequest(num_buckets=l)).counts
            for l in (4, 8, 16, 32)
        }
        results = {}
        errors = []
        lock = threading.Lock()

        def fire(i):
            buckets = (4, 8, 16, 32)[i % 4]
            try:
                own = SDHClient(service.url)  # independent connection
                hist = own.sdh(key, num_buckets=buckets)
                with lock:
                    results[i] = (buckets, hist.counts)
            except Exception as exc:  # pragma: no cover - diagnostic
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 12
        for buckets, counts in results.values():
            np.testing.assert_array_equal(counts, expected[buckets])
        # All 12 queries shared one plan build.
        stats = SDHClient(service.url).stats()
        assert stats["cache"]["builds"] == 1


class TestBatchEndpoint:
    def test_batch_matches_singles(self, client, dataset):
        key = client.register(dataset)
        results = client.sdh_batch(
            key,
            [
                {"num_buckets": 4},
                {"num_buckets": 8},
                {"bucket_width": 0.25},
            ],
        )
        assert len(results) == 3
        for result, expected in zip(
            results,
            [
                compute_sdh(dataset, SDHRequest(num_buckets=4)),
                compute_sdh(dataset, SDHRequest(num_buckets=8)),
                compute_sdh(dataset, SDHRequest(bucket_width=0.25)),
            ],
        ):
            np.testing.assert_array_equal(result.counts, expected.counts)

    def test_batch_shares_one_plan_build(self, client, dataset):
        key = client.register(dataset)
        client.sdh_batch(key, [{"num_buckets": b} for b in (4, 8, 16, 32)])
        stats = client.stats()
        assert stats["cache"]["builds"] == 1
        assert stats["requests"]["sdh_batch"] == 1
        assert stats["engines"]["exact"]["queries"] == 4
        # The whole batch occupied a single executor slot.
        assert stats["executor"]["completed"] == 1

    def test_batch_per_item_errors(self, client, dataset):
        key = client.register(dataset)
        results = client.sdh_batch(
            key,
            [
                {"num_buckets": 8},
                {},  # inconsistent: no parameterization
                {"wat": 1},  # unknown key
                {"num_buckets": 4},
            ],
            return_errors=True,
        )
        assert len(results) == 4
        assert isinstance(results[1], QueryError)
        assert "exactly one of bucket_width" in str(results[1])
        assert isinstance(results[2], ServiceError)
        assert "unknown query parameters" in str(results[2])
        np.testing.assert_array_equal(
            results[0].counts,
            compute_sdh(dataset, SDHRequest(num_buckets=8)).counts,
        )
        np.testing.assert_array_equal(
            results[3].counts,
            compute_sdh(dataset, SDHRequest(num_buckets=4)).counts,
        )

    def test_batch_raises_first_error_by_default(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(QueryError, match="exactly one of bucket_width"):
            client.sdh_batch(key, [{"num_buckets": 8}, {}])

    def test_empty_batch_rejected(self, client, dataset):
        key = client.register(dataset)
        with pytest.raises(ServiceError, match="non-empty list"):
            client.sdh_batch(key, [])


class TestParallelRouting:
    def test_small_datasets_stay_serial(self, client, dataset):
        key = client.register(dataset)
        client.sdh(key, num_buckets=8)
        stats = client.stats()
        assert stats["engines"]["exact"]["queries"] == 1
        assert "parallel" not in stats["engines"]

    def test_explicit_workers_over_the_wire(self, client, dataset):
        key = client.register(dataset)
        hist = client.sdh(key, num_buckets=8, workers=2)
        direct = compute_sdh(dataset, SDHRequest(num_buckets=8))
        np.testing.assert_array_equal(hist.counts, direct.counts)
        stats = client.stats()
        assert stats["engines"]["parallel"]["queries"] == 1

    def test_approximate_never_auto_routed(self, client, dataset):
        key = client.register(dataset)
        client.sdh(key, num_buckets=8, levels=1, rng=5)
        stats = client.stats()
        assert stats["engines"]["approx"]["queries"] == 1
        assert "parallel" not in stats["engines"]


class TestStats:
    def test_stats_shape(self, client, dataset):
        key = client.register(dataset, name="d")
        client.sdh(key, num_buckets=8)
        client.sdh(key, num_buckets=8, levels=1)
        client.rdf(key, num_buckets=8)
        stats = client.stats()
        assert stats["uptime_seconds"] > 0
        assert stats["datasets"][key]["num_particles"] == dataset.size
        assert "d" in stats["datasets"][key]["aliases"]
        assert stats["requests"]["sdh"] == 2
        assert stats["requests"]["rdf"] == 1
        assert stats["engines"]["exact"]["queries"] == 1
        assert stats["engines"]["approx"]["queries"] == 1
        assert stats["engines"]["rdf"]["queries"] == 1
        assert stats["engines"]["exact"]["distance_computations"] > 0
        assert stats["executor"]["completed"] == 3


class TestObservability:
    """GET /metrics and the per-request trace-ID contract."""

    @staticmethod
    def _raw_get(url, headers=None):
        import urllib.request

        request = urllib.request.Request(url, headers=headers or {})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return (
                response.status,
                dict(response.headers),
                response.read().decode("utf-8"),
            )

    def test_metrics_exposition(self, service, client, dataset):
        key = client.register(dataset)
        client.sdh(key, num_buckets=8)
        client.sdh(key, num_buckets=8)  # result-cache hit
        client.sdh(key, num_buckets=16)  # plan-cache hit, new result
        status, headers, text = self._raw_get(service.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        # Cache and executor counters fold into the scrape.
        assert "# TYPE sdh_cache_hits_total counter" in text
        assert "sdh_cache_builds_total 1" in text
        assert "sdh_cache_plans 1" in text
        # The repeated query was served from the result cache, so only
        # two computations reached the executor.
        assert "sdh_result_cache_hits_total 1" in text
        assert "sdh_result_cache_misses_total 2" in text
        assert "sdh_result_coalesced_total 0" in text
        assert "sdh_result_cache_entries 2" in text
        assert "sdh_executor_completed_total 2" in text
        assert "sdh_executor_late_failures_total 0" in text
        assert "sdh_executor_in_flight 0" in text
        assert "sdh_uptime_seconds" in text
        # Per-request latency histogram, labelled by route.  These
        # live in the process-global registry (cumulative across every
        # service the test session starts), so assert presence, not
        # exact counts.
        assert 'sdh_http_request_seconds_bucket{route="sdh"' in text
        assert "# TYPE sdh_http_request_seconds histogram" in text
        assert 'sdh_http_requests_total{route="sdh",status="200"}' in text
        # Library-side phase spans and per-level resolve counters.
        assert 'sdh_phase_seconds_bucket{phase="plan_query"' in text
        assert 'sdh_service_queries_total{engine="exact"} 2' in text
        assert "sdh_resolve_calls_total{" in text

    @staticmethod
    def _metric_value(text, prefix):
        for line in text.splitlines():
            if line.startswith(prefix):
                return float(line.rsplit(" ", 1)[1])
        return 0.0

    def test_metrics_scrape_is_itself_counted(self, service):
        import time as _time

        sample = 'sdh_http_requests_total{route="metrics",status="200"}'
        _, _, first = self._raw_get(service.url + "/metrics")
        before = self._metric_value(first, sample)
        # A scrape is counted only after its response is written, so a
        # later scrape eventually observes the earlier one.
        deadline = _time.time() + 5.0
        while _time.time() < deadline:
            _, _, text = self._raw_get(service.url + "/metrics")
            if self._metric_value(text, sample) > before:
                break
            _time.sleep(0.01)
        else:
            pytest.fail("metrics scrapes never appeared in the counter")

    def test_trace_id_echoed_from_request_header(self, service):
        status, headers, _ = self._raw_get(
            service.url + "/healthz",
            headers={"X-Trace-Id": "deadbeefcafef00d"},
        )
        assert status == 200
        assert headers["X-Trace-Id"] == "deadbeefcafef00d"

    def test_trace_id_generated_when_absent(self, service):
        _, first, _ = self._raw_get(service.url + "/healthz")
        _, second, _ = self._raw_get(service.url + "/healthz")
        assert len(first["X-Trace-Id"]) == 16
        int(first["X-Trace-Id"], 16)  # hex
        assert first["X-Trace-Id"] != second["X-Trace-Id"]

    def test_error_responses_carry_trace_id(self, service):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            service.url + "/v1/nope",
            headers={"X-Trace-Id": "0123456789abcdef"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10.0)
        assert info.value.code == 404
        assert info.value.headers["X-Trace-Id"] == "0123456789abcdef"


class TestWire:
    """Responses on one keep-alive connection, as ``http.client`` sees them."""

    @staticmethod
    def _call(conn, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        assert int(response.getheader("Content-Length")) == len(raw)
        return response.status, raw

    @pytest.fixture()
    def conn(self, service):
        conn = http.client.HTTPConnection(*service.address, timeout=30)
        yield conn
        conn.close()

    def test_cache_hits_do_not_wait_for_delayed_acks(
        self, client, conn, dataset
    ):
        # Sent as two writes under Nagle, each response waits ~40 ms for
        # the client's delayed ACK: 30 hits would take at least 1.2 s.
        key = client.register(dataset)
        body = json.dumps({"dataset": key, "num_buckets": 8}).encode()
        status, raw = self._call(conn, "POST", "/v1/sdh", body)
        assert status == 200
        assert json.loads(raw)["result_source"] == "miss"
        started = time.perf_counter()
        for _ in range(30):
            status, raw = self._call(conn, "POST", "/v1/sdh", body)
            assert status == 200
            assert json.loads(raw)["result_source"] == "hit"
        assert time.perf_counter() - started < 0.6

    def test_error_responses_keep_the_connection_usable(self, conn):
        status, raw = self._call(conn, "GET", "/v1/nope")
        assert status == 404
        assert json.loads(raw)["error"]["type"] == "ServiceError"
        status, raw = self._call(conn, "POST", "/v1/sdh", b"{not json")
        assert status == 400
        assert json.loads(raw)["error"]["type"] == "BadRequest"
        status, raw = self._call(conn, "GET", "/healthz")
        assert (status, json.loads(raw)) == (200, {"status": "ok"})

    def test_large_bodies_arrive_whole(self, client, conn, dataset):
        client.register(dataset)
        client.sdh(dataset.fingerprint(), num_buckets=8)
        status, raw = self._call(conn, "GET", "/metrics")
        assert status == 200
        assert len(raw) > 8192
        assert raw.endswith(b"\n")
        assert b"sdh_uptime_seconds" in raw
        big = uniform(20000, dim=3, rng=5)
        body = json.dumps({
            "positions": big.positions.tolist(),
            "box": {"lo": list(big.box.lo), "hi": list(big.box.hi)},
        }).encode()
        status, raw = self._call(conn, "POST", "/v1/datasets", body)
        assert status == 200
        assert json.loads(raw)["dataset"] == big.fingerprint()
        query = {"dataset": dataset.fingerprint(), "num_buckets": 4096}
        status, raw = self._call(
            conn, "POST", "/v1/sdh", json.dumps(query).encode()
        )
        assert status == 200
        direct = compute_sdh(dataset, SDHRequest(num_buckets=4096))
        assert json.loads(raw)["counts"] == direct.counts.tolist()

    def test_http09_request_gets_the_bare_body(self, service):
        with socket.create_connection(service.address, timeout=30) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            raw = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(raw) == {"status": "ok"}

    @staticmethod
    def _exchange(service, data: bytes) -> bytes:
        """Send raw bytes; read until the server closes the connection."""
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(data)
            return b"".join(iter(lambda: sock.recv(65536), b""))

    def test_oversized_body_closes_the_connection(self, service):
        # The declared body is never read, so the server must hang up:
        # on a kept-alive connection the next bytes would be parsed as
        # a request of their own.
        raw = self._exchange(
            service,
            b"POST /v1/sdh HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 300000000\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert raw.count(b"HTTP/1.1 ") == 1
        assert b"exceeds the" in raw
        assert b"Connection: close" in raw

    @pytest.mark.parametrize("declared", [b"abc", b"-5"])
    def test_malformed_content_length_is_400(self, service, declared):
        raw = self._exchange(
            service,
            b"POST /v1/sdh HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + declared
            + b"\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert raw.count(b"HTTP/1.1 ") == 1
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["error"]["type"] == "BadRequest"
        assert "Content-Length" in body["error"]["message"]


class TestPlannerIntegration:
    """Cost-based routing at the service layer: plan block, SLOs, 422."""

    def test_response_carries_plan_block(self, client, dataset):
        key = client.register(dataset)
        body = client._request(
            "POST", "/v1/sdh", {"dataset": key, "num_buckets": 8}
        )
        plan = body["plan"]
        assert plan["mode"] == "exact"
        assert plan["engine"] in ("brute", "grid", "tree", "parallel")
        assert plan["predicted_ms"] > 0
        assert plan["candidates"], "ranked candidates must be included"
        # The routed result is still bit-identical to a forced engine.
        direct = compute_sdh(dataset, SDHRequest(num_buckets=8))
        np.testing.assert_array_equal(body["counts"], direct.counts)

    def test_forced_engine_skips_planning(self, client, dataset):
        key = client.register(dataset)
        body = client._request(
            "POST", "/v1/sdh",
            {"dataset": key, "num_buckets": 8, "engine": "grid"},
        )
        assert "plan" not in body

    def test_infeasible_budget_is_422(self, service, client, dataset):
        import json as _json
        import urllib.error
        import urllib.request

        from repro.errors import SLOInfeasibleError

        key = client.register(dataset)
        payload = {
            "dataset": key,
            "num_buckets": 8,
            "latency_budget_ms": 1e-4,
        }
        request = urllib.request.Request(
            f"{service.url}/v1/sdh",
            data=_json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 422
        # And the client rebuilds the typed error.
        with pytest.raises(SLOInfeasibleError, match="infeasible"):
            client._request("POST", "/v1/sdh", payload)

    def test_feasible_budget_answers_normally(self, client, dataset):
        key = client.register(dataset)
        body = client._request(
            "POST", "/v1/sdh",
            {"dataset": key, "num_buckets": 8, "latency_budget_ms": 60000},
        )
        direct = compute_sdh(dataset, SDHRequest(num_buckets=8))
        np.testing.assert_array_equal(body["counts"], direct.counts)
        assert body["plan"]["predicted_ms"] <= 60000

    def test_batch_slo_errors_stay_per_item(self, client, dataset):
        from repro.errors import SLOInfeasibleError

        key = client.register(dataset)
        results = client.sdh_batch(
            key,
            [
                {"num_buckets": 8},
                {"num_buckets": 8, "latency_budget_ms": 1e-4},
            ],
            return_errors=True,
        )
        assert isinstance(results[1], SLOInfeasibleError)
        np.testing.assert_array_equal(
            results[0].counts,
            compute_sdh(dataset, SDHRequest(num_buckets=8)).counts,
        )
