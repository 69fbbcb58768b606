"""Tests for the result cache + request coalescing serving tier."""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.request import SDHRequest
from repro.errors import QueryTimeout, ServiceError
from repro.service import (
    ResultCache,
    SDHClient,
    SDHService,
    ServiceConfig,
    result_cache_key,
)


def _req(**kwargs):
    kwargs.setdefault("num_buckets", 8)
    return SDHRequest(**kwargs).normalize()


class TestKey:
    def test_identical_requests_share_a_key(self):
        a = result_cache_key("sdh", "fp", _req())
        b = result_cache_key("sdh", "fp", _req())
        assert a == b == ("fp", a[1])

    def test_normalized_spellings_share_a_key(self):
        loose = SDHRequest.from_dict(
            {"num_buckets": 8, "engine": "GRID", "policy": "raise"}
        )
        assert result_cache_key("sdh", "fp", loose) == result_cache_key(
            "sdh", "fp", _req(engine="grid")
        )

    def test_different_requests_differ(self):
        base = result_cache_key("sdh", "fp", _req())
        assert result_cache_key("sdh", "fp", _req(num_buckets=9)) != base
        assert result_cache_key("rdf", "fp", _req()) != base
        assert result_cache_key("sdh", "other", _req()) != base
        assert result_cache_key("sdh", "fp", _req(use_mbr=True)) != base

    def test_exact_queries_ignore_rng(self):
        assert result_cache_key("sdh", "fp", _req(), 7) == result_cache_key(
            "sdh", "fp", _req(), None
        )

    def test_seeded_approximate_keys_on_rng(self):
        approx = _req(levels=2)
        a = result_cache_key("sdh", "fp", approx, 7)
        b = result_cache_key("sdh", "fp", approx, 8)
        assert a is not None and b is not None and a != b

    def test_unseeded_approximate_is_uncacheable(self):
        assert result_cache_key("sdh", "fp", _req(levels=2), None) is None


class TestStorage:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(("a", "q"), 1)
        cache.put(("b", "q"), 2)
        assert cache.get(("a", "q")) == 1  # refresh 'a'
        cache.put(("c", "q"), 3)  # evicts 'b'
        assert cache.get(("b", "q")) is None
        assert cache.get(("a", "q")) == 1
        assert cache.stats.evictions == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = ResultCache(capacity=4, ttl=10.0, clock=lambda: now[0])
        cache.put(("a", "q"), "v")
        now[0] = 9.0
        assert cache.get(("a", "q")) == "v"
        now[0] = 10.5
        assert cache.get(("a", "q")) is None
        assert cache.stats.expirations == 1
        assert len(cache) == 0

    def test_invalidate_dataset_is_per_fingerprint(self):
        cache = ResultCache(capacity=8)
        cache.put(("a", "q1"), 1)
        cache.put(("a", "q2"), 2)
        cache.put(("b", "q1"), 3)
        assert cache.invalidate_dataset("a") == 2
        assert cache.get(("a", "q1")) is None
        assert cache.get(("b", "q1")) == 3
        assert cache.stats.invalidations == 2

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(capacity=0)
        cache.put(("a", "q"), 1)
        assert cache.get(("a", "q")) is None
        assert len(cache) == 0

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=-1)
        with pytest.raises(ServiceError):
            ResultCache(ttl=0.0)


class TestSingleflight:
    def test_fetch_outcomes(self):
        cache = ResultCache(capacity=4)
        value, outcome = cache.fetch(("a", "q"), lambda: 41)
        assert (value, outcome) == (41, "miss")
        value, outcome = cache.fetch(("a", "q"), lambda: 42)
        assert (value, outcome) == (41, "hit")
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_concurrent_identical_fetches_compute_once(self):
        cache = ResultCache(capacity=4)
        computes = []
        entered = threading.Event()
        n = 8

        def compute():
            computes.append(1)
            entered.set()
            # Hold the computation until every follower is waiting on
            # the in-flight entry, so the coalesce count is exact.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with cache._lock:
                    flight = cache._inflight.get(("a", "q"))
                    if flight is not None and flight.followers == n - 1:
                        break
                time.sleep(0.002)
            return 99

        results = []
        errors = []

        def fetch():
            try:
                results.append(cache.fetch(("a", "q"), compute))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert errors == []
        assert len(computes) == 1
        assert sorted(r[1] for r in results).count("miss") == 1
        assert sum(1 for r in results if r[1] == "coalesced") == n - 1
        assert all(r[0] == 99 for r in results)
        assert cache.stats.coalesced == n - 1
        assert cache._inflight == {}

    def test_leader_error_propagates_to_followers(self):
        cache = ResultCache(capacity=4)
        started = threading.Event()
        release = threading.Event()

        def compute():
            started.set()
            assert release.wait(5.0)
            raise ValueError("shared failure")

        caught = []

        def leader():
            with pytest.raises(ValueError):
                cache.fetch(("a", "q"), compute)

        def follower():
            try:
                cache.fetch(("a", "q"), compute)
            except Exception as exc:
                caught.append(exc)

        lead = threading.Thread(target=leader)
        lead.start()
        assert started.wait(5.0)
        follow = threading.Thread(target=follower)
        follow.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with cache._lock:
                flight = cache._inflight.get(("a", "q"))
                if flight is not None and flight.followers == 1:
                    break
            time.sleep(0.002)
        release.set()
        lead.join(timeout=5.0)
        follow.join(timeout=5.0)
        assert len(caught) == 1
        assert isinstance(caught[0], ValueError)
        # Errors are never cached: the next fetch recomputes.
        assert cache.fetch(("a", "q"), lambda: 7) == (7, "miss")

    def test_follower_wait_timeout(self):
        cache = ResultCache(capacity=4)
        started = threading.Event()
        release = threading.Event()

        def compute():
            started.set()
            release.wait(5.0)
            return 1

        lead = threading.Thread(
            target=lambda: cache.fetch(("a", "q"), compute)
        )
        lead.start()
        try:
            assert started.wait(5.0)
            with pytest.raises(QueryTimeout):
                cache.fetch(("a", "q"), lambda: 2, wait_timeout=0.05)
        finally:
            release.set()
            lead.join(timeout=5.0)

    def test_zero_capacity_still_coalesces(self):
        cache = ResultCache(capacity=0)
        started = threading.Event()
        release = threading.Event()
        results = []

        def compute():
            started.set()
            assert release.wait(5.0)
            return 5

        lead = threading.Thread(
            target=lambda: results.append(cache.fetch(("a", "q"), compute))
        )
        lead.start()
        assert started.wait(5.0)
        follow = threading.Thread(
            target=lambda: results.append(
                cache.fetch(("a", "q"), lambda: 6, wait_timeout=5.0)
            )
        )
        follow.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with cache._lock:
                flight = cache._inflight.get(("a", "q"))
                if flight is not None and flight.followers == 1:
                    break
            time.sleep(0.002)
        release.set()
        lead.join(timeout=5.0)
        follow.join(timeout=5.0)
        assert sorted(r[1] for r in results) == ["coalesced", "miss"]
        assert all(r[0] == 5 for r in results)
        assert len(cache) == 0  # nothing stored

    def test_snapshot_shape(self):
        cache = ResultCache(capacity=3, ttl=60.0)
        cache.fetch(("a", "q"), lambda: 1)
        body = cache.snapshot()
        assert body["size"] == 1
        assert body["capacity"] == 3
        assert body["ttl_seconds"] == 60.0
        assert body["misses"] == 1
        assert body["in_flight"] == 0
        assert body["hit_rate"] == 0.0


# ----------------------------------------------------------------------
# End-to-end over HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dataset():
    from repro.data import uniform

    return uniform(400, dim=2, rng=17)


class TestServerIntegration:
    def test_identical_cold_requests_compute_once(self, dataset):
        """The acceptance criterion: N concurrent identical cold
        requests trigger exactly one histogram computation (coalesce
        counter = N-1), bit-identical to uncached execution."""
        from repro import compute_sdh
        from repro.core.request import SDHRequest as Req

        n = 6
        with SDHService(max_workers=2, max_queue=16) as service:
            state = service.state
            original = state.cache.get_or_build
            computes = []

            def gated_get_or_build(particles):
                computes.append(1)
                # Hold the one computation until all followers have
                # joined the in-flight entry, so the coalesce count is
                # deterministic, then proceed.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    with state.results._lock:
                        flights = list(state.results._inflight.values())
                    if flights and flights[0].followers == n - 1:
                        break
                    time.sleep(0.005)
                return original(particles)

            state.cache.get_or_build = gated_get_or_build
            client = SDHClient(service.url)
            key = client.register(dataset)
            barrier = threading.Barrier(n)
            results = []
            errors = []

            def fire():
                try:
                    barrier.wait(timeout=10.0)
                    results.append(client.sdh(key, num_buckets=32))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert errors == []
            assert len(computes) == 1
            stats = client.stats()
            assert stats["results"]["coalesced"] == n - 1
            assert stats["results"]["misses"] == 1
            assert stats["executor"]["submitted"] == 1
            expected = compute_sdh(
                dataset, request=Req(num_buckets=32).normalize()
            )
            for hist in results:
                np.testing.assert_array_equal(hist.counts, expected.counts)

    def test_repeat_requests_hit_the_result_cache(self, dataset):
        with SDHService(max_workers=2) as service:
            client = SDHClient(service.url)
            key = client.register(dataset)
            first = client._request(
                "POST", "/v1/sdh", {"dataset": key, "num_buckets": 8}
            )
            again = client._request(
                "POST", "/v1/sdh", {"dataset": key, "num_buckets": 8}
            )
            assert first["result_source"] == "miss"
            assert again["result_source"] == "hit"
            assert again["counts"] == first["counts"]
            stats = client.stats()
            assert stats["results"]["hits"] == 1
            assert stats["executor"]["submitted"] == 1

    def test_reregistration_invalidates_results(self, dataset):
        with SDHService(max_workers=2) as service:
            client = SDHClient(service.url)
            key = client.register(dataset)
            client.sdh(key, num_buckets=8)
            assert len(service.state.results) == 1
            client.register(dataset)  # re-register same content
            stats = client.stats()
            assert stats["results"]["invalidations"] == 1
            payload = client._request(
                "POST", "/v1/sdh", {"dataset": key, "num_buckets": 8}
            )
            assert payload["result_source"] == "miss"

    def test_plan_eviction_invalidates_results(self, dataset):
        from repro.data import uniform

        other = uniform(150, dim=2, rng=23)
        config = ServiceConfig(cache_capacity=1, max_workers=2)
        with SDHService(config) as service:
            client = SDHClient(service.url)
            key_a = client.register(dataset)
            client.sdh(key_a, num_buckets=8)
            key_b = client.register(other)
            client.sdh(key_b, num_buckets=8)  # evicts A's plan
            stats = client.stats()
            assert stats["cache"]["evictions"] == 1
            assert stats["results"]["invalidations"] == 1
            resident = list(service.state.results._entries)
            assert all(fp != key_a for fp, _ in resident)

    def test_result_ttl_expires_server_side(self, dataset):
        config = ServiceConfig(max_workers=2, result_ttl=0.05)
        with SDHService(config) as service:
            client = SDHClient(service.url)
            key = client.register(dataset)
            client.sdh(key, num_buckets=8)
            time.sleep(0.1)
            payload = client._request(
                "POST", "/v1/sdh", {"dataset": key, "num_buckets": 8}
            )
            assert payload["result_source"] == "miss"
            assert client.stats()["results"]["expirations"] == 1

    def test_unseeded_approximate_bypasses_cache(self, dataset):
        with SDHService(max_workers=2) as service:
            client = SDHClient(service.url)
            key = client.register(dataset)
            body = {"dataset": key, "num_buckets": 8, "levels": 1}
            first = client._request("POST", "/v1/sdh", body)
            second = client._request("POST", "/v1/sdh", body)
            assert first["result_source"] == "bypass"
            assert second["result_source"] == "bypass"
            stats = client.stats()
            assert stats["results"]["bypassed"] == 2
            assert stats["executor"]["submitted"] == 2
            # A seeded approximate query caches normally.
            seeded = dict(body, rng=11)
            assert client._request(
                "POST", "/v1/sdh", seeded
            )["result_source"] == "miss"
            assert client._request(
                "POST", "/v1/sdh", seeded
            )["result_source"] == "hit"

    def test_batch_shares_the_result_cache(self, dataset):
        with SDHService(max_workers=2) as service:
            client = SDHClient(service.url)
            key = client.register(dataset)
            single = client.sdh(key, num_buckets=8)
            before = client.stats()["executor"]["submitted"]
            batch = client.sdh_batch(
                key, [{"num_buckets": 8}, {"num_buckets": 12}]
            )
            np.testing.assert_array_equal(batch[0].counts, single.counts)
            stats = client.stats()
            # The batch consumed one executor slot but re-used the
            # cached num_buckets=8 result; only num_buckets=12 computed.
            assert stats["executor"]["submitted"] == before + 1
            assert stats["results"]["hits"] == 1
            # ...and the batch-computed result serves later singles.
            assert client._request(
                "POST", "/v1/sdh", {"dataset": key, "num_buckets": 12}
            )["result_source"] == "hit"

    def test_rdf_results_are_cached(self, dataset):
        with SDHService(max_workers=2) as service:
            client = SDHClient(service.url)
            key = client.register(dataset)
            first = client._request(
                "POST", "/v1/rdf", {"dataset": key, "num_buckets": 16}
            )
            again = client._request(
                "POST", "/v1/rdf", {"dataset": key, "num_buckets": 16}
            )
            assert first["result_source"] == "miss"
            assert again["result_source"] == "hit"
            assert again["g"] == first["g"]
            # Different finite-size normalization is a different key.
            shell = client._request(
                "POST", "/v1/rdf",
                {"dataset": key, "num_buckets": 16, "finite_size": "shell"},
            )
            assert shell["result_source"] == "miss"

    def test_disabled_result_cache_still_serves(self, dataset):
        config = ServiceConfig(max_workers=2, result_cache_capacity=0)
        with SDHService(config) as service:
            client = SDHClient(service.url)
            key = client.register(dataset)
            client.sdh(key, num_buckets=8)
            client.sdh(key, num_buckets=8)
            stats = client.stats()
            assert stats["results"]["hits"] == 0
            assert stats["results"]["misses"] == 2
            assert stats["executor"]["submitted"] == 2


# ----------------------------------------------------------------------
# Client socket-timeout regression (satellite bugfix)
# ----------------------------------------------------------------------
class _FakeResponse:
    def __init__(self, body: dict):
        self._body = json.dumps(body).encode("utf-8")

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class TestClientTimeoutStretch:
    def test_socket_timeout_helper(self):
        client = SDHClient("http://localhost:1", timeout=60.0)
        assert client._socket_timeout({}) == 60.0
        # A small server budget never *shrinks* the socket timeout...
        assert client._socket_timeout({"timeout": 1}) == 60.0
        # ...a large one stretches it past the budget (plus slack)...
        assert client._socket_timeout({"timeout": 120}) == 125.0
        # ...and an unlimited budget waits forever.
        assert client._socket_timeout({"timeout": None}) is None

    @pytest.mark.parametrize("endpoint", ["sdh", "batch", "rdf"])
    def test_requests_carry_the_stretched_timeout(
        self, monkeypatch, endpoint
    ):
        """A per-request server budget beyond the socket default must
        stretch the socket timeout — otherwise the client gives up
        first with an opaque URLError instead of QueryTimeout."""
        seen = {}
        hist_body = {
            "edges": [0.0, 1.0],
            "counts": [0],
            "total": 0,
            "num_buckets": 1,
            "approximate": False,
            "engine": "grid",
        }
        bodies = {
            "sdh": dict(hist_body, dataset="fp"),
            "batch": {"dataset": "fp", "count": 1, "results": [hist_body]},
            "rdf": {
                "dataset": "fp", "r": [0.5], "g": [1.0],
                "edges": [0.0, 1.0], "density": 1.0,
                "num_particles": 2, "dim": 2,
            },
        }

        def fake_urlopen(request, timeout=None):
            seen["timeout"] = timeout
            return _FakeResponse(bodies[endpoint])

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = SDHClient("http://localhost:1", timeout=10.0)
        if endpoint == "sdh":
            client.sdh("fp", num_buckets=1, timeout=300)
        elif endpoint == "batch":
            client.sdh_batch("fp", [{"num_buckets": 1}], timeout=300)
        else:
            client.rdf("fp", num_buckets=1, timeout=300)
        assert seen["timeout"] == 305.0
