"""Tests for repro.service.cache (the LRU plan cache)."""

import threading
import time

import pytest

from repro.core.query import SDHQuery, build_plan
from repro.core.request import SDHRequest
from repro.data import uniform
from repro.errors import ServiceError
from repro.service import PlanCache


@pytest.fixture
def datasets():
    return [uniform(60 + 10 * i, dim=2, rng=i) for i in range(4)]


class CountingBuilder:
    """A build_plan wrapper recording every invocation."""

    def __init__(self):
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, particles):
        with self.lock:
            self.calls.append(particles.fingerprint())
        return build_plan(particles)


class TestRequestVariants:
    """Every request on a dataset runs on its one plan."""

    def test_plain_requests_share_the_bare_key(self, datasets):
        cache = PlanCache(capacity=4)
        plan = cache.get_or_build(datasets[0])
        plan.run(SDHRequest(num_buckets=8))
        assert cache.get_or_build(datasets[0]) is plan
        assert cache.keys() == [datasets[0].fingerprint()]

    def test_mbr_request_runs_on_the_plain_plan(self, datasets):
        cache = PlanCache(capacity=4)
        plan = cache.get_or_build(datasets[0])
        plain = plan.run(SDHRequest(num_buckets=8))
        mbr = plan.run(SDHRequest(num_buckets=8, use_mbr=True))
        assert (mbr.counts == plain.counts).all()
        assert cache.keys() == [datasets[0].fingerprint()]
        assert cache.stats.builds == 1


class TestBasics:
    def test_build_on_miss_then_hit(self, datasets):
        builder = CountingBuilder()
        cache = PlanCache(capacity=4, builder=builder)
        plan = cache.get_or_build(datasets[0])
        assert isinstance(plan, SDHQuery)
        again = cache.get_or_build(datasets[0])
        assert again is plan
        assert builder.calls == [datasets[0].fingerprint()]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.builds == 1

    def test_fingerprint_keying_ignores_identity(self, datasets):
        # Equal content in a distinct object must hit, not rebuild.
        builder = CountingBuilder()
        cache = PlanCache(capacity=4, builder=builder)
        cache.get_or_build(uniform(100, dim=2, rng=42))
        cache.get_or_build(uniform(100, dim=2, rng=42))
        assert len(builder.calls) == 1
        assert cache.stats.hits == 1

    def test_distinct_datasets_get_distinct_plans(self, datasets):
        cache = PlanCache(capacity=4)
        plans = [cache.get_or_build(d) for d in datasets]
        assert len({id(p) for p in plans}) == len(datasets)
        assert cache.stats.builds == len(datasets)

    def test_capacity_validation(self):
        with pytest.raises(ServiceError):
            PlanCache(capacity=0)

    def test_contains_len_keys(self, datasets):
        cache = PlanCache(capacity=4)
        cache.get_or_build(datasets[0])
        assert datasets[0].fingerprint() in cache
        assert datasets[1].fingerprint() not in cache
        assert len(cache) == 1
        assert cache.keys() == [datasets[0].fingerprint()]


class TestEviction:
    def test_lru_eviction_order(self, datasets):
        builder = CountingBuilder()
        cache = PlanCache(capacity=2, builder=builder)
        cache.get_or_build(datasets[0])
        cache.get_or_build(datasets[1])
        cache.get_or_build(datasets[0])  # refresh 0; 1 is now LRU
        cache.get_or_build(datasets[2])  # evicts 1
        assert datasets[1].fingerprint() not in cache
        assert datasets[0].fingerprint() in cache
        assert cache.stats.evictions == 1
        # Re-requesting the evicted dataset rebuilds.
        cache.get_or_build(datasets[1])
        assert builder.calls.count(datasets[1].fingerprint()) == 2

    def test_explicit_evict_and_clear(self, datasets):
        cache = PlanCache(capacity=4)
        cache.get_or_build(datasets[0])
        cache.get_or_build(datasets[1])
        assert cache.evict(datasets[0].fingerprint())
        assert not cache.evict(datasets[0].fingerprint())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.evictions == 2

    def test_snapshot_shape(self, datasets):
        cache = PlanCache(capacity=3)
        cache.get_or_build(datasets[0])
        body = cache.snapshot()
        assert body["size"] == 1
        assert body["capacity"] == 3
        assert body["builds"] == 1
        key = datasets[0].fingerprint()
        assert body["plans"][key]["num_particles"] == datasets[0].size
        assert 0.0 <= body["hit_rate"] <= 1.0


class TestConcurrency:
    def test_racing_requests_build_once(self, datasets):
        """N threads racing on a cold key must trigger exactly one build."""
        builder = CountingBuilder()
        cache = PlanCache(capacity=4, builder=builder)
        barrier = threading.Barrier(8)
        plans = []
        plans_lock = threading.Lock()

        def worker():
            barrier.wait()
            plan = cache.get_or_build(datasets[0])
            with plans_lock:
                plans.append(plan)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builder.calls) == 1
        assert len({id(p) for p in plans}) == 1
        assert cache.stats.builds == 1

    def test_concurrent_mixed_keys_prune_build_locks(self, datasets):
        builder = CountingBuilder()
        cache = PlanCache(capacity=len(datasets), builder=builder)
        barrier = threading.Barrier(12)

        def worker(i):
            barrier.wait()
            cache.get_or_build(datasets[i % len(datasets)])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One build per distinct dataset, regardless of interleaving.
        assert sorted(builder.calls) == sorted(
            d.fingerprint() for d in datasets
        )
        assert cache.build_lock_count() == 0


class TestBuildLockHygiene:
    """Regression tests: the per-key build-lock table must track builds
    in flight, not every key ever seen (it used to grow forever)."""

    def test_locks_pruned_after_each_build(self, datasets):
        cache = PlanCache(capacity=len(datasets))
        for data in datasets:
            cache.get_or_build(data)
            assert cache.build_lock_count() == 0
        # Hits never touch the lock table at all.
        cache.get_or_build(datasets[0])
        assert cache.build_lock_count() == 0

    def test_evict_and_clear_leave_no_locks(self, datasets):
        cache = PlanCache(capacity=2)
        for data in datasets:  # forces LRU evictions along the way
            cache.get_or_build(data)
        cache.evict(datasets[-1].fingerprint())
        cache.clear()
        assert cache.build_lock_count() == 0
        assert len(cache._build_locks) == 0

    def test_racing_losers_release_their_refcounts(self, datasets):
        builder = CountingBuilder()
        cache = PlanCache(capacity=4, builder=builder)
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            cache.get_or_build(datasets[0])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builder.calls) == 1
        assert cache.build_lock_count() == 0

    def test_lock_lives_exactly_while_build_is_in_flight(self, datasets):
        started = threading.Event()
        release = threading.Event()

        def slow_builder(particles):
            started.set()
            assert release.wait(timeout=5.0)
            return build_plan(particles)

        cache = PlanCache(capacity=2, builder=slow_builder)
        worker = threading.Thread(
            target=cache.get_or_build, args=(datasets[0],)
        )
        worker.start()
        assert started.wait(timeout=5.0)
        assert cache.build_lock_count() == 1
        # Clearing the plan table mid-build must not strand the lock …
        cache.clear()
        release.set()
        worker.join(timeout=5.0)
        # … and the builder drops it on the way out.
        assert cache.build_lock_count() == 0
        assert datasets[0].fingerprint() in cache

    def test_failed_build_still_releases_lock(self, datasets):
        calls = []

        def flaky_builder(particles):
            calls.append(particles.fingerprint())
            if len(calls) == 1:
                raise RuntimeError("transient build failure")
            return build_plan(particles)

        cache = PlanCache(capacity=2, builder=flaky_builder)
        with pytest.raises(RuntimeError, match="transient"):
            cache.get_or_build(datasets[0])
        assert cache.build_lock_count() == 0
        # The key is not poisoned: the next request simply rebuilds.
        assert cache.get_or_build(datasets[0]) is not None
        assert cache.build_lock_count() == 0


class _SlowDescribePlan:
    """A stand-in plan whose describe() blocks until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def describe(self):
        self.entered.set()
        assert self.release.wait(5.0)
        return {"slow": True}


class TestSnapshotDoesNotStallLookups:
    """Regression test: snapshot() must not hold the cache lock while
    calling plan.describe() — a slow describe would stall every lookup
    (and therefore every query) for the duration of a stats scrape."""

    def test_lookup_proceeds_while_describe_blocks(self):
        plan = _SlowDescribePlan()
        cache = PlanCache(capacity=2, builder=lambda particles: plan)
        particles = uniform(10, dim=2, rng=1)
        cache.get_or_build(particles)

        bodies = []
        scraper = threading.Thread(
            target=lambda: bodies.append(cache.snapshot())
        )
        scraper.start()
        try:
            assert plan.entered.wait(5.0)
            # describe() is blocked mid-snapshot; a lookup must still
            # complete immediately instead of queueing on the lock.
            start = time.monotonic()
            assert cache.get_or_build(particles) is plan
            assert time.monotonic() - start < 1.0
            assert cache.stats.hits == 1
        finally:
            plan.release.set()
            scraper.join(timeout=5.0)
        assert bodies and bodies[0]["plans"] != {}


class TestEvictionCallback:
    def test_capacity_eviction_notifies(self):
        evicted = []
        cache = PlanCache(
            capacity=1,
            builder=lambda particles: object(),
            on_evict=evicted.append,
        )
        a = uniform(10, dim=2, rng=1)
        b = uniform(12, dim=2, rng=2)
        cache.get_or_build(a)
        cache.get_or_build(b)
        assert evicted == [a.fingerprint()]

    def test_explicit_evict_and_clear_notify(self):
        evicted = []
        cache = PlanCache(
            capacity=4,
            builder=lambda particles: object(),
            on_evict=evicted.append,
        )
        a = uniform(10, dim=2, rng=1)
        b = uniform(12, dim=2, rng=2)
        cache.get_or_build(a)
        cache.get_or_build(b)
        assert cache.evict(a.fingerprint())
        assert not cache.evict(a.fingerprint())  # absent: no callback
        cache.clear()
        assert evicted == [a.fingerprint(), b.fingerprint()]
