"""Concurrency regression: the service primitives under verify load.

PR 4 fixed refcount and permit leaks in the plan cache's build locks
and the executor's admission semaphore.  This test hammers both from
many threads *while a verify run streams differential requests through
the engines*, then asserts every resource returns to its resting
state: zero live build locks, zero in-flight queries, and the full
admission capacity reacquirable (no leaked permits).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.request import SDHRequest
from repro.data.generators import uniform
from repro.service.cache import PlanCache
from repro.service.executor import QueryExecutor
from repro.verify import generate_case, evaluate_case

THREADS = 10
ROUNDS = 12


def test_cache_and_executor_under_verify_load():
    datasets = [uniform(60 + 20 * i, dim=2, rng=i) for i in range(6)]
    cache = PlanCache(capacity=3)
    executor = QueryExecutor(max_workers=4, max_queue=THREADS * ROUNDS)
    start = threading.Barrier(THREADS + 1)
    errors: list[BaseException] = []

    def hammer(worker: int) -> None:
        try:
            start.wait(timeout=30)
            for round_no in range(ROUNDS):
                data = datasets[(worker + round_no) % len(datasets)]
                request = SDHRequest(num_buckets=4 + round_no % 5)

                def query(data=data, request=request):
                    plan = cache.get_or_build(data)
                    return plan.run(request)

                histogram = executor.submit(query, timeout=60)
                assert histogram.total == data.num_pairs
                if round_no % 4 == 3:
                    # Evictions force rebuilds, keeping the build-lock
                    # table hot instead of letting it settle.
                    cache.evict(data.fingerprint())
        except BaseException as exc:  # noqa: BLE001 - collected for report
            errors.append(exc)

    workers = [
        threading.Thread(target=hammer, args=(i,)) for i in range(THREADS)
    ]
    for thread in workers:
        thread.start()

    # Meanwhile the verify harness streams requests through every
    # engine on the main thread — the realistic "verify run during
    # service load" interleaving.
    start.wait(timeout=30)
    for seed in range(4):
        assert evaluate_case(generate_case(seed), workers=2) == []

    for thread in workers:
        thread.join(timeout=120)
        assert not thread.is_alive(), "hammer thread hung"
    assert errors == []

    # Resting state: no refcounted build locks left behind...
    assert cache.build_lock_count() == 0
    # ...no queries still admitted...
    assert executor.in_flight == 0
    # ...and the full admission capacity is reacquirable, which fails
    # if any code path leaked a permit.
    capacity = executor.max_workers + executor.max_queue
    acquired = 0
    try:
        for _ in range(capacity):
            assert executor._admission.acquire(blocking=False)
            acquired += 1
        assert not executor._admission.acquire(blocking=False)
    finally:
        for _ in range(acquired):
            executor._admission.release()
    executor.shutdown()


def test_plan_cache_build_lock_settles_after_exceptions():
    """A builder that throws must still drop its build-lock entry."""

    class Boom(RuntimeError):
        pass

    calls = {"n": 0}

    def failing_builder(particles, request=None):
        calls["n"] += 1
        raise Boom("planted build failure")

    cache = PlanCache(capacity=2, builder=failing_builder)
    data = uniform(30, dim=2, rng=0)
    for _ in range(3):
        with pytest.raises(Boom):
            cache.get_or_build(data)
    assert calls["n"] == 3
    assert cache.build_lock_count() == 0
