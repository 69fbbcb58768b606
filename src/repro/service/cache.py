"""LRU plan cache: one pyramid build per dataset, shared across queries.

Building the density-map pyramid is the expensive, once-per-dataset part
of answering SDH queries (the paper's Sec. III-C.1 storage discussion
assumes the quadtree is a persistent index).  :class:`PlanCache` maps a
dataset content fingerprint (:meth:`ParticleSet.fingerprint`) to a built
:class:`~repro.core.query.SDHQuery` plan, evicting least-recently-used
plans past a capacity bound.

Concurrency contract: lookups are serialized by a short critical
section; *builds* are serialized per key, so N requests racing on a cold
dataset trigger exactly one pyramid build (the acceptance criterion of
the service layer) while builds for distinct datasets proceed in
parallel.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..core.query import SDHQuery, build_plan
from ..data.particles import ParticleSet
from ..errors import ServiceError

__all__ = ["CacheStats", "PlanCache"]


@dataclass
class CacheStats:
    """Counters exposed through ``GET /v1/stats``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    builds: int = 0

    @property
    def lookups(self) -> int:
        """Total cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a build (0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready copy of the counters.

        Not synchronized by itself: callers must hold the owning
        :class:`PlanCache`'s lock (as :meth:`PlanCache.snapshot` does)
        or the fields may be read mid-update.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "builds": self.builds,
            "hit_rate": self.hit_rate,
        }


class _BuildLockEntry:
    """One per-key build lock plus the number of builders using it.

    The refcount ties the entry's lifetime to in-flight builds: evicting
    or clearing the *plan* while a build races on the same key cannot
    strand (or prematurely drop) the lock, because the last builder out
    removes the entry itself.
    """

    __slots__ = ("lock", "waiters")

    def __init__(self):
        self.lock = threading.Lock()
        self.waiters = 0


class PlanCache:
    """Thread-safe LRU cache of built :class:`SDHQuery` plans.

    Parameters
    ----------
    capacity:
        Maximum number of plans held; the least recently *used* plan is
        evicted when a build would exceed it.
    builder:
        Plan factory, defaulting to :func:`~repro.core.query.build_plan`.
        Tests substitute counting builders here.
    on_evict:
        Optional callback invoked with each evicted cache key (after
        the cache lock is released, so it may take other locks).  The
        server uses it to invalidate the result cache when a dataset's
        pyramid is dropped.
    """

    def __init__(
        self,
        capacity: int = 8,
        builder: Callable[[ParticleSet], SDHQuery] = build_plan,
        on_evict: Callable[[str], None] | None = None,
    ):
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._builder = builder
        self._on_evict = on_evict
        self._plans: OrderedDict[str, SDHQuery] = OrderedDict()
        self._lock = threading.Lock()
        self._build_locks: dict[str, _BuildLockEntry] = {}
        self.stats = CacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of cached plans."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._plans

    def keys(self) -> list[str]:
        """Cached fingerprints, least recently used first."""
        with self._lock:
            return list(self._plans)

    # ------------------------------------------------------------------
    def get_or_build(self, particles: ParticleSet) -> SDHQuery:
        """The plan for ``particles``, building it on first sight.

        Keyed by content fingerprint: re-registering byte-identical data
        under a different name still hits the same plan.  One plan
        answers every request on its dataset (MBRs are pooled on first
        use), so there is one key per dataset.
        """
        key = particles.fingerprint()
        plan = self._lookup(key)
        if plan is not None:
            return plan
        # Serialize builds per key: the loser of the race finds the
        # winner's plan on its second lookup instead of rebuilding.
        # Locks are refcounted by in-flight builders and dropped when
        # the last one leaves, so the lock table tracks *builds in
        # progress*, not every key ever seen — a server facing millions
        # of distinct datasets does not grow it without bound.
        build_lock = self._build_lock_for(key)
        try:
            with build_lock:
                plan = self._lookup(key, count=False)
                if plan is not None:
                    return plan
                built = self._builder(particles)
                self._insert(key, built)
                return built
        finally:
            self._release_build_lock(key)

    def peek(self, key: str) -> SDHQuery | None:
        """The cached plan for a fingerprint, without counting a lookup.

        Does not refresh LRU order; returns None on a miss instead of
        building (the server uses this to answer stats queries).
        """
        with self._lock:
            return self._plans.get(key)

    def evict(self, key: str) -> bool:
        """Drop one plan; True when it was present."""
        with self._lock:
            present = key in self._plans
            if present:
                del self._plans[key]
                self.stats.evictions += 1
        if present:
            self._notify_evicted([key])
        return present

    def clear(self) -> None:
        """Drop every cached plan (counters are preserved)."""
        with self._lock:
            evicted = list(self._plans)
            self.stats.evictions += len(self._plans)
            self._plans.clear()
        self._notify_evicted(evicted)

    def snapshot(self) -> dict:
        """JSON-ready state: counters, size, capacity, resident keys.

        ``plan.describe()`` can be arbitrarily slow for large pyramids,
        so only the counters and the plan *references* are copied under
        the cache lock; the describe calls run outside it — a
        ``GET /v1/stats`` scrape never stalls concurrent lookups.
        """
        with self._lock:
            body = self.stats.snapshot()
            body["size"] = len(self._plans)
            body["capacity"] = self._capacity
            resident = list(self._plans.items())
        body["plans"] = {key: plan.describe() for key, plan in resident}
        return body

    # ------------------------------------------------------------------
    def _lookup(self, key: str, count: bool = True) -> SDHQuery | None:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                if count:
                    self.stats.hits += 1
            elif count:
                self.stats.misses += 1
            return plan

    def _build_lock_for(self, key: str) -> threading.Lock:
        with self._lock:
            entry = self._build_locks.get(key)
            if entry is None:
                entry = self._build_locks[key] = _BuildLockEntry()
            entry.waiters += 1
            return entry.lock

    def _release_build_lock(self, key: str) -> None:
        with self._lock:
            entry = self._build_locks.get(key)
            if entry is None:  # pragma: no cover - defensive
                return
            entry.waiters -= 1
            if entry.waiters <= 0:
                del self._build_locks[key]

    def build_lock_count(self) -> int:
        """Build locks currently held or awaited (leak-check hook:
        returns to 0 once no build is in flight)."""
        with self._lock:
            return len(self._build_locks)

    def _insert(self, key: str, plan: SDHQuery) -> None:
        evicted: list[str] = []
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            self.stats.builds += 1
            while len(self._plans) > self._capacity:
                dropped, _ = self._plans.popitem(last=False)
                evicted.append(dropped)
                self.stats.evictions += 1
        self._notify_evicted(evicted)

    def _notify_evicted(self, keys: list[str]) -> None:
        if self._on_evict is None:
            return
        for key in keys:
            self._on_evict(key)
