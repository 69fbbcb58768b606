"""Result cache + request coalescing: the serving tier above the plan cache.

The plan cache (:mod:`repro.service.cache`) amortizes the *index build*
— one density-map pyramid per dataset — but every query still pays its
own histogram computation, even when a byte-identical request was
answered a millisecond ago.  At high QPS two things dominate:

* **repeats** — dashboards and notebooks re-issue the same query; the
  :class:`ResultCache` answers them from an LRU+TTL map of finished
  response bodies, keyed by ``(dataset fingerprint, canonical request)``;
* **stampedes** — N clients issue the same cold query at once; a
  *singleflight* layer (modeled on the plan cache's refcounted build
  locks) lets the first arrival compute while the rest wait on an event
  and share the one result, so N concurrent identical requests trigger
  exactly one histogram computation.

Keys are content-addressed: the dataset part is the
:meth:`~repro.data.particles.ParticleSet.fingerprint` content hash and
the request part is the sorted canonical JSON of
:meth:`SDHRequest.to_dict`, so a cached value can never be *wrong* for
its key — TTL and invalidation (dataset re-registration, plan
eviction) exist to bound memory and staleness policy, not correctness.
Requests whose outcome is not a pure function of the key — approximate
(sampled) queries without an explicit ``rng`` seed — are never cached
or coalesced (:func:`result_cache_key` returns
``None`` and the server bypasses this layer).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from ..core.request import SDHRequest
from ..errors import QueryTimeout, ReproError, ServiceError

__all__ = ["ResultCache", "ResultCacheStats", "result_cache_key"]


def result_cache_key(
    kind: str, fingerprint: str, request: SDHRequest, rng: Any = None
) -> tuple[str, str] | None:
    """The result-cache key for one request, or ``None`` if uncacheable.

    The key is ``(dataset fingerprint, detail)`` where the detail folds
    in the endpoint kind (``"sdh"`` / ``"rdf"``) and the canonical
    sorted-JSON form of the normalized request — so any two wire bodies
    that normalize to
    the same query share one entry, across ``/v1/sdh`` and items of
    ``/v1/sdh/batch`` alike.  Cross-set queries pass a compound
    ``fingerprint`` of the form ``"<fp_a>+<fp_b>"`` (both content
    hashes, with ``dataset_b`` in the request already resolved to
    ``fp_b``), so re-registering *either* operand invalidates the
    entry and two aliases of the same content share one.

    Returns ``None`` — caller must bypass caching *and* coalescing —
    when the response is not a pure function of the key: an approximate
    (sampled) query without an explicit ``rng`` seed, or a request that
    cannot be canonically serialized.
    """
    if request.approximate and rng is None:
        return None
    try:
        payload = json.dumps(
            request.to_dict(), sort_keys=True, separators=(",", ":")
        )
    except (ReproError, TypeError, ValueError):
        return None
    detail = f"{kind}:{payload}"
    if request.approximate:
        detail += f":rng={rng!r}"
    return (fingerprint, detail)


@dataclass
class ResultCacheStats:
    """Counters exposed through ``GET /v1/stats`` and ``GET /metrics``."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    bypassed: int = 0

    @property
    def lookups(self) -> int:
        """Requests that consulted the cache (hits + misses + coalesced)."""
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a new computation."""
        total = self.lookups
        return (self.hits + self.coalesced) / total if total else 0.0

    def snapshot(self) -> dict:
        """A JSON-ready copy of the counters.

        Not synchronized by itself: callers must hold the owning
        :class:`ResultCache`'s lock (as :meth:`ResultCache.snapshot`
        does) or the fields may be read mid-update.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "bypassed": self.bypassed,
            "hit_rate": self.hit_rate,
        }


class _InFlight:
    """One computation in progress plus the waiters sharing its result."""

    __slots__ = ("event", "value", "error", "followers")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None
        self.followers = 0


class ResultCache:
    """Thread-safe LRU + TTL cache of finished responses, with singleflight.

    Parameters
    ----------
    capacity:
        Maximum cached entries; least recently used is evicted first.
        ``0`` disables *storage* — :meth:`fetch` still coalesces
        concurrent identical requests (coalescing is about sharing an
        in-flight computation, not about keeping finished ones).
    ttl:
        Seconds an entry stays servable; ``None`` means no expiry.
        Expiry is lazy (checked at lookup), counted in
        ``stats.expirations``.
    clock:
        Monotonic time source, injectable for TTL tests.
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 0:
            raise ServiceError(
                f"result-cache capacity must be >= 0, got {capacity}"
            )
        if ttl is not None and not ttl > 0:
            raise ServiceError(
                f"result-cache TTL must be positive (or None), got {ttl}"
            )
        self._capacity = capacity
        self._ttl = ttl
        self._clock = clock
        self._entries: OrderedDict[tuple[str, str], tuple[Any, float]] = (
            OrderedDict()
        )
        self._inflight: dict[tuple[str, str], _InFlight] = {}
        self._lock = threading.Lock()
        self.stats = ResultCacheStats()

    @property
    def capacity(self) -> int:
        """Maximum number of cached entries (0 = storage disabled)."""
        return self._capacity

    @property
    def ttl(self) -> float | None:
        """Entry time-to-live in seconds (None = no expiry)."""
        return self._ttl

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def fetch(
        self,
        key: tuple[str, str],
        compute: Callable[[], Any],
        wait_timeout: float | None = None,
    ) -> tuple[Any, str]:
        """The value for ``key``: cached, coalesced, or freshly computed.

        Returns ``(value, outcome)`` with outcome one of ``"hit"``
        (served from cache), ``"coalesced"`` (shared an in-flight
        computation started by another request), or ``"miss"`` (this
        call ran ``compute()``; the result was stored when storage is
        enabled).

        A computation that raises is never cached; the exception
        propagates to the leader *and* to every coalesced waiter — they
        shared the computation, so they share its failure.  A waiter
        that outlives ``wait_timeout`` raises
        :class:`~repro.errors.QueryTimeout` (the leader holds the
        actual server time budget; the waiter's timeout only needs to
        cover it plus scheduling slack).
        """
        with self._lock:
            value = self._lookup_locked(key)
            if value is not _MISSING:
                self.stats.hits += 1
                return value, "hit"
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _InFlight()
                leader = True
                self.stats.misses += 1
            else:
                leader = False
                flight.followers += 1
        if not leader:
            if not flight.event.wait(wait_timeout):
                raise QueryTimeout(
                    "timed out waiting for an identical in-flight query "
                    "to finish"
                )
            with self._lock:
                self.stats.coalesced += 1
            if flight.error is not None:
                raise flight.error
            return flight.value, "coalesced"
        try:
            flight.value = compute()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
                if flight.error is None:
                    self._store_locked(key, flight.value)
            flight.event.set()
        return flight.value, "miss"

    def get(self, key: tuple[str, str]) -> Any:
        """Lookup only (used by the batch endpoint): value or ``None``.

        Counts a hit or a miss; refreshes LRU order on hit.
        """
        with self._lock:
            value = self._lookup_locked(key)
            if value is _MISSING:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return value

    def put(self, key: tuple[str, str], value: Any) -> None:
        """Store one finished value (no-op when storage is disabled)."""
        with self._lock:
            self._store_locked(key, value)

    def count_bypass(self) -> None:
        """Record one request that legitimately skipped this layer."""
        with self._lock:
            self.stats.bypassed += 1

    # ------------------------------------------------------------------
    def invalidate_dataset(self, fingerprint: str) -> int:
        """Drop every entry for one dataset fingerprint; returns the count.

        Called when a dataset is (re-)registered and when the plan cache
        evicts the dataset's pyramid.  Keys are content-addressed, so
        this is a memory/staleness policy, not a correctness requirement
        — an in-flight computation racing this call may still store its
        (correct) result afterwards.

        Cross-set entries carry a compound ``"<fp_a>+<fp_b>"``
        fingerprint; they are dropped when *either* operand matches.
        """
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if fingerprint in key[0].split("+")
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready state: counters, size, capacity, TTL, in-flight."""
        with self._lock:
            body = self.stats.snapshot()
            body["size"] = len(self._entries)
            body["capacity"] = self._capacity
            body["ttl_seconds"] = self._ttl
            body["in_flight"] = len(self._inflight)
            return body

    # ------------------------------------------------------------------
    def _lookup_locked(self, key: tuple[str, str]) -> Any:
        entry = self._entries.get(key)
        if entry is None:
            return _MISSING
        value, stamp = entry
        if self._ttl is not None and self._clock() - stamp > self._ttl:
            del self._entries[key]
            self.stats.expirations += 1
            return _MISSING
        self._entries.move_to_end(key)
        return value

    def _store_locked(self, key: tuple[str, str], value: Any) -> None:
        if self._capacity <= 0:
            return
        self._entries[key] = (value, self._clock())
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


#: Sentinel distinguishing "no entry" from a cached ``None``.
_MISSING = object()
