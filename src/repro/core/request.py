"""The one canonical description of an SDH query: :class:`SDHRequest`.

Historically :func:`repro.core.query.compute_sdh` took ~16 loose keyword
arguments, and every layer that carried a query (CLI, HTTP service, plan
cache) re-validated and re-plumbed them independently.  ``SDHRequest``
replaces that with a single frozen dataclass that

* captures the *full* query — bucket spec, engine, region, type
  filters, approximation budget, overflow policy, periodic boundaries,
  and the parallel worker count;
* validates once (:meth:`validate` / :meth:`normalize`), so the same
  error surfaces identically from the library, the CLI, and the wire;
* round-trips through JSON (:meth:`to_dict` / :meth:`from_dict`), which
  is exactly what the HTTP service speaks — the server builds a request
  straight from the POST body with no hand-mapping.

Runtime-only concerns stay *out* of the request: an
:class:`~repro.core.instrumentation.SDHStats` sink and an ``rng`` are
call-time arguments of :func:`~repro.core.query.compute_sdh` and
:meth:`~repro.core.query.SDHQuery.run`, because they are not part of
the query's identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..errors import BucketSpecError, QueryError
from ..geometry import AABB, BallRegion, RectRegion, Region, UnionRegion
from .buckets import BucketSpec, CustomBuckets, OverflowPolicy, UniformBuckets
from .heuristics import Allocator

__all__ = ["SDHRequest"]


@dataclass(frozen=True)
class SDHRequest:
    """A complete, immutable SDH query description.

    Exactly one of ``bucket_width`` / ``spec`` / ``num_buckets`` must be
    given (the three parameterizations of the paper's standard query).
    Everything else defaults to the plain exact query.

    Parameters
    ----------
    bucket_width / spec / num_buckets:
        The bucket parameterization: a width ``p``, a full
        :class:`~repro.core.buckets.BucketSpec`, or a total count ``l``.
    engine:
        ``"auto"`` or a registered engine name (see
        :mod:`repro.core.engines`).  ``"auto"`` resolves to the
        vectorized grid engine, or to the multi-core parallel engine
        when ``workers`` asks for more than one process.
    use_mbr:
        Resolve cells via particle MBRs (Sec. III-C.3 optimization).
    region / type_filter / type_pair:
        The restricted query varieties of Sec. III-C.3.
    error_bound / levels / heuristic:
        The ADM-SDH approximation budget (Sec. V).
    policy:
        Overflow handling for distances past the last edge.
    periodic:
        Minimum-image distances over the simulation box.
    workers:
        Process count for the parallel engine; ``None`` leaves the
        choice to the engine (CPU count).  ``workers=1`` is the inline
        single-core path.
    latency_budget_ms:
        Wall-clock SLO: the cost-based planner must pick a strategy
        predicted to finish within this many milliseconds, or reject
        the query with :class:`~repro.errors.SLOInfeasibleError`.
        Requires ``planner="auto"``.
    planner:
        ``"auto"`` lets the cost-based planner choose the execution
        strategy for ``engine="auto"`` requests (and enforce any
        latency budget); ``"off"`` restores the static resolution rule
        (grid, or parallel when ``workers > 1``).
    kernel:
        The leaf-resolution kernel tier (see :mod:`repro.kernels`):
        ``"auto"`` picks the fastest available backend (numba when
        installed, numpy otherwise); ``"numpy"`` / ``"numba"`` pin one.
        Pinning ``"numba"`` on a host without numba is rejected by the
        engine capability check.
    weights:
        Optional per-particle weights for the (first) dataset, one
        float per particle; a pair then contributes ``w_i * w_j`` to
        its bucket instead of 1.  Overrides any weights the dataset
        itself carries.  Must be finite; zero and negative values are
        allowed.  Incompatible with approximate mode (the allocator
        distributes float shares, which cannot stay exact).
    dataset_b:
        Reference to a second dataset, turning the query into a
        *cross-set* SDH: one histogram of all ``|A| * |B|`` distances
        between the two sets (both must share a simulation box).  Over
        the wire this is the registered dataset's fingerprint; at the
        library level :func:`~repro.core.query.compute_sdh` takes the
        resolved :class:`~repro.data.particles.ParticleSet` as ``b=``.
        Incompatible with region/type restrictions and approximate
        mode.
    """

    bucket_width: float | None = None
    spec: BucketSpec | None = None
    num_buckets: int | None = None
    engine: str = "auto"
    use_mbr: bool = False
    region: Region | None = None
    type_filter: int | str | None = None
    type_pair: tuple[int | str, int | str] | None = None
    error_bound: float | None = None
    levels: int | None = None
    heuristic: int | str | Allocator = 3
    policy: OverflowPolicy = OverflowPolicy.RAISE
    periodic: bool = False
    workers: int | None = None
    latency_budget_ms: float | None = None
    planner: str = "auto"
    kernel: str = "auto"
    weights: tuple[float, ...] | None = None
    dataset_b: str | None = None

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def approximate(self) -> bool:
        """Whether this request runs ADM-SDH (Sec. V)."""
        return self.error_bound is not None or self.levels is not None

    @property
    def cross(self) -> bool:
        """Whether this is a two-dataset cross-set query."""
        return self.dataset_b is not None

    @property
    def restricted(self) -> bool:
        """Whether this is a region- or type-restricted query."""
        return (
            self.region is not None
            or self.type_filter is not None
            or self.type_pair is not None
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def normalize(self) -> "SDHRequest":
        """Coerce loosely-typed fields and validate.

        Accepts the spellings that arrive over the wire — a policy name
        string, a two-element list for ``type_pair``, a float-ish
        ``workers`` — and returns an equivalent request with canonical
        field types.  Raises :class:`~repro.errors.QueryError` on
        anything inconsistent.
        """
        changes: dict = {}
        if isinstance(self.policy, str):
            try:
                changes["policy"] = OverflowPolicy[self.policy.upper()]
            except KeyError:
                names = [p.name.lower() for p in OverflowPolicy]
                raise QueryError(
                    f"unknown overflow policy {self.policy!r}; "
                    f"pick from {names}"
                )
        if self.type_pair is not None and not isinstance(
            self.type_pair, tuple
        ):
            changes["type_pair"] = tuple(self.type_pair)
        if self.engine is not None and self.engine != self.engine.lower():
            changes["engine"] = self.engine.lower()
        if self.workers is not None and not isinstance(self.workers, int):
            changes["workers"] = int(self.workers)
        if self.levels is not None and not isinstance(self.levels, int):
            changes["levels"] = int(self.levels)
        if isinstance(self.planner, str) and self.planner != self.planner.lower():
            changes["planner"] = self.planner.lower()
        if isinstance(self.kernel, str) and self.kernel != self.kernel.lower():
            changes["kernel"] = self.kernel.lower()
        if self.latency_budget_ms is not None and not isinstance(
            self.latency_budget_ms, float
        ):
            changes["latency_budget_ms"] = float(self.latency_budget_ms)
        if self.weights is not None and not (
            isinstance(self.weights, tuple)
            and all(isinstance(w, float) for w in self.weights)
        ):
            try:
                changes["weights"] = tuple(
                    float(w) for w in np.asarray(self.weights).ravel()
                )
            except (TypeError, ValueError):
                raise QueryError(
                    "weights must be a sequence of numbers, "
                    f"got {self.weights!r}"
                )
        request = self.replace(**changes) if changes else self
        request.validate()
        return request

    def validate(self) -> "SDHRequest":
        """Structural consistency checks; returns self when valid.

        This is the *single* validation path shared by
        :func:`~repro.core.query.compute_sdh`, the plan cache, the CLI,
        and the HTTP service — engine-specific capability checks (e.g.
        "the node tree is non-periodic") live in the engine registry,
        not here.
        """
        given = sum(
            value is not None
            for value in (self.bucket_width, self.spec, self.num_buckets)
        )
        if given != 1:
            raise QueryError(
                "provide exactly one of bucket_width / spec / num_buckets"
            )
        if self.bucket_width is not None and not (
            np.isfinite(self.bucket_width) and self.bucket_width > 0
        ):
            raise BucketSpecError(
                f"bucket_width must be finite and positive, "
                f"got {self.bucket_width}"
            )
        if self.num_buckets is not None and self.num_buckets < 1:
            raise BucketSpecError(
                f"a histogram needs at least one bucket, "
                f"got num_buckets={self.num_buckets}"
            )
        if self.spec is not None and not isinstance(self.spec, BucketSpec):
            raise QueryError(
                f"spec must be a BucketSpec, got {type(self.spec).__name__}"
            )
        if not isinstance(self.engine, str) or not self.engine:
            raise QueryError("engine must be a non-empty string")
        if self.type_pair is not None and len(self.type_pair) != 2:
            raise QueryError("type_pair must name exactly two types")
        if self.region is not None and not isinstance(self.region, Region):
            raise QueryError(
                f"region must be a Region, got {type(self.region).__name__}"
            )
        if not isinstance(self.policy, OverflowPolicy):
            raise QueryError(
                f"policy must be an OverflowPolicy, got {self.policy!r}"
            )
        if self.approximate and self.restricted:
            raise QueryError("approximate restricted queries are not supported")
        if self.error_bound is not None and not (
            np.isfinite(self.error_bound) and self.error_bound > 0
        ):
            raise QueryError(
                f"error_bound must be finite and positive, "
                f"got {self.error_bound}"
            )
        if self.levels is not None and self.levels < 0:
            raise QueryError(f"levels must be >= 0, got {self.levels}")
        if self.workers is not None and self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {self.workers}")
        if self.use_mbr and self.periodic:
            raise QueryError(
                "MBR resolution is not defined under periodic boundaries"
            )
        if self.planner not in ("auto", "off"):
            raise QueryError(
                f"planner must be 'auto' or 'off', got {self.planner!r}"
            )
        from ..kernels import KERNEL_TIERS

        if self.kernel not in ("auto", *KERNEL_TIERS):
            raise QueryError(
                f"kernel must be one of {('auto', *KERNEL_TIERS)}, "
                f"got {self.kernel!r}"
            )
        if self.latency_budget_ms is not None:
            if not (
                np.isfinite(self.latency_budget_ms)
                and self.latency_budget_ms > 0
            ):
                raise QueryError(
                    f"latency_budget_ms must be finite and positive, "
                    f"got {self.latency_budget_ms}"
                )
            if self.planner == "off":
                raise QueryError(
                    "latency_budget_ms needs the planner; "
                    "it cannot be combined with planner='off'"
                )
        if self.weights is not None:
            if not isinstance(self.weights, tuple) or not self.weights:
                raise QueryError(
                    "weights must be a non-empty sequence of numbers"
                )
            arr = np.asarray(self.weights, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise QueryError("weights must all be finite")
            if self.approximate:
                raise QueryError(
                    "weighted queries cannot run in approximate mode "
                    "(fractional allocation is not exact)"
                )
        if self.dataset_b is not None:
            if not isinstance(self.dataset_b, str) or not self.dataset_b:
                raise QueryError("dataset_b must be a non-empty string")
            if self.restricted:
                raise QueryError(
                    "cross-set queries cannot be combined with region "
                    "or type restrictions"
                )
            if self.approximate:
                raise QueryError(
                    "cross-set queries cannot run in approximate mode"
                )
        return self

    def replace(self, **changes) -> "SDHRequest":
        """A copy of this request with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Resolution against a dataset
    # ------------------------------------------------------------------
    def resolved_spec(self, particles) -> BucketSpec:
        """The concrete :class:`BucketSpec` this request means for a dataset.

        ``bucket_width`` and ``num_buckets`` parameterizations cover the
        box diagonal (or the half-diagonal reach under periodic
        boundaries); an explicit ``spec`` is returned as-is.
        """
        if self.spec is not None:
            return self.spec
        if self.periodic:
            reach = particles.max_periodic_distance
        else:
            reach = particles.max_possible_distance
        if self.bucket_width is not None:
            return UniformBuckets.cover(reach, self.bucket_width)
        if self.num_buckets is None:
            raise QueryError(
                "provide exactly one of bucket_width / spec / num_buckets"
            )
        return UniformBuckets.with_count(reach, self.num_buckets)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    @classmethod
    def json_field_names(cls) -> frozenset[str]:
        """Field names accepted by :meth:`from_dict` (the wire vocabulary)."""
        return frozenset(f.name for f in dataclasses.fields(cls))

    def to_dict(self) -> dict:
        """A JSON-ready dict; defaults are omitted for compactness.

        Raises :class:`~repro.errors.QueryError` when the request holds
        a non-serializable value (an :class:`Allocator` instance as the
        heuristic, or a custom :class:`Region` subclass).
        """
        body: dict = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value == field.default and not isinstance(value, np.ndarray):
                continue
            if field.name == "spec":
                value = _spec_to_json(value)
            elif field.name == "region":
                value = _region_to_json(value)
            elif field.name == "policy":
                value = value.name.lower()
            elif field.name == "heuristic":
                if isinstance(value, Allocator):
                    raise QueryError(
                        "an Allocator instance cannot be serialized; "
                        "use a heuristic number or name"
                    )
            body[field.name] = value
        return body

    @classmethod
    def from_dict(cls, body: dict) -> "SDHRequest":
        """Build (and normalize) a request from a JSON-shaped dict.

        Unknown keys raise :class:`~repro.errors.QueryError` listing
        the accepted vocabulary, so typos fail loudly at the edge.
        """
        if not isinstance(body, dict):
            raise QueryError("an SDH request must be a JSON object")
        allowed = cls.json_field_names()
        unknown = set(body) - allowed
        if unknown:
            raise QueryError(
                f"unknown query parameters: {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        payload = dict(body)
        if payload.get("spec") is not None:
            payload["spec"] = _spec_from_json(payload["spec"])
        if payload.get("region") is not None:
            payload["region"] = _region_from_json(payload["region"])
        return cls(**payload).normalize()


# ----------------------------------------------------------------------
# Spec / region (de)serialization helpers
# ----------------------------------------------------------------------
def _spec_to_json(spec: BucketSpec | None) -> dict | None:
    if spec is None:
        return None
    if isinstance(spec, UniformBuckets):
        return {
            "kind": "uniform",
            "width": spec.width,
            "num_buckets": spec.num_buckets,
        }
    if isinstance(spec, CustomBuckets):
        return {"kind": "custom", "edges": spec.edges.tolist()}
    raise QueryError(
        f"cannot serialize bucket spec of type {type(spec).__name__}"
    )


def _finite(value, what: str) -> float:
    """``float(value)``, rejecting NaN/inf with a :class:`QueryError`.

    JSON has no literal for them, but Python's parser (and our own
    loose callers) accept ``float("nan")`` — which would silently
    corrupt bucket edges and region bounds downstream.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise QueryError(f"{what} must be a number, got {value!r}")
    if not np.isfinite(number):
        raise QueryError(f"{what} must be finite, got {number}")
    return number


def _spec_from_json(body) -> BucketSpec:
    if isinstance(body, BucketSpec):
        return body
    if not isinstance(body, dict) or "kind" not in body:
        raise QueryError(
            "spec must be {'kind': 'uniform'|'custom', ...}"
        )
    kind = body["kind"]
    if kind == "uniform":
        return UniformBuckets(
            _finite(body["width"], "spec width"), int(body["num_buckets"])
        )
    if kind == "custom":
        return CustomBuckets(
            [_finite(e, "spec edge") for e in body["edges"]]
        )
    raise QueryError(f"unknown bucket spec kind {kind!r}")


def _region_to_json(region: Region | None) -> dict | None:
    if region is None:
        return None
    if isinstance(region, RectRegion):
        return {
            "kind": "rect",
            "lo": list(region.box.lo),
            "hi": list(region.box.hi),
        }
    if isinstance(region, BallRegion):
        return {
            "kind": "ball",
            "center": list(region.center),
            "radius": region.radius,
        }
    if isinstance(region, UnionRegion):
        return {
            "kind": "union",
            "members": [_region_to_json(m) for m in region.members],
        }
    raise QueryError(
        f"cannot serialize region of type {type(region).__name__}"
    )


def _region_from_json(body) -> Region:
    if isinstance(body, Region):
        return body
    if not isinstance(body, dict) or "kind" not in body:
        raise QueryError(
            "region must be {'kind': 'rect'|'ball'|'union', ...}"
        )
    kind = body["kind"]
    if kind == "rect":
        return RectRegion(
            AABB(
                tuple(_finite(v, "region lo") for v in body["lo"]),
                tuple(_finite(v, "region hi") for v in body["hi"]),
            )
        )
    if kind == "ball":
        return BallRegion(
            [_finite(v, "region center") for v in body["center"]],
            _finite(body["radius"], "region radius"),
        )
    if kind == "union":
        return UnionRegion(
            [_region_from_json(m) for m in body["members"]]
        )
    raise QueryError(f"unknown region kind {kind!r}")
