"""Capability-based SDH engine registry.

The dispatch in :mod:`repro.core.query` used to be a hard-coded tuple
of names plus an if-chain of ``raise QueryError`` branches; adding an
engine meant editing the dispatcher.  This module turns both into data:

* an engine registers itself with :func:`register_engine`, supplying a
  runner and an :class:`EngineCapabilities` record;
* :func:`get_engine` resolves a name (or fails listing what exists);
* :meth:`Engine.check` rejects a request that asks for a feature the
  engine lacks, with one uniform error message.

The runner protocol is

``run(particles, request, spec, *, stats, rng) -> DistanceHistogram``

where ``request`` is a normalized :class:`~repro.core.request.SDHRequest`
and ``spec`` its resolved :class:`~repro.core.buckets.BucketSpec`.
Both :func:`~repro.core.query.compute_sdh` and
:meth:`~repro.core.query.SDHQuery.run` call ``engine.run``; there is no
other dispatch.  The built-in runners also take an optional
``index=`` keyword: a prebuilt :class:`~repro.quadtree.grid.GridPyramid`
(grid, parallel) or :class:`~repro.quadtree.tree.DensityMapTree`
(tree) over ``particles``, which a reusable plan passes so the query
skips re-indexing.  Only the built-in runners are ever handed an
index, so a runner written to the protocol above needs no such
keyword.  The built-in engines (brute / tree / grid / parallel) are
registered by :mod:`repro.core.query` at import time; external code
can plug in more without touching the dispatcher.

Capabilities are per-feature ``supports_*`` flags plus the engine's
:attr:`~EngineCapabilities.kernel_tiers` — the leaf-resolution backends
(:mod:`repro.kernels`) the engine can execute with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import QueryError
from ..kernels import KERNEL_TIERS

__all__ = [
    "EngineCapabilities",
    "Engine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "available_engines",
]


@dataclass(frozen=True)
class EngineCapabilities:
    """What query varieties an engine supports.

    Each flag guards one :class:`~repro.core.request.SDHRequest`
    feature; :meth:`Engine.check` compares the request against these and
    raises a single :class:`~repro.errors.QueryError` naming every
    unsupported feature at once.  :attr:`kernel_tiers` lists the
    leaf-resolution backends the engine can run with (see
    :mod:`repro.kernels`); a request pinning ``kernel=`` to a tier the
    engine does not advertise is rejected the same way.
    """

    supports_periodic: bool = False
    supports_region: bool = False
    supports_type_filter: bool = False
    supports_type_pair: bool = False
    supports_approximate: bool = False
    supports_mbr: bool = False
    supports_workers: bool = False
    supports_weights: bool = False
    supports_cross: bool = False
    kernel_tiers: tuple[str, ...] = ("numpy",)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kernel_tiers", _normalize_tiers(self.kernel_tiers)
        )


def _normalize_tiers(tiers: Iterable[str]) -> tuple[str, ...]:
    """Validate and canonicalize a kernel-tier declaration."""
    if isinstance(tiers, str):
        tiers = (tiers,)
    seen: list[str] = []
    for tier in tiers:
        name = str(tier).lower()
        if name not in KERNEL_TIERS:
            raise QueryError(
                f"unknown kernel tier {tier!r} in EngineCapabilities; "
                f"known tiers: {KERNEL_TIERS}"
            )
        if name not in seen:
            seen.append(name)
    if not seen:
        raise QueryError(
            "EngineCapabilities.kernel_tiers must name at least one tier"
        )
    if "numpy" not in seen:
        raise QueryError(
            "EngineCapabilities.kernel_tiers must include the 'numpy' "
            "fallback tier"
        )
    return tuple(seen)


@dataclass(frozen=True)
class Engine:
    """A registered engine: a name, a runner, and its capabilities."""

    name: str
    run: Callable
    capabilities: EngineCapabilities = field(
        default_factory=EngineCapabilities
    )

    def check(
        self, request, weighted: bool = False, cross: bool = False
    ) -> None:
        """Raise :class:`QueryError` if the request needs missing features.

        ``weighted`` lets the dispatcher flag a dataset that carries
        per-particle weights even when the request itself has none (the
        request's ``weights`` field is only the per-call override);
        ``cross`` likewise flags a second operand supplied directly to
        :func:`~repro.core.query.compute_sdh` without a wire-level
        ``dataset_b`` name.
        """
        caps = self.capabilities
        missing = []
        if (
            weighted or getattr(request, "weights", None) is not None
        ) and not caps.supports_weights:
            missing.append("weighted datasets")
        if (
            cross or getattr(request, "dataset_b", None) is not None
        ) and not caps.supports_cross:
            missing.append("cross-set queries")
        if request.periodic and not caps.supports_periodic:
            missing.append("periodic boundaries")
        if request.region is not None and not caps.supports_region:
            missing.append("region-restricted queries")
        if (
            request.type_filter is not None
            and not caps.supports_type_filter
        ):
            missing.append("type-restricted queries")
        if request.type_pair is not None and not caps.supports_type_pair:
            missing.append("type-pair-restricted queries")
        if request.approximate and not caps.supports_approximate:
            missing.append("approximate mode")
        if request.use_mbr and not caps.supports_mbr:
            missing.append("MBR resolution")
        if (
            request.workers is not None
            and request.workers > 1
            and not caps.supports_workers
        ):
            missing.append("multi-process workers")
        kernel = getattr(request, "kernel", "auto")
        if kernel != "auto" and kernel not in caps.kernel_tiers:
            missing.append(f"kernel tier {kernel!r}")
        if missing:
            raise QueryError(
                f"engine {self.name!r} does not support "
                + ", ".join(missing)
            )


_REGISTRY: dict[str, Engine] = {}


def register_engine(
    name: str,
    run: Callable,
    capabilities: EngineCapabilities | None = None,
    replace: bool = False,
) -> Engine:
    """Register an engine under ``name`` and return the registry entry.

    ``capabilities`` must be an :class:`EngineCapabilities`; its
    kernel-tier declaration is validated when the record is built, so a
    bad tier fails at registration rather than at query time.  ``replace=False`` (the
    default) refuses to shadow an existing registration, so accidental
    double-registration fails loudly.
    """
    if not isinstance(name, str) or not name:
        raise QueryError("engine name must be a non-empty string")
    key = name.lower()
    if key == "auto":
        raise QueryError("'auto' is the dispatcher's selector, not an engine")
    if key in _REGISTRY and not replace:
        raise QueryError(
            f"engine {key!r} is already registered; pass replace=True "
            "to override"
        )
    if capabilities is None:
        capabilities = EngineCapabilities()
    elif not isinstance(capabilities, EngineCapabilities):
        raise QueryError(
            "capabilities must be an EngineCapabilities instance, got "
            f"{type(capabilities).__name__}"
        )
    entry = Engine(name=key, run=run, capabilities=capabilities)
    _REGISTRY[key] = entry
    return entry


def unregister_engine(name: str) -> None:
    """Remove a registration (mainly for tests plugging in fakes)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise QueryError(f"engine {key!r} is not registered")
    del _REGISTRY[key]


def get_engine(name: str) -> Engine:
    """Resolve a registered engine by name.

    The error message lists what *is* registered (plus the ``auto``
    selector), so a typo is self-diagnosing.
    """
    key = name.lower() if isinstance(name, str) else name
    entry = _REGISTRY.get(key)
    if entry is None:
        raise QueryError(
            f"unknown engine {name!r}; pick from "
            f"{('auto', *sorted(_REGISTRY))}"
        )
    return entry


def available_engines() -> dict[str, EngineCapabilities]:
    """Every registered engine's capabilities, keyed by sorted name.

    Returns a mapping (``auto`` not included).  Iterating it yields the
    engine names, so pre-kernel call sites that treated the return value
    as a name sequence (``list(...)``, ``for name in ...``, ``"grid" in
    ...``) keep working unchanged; the values expose each engine's
    :class:`EngineCapabilities`, including its ``kernel_tiers``.
    """
    return {name: _REGISTRY[name].capabilities for name in sorted(_REGISTRY)}
