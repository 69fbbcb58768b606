"""Accelerated leaf-resolution kernels (the CADISHI-style tier).

Every exact engine bottoms out in leaf-level pairwise distance
resolution — the irreducible cost term of the paper's DM-SDH analysis
once the density-map frontier stops resolving cells.  This package
isolates that loop behind a small backend API so it can be swapped for
a compiled implementation; :class:`repro.core.dense.DenseBinner` is its
one caller on every engine path:

* :mod:`repro.kernels.numpy_backend` — the vectorized pure-numpy
  fallback, always available.  Its dense kernels build each panel axis
  by axis, the same operations in the same order as the compiled loop,
  so results are bit-identical by construction.
* :mod:`repro.kernels.numba_backend` — ``@njit(parallel=True,
  cache=True)`` kernels with cache-aware point-block tiling and
  per-chunk private histograms merged deterministically (integer counts
  summed, so merge order cannot change the result).  Import-guarded:
  only reachable when numba is installed.

Backends expose three functions with identical signatures, each
returning ``(int64 histogram, number_of_distances)``:

``bin_gathered_pairs(positions, idx_a, idx_b, width, nbins,
box_lengths=None, chunk=...)``
    Bin the distances of explicitly enumerated index pairs (no engine
    path calls it; tests and traced benchmark runs keep it as the
    gathered reference).
``bin_dense_self(positions, width, nbins, box_lengths=None, chunk=...)``
    All ``n(n-1)/2`` intra-set distances (a whole set, or one panel of
    a strided sweep).
``bin_dense_cross(pos_a, pos_b, width, nbins, box_lengths=None,
chunk=...)``
    All cross-set distances (cross-set queries, leaf-cell pairs, the
    rows after a panel).

Each function also has a ``*_weighted`` variant (taking the per-point
weights after the coordinates) that returns ``(limb_array,
number_of_distances)`` instead: per-bucket exact fixed-point integer
sums of the pair products ``w_i * w_j``, in the representation of
:mod:`repro.kernels.exact`.  Exactness makes the weighted contract
*stronger* than op-sequence equality — any summation order yields the
same integers, so backends, thread counts, and chunk sizes can never
disagree; only the distance op-sequence (which picks the bucket) must
match, and it is shared with the unweighted kernels.

The kernels only implement the *fast binning* contract: a standard
uniform-bucket query starting at zero whose buckets cover every
realizable distance, where a clamped truncating division bins exactly
like :meth:`~repro.core.buckets.UniformBuckets.bucket_of` and the
overflow policy can never trigger.  :func:`fast_uniform_width` decides
eligibility; ineligible queries (custom buckets, ``low > 0``) take the
dense binner's ``bin_counts_query`` policy path regardless of the
requested tier.

Determinism contract: histogram counts are integral and each distance
contributes exactly one count, so only each distance's *value* and bin
index matter — and both backends compute them with the identical
sequence of IEEE-754 double operations (subtract, minimum-image wrap
via round-half-even, per-axis ordered sum of squares, sqrt, truncating
division).  ``repro-sdh verify`` enforces the contract differentially
across every fuzz family, including periodic/minimum-image inputs.

See ``docs/KERNELS.md`` for the tiling design and install notes.
"""

from __future__ import annotations

from ..errors import QueryError
from .csr import expand_products

__all__ = [
    "KERNEL_TIERS",
    "NUMBA_AVAILABLE",
    "available_kernel_tiers",
    "expand_products",
    "fast_uniform_width",
    "get_backend",
    "resolve_kernel",
]

#: Every kernel tier this library knows about, in preference order
#: (last = fastest).  ``SDHRequest.kernel`` accepts these plus "auto".
KERNEL_TIERS: tuple[str, ...] = ("numpy", "numba")

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba  # noqa: F401

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - ImportError, broken install, ...
    NUMBA_AVAILABLE = False


def available_kernel_tiers() -> tuple[str, ...]:
    """The kernel tiers usable in this process, slowest first.

    Always contains ``"numpy"``; contains ``"numba"`` only when the
    import guard found a working numba installation.  Engine
    registrations use this to advertise
    :attr:`~repro.core.engines.EngineCapabilities.kernel_tiers`.
    """
    if NUMBA_AVAILABLE:
        return ("numpy", "numba")
    return ("numpy",)


def resolve_kernel(name: str = "auto") -> str:
    """Map a requested kernel tier to a concrete one.

    ``"auto"`` picks the fastest available tier (numba when installed,
    numpy otherwise).  Explicit names pass through after validation —
    note an explicit ``"numba"`` resolves even when numba is absent, so
    the planner can still price it; :func:`get_backend` (and the engine
    capability check upstream) is what enforces availability.
    """
    tier = str(name).lower()
    if tier == "auto":
        return "numba" if NUMBA_AVAILABLE else "numpy"
    if tier not in KERNEL_TIERS:
        choices = ", ".join(("auto",) + KERNEL_TIERS)
        raise QueryError(
            f"unknown kernel tier {name!r}; choose one of: {choices}"
        )
    return tier


def get_backend(name: str = "auto"):
    """The backend module implementing a kernel tier.

    Raises :class:`~repro.errors.QueryError` when the resolved tier is
    not available in this process (numba not installed).
    """
    tier = resolve_kernel(name)
    if tier == "numba":
        if not NUMBA_AVAILABLE:
            raise QueryError(
                "kernel tier 'numba' requested but numba is not "
                "installed; install numba or use kernel='numpy'/'auto'"
            )
        from . import numba_backend

        return numba_backend
    from . import numpy_backend

    return numpy_backend


def fast_uniform_width(spec, reach: float) -> float | None:
    """The bucket width when ``spec`` is kernel-eligible, else ``None``.

    Eligibility is the engines' fast-binning condition: uniform buckets
    starting at zero whose range covers ``reach`` (the largest
    realizable distance — box diagonal, or the minimum-image bound for
    periodic queries) up to the bucket-edge tolerance.  Under it,
    ``min(int(d / width), nbins - 1)`` equals
    :meth:`~repro.core.buckets.UniformBuckets.bucket_of` for every
    realizable ``d`` and the overflow policy is unreachable.
    """
    from ..core.buckets import UniformBuckets

    if (
        isinstance(spec, UniformBuckets)
        and spec.low == 0.0
        and spec.high * (1.0 + 1e-9) >= reach
    ):
        return spec.width
    return None
