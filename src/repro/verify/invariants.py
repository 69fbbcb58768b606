"""Metamorphic invariants no exact SDH engine may violate.

Each check derives a second query whose answer is *provably determined*
by the first — no oracle histogram needed — and demands exact
agreement:

* pair conservation — bucket totals equal ``N(N-1)/2`` when the
  buckets start at zero and no distance lies past the last edge (or
  the CLAMP policy keeps it);
* rigid motions — translating the dataset (box included), reflecting
  it about the box center, or permuting coordinate axes leaves every
  pairwise distance, hence every count, unchanged;
* additivity — splitting the dataset into disjoint halves A and B,
  ``h(A ∪ B) = h(A) + h(B) + h(A × B)`` with the cross term from the
  brute-force kernel;
* refinement — halving the bucket width ``p`` (or adding the midpoint
  of every custom bucket) splits each bucket into exactly two, so
  adjacent fine-bucket pairs must sum back to the coarse counts;
* weight-scaling bilinearity — scaling every weight by an exact power
  of two ``2^k`` scales every bucket by exactly ``2^(2k)`` (pair mass
  is bilinear in the weights, and power-of-two scaling commutes with
  correct rounding), and attaching all-ones weights to an unweighted
  set reproduces the count histogram bit-for-bit;
* zero-weight deletion — particles carrying weight 0 contribute exact
  zero mass to every pair product, so appending them changes nothing;
* cross(A, A) ≡ 2·self(A) — a cross-set query of a dataset against
  itself counts every unordered pair twice plus the zero-distance
  diagonal, so buckets past the first match ``2 × self`` bit-for-bit
  and bucket 0 carries the extra ``Σ wᵢ²`` diagonal mass;
* cross split/merge additivity — partitioning B into B₁ ∪ B₂ gives
  ``h(A × B) = h(A × B₁) + h(A × B₂)`` (exactly for counts; within a
  rounding envelope for weighted mass, where each term is rounded
  independently).

Premises: a RAISE query with a distance past its last edge answers
with an error, which the differential run compares across engines, so
no invariant runs on it; every other check states its own premise and
skips itself where it fails (conservation needs ``low == 0`` and every
pair binned, zero-weight padding under RAISE needs the ghosts' distances
inside the buckets, ``cross(A, A)``'s diagonal lands in bucket 0 only
when ``low == 0``).

Exactness note: the rigid-motion checks compare *bit-identical* counts,
which is sound only when the motion itself is exact in float64.  The
helpers therefore snap datasets and translation vectors to a dyadic
grid (:func:`snap_dyadic`) so every coordinate sum/difference is exact;
the verify fuzzer generates dyadic coordinates for the same reason.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.brute_force import brute_force_cross_sdh
from ..core.buckets import CustomBuckets, OverflowPolicy, UniformBuckets
from ..core.query import compute_sdh
from ..core.request import SDHRequest
from ..data.particles import ParticleSet
from ..errors import DistanceOverflowError
from ..geometry import AABB
from ..kernels import exact
from .differential import Discrepancy

__all__ = [
    "snap_dyadic",
    "check_pair_conservation",
    "check_translation",
    "check_reflection",
    "check_axis_permutation",
    "check_additivity",
    "check_refinement",
    "check_weight_scaling",
    "check_zero_weight_deletion",
    "check_cross_self_identity",
    "check_cross_symmetry",
    "check_cross_split_additivity",
    "ALL_INVARIANTS",
    "CROSS_INVARIANTS",
    "run_invariants",
    "run_cross_invariants",
]

#: Coordinates are snapped to multiples of 2**-DYADIC_BITS so that
#: adding a same-grid translation (magnitude < 2**(53 - DYADIC_BITS))
#: is exact in float64 and rigid motions preserve distances bit-for-bit.
DYADIC_BITS = 24


def snap_dyadic(particles: ParticleSet, bits: int = DYADIC_BITS) -> ParticleSet:
    """A copy of ``particles`` with coordinates on the dyadic grid.

    The box is re-derived from the snapped coordinates (snapping can
    move a point past the declared box edge by one grid step, and the
    default enclosing cube is itself not dyadic).
    """
    scale = float(1 << bits)
    positions = np.round(particles.positions * scale) / scale
    lo = np.floor(positions.min(axis=0) * scale) / scale
    hi = np.ceil(positions.max(axis=0) * scale) / scale
    side = float((hi - lo).max())
    if side <= 0:
        side = 1.0
    box = AABB.from_arrays(lo, lo + side)
    return ParticleSet(
        positions, box, particles.types, particles.type_names,
        weights=particles.weights,
    )


def _weighted_tolerance(*weight_sets: np.ndarray | None) -> float:
    """An absolute rounding envelope for composed weighted histograms.

    Each finalized bucket is correctly rounded from an exact scaled
    integer, so any identity *composed from independently rounded
    terms* (a sum of buckets, a merge of two histograms) can drift by a
    few ulps of the total absolute pair mass — the natural scale even
    under catastrophic cancellation of negative weights.  2^-46 of
    that mass is ~128 rounding ulps: far above legitimate drift, far
    below any real double-counting or dropped-pair bug (whose signature
    is at least one full pair product).
    """
    total = 1.0
    for weights in weight_sets:
        if weights is None:
            continue
        magnitude = float(np.abs(weights).sum())
        total *= max(magnitude, 1.0)
    return total * 2.0**-46


def _pinned(request: SDHRequest, particles: ParticleSet) -> SDHRequest:
    """The request with its bucket spec resolved against ``particles``.

    Metamorphic twins must be answered over *identical* edges; pinning
    the spec keeps a translated/reflected dataset from re-deriving it
    (identically, but the intent should be explicit).
    """
    spec = request.resolved_spec(particles)
    return request.replace(
        spec=spec, bucket_width=None, num_buckets=None
    )


def _counts(particles: ParticleSet, request: SDHRequest) -> np.ndarray:
    return compute_sdh(particles, request).counts


def _overflows(
    particles: ParticleSet,
    request: SDHRequest,
    b: ParticleSet | None = None,
) -> bool:
    """Whether some distance of the query lies past its last edge."""
    try:
        compute_sdh(
            particles,
            request.replace(engine="brute", policy=OverflowPolicy.RAISE),
            b=b,
        )
    except DistanceOverflowError:
        return True
    return False


def check_pair_conservation(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Total counts must equal ``N(N-1)/2`` (or ``ΣᵢΣⱼwᵢwⱼ``) exactly.

    For weighted sets the per-bucket masses are each correctly rounded,
    so their float sum may drift from the correctly-rounded total by a
    few ulps — the comparison uses the weighted rounding envelope.
    Holds only when every pair is binned: buckets from zero, and no
    distance past the last edge unless CLAMP keeps it.
    """
    request = _pinned(request, particles)
    if request.spec.low > 0 or (
        request.policy is not OverflowPolicy.CLAMP
        and _overflows(particles, request)
    ):
        return []
    total = float(_counts(particles, request).sum())
    if particles.weighted:
        expected = exact.exact_weighted_total(particles.weights)
        tolerance = _weighted_tolerance(
            particles.weights, particles.weights
        )
        if abs(total - expected) > tolerance:
            return [
                f"weighted histogram total {total!r} != exact pair "
                f"mass {expected!r}"
            ]
        return []
    expected = float(particles.num_pairs)
    if total != expected:
        return [
            f"histogram total {total:g} != N(N-1)/2 = {expected:g}"
        ]
    return []


def check_translation(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Translating data and box together must not change any count."""
    request = _pinned(request, particles)
    baseline = _counts(particles, request)
    sides = np.asarray(particles.box.sides, dtype=float)
    scale = float(1 << DYADIC_BITS)
    shift = np.round(rng.uniform(-1.0, 1.0, particles.dim) * sides * scale)
    shift /= scale
    moved = ParticleSet(
        particles.positions + shift,
        AABB.from_arrays(
            np.asarray(particles.box.lo) + shift,
            np.asarray(particles.box.hi) + shift,
        ),
        particles.types,
        particles.type_names,
        weights=particles.weights,
    )
    translated = _counts(moved, request)
    if not np.array_equal(baseline, translated):
        return [_diff_message("translation", baseline, translated)]
    return []


def check_reflection(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Reflecting about the box center must not change any count."""
    request = _pinned(request, particles)
    baseline = _counts(particles, request)
    lo = np.asarray(particles.box.lo)
    hi = np.asarray(particles.box.hi)
    mirrored = ParticleSet(
        (lo + hi) - particles.positions,
        particles.box,
        particles.types,
        particles.type_names,
        weights=particles.weights,
    )
    reflected = _counts(mirrored, request)
    if not np.array_equal(baseline, reflected):
        return [_diff_message("reflection", baseline, reflected)]
    return []


def check_axis_permutation(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Permuting coordinate axes must not change any count."""
    request = _pinned(request, particles)
    baseline = _counts(particles, request)
    perm = rng.permutation(particles.dim)
    lo = np.asarray(particles.box.lo)[perm]
    hi = np.asarray(particles.box.hi)[perm]
    permuted_set = ParticleSet(
        particles.positions[:, perm],
        AABB.from_arrays(lo, hi),
        particles.types,
        particles.type_names,
        weights=particles.weights,
    )
    permuted = _counts(permuted_set, request)
    if not np.array_equal(baseline, permuted):
        return [_diff_message("axis permutation", baseline, permuted)]
    return []


def check_additivity(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Split/merge identity: ``h(A ∪ B) = h(A) + h(B) + h(A × B)``.

    This is the invariant every sharded engine leans on (the parallel
    merge, the incremental delta layer), exercised through the public
    :meth:`~repro.core.histogram.DistanceHistogram.merge` path so a
    perturbed merge is caught here.
    """
    if particles.size < 4:
        return []
    request = _pinned(request, particles)
    whole = compute_sdh(particles, request)
    mask = rng.random(particles.size) < 0.5
    if not mask.any() or mask.all():
        mask[0] = True
        mask[-1] = False
    part_a = particles.select(mask)
    part_b = particles.select(~mask)
    merged = compute_sdh(part_a, request).merge(
        compute_sdh(part_b, request)
    )
    cross = brute_force_cross_sdh(
        part_a, part_b, request.spec, policy=request.policy,
        periodic=request.periodic,
    )
    merged = merged.merge(cross)
    if particles.weighted:
        # Three independently rounded terms: hold the identity to the
        # weighted rounding envelope instead of bit-identity.
        tolerance = _weighted_tolerance(
            particles.weights, particles.weights
        )
        if not np.allclose(
            whole.counts, merged.counts, rtol=0.0, atol=tolerance
        ):
            return [
                _diff_message("additivity", whole.counts, merged.counts)
            ]
        return []
    if not np.array_equal(whole.counts, merged.counts):
        return [_diff_message("additivity", whole.counts, merged.counts)]
    return []


def check_refinement(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Halving every bucket refines it: fine pairs must sum to coarse.

    Uniform buckets halve ``p``; custom buckets gain the midpoint of
    every bucket as an edge.  The first and last edges stay, so the
    below-range drop and the overflow policy see the same distances.
    """
    request = _pinned(request, particles)
    spec = request.spec
    coarse = _counts(particles, request)
    if isinstance(spec, UniformBuckets):
        fine_spec = UniformBuckets(spec.width / 2.0, spec.num_buckets * 2)
    else:
        edges = spec.edges
        fine_spec = CustomBuckets(
            np.sort(np.concatenate([edges, (edges[:-1] + edges[1:]) / 2]))
        )
    fine = _counts(particles, request.replace(spec=fine_spec))
    coarsened = fine[0::2] + fine[1::2]
    if particles.weighted:
        tolerance = _weighted_tolerance(
            particles.weights, particles.weights
        )
        if not np.allclose(
            coarse, coarsened, rtol=0.0, atol=tolerance
        ):
            return [_diff_message("refinement", coarse, coarsened)]
        return []
    if not np.array_equal(coarse, coarsened):
        return [_diff_message("refinement", coarse, coarsened)]
    return []


def check_weight_scaling(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Bilinearity: ``h(2^k · w) == 2^(2k) · h(w)`` bit-for-bit.

    Pair mass is bilinear in the weights and every bucket is correctly
    rounded from an exact scaled integer, so a power-of-two weight
    scaling — which multiplies each exact numerator by exactly
    ``2^(2k)`` — must scale each rounded double exactly too.  For an
    unweighted set the check first crosses the count/mass bridge:
    all-ones weights must reproduce the integer count histogram
    bit-for-bit (the exact accumulator of 1·1 products finalizes to
    the same integers the count path produces).
    """
    request = _pinned(request, particles)
    problems: list[str] = []
    if particles.weighted:
        weights = particles.weights
        baseline = _counts(particles, request)
    else:
        weights = np.ones(particles.size)
        counted = _counts(particles, request)
        baseline = _counts(particles.with_weights(weights), request)
        if not np.array_equal(counted, baseline):
            problems.append(
                _diff_message(
                    "all-ones weights vs counts", counted, baseline
                )
            )
    factor = float(2 ** int(rng.integers(2, 6)))
    scaled = _counts(
        particles.with_weights(weights * factor), request
    )
    expected = baseline * (factor * factor)
    if not np.array_equal(scaled, expected):
        problems.append(
            _diff_message(
                f"weight scaling by {factor:g}", expected, scaled
            )
        )
    return problems


def check_zero_weight_deletion(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Appending zero-weight particles must not change any bucket.

    A particle of weight 0 contributes an exactly-zero product to every
    pair it joins (0 is exact in the scaled-integer representation), so
    the augmented histogram must be *bit-identical* — this is the
    deletion-equivalence direction the exact accumulator guarantees by
    construction, and it catches any engine whose control flow lets
    masses (rather than particle counts) drive pruning.
    """
    request = _pinned(request, particles)
    weights = (
        particles.weights
        if particles.weighted
        else np.ones(particles.size)
    )
    baseline = _counts(particles.with_weights(weights), request)
    extra = int(rng.integers(1, 4))
    lo = np.asarray(particles.box.lo, dtype=float)
    hi = np.asarray(particles.box.hi, dtype=float)
    scale = float(1 << DYADIC_BITS)
    ghost = lo + (hi - lo) * rng.uniform(0.1, 0.9, (extra, particles.dim))
    ghost = np.clip(np.round(ghost * scale) / scale, lo, hi)
    augmented = ParticleSet(
        np.vstack([particles.positions, ghost]),
        particles.box,
        None
        if particles.types is None
        else np.concatenate(
            [particles.types, np.full(extra, particles.types[0])]
        ),
        particles.type_names,
        weights=np.concatenate([weights, np.zeros(extra)]),
    )
    if request.policy is OverflowPolicy.RAISE and _overflows(
        augmented, request
    ):
        return []  # a ghost pair past the last edge raises
    padded = _counts(augmented, request)
    if not np.array_equal(baseline, padded):
        return [
            _diff_message(
                f"appending {extra} zero-weight particle(s)",
                baseline,
                padded,
            )
        ]
    return []


def check_cross_self_identity(
    particles: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """``cross(A, A)`` must equal ``2 · self(A)`` plus the diagonal.

    A cross-set query of a dataset against itself sees every unordered
    pair {i, j} twice (as (i, j) and (j, i)) plus the N zero-distance
    diagonal pairs (i, i).  Buckets past the first therefore match
    ``2 × self`` *bit-for-bit* — the exact cross numerator is twice the
    self numerator, and doubling commutes with correct rounding — while
    bucket 0 additionally carries the ``Σ wᵢ²`` (or ``N``) diagonal
    mass, exactly for counts and within the rounding envelope for
    weighted mass (the diagonal term is rounded independently).  When
    the buckets start above zero the diagonal is not counted, and
    bucket 0 matches ``2 × self`` bit-for-bit too.
    """
    request = _pinned(request, particles)
    self_counts = _counts(particles, request)
    cross = compute_sdh(particles, request, b=particles).counts
    problems: list[str] = []
    first = 0 if request.spec.low > 0 else 1
    if not np.array_equal(cross[first:], 2.0 * self_counts[first:]):
        problems.append(
            _diff_message(
                "cross(A,A) vs 2*self(A) off-diagonal buckets",
                2.0 * self_counts[first:],
                cross[first:],
            )
        )
    if first == 0:
        return problems
    if particles.weighted:
        diagonal = float(
            np.sum(particles.weights * particles.weights)
        )
        tolerance = _weighted_tolerance(
            particles.weights, particles.weights
        )
    else:
        diagonal = float(particles.size)
        tolerance = 0.0
    expected_zero = 2.0 * self_counts[0] + diagonal
    if abs(cross[0] - expected_zero) > tolerance:
        problems.append(
            f"cross(A,A) bucket 0 = {cross[0]!r}, expected 2*self + "
            f"diagonal = {expected_zero!r}"
        )
    return problems


def check_cross_symmetry(
    a: ParticleSet,
    b: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """``h(A × B) == h(B × A)`` bit-for-bit (pair products commute)."""
    request = _pinned(request, a)
    forward = compute_sdh(a, request, b=b).counts
    backward = compute_sdh(b, request, b=a).counts
    if not np.array_equal(forward, backward):
        return [_diff_message("cross symmetry", forward, backward)]
    return []


def check_cross_split_additivity(
    a: ParticleSet,
    b: ParticleSet,
    request: SDHRequest,
    rng: np.random.Generator,
) -> list[str]:
    """Partitioning B: ``h(A × B) = h(A × B₁) + h(A × B₂)``.

    Exact for counts; weighted buckets are each rounded independently,
    so the identity holds to the weighted rounding envelope.
    """
    if b.size < 2:
        return []
    request = _pinned(request, a)
    whole = compute_sdh(a, request, b=b).counts
    mask = rng.random(b.size) < 0.5
    if not mask.any() or mask.all():
        mask[0] = True
        mask[-1] = False
    split = (
        compute_sdh(a, request, b=b.select(mask)).counts
        + compute_sdh(a, request, b=b.select(~mask)).counts
    )
    weighted = a.weighted or b.weighted
    if weighted:
        tolerance = _weighted_tolerance(
            a.weights if a.weighted else np.ones(a.size),
            b.weights if b.weighted else np.ones(b.size),
        )
        if not np.allclose(whole, split, rtol=0.0, atol=tolerance):
            return [
                _diff_message("cross split additivity", whole, split)
            ]
        return []
    if not np.array_equal(whole, split):
        return [_diff_message("cross split additivity", whole, split)]
    return []


def _diff_message(
    name: str, baseline: np.ndarray, other: np.ndarray
) -> str:
    delta = other - baseline
    bad = np.flatnonzero(delta)
    shown = ", ".join(
        f"bucket {i}: {baseline[i]:g} vs {other[i]:g}" for i in bad[:4]
    )
    more = f" (+{bad.size - 4} more)" if bad.size > 4 else ""
    return f"{name} changed {bad.size} bucket(s): {shown}{more}"


#: Every single-dataset invariant, in the order the harness runs them.
ALL_INVARIANTS: dict[str, Callable] = {
    "pair_conservation": check_pair_conservation,
    "translation": check_translation,
    "reflection": check_reflection,
    "axis_permutation": check_axis_permutation,
    "additivity": check_additivity,
    "refinement": check_refinement,
    "weight_scaling": check_weight_scaling,
    "zero_weight_deletion": check_zero_weight_deletion,
    "cross_self_identity": check_cross_self_identity,
}

#: Invariants over a two-dataset (A, B) cross-set case.
CROSS_INVARIANTS: dict[str, Callable] = {
    "cross_symmetry": check_cross_symmetry,
    "cross_split_additivity": check_cross_split_additivity,
}


def run_invariants(
    particles: ParticleSet,
    request: SDHRequest | None = None,
    rng: np.random.Generator | int | None = None,
    invariants: dict[str, Callable] | None = None,
    case: str = "",
    seed: int | None = None,
) -> list[Discrepancy]:
    """Run every applicable invariant; return the violations.

    Invariants are statements about plain exact full-dataset queries:
    restricted and approximate requests are rejected by callers (the
    fuzzer only routes plain requests here).  The dataset is snapped to
    the dyadic grid first so rigid motions are float-exact.
    """
    if request is None:
        request = SDHRequest(num_buckets=8)
    request = request.normalize()
    if request.restricted or request.approximate:
        raise ValueError(
            "invariants are defined for plain exact queries only"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    particles = snap_dyadic(particles)
    if request.policy is OverflowPolicy.RAISE and _overflows(
        particles, request
    ):
        return []
    checks = invariants if invariants is not None else ALL_INVARIANTS
    violations: list[Discrepancy] = []
    for name, check in checks.items():
        for problem in check(particles, request, rng):
            violations.append(
                Discrepancy(
                    "invariant",
                    f"{name}: {problem}",
                    case=case or name,
                    seed=seed,
                )
            )
    return violations


def run_cross_invariants(
    a: ParticleSet,
    b: ParticleSet,
    request: SDHRequest | None = None,
    rng: np.random.Generator | int | None = None,
    invariants: dict[str, Callable] | None = None,
    case: str = "",
    seed: int | None = None,
) -> list[Discrepancy]:
    """Run every two-dataset invariant on a cross-set case.

    Unlike :func:`run_invariants`, the operands are NOT re-snapped —
    cross-set operands must share one simulation box, and the fuzzer's
    cross family builds both sets on the dyadic grid inside a shared
    box already.
    """
    if request is None:
        request = SDHRequest(num_buckets=8)
    request = request.normalize()
    if request.restricted or request.approximate:
        raise ValueError(
            "cross invariants are defined for plain exact queries only"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    if request.policy is OverflowPolicy.RAISE and _overflows(
        a, request, b=b
    ):
        return []
    checks = invariants if invariants is not None else CROSS_INVARIANTS
    violations: list[Discrepancy] = []
    for name, check in checks.items():
        for problem in check(a, b, request, rng):
            violations.append(
                Discrepancy(
                    "invariant",
                    f"{name}: {problem}",
                    case=case or name,
                    seed=seed,
                )
            )
    return violations
