"""Deterministic seeded fuzzing with shrinking for the verify harness.

Every case is a pure function of its seed: :func:`generate_case` draws
an adversarial particle set and a request from ``default_rng(seed)``,
so a failure reported by CI as "seed 1234" reproduces exactly on a
laptop.  The families deliberately target the spots where histogram
code breaks silently:

* exactly coincident particles (duplication scaling);
* collinear clusters (degenerate geometry, empty density-map rows);
* distances engineered to land *on* bucket edges (a comb of points
  spaced at multiples of half the bucket width — resolve/bin ties);
* degenerate 1-, 2-, 3-particle sets;
* extreme aspect-ratio boxes (a thin slab inside a wide box);
* per-particle weights spanning adversarial regimes — magnitudes near
  10^±140, exact zeros, negative masses, and mixtures of all three
  (the spots where a floating-point accumulator silently loses mass);
* two-dataset cross-set pairs, both overlapping (interleaved in one
  region) and disjoint (separated halves of a shared box), optionally
  weighted on either side;
* plus plain uniform / Zipf-clustered control groups.

The family for a seed is chosen round-robin (``seed % len(FAMILIES)``),
so any contiguous block of ``len(FAMILIES)`` seeds covers every family
— which is what lets CI assert from the ``--json`` report that the
weighted and cross families actually ran.

Coordinates are snapped to the dyadic grid of
:mod:`repro.verify.invariants` so the rigid-motion invariants are
float-exact.  When a case fails, :func:`shrink_case` greedily removes
particles and simplifies the request while the failure persists,
yielding a minimal reproducer worth committing to the corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.request import SDHRequest
from ..data.generators import uniform, zipf_clustered
from ..data.particles import ParticleSet
from ..geometry import AABB, RectRegion
from ..observability import get_registry, trace_span
from .differential import (
    Discrepancy,
    check_adm_bounds,
    check_planner_neutrality,
    compare_engines,
)
from .invariants import (
    DYADIC_BITS,
    run_cross_invariants,
    run_invariants,
    snap_dyadic,
)

__all__ = [
    "FuzzCase",
    "VerifyReport",
    "generate_case",
    "evaluate_case",
    "shrink_case",
    "run_verification",
]

#: Keep fuzz datasets small: every case runs a brute-force oracle and
#: (usually) a multiprocess engine, so N is capped where the whole
#: differential still costs milliseconds.
MAX_FUZZ_PARTICLES = 120

#: Shrinking evaluates the failure predicate at most this many times.
MAX_SHRINK_EVALS = 160


@dataclass(frozen=True)
class FuzzCase:
    """One self-contained verify case: dataset(s) plus a request.

    ``particles_b`` turns the case into a two-dataset cross-set query
    (evaluated as ``compute_sdh(particles, request, b=particles_b)``
    on every engine); either set may carry per-particle weights.
    """

    name: str
    seed: int
    particles: ParticleSet
    request: SDHRequest
    particles_b: ParticleSet | None = None

    @property
    def cross(self) -> bool:
        """Whether this is a two-dataset cross-set case."""
        return self.particles_b is not None

    @property
    def plain(self) -> bool:
        """Whether the metamorphic invariants apply to this case.

        They count every pair (conservation, the zero-distance diagonal
        of ``cross(A, A)``), so a query whose first edge is above zero
        is checked differentially only.
        """
        spec = self.request.spec
        return not (
            self.request.restricted
            or self.request.approximate
            or (spec is not None and spec.low > 0)
        )

    def with_particles(self, particles: ParticleSet) -> "FuzzCase":
        return FuzzCase(
            self.name, self.seed, particles, self.request,
            self.particles_b,
        )

    def with_particles_b(
        self, particles_b: ParticleSet | None
    ) -> "FuzzCase":
        return FuzzCase(
            self.name, self.seed, self.particles, self.request,
            particles_b,
        )

    def with_request(self, request: SDHRequest) -> "FuzzCase":
        return FuzzCase(
            self.name, self.seed, self.particles, request,
            self.particles_b,
        )

    # ------------------------------------------------------------------
    # Corpus serialization (see repro.verify.corpus)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        body = {
            # Version 2 adds optional "weights" (on either set) and
            # "particles_b"; version-1 readers never see those keys on
            # old files, and this reader accepts both versions.
            "version": 2 if (self.cross or self._any_weighted()) else 1,
            "name": self.name,
            "seed": self.seed,
            "request": self.request.to_dict(),
            **_particles_to_dict(self.particles),
        }
        if self.particles_b is not None:
            body["particles_b"] = _particles_to_dict(self.particles_b)
        return body

    def _any_weighted(self) -> bool:
        return self.particles.weighted or (
            self.particles_b is not None and self.particles_b.weighted
        )

    @classmethod
    def from_dict(cls, body: dict) -> "FuzzCase":
        second = body.get("particles_b")
        return cls(
            name=str(body.get("name", "corpus")),
            seed=int(body.get("seed", -1)),
            particles=_particles_from_dict(body),
            request=SDHRequest.from_dict(body["request"]),
            particles_b=(
                None if second is None else _particles_from_dict(second)
            ),
        )


def _particles_to_dict(particles: ParticleSet) -> dict:
    body: dict = {
        "positions": particles.positions.tolist(),
        "box": {
            "lo": list(particles.box.lo),
            "hi": list(particles.box.hi),
        },
    }
    if particles.types is not None:
        body["types"] = particles.types.tolist()
        if particles.type_names:
            body["type_names"] = {
                str(code): name
                for code, name in particles.type_names.items()
            }
    if particles.weighted:
        # JSON floats round-trip exactly through repr, so the corpus
        # preserves weights bit-for-bit.
        body["weights"] = particles.weights.tolist()
    return body


def _particles_from_dict(body: dict) -> ParticleSet:
    box = body.get("box")
    types = body.get("types")
    type_names = body.get("type_names")
    weights = body.get("weights")
    return ParticleSet(
        np.asarray(body["positions"], dtype=float),
        AABB.from_arrays(box["lo"], box["hi"]) if box else None,
        None if types is None else np.asarray(types, dtype=np.int32),
        None
        if type_names is None
        else {int(code): name for code, name in type_names.items()},
        weights=(
            None if weights is None else np.asarray(weights, dtype=float)
        ),
    )


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def _family_uniform(rng: np.random.Generator, dim: int) -> ParticleSet:
    n = int(rng.integers(20, MAX_FUZZ_PARTICLES))
    return uniform(n, dim=dim, rng=rng)


def _family_clustered(rng: np.random.Generator, dim: int) -> ParticleSet:
    n = int(rng.integers(20, MAX_FUZZ_PARTICLES))
    return zipf_clustered(n, dim=dim, rng=rng)


def _family_duplicates(rng: np.random.Generator, dim: int) -> ParticleSet:
    base = uniform(int(rng.integers(10, 50)), dim=dim, rng=rng)
    return base.scale_to(int(base.size * 2), rng=rng)


def _family_collinear(rng: np.random.Generator, dim: int) -> ParticleSet:
    n = int(rng.integers(10, 80))
    t = np.sort(rng.uniform(0.0, 1.0, n))
    # A handful of exactly repeated parameters -> coincident points.
    repeats = rng.integers(0, n, size=max(1, n // 10))
    t[repeats] = t[(repeats + 1) % n]
    direction = rng.uniform(-1.0, 1.0, dim)
    norm = float(np.linalg.norm(direction)) or 1.0
    origin = rng.uniform(0.2, 0.8, dim)
    positions = origin + np.outer(t - 0.5, direction / norm)
    return ParticleSet(positions)


def _family_boundary(rng: np.random.Generator, dim: int) -> ParticleSet:
    """A 1D comb whose pairwise distances sit exactly on bucket edges.

    Points at multiples of ``w/2`` along one axis make every distance a
    multiple of ``w/2`` — half of them land *on* an edge of a width-
    ``w`` histogram, the classic tie every binning rule must break the
    same way everywhere.  A few points are nudged by one dyadic ulp to
    probe the just-below/just-above sides too.
    """
    width = float(2 ** -int(rng.integers(2, 6)))
    n = int(rng.integers(8, 40))
    steps = rng.integers(0, 4 * n, size=n)
    coords = np.zeros((n, dim))
    coords[:, 0] = steps * (width / 2.0)
    ulp = 2.0**-DYADIC_BITS
    nudged = rng.integers(0, n, size=max(1, n // 6))
    coords[nudged, 0] += rng.choice([-ulp, ulp], size=nudged.size)
    coords[:, 0] -= coords[:, 0].min()
    if dim > 1:
        coords[:, 1:] = 0.5
    return ParticleSet(np.abs(coords))


def _family_tiny(rng: np.random.Generator, dim: int) -> ParticleSet:
    n = int(rng.integers(1, 4))
    positions = rng.uniform(0.0, 1.0, (n, dim))
    if n > 1 and rng.random() < 0.5:
        positions[-1] = positions[0]  # coincident pair
    return ParticleSet(positions)


def _family_aspect(rng: np.random.Generator, dim: int) -> ParticleSet:
    """A thin slab: one axis thousands of times longer than another."""
    n = int(rng.integers(10, 60))
    long_side = float(2 ** int(rng.integers(4, 8)))
    thin_side = float(2 ** -int(rng.integers(6, 10)))
    sides = np.full(dim, thin_side)
    sides[0] = long_side
    positions = rng.uniform(0.0, 1.0, (n, dim)) * sides
    box = AABB.from_arrays(np.zeros(dim), sides)
    return ParticleSet(positions, box)


#: Extreme weight magnitudes stay within 10^±140 so that pair products
#: (10^280), bucket sums, and the weight-scaling invariant's 2^(2k)
#: blow-up all stay comfortably inside float64 range.
_WEIGHT_EXTREME_EXP = 140


def _draw_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Adversarial per-particle weights: one regime per draw."""
    regime = int(rng.integers(4))
    if regime == 0:  # extreme magnitudes, mixed signs
        exponents = rng.integers(
            -_WEIGHT_EXTREME_EXP, _WEIGHT_EXTREME_EXP, n
        )
        signs = rng.choice([-1.0, 1.0], size=n)
        weights = signs * 10.0 ** exponents.astype(float)
    elif regime == 1:  # many exact zeros among ordinary masses
        weights = rng.uniform(0.25, 4.0, n)
        weights[rng.random(n) < 0.4] = 0.0
    elif regime == 2:  # negative masses (signed densities / deltas)
        weights = rng.normal(0.0, 1.0, n)
    else:  # mixture of all three
        weights = rng.normal(0.0, 1.0, n)
        weights[rng.random(n) < 0.2] = 0.0
        wild = rng.random(n) < 0.2
        weights[wild] *= 10.0 ** rng.integers(
            -_WEIGHT_EXTREME_EXP // 2, _WEIGHT_EXTREME_EXP // 2,
            int(wild.sum()),
        ).astype(float)
    return weights


def _family_weights(rng: np.random.Generator, dim: int) -> ParticleSet:
    """Ordinary geometry, adversarial per-particle weights."""
    n = int(rng.integers(10, MAX_FUZZ_PARTICLES // 2))
    base = (
        uniform(n, dim=dim, rng=rng)
        if rng.random() < 0.5
        else zipf_clustered(n, dim=dim, rng=rng)
    )
    return base.with_weights(_draw_weights(rng, base.size))


def _family_cross(
    rng: np.random.Generator, dim: int
) -> tuple[ParticleSet, ParticleSet]:
    """Two sets in one shared box: overlapping or disjoint geometry.

    Overlapping pairs interleave in the same region (every cell of the
    combined pyramid holds both sides); disjoint pairs occupy opposite
    halves of the box (whole subtrees hold a single side, so cross-pair
    resolution must prune them without tripping overflow policies).
    Either side may independently carry adversarial weights.
    """
    na = int(rng.integers(5, MAX_FUZZ_PARTICLES // 2))
    nb = int(rng.integers(5, MAX_FUZZ_PARTICLES // 2))
    scale = float(1 << DYADIC_BITS)
    pos_a = rng.uniform(0.0, 1.0, (na, dim))
    pos_b = rng.uniform(0.0, 1.0, (nb, dim))
    if rng.random() < 0.5:  # disjoint: separated halves along axis 0
        pos_a[:, 0] *= 0.4
        pos_b[:, 0] = 0.6 + 0.4 * pos_b[:, 0]
    pos_a = np.round(pos_a * scale) / scale
    pos_b = np.round(pos_b * scale) / scale
    box = AABB.from_arrays(np.zeros(dim), np.ones(dim))
    wa = _draw_weights(rng, na) if rng.random() < 0.6 else None
    wb = _draw_weights(rng, nb) if rng.random() < 0.6 else None
    return (
        ParticleSet(pos_a, box, weights=wa),
        ParticleSet(pos_b, box, weights=wb),
    )


FAMILIES: tuple[tuple[str, Callable], ...] = (
    ("uniform", _family_uniform),
    ("clustered", _family_clustered),
    ("duplicates", _family_duplicates),
    ("collinear", _family_collinear),
    ("boundary", _family_boundary),
    ("tiny", _family_tiny),
    ("aspect", _family_aspect),
    ("weights", _family_weights),
    ("cross", _family_cross),
)


def _draw_request(
    rng: np.random.Generator, particles: ParticleSet
) -> tuple[SDHRequest, ParticleSet]:
    """A randomized request (and possibly a typed copy of the data)."""
    if rng.random() < 0.7:
        buckets: dict = {
            "num_buckets": int(rng.choice([1, 2, 3, 7, 16]))
        }
    else:
        buckets = {"bucket_width": float(2 ** -int(rng.integers(0, 5)))}
    periodic = bool(rng.random() < 0.2)
    use_mbr = bool(not periodic and rng.random() < 0.2)
    region = None
    type_filter = None
    type_pair = None
    variety = rng.random()
    if variety < 0.15 and particles.size >= 4:
        lo = np.asarray(particles.box.lo, dtype=float)
        hi = np.asarray(particles.box.hi, dtype=float)
        a = lo + (hi - lo) * rng.uniform(0.0, 0.5, particles.dim)
        b = a + (hi - a) * rng.uniform(0.5, 1.0, particles.dim)
        region = RectRegion(AABB.from_arrays(a, b))
        if not region.contains_points(particles.positions).any():
            region = None
    elif variety < 0.3 and particles.size >= 6:
        codes = rng.integers(0, 3, particles.size).astype(np.int32)
        codes[:3] = (0, 1, 2)  # every code present
        particles = particles.with_types(codes)
        if rng.random() < 0.5:
            type_filter = int(rng.integers(0, 3))
        else:
            type_pair = (0, int(rng.integers(1, 3)))
    request = SDHRequest(
        region=region,
        type_filter=type_filter,
        type_pair=type_pair,
        periodic=periodic,
        use_mbr=use_mbr,
        **buckets,
    )
    return request.normalize(), particles


def generate_case(seed: int) -> FuzzCase:
    """The deterministic fuzz case for ``seed``.

    The family is the seed taken round-robin (every block of
    ``len(FAMILIES)`` consecutive seeds covers all families); all other
    draws come from ``default_rng(seed)``, so the case remains a pure
    function of its seed.
    """
    rng = np.random.default_rng(seed)
    name, family = FAMILIES[seed % len(FAMILIES)]
    rng.integers(len(FAMILIES))  # keep the historical draw order
    dim = int(rng.choice([2, 3]))
    made = family(rng, dim)
    if isinstance(made, tuple):  # cross family: (A, B) share a box
        particles, particles_b = made
        # Restrictions and approximation are rejected for cross-set
        # queries; draw only bucketing and periodicity.
        if rng.random() < 0.7:
            buckets: dict = {
                "num_buckets": int(rng.choice([1, 2, 3, 7, 16]))
            }
        else:
            buckets = {
                "bucket_width": float(2 ** -int(rng.integers(0, 5)))
            }
        request = SDHRequest(
            periodic=bool(rng.random() < 0.2), **buckets
        ).normalize()
        return FuzzCase(name, seed, particles, request, particles_b)
    particles = snap_dyadic(made)
    request, particles = _draw_request(rng, particles)
    return FuzzCase(name, seed, particles, request)


# ----------------------------------------------------------------------
# Evaluation and shrinking
# ----------------------------------------------------------------------
def evaluate_case(
    case: FuzzCase,
    engines: tuple[str, ...] | None = None,
    invariants: bool = True,
    workers: int = 2,
    planner: bool = True,
) -> list[Discrepancy]:
    """All discrepancies this case provokes (empty = healthy)."""
    _, discrepancies = compare_engines(
        case.particles,
        case.request,
        engines=engines,
        workers=workers,
        case=case.name,
        seed=case.seed,
        b=case.particles_b,
    )
    if planner:
        discrepancies.extend(
            check_planner_neutrality(
                case.particles,
                case.request,
                engines=engines,
                workers=workers,
                case=case.name,
                seed=case.seed,
                b=case.particles_b,
            )
        )
    if invariants and case.plain:
        if case.cross:
            discrepancies.extend(
                run_cross_invariants(
                    case.particles,
                    case.particles_b,
                    case.request,
                    rng=np.random.default_rng(case.seed),
                    case=case.name,
                    seed=case.seed,
                )
            )
        else:
            discrepancies.extend(
                run_invariants(
                    case.particles,
                    case.request,
                    rng=np.random.default_rng(case.seed),
                    case=case.name,
                    seed=case.seed,
                )
            )
    return discrepancies


def shrink_case(
    case: FuzzCase,
    fails: Callable[[FuzzCase], bool] | None = None,
    engines: tuple[str, ...] | None = None,
    invariants: bool = True,
    planner: bool = True,
    max_evals: int = MAX_SHRINK_EVALS,
) -> FuzzCase:
    """Greedily minimize a failing case while it keeps failing.

    Particle removal first (halves, then quarters, …, then single
    points), then request simplification (drop the restriction /
    periodicity / MBR flags, shrink the bucket count).  The returned
    case still satisfies ``fails``; if the input doesn't fail at all it
    is returned unchanged.
    """
    if fails is None:
        def fails(candidate: FuzzCase) -> bool:
            return bool(
                evaluate_case(
                    candidate,
                    engines=engines,
                    invariants=invariants,
                    planner=planner,
                )
            )

    budget = [max_evals]

    def still_fails(candidate: FuzzCase) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            return fails(candidate)
        except Exception:
            # A candidate that *errors out of the harness* is a
            # different bug; don't shrink into it.
            return False

    if not still_fails(case):
        return case

    def shrink_side(case: FuzzCase, side: str) -> FuzzCase:
        """Drop particle blocks on one operand, halving block size."""

        def current(case: FuzzCase) -> ParticleSet:
            return getattr(case, side)

        def rebuilt(case: FuzzCase, particles: ParticleSet) -> FuzzCase:
            if side == "particles":
                return case.with_particles(particles)
            return case.with_particles_b(particles)

        changed = True
        while changed and current(case).size > 1 and budget[0] > 0:
            changed = False
            n = current(case).size
            block = max(n // 2, 1)
            while block >= 1 and budget[0] > 0:
                start = 0
                while start < current(case).size and budget[0] > 0:
                    n = current(case).size
                    if n - min(block, n - start) < 1:
                        break
                    keep = np.ones(n, dtype=bool)
                    keep[start:start + block] = False
                    candidate = rebuilt(case, current(case).select(keep))
                    if still_fails(candidate):
                        case = candidate
                        changed = True
                    else:
                        start += block
                block //= 2
        return case

    # Pass 1: drop particle blocks, halving the block size each round.
    case = shrink_side(case, "particles")
    if case.particles_b is not None:
        case = shrink_side(case, "particles_b")

    # Pass 1b: simplify the operands — a failure that survives without
    # the second set, or without the weights, is a simpler reproducer.
    if case.particles_b is not None and budget[0] > 0:
        candidate = case.with_particles_b(None)
        if still_fails(candidate):
            case = candidate
    if case.particles.weighted and budget[0] > 0:
        candidate = case.with_particles(
            case.particles.with_weights(None)
        )
        if still_fails(candidate):
            case = candidate
    if (
        case.particles_b is not None
        and case.particles_b.weighted
        and budget[0] > 0
    ):
        candidate = case.with_particles_b(
            case.particles_b.with_weights(None)
        )
        if still_fails(candidate):
            case = candidate

    # Pass 2: simplify the request.
    request = case.request
    for simpler in (
        request.replace(region=None),
        request.replace(type_filter=None, type_pair=None),
        request.replace(periodic=False),
        request.replace(use_mbr=False),
    ):
        if simpler != case.request and budget[0] > 0:
            candidate = case.with_request(simpler)
            if still_fails(candidate):
                case = candidate
    if case.request.num_buckets is not None:
        for fewer in (1, 2, 4):
            if fewer < case.request.num_buckets and budget[0] > 0:
                candidate = case.with_request(
                    case.request.replace(num_buckets=fewer)
                )
                if still_fails(candidate):
                    case = candidate
                    break
    return case


# ----------------------------------------------------------------------
# The orchestrated verify run
# ----------------------------------------------------------------------
@dataclass
class VerifyReport:
    """Everything one verify run did, JSON-ready for the CLI."""

    seeds: list[int] = field(default_factory=list)
    engines: tuple[str, ...] = ()
    kernel: str = "auto"
    cases_run: int = 0
    corpus_replayed: int = 0
    adm_checked: bool = False
    planner_checked: bool = False
    families_run: list[str] = field(default_factory=list)
    weighted_cases: int = 0
    cross_cases: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)
    corpus_written: list[str] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def record_case(self, case: FuzzCase) -> None:
        """Account one evaluated fuzz case in the family tallies."""
        if case.name not in self.families_run:
            self.families_run.append(case.name)
            self.families_run.sort()
        if case.particles.weighted or (
            case.particles_b is not None and case.particles_b.weighted
        ):
            self.weighted_cases += 1
        if case.cross:
            self.cross_cases += 1

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cases_run": self.cases_run,
            "corpus_replayed": self.corpus_replayed,
            "adm_checked": self.adm_checked,
            "planner_checked": self.planner_checked,
            "engines": list(self.engines),
            "kernel": self.kernel,
            "seeds": self.seeds,
            "families_run": list(self.families_run),
            "weighted_cases": self.weighted_cases,
            "cross_cases": self.cross_cases,
            "discrepancies": [d.to_dict() for d in self.discrepancies],
            "corpus_written": self.corpus_written,
            "duration_seconds": round(self.duration_seconds, 3),
        }


def run_verification(
    seeds: int = 20,
    seed_start: int = 0,
    engines: tuple[str, ...] | None = None,
    corpus=None,
    invariants: bool = True,
    adm: bool = True,
    planner: bool = True,
    workers: int = 2,
    kernel: str = "auto",
) -> VerifyReport:
    """The full harness: corpus replay, fuzzing, ADM model bounds.

    Failing fuzz cases are shrunk to minimal reproducers and — when a
    :class:`~repro.verify.corpus.Corpus` is given — persisted so every
    past failure becomes a permanent regression test.  ``planner``
    additionally routes each exact fuzz case through the cost-based
    planner and asserts the planned execution is bit-identical to every
    forced-engine run (:func:`check_planner_neutrality`).  Progress is
    recorded on the default metrics registry (``verify_cases_total``,
    ``verify_discrepancies_total``) and as trace spans.

    ``kernel`` pins every fuzz case to one leaf-resolution tier (the
    CI numba job forces ``"numba"``); the default ``"auto"`` instead
    lets :func:`~repro.verify.differential.run_engines` expand each
    engine across all its available tiers and diff them bit-for-bit.
    """
    from ..core.engines import available_engines

    registry = get_registry()
    cases_total = registry.counter(
        "verify_cases_total",
        "Verify cases evaluated, by outcome.",
        ("outcome",),
    )
    findings_total = registry.counter(
        "verify_discrepancies_total",
        "Verify discrepancies found, by kind.",
        ("kind",),
    )
    report = VerifyReport(
        engines=tuple(
            engines if engines is not None else available_engines()
        ),
        kernel=kernel,
        planner_checked=planner,
    )
    started = time.perf_counter()
    with trace_span("verify_run", seeds=seeds, seed_start=seed_start):
        if corpus is not None:
            replayed, found = corpus.replay(
                engines=engines,
                invariants=invariants,
                workers=workers,
                planner=planner,
            )
            report.corpus_replayed = replayed
            report.discrepancies.extend(found)
            for item in found:
                findings_total.labels(kind=item.kind).inc()
        for seed in range(seed_start, seed_start + seeds):
            report.seeds.append(seed)
            case = generate_case(seed)
            report.record_case(case)
            if kernel != "auto":
                case = case.with_request(
                    case.request.replace(kernel=kernel)
                )
            with trace_span(
                "verify_case", seed=seed, family=case.name,
                particles=case.particles.size,
            ):
                found = evaluate_case(
                    case,
                    engines=engines,
                    invariants=invariants,
                    workers=workers,
                    planner=planner,
                )
            report.cases_run += 1
            if not found:
                cases_total.labels(outcome="ok").inc()
                continue
            cases_total.labels(outcome="failed").inc()
            for item in found:
                findings_total.labels(kind=item.kind).inc()
            shrunk = shrink_case(
                case, engines=engines, invariants=invariants,
                planner=planner,
            )
            report.discrepancies.extend(
                evaluate_case(
                    shrunk, engines=engines, invariants=invariants,
                    planner=planner,
                )
                or found
            )
            if corpus is not None:
                path = corpus.save(
                    shrunk, found, note="shrunk fuzz failure"
                )
                report.corpus_written.append(str(path))
        if adm:
            with trace_span("verify_adm"):
                found = check_adm_bounds()
            report.adm_checked = True
            report.discrepancies.extend(found)
            for item in found:
                findings_total.labels(kind=item.kind).inc()
    report.duration_seconds = time.perf_counter() - started
    return report
