"""Partial radial distribution functions g_ab(r).

Multi-component systems (the paper's membrane has heads, tails, water,
ions) are characterized by *partial* RDFs: one g_ab(r) per pair of
particle types, each normalized so an uncorrelated mixture gives
``g_ab ~ 1``.  The SDH layer already answers the type-restricted
histograms (Sec. III-C.3 second variety); this module runs the full
matrix and normalizes every entry with the same exact finite-box (or
periodic) ideal-gas expectation as :func:`rdf_from_histogram`.
"""

from __future__ import annotations

import numpy as np

from ..core.buckets import BucketSpec
from ..core.histogram import DistanceHistogram
from ..core.query import compute_sdh
from ..core.request import SDHRequest
from ..data.particles import ParticleSet
from ..errors import DatasetError, QueryError
from .rdf import RadialDistributionFunction, _box_distance_cdf_diffs

__all__ = ["partial_rdfs"]


def partial_rdfs(
    particles: ParticleSet,
    spec: BucketSpec | None = None,
    num_buckets: int | None = None,
    periodic: bool = False,
    finite_size: str | None = None,
) -> dict[tuple[str, str], RadialDistributionFunction]:
    """All partial g_ab(r) of a typed particle set.

    Returns a dict keyed by ``(name_a, name_b)`` with ``name_a <=
    name_b``; the diagonal entries are the same-type RDFs.  Histograms
    come from the exact DM-SDH engine (cross pairs via the
    ``h(AxB) = h(AuB) - h(A) - h(B)`` identity); the normalization uses
    the exact box distance distribution, so uncorrelated components sit
    at ``g = 1`` across the whole range.

    ``spec`` / ``num_buckets`` / ``periodic`` mean what they mean on
    :class:`~repro.core.request.SDHRequest`; ``finite_size`` defaults to ``"periodic"`` / ``"corrected"``
    matching the metric.
    """
    if particles.types is None:
        raise DatasetError("partial RDFs need a typed particle set")
    if finite_size is None:
        finite_size = "periodic" if periodic else "corrected"
    if finite_size not in ("periodic", "corrected"):
        raise QueryError(
            "finite_size must be 'periodic' or 'corrected' for partial "
            "RDFs"
        )

    names = _type_names(particles)
    volume = particles.box.volume

    # The per-bucket ideal-gas fraction is type-independent; compute
    # the (relatively expensive) quadrature once.
    probe = compute_sdh(
        particles,
        SDHRequest(
            spec=spec,
            num_buckets=num_buckets,
            type_filter=names[0],
            periodic=periodic,
        ),
    )
    resolved_spec = probe.spec
    fractions = _box_distance_cdf_diffs(
        particles.box.sides,
        resolved_spec.edges,
        periodic=(finite_size == "periodic"),
    )
    centers = (resolved_spec.edges[:-1] + resolved_spec.edges[1:]) / 2.0

    out: dict[tuple[str, str], RadialDistributionFunction] = {}
    for i, name_a in enumerate(names):
        for name_b in names[i:]:
            if name_a == name_b:
                if name_a == names[0]:
                    histogram = probe
                else:
                    histogram = compute_sdh(
                        particles,
                        SDHRequest(
                            spec=resolved_spec,
                            type_filter=name_a,
                            periodic=periodic,
                        ),
                    )
                n_a = particles.type_count(name_a)
                num_pairs = n_a * (n_a - 1) / 2.0
                partner_density = n_a / volume
            else:
                histogram = compute_sdh(
                    particles,
                    SDHRequest(
                        spec=resolved_spec,
                        type_pair=(name_a, name_b),
                        periodic=periodic,
                    ),
                )
                n_a = particles.type_count(name_a)
                n_b = particles.type_count(name_b)
                num_pairs = float(n_a * n_b)
                partner_density = n_b / volume
            out[(name_a, name_b)] = _normalize(
                histogram,
                fractions,
                centers,
                num_pairs,
                partner_density,
                particles,
            )
    return out


def _type_names(particles: ParticleSet) -> list[str]:
    codes = sorted(int(c) for c in np.unique(particles.types))
    table = particles.type_names
    return [table.get(code, str(code)) for code in codes]


def _normalize(
    histogram: DistanceHistogram,
    fractions: np.ndarray,
    centers: np.ndarray,
    num_pairs: float,
    partner_density: float,
    particles: ParticleSet,
) -> RadialDistributionFunction:
    expected = num_pairs * fractions
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(expected > 0, histogram.counts / expected, 0.0)
    return RadialDistributionFunction(
        r=centers,
        g=g,
        edges=np.asarray(histogram.spec.edges, dtype=float),
        density=partner_density,
        num_particles=particles.size,
        dim=particles.dim,
    )
