"""Tests for repro.physics (RDF, structure factor, thermodynamics)."""

import math

import numpy as np
import pytest
import scipy.special

from repro.core import (
    SDHRequest,
    UniformBuckets,
    adm_sdh,
    brute_force_sdh,
    compute_sdh,
)
from repro.data import lattice, uniform
from repro.errors import QueryError
from repro.physics import (
    excess_internal_energy,
    lennard_jones,
    lennard_jones_derivative,
    rdf_from_histogram,
    structure_factor,
    virial_pressure,
)
from repro.physics.structure import _bessel_j0


def make_rdf(data, num_buckets=60):
    h = compute_sdh(data, SDHRequest(num_buckets=num_buckets))
    return rdf_from_histogram(h, data)


class TestRDF:
    def test_ideal_gas_small_r(self):
        """Uniform data: g(r) ~ 1 at small r (before finite-box decay)."""
        data = uniform(8000, dim=3, rng=91)
        rdf = make_rdf(data)
        small = rdf.g[2:8]
        np.testing.assert_allclose(small, 1.0, atol=0.12)

    def test_2d_normalization(self):
        data = uniform(8000, dim=2, rng=92)
        rdf = make_rdf(data)
        np.testing.assert_allclose(rdf.g[2:8], 1.0, atol=0.12)

    def test_lattice_peak_at_spacing(self):
        """A jittered lattice must show its nearest-neighbour peak."""
        data = lattice(20, dim=2, jitter=0.05, rng=0)
        spacing = 1.0 / 20
        # Truncate just past the nearest-neighbour shell so the peak
        # finder isolates it from the (denser) higher shells.
        rdf = make_rdf(data, num_buckets=200).truncated(1.3 * spacing)
        peak_r, peak_g = rdf.first_peak()
        assert peak_r == pytest.approx(spacing, rel=0.15)
        assert peak_g > 2.0

    def test_total_metadata(self):
        data = uniform(500, dim=3, rng=93)
        rdf = make_rdf(data, num_buckets=10)
        assert rdf.num_particles == 500
        assert rdf.dim == 3
        assert rdf.density == pytest.approx(500 / data.box.volume)
        assert len(rdf) == 10

    def test_coordination_number_counts_neighbours(self):
        """For uniform data, n(r) ~ rho * sphere volume."""
        data = uniform(6000, dim=3, rng=94)
        rdf = make_rdf(data, num_buckets=80)
        r_cut = 0.2
        expected = rdf.density * 4 / 3 * math.pi * r_cut**3
        got = rdf.coordination_number(r_cut)
        assert got == pytest.approx(expected, rel=0.15)

    def test_rdf_from_approximate_histogram(self):
        """The paper's point: an approximate SDH is still a good RDF."""
        data = uniform(4000, dim=2, rng=95)
        spec = UniformBuckets.with_count(data.max_possible_distance, 40)
        exact_rdf = rdf_from_histogram(
            brute_force_sdh(data, spec=spec), data
        )
        approx_rdf = rdf_from_histogram(
            adm_sdh(data, spec=spec, levels=2, heuristic=3, rng=0), data
        )
        r_max = 0.75 * data.max_possible_distance
        np.testing.assert_allclose(
            approx_rdf.truncated(r_max).g[1:],
            exact_rdf.truncated(r_max).g[1:],
            atol=0.08,
        )


class TestStructureFactor:
    def test_bessel_j0_accuracy(self):
        x = np.linspace(0.01, 60.0, 2000)
        np.testing.assert_allclose(
            _bessel_j0(x), scipy.special.j0(x), atol=2e-6
        )

    def test_ideal_gas_sq_near_one(self):
        """Uncorrelated data: S(q) ~ 1 at large q."""
        data = uniform(6000, dim=3, rng=96)
        rdf = make_rdf(data, num_buckets=80).truncated(0.8)
        q = np.array([60.0, 90.0, 120.0])
        s = structure_factor(rdf, q)
        np.testing.assert_allclose(s, 1.0, atol=0.25)

    def test_lattice_shows_bragg_like_peak(self):
        data = lattice(24, dim=2, jitter=0.03, rng=1)
        rdf = make_rdf(data, num_buckets=120).truncated(0.6)
        spacing = 1.0 / 24
        q = np.linspace(0.5, 2.5, 60) * (2 * math.pi / spacing)
        s = structure_factor(rdf, q)
        q_peak = q[np.argmax(s)]
        assert q_peak == pytest.approx(2 * math.pi / spacing, rel=0.15)
        assert s.max() > 2.0

    def test_rejects_bad_q(self):
        data = uniform(200, dim=2, rng=97)
        rdf = make_rdf(data, num_buckets=10)
        with pytest.raises(QueryError):
            structure_factor(rdf, np.array([0.0]))


class TestThermo:
    def test_lj_minimum(self):
        r_min = 2 ** (1 / 6)
        assert lennard_jones(np.array([r_min]))[0] == pytest.approx(-1.0)
        assert lennard_jones_derivative(np.array([r_min]))[
            0
        ] == pytest.approx(0.0, abs=1e-10)

    def test_lj_rejects_zero(self):
        with pytest.raises(QueryError):
            lennard_jones(np.array([0.0]))

    def test_ideal_gas_pressure(self):
        """With u == 0 the virial pressure reduces to rho k T."""
        data = uniform(3000, dim=3, rng=98)
        rdf = make_rdf(data, num_buckets=40)
        p = virial_pressure(
            rdf,
            temperature=2.0,
            potential_derivative=lambda r: np.zeros_like(r),
        )
        assert p == pytest.approx(rdf.density * 2.0)

    def test_attractive_tail_lowers_energy(self):
        """With sigma far below the typical spacing, LJ is attractive
        nearly everywhere sampled, so the excess energy is negative."""
        data = uniform(3000, dim=3, rng=99)
        rdf = make_rdf(data, num_buckets=40)
        u = excess_internal_energy(
            rdf,
            potential=lambda r: lennard_jones(r, sigma=0.01),
            r_min=0.05,
        )
        assert u < 0

    def test_repulsive_potential_raises_pressure(self):
        data = uniform(3000, dim=2, rng=100)
        rdf = make_rdf(data, num_buckets=40)
        base = virial_pressure(
            rdf,
            temperature=1.0,
            potential_derivative=lambda r: np.zeros_like(r),
        )
        # Purely repulsive: u' < 0 everywhere.
        repulsive = virial_pressure(
            rdf,
            temperature=1.0,
            potential_derivative=lambda r: -1.0 / r**2,
        )
        assert repulsive > base

    def test_temperature_validation(self):
        data = uniform(500, dim=2, rng=101)
        rdf = make_rdf(data, num_buckets=20)
        with pytest.raises(QueryError):
            virial_pressure(rdf, temperature=-1.0)
