"""Tests for periodic-boundary (minimum-image) SDH support.

Real molecular simulations measure distances under the minimum-image
convention; this extension threads a torus metric through the brute
force baseline, the vectorized DM-SDH engine (cell bounds become torus
distance intervals), ADM-SDH, and the RDF normalization.  Correctness
anchor: the grid engine must match the min-image brute force *exactly*,
and known torus geometry facts must hold.
"""

import numpy as np
import pytest

from repro import (
    SDHRequest,
    UniformBuckets,
    adm_sdh,
    brute_force_sdh,
    compute_sdh,
    dm_sdh_grid,
    lattice,
    uniform,
    zipf_clustered,
)
from repro.data import ParticleSet
from repro.errors import QueryError
from repro.geometry import AABB
from repro.geometry.distance import (
    minimum_image,
    periodic_grid_pair_bounds,
    periodic_interval_minmax,
)
from repro.physics import rdf_from_histogram
from repro.quadtree import GridPyramid


class TestMinimumImage:
    def test_wraps_to_half_box(self, rng):
        lengths = np.array([2.0, 4.0])
        delta = rng.uniform(-10, 10, size=(500, 2))
        wrapped = minimum_image(delta, lengths)
        assert (np.abs(wrapped[:, 0]) <= 1.0 + 1e-12).all()
        assert (np.abs(wrapped[:, 1]) <= 2.0 + 1e-12).all()

    def test_identity_within_half_box(self):
        delta = np.array([[0.3, -0.4]])
        np.testing.assert_allclose(
            minimum_image(delta, np.array([1.0, 1.0])), delta
        )

    def test_known_wrap(self):
        delta = np.array([[0.9, -0.8]])
        wrapped = minimum_image(delta, np.array([1.0, 1.0]))
        np.testing.assert_allclose(wrapped, [[-0.1, 0.2]])


class TestPeriodicIntervalMinmax:
    def test_interval_below_half(self):
        a, b = np.array([0.1]), np.array([0.3])
        g_min, g_max = periodic_interval_minmax(a, b, 1.0)
        assert g_min[0] == pytest.approx(0.1)
        assert g_max[0] == pytest.approx(0.3)

    def test_interval_above_half(self):
        a, b = np.array([0.7]), np.array([0.9])
        g_min, g_max = periodic_interval_minmax(a, b, 1.0)
        assert g_min[0] == pytest.approx(0.1)
        assert g_max[0] == pytest.approx(0.3)

    def test_straddling_interval(self):
        a, b = np.array([0.4]), np.array([0.7])
        g_min, g_max = periodic_interval_minmax(a, b, 1.0)
        assert g_min[0] == pytest.approx(0.3)  # min(0.4, 1-0.7)
        assert g_max[0] == pytest.approx(0.5)  # hits L/2

    def test_bounds_enclose_sampled_minimage(self, rng):
        """For random cell pairs on a torus, every realized min-image
        distance lies within the computed [u, v]."""
        grid, side = 8, 0.25
        for _ in range(50):
            i1 = rng.integers(0, grid, size=(1, 2))
            i2 = rng.integers(0, grid, size=(1, 2))
            u, v = periodic_grid_pair_bounds(i1, i2, grid, side)
            p1 = (i1 + rng.uniform(size=(200, 2))) * side
            p2 = (i2 + rng.uniform(size=(200, 2))) * side
            delta = minimum_image(
                p1 - p2, np.array([grid * side] * 2)
            )
            d = np.sqrt((delta**2).sum(axis=1))
            assert d.min() >= u[0] - 1e-12
            assert d.max() <= v[0] + 1e-12


class TestPeriodicEngines:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("num_buckets", [2, 5, 12])
    def test_grid_matches_brute_force(self, dim, num_buckets):
        data = uniform(400, dim=dim, rng=171)
        spec = UniformBuckets.with_count(
            data.max_periodic_distance, num_buckets
        )
        hb = brute_force_sdh(data, spec=spec, periodic=True)
        hg = dm_sdh_grid(data, spec=spec, periodic=True)
        assert hb.total == data.num_pairs
        np.testing.assert_array_equal(hb.counts, hg.counts)

    def test_clustered_data(self):
        data = zipf_clustered(400, dim=2, rng=172)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 6)
        hb = brute_force_sdh(data, spec=spec, periodic=True)
        hg = dm_sdh_grid(data, spec=spec, periodic=True)
        np.testing.assert_array_equal(hb.counts, hg.counts)

    def test_differs_from_nonperiodic(self):
        """Wrapping genuinely moves mass toward shorter distances."""
        data = uniform(300, dim=2, rng=173)
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        plain = compute_sdh(data, SDHRequest(spec=spec))
        wrapped = compute_sdh(data, SDHRequest(spec=spec, periodic=True))
        assert not np.array_equal(plain.counts, wrapped.counts)
        # No min-image distance exceeds the torus maximum.
        torus_max = data.max_periodic_distance
        first_dead = int(
            np.searchsorted(spec.edges, torus_max * (1 + 1e-9))
        )
        assert wrapped.counts[first_dead:].sum() == 0

    def test_two_points_on_opposite_faces(self):
        """The classic wrap case: near-corner pairs are close."""
        pts = np.array([[0.05, 0.5], [0.95, 0.5]])
        data = ParticleSet(pts, box=AABB.cube(1.0, 2))
        spec = UniformBuckets(0.05, 20)  # covers [0, 1]
        wrapped = brute_force_sdh(data, spec=spec, periodic=True)
        # Distance 0.1 (floating point may land it on either side of
        # the exact bucket edge).
        assert wrapped.counts[1] + wrapped.counts[2] == 1
        assert wrapped.counts[:4].sum() == 1
        plain = brute_force_sdh(data, spec=spec)
        assert plain.counts[17] + plain.counts[18] == 1  # distance 0.9

    def test_periodic_requires_box(self):
        with pytest.raises(ValueError):
            brute_force_sdh(
                np.random.default_rng(0).uniform(size=(10, 2)),
                bucket_width=0.2,
                periodic=True,
            )

    def test_mbr_rejected(self):
        data = uniform(100, dim=2, rng=174)
        pyramid = GridPyramid(data)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 4)
        with pytest.raises(QueryError):
            dm_sdh_grid(pyramid, spec=spec, use_mbr=True, periodic=True)

    def test_tree_engine_rejected(self):
        data = uniform(100, dim=2, rng=175)
        with pytest.raises(QueryError):
            compute_sdh(
                data,
                SDHRequest(num_buckets=4, engine="tree", periodic=True),
            )

    def test_default_spec_covers_torus(self):
        data = uniform(200, dim=2, rng=176)
        h = compute_sdh(data, SDHRequest(num_buckets=10, periodic=True))
        assert h.spec.high == pytest.approx(data.max_periodic_distance)
        assert h.total == data.num_pairs

    def test_restricted_periodic_query(self):
        from repro.data import random_types

        data = random_types(
            uniform(300, dim=2, rng=177), {"A": 1, "B": 1}, rng=1
        )
        spec = UniformBuckets.with_count(data.max_periodic_distance, 6)
        got = compute_sdh(
            data,
            SDHRequest(spec=spec, type_filter="A", periodic=True),
        )
        expected = brute_force_sdh(
            data.of_type("A"), spec=spec, periodic=True
        )
        np.testing.assert_array_equal(expected.counts, got.counts)


class TestPeriodicApproximate:
    def test_mass_conserved_and_accurate(self):
        data = uniform(3000, dim=2, rng=178)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 16)
        exact = brute_force_sdh(data, spec=spec, periodic=True)
        approx = adm_sdh(
            data, spec=spec, levels=2, heuristic=3, rng=0, periodic=True
        )
        assert approx.total == pytest.approx(data.num_pairs)
        assert approx.error_rate(exact) < 0.05

    def test_model_heuristic_falls_back(self):
        """Heuristic 4's offset-class sampling assumes flat geometry;
        under periodic boundaries it must still conserve mass (it falls
        back to the proportional split)."""
        data = uniform(1000, dim=2, rng=179)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 8)
        approx = adm_sdh(
            data, spec=spec, levels=1, heuristic=4, rng=0, periodic=True
        )
        assert approx.total == pytest.approx(data.num_pairs)


class TestPeriodicRDF:
    def test_ideal_gas_flat_to_half_box(self):
        data = uniform(6000, dim=3, rng=180)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 40)
        h = compute_sdh(data, SDHRequest(spec=spec, periodic=True))
        rdf = rdf_from_histogram(h, data, finite_size="periodic")
        np.testing.assert_allclose(rdf.g[2:35], 1.0, atol=0.15)

    def test_periodic_matches_shell_at_small_r(self):
        data = uniform(6000, dim=3, rng=181)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 40)
        h = compute_sdh(data, SDHRequest(spec=spec, periodic=True))
        g_per = rdf_from_histogram(h, data, finite_size="periodic").g
        g_shell = rdf_from_histogram(h, data, finite_size="shell").g
        np.testing.assert_allclose(g_per[:10], g_shell[:10], rtol=0.02)

    def test_periodic_lattice_peaks(self):
        """A periodic lattice has *exactly* equivalent sites, so the
        nearest-neighbour peak is clean at the lattice constant."""
        data = lattice(10, dim=2, jitter=0.02, rng=0)
        spec = UniformBuckets.with_count(data.max_periodic_distance, 70)
        h = compute_sdh(data, SDHRequest(spec=spec, periodic=True))
        rdf = rdf_from_histogram(h, data, finite_size="periodic")
        spacing = 1.0 / 10
        peak_r, peak_g = rdf.truncated(1.4 * spacing).first_peak()
        assert peak_r == pytest.approx(spacing, rel=0.1)
        assert peak_g > 3.0
