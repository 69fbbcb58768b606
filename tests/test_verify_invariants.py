"""Tests for the metamorphic invariant layer (repro.verify.invariants)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.request import SDHRequest
from repro.data.generators import uniform, zipf_clustered
from repro.data.particles import ParticleSet
from repro.verify import ALL_INVARIANTS, run_invariants, snap_dyadic
from repro.verify.invariants import DYADIC_BITS


class TestSnapDyadic:
    def test_coordinates_land_on_grid(self, small_uniform_2d):
        snapped = snap_dyadic(small_uniform_2d)
        scale = float(1 << DYADIC_BITS)
        scaled = snapped.positions * scale
        assert np.array_equal(scaled, np.round(scaled))

    def test_idempotent(self, small_uniform_2d):
        once = snap_dyadic(small_uniform_2d)
        twice = snap_dyadic(once)
        assert np.array_equal(once.positions, twice.positions)

    def test_box_covers_and_is_cubical(self, small_zipf_2d):
        snapped = snap_dyadic(small_zipf_2d)
        sides = np.asarray(snapped.box.sides)
        assert np.allclose(sides, sides[0])
        inside = snapped.box.contains_points(
            snapped.positions, closed=True
        )
        assert bool(inside.all())

    def test_types_preserved(self, small_uniform_2d):
        typed = small_uniform_2d.with_types(
            np.arange(small_uniform_2d.size, dtype=np.int32) % 3,
            {0: "C", 1: "O", 2: "H"},
        )
        snapped = snap_dyadic(typed)
        assert np.array_equal(snapped.types, typed.types)
        assert snapped.type_names == typed.type_names


class TestInvariantsHold:
    @pytest.mark.parametrize("name", sorted(ALL_INVARIANTS))
    def test_uniform_2d(self, name, small_uniform_2d, rng):
        check = ALL_INVARIANTS[name]
        particles = snap_dyadic(small_uniform_2d)
        request = SDHRequest(num_buckets=8).normalize()
        request = request.replace(
            spec=request.resolved_spec(particles),
            bucket_width=None,
            num_buckets=None,
        )
        assert check(particles, request, rng) == []

    def test_all_pass_on_3d_clustered(self):
        data = zipf_clustered(250, dim=3, rng=11)
        assert run_invariants(data, SDHRequest(num_buckets=5), rng=1) == []

    def test_all_pass_under_periodic(self):
        data = uniform(150, dim=2, rng=3)
        found = run_invariants(
            data, SDHRequest(num_buckets=6, periodic=True), rng=2
        )
        assert found == []

    def test_single_particle(self):
        data = ParticleSet(np.array([[0.25, 0.75]]))
        assert run_invariants(data, SDHRequest(num_buckets=3), rng=0) == []

    def test_coincident_pair(self):
        data = ParticleSet(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert run_invariants(data, SDHRequest(num_buckets=3), rng=0) == []


class TestInvariantScope:
    def test_restricted_requests_rejected(self, small_uniform_2d):
        with pytest.raises(ValueError, match="plain exact"):
            run_invariants(
                small_uniform_2d,
                SDHRequest(num_buckets=4, type_filter=0),
            )

    def test_approximate_requests_rejected(self, small_uniform_2d):
        with pytest.raises(ValueError, match="plain exact"):
            run_invariants(
                small_uniform_2d,
                SDHRequest(num_buckets=4, levels=1),
            )

    def test_refinement_splits_custom_edges(
        self, small_uniform_2d, rng, monkeypatch
    ):
        import repro.verify.invariants as invariants
        from repro.core.buckets import CustomBuckets

        edges = CustomBuckets([0.1, 0.3, 1.0, 2.0])
        request = SDHRequest(spec=edges, policy="drop").normalize()
        specs = []
        real = invariants.compute_sdh

        def spy(particles, request, **kwargs):
            specs.append(request.spec)
            return real(particles, request, **kwargs)

        monkeypatch.setattr(invariants, "compute_sdh", spy)
        assert invariants.check_refinement(
            snap_dyadic(small_uniform_2d), request, rng
        ) == []
        np.testing.assert_array_equal(
            specs[-1].edges, [0.1, 0.2, 0.3, 0.65, 1.0, 1.5, 2.0]
        )


class TestPremises:
    """Custom buckets, ``low > 0`` and every overflow policy."""

    @staticmethod
    def _spec(particles, low, top):
        from repro.core.buckets import CustomBuckets

        diag = particles.max_possible_distance
        return CustomBuckets(
            [low * diag, 0.2 * diag, 0.23 * diag, top * diag]
        )

    @pytest.mark.parametrize("policy", ["clamp", "drop", "raise"])
    @pytest.mark.parametrize("low", [0.0, 0.05])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_all_hold_on_custom_buckets(self, policy, low, weighted):
        particles = snap_dyadic(uniform(90, dim=2, rng=3))
        if weighted:
            gen = np.random.default_rng(4)
            particles = particles.with_weights(gen.normal(size=90))
        # RAISE gets a last edge past the diagonal, so it answers.
        top = 1.01 if policy == "raise" else 0.6
        request = SDHRequest(
            spec=self._spec(particles, low, top), policy=policy
        )
        assert run_invariants(particles, request, rng=5) == []

    def test_raising_request_runs_no_invariant(self):
        particles = snap_dyadic(uniform(60, dim=3, rng=6))
        request = SDHRequest(
            spec=self._spec(particles, 0.05, 0.6), policy="raise"
        )
        called = []

        def check(particles, request, rng):
            called.append(request)
            return []

        assert run_invariants(
            particles, request, invariants={"spy": check}
        ) == []
        assert called == []

    def test_conservation_needs_every_pair_binned(self, rng):
        from repro.verify.invariants import check_pair_conservation

        particles = snap_dyadic(uniform(70, dim=2, rng=7))
        for low, policy in ((0.05, "clamp"), (0.0, "drop")):
            request = SDHRequest(
                spec=self._spec(particles, low, 0.6), policy=policy
            ).normalize()
            # Not all pairs are counted, so the check stands aside...
            assert check_pair_conservation(particles, request, rng) == []
        # ...while CLAMP from zero still conserves every pair.
        request = SDHRequest(
            spec=self._spec(particles, 0.0, 0.6), policy="clamp"
        ).normalize()
        assert check_pair_conservation(particles, request, rng) == []

    def test_cross_identity_without_the_diagonal(self, rng):
        from repro.verify.invariants import check_cross_self_identity

        particles = snap_dyadic(uniform(50, dim=2, rng=8))
        request = SDHRequest(
            spec=self._spec(particles, 0.05, 0.6), policy="drop"
        ).normalize()
        assert check_cross_self_identity(particles, request, rng) == []


class TestViolationsCaught:
    def test_failing_check_becomes_discrepancy(self, small_uniform_2d):
        def broken(particles, request, rng):
            return ["planted violation"]

        found = run_invariants(
            small_uniform_2d,
            SDHRequest(num_buckets=4),
            invariants={"broken": broken},
            case="planted",
            seed=42,
        )
        assert len(found) == 1
        assert found[0].kind == "invariant"
        assert "broken: planted violation" in found[0].detail
        assert found[0].seed == 42

    def test_additivity_catches_perturbed_merge(
        self, small_uniform_2d, monkeypatch
    ):
        # The mutation smoke-check: nudge one bucket inside merge and
        # the additivity invariant must light up.
        from repro.core.histogram import DistanceHistogram
        from repro.verify.invariants import check_additivity

        real_merge = DistanceHistogram.merge

        def perturbed(self, other):
            merged = real_merge(self, other)
            merged.counts[0] += 1
            return merged

        particles = snap_dyadic(small_uniform_2d)
        request = SDHRequest(num_buckets=8).normalize()
        rng = np.random.default_rng(0)
        assert check_additivity(particles, request, rng) == []
        monkeypatch.setattr(DistanceHistogram, "merge", perturbed)
        problems = check_additivity(
            particles, request, np.random.default_rng(0)
        )
        assert problems and "additivity" in problems[0]
