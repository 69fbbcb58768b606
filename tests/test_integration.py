"""End-to-end integration tests: full pipelines across subsystems."""

import numpy as np
import pytest

from repro import (
    SDHQuery,
    SDHRequest,
    SDHStats,
    UniformBuckets,
    adm_sdh,
    brute_force_sdh,
    compute_sdh,
    dm_sdh_exponent,
    synthetic_bilayer,
    uniform,
)
from repro.bench import fit_loglog_slope
from repro.data import random_walk_trajectory
from repro.incremental import IncrementalSDH
from repro.physics import rdf_from_histogram


class TestMembranePipeline:
    """The paper's motivating scenario: a membrane simulation analysed
    via SDH -> RDF, exactly and approximately."""

    def test_full_pipeline(self):
        system = synthetic_bilayer(3000, dim=3, rng=42)
        spec = UniformBuckets.with_count(
            system.max_possible_distance, 50
        )
        exact = compute_sdh(system, SDHRequest(spec=spec))
        assert exact.total == system.num_pairs

        approx = adm_sdh(system, spec=spec, levels=2, heuristic=3, rng=0)
        # At this N the 3D tree is short (the paper's small-N regime),
        # so nearly all mass is heuristic-allocated; accuracy is looser
        # than the deep-tree benchmarks but must stay under ~10%.
        assert approx.error_rate(exact) < 0.10

        rdf_exact = rdf_from_histogram(exact, system)
        rdf_approx = rdf_from_histogram(approx, system)
        r_max = 0.7 * system.max_possible_distance
        # The first couple of bins hold almost no ideal-gas mass, so
        # their g values amplify any approximation error enormously;
        # the physically meaningful range must agree closely.
        np.testing.assert_allclose(
            rdf_approx.truncated(r_max).g[3:],
            rdf_exact.truncated(r_max).g[3:],
            atol=0.3,
        )

    def test_type_restricted_analysis(self):
        system = synthetic_bilayer(1200, dim=3, rng=43)
        spec = UniformBuckets.with_count(
            system.max_possible_distance, 12
        )
        water_water = compute_sdh(
            system,
            SDHRequest(spec=spec, type_filter="water"),
        )
        n_water = system.type_count("water")
        assert water_water.total == n_water * (n_water - 1) / 2

        head_tail = compute_sdh(
            system,
            SDHRequest(spec=spec, type_pair=("head", "tail")),
        )
        assert head_tail.total == system.type_count(
            "head"
        ) * system.type_count("tail")


class TestOperationScaling:
    """Machine-independent check of Theorem 3: total operations grow
    like N^{(2d-1)/d}, far below the baseline's N^2."""

    def test_2d_operation_count_subquadratic(self):
        ns = [2000, 4000, 8000, 16000]
        ops = []
        for n in ns:
            data = uniform(n, dim=2, rng=1000 + n)
            spec = UniformBuckets.with_count(
                data.max_possible_distance, 4
            )
            stats = SDHStats()
            compute_sdh(
                data,
                SDHRequest(spec=spec, engine="grid"),
                stats=stats,
            )
            ops.append(stats.total_operations)
        slope = fit_loglog_slope(np.asarray(ns, float), np.asarray(ops, float))
        assert slope < 1.85
        assert slope > 1.0
        # The theoretical exponent for comparison.
        assert dm_sdh_exponent(2) == 1.5

    def test_brute_force_is_quadratic_in_operations(self):
        ns = [500, 1000, 2000]
        ops = []
        for n in ns:
            data = uniform(n, dim=2, rng=2000 + n)
            stats = SDHStats()
            brute_force_sdh(data, bucket_width=0.2, stats=stats)
            ops.append(stats.distance_computations)
        slope = fit_loglog_slope(np.asarray(ns, float), np.asarray(ops, float))
        assert slope == pytest.approx(2.0, abs=0.02)


class TestDatabaseScenario:
    """Index once, answer many queries (the SDHQuery plan)."""

    def test_multiple_queries_one_index(self):
        data = uniform(2500, dim=2, rng=77)
        plan = SDHQuery(data)
        reference_spec = UniformBuckets.with_count(
            data.max_possible_distance, 8
        )
        exact = plan.run(SDHRequest(spec=reference_spec))
        assert exact.total == data.num_pairs

        coarse = plan.run(SDHRequest(num_buckets=2))
        assert coarse.total == data.num_pairs

        approx = plan.run(
            SDHRequest(spec=reference_spec, error_bound=0.1), rng=0
        )
        assert approx.error_rate(exact) < 0.1

    def test_trajectory_scenario(self):
        """Frames arrive over time; the incremental maintainer tracks
        the exact histogram of each."""
        initial = uniform(200, dim=2, rng=88)
        spec = UniformBuckets.with_count(
            initial.max_possible_distance, 6
        )
        traj = random_walk_trajectory(
            initial, 5, move_fraction=0.05, rng=88
        )
        inc = IncrementalSDH(spec, traj[0])
        for frame in traj.frames[1:]:
            inc.advance(frame)
        final = brute_force_sdh(traj.frames[-1], spec=spec)
        np.testing.assert_allclose(
            inc.histogram.counts, final.counts, atol=1e-9
        )
