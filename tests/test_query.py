"""Tests for repro.core.query (compute_sdh facade and SDHQuery plans)."""

import numpy as np
import pytest

from repro.core import (
    DistanceHistogram,
    SDHQuery,
    SDHRequest,
    SDHStats,
    UniformBuckets,
    brute_force_sdh,
    build_plan,
    compute_sdh,
    register_engine,
    unregister_engine,
)
from repro.data import random_types, uniform
from repro.errors import QueryError
from repro.geometry import AABB, BallRegion, RectRegion


@pytest.fixture(scope="module")
def data():
    return random_types(
        uniform(400, dim=2, rng=81), {"A": 1.0, "B": 2.0}, rng=8
    )


@pytest.fixture(scope="module")
def reference(data):
    spec = UniformBuckets.with_count(data.max_possible_distance, 8)
    return spec, brute_force_sdh(data, spec=spec)


class TestComputeSDH:
    def test_engine_variants_agree(self, data, reference):
        spec, ref = reference
        for engine in ("auto", "grid", "tree", "brute"):
            h = compute_sdh(data, SDHRequest(spec=spec, engine=engine))
            np.testing.assert_array_equal(ref.counts, h.counts)

    def test_num_buckets_parameterization(self, data):
        """The paper's 'l' parameterization: p = diagonal / l."""
        h = compute_sdh(data, SDHRequest(num_buckets=8))
        assert h.spec.num_buckets == 8
        assert h.spec.high == pytest.approx(data.max_possible_distance)
        assert h.total == data.num_pairs

    def test_bucket_width_parameterization(self, data):
        h = compute_sdh(data, SDHRequest(bucket_width=0.3))
        assert h.spec.high >= data.max_possible_distance

    def test_exactly_one_spec_argument(self, data):
        with pytest.raises(QueryError):
            compute_sdh(data, SDHRequest())
        with pytest.raises(QueryError):
            compute_sdh(data, SDHRequest(bucket_width=0.3, num_buckets=8))

    def test_unknown_engine(self, data):
        with pytest.raises(QueryError):
            compute_sdh(data, SDHRequest(num_buckets=4, engine="gpu"))

    def test_region_routes_to_tree(self, data):
        region = RectRegion(AABB((0.2, 0.2), (0.8, 0.8)))
        h = compute_sdh(data, SDHRequest(num_buckets=8, region=region))
        subset = data.select(region.contains_points(data.positions))
        expected = brute_force_sdh(subset, spec=h.spec)
        np.testing.assert_array_equal(expected.counts, h.counts)

    def test_region_brute_agrees(self, data):
        region = BallRegion((0.5, 0.5), 0.3)
        h_tree = compute_sdh(data, SDHRequest(num_buckets=8, region=region))
        h_brute = compute_sdh(
            data,
            SDHRequest(num_buckets=8, region=region, engine="brute"),
        )
        np.testing.assert_array_equal(h_tree.counts, h_brute.counts)

    def test_region_grid_subset_route(self, data):
        """engine='grid' (and 'auto') answer restricted queries by
        filtering the qualifying particles and running the plain
        vectorized algorithm — equivalent to the in-index pruning."""
        region = BallRegion((0.5, 0.5), 0.3)
        h_grid = compute_sdh(
            data,
            SDHRequest(num_buckets=8, region=region, engine="grid"),
        )
        h_tree = compute_sdh(
            data,
            SDHRequest(num_buckets=8, region=region, engine="tree"),
        )
        np.testing.assert_array_equal(h_grid.counts, h_tree.counts)

    def test_type_filter_all_engines(self, data):
        histograms = [
            compute_sdh(
                data,
                SDHRequest(num_buckets=8, type_filter="B", engine=engine),
            )
            for engine in ("auto", "grid", "tree", "brute")
        ]
        for other in histograms[1:]:
            np.testing.assert_array_equal(
                histograms[0].counts, other.counts
            )

    def test_type_pair_all_engines(self, data):
        """The cross-type identity h(AxB) = h(AuB) - h(A) - h(B) must
        agree exactly with the in-index and brute-force routes."""
        histograms = [
            compute_sdh(
                data,
                SDHRequest(num_buckets=8, type_pair=("A", "B"), engine=engine),
            )
            for engine in ("auto", "grid", "tree", "brute")
        ]
        for other in histograms[1:]:
            np.testing.assert_array_equal(
                histograms[0].counts, other.counts
            )

    def test_approximate_route(self, data, reference):
        spec, ref = reference
        h = compute_sdh(data, SDHRequest(spec=spec, levels=2), rng=0)
        assert h.total == pytest.approx(data.num_pairs)
        assert h.error_rate(ref) < 0.1

    def test_approximate_restricted_rejected(self, data):
        with pytest.raises(QueryError):
            compute_sdh(
                data,
                SDHRequest(
                    num_buckets=8,
                    levels=2,
                    region=BallRegion((0.5, 0.5), 0.2),
                ),
            )

    def test_approximate_on_tree_engine_rejected(self, data):
        with pytest.raises(QueryError):
            compute_sdh(
                data,
                SDHRequest(num_buckets=8, levels=2, engine="tree"),
            )

    def test_empty_region_rejected(self, data):
        region = RectRegion(AABB((5.0, 5.0), (6.0, 6.0)))
        with pytest.raises(QueryError):
            compute_sdh(
                data,
                SDHRequest(num_buckets=4, region=region, engine="brute"),
            )


class TestSDHQueryPlan:
    def test_reuse_across_widths(self, data, reference):
        spec, ref = reference
        plan = SDHQuery(data)
        h8 = plan.run(SDHRequest(spec=spec))
        np.testing.assert_array_equal(ref.counts, h8.counts)
        h4 = plan.run(SDHRequest(num_buckets=4))
        assert h4.total == data.num_pairs

    def test_pyramid_shared(self, data):
        plan = SDHQuery(data)
        assert plan.pyramid is plan.pyramid
        assert plan.particles is data

    def test_restricted_routes_agree(self, data):
        plan = SDHQuery(data)
        region = RectRegion(AABB((0.0, 0.0), (0.5, 0.5)))
        # Default: subset + grid; the tree stays unbuilt.
        h = plan.run(SDHRequest(num_buckets=4, region=region))
        assert plan._tree is None
        # engine="tree" runs the paper's pruning on the (lazy) tree.
        h_index = plan.run(
            SDHRequest(num_buckets=4, region=region, engine="tree")
        )
        assert plan._tree is not None
        subset = data.select(region.contains_points(data.positions))
        expected = brute_force_sdh(subset, spec=h.spec)
        np.testing.assert_array_equal(expected.counts, h.counts)
        np.testing.assert_array_equal(expected.counts, h_index.counts)

    def test_approximate_via_plan(self, data, reference):
        spec, ref = reference
        plan = SDHQuery(data)
        h = plan.run(SDHRequest(spec=spec, error_bound=0.05), rng=0)
        assert h.error_rate(ref) < 0.05

    def test_restricted_approximate_rejected(self, data):
        plan = SDHQuery(data)
        with pytest.raises(QueryError):
            plan.run(SDHRequest(num_buckets=4, levels=1, type_filter="A"))

    def test_mbr_plan(self, data, reference):
        spec, ref = reference
        plan = SDHQuery(data, use_mbr=True)
        h = plan.run(SDHRequest(spec=spec, use_mbr=True))
        np.testing.assert_array_equal(ref.counts, h.counts)

    def test_stats_flow_through(self, data):
        plan = SDHQuery(data)
        stats = SDHStats()
        plan.run(SDHRequest(num_buckets=4), stats=stats)
        assert stats.total_resolve_calls > 0


#: Restrictions every subsetting engine and the tree must answer alike.
_RESTRICTIONS = {
    "plain": {},
    "region": {"region": RectRegion(AABB((0.1, 0.2), (0.7, 0.9)))},
    "type_filter": {"type_filter": "B"},
    "type_pair": {"type_pair": ("A", "B")},
}

_PATH_CASES = [
    pytest.param(engine, restriction, use_mbr,
                 id=f"{engine}-{restriction}{'-mbr' if use_mbr else ''}")
    for engine in ("brute", "grid", "tree", "parallel")
    for restriction in _RESTRICTIONS
    for use_mbr in ((False,) if engine == "parallel" else (False, True))
]


def _both_paths(data, request, rng=None):
    """The same request one-shot and through a plan built for it."""
    one_shot, planned = SDHStats(), SDHStats()
    hist = compute_sdh(data, request, stats=one_shot, rng=rng)
    plan_hist = build_plan(data, request=request).run(
        request, stats=planned, rng=rng
    )
    return (hist, one_shot), (plan_hist, planned)


class TestOnePath:
    """compute_sdh and SDHQuery.run share one dispatch: same answer and
    the same work, whether or not the index was prebuilt."""

    @pytest.mark.parametrize("engine, restriction, use_mbr", _PATH_CASES)
    def test_paths_agree(self, data, engine, restriction, use_mbr):
        request = SDHRequest(
            num_buckets=8,
            engine=engine,
            use_mbr=use_mbr,
            workers=2 if engine == "parallel" else None,
            **_RESTRICTIONS[restriction],
        )
        (hist, stats), (plan_hist, plan_stats) = _both_paths(data, request)
        np.testing.assert_array_equal(hist.counts, plan_hist.counts)
        # Every counter: distances, resolve calls and resolved pairs per
        # level, levels visited.
        assert stats == plan_stats

    def test_seeded_adm_agrees(self, data):
        request = SDHRequest(num_buckets=8, levels=2, engine="grid")
        (hist, stats), (plan_hist, plan_stats) = _both_paths(
            data, request, rng=7
        )
        np.testing.assert_array_equal(hist.counts, plan_hist.counts)
        assert stats == plan_stats
        assert stats.approximated_pairs > 0

    def test_registered_engine_runs_on_both_paths(self, data):
        calls = []

        # Written to the bare runner protocol: no ``index`` keyword.
        def runner(particles, request, spec, *, stats, rng):
            calls.append(particles.size)
            return DistanceHistogram(spec, np.arange(spec.num_buckets))

        register_engine("fake-one-path", runner)
        try:
            request = SDHRequest(num_buckets=4, engine="fake-one-path")
            (hist, _), (plan_hist, _) = _both_paths(data, request)
        finally:
            unregister_engine("fake-one-path")
        assert calls == [data.size, data.size]
        np.testing.assert_array_equal(hist.counts, [0, 1, 2, 3])
        np.testing.assert_array_equal(plan_hist.counts, [0, 1, 2, 3])
