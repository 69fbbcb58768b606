"""SDHRequest: validation, normalization, JSON round-trip, kwargs shim."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AABB,
    BallRegion,
    OverflowPolicy,
    QueryError,
    RectRegion,
    SDHRequest,
    UnionRegion,
    UniformBuckets,
    compute_sdh,
    uniform,
)
from repro.core.buckets import CustomBuckets


@pytest.fixture(scope="module")
def data():
    return uniform(300, dim=2, rng=7)


class TestValidation:
    def test_exactly_one_parameterization_required(self):
        with pytest.raises(QueryError, match="exactly one of bucket_width"):
            SDHRequest().validate()
        with pytest.raises(QueryError, match="exactly one of bucket_width"):
            SDHRequest(bucket_width=1.0, num_buckets=4).validate()

    def test_plain_request_valid(self):
        request = SDHRequest(num_buckets=8).validate()
        assert not request.approximate
        assert not request.restricted

    def test_spec_type_checked(self):
        with pytest.raises(QueryError, match="BucketSpec"):
            SDHRequest(spec=[0.0, 1.0]).validate()

    def test_region_type_checked(self):
        with pytest.raises(QueryError, match="Region"):
            SDHRequest(num_buckets=4, region=(0, 1)).validate()

    def test_type_pair_arity(self):
        with pytest.raises(QueryError, match="exactly two"):
            SDHRequest(num_buckets=4, type_pair=(1, 2, 3)).validate()

    def test_approximate_restricted_rejected(self):
        with pytest.raises(QueryError, match="approximate restricted"):
            SDHRequest(
                num_buckets=4, error_bound=0.1, type_filter=0
            ).validate()

    def test_error_bound_positive(self):
        with pytest.raises(QueryError, match="error_bound"):
            SDHRequest(num_buckets=4, error_bound=0.0).validate()

    def test_workers_at_least_one(self):
        with pytest.raises(QueryError, match="workers"):
            SDHRequest(num_buckets=4, workers=0).validate()

    def test_mbr_periodic_rejected(self):
        with pytest.raises(QueryError, match="MBR"):
            SDHRequest(num_buckets=4, use_mbr=True, periodic=True).validate()

    def test_validate_returns_self(self):
        request = SDHRequest(num_buckets=4)
        assert request.validate() is request


class TestNormalize:
    def test_policy_string_coerced(self):
        request = SDHRequest(num_buckets=4, policy="clamp").normalize()
        assert request.policy is OverflowPolicy.CLAMP

    def test_unknown_policy_rejected(self):
        with pytest.raises(QueryError, match="overflow policy"):
            SDHRequest(num_buckets=4, policy="nope").normalize()

    def test_type_pair_list_coerced(self):
        request = SDHRequest(num_buckets=4, type_pair=[0, 1]).normalize()
        assert request.type_pair == (0, 1)

    def test_engine_lowercased(self):
        request = SDHRequest(num_buckets=4, engine="GRID").normalize()
        assert request.engine == "grid"

    def test_workers_coerced_to_int(self):
        request = SDHRequest(num_buckets=4, workers=2.0).normalize()
        assert request.workers == 2
        assert isinstance(request.workers, int)

    def test_frozen(self):
        request = SDHRequest(num_buckets=4)
        with pytest.raises(Exception):
            request.num_buckets = 8

    def test_replace_makes_new_request(self):
        base = SDHRequest(num_buckets=4)
        other = base.replace(workers=2)
        assert other.workers == 2
        assert base.workers is None


class TestResolvedSpec:
    def test_num_buckets_covers_diagonal(self, data):
        spec = SDHRequest(num_buckets=8).resolved_spec(data)
        assert spec.num_buckets == 8
        assert spec.edges[-1] >= data.max_possible_distance

    def test_periodic_uses_half_box_reach(self, data):
        plain = SDHRequest(num_buckets=8).resolved_spec(data)
        wrapped = SDHRequest(num_buckets=8, periodic=True).resolved_spec(data)
        assert wrapped.edges[-1] < plain.edges[-1]

    def test_explicit_spec_passed_through(self, data):
        spec = UniformBuckets(1.0, 5)
        assert SDHRequest(spec=spec).resolved_spec(data) is spec


class TestJsonRoundTrip:
    def test_minimal_round_trip(self):
        request = SDHRequest(num_buckets=16).normalize()
        body = json.loads(json.dumps(request.to_dict()))
        assert SDHRequest.from_dict(body) == request

    def test_defaults_omitted(self):
        body = SDHRequest(num_buckets=16).to_dict()
        assert body == {"num_buckets": 16}

    def test_uniform_spec_round_trip(self):
        request = SDHRequest(spec=UniformBuckets(0.5, 12)).normalize()
        body = json.loads(json.dumps(request.to_dict()))
        assert SDHRequest.from_dict(body) == request

    def test_custom_spec_round_trip(self):
        request = SDHRequest(
            spec=CustomBuckets([0.0, 0.5, 1.5, 4.0])
        ).normalize()
        body = json.loads(json.dumps(request.to_dict()))
        rebuilt = SDHRequest.from_dict(body)
        np.testing.assert_array_equal(
            rebuilt.spec.edges, request.spec.edges
        )

    def test_region_round_trip(self):
        region = UnionRegion(
            [
                RectRegion(AABB((0.0, 0.0), (0.5, 0.5))),
                BallRegion([0.7, 0.7], 0.2),
            ]
        )
        request = SDHRequest(num_buckets=8, region=region).normalize()
        body = json.loads(json.dumps(request.to_dict()))
        rebuilt = SDHRequest.from_dict(body)
        assert isinstance(rebuilt.region, UnionRegion)
        assert len(rebuilt.region.members) == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(QueryError, match="unknown query parameters"):
            SDHRequest.from_dict({"num_buckets": 8, "bandwidth": 2})

    def test_allocator_heuristic_not_serializable(self):
        from repro.core.heuristics import make_allocator

        request = SDHRequest(num_buckets=8, heuristic=make_allocator(1))
        with pytest.raises(QueryError, match="Allocator"):
            request.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        num_buckets=st.integers(min_value=1, max_value=64),
        engine=st.sampled_from(["auto", "grid", "tree", "brute", "parallel"]),
        periodic=st.booleans(),
        policy=st.sampled_from(list(OverflowPolicy)),
        workers=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        heuristic=st.sampled_from([1, 2, 3, 4]),
    )
    def test_property_round_trip(
        self, num_buckets, engine, periodic, policy, workers, heuristic
    ):
        request = SDHRequest(
            num_buckets=num_buckets,
            engine=engine,
            periodic=periodic,
            policy=policy,
            workers=workers,
            heuristic=heuristic,
        ).normalize()
        wire = json.loads(json.dumps(request.to_dict()))
        assert SDHRequest.from_dict(wire) == request


class TestJsonEdgeCases:
    """Boundary parameterizations and hostile numeric payloads."""

    def test_boundary_bucket_width_round_trips(self):
        for width in (2.0**-40, 1.0, 2.0**40):
            request = SDHRequest(bucket_width=width).normalize()
            wire = json.loads(json.dumps(request.to_dict()))
            assert SDHRequest.from_dict(wire) == request

    def test_boundary_num_buckets_round_trips(self):
        for count in (1, 2, 4096):
            request = SDHRequest(num_buckets=count).normalize()
            wire = json.loads(json.dumps(request.to_dict()))
            assert SDHRequest.from_dict(wire) == request

    def test_nonpositive_bucket_width_rejected(self):
        from repro.errors import BucketSpecError

        for width in (0.0, -1.0):
            with pytest.raises(BucketSpecError, match="finite and positive"):
                SDHRequest(bucket_width=width).normalize()

    def test_nan_inf_bucket_width_rejected(self):
        from repro.errors import BucketSpecError

        for width in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(BucketSpecError, match="finite"):
                SDHRequest(bucket_width=width).normalize()

    def test_nonpositive_num_buckets_rejected(self):
        from repro.errors import BucketSpecError

        for count in (0, -2):
            with pytest.raises(BucketSpecError, match="at least one bucket"):
                SDHRequest(num_buckets=count).normalize()

    def test_nan_inf_error_bound_rejected(self):
        for bound in (float("nan"), float("inf")):
            with pytest.raises(QueryError, match="finite and positive"):
                SDHRequest(num_buckets=8, error_bound=bound).normalize()

    def test_nan_region_coordinates_rejected(self):
        # Python's json.loads accepts bare NaN, so the wire layer must
        # catch it — QueryError, which the HTTP server maps to 400.
        body = json.loads(
            '{"num_buckets": 4, "region": '
            '{"kind": "rect", "lo": [0, NaN], "hi": [1, 1]}}'
        )
        with pytest.raises(QueryError, match="finite"):
            SDHRequest.from_dict(body)

    def test_inf_ball_radius_rejected(self):
        with pytest.raises(QueryError, match="finite"):
            SDHRequest.from_dict(
                {
                    "num_buckets": 4,
                    "region": {
                        "kind": "ball",
                        "center": [0.5, 0.5],
                        "radius": float("inf"),
                    },
                }
            )

    def test_nan_spec_values_rejected(self):
        with pytest.raises(QueryError, match="finite"):
            SDHRequest.from_dict(
                {
                    "spec": {
                        "kind": "uniform",
                        "width": float("nan"),
                        "num_buckets": 4,
                    }
                }
            )
        with pytest.raises(QueryError, match="finite"):
            SDHRequest.from_dict(
                {"spec": {"kind": "custom", "edges": [0.0, float("inf")]}}
            )

    def test_non_numeric_region_values_rejected(self):
        with pytest.raises(QueryError, match="must be a number"):
            SDHRequest.from_dict(
                {
                    "num_buckets": 4,
                    "region": {
                        "kind": "rect",
                        "lo": ["a", 0],
                        "hi": [1, 1],
                    },
                }
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_seeded_random_requests_round_trip(self, seed):
        # Regions carry value equality, so the whole request — region
        # included — must survive serialize -> parse -> normalize.
        rng = np.random.default_rng(seed)
        region = None
        shape = rng.integers(0, 3)
        if shape == 1:
            lo = rng.uniform(0.0, 0.4, 2)
            hi = lo + rng.uniform(0.1, 0.5, 2)
            region = RectRegion(AABB(tuple(lo), tuple(hi)))
        elif shape == 2:
            region = BallRegion(
                rng.uniform(0.0, 1.0, 2).tolist(),
                float(rng.uniform(0.05, 0.5)),
            )
        request = SDHRequest(
            num_buckets=int(rng.integers(1, 100)),
            region=region,
            periodic=bool(region is None and rng.random() < 0.5),
            policy=list(OverflowPolicy)[rng.integers(len(OverflowPolicy))],
            workers=None if rng.random() < 0.5 else int(rng.integers(1, 8)),
        ).normalize()
        wire = json.loads(json.dumps(request.to_dict()))
        assert SDHRequest.from_dict(wire) == request


class TestComputeSdhShim:
    """compute_sdh takes an SDHRequest and nothing else."""

    def test_request_object(self, data):
        hist = compute_sdh(data, SDHRequest(num_buckets=8))
        assert hist.total == data.num_pairs

    def test_positional_spec_shorthand(self, data):
        spec = UniformBuckets.with_count(data.max_possible_distance, 8)
        with pytest.raises(QueryError, match="takes an SDHRequest"):
            compute_sdh(data, spec)

    def test_positional_width_shorthand(self, data):
        width = data.max_possible_distance / 4
        with pytest.raises(QueryError, match="takes an SDHRequest"):
            compute_sdh(data, width)

    def test_keyword_style_rejected(self, data):
        with pytest.raises(TypeError, match="num_buckets"):
            compute_sdh(data, num_buckets=8)


class TestPlannerFields:
    """The planner-facing request fields: SLO budget + routing switch."""

    def test_defaults(self):
        request = SDHRequest(num_buckets=8).normalize()
        assert request.planner == "auto"
        assert request.latency_budget_ms is None

    def test_round_trip(self):
        request = SDHRequest(
            num_buckets=8, latency_budget_ms=250.0
        ).normalize()
        wire = json.loads(json.dumps(request.to_dict()))
        assert SDHRequest.from_dict(wire) == request
        assert wire["latency_budget_ms"] == 250.0

    def test_planner_off_round_trip(self):
        request = SDHRequest(num_buckets=8, planner="off").normalize()
        wire = json.loads(json.dumps(request.to_dict()))
        assert SDHRequest.from_dict(wire) == request

    def test_defaults_omitted_from_wire(self):
        body = SDHRequest(num_buckets=8).to_dict()
        assert "planner" not in body
        assert "latency_budget_ms" not in body

    def test_planner_value_validated(self):
        with pytest.raises(QueryError, match="planner"):
            SDHRequest(num_buckets=8, planner="maybe").normalize()

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_budget_must_be_finite_positive(self, bad):
        with pytest.raises(QueryError, match="latency_budget_ms"):
            SDHRequest(num_buckets=8, latency_budget_ms=bad).normalize()

    def test_budget_requires_planner(self):
        with pytest.raises(QueryError, match="planner"):
            SDHRequest(
                num_buckets=8, planner="off", latency_budget_ms=100.0
            ).normalize()
