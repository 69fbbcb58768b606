"""Engine registry: registration, lookup, capability gating."""

import numpy as np
import pytest

from repro import (
    QueryError,
    SDHRequest,
    available_engines,
    compute_sdh,
    get_engine,
    register_engine,
    resolve_engine_name,
    uniform,
    unregister_engine,
)
from repro.core.engines import EngineCapabilities


@pytest.fixture(scope="module")
def data():
    return uniform(200, dim=2, rng=3)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_engines()) >= {
            "brute",
            "tree",
            "grid",
            "parallel",
        }

    def test_get_engine_resolves(self):
        engine = get_engine("grid")
        assert engine.name == "grid"
        assert callable(engine.run)

    def test_get_engine_case_insensitive(self):
        assert get_engine("GRID") is get_engine("grid")

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(QueryError, match="unknown engine") as info:
            get_engine("warp")
        assert "grid" in str(info.value)
        assert "auto" in str(info.value)

    def test_register_and_unregister(self):
        calls = []

        def runner(particles, request, spec, *, stats=None, rng=None):
            calls.append(request)
            return get_engine("grid").run(
                particles, request.replace(engine="grid"), spec,
                stats=stats, rng=rng,
            )

        register_engine("custom-test", runner)
        try:
            assert "custom-test" in available_engines()
            assert get_engine("custom-test").run is runner
        finally:
            unregister_engine("custom-test")
        assert "custom-test" not in available_engines()

    def test_registered_engine_runs_queries(self, data):
        def runner(particles, request, spec, *, stats=None, rng=None):
            return get_engine("grid").run(
                particles, request, spec, stats=stats, rng=rng
            )

        register_engine("proxy", runner)
        try:
            hist = compute_sdh(data, SDHRequest(num_buckets=8, engine="proxy"))
            reference = compute_sdh(data, SDHRequest(num_buckets=8))
            np.testing.assert_array_equal(hist.counts, reference.counts)
        finally:
            unregister_engine("proxy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(QueryError, match="already registered"):
            register_engine("grid", lambda *a, **k: None)

    def test_replace_allows_override(self):
        original = get_engine("grid")
        register_engine(
            "grid", original.run, original.capabilities, replace=True
        )
        assert get_engine("grid").run is original.run

    def test_auto_is_not_registrable(self):
        with pytest.raises(QueryError, match="auto"):
            register_engine("auto", lambda *a, **k: None)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(QueryError, match="not registered"):
            unregister_engine("nonexistent")


class TestCapabilities:
    def test_default_capabilities_deny_everything_optional(self):
        caps = EngineCapabilities()
        assert not caps.supports_periodic
        assert not caps.supports_region
        assert not caps.supports_type_filter
        assert not caps.supports_type_pair
        assert not caps.supports_approximate
        assert not caps.supports_mbr
        assert not caps.supports_workers
        assert caps.kernel_tiers == ("numpy",)

    def test_tree_rejects_periodic(self):
        engine = get_engine("tree")
        request = SDHRequest(num_buckets=4, periodic=True).normalize()
        with pytest.raises(QueryError, match="periodic boundaries"):
            engine.check(request)

    def test_brute_rejects_approximate(self):
        engine = get_engine("brute")
        request = SDHRequest(num_buckets=4, error_bound=0.1).normalize()
        with pytest.raises(QueryError, match="approximate mode"):
            engine.check(request)

    def test_parallel_rejects_mbr(self):
        engine = get_engine("parallel")
        request = SDHRequest(num_buckets=4, use_mbr=True).normalize()
        with pytest.raises(QueryError, match="MBR resolution"):
            engine.check(request)

    def test_grid_rejects_workers(self):
        engine = get_engine("grid")
        request = SDHRequest(num_buckets=4, workers=2).normalize()
        with pytest.raises(QueryError, match="multi-process workers"):
            engine.check(request)

    def test_check_names_every_missing_feature(self):
        engine = get_engine("tree")
        request = SDHRequest(
            num_buckets=4, periodic=True, workers=2
        ).normalize()
        with pytest.raises(QueryError) as info:
            engine.check(request)
        message = str(info.value)
        assert "periodic boundaries" in message
        assert "multi-process workers" in message

    def test_compute_sdh_enforces_capabilities(self, data):
        with pytest.raises(QueryError, match="does not support"):
            compute_sdh(
                data,
                SDHRequest(num_buckets=4, engine="tree", periodic=True),
            )

    def test_kernel_tiers_validated_at_registration(self):
        with pytest.raises(QueryError, match="unknown kernel tier"):
            EngineCapabilities(kernel_tiers=("numpy", "cuda"))
        with pytest.raises(QueryError, match="at least one tier"):
            EngineCapabilities(kernel_tiers=())
        with pytest.raises(QueryError, match="'numpy'"):
            EngineCapabilities(kernel_tiers=("numba",))


class TestLegacyCapabilityShims:
    """The pre-kernel capability forms are gone and fail loudly."""

    def test_unknown_legacy_keyword_rejected(self):
        with pytest.raises(TypeError, match="restricted"):
            EngineCapabilities(restricted=True)

    def test_unknown_capability_string_rejected(self):
        with pytest.raises(QueryError, match="EngineCapabilities instance"):
            register_engine(
                "bad-caps-test",
                lambda *a, **k: None,
                capabilities={"periodic"},
            )


class TestAutoResolution:
    def test_auto_defaults_to_grid(self):
        request = SDHRequest(num_buckets=4).normalize()
        assert resolve_engine_name(request) == "grid"

    def test_auto_with_workers_picks_parallel(self):
        request = SDHRequest(num_buckets=4, workers=2).normalize()
        assert resolve_engine_name(request) == "parallel"

    def test_single_worker_stays_serial(self):
        request = SDHRequest(num_buckets=4, workers=1).normalize()
        assert resolve_engine_name(request) == "grid"

    def test_explicit_name_passes_through(self):
        request = SDHRequest(num_buckets=4, engine="brute").normalize()
        assert resolve_engine_name(request) == "brute"

    def test_approximate_with_workers_rejected(self, data):
        request = SDHRequest(num_buckets=4, error_bound=0.1, workers=2)
        with pytest.raises(QueryError, match="does not support"):
            compute_sdh(data, request)
