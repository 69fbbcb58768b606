"""Tests for repro.observability (metrics, tracing, structured logs)."""

import io
import json
import logging
import threading

import pytest

from repro.core.instrumentation import SDHStats, publish_stats
from repro.observability import (
    MetricSample,
    MetricsRegistry,
    bind_trace_id,
    configure_logging,
    current_trace_id,
    get_logger,
    get_registry,
    log_event,
    new_trace_id,
    trace_span,
)


class TestCounters:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        counter = reg.counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("jobs_total")
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        reg = MetricsRegistry()
        counter = reg.counter("queries_total", "Q.", ("engine",))
        counter.labels(engine="grid").inc(3)
        counter.labels(engine="tree").inc(1)
        assert counter.labels(engine="grid").value == 3
        assert counter.labels(engine="tree").value == 1

    def test_wrong_label_set_rejected(self):
        counter = MetricsRegistry().counter("q_total", "", ("engine",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(phase="x")
        with pytest.raises(ValueError, match="call .labels"):
            counter.inc()


class TestGauges:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("live", "Live things.")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3.0


class TestHistograms:
    def test_cumulative_buckets_sum_count(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(100.0)
        text = reg.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert "lat_seconds_sum 100.55" in text

    def test_snapshot_stores_per_interval_counts(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["buckets"][1.0] == 1
        assert snap["buckets"][2.0] == 1

    def test_bad_bucket_specs_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            reg.histogram("empty", buckets=())
        with pytest.raises(ValueError, match="distinct"):
            reg.histogram("dupes", buckets=(1.0, 1.0))


class TestRegistry:
    def test_redeclaration_returns_same_instrument(self):
        reg = MetricsRegistry()
        first = reg.counter("n_total", "Help.")
        assert reg.counter("n_total") is first

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("n_total")

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n_total", "", ("engine",))
        with pytest.raises(ValueError, match="already registered with labels"):
            reg.counter("n_total", "", ("phase",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("ok_total", "", ("bad-label",))

    def test_render_has_help_type_and_escaping(self):
        reg = MetricsRegistry()
        counter = reg.counter("req_total", "Requests served.", ("path",))
        counter.labels(path='a"b\\c\nd').inc()
        text = reg.render()
        assert "# HELP req_total Requests served." in text
        assert "# TYPE req_total counter" in text
        assert r'req_total{path="a\"b\\c\nd"} 1' in text

    def test_collectors_fold_into_render(self):
        reg = MetricsRegistry()

        def collect():
            return [
                MetricSample(
                    "ext_total", "counter", "External.", [(None, 7.0)]
                ),
                MetricSample(
                    "ext_live", "gauge", "",
                    [({"kind": "a"}, 1.0), ({"kind": "b"}, 2.0)],
                ),
            ]

        reg.add_collector(collect)
        text = reg.render()
        assert "ext_total 7" in text
        assert 'ext_live{kind="a"} 1' in text
        assert 'ext_live{kind="b"} 2' in text
        reg.remove_collector(collect)
        reg.remove_collector(collect)  # idempotent
        assert "ext_total" not in reg.render()

    def test_collector_samples_must_be_counter_or_gauge(self):
        with pytest.raises(ValueError, match="counter/gauge"):
            MetricSample("h", "histogram", "", [(None, 1.0)])

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "", ("k",)).labels(k="x").inc(2)
        reg.gauge("b").set(4)
        body = reg.snapshot()
        assert body["a_total"]["k=x"] == 2
        assert body["b"][""] == 4

    def test_concurrent_increments_are_not_lost(self):
        reg = MetricsRegistry()
        counter = reg.counter("n_total")
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(500):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * 500

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestTracing:
    def test_span_records_phase_histogram(self):
        reg = MetricsRegistry()
        with trace_span("unit_phase", registry=reg) as span:
            pass
        assert span.duration > 0
        hist = reg.get("sdh_phase_seconds")
        assert hist.labels(phase="unit_phase").snapshot()["count"] == 1

    def test_span_error_is_recorded_and_reraised(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            with trace_span("bad_phase", registry=reg) as span:
                raise KeyError("nope")
        assert span.error == "KeyError"
        assert reg.get("sdh_phase_seconds").labels(
            phase="bad_phase"
        ).snapshot()["count"] == 1

    def test_annotate_extends_completion_fields(self):
        reg = MetricsRegistry()
        with trace_span("p", registry=reg, engine="grid") as span:
            span.annotate(particles=10)
        assert span.fields == {"engine": "grid", "particles": 10}

    def test_trace_id_binding_nests_and_restores(self):
        assert current_trace_id() is None
        with bind_trace_id("outer") as outer:
            assert outer == "outer"
            assert current_trace_id() == "outer"
            with bind_trace_id() as inner:
                assert current_trace_id() == inner != "outer"
            assert current_trace_id() == "outer"
        assert current_trace_id() is None

    def test_new_trace_id_format(self):
        tid = new_trace_id()
        assert len(tid) == 16
        int(tid, 16)  # hex
        assert tid != new_trace_id()


class TestStructuredLogging:
    def teardown_method(self):
        # Leave the suite with library logging quiet again.
        configure_logging("warning")

    def test_json_lines_carry_fields_and_trace_id(self):
        stream = io.StringIO()
        configure_logging("info", json_output=True, stream=stream)
        with bind_trace_id("feedface00000000"):
            log_event(
                get_logger("test"), logging.INFO, "unit_event",
                engine="grid", n=3,
            )
        body = json.loads(stream.getvalue().strip())
        assert body["event"] == "unit_event"
        assert body["logger"] == "repro.test"
        assert body["level"] == "info"
        assert body["trace_id"] == "feedface00000000"
        assert body["engine"] == "grid"
        assert body["n"] == 3

    def test_span_emits_json_event(self):
        stream = io.StringIO()
        configure_logging("info", json_output=True, stream=stream)
        with trace_span("emit_phase", registry=MetricsRegistry()):
            pass
        body = json.loads(stream.getvalue().strip())
        assert body["event"] == "span:emit_phase"
        assert body["phase"] == "emit_phase"
        assert body["duration_seconds"] >= 0

    def test_human_format_has_key_value_pairs(self):
        stream = io.StringIO()
        configure_logging("info", json_output=False, stream=stream)
        log_event(get_logger(), logging.INFO, "plain_event", n=2)
        line = stream.getvalue()
        assert "plain_event" in line
        assert "n=2" in line

    def test_reconfigure_replaces_handler(self):
        configure_logging("info", stream=io.StringIO())
        root = configure_logging("debug", stream=io.StringIO())
        installed = [
            h for h in root.handlers
            if getattr(h, "_repro_installed", False)
        ]
        assert len(installed) == 1
        assert root.level == logging.DEBUG
        assert root.propagate is False

    def test_level_threshold_filters(self):
        stream = io.StringIO()
        configure_logging("warning", json_output=True, stream=stream)
        log_event(get_logger(), logging.INFO, "quiet")
        assert stream.getvalue() == ""

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    def test_non_json_values_are_stringified(self):
        stream = io.StringIO()
        configure_logging("info", json_output=True, stream=stream)
        log_event(
            get_logger(), logging.INFO, "odd",
            shape=(2, 3), mapping={"k": object()},
        )
        body = json.loads(stream.getvalue().strip())
        assert body["shape"] == [2, 3]
        assert isinstance(body["mapping"]["k"], str)


class TestPublishStats:
    def test_per_level_counters(self):
        stats = SDHStats()
        stats.record_batch(level=2, examined=10, resolved=6,
                           resolved_distances=100.0)
        stats.record_batch(level=3, examined=8, resolved=4,
                           resolved_distances=50.0)
        stats.distance_computations = 42
        reg = MetricsRegistry()
        publish_stats(stats, "grid", registry=reg)
        queries = reg.get("sdh_queries_total")
        assert queries.labels(engine="grid").value == 1
        resolve = reg.get("sdh_resolve_calls_total")
        assert resolve.labels(engine="grid", level=2).value == 10
        assert resolve.labels(engine="grid", level=3).value == 8
        resolved = reg.get("sdh_resolved_pairs_total")
        assert resolved.labels(engine="grid", level=2).value == 6
        dist = reg.get("sdh_distance_computations_total")
        assert dist.labels(engine="grid").value == 42

    def test_compute_sdh_publishes_to_default_registry(self):
        from repro import SDHRequest, compute_sdh, uniform

        data = uniform(120, dim=2, rng=7)
        before = get_registry().get("sdh_queries_total")
        before_val = (
            before.labels(engine="grid").value if before is not None else 0
        )
        compute_sdh(data, SDHRequest(num_buckets=4, engine="grid"))
        after = get_registry().get("sdh_queries_total")
        assert after.labels(engine="grid").value == before_val + 1
