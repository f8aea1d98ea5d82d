"""Tests for the serving telemetry layer (repro.core.telemetry).

Covers the structured event log (levels, ring bounds, file sink,
thread safety), the metric-key label convention, the Prometheus text
exposition (name/label sanitization, HELP/TYPE lines, cumulative
bucket monotonicity against exact histogram counts, escaping, the
lint round-trip), and the ``sdvbs top`` snapshot/render pair.
"""

import io
import json
import threading

import pytest

from repro.core.metrics import LogHistogram, MetricsRegistry
from repro.core.telemetry import (
    EventLog,
    HELP_TEXT,
    LEVELS,
    PROMETHEUS_CONTENT_TYPE,
    escape_label_value,
    lint_exposition,
    metric_key,
    parse_metric_key,
    render_prometheus,
    render_top,
    sanitize_label_name,
    sanitize_metric_name,
    top_snapshot,
)


class TestEventLog:
    def test_emit_returns_record_with_fields(self):
        log = EventLog(clock=lambda: 123.0)
        record = log.emit("job.submit", id="job-1", queue_depth=3)
        assert record == {"ts": 123.0, "level": "info",
                          "event": "job.submit", "id": "job-1",
                          "queue_depth": 3}

    def test_none_fields_dropped(self):
        log = EventLog()
        record = log.emit("x", request_id=None, client="c")
        assert "request_id" not in record
        assert record["client"] == "c"

    def test_level_threshold_suppresses(self):
        log = EventLog(level="warning")
        assert log.emit("quiet", level="debug") is None
        assert log.emit("loud", level="error") is not None
        assert log.suppressed == 1
        assert log.emitted == 1
        assert [r["event"] for r in log.recent()] == ["loud"]

    def test_unknown_level_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit("x", level="critical")
        with pytest.raises(ValueError):
            EventLog(level="verbose")

    def test_ring_keeps_newest(self):
        log = EventLog(capacity=3)
        for i in range(7):
            log.emit(f"e{i}")
        assert [r["event"] for r in log.recent()] == ["e4", "e5", "e6"]
        assert log.emitted == 7

    def test_recent_filters(self):
        log = EventLog()
        log.emit("a", level="debug")
        log.emit("b", level="warning")
        log.emit("a", level="error")
        assert [r["event"] for r in log.recent(level="warning")] \
            == ["b", "a"]
        assert [r["level"] for r in log.recent(event="a")] \
            == ["debug", "error"]

    def test_file_sink_receives_jsonl(self):
        sink = io.StringIO()
        log = EventLog(sink=sink)
        log.emit("one", n=1)
        log.emit("two", n=2)
        lines = [json.loads(line) for line in
                 sink.getvalue().strip().splitlines()]
        assert [r["event"] for r in lines] == ["one", "two"]

    def test_path_sink_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(sink=str(path))
        log.emit("first")
        log.close()
        log = EventLog(sink=str(path))
        log.emit("second")
        log.close()
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        assert events == ["first", "second"]

    def test_broken_sink_disables_not_crashes(self):
        sink = io.StringIO()
        log = EventLog(sink=sink)
        sink.close()
        record = log.emit("survives")
        assert record is not None
        # The event survives in the ring, followed by the self-disable
        # warning the log leaves so the loss is visible.
        assert [r["event"] for r in log.recent()] \
            == ["survives", "events.sink_disabled"]

    def test_sink_disable_counts_and_keeps_reason(self):
        sink = io.StringIO()
        log = EventLog(sink=sink)
        assert log.sink_disabled == 0
        assert log.sink_error is None
        sink.close()
        log.emit("boom")
        assert log.sink_disabled == 1
        assert "ValueError" in log.sink_error
        # The sink is dropped after the first failure; later emits go
        # only to the ring and the counter does not keep climbing.
        log.emit("after")
        assert log.sink_disabled == 1

    def test_sink_disable_warning_bypasses_level_threshold(self):
        sink = io.StringIO()
        log = EventLog(sink=sink, level="error")
        sink.close()
        log.emit("fails", level="error")
        warnings = log.recent(event="events.sink_disabled")
        assert len(warnings) == 1
        assert warnings[0]["level"] == "warning"
        assert "ValueError" in warnings[0]["error"]

    def test_sink_disable_hook_fires_with_reason(self):
        seen = []
        sink = io.StringIO()
        log = EventLog(sink=sink)
        log.on_sink_disabled = seen.append
        sink.close()
        log.emit("boom")
        assert len(seen) == 1 and "ValueError" in seen[0]

    def test_concurrent_emitters_lose_nothing(self):
        log = EventLog(capacity=4096)
        barrier = threading.Barrier(4)

        def pound(worker):
            barrier.wait()
            for i in range(200):
                log.emit("tick", worker=worker, i=i)

        threads = [threading.Thread(target=pound, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert log.emitted == 800
        assert len(log.recent(limit=4096)) == 800

    def test_levels_ordering(self):
        assert LEVELS == ("debug", "info", "warning", "error")


class TestMetricKey:
    def test_no_labels_identity(self):
        assert metric_key("jobs.completed") == "jobs.completed"
        assert parse_metric_key("jobs.completed") == ("jobs.completed", {})

    def test_labels_sorted_and_round_trip(self):
        key = metric_key("job.exec_seconds", type="run", priority="high")
        assert key == "job.exec_seconds{priority=high,type=run}"
        assert parse_metric_key(key) == (
            "job.exec_seconds", {"priority": "high", "type": "run"})

    def test_reserved_characters_rejected(self):
        with pytest.raises(ValueError):
            metric_key("x", bad="a,b")
        with pytest.raises(ValueError):
            metric_key("x", bad="a=b")
        with pytest.raises(ValueError):
            metric_key("x", bad="{a}")


class TestSanitization:
    def test_metric_name_flattening(self):
        assert sanitize_metric_name("jobs.submitted") \
            == "sdvbs_jobs_submitted"
        assert sanitize_metric_name("job.queue_wait_seconds") \
            == "sdvbs_job_queue_wait_seconds"
        assert sanitize_metric_name("weird--name..x") \
            == "sdvbs_weird_name_x"

    def test_metric_name_illegal_chars_dropped(self):
        assert sanitize_metric_name("a$b%c") == "sdvbs_abc"
        assert sanitize_metric_name("$$$") == "sdvbs_metric"

    def test_metric_name_leading_digit(self):
        assert sanitize_metric_name("2fast", namespace="") == "_2fast"

    def test_no_namespace(self):
        assert sanitize_metric_name("jobs.done", namespace="") \
            == "jobs_done"

    def test_label_name(self):
        assert sanitize_label_name("job-type") == "job_type"
        assert sanitize_label_name("9lives") == "_9lives"
        assert sanitize_label_name("!!") == "label"

    def test_label_value_escaping(self):
        assert escape_label_value('say "hi"\n') == r'say \"hi\"\n'
        assert escape_label_value("back\\slash") == r"back\\slash"


class TestRenderPrometheus:
    def test_counter_gets_total_suffix_and_headers(self):
        registry = MetricsRegistry()
        registry.inc("jobs.completed", 5)
        text = render_prometheus(registry)
        assert "# HELP sdvbs_jobs_completed_total " \
            + HELP_TEXT["jobs.completed"] in text
        assert "# TYPE sdvbs_jobs_completed_total counter" in text
        assert "sdvbs_jobs_completed_total 5" in text

    def test_gauge_renders_without_suffix(self):
        text = render_prometheus(MetricsRegistry(),
                                 gauges={"queue.depth": 7})
        assert "# TYPE sdvbs_queue_depth gauge" in text
        assert "sdvbs_queue_depth 7" in text

    def test_labeled_series_share_one_header(self):
        text = render_prometheus(MetricsRegistry(), gauges={
            metric_key("jobs.state", state="queued"): 2,
            metric_key("jobs.state", state="done"): 9})
        assert text.count("# TYPE sdvbs_jobs_state gauge") == 1
        assert 'sdvbs_jobs_state{state="queued"} 2' in text
        assert 'sdvbs_jobs_state{state="done"} 9' in text

    def test_histogram_cumulative_and_agrees_with_exact_counts(self):
        registry = MetricsRegistry()
        key = metric_key("job.exec_seconds", type="run")
        values = [0.001, 0.002, 0.004, 0.05, 0.05, 1.7, 42.0]
        for value in values:
            registry.observe(key, value)
        text = render_prometheus(registry)
        samples = lint_exposition(text)
        buckets = [
            (float("inf") if labels["le"] == "+Inf"
             else float(labels["le"]), value)
            for labels, value in samples["sdvbs_job_exec_seconds_bucket"]
            if labels.get("type") == "run"
        ]
        buckets.sort(key=lambda p: p[0])
        counts = [value for _, value in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1] == (float("inf"), len(values))
        # Every recorded value must be <= its bucket's upper bound.
        exact = registry.histogram_snapshot()[key]
        (_, total_value), = [
            (labels, value) for labels, value
            in samples["sdvbs_job_exec_seconds_sum"]
            if labels.get("type") == "run"]
        assert total_value == pytest.approx(exact.total)
        (_, count_value), = [
            (labels, value) for labels, value
            in samples["sdvbs_job_exec_seconds_count"]
            if labels.get("type") == "run"]
        assert count_value == len(values)

    def test_bucket_bounds_cover_observations(self):
        histogram = LogHistogram()
        for value in (0.0001, 0.1, 10.0):
            histogram.observe(value)
        buckets = histogram.nonzero_buckets()
        assert sum(count for _, _, count in buckets) == 3
        for (low, high, _count), value in zip(buckets,
                                              (0.0001, 0.1, 10.0)):
            assert low <= value <= high

    def test_escaped_label_values_survive_lint(self):
        # Quotes/backslashes are legal in label VALUES once escaped;
        # metric_key reserves only , = { } for its own grammar.
        text = render_prometheus(
            MetricsRegistry(),
            gauges={'odd{path=with "quotes" and \\slash}': 1})
        samples = lint_exposition(text)
        (labels, value), = samples["sdvbs_odd"]
        assert labels == {"path": 'with "quotes" and \\slash'}
        assert value == 1

    def test_lint_rejects_garbage(self):
        with pytest.raises(ValueError):
            lint_exposition("sdvbs_ok 1\n")  # no TYPE line
        with pytest.raises(ValueError):
            lint_exposition("# TYPE sdvbs_x counter\nsdvbs_x not-a-number\n")
        with pytest.raises(ValueError):
            lint_exposition("# TYPE 9bad counter\n9bad 1\n")

    def test_lint_rejects_non_monotone_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                'h_bucket{le="1"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 1\n"
                "h_count 5\n")
        with pytest.raises(ValueError, match="not cumulative"):
            lint_exposition(text)

    def test_lint_rejects_inf_count_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 4\n'
                "h_sum 1\n"
                "h_count 5\n")
        with pytest.raises(ValueError, match="_count"):
            lint_exposition(text)

    def test_content_type_constant(self):
        assert PROMETHEUS_CONTENT_TYPE \
            == "text/plain; version=0.0.4; charset=utf-8"

    def test_custom_help_text_and_fallback(self):
        registry = MetricsRegistry()
        registry.inc("made.up", 1)
        registry.inc("documented", 1)
        text = render_prometheus(
            registry, help_text={"documented": "A custom help line"})
        assert "# HELP sdvbs_made_up_total sdvbs metric made.up" in text
        assert "# HELP sdvbs_documented_total A custom help line" in text


class TestTopView:
    @staticmethod
    def _fake_info():
        info = {
            "config": {"workers": 4},
            "counters": {"cache.misses": 6.0, "rejected.queue_full": 2.0,
                         "rejected.rate_limited": 1.0},
            "gauges": {"queue_depth": 3, "running": 2, "saturated": 1},
            "cache": {"hits": 2},
            "jobs": {"queued": 3, "running": 2, "done": 6, "failed": 1,
                     "cancelled": 0, "evicted": 0},
            "uptime_s": 12.5,
            "shutting_down": False,
            "latency": {
                "run": {
                    "queue_wait": {
                        "count": 6, "sum": 0.6, "mean": 0.1, "min": 0.05,
                        "max": 0.3, "p50": 0.1, "p95": 0.2, "p99": 0.3},
                    "exec": {
                        "count": 6, "sum": 6.0, "mean": 1.0, "min": 0.5,
                        "max": 2.0, "p50": 0.9, "p95": 1.8, "p99": 2.0},
                },
            },
        }
        return info

    def test_snapshot_folds_server_info(self):
        snapshot = top_snapshot(self._fake_info())
        assert snapshot["queue_depth"] == 3
        assert snapshot["saturated"] is True
        assert snapshot["workers"] == {"busy": 2, "total": 4,
                                       "utilization_pct": 50.0}
        assert snapshot["cache"] == {"hits": 2, "misses": 6,
                                     "hit_rate_pct": 25.0}
        assert snapshot["rejected"] == 3
        assert snapshot["latency"]["run"]["queue_wait"]["p95"] == 0.2
        assert snapshot["latency"]["run"]["exec"]["count"] == 6.0
        # The frame keeps the six stats it always had (no min/max).
        assert set(snapshot["latency"]["run"]["exec"]) == {
            "count", "sum", "mean", "p50", "p95", "p99"}

    def test_snapshot_is_json_ready(self):
        snapshot = top_snapshot(self._fake_info())
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_render_shows_states_and_percentiles(self):
        text = render_top(top_snapshot(self._fake_info()))
        assert "SATURATED" in text
        assert "queue    3" in text
        assert "2/4" in text
        assert "run" in text and "queue-wait" in text
        assert "(no completed jobs yet)" not in text

    def test_render_empty_server(self):
        text = render_top(top_snapshot(
            {"config": {"workers": 2}, "counters": {}, "gauges": {},
             "cache": {}, "jobs": {}, "uptime_s": 0.0,
             "shutting_down": False, "latency": {}}))
        assert "(no completed jobs yet)" in text

    def test_render_draining_banner(self):
        info = self._fake_info()
        info["shutting_down"] = True
        assert "DRAINING" in render_top(top_snapshot(info))

    def test_snapshot_sink_disabled_from_events(self):
        info = self._fake_info()
        assert top_snapshot(info)["sink_disabled"] == 0
        info["events"] = {"emitted": 10, "sink_disabled": 2}
        assert top_snapshot(info)["sink_disabled"] == 2

    def test_render_sink_warning(self):
        info = self._fake_info()
        info["events"] = {"sink_disabled": 1}
        snapshot = top_snapshot(info)
        assert "profile" not in snapshot
        text = render_top(snapshot)
        assert "WARNING: event-log sink disabled (1 time(s))" in text

    def test_render_quiet_without_profiler_or_sink_loss(self):
        text = render_top(top_snapshot(self._fake_info()))
        assert "profiler" not in text
        assert "WARNING" not in text


class TestRegistrySnapshots:
    def test_histogram_snapshot_is_deep_copy(self):
        registry = MetricsRegistry(threadsafe=True)
        registry.observe("lat", 1.0)
        snapshot = registry.histogram_snapshot()
        registry.observe("lat", 2.0)
        assert snapshot["lat"].count == 1
        assert registry.histogram_snapshot()["lat"].count == 2

    def test_histogram_summaries_have_percentiles(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 0.3):
            registry.observe("lat", value)
        summary = registry.histogram_snapshot()["lat"].summary()
        for stat in ("count", "sum", "mean", "p50", "p95", "p99"):
            assert stat in summary
        assert summary["count"] == 3.0

    def test_concurrent_increments_never_dropped(self):
        # The serve regression: a non-threadsafe registry under
        # concurrent workers would lose increments.
        registry = MetricsRegistry(threadsafe=True)
        barrier = threading.Barrier(8)

        def pound():
            barrier.wait()
            for _ in range(500):
                registry.inc("jobs.completed")

        threads = [threading.Thread(target=pound) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counters["jobs.completed"] == 8 * 500
