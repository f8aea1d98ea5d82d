"""Tests for the event-level observability layer (repro.core.tracing).

Covers the span model (nesting, exclusivity, ordering) with an injected
fake clock, the zero-overhead guarantees when no recorder is attached,
the Chrome trace / JSONL exporters and the run manifest, and the
end-to-end agreement between recorded spans and the aggregate profiler.
"""

import json

import pytest

from repro.core import InputSize, get_benchmark, run_benchmark, run_suite
from repro.core.profiler import KernelProfiler, NullProfiler
from repro.core.report import render_kernel_drilldown, render_top_spans
from repro.core.tracing import (
    CATEGORY_APP,
    CATEGORY_KERNEL,
    TraceRecorder,
    TraceSpan,
    chrome_trace_dict,
    events_from_jsonl,
    events_to_jsonl,
    run_manifest,
)


class FakeClock:
    """Deterministic clock: each call returns the current scripted time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def traced_profiler():
    clock = FakeClock()
    recorder = TraceRecorder()
    profiler = KernelProfiler(clock=clock, recorder=recorder)
    return clock, recorder, profiler


class TestSpanModel:
    def test_kernel_call_emits_one_span(self):
        clock, recorder, profiler = traced_profiler()
        with profiler.kernel("A"):
            clock.advance(3.0)
        (span,) = recorder.spans
        assert span.name == "A"
        assert span.category == CATEGORY_KERNEL
        assert span.start == pytest.approx(0.0)
        assert span.duration == pytest.approx(3.0)
        assert span.self_duration == pytest.approx(3.0)
        assert span.depth == 0
        assert span.parent is None

    def test_nested_spans_record_depth_parent_and_exclusivity(self):
        clock, recorder, profiler = traced_profiler()
        with profiler.kernel("outer"):
            clock.advance(1.0)
            with profiler.kernel("inner"):
                clock.advance(2.0)
            clock.advance(0.5)
        outer = next(s for s in recorder.spans if s.name == "outer")
        inner = next(s for s in recorder.spans if s.name == "inner")
        assert inner.depth == 1
        assert inner.parent == outer.seq
        assert outer.duration == pytest.approx(3.5)
        # Child time is subtracted from the parent's exclusive share.
        assert outer.self_duration == pytest.approx(1.5)
        assert inner.self_duration == pytest.approx(2.0)

    def test_same_kernel_at_multiple_depths_yields_distinct_spans(self):
        clock, recorder, profiler = traced_profiler()
        with profiler.kernel("A"):
            clock.advance(1.0)
            with profiler.kernel("A"):
                clock.advance(2.0)
        spans = [s for s in recorder.spans if s.name == "A"]
        assert len(spans) == 2
        assert {s.depth for s in spans} == {0, 1}
        assert len({s.seq for s in spans}) == 2
        # Re-entrant nesting never double-counts exclusive time.
        assert sum(s.self_duration for s in spans) == pytest.approx(3.0)
        assert sum(s.self_duration for s in spans) == \
            pytest.approx(profiler.kernel_seconds["A"])

    def test_app_span_wraps_the_run(self):
        clock, recorder, profiler = traced_profiler()
        with profiler.run():
            with profiler.kernel("A"):
                clock.advance(1.0)
            clock.advance(0.5)
        app = next(s for s in recorder.spans if s.category == CATEGORY_APP)
        assert app.duration == pytest.approx(1.5)
        # App exclusive time is the profiler's non-kernel work.
        assert app.self_duration == pytest.approx(0.5)
        kernel = next(s for s in recorder.spans if s.name == "A")
        assert kernel.parent == app.seq
        assert kernel.depth == 1

    def test_sequence_numbers_follow_start_order(self):
        clock, recorder, profiler = traced_profiler()
        with profiler.kernel("first"):
            clock.advance(1.0)
            with profiler.kernel("second"):
                clock.advance(1.0)
        with profiler.kernel("third"):
            clock.advance(1.0)
        names = [s.name for s in recorder.spans]
        assert names == ["first", "second", "third"]
        seqs = [s.seq for s in recorder.spans]
        assert seqs == sorted(seqs)
        starts = [s.start for s in recorder.spans]
        assert starts == sorted(starts)

    def test_context_is_stamped_onto_spans(self):
        clock, recorder, profiler = traced_profiler()
        recorder.set_context(benchmark="demo", size="SQCIF", variant=0,
                             repeat=1, phase="measure", skipme=None)
        with profiler.kernel("A"):
            clock.advance(1.0)
        (span,) = recorder.spans
        assert span.attrs["benchmark"] == "demo"
        assert span.attrs["phase"] == "measure"
        assert "skipme" not in span.attrs

    def test_mismatched_close_raises(self):
        recorder = TraceRecorder()
        recorder.span_open("a", CATEGORY_KERNEL, 0.0)
        with pytest.raises(RuntimeError):
            recorder.span_close(99, 1.0)

    def test_exception_inside_kernel_still_closes_span(self):
        clock, recorder, profiler = traced_profiler()
        with pytest.raises(ValueError):
            with profiler.kernel("A"):
                clock.advance(1.0)
                raise ValueError("boom")
        (span,) = recorder.spans
        assert span.duration == pytest.approx(1.0)


class TestZeroOverhead:
    def test_profiler_without_recorder_emits_nothing(self):
        """The default hot path never touches tracing machinery."""
        profiler = KernelProfiler(clock=FakeClock())
        assert profiler.recorder is None
        with profiler.run():
            with profiler.kernel("A"):
                pass

    def test_null_profiler_emits_zero_events(self):
        recorder = TraceRecorder()
        profiler = NullProfiler(recorder=recorder)
        with profiler.run():
            with profiler.kernel("A"):
                pass
        assert recorder.events == 0

    def test_run_benchmark_without_recorder_emits_zero_events(self, monkeypatch):
        """No span is opened anywhere on the default measurement path."""
        import repro.core.tracing as tracing

        def forbidden(self, *args, **kwargs):
            raise AssertionError("span emitted without a recorder attached")

        monkeypatch.setattr(tracing.TraceRecorder, "span_open", forbidden)
        run = run_benchmark(get_benchmark("disparity"), InputSize.SQCIF)
        assert run.total_seconds > 0


class TestRunnerIntegration:
    def test_span_self_durations_match_kernel_seconds(self):
        recorder = TraceRecorder()
        run = run_benchmark(get_benchmark("disparity"), InputSize.SQCIF,
                            recorder=recorder)
        sums = recorder.kernel_self_seconds()
        assert set(sums) == set(run.kernel_seconds)
        for name, seconds in run.kernel_seconds.items():
            assert sums[name] == pytest.approx(seconds, abs=1e-12)

    def test_warmup_and_repeats_are_tagged(self):
        recorder = TraceRecorder()
        run_benchmark(get_benchmark("disparity"), InputSize.SQCIF,
                      warmup=1, repeats=2, recorder=recorder)
        apps = [s for s in recorder.spans if s.category == CATEGORY_APP]
        assert len(apps) == 3
        phases = [(s.attrs["phase"], s.attrs["repeat"]) for s in apps]
        assert phases == [("warmup", 0), ("measure", 0), ("measure", 1)]

    def test_run_suite_serial_traces_every_cell(self):
        recorder = TraceRecorder()
        result = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           variants=[0], recorder=recorder)
        assert result.runs[0].total_seconds > 0
        sizes = {s.attrs.get("size") for s in recorder.spans}
        assert sizes == {"SQCIF"}
        assert recorder.events > 0

    def test_run_suite_parallel_serializes_events_back(self):
        recorder = TraceRecorder()
        result = run_suite(["disparity"],
                           sizes=[InputSize.SQCIF, InputSize.QCIF],
                           variants=[0], jobs=2, recorder=recorder)
        assert len(result.runs) == 2
        assert recorder.events > 0
        # One lane per grid cell; seqs re-based without collisions.
        tracks = {s.track for s in recorder.spans}
        seqs = [s.seq for s in recorder.spans]
        assert len(tracks) == 2
        assert len(seqs) == len(set(seqs))
        # Parent links survive the re-basing: every kernel span's parent
        # exists and sits on the same track.
        by_seq = {s.seq: s for s in recorder.spans}
        for span in recorder.spans:
            if span.parent is not None:
                assert by_seq[span.parent].track == span.track


class TestSerialization:
    def sample_spans(self):
        clock, recorder, profiler = traced_profiler()
        recorder.set_context(benchmark="demo", size="SQCIF")
        with profiler.run():
            with profiler.kernel("A"):
                clock.advance(1.0)
                with profiler.kernel("B"):
                    clock.advance(0.5)
        return recorder.spans

    def test_span_dict_roundtrip(self):
        for span in self.sample_spans():
            assert TraceSpan.from_dict(span.to_dict()) == span

    def test_jsonl_roundtrip_preserves_spans_and_order(self):
        spans = self.sample_spans()
        manifest = run_manifest(argv=["trace", "demo"])
        text = events_to_jsonl(spans, manifest)
        restored_manifest, restored = events_from_jsonl(text)
        assert restored == spans
        assert [s.seq for s in restored] == sorted(s.seq for s in restored)
        assert restored_manifest["argv"] == ["trace", "demo"]

    def test_jsonl_header_line_is_manifest(self):
        text = events_to_jsonl(self.sample_spans())
        first = json.loads(text.splitlines()[0])
        assert first["type"] == "manifest"
        assert first["schema"] == "sdvbs-repro/trace-events/v1"

    def test_jsonl_strict_rejects_unknown_event_type(self):
        with pytest.raises(ValueError):
            events_from_jsonl('{"type": "mystery"}\n', strict=True)

    def test_jsonl_lenient_skips_malformed_lines_with_warning(self):
        spans = self.sample_spans()
        good = events_to_jsonl(spans)
        # Simulate a crashed writer: unknown type, bad JSON, truncated tail.
        corrupted = (
            '{"type": "mystery"}\n'
            + good
            + "not json at all\n"
            + '{"type": "span", "seq": 99'
        )
        with pytest.warns(RuntimeWarning, match="3 malformed"):
            manifest, restored = events_from_jsonl(corrupted)
        assert restored == spans
        assert manifest is not None

    def test_jsonl_strict_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            events_from_jsonl(
                '{"type": "manifest", "manifest": {}}\nnot json\n',
                strict=True,
            )

    def test_absorb_rebases_seq_and_parent(self):
        spans = self.sample_spans()
        parent = TraceRecorder()
        parent.span_open("local", CATEGORY_KERNEL, 0.0)
        parent.span_close(0, 1.0)
        parent.absorb([s.to_dict() for s in spans])
        merged = parent.spans
        assert len(merged) == len(spans) + 1
        seqs = [s.seq for s in merged]
        assert len(seqs) == len(set(seqs))
        absorbed_b = next(s for s in merged if s.name == "B")
        absorbed_a = next(s for s in merged if s.name == "A")
        assert absorbed_b.parent == absorbed_a.seq
        assert absorbed_a.track == absorbed_b.track == 1


class TestChromeExport:
    def test_chrome_shape(self):
        clock, recorder, profiler = traced_profiler()
        with profiler.run():
            with profiler.kernel("A"):
                clock.advance(0.002)
        payload = chrome_trace_dict(recorder.spans,
                                    run_manifest(argv=["trace"]))
        events = payload["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
                assert key in event, key
        kernel = next(e for e in events if e["name"] == "A")
        assert kernel["dur"] == pytest.approx(2000.0)  # microseconds
        assert payload["metadata"]["schema"] == "sdvbs-repro/manifest/v1"
        assert payload["displayTimeUnit"] == "ms"

    def test_chrome_events_in_start_order(self):
        clock, recorder, profiler = traced_profiler()
        for name in ("a", "b", "c"):
            with profiler.kernel(name):
                clock.advance(1.0)
        events = chrome_trace_dict(recorder.spans)["traceEvents"]
        assert [e["name"] for e in events] == ["a", "b", "c"]
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)


class TestMemoryTracking:
    def test_peak_memory_sampled_per_span(self):
        recorder = TraceRecorder(track_memory=True)
        profiler = KernelProfiler(recorder=recorder)
        try:
            with profiler.kernel("alloc"):
                block = bytearray(512 * 1024)
                del block
        finally:
            recorder.finish()
        (span,) = recorder.spans
        assert span.attrs["memory_peak_bytes"] >= 512 * 1024

    def test_finish_is_idempotent(self):
        recorder = TraceRecorder(track_memory=True)
        profiler = KernelProfiler(recorder=recorder)
        with profiler.kernel("a"):
            pass
        recorder.finish()
        recorder.finish()


class TestManifest:
    def test_manifest_fields(self):
        manifest = run_manifest(argv=["run", "--jobs", "2"],
                                warmup=1, repeats=3, jobs=2)
        assert manifest["schema"] == "sdvbs-repro/manifest/v1"
        assert manifest["argv"] == ["run", "--jobs", "2"]
        assert manifest["measurement"] == {"warmup": 1, "repeats": 3,
                                           "jobs": 2, "backend": "fast"}
        assert "Operating System" in manifest["host"]
        assert manifest["python"]
        assert manifest["numpy"]


class TestTraceReports:
    def test_top_spans_and_drilldown_render(self):
        clock, recorder, profiler = traced_profiler()
        recorder.set_context(benchmark="demo", size="CIF", variant=1,
                             repeat=0, phase="measure")
        with profiler.run():
            for duration in (3.0, 1.0, 2.0):
                with profiler.kernel("K"):
                    clock.advance(duration)
        top = render_top_spans(recorder.spans, limit=2)
        assert "Top 2 slowest kernel invocations" in top
        assert "demo@CIF v1 r0" in top
        assert "3000.000 ms" in top
        drill = render_kernel_drilldown(recorder.spans)
        assert "K" in drill
        assert "| 3" in drill  # three calls
        assert "6000.000 ms" in drill  # total self


class TestCli:
    def test_trace_command_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        assert cli_main(["trace", "disparity", "--size", "sqcif",
                         "--out", str(out), "--events", str(events)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["argv"][0] == "trace"
        kernel_events = [e for e in payload["traceEvents"]
                         if e["cat"] == "kernel"]
        assert kernel_events
        manifest, spans = events_from_jsonl(events.read_text())
        assert manifest["schema"] == "sdvbs-repro/manifest/v1"
        assert len(spans) == len(payload["traceEvents"])
        stdout = capsys.readouterr().out
        assert "slowest kernel invocations" in stdout
        assert "Per-kernel invocation drilldown" in stdout

    def test_trace_command_rejects_unknown_slug(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["trace", "nosuch",
                         "--out", str(tmp_path / "t.json")]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_sysinfo_command(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["sysinfo"]) == 0
        out = capsys.readouterr().out
        assert "Operating System" in out
        assert "Python" in out

    def test_run_events_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        events = tmp_path / "events.jsonl"
        assert cli_main(["run", "disparity", "--sizes", "sqcif",
                         "--events", str(events), "--json"]) == 0
        manifest, spans = events_from_jsonl(events.read_text())
        assert spans
        assert manifest["argv"][0] == "run"
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "sdvbs-repro/suite-result/v8"
        assert payload["manifest"]["measurement"]["repeats"] == 1
