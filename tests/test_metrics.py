"""Tests for metrics: bounded histograms, registry, work models, dispatch."""

import numpy as np
import pytest

from repro.core.backend import get_kernel, registered_kernels, use_backend
from repro.core.equivalence import cases_for
from repro.core.metrics import (
    FLOAT_BYTES,
    KernelWork,
    LogHistogram,
    MetricsRegistry,
    WorkEstimate,
    active_metrics,
    analytic_work,
    use_metrics,
    work_model_table,
)
from repro.core.types import InputSize


class TestWorkEstimate:
    def test_arithmetic_intensity(self):
        est = WorkEstimate(flops=32.0, traffic_bytes=16.0)
        assert est.arithmetic_intensity == 2.0

    def test_zero_traffic_intensity(self):
        assert WorkEstimate(flops=5.0, traffic_bytes=0.0) \
            .arithmetic_intensity == 0.0

    def test_addition(self):
        total = WorkEstimate(1.0, 2.0) + WorkEstimate(3.0, 4.0)
        assert total == WorkEstimate(4.0, 6.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WorkEstimate(flops=-1.0, traffic_bytes=0.0)


class TestKernelWork:
    def test_accumulates_calls(self):
        work = KernelWork(kernel="demo")
        work.add(WorkEstimate(100.0, 50.0), 0.5)
        work.add(WorkEstimate(100.0, 50.0), 0.5)
        assert work.calls == 2
        assert work.flops == 200.0
        assert work.traffic_bytes == 100.0
        assert work.seconds == 1.0

    def test_derived_rates(self):
        work = KernelWork(kernel="demo", calls=1, flops=2e9,
                          traffic_bytes=1e9, seconds=2.0)
        assert work.gflops_per_second == pytest.approx(1.0)
        assert work.gbytes_per_second == pytest.approx(0.5)
        assert work.arithmetic_intensity == pytest.approx(2.0)

    def test_zero_seconds_rates(self):
        work = KernelWork(kernel="demo", flops=1.0, traffic_bytes=1.0)
        assert work.gflops_per_second == 0.0
        assert work.gbytes_per_second == 0.0


class TestLogHistogram:
    def test_exact_percentiles_match_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(-3.0, 0.6, 400)
        hist = LogHistogram(raw_limit=1000)
        for value in values:
            hist.observe(value)
        assert hist.exact
        for q in (50.0, 90.0, 95.0, 99.0, 99.9):
            assert hist.percentile(q) == pytest.approx(
                np.percentile(values, q), rel=1e-12)

    def test_bucketed_percentiles_within_bucket_resolution(self):
        rng = np.random.default_rng(11)
        values = rng.lognormal(-3.0, 0.6, 5000)
        hist = LogHistogram(raw_limit=100, buckets_per_decade=64)
        for value in values:
            hist.observe(value)
        assert not hist.exact
        # One bucket spans a factor of 10**(1/64); allow one width.
        resolution = 10.0 ** (1.0 / 64.0) - 1.0
        for q in (50.0, 90.0, 95.0, 99.0):
            expected = np.percentile(values, q)
            assert hist.percentile(q) == pytest.approx(
                expected, rel=2.0 * resolution)

    def test_memory_stays_bounded_but_aggregates_are_exact(self):
        hist = LogHistogram(raw_limit=64)
        values = [0.001 * (1 + i % 97) for i in range(10_000)]
        for value in values:
            hist.observe(value)
        assert len(hist.raw_samples()) == 64
        assert hist.count == 10_000
        assert hist.total == pytest.approx(sum(values))
        assert hist.min == pytest.approx(min(values))
        assert hist.max == pytest.approx(max(values))

    def test_summary_carries_all_reported_percentiles(self):
        hist = LogHistogram()
        hist.observe(0.010)
        summary = hist.summary()
        for key in ("p50", "p90", "p95", "p99", "p99.9"):
            assert key in summary


class TestRegistryHistograms:
    def test_observe_is_bounded_for_long_streams(self):
        registry = MetricsRegistry()
        for i in range(5000):
            registry.observe("frame_seconds", 0.001 * (1 + i % 13))
        hist = registry.histogram_snapshot()["frame_seconds"]
        assert hist.count == 5000
        assert len(registry.histogram("frame_seconds")) == hist.raw_limit
        summary = registry.to_dict()["histograms"]["frame_seconds"]
        assert summary["count"] == 5000

    def test_short_histogram_api_unchanged(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("lat", value)
        assert registry.histogram("lat") == [1.0, 2.0, 3.0]
        assert registry.to_dict()["histograms"]["lat"] == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.inc("calls")
        registry.inc("calls", 2.0)
        assert registry.counters == {"calls": 3.0}

    def test_histograms_retain_samples(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("lat", value)
        assert registry.histogram("lat") == [1.0, 2.0, 3.0]
        assert registry.histogram("missing") == []

    def test_record_work_groups_by_kernel(self):
        registry = MetricsRegistry()
        registry.record_work("a", WorkEstimate(1.0, 2.0), 0.1)
        registry.record_work("a", WorkEstimate(1.0, 2.0), 0.1)
        registry.record_work("b", WorkEstimate(5.0, 5.0), 0.2)
        work = registry.kernel_work
        assert work["a"].calls == 2
        assert work["b"].flops == 5.0

    def test_to_dict_summarizes_histograms(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        registry.record_work("k", WorkEstimate(8.0, 4.0), 0.5)
        payload = registry.to_dict()
        assert payload["counters"] == {"n": 1.0}
        # The registry keeps no gauges, so the block has no such key.
        assert set(payload) == {"counters", "histograms", "kernels"}
        assert payload["histograms"]["h"] == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }
        assert payload["kernels"]["k"]["flops"] == 8.0
        assert payload["kernels"]["k"]["bytes"] == 4.0


class TestUseMetrics:
    def test_scoped_selection_restores(self):
        registry = MetricsRegistry()
        assert active_metrics() is None
        with use_metrics(registry):
            assert active_metrics() is registry
            inner = MetricsRegistry()
            with use_metrics(inner):
                assert active_metrics() is inner
            assert active_metrics() is registry
        assert active_metrics() is None

    def test_restored_after_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_metrics(registry):
                raise RuntimeError("boom")
        assert active_metrics() is None

    def test_profiler_run_scopes_its_registry(self):
        from repro.core.profiler import KernelProfiler

        registry = MetricsRegistry()
        profiler = KernelProfiler(metrics=registry)
        with profiler.run():
            assert active_metrics() is registry
            with profiler.kernel("A"):
                pass
        assert active_metrics() is None
        # The probes count into the profiler, not the registry.
        assert profiler.kernel_calls == {"A": 1}
        payload = registry.to_dict()
        assert payload["counters"] == {} and payload["histograms"] == {}
        # Without a registry, run() leaves the active one alone.
        with use_metrics(registry):
            with KernelProfiler().run():
                assert active_metrics() is registry


class TestDispatchRecordsWork:
    def test_dispatched_call_records_into_active_registry(self):
        spec = get_kernel("disparity.ssd")
        cases = cases_for(spec, InputSize.SQCIF, 0)
        _, args = cases[0]
        registry = MetricsRegistry()
        from repro.disparity.algorithm import ssd_map
        with use_metrics(registry):
            ssd_map(*args)
        work = registry.kernel_work["disparity.ssd"]
        assert work.calls == 1
        expected = spec.work(*args)
        assert work.flops == expected.flops
        assert work.traffic_bytes == expected.traffic_bytes
        assert work.seconds > 0.0

    def test_no_active_registry_records_nothing(self):
        spec = get_kernel("disparity.ssd")
        _, args = cases_for(spec, InputSize.SQCIF, 0)[0]
        from repro.disparity.algorithm import ssd_map
        ssd_map(*args)  # must not raise, must not record anywhere
        assert active_metrics() is None

    def test_ref_backend_records_too(self):
        spec = get_kernel("tracking.min_eigenvalue")
        _, args = cases_for(spec, InputSize.SQCIF, 0)[0]
        registry = MetricsRegistry()
        from repro.tracking.features import min_eigenvalue_map
        with use_backend("ref"), use_metrics(registry):
            min_eigenvalue_map(*args)
        assert registry.kernel_work["tracking.min_eigenvalue"].calls == 1

    def test_annotator_receives_flops(self):
        class Annotator:
            def __init__(self):
                self.attrs = {}

            def annotate_current(self, **attrs):
                for key, value in attrs.items():
                    self.attrs[key] = self.attrs.get(key, 0.0) + value

        spec = get_kernel("disparity.ssd")
        _, args = cases_for(spec, InputSize.SQCIF, 0)[0]
        annotator = Annotator()
        from repro.disparity.algorithm import ssd_map
        with use_metrics(MetricsRegistry(), annotator):
            ssd_map(*args)
            ssd_map(*args)
        expected = spec.work(*args)
        assert annotator.attrs["flops"] == 2 * expected.flops
        assert annotator.attrs["traffic_bytes"] == 2 * expected.traffic_bytes


class TestAllKernelWorkModels:
    def test_every_registered_kernel_has_a_work_model(self):
        for spec in registered_kernels():
            assert spec.work is not None, \
                f"kernel {spec.name} lacks a work model"

    @pytest.mark.parametrize(
        "spec", registered_kernels(), ids=lambda s: s.name)
    def test_analytic_work_nonzero(self, spec):
        estimate = analytic_work(spec, InputSize.SQCIF)
        assert estimate is not None
        assert estimate.flops > 0
        assert estimate.traffic_bytes > 0
        assert estimate.arithmetic_intensity > 0

    @pytest.mark.parametrize(
        "spec", registered_kernels(), ids=lambda s: s.name)
    def test_dispatch_records_nonzero_work(self, spec):
        """Acceptance: all registered kernels report nonzero work when
        actually executed through the dispatch layer."""
        import importlib

        _, args = cases_for(spec, InputSize.SQCIF, 0)[0]
        registry = MetricsRegistry()
        impl = spec.fast
        with use_metrics(registry):
            impl(*args)  # direct impl bypasses dispatch...
        assert spec.name not in registry.kernel_work  # ...by design
        module = importlib.import_module(spec.module)
        dispatch = getattr(module, impl.__name__)
        assert dispatch.kernel_spec is spec
        with use_metrics(registry):
            dispatch(*args)
        work = registry.kernel_work[spec.name]
        assert work.flops > 0
        assert work.traffic_bytes > 0
        assert work.arithmetic_intensity > 0

    def test_image_kernels_scale_with_pixels(self):
        spec = get_kernel("imgproc.gradient")
        small = analytic_work(spec, InputSize.SQCIF)
        large = analytic_work(spec, InputSize.CIF)
        ratio = InputSize.CIF.pixels / InputSize.SQCIF.pixels
        assert large.flops / small.flops == pytest.approx(ratio)

    def test_work_model_table_covers_all_kernels(self):
        rows = work_model_table(InputSize.SQCIF)
        assert len(rows) == len(registered_kernels())
        names = [name for name, _ in rows]
        assert names == sorted(names)

    def test_convolution_model_matches_hand_count(self):
        import numpy as np
        from repro.imgproc.convolution import _work_convolve

        image = np.zeros((10, 20))
        kernel = np.zeros(5)
        est = _work_convolve(image, kernel)
        assert est.flops == 2.0 * 5 * 200
        assert est.traffic_bytes == FLOAT_BYTES * (2.0 * 200 + 5)


class TestRunnerIntegration:
    def test_run_benchmark_attaches_metrics(self):
        from repro.core import run_benchmark
        from repro.core.registry import get_benchmark

        run = run_benchmark(get_benchmark("disparity"), InputSize.SQCIF)
        assert run.metrics is not None
        kernels = run.metrics["kernels"]
        assert kernels["disparity.ssd"]["flops"] > 0

    def test_warmup_runs_excluded_from_metrics(self):
        from repro.core import run_benchmark
        from repro.core.registry import get_benchmark

        once = run_benchmark(get_benchmark("disparity"), InputSize.SQCIF,
                             warmup=2, repeats=1)
        twice = run_benchmark(get_benchmark("disparity"), InputSize.SQCIF,
                              warmup=0, repeats=2)
        calls_once = once.metrics["kernels"]["disparity.ssd"]["calls"]
        calls_twice = twice.metrics["kernels"]["disparity.ssd"]["calls"]
        assert calls_twice == 2 * calls_once

    def test_trace_spans_carry_flop_annotations(self):
        from repro.core import run_benchmark
        from repro.core.registry import get_benchmark
        from repro.core.tracing import CATEGORY_KERNEL, TraceRecorder

        with TraceRecorder() as recorder:
            run_benchmark(get_benchmark("disparity"), InputSize.SQCIF,
                          recorder=recorder)
        annotated = [
            span for span in recorder.spans
            if span.category == CATEGORY_KERNEL and "flops" in span.attrs
        ]
        assert annotated
        assert all(span.attrs["flops"] > 0 for span in annotated)
        assert all(span.attrs["traffic_bytes"] > 0 for span in annotated)


class TestRenderWorkModels:
    def test_table_lists_every_kernel(self):
        from repro.core.report import render_work_models

        text = render_work_models(InputSize.SQCIF)
        for spec in registered_kernels():
            assert spec.name in text
        assert "FLOP/byte" in text

    def test_cli_table4_includes_work(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Work (ops)" in out
        assert "Kernel work models" in out
        assert "disparity.ssd" in out
