"""Tests for the statistical sampling profiler and its exporters.

The sampler is driven deterministically: fake frame chains stand in for
live stacks, a scripted clock supplies the time weights, and the frames
provider is injected so no background thread or wall clock is involved
except in the one end-to-end smoke test.
"""

import json

import pytest

from repro.core.registry import get_benchmark
from repro.core.runner import run_benchmark
from repro.core.sampling import (
    DEFAULT_INTERVAL,
    SampledProfile,
    StackSampler,
    cross_check,
    escape_frame,
    kernel_frame_map,
    observable_kernels,
    parse_collapsed,
    speedscope_dict,
    to_collapsed,
    unescape_frame,
    walk_stack,
)
from repro.core.types import NON_KERNEL_WORK, InputSize


class FakeClock:
    """Deterministic clock: each call returns the current scripted time."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeCode:
    def __init__(self, name, filename):
        self.co_name = name
        self.co_filename = filename


class FakeFrame:
    """Minimal stand-in for a live interpreter frame."""

    def __init__(self, module, function, filename, back=None):
        self.f_code = FakeCode(function, filename)
        self.f_globals = {"__name__": module}
        self.f_back = back


def chain(*frames):
    """Build a frame chain root-first; returns the leaf frame."""
    leaf = None
    for module, function, filename in frames:
        leaf = FakeFrame(module, function, filename, back=leaf)
    return leaf


def make_sampler(frames_by_tid, clock=None, frame_map=None,
                 interval=0.001, target=7):
    return StackSampler(
        interval=interval,
        frame_map=frame_map or {},
        frames_provider=lambda: frames_by_tid,
        target_thread_id=target,
        clock=clock or FakeClock(),
    )


APP_STACK = (
    ("app", "main", "/src/app.py"),
    ("app", "outer", "/src/app.py"),
    ("kernels", "ssd", "/src/kernels.py"),
)


class TestWalkStack:
    def test_root_first_order(self):
        leaf = chain(*APP_STACK)
        stack = walk_stack(leaf)
        assert stack == APP_STACK

    def test_missing_module_name(self):
        frame = FakeFrame("x", "f", "/x.py")
        frame.f_globals = {}
        assert walk_stack(frame)[0] == ("?", "f", "/x.py")


class TestSampledProfile:
    def test_attribution_leaf_first(self):
        profile = SampledProfile(
            frame_map={("/src/kernels.py", "ssd"): "SSD"})
        assert profile.attribute(APP_STACK) == "SSD"

    def test_attribution_skips_none_mapping(self):
        # A known-but-uninstrumented frame must not stop the walk.
        frame_map = {
            ("/src/kernels.py", "ssd"): None,
            ("/src/app.py", "outer"): "Outer",
        }
        profile = SampledProfile(frame_map=frame_map)
        assert profile.attribute(APP_STACK) == "Outer"

    def test_unmapped_stack_is_non_kernel(self):
        profile = SampledProfile(frame_map={})
        profile.add(APP_STACK)
        assert profile.kernel_seconds == {
            NON_KERNEL_WORK: pytest.approx(DEFAULT_INTERVAL)}
        assert profile.non_kernel_top() == [
            ("kernels:ssd", pytest.approx(DEFAULT_INTERVAL))]

    def test_weighted_fold_and_shares(self):
        profile = SampledProfile(
            interval=0.001,
            frame_map={("/src/kernels.py", "ssd"): "SSD"})
        profile.add(APP_STACK, 0.003)
        profile.add(APP_STACK, 0.001)
        profile.add(APP_STACK[:2], 0.004)  # no kernel frame
        assert profile.samples == 3
        assert profile.sampled_seconds == pytest.approx(0.008)
        shares = profile.shares()
        assert shares["SSD"] == pytest.approx(50.0)
        assert shares[NON_KERNEL_WORK] == pytest.approx(50.0)
        labels = tuple("%s:%s" % (f[0], f[1]) for f in APP_STACK)
        assert profile.folded[labels] == pytest.approx(0.004)

    def test_empty_profile_has_no_shares(self):
        assert SampledProfile().shares() == {}

    def test_payload_round_trip(self):
        profile = SampledProfile(
            interval=0.002,
            frame_map={("/src/kernels.py", "ssd"): "SSD"})
        profile.add(APP_STACK, 0.01)
        profile.add(APP_STACK[:2], 0.006)
        payload = json.loads(json.dumps(profile.to_dict()))
        restored = SampledProfile.from_dict(payload)
        assert restored.samples == 2
        assert restored.shares() == pytest.approx(profile.shares())
        assert restored.observable_kernels() == ["SSD"]
        assert restored.folded == profile.folded
        assert restored.non_kernel_top() == [
            ("app:outer", pytest.approx(0.006))]

    def test_to_dict_caps_stacks(self):
        profile = SampledProfile()
        for i in range(20):
            profile.add((("m", f"f{i}", "/m.py"),), 0.001)
        payload = profile.to_dict(max_stacks=5)
        assert len(payload["folded"]) == 5
        assert payload["folded_dropped"] == 15

    def test_stacks_truncated_accumulates_across_round_trips(self):
        profile = SampledProfile()
        for i in range(20):
            profile.add((("m", f"f{i}", "/m.py"),), 0.001)
        first = profile.to_dict(max_stacks=10)
        assert first["stacks_truncated"] == 10
        restored = SampledProfile.from_dict(first)
        assert restored.stacks_truncated == 10
        # A tighter second export adds its own cut to the running count.
        second = restored.to_dict(max_stacks=5)
        assert second["folded_dropped"] == 5
        assert second["stacks_truncated"] == 15
        assert SampledProfile.from_dict(second).stacks_truncated == 15

    def test_stacks_truncated_zero_when_uncapped(self):
        profile = SampledProfile()
        profile.add((("m", "f", "/m.py"),), 0.001)
        payload = profile.to_dict()
        assert payload["stacks_truncated"] == 0
        assert payload["folded_dropped"] == 0

    def test_legacy_payload_falls_back_to_folded_dropped(self):
        profile = SampledProfile()
        for i in range(8):
            profile.add((("m", f"f{i}", "/m.py"),), 0.001)
        payload = profile.to_dict(max_stacks=4)
        del payload["stacks_truncated"]  # pre-v6 export shape
        assert SampledProfile.from_dict(payload).stacks_truncated == 4

    def test_merge_sums_truncation_counts(self):
        left = SampledProfile(observable=())
        left.stacks_truncated = 3
        right = SampledProfile(observable=())
        right.stacks_truncated = 4
        merged = SampledProfile.merged([left, right])
        assert merged.stacks_truncated == 7


class TestStackSampler:
    def test_deterministic_sample_counts(self):
        clock = FakeClock()
        leaf = chain(*APP_STACK)
        sampler = make_sampler({7: leaf}, clock=clock,
                               frame_map={("/src/kernels.py", "ssd"): "SSD"})
        for _ in range(10):
            clock.advance(0.001)
            assert sampler.sample_once()
        assert sampler.profile.samples == 10
        # First sample carries one nominal interval, the rest their
        # measured 1 ms windows.
        assert sampler.profile.sampled_seconds == pytest.approx(0.010)
        assert sampler.profile.shares() == {"SSD": pytest.approx(100.0)}

    def test_time_weighting_charges_delayed_sample(self):
        # A 9 ms gap (GIL held by a C call) lands on the frame that was
        # running, and carries the full window.
        clock = FakeClock()
        leaf = chain(*APP_STACK)
        sampler = make_sampler({7: leaf}, clock=clock,
                               frame_map={("/src/kernels.py", "ssd"): "SSD"})
        clock.advance(0.001)
        sampler.sample_once()
        clock.advance(0.009)
        sampler.sample_once()
        assert sampler.profile.sampled_seconds == pytest.approx(0.010)

    def test_missing_target_thread(self):
        sampler = make_sampler({})
        assert not sampler.sample_once()
        assert sampler.profile.samples == 0

    def test_registry_name_mapping(self):
        frame_map = kernel_frame_map("disparity")
        leaf = chain(
            ("repro.disparity.algorithm", "dense_disparity",
             next(f for (f, n) in frame_map if n == "window_sums")),
        )
        # Use the real registered file/function names for a live check.
        observable = observable_kernels(frame_map)
        assert {"SSD", "IntegralImage", "Correlation", "Sort"} <= \
            set(observable)
        clock = FakeClock()
        sampler = make_sampler({7: leaf}, clock=clock, frame_map=frame_map)
        clock.advance(0.001)
        sampler.sample_once()
        # dense_disparity itself is not a kernel frame.
        assert sampler.profile.kernel_seconds.keys() == {NON_KERNEL_WORK}

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            StackSampler(interval=0.0)

    def test_live_thread_smoke(self):
        # Real background thread on this thread's stack; just asserts
        # the lifecycle works and samples arrive.
        sampler = StackSampler(interval=0.0005)
        with sampler:
            total = 0.0
            for i in range(200_000):
                total += i * 0.5
        assert total > 0
        assert sampler.profile.samples >= 1

    def test_double_start_rejected(self):
        sampler = StackSampler(interval=0.01)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()
        sampler.stop()  # idempotent


class TestCollapsedFormat:
    def test_escape_round_trip(self):
        for label in ("a b;c", "100% done", "%3B literal", "plain",
                      "odd %20 input", ";;  %%"):
            assert unescape_frame(escape_frame(label)) == label

    def test_collapsed_round_trip_with_hostile_names(self):
        profile = SampledProfile()
        hostile = (
            ("mod", "f with space", "/m.py"),
            ("mod", "g;semi", "/m.py"),
            ("mod", "h%pct", "/m.py"),
        )
        profile.add(hostile, 0.002)
        profile.add(APP_STACK, 0.001)
        text = to_collapsed(profile)
        folded = parse_collapsed(text)
        labels = tuple("%s:%s" % (f[0], f[1]) for f in hostile)
        assert folded[labels] == 2000  # integer microseconds
        plain = tuple("%s:%s" % (f[0], f[1]) for f in APP_STACK)
        assert folded[plain] == 1000

    def test_collapsed_lines_are_sorted_and_terminated(self):
        profile = SampledProfile()
        profile.add((("b", "b", "/b.py"),), 0.001)
        profile.add((("a", "a", "/a.py"),), 0.001)
        text = to_collapsed(profile)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == sorted(lines)

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_collapsed("justonetoken\n")

    def test_empty_profile_collapses_to_empty(self):
        assert to_collapsed(SampledProfile()) == ""
        assert parse_collapsed("") == {}


class TestSpeedscope:
    def test_shape_and_weights(self):
        profile = SampledProfile(
            interval=0.001,
            frame_map={("/src/kernels.py", "ssd"): "SSD"})
        profile.add(APP_STACK, 0.003)
        profile.add(APP_STACK[:2], 0.001)
        payload = speedscope_dict(profile, name="unit")
        assert payload["name"] == "unit"
        assert set(payload) >= {"$schema", "shared", "profiles"}
        prof = payload["profiles"][0]
        assert prof["type"] == "sampled"
        assert prof["unit"] == "seconds"
        assert len(prof["samples"]) == len(prof["weights"]) == 2
        assert sum(prof["weights"]) == pytest.approx(0.004)
        assert prof["endValue"] == pytest.approx(0.004)
        frames = payload["shared"]["frames"]
        for sample in prof["samples"]:
            for index in sample:
                assert 0 <= index < len(frames)


class TestCrossCheck:
    def test_agreeing_shares_pass(self):
        check = cross_check(
            {"SSD": 40.0, "Sort": 40.0, NON_KERNEL_WORK: 20.0},
            {"SSD": 42.0, "Sort": 38.0, NON_KERNEL_WORK: 20.0},
            observable=["SSD", "Sort"],
            samples=100,
        )
        assert check.ok
        assert [row.kernel for row in check.rows] == \
            ["SSD", "Sort", NON_KERNEL_WORK]

    def test_divergence_fails_gate(self):
        check = cross_check(
            {"SSD": 50.0, NON_KERNEL_WORK: 50.0},
            {"SSD": 30.0, NON_KERNEL_WORK: 70.0},
            observable=["SSD"],
        )
        assert not check.ok
        assert {row.kernel for row in check.failures()} == \
            {"SSD", NON_KERNEL_WORK}

    def test_small_shares_not_gated(self):
        check = cross_check(
            {"Tiny": 4.0, "Big": 56.0, NON_KERNEL_WORK: 40.0},
            {"Tiny": 0.0, "Big": 57.0, NON_KERNEL_WORK: 43.0},
            observable=["Tiny", "Big"],
        )
        # Tiny misses by 4 points but holds <10% on both sides.
        assert check.ok
        assert len(check.gated_rows()) == 2

    def test_unobservable_kernel_folds_into_residual(self):
        check = cross_check(
            {"Inline": 30.0, "SSD": 50.0, NON_KERNEL_WORK: 20.0},
            {"SSD": 52.0, NON_KERNEL_WORK: 48.0},
            observable=["SSD"],
        )
        inline = next(r for r in check.rows if r.kernel == "Inline")
        assert inline.sampled is None
        assert inline.delta is None
        residual = next(r for r in check.rows
                        if r.kernel == NON_KERNEL_WORK)
        assert residual.instrumented == pytest.approx(50.0)
        assert residual.sampled == pytest.approx(48.0)
        assert check.ok

    def test_stray_sampled_label_counts_in_residual(self):
        check = cross_check(
            {"SSD": 80.0, NON_KERNEL_WORK: 20.0},
            {"SSD": 80.0, "Ghost": 5.0, NON_KERNEL_WORK: 15.0},
            observable=["SSD", "Ghost"],
        )
        residual = next(r for r in check.rows
                        if r.kernel == NON_KERNEL_WORK)
        assert residual.sampled == pytest.approx(20.0)


class TestFrameMaps:
    def test_every_app_frame_map_builds(self):
        from repro.core import all_benchmarks
        from repro.core.backend import load_all_kernels

        load_all_kernels()
        for benchmark in all_benchmarks():
            frame_map = kernel_frame_map(benchmark.slug)
            for label in observable_kernels(frame_map):
                assert label in benchmark.kernel_names(), (
                    benchmark.slug, label)

    def test_disparity_declares_factored_kernels(self):
        from repro.core.backend import load_all_kernels

        load_all_kernels()
        observable = observable_kernels(kernel_frame_map("disparity"))
        assert observable == ["Correlation", "IntegralImage", "SSD", "Sort"]


class TestRunnerIntegration:
    def test_sampling_payload_rides_export(self):
        from repro.core.export import result_from_json, result_to_json
        from repro.core.types import SuiteResult

        sampler = StackSampler(interval=0.0005,
                               frame_map=kernel_frame_map("disparity"))
        run = run_benchmark(get_benchmark("disparity"), InputSize.SQCIF,
                            repeats=3, sampler=sampler)
        assert run.sampling is not None
        assert run.sampling["samples"] == sampler.profile.samples
        result = SuiteResult()
        result.runs.append(run)
        restored = result_from_json(result_to_json(result))
        assert restored.runs[0].sampling["samples"] == \
            sampler.profile.samples
        restored_profile = SampledProfile.from_dict(
            restored.runs[0].sampling)
        assert restored_profile.shares() == \
            pytest.approx(sampler.profile.shares())

    def test_run_without_sampler_has_no_payload(self):
        run = run_benchmark(get_benchmark("disparity"), InputSize.SQCIF)
        assert run.sampling is None

    def test_run_suite_samples_each_cell_with_its_kernel_map(self):
        from repro.core.runner import run_suite

        result = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           repeats=3, sample_interval=0.0005)
        (run,) = result.runs
        assert run.sampling["samples"] > 0
        assert "SSD" in run.sampling["observable"]
        assert run_suite(["disparity"],
                         sizes=[InputSize.SQCIF]).runs[0].sampling is None

    def test_run_suite_sampling_needs_one_job(self):
        from repro.core.runner import run_suite

        with pytest.raises(ValueError, match="jobs=1"):
            run_suite(["disparity"], sizes=[InputSize.SQCIF], jobs=2,
                      sample_interval=0.0005)


class TestProbeOverhead:
    def test_measured_with_fake_clock(self):
        from repro.core.profiler import measure_probe_overhead

        state = {"now": 0.0}

        def ticking():
            state["now"] += 1e-6
            return state["now"]

        payload = measure_probe_overhead(probes=10, passes=2,
                                         clock=ticking)
        assert payload["probes"] == 10
        assert payload["passes"] == 2
        assert payload["seconds_per_probe"] >= 0.0
        assert payload["calibration_seconds"] > 0.0

    def test_real_clock_is_fast_and_positive(self):
        from repro.core.profiler import measure_probe_overhead

        payload = measure_probe_overhead(probes=200, passes=2)
        assert 0.0 <= payload["seconds_per_probe"] < 1e-3

    def test_rejects_bad_arguments(self):
        from repro.core.profiler import measure_probe_overhead

        with pytest.raises(ValueError):
            measure_probe_overhead(probes=0)
        with pytest.raises(ValueError):
            measure_probe_overhead(passes=0)


class TestCli:
    def test_flame_collapsed(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "flame.collapsed"
        assert cli_main(["flame", "disparity", "--size", "sqcif",
                         "--repeats", "3", "--warmup", "0",
                         "--out", str(out)]) == 0
        folded = parse_collapsed(out.read_text())
        assert folded  # at least one stack sampled
        assert "wrote collapsed profile" in capsys.readouterr().out

    def test_flame_speedscope(self, tmp_path):
        from repro.cli import main as cli_main

        out = tmp_path / "flame.speedscope.json"
        assert cli_main(["flame", "disparity", "--size", "sqcif",
                         "--repeats", "3", "--warmup", "0",
                         "--format", "speedscope",
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["profiles"][0]["type"] == "sampled"

    def test_flame_unknown_slug(self, tmp_path):
        from repro.cli import main as cli_main

        assert cli_main(["flame", "nope",
                         "--out", str(tmp_path / "x")]) == 2

    def test_xcheck_generous_tolerance(self, capsys):
        from repro.cli import main as cli_main

        # SQCIF runs are tiny; a generous tolerance keeps this a smoke
        # test of the plumbing, not a statistics test.
        code = cli_main(["xcheck", "disparity", "--size", "sqcif",
                         "--repeats", "5", "--warmup", "1",
                         "--tolerance", "60", "--min-share", "10"])
        out = capsys.readouterr().out
        assert "Instrumented vs sampled shares" in out
        assert code == 0

    def test_xcheck_unknown_slug(self):
        from repro.cli import main as cli_main

        assert cli_main(["xcheck", "nope"]) == 2
