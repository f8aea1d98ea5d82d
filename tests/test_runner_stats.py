"""Tests for the measurement-robust runner: warmup/repeats aggregation,
parallel-jobs equivalence, and the occupancy-normalization regression."""

import pytest

from repro.core import InputSize, run_suite
from repro.core.profiler import NullProfiler, ensure_profiler
from repro.core.registry import Benchmark
from repro.core.runner import run_benchmark, scaling_series
from repro.core.types import (
    NON_KERNEL_WORK,
    BenchmarkRun,
    Characteristic,
    ConcentrationArea,
    KernelInfo,
    ParallelismClass,
    RunStats,
    SuiteResult,
)


class FakeClock:
    """Deterministic clock: advances only when told."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_fake_benchmark(clock, schedule):
    """A benchmark whose n-th execution takes ``schedule[n]`` fake seconds
    inside a single named kernel."""
    durations = list(schedule)

    def setup(size, variant):
        return {"size": size, "variant": variant}

    def run(workload, profiler):
        with profiler.kernel("K"):
            clock.advance(durations.pop(0))
        return {"ok": True}

    return Benchmark(
        name="Fake",
        slug="fake",
        area=ConcentrationArea.IMAGE_ANALYSIS,
        description="deterministic fake workload",
        characteristic=Characteristic.COMPUTE_INTENSIVE,
        application_domain="testing",
        kernels=(KernelInfo("K", "the kernel", ParallelismClass.DLP),),
        setup=setup,
        run=run,
    )


class TestRunStats:
    def test_aggregates(self):
        stats = RunStats.of([3.0, 1.0, 2.0])
        assert stats.min == 1.0
        assert stats.max == 3.0
        assert stats.median == 2.0
        assert stats.mean == pytest.approx(2.0)
        assert stats.stddev == pytest.approx(1.0)

    def test_even_count_median(self):
        assert RunStats.of([1.0, 2.0, 3.0, 10.0]).median == pytest.approx(2.5)

    def test_single_sample(self):
        stats = RunStats.of([4.0])
        assert stats.median == 4.0
        assert stats.stddev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RunStats.of([])

    def test_dict_roundtrip(self):
        stats = RunStats.of([1.0, 2.0])
        payload = stats.to_dict()
        assert payload["median"] == pytest.approx(1.5)
        assert RunStats.from_dict(payload) == stats


class TestWarmupAndRepeats:
    def test_warmup_runs_are_excluded(self):
        clock = FakeClock()
        # Cold runs are artificially slow; only the last three count.
        bench = make_fake_benchmark(clock, [50.0, 40.0, 1.0, 2.0, 3.0])
        record = run_benchmark(bench, InputSize.SQCIF, 0,
                               warmup=2, repeats=3, clock=clock)
        assert record.stats is not None
        assert record.stats.warmup == 2
        assert record.stats.total.samples == (1.0, 2.0, 3.0)
        assert record.total_seconds == pytest.approx(2.0)  # median

    def test_repeat_aggregation_per_kernel(self):
        clock = FakeClock()
        bench = make_fake_benchmark(clock, [1.0, 2.0, 3.0])
        record = run_benchmark(bench, InputSize.SQCIF, 0,
                               repeats=3, clock=clock)
        kernel = record.stats.kernels["K"]
        assert kernel.min == 1.0
        assert kernel.median == 2.0
        assert kernel.mean == pytest.approx(2.0)
        assert kernel.stddev == pytest.approx(1.0)
        assert record.kernel_seconds["K"] == pytest.approx(2.0)
        assert record.kernel_calls["K"] == 1

    def test_single_shot_matches_legacy_shape(self):
        clock = FakeClock()
        bench = make_fake_benchmark(clock, [2.5])
        record = run_benchmark(bench, InputSize.SQCIF, 0, clock=clock)
        assert record.total_seconds == pytest.approx(2.5)
        assert record.kernel_seconds == {"K": pytest.approx(2.5)}
        assert record.stats.repeats == 1
        assert record.stats.total.stddev == 0.0

    def test_invalid_arguments(self):
        clock = FakeClock()
        bench = make_fake_benchmark(clock, [1.0])
        with pytest.raises(ValueError):
            run_benchmark(bench, InputSize.SQCIF, 0, repeats=0)
        with pytest.raises(ValueError):
            run_benchmark(bench, InputSize.SQCIF, 0, warmup=-1)


class TestParallelJobs:
    def test_jobs_match_serial_grid(self):
        serial = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           variants=[0, 1], jobs=1)
        parallel = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                             variants=[0, 1], jobs=2)
        keys = lambda res: [(r.benchmark, r.size, r.variant)
                            for r in res.runs]
        assert keys(parallel) == keys(serial)
        for left, right in zip(serial.runs, parallel.runs):
            assert left.kernel_calls == right.kernel_calls
            assert set(left.kernel_seconds) == set(right.kernel_seconds)

    def test_jobs_with_repeats_carry_stats(self):
        result = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           variants=[0], repeats=2, jobs=2)
        (run,) = result.runs
        assert run.stats is not None
        assert run.stats.repeats == 2
        assert len(run.stats.total.samples) == 2


class TestOccupancyNormalization:
    def test_overattribution_rescales_to_100(self):
        # Profiler overhead can make attributed time exceed wall time;
        # the shares must still close the 100% budget exactly.
        run = BenchmarkRun(
            benchmark="demo",
            size=InputSize.SQCIF,
            variant=0,
            total_seconds=1.0,
            kernel_seconds={"A": 0.9, "B": 0.6},
        )
        shares = run.occupancy()
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert shares[NON_KERNEL_WORK] == 0.0
        assert shares["A"] == pytest.approx(60.0)
        assert shares["B"] == pytest.approx(40.0)

    def test_normal_attribution_unchanged(self):
        run = BenchmarkRun(
            benchmark="demo",
            size=InputSize.SQCIF,
            variant=0,
            total_seconds=10.0,
            kernel_seconds={"A": 4.0},
        )
        shares = run.occupancy()
        assert shares["A"] == pytest.approx(40.0)
        assert shares[NON_KERNEL_WORK] == pytest.approx(60.0)
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)

    def test_full_suite_runs_close_budget(self):
        result = run_suite(["disparity", "svm"], sizes=[InputSize.SQCIF],
                           variants=[0])
        for run in result.runs:
            assert sum(run.occupancy().values()) == \
                pytest.approx(100.0, abs=1e-9)


class TestScalingFallback:
    def _result_without_sqcif(self):
        result = SuiteResult()
        for size, total in ((InputSize.QCIF, 2.0), (InputSize.CIF, 8.0)):
            result.runs.append(
                BenchmarkRun(
                    benchmark="demo",
                    size=size,
                    variant=0,
                    total_seconds=total,
                )
            )
        return result

    def test_normalizes_to_smallest_present_with_warning(self):
        result = self._result_without_sqcif()
        with pytest.warns(RuntimeWarning, match="smallest size present"):
            series = scaling_series(result, "demo")
        assert [p.relative_size for p in series] == [2, 4]
        assert series[0].relative_time == pytest.approx(1.0)
        assert series[1].relative_time == pytest.approx(4.0)

    def test_empty_result_still_empty(self):
        assert scaling_series(SuiteResult(), "demo") == []

    def test_zero_base_median_warns_instead_of_silent_empty(self):
        result = SuiteResult()
        for size, total in ((InputSize.SQCIF, 0.0), (InputSize.QCIF, 2.0)):
            result.runs.append(
                BenchmarkRun(
                    benchmark="demo",
                    size=size,
                    variant=0,
                    total_seconds=total,
                )
            )
        with pytest.warns(RuntimeWarning, match="cannot normalize"):
            series = scaling_series(result, "demo")
        assert series == []


class TestNullProfilerSingleton:
    def test_shared_instance(self):
        assert ensure_profiler(None) is ensure_profiler(None)

    def test_mutating_paths_are_inert(self):
        shared = ensure_profiler(None)
        with shared.run():
            with shared.kernel("A"):
                pass
        shared.start()
        assert shared.stop() == 0.0
        shared.reset()
        assert shared.kernel_seconds == {}
        assert shared.total_seconds == 0.0
        # A second user sees pristine state.
        assert ensure_profiler(None).kernel_seconds == {}

    def test_real_profiler_passthrough(self):
        from repro.core.profiler import KernelProfiler

        profiler = KernelProfiler()
        assert ensure_profiler(profiler) is profiler
        assert not isinstance(ensure_profiler(profiler), NullProfiler)


class TestCliSizes:
    def test_bad_size_exits_2_cleanly(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "disparity", "--sizes", "cif", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid size 'bogus'" in err
        assert "SQCIF, QCIF, CIF" in err
        assert "KeyError" not in err

    def test_sizes_case_insensitive(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["run", "disparity", "--sizes", "sqcif",
                         "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "disparity" in out
        assert "±" in out  # repeat stddev shown in the summary


class TestCliVariantBounds:
    """Out-of-range variants are usage errors (exit 2), never run.

    The bounds come from the command table the job server validates
    with: ``--variant`` is 0-4 and ``--variants`` 1-5.  Before the table,
    ``--variant 7`` died in the input generator with a traceback and
    ``--variants 9`` was silently clamped to 5.
    """

    @pytest.mark.parametrize("argv", [
        ["trace", "disparity", "--variant", "7"],
        ["flame", "disparity", "--variant", "7"],
        ["xcheck", "disparity", "--variant", "7"],
    ], ids=["trace", "flame", "xcheck"])
    def test_variant_above_4_is_a_usage_error(self, argv, tmp_path,
                                              monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv + ["--size", "sqcif"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "variant must be <= 4, got 7" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["run", "disparity", "--sizes", "sqcif"],
        ["figure2"],
        ["figure3", "disparity"],
        ["verify-backends", "--sizes", "sqcif"],
    ], ids=["run", "figure2", "figure3", "verify-backends"])
    def test_variants_above_5_is_a_usage_error(self, argv, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv + ["--variants", "9"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "variants must be <= 5, got 9" in err
        assert capsys.readouterr().out == ""
