"""Integration tests: registry, runner, reports and CLI glue."""

import numpy as np
import pytest

from repro import (
    ALL_SIZES,
    InputSize,
    all_benchmarks,
    get_benchmark,
    render_figure2,
    render_figure3,
    render_suite_summary,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    run_benchmark,
    run_suite,
)
from repro.cli import main as cli_main
from repro.core import NON_KERNEL_WORK, table4_benchmarks
from repro.core.runner import scaling_series
from repro.core.sysinfo import system_configuration


class TestRegistry:
    def test_nine_applications(self):
        assert len(all_benchmarks()) == 9

    def test_table1_order(self):
        names = [b.name for b in all_benchmarks()]
        assert names == [
            "Disparity Map",
            "Feature Tracking",
            "Image Segmentation",
            "SIFT",
            "Robot Localization",
            "SVM",
            "Face Detection",
            "Image Stitch",
            "Texture Synthesis",
        ]

    def test_get_benchmark(self):
        assert get_benchmark("sift").name == "SIFT"

    def test_unknown_slug(self):
        with pytest.raises(KeyError):
            get_benchmark("raytracer")

    def test_figure2_has_six(self):
        # Paper Figure 2 plots disparity, tracking, SIFT, stitch,
        # localization, segmentation.
        slugs = {b.slug for b in all_benchmarks() if b.in_figure2}
        assert slugs == {
            "disparity", "tracking", "sift", "stitch", "localization",
            "segmentation",
        }

    def test_every_benchmark_has_kernels_and_metadata(self):
        for bench in all_benchmarks():
            assert bench.kernels
            assert bench.description
            assert bench.application_domain
            assert callable(bench.setup)
            assert callable(bench.run)

    def test_table4_models_present(self):
        assert len(table4_benchmarks()) == 9


class TestRunner:
    def test_run_benchmark_record(self):
        bench = get_benchmark("disparity")
        record = run_benchmark(bench, InputSize.SQCIF, 0)
        assert record.total_seconds > 0
        assert record.kernel_seconds
        shares = record.occupancy()
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-6)

    def test_kernel_names_match_declaration(self):
        for slug in ("disparity", "stitch", "svm"):
            bench = get_benchmark(slug)
            record = run_benchmark(bench, InputSize.SQCIF, 0)
            declared = set(bench.kernel_names())
            assert set(record.kernel_seconds) <= declared

    def test_run_suite_subset(self):
        result = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           variants=[0, 1])
        assert len(result.runs) == 2
        assert result.benchmarks() == ["disparity"]

    def test_scaling_series_monotone_for_disparity(self):
        result = run_suite(["disparity"], variants=[0])
        series = scaling_series(result, "disparity")
        assert [p.relative_size for p in series] == [1, 2, 4]
        assert series[0].relative_time == pytest.approx(1.0)
        # Data-intensive: runtime grows with input size.
        assert series[2].relative_time > series[0].relative_time


class TestReports:
    def test_table1_mentions_all(self):
        text = render_table1()
        for bench in all_benchmarks():
            assert bench.name in text

    def test_table2_includes_characteristics(self):
        text = render_table2()
        assert "Data intensive" in text
        assert "Computationally intensive" in text

    def test_table3_host_rows(self):
        text = render_table3()
        assert "Operating System" in text
        assert "Processors" in text
        config = system_configuration()
        assert "Memory" in config

    def test_table4_lists_kernels(self):
        text = render_table4()
        for fragment in ("disparity", "SSD", "tracking", "MatrixInversion",
                         "sift", "svm", "stitch"):
            assert fragment in text

    def test_figure_reports_render(self):
        result = run_suite(["disparity", "segmentation"],
                           sizes=[InputSize.SQCIF], variants=[0])
        fig3 = render_figure3(result)
        assert "Disparity Map" in fig3
        assert NON_KERNEL_WORK in fig3
        summary = render_suite_summary(result)
        assert "disparity" in summary

    def test_figure2_normalized(self):
        result = run_suite(["disparity"], variants=[0])
        text = render_figure2(result, ["disparity"])
        assert "1.00x" in text


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        assert "Disparity Map" in capsys.readouterr().out

    def test_tables(self, capsys):
        assert cli_main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I." in out
        assert "Table III." in out

    def test_table4(self, capsys):
        assert cli_main(["table4"]) == 0
        assert "Parallelism" in capsys.readouterr().out

    def test_run_single(self, capsys):
        assert cli_main(["run", "disparity", "--sizes", "sqcif"]) == 0
        out = capsys.readouterr().out
        assert "disparity" in out
        assert "SSD" in out


class TestCrossApplication:
    """Invariants that hold across the whole suite."""

    @pytest.mark.parametrize(
        "slug", [b.slug for b in all_benchmarks()]
    )
    def test_each_benchmark_runs_clean(self, slug):
        bench = get_benchmark(slug)
        record = run_benchmark(bench, InputSize.SQCIF, 1)
        assert record.total_seconds > 0
        # Most of the runtime is attributed to named kernels.
        assert record.occupancy()[NON_KERNEL_WORK] < 50.0

    def test_parallelism_estimates_scale_with_input(self):
        # Dense kernels get wider with more pixels (paper: "large amounts
        # of inherent parallelism ... yet larger inputs").
        for slug in ("disparity", "stitch"):
            small = {
                r.kernel: r.parallelism
                for r in get_benchmark(slug).parallelism(InputSize.SQCIF)
            }
            large = {
                r.kernel: r.parallelism
                for r in get_benchmark(slug).parallelism(InputSize.CIF)
            }
            assert any(large[k] > small[k] for k in small)

    def test_all_sizes_constant(self):
        assert list(ALL_SIZES) == [InputSize.SQCIF, InputSize.QCIF,
                                   InputSize.CIF]
