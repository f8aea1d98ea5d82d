"""Programmatic paper-vs-reproduction shape checks.

EXPERIMENTS.md narrates the comparison; these tests enforce it: for every
benchmark the paper's Table IV covers, the reproduction's parallelism
classes match the paper's labels, and for the benchmarks listed in
``ORDERING_MATCHED`` the within-benchmark kernel ordering matches the
paper exactly.
"""

import pytest

from repro.core import InputSize, get_benchmark
from repro.core.paper import (
    FIGURE2_BANDS,
    ORDERING_MATCHED,
    PAPER_TABLE4,
    paper_class,
    paper_kernel_order,
)


def reproduction_estimates(slug):
    return {
        est.kernel: est
        for est in get_benchmark(slug).parallelism(InputSize.SQCIF)
    }


class TestTable4Classes:
    @pytest.mark.parametrize("key", sorted(PAPER_TABLE4))
    def test_class_label_matches_paper(self, key):
        slug, kernel = key
        estimates = reproduction_estimates(slug)
        assert kernel in estimates, f"{slug} lacks kernel {kernel}"
        assert estimates[kernel].parallelism_class == paper_class(slug,
                                                                  kernel)


class TestTable4Ordering:
    @pytest.mark.parametrize("slug", ORDERING_MATCHED)
    def test_within_benchmark_ordering(self, slug):
        estimates = reproduction_estimates(slug)
        paper_order = paper_kernel_order(slug)
        ours = sorted(
            paper_order, key=lambda k: -estimates[k].parallelism
        )
        assert ours == paper_order

    def test_every_table4_kernel_is_wide_or_narrow_as_published(self):
        """Kernels the paper measures in the thousands should be >100x
        here; kernels under 200x should stay under 1,000x."""
        for (slug, kernel), (value, _cls) in PAPER_TABLE4.items():
            ours = reproduction_estimates(slug)[kernel].parallelism
            if value >= 4_000:
                assert ours > 100, (slug, kernel, ours)
            if value <= 180:
                assert ours < 10_000, (slug, kernel, ours)

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            paper_kernel_order("texture")
        with pytest.raises(KeyError):
            paper_class("disparity", "Blend")


class TestFigure2Bands:
    def test_bands_cover_figure2_benchmarks(self):
        from repro.core import all_benchmarks

        assert set(FIGURE2_BANDS) == {b.slug for b in all_benchmarks()
                                      if b.in_figure2}

    @pytest.mark.parametrize("slug", ["disparity", "segmentation"])
    def test_measured_ratio_within_band(self, slug):
        """Spot-check the two extreme scaling shapes against their bands
        (the full sweep runs in bench_fig2_scaling)."""
        from repro.core import run_benchmark

        bench = get_benchmark(slug)
        small = run_benchmark(bench, InputSize.SQCIF, 0).total_seconds
        large = run_benchmark(bench, InputSize.CIF, 0).total_seconds
        low, high = FIGURE2_BANDS[slug]
        assert low <= large / small <= high
