"""Unit tests for core value types."""

import pytest

from repro.core.types import (
    NON_KERNEL_WORK,
    VARIANTS_PER_SIZE,
    BenchmarkRun,
    InputSize,
    KernelSample,
    SuiteResult,
)


class TestInputSize:
    def test_dimensions_match_paper(self):
        assert InputSize.SQCIF.shape == (96, 128)
        assert InputSize.QCIF.shape == (144, 176)
        assert InputSize.CIF.shape == (288, 352)

    def test_vga_extends_the_scale(self):
        # VGA is the opt-in extension beyond the paper's trio: 25x
        # the pixels of SQCIF, consistent with the relative labels.
        assert InputSize.VGA.shape == (480, 640)
        assert InputSize.VGA.pixels // InputSize.SQCIF.pixels == 25

    def test_relative_labels(self):
        assert [s.relative for s in InputSize] == [1, 2, 4, 25]

    def test_pixel_doubling(self):
        # "QCIF is roughly 2x larger than SQCIF, and CIF is roughly 2x
        # larger than QCIF" (paper, section III-A).
        ratio1 = InputSize.QCIF.pixels / InputSize.SQCIF.pixels
        ratio2 = InputSize.CIF.pixels / InputSize.QCIF.pixels
        assert 1.8 < ratio1 < 2.3
        assert 3.5 < ratio2 < 4.5  # CIF doubles both dimensions of QCIF

    def test_five_variants(self):
        assert VARIANTS_PER_SIZE == 5


class TestBenchmarkRun:
    def _run(self, total=10.0, kernels=None):
        return BenchmarkRun(
            benchmark="demo",
            size=InputSize.SQCIF,
            variant=0,
            total_seconds=total,
            kernel_seconds=kernels or {},
        )

    def test_occupancy_sums_to_100(self):
        run = self._run(kernels={"A": 4.0, "B": 5.0})
        shares = run.occupancy()
        assert sum(shares.values()) == pytest.approx(100.0)
        assert shares["A"] == pytest.approx(40.0)
        assert shares[NON_KERNEL_WORK] == pytest.approx(10.0)

    def test_occupancy_zero_total(self):
        run = self._run(total=0.0)
        assert run.occupancy() == {NON_KERNEL_WORK: 100.0}

    def test_overattribution_clamps_residual(self):
        run = self._run(total=1.0, kernels={"A": 1.2})
        assert run.occupancy()[NON_KERNEL_WORK] == 0.0


class TestKernelSample:
    def test_merge(self):
        a = KernelSample("k", seconds=1.0, calls=2)
        a.merge(KernelSample("k", seconds=0.5, calls=1))
        assert a.seconds == pytest.approx(1.5)
        assert a.calls == 3

    def test_merge_name_mismatch(self):
        with pytest.raises(ValueError):
            KernelSample("a").merge(KernelSample("b"))


class TestSuiteResult:
    def _result(self):
        result = SuiteResult()
        for variant, total in ((0, 1.0), (1, 3.0)):
            result.runs.append(
                BenchmarkRun(
                    benchmark="demo",
                    size=InputSize.SQCIF,
                    variant=variant,
                    total_seconds=total,
                    kernel_seconds={"A": total / 2.0},
                )
            )
        return result

    def test_mean_occupancy(self):
        shares = self._result().mean_occupancy("demo", InputSize.SQCIF)
        assert shares["A"] == pytest.approx(50.0)
        assert shares[NON_KERNEL_WORK] == pytest.approx(50.0)

    def test_benchmarks_preserves_order(self):
        result = self._result()
        result.runs.append(
            BenchmarkRun(
                benchmark="other",
                size=InputSize.SQCIF,
                variant=0,
                total_seconds=1.0,
            )
        )
        assert result.benchmarks() == ["demo", "other"]
