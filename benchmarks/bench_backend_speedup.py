"""Backend speedup study: loop-faithful ``ref`` vs vectorized ``fast``.

For every dual-backend kernel registered in :mod:`repro.core.backend`,
this module times both implementations on the same deterministic SQCIF
workload (the equivalence harness's first case), aggregates the repeats
into :class:`~repro.core.types.RunStats`, and reports the median
ref/fast speedup per kernel with the suite's noise convention: a row is
flagged ``within noise`` when the runtime gap does not exceed twice the
combined measurement stddev (the same significance test as
``sdvbs regress``).

The rendered table lands in ``results/backend_speedup.txt``; the paper's
hotspot claim is pinned by asserting at least three Figure-3 hotspot
kernels clear a 5x median speedup.
"""

from typing import Dict, List, Tuple

import pytest

from repro.core import RunStats, load_all_kernels, registered_kernels
from repro.core.equivalence import cases_for
from repro.core.types import InputSize

load_all_kernels()

#: Kernels whose apps dominate Figure 3's occupancy bars (SSD and the
#: integral image carry disparity; convolution carries the imgproc
#: front-ends of tracking/sift; the eigensolve carries tracking; Gram
#: construction carries svm).
HOTSPOT_KERNELS = (
    "disparity.ssd",
    "imgproc.integral_image",
    "imgproc.convolve2d",
    "imgproc.convolve_rows",
    "tracking.min_eigenvalue",
    "svm.kernel_matrix",
)

REF_REPEATS = 3
FAST_REPEATS = 7

KERNEL_NAMES = tuple(spec.name for spec in registered_kernels())

#: kernel name -> (case label, ref stats, fast stats), filled per test.
MEASURED: Dict[str, Tuple[str, RunStats, RunStats]] = {}


def _time_repeats(fn, args: tuple, repeats: int) -> RunStats:
    import time

    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
    return RunStats.of(samples)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_backend_speedup(benchmark, name):
    spec = next(s for s in registered_kernels() if s.name == name)
    label, args = cases_for(spec, InputSize.SQCIF, 0)[0]
    ref_fn = spec.implementation("ref")
    fast_fn = spec.implementation("fast")

    def measure() -> Tuple[RunStats, RunStats]:
        # One warmup call per side, then the retained repeats.
        ref_fn(*args)
        fast_fn(*args)
        return (
            _time_repeats(ref_fn, args, REF_REPEATS),
            _time_repeats(fast_fn, args, FAST_REPEATS),
        )

    ref_stats, fast_stats = benchmark.pedantic(
        measure, rounds=1, iterations=1, warmup_rounds=0
    )
    MEASURED[name] = (label, ref_stats, fast_stats)
    assert ref_stats.median > 0.0
    assert fast_stats.median > 0.0


def _render(measured: Dict[str, Tuple[str, RunStats, RunStats]]) -> str:
    header = (
        f"{'Kernel':<26} {'Case (SQCIF)':<18} {'ref ms':>9} {'fast ms':>9} "
        f"{'speedup':>9} {'verdict':>14}"
    )
    lines = [
        "Backend speedup: loop-faithful ref vs vectorized fast "
        f"(repeats: ref={REF_REPEATS}, fast={FAST_REPEATS}, medians)",
        "=" * len(header),
        header,
        "-" * len(header),
    ]
    for name in sorted(measured):
        label, ref_stats, fast_stats = measured[name]
        speedup = ref_stats.median / fast_stats.median
        noise = (ref_stats.stddev ** 2 + fast_stats.stddev ** 2) ** 0.5
        delta = abs(ref_stats.median - fast_stats.median)
        verdict = "significant" if delta > 2.0 * noise else "within noise"
        lines.append(
            f"{name:<26} {label:<18} {ref_stats.median * 1e3:>9.2f} "
            f"{fast_stats.median * 1e3:>9.2f} {speedup:>8.1f}x "
            f"{verdict:>14}"
        )
    lines.append("-" * len(header))
    hot = [
        name for name in HOTSPOT_KERNELS
        if name in measured
        and measured[name][1].median / measured[name][2].median >= 5.0
    ]
    lines.append(
        f"Figure-3 hotspot kernels with >=5x median speedup: "
        f"{len(hot)}/{len(HOTSPOT_KERNELS)} ({', '.join(hot)})"
    )
    return "\n".join(lines)


def test_backend_speedup_render(benchmark, artifacts):
    assert len(MEASURED) == len(KERNEL_NAMES), "run the full module first"
    text = benchmark(_render, MEASURED)
    artifacts.add("backend_speedup", text)
    hotspot_wins = sum(
        1
        for name in HOTSPOT_KERNELS
        if MEASURED[name][1].median / MEASURED[name][2].median >= 5.0
    )
    # The acceptance bar: vectorization buys >=5x on at least three of
    # the Figure-3 hotspot kernels.
    assert hotspot_wins >= 3, _render(MEASURED)
