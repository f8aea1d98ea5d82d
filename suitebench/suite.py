"""``suite-sqcif`` and ``suite-cif``: the suite's apps through ``run_suite``.

A pass runs every app of the workload once on one input variant, each
app as one single-cell ``run_suite(jobs=1)`` call on the fast backend —
the call a served ``run`` job makes — in a seeded order.  A pass is the
workload's job: running the whole suite once, as ``sdvbs run`` does.
Pass ``k`` uses variant ``(seed + k) mod 5``, so a run covers every
variant the suite ships and seeds differ in where the rotation starts.
Face is the exception: its set-up trains a cascade per variant for
about 5 s, so every pass runs face on one variant drawn by the seed.

The window is a whole number of passes: the first pass to end after
``--seconds`` ends it.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from catalog import SUITE_SLUGS
from checks import CellLedger
from common import geomean, median, percentile

VARIANTS = 5
ONE_VARIANT = ("face",)

WORKLOADS: Dict[str, Dict[str, object]] = {
    "suite-sqcif": {
        "size": "SQCIF",
        "apps": list(SUITE_SLUGS),
        "why": ("all nine apps at SQCIF: per-call dispatch and "
                "instrumentation cost is largest here, and localization "
                "and segmentation are pure-Python app code"),
    },
    # Localization and segmentation make <= 3 dispatched kernel calls and
    # would spend 4.7 s per pass at CIF, hiding any kernel change.
    "suite-cif": {
        "size": "CIF",
        "apps": ["disparity", "tracking", "sift", "svm", "face", "stitch",
                 "texture"],
        "why": ("the seven kernel-dispatching apps at CIF, where "
                "dispatched fast kernels take 51-64% of disparity, "
                "tracking and sift time"),
    },
}

Cell = Tuple[str, str, int]


def pass_cells(workload: str, seed: int, index: int) -> List[Cell]:
    """The cells of pass ``index``, in the order the pass runs them."""
    spec = WORKLOADS[workload]
    variant = (seed + index) % VARIANTS
    cells = [(slug, str(spec["size"]),
              seed % VARIANTS if slug in ONE_VARIANT else variant)
             for slug in spec["apps"]]  # type: ignore[union-attr]
    random.Random(f"{seed}:{index}").shuffle(cells)
    return cells


def all_cells(workload: str, seed: int) -> List[Cell]:
    """Every cell a run can reach (one rotation of the variants)."""
    return sorted({cell for index in range(VARIANTS)
                   for cell in pass_cells(workload, seed, index)})


def definition(workload: str, seed: int) -> Dict[str, object]:
    spec = WORKLOADS[workload]
    return {
        "size": spec["size"],
        "apps": spec["apps"],
        "variants": f"pass k runs variant (seed + k) mod 5; face runs "
                    f"variant {seed % VARIANTS}",
        "backend": "fast",
        "entry_point": "repro.core.runner.run_suite(jobs=1), one cell a call",
        "job": "one pass: every app once",
        "why": spec["why"],
    }


def setup(workload: str, seed: int, spans) -> Dict[str, float]:
    """Registry, kernel registration and every cell's ``Benchmark.setup``.

    The first ``face`` setup per variant trains its cascade (seconds);
    later setups in this process reuse it, as ``run_suite`` will.
    """
    from repro.core import load_all_kernels
    from repro.core.registry import get_benchmark
    from repro.core.types import InputSize

    root = spans.open("setup")
    start = time.perf_counter()
    seq = spans.open("setup.registry")
    load_all_kernels()
    for slug in WORKLOADS[workload]["apps"]:  # type: ignore[union-attr]
        get_benchmark(slug)
    spans.close(seq)
    for slug, size, variant in all_cells(workload, seed):
        seq = spans.open(f"setup.{slug}")
        get_benchmark(slug).setup(InputSize[size], variant)
        spans.close(seq)
    spans.close(root)
    return {"runner.setup_ms": 1e3 * (time.perf_counter() - start)}


class SuiteLoop:
    """Runs passes and keeps every cell run and pass time."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.ledger = CellLedger()
        #: every cell run: (cell, traced, wall seconds, BenchmarkRun)
        self.records: List[Tuple[Cell, bool, float, object]] = []
        #: every pass: (traced, wall seconds, cell runs that completed)
        self.passes: List[Tuple[bool, float, List[object]]] = []

    def run_for(self, seconds: float, recorder=None, spans=None,
                alternate: bool = False) -> float:
        """Run whole passes for ``seconds``; returns the window's wall time.

        With ``alternate`` every other pass records into ``recorder``
        (with benchmark-side ``run_suite`` spans), so traced and untraced
        passes interleave in one window; at least one of each runs.
        """
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(self.passes) < (2 if alternate else 1)):
            traced = alternate and len(self.passes) % 2 == 1
            self.run_pass(recorder if traced else None,
                          spans if traced else None)
        return time.perf_counter() - start

    def run_pass(self, recorder=None, spans=None) -> None:
        cells = pass_cells(self.workload, self.seed, len(self.passes))
        start = time.perf_counter()
        runs = [run for run in (self._run_cell(cell, recorder, spans)
                                for cell in cells) if run is not None]
        self.passes.append((recorder is not None,
                            time.perf_counter() - start, runs))

    def _run_cell(self, cell: Cell, recorder, spans):
        from repro.core.runner import run_suite
        from repro.core.types import InputSize

        slug, size, variant = cell
        name = f"{slug}@{size}:v{variant}"
        seq = spans.open("run_suite") if spans is not None else -1
        start = time.perf_counter()
        try:
            result = run_suite([slug], sizes=[InputSize[size]],
                               variants=[variant], jobs=1,
                               recorder=recorder, backend="fast")
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            self.ledger.fail(name, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            wall = time.perf_counter() - start
            if spans is not None:
                spans.close(seq)
        run = result.runs[0]
        self.ledger.record(name, slug, size, run.outputs)
        self.records.append((cell, recorder is not None, wall, run))
        return run

    def per_cell(self, value, traced: bool = False) -> Dict[Cell, float]:
        """Median of ``value(wall, run)`` per cell over its runs."""
        samples: Dict[Cell, List[float]] = {}
        for cell, was_traced, wall, run in self.records:
            if was_traced == traced:
                samples.setdefault(cell, []).append(value(wall, run))
        return {cell: median(values) for cell, values in samples.items()}

    def pass_walls(self, traced: bool = False) -> List[float]:
        return [wall for was_traced, wall, _ in self.passes
                if was_traced == traced]

    def end_to_end(self) -> Dict[str, float]:
        walls = self.pass_walls()
        runs = sum(len(r) for traced, _, r in self.passes if not traced)
        return {
            "runs_per_s": runs / sum(walls),
            "geomean_run_ms": 1e3 * geomean(self.per_cell(
                lambda wall, run: run.total_seconds).values()),
            "job_p50_ms": 1e3 * percentile(walls, 50),
            "job_p90_ms": 1e3 * percentile(walls, 90),
            "jobs_per_s": len(walls) / sum(walls),
        }

    def layer_metrics(self) -> Dict[str, float]:
        """App, runner and tracing metrics (apps from untraced passes)."""
        from repro.core.types import NON_KERNEL_WORK

        out: Dict[str, float] = {}
        by_app: Dict[str, List[object]] = {}
        for _, traced, _, run in self.records:
            if not traced:
                by_app.setdefault(run.benchmark, []).append(run)
        for slug, runs in by_app.items():
            out[f"app.{slug}.run_ms"] = 1e3 * median(
                [r.total_seconds for r in runs])
            out[f"app.{slug}.nonkernel_pct"] = median(
                [r.occupancy()[NON_KERNEL_WORK] for r in runs])
        out["runner.overhead_ms"] = 1e3 * median([
            wall - sum(run.total_seconds for run in runs)
            for traced, wall, runs in self.passes if not traced])
        untraced = median(self.pass_walls())
        out["trace.overhead_pct"] = 100.0 * (
            median(self.pass_walls(traced=True)) / untraced - 1.0)
        return out

    def dispatch_per_pass(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Registered-kernel calls and seconds per pass (median of passes)."""
        per_pass: List[Dict[str, Tuple[float, float]]] = []
        for _, _, runs in self.passes:
            totals: Dict[str, Tuple[float, float]] = {}
            for run in runs:
                for name, work in (run.metrics or {}).get("kernels",
                                                          {}).items():
                    calls, seconds = totals.get(name, (0.0, 0.0))
                    totals[name] = (calls + work["calls"],
                                    seconds + work["seconds"])
            per_pass.append(totals)
        names = {name for totals in per_pass for name in totals}
        return ({n: median([t.get(n, (0.0, 0.0))[0] for t in per_pass])
                 for n in names},
                {n: median([t.get(n, (0.0, 0.0))[1] for t in per_pass])
                 for n in names})

    def pass_results(self):
        """Each pass's runs as one ``SuiteResult``."""
        from repro.core.types import SuiteResult

        results = []
        for _, _, runs in self.passes:
            result = SuiteResult()
            result.runs = list(runs)
            results.append(result)
        return results
