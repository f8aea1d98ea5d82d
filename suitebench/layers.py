"""Per-layer probes shared by the workloads' traced runs.

* :func:`kernel_sweep` — each registered kernel's fast path called on its
  CIF equivalence case, the way ``benchmarks/bench_backend_speedup.py``
  times kernels (``equivalence.cases_for`` + ``KernelSpec.implementation``,
  one warm-up call, medians of retained repeats).
* :func:`instrumentation_ladder` — each cell run under a bare
  ``KernelProfiler``, then with ``MetricsRegistry``, then
  ``TraceRecorder``, then ``StackSampler``; each step is a measured delta.
* :func:`persistence_probe` — export write/read, history record and
  regress on suite results.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Sequence, Tuple

from common import median

#: The ladder's rungs, each adding one instrumentation layer to the last.
LADDER = ("profiler", "metrics", "trace", "sampler")

#: Target seconds of ladder runs per cell (its rounds are sized to it).
LADDER_SECONDS = 2.0

#: Target time spent timing one kernel in the sweep (after its warm-up).
SWEEP_SECONDS = 0.2


def kernel_sweep() -> Dict[str, Dict[str, object]]:
    """Standalone fast-path timings of every registered kernel at CIF.

    ``gflops_per_s`` is computed: the kernel's analytic ``spec.work``
    flop count over the measured median time.
    """
    from repro.core import RunStats, load_all_kernels, registered_kernels
    from repro.core.equivalence import cases_for
    from repro.core.types import InputSize

    load_all_kernels()
    out: Dict[str, Dict[str, object]] = {}
    for spec in registered_kernels():
        label, args = cases_for(spec, InputSize.CIF, 0)[0]
        fn = spec.implementation("fast")
        fn(*args)  # warm-up
        samples: List[float] = []
        deadline = time.perf_counter() + SWEEP_SECONDS
        while len(samples) < 5 or (time.perf_counter() < deadline
                                   and len(samples) < 200):
            start = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - start)
        seconds = RunStats.of(samples).median
        flops = spec.work(*args).flops if spec.work is not None else 0.0
        out[spec.name] = {
            "case": label,
            "samples": len(samples),
            "direct_us": seconds * 1e6,
            "gflops_per_s": flops / seconds / 1e9 if seconds > 0 else 0.0,
        }
    return out


def _run_rung(benchmark, workload, rung: str) -> Tuple[float, int]:
    """One app run with instrumentation up to ``rung``: (seconds, calls)."""
    from repro.core.metrics import MetricsRegistry, use_metrics
    from repro.core.profiler import KernelProfiler
    from repro.core.sampling import StackSampler
    from repro.core.tracing import TraceRecorder

    level = LADDER.index(rung)
    registry = MetricsRegistry() if level >= 1 else None
    recorder = TraceRecorder() if level >= 2 else None
    sampler = StackSampler() if level >= 3 else None
    profiler = KernelProfiler(recorder=recorder, metrics=registry)
    if sampler is not None:
        sampler.start()
    try:
        with use_metrics(registry, recorder):
            with profiler.run():
                benchmark.run(workload, profiler)
    finally:
        if sampler is not None:
            sampler.stop()
    calls = sum(profiler.kernel_calls.values())
    if registry is not None:
        calls += sum(work.calls for work in registry.kernel_work.values())
    return profiler.total_seconds, calls


def instrumentation_ladder(cells: Sequence[Tuple[str, str, int]]
                           ) -> Dict[str, object]:
    """Measured cost of each instrumentation layer over ``cells``.

    Each cell first runs once bare (a warm-up that also sizes it), then
    for enough rounds to spend about ``LADDER_SECONDS`` (3 to 25 rounds)
    runs once per rung, rotating which rung goes first so no rung always
    runs on the coldest caches.  Deltas are sums over cells of per-cell
    differences of the fastest run of each rung (host noise only ever
    adds time, and on a 2-vCPU host it adds far more than a rung
    costs), i.e. the cost of one pass over the cells.
    """
    from repro.core.backend import use_backend
    from repro.core.registry import get_benchmark
    from repro.core.types import InputSize

    samples: Dict[Tuple[str, str, int], Dict[str, List[float]]] = {}
    calls: Dict[Tuple[str, str, int], int] = {}
    rounds_run: List[int] = []
    with use_backend("fast"):
        for cell in cells:
            slug, size, variant = cell
            benchmark = get_benchmark(slug)
            workload = benchmark.setup(InputSize[size], variant)
            seconds, _ = _run_rung(benchmark, workload, "profiler")
            rounds = min(25, max(3, math.ceil(
                LADDER_SECONDS / (len(LADDER) * max(seconds, 1e-6)))))
            rounds_run.append(rounds)
            for round_index in range(rounds):
                shift = round_index % len(LADDER)
                for rung in LADDER[shift:] + LADDER[:shift]:
                    seconds, count = _run_rung(benchmark, workload, rung)
                    samples.setdefault(cell, {}).setdefault(
                        rung, []).append(seconds)
                    if rung == "metrics":
                        calls[cell] = count
    fastest = {cell: {rung: min(values) for rung, values in rungs.items()}
               for cell, rungs in samples.items()}

    def step(rung: str, below: str) -> float:
        return 1e3 * sum(m[rung] - m[below] for m in fastest.values())

    metrics_ms = step("metrics", "profiler")
    total_calls = sum(calls.values())
    return {
        "rounds": f"{min(rounds_run)}-{max(rounds_run)}",
        "cells": len(cells),
        "calls_per_pass": total_calls,
        "profiler_ms": 1e3 * sum(m["profiler"] for m in fastest.values()),
        "metrics_ms": metrics_ms,
        "metrics_us_per_call": (1e3 * metrics_ms / total_calls
                                if total_calls else 0.0),
        "trace_ms": step("trace", "metrics"),
        "sampler_ms": step("sampler", "trace"),
    }


def persistence_probe(results: Sequence, out_dir: str,
                      label: str) -> Dict[str, float]:
    """Export, history and regress layers exercised on suite results.

    Each result is written with ``export.result_to_json``, read back with
    ``result_from_json`` and recorded into a fresh history store; every
    later result is then regress-checked against the first.
    """
    from repro.core.export import result_from_json, result_to_json
    from repro.core.history import open_history
    from repro.core.regress import cells_from_result, detect_regressions
    from repro.core.tracing import run_manifest

    os.makedirs(out_dir, exist_ok=True)
    db = os.path.join(out_dir, f"{label}-history.sqlite")
    if os.path.exists(db):
        os.remove(db)
    write_ms: List[float] = []
    read_ms: List[float] = []
    record_ms: List[float] = []
    sizes: List[float] = []
    restored = []
    with open_history(db) as store:
        for index, result in enumerate(results):
            result.manifest = run_manifest(
                argv=["suitebench", label, f"pass-{index}"], backend="fast")
            path = os.path.join(out_dir, f"{label}-pass{index}.json")
            start = time.perf_counter()
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(result_to_json(result))
            write_ms.append(1e3 * (time.perf_counter() - start))
            sizes.append(float(os.path.getsize(path)))
            start = time.perf_counter()
            with open(path, encoding="utf-8") as handle:
                restored.append(result_from_json(handle.read()))
            read_ms.append(1e3 * (time.perf_counter() - start))
            start = time.perf_counter()
            store.record(restored[-1])
            record_ms.append(1e3 * (time.perf_counter() - start))
        rows = len(store.entries())
    regress_ms: List[float] = []
    baseline = cells_from_result(restored[0])
    for candidate in restored[1:]:
        start = time.perf_counter()
        detect_regressions(baseline, cells_from_result(candidate))
        regress_ms.append(1e3 * (time.perf_counter() - start))
    return {
        "export.write_ms": median(write_ms),
        "export.read_ms": median(read_ms),
        "export.bytes": median(sizes),
        "history.record_ms": median(record_ms),
        "history.rows": float(rows),
        "regress.ms": median(regress_ms),
    }
