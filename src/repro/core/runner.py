"""Suite runner: executes applications over sizes and variants.

Drives each :class:`~repro.core.registry.Benchmark` through its synthetic
inputs with a fresh :class:`~repro.core.profiler.KernelProfiler` per run and
collects :class:`~repro.core.types.BenchmarkRun` records.  The reports in
:mod:`repro.core.report` turn those records into the paper's figures.

Measurement robustness (the suite's reason to exist is trustworthy
per-kernel timing):

* ``run_benchmark`` accepts ``warmup`` (discarded runs) and ``repeats``
  (retained runs); the retained samples are aggregated into
  min/median/mean/stddev per total and per kernel
  (:class:`~repro.core.types.AggregatedRun`), and the returned
  :class:`~repro.core.types.BenchmarkRun` carries the medians plus the
  full statistics on its ``stats`` field.
* ``run_suite`` accepts ``jobs``; with ``jobs > 1`` the
  (benchmark, size, variant) grid fans out across a
  ``ProcessPoolExecutor`` with deterministic result ordering.  ``jobs=1``
  is the plain serial loop, and the parallel path falls back to serial
  when process pools are unavailable (restricted environments).
* Both entry points accept an optional
  :class:`~repro.core.tracing.TraceRecorder`; when attached, every kernel
  call and whole-app run emits a span (pool workers record locally and
  their spans are serialized back to the parent recorder).
* Both entry points accept ``backend`` (``"ref"`` or ``"fast"``, see
  :mod:`repro.core.backend`): the loop-faithful reference vs the
  vectorized production path, selected suite-wide for the duration of
  the run (worker processes re-select it locally).  ``None`` keeps the
  process's current selection (``"fast"`` by default).
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .backend import use_backend
from .metrics import MetricsRegistry
from .profiler import KernelProfiler
from .registry import Benchmark, all_benchmarks, get_benchmark
from .sampling import StackSampler, kernel_frame_map
from .tracing import TraceRecorder
from .types import (
    AggregatedRun,
    BenchmarkRun,
    InputSize,
    RunStats,
    ScalingPoint,
    SuiteResult,
)

ALL_SIZES = (InputSize.SQCIF, InputSize.QCIF, InputSize.CIF)

#: Injectable clock type for deterministic tests.
Clock = Callable[[], float]


def _measure_once(
    benchmark: Benchmark,
    workload: object,
    clock: Optional[Clock],
    recorder: Optional[TraceRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[KernelProfiler, dict]:
    """One timed execution of ``benchmark`` on a prepared workload."""
    profiler = KernelProfiler(clock=clock, recorder=recorder,
                              metrics=metrics)
    with profiler.run():
        outputs = benchmark.run(workload, profiler)
    return profiler, dict(outputs)


def run_benchmark(
    benchmark: Benchmark,
    size: InputSize,
    variant: int = 0,
    warmup: int = 0,
    repeats: int = 1,
    clock: Optional[Clock] = None,
    recorder: Optional[TraceRecorder] = None,
    backend: Optional[str] = None,
    sampler: Optional[StackSampler] = None,
) -> BenchmarkRun:
    """Run one application and return its timed record.

    Workload construction (``benchmark.setup``) happens outside the timed
    region, mirroring the original suite's preloaded inputs.  The first
    ``warmup`` executions are discarded (cold caches, allocator churn,
    JIT-warmed numpy paths); the next ``repeats`` executions are retained
    and aggregated.  The returned record's ``total_seconds`` and
    ``kernel_seconds`` are per-cell medians and its ``stats`` field holds
    the full :class:`AggregatedRun`; with the defaults
    (``warmup=0, repeats=1``) the medians are the single cold sample,
    bit-identical to the historical single-shot behavior.

    ``clock`` injects a deterministic time source for tests.  With a
    ``recorder`` attached, every execution (warmup runs included, tagged
    ``phase="warmup"``) emits one span per kernel call plus an app span,
    stamped with the (benchmark, size, variant, repeat) context.

    ``backend`` scopes the dual-backend kernel selection around the
    whole run (setup included, so data-dependent control flow sees
    consistent numerics); the previous selection is restored on return.

    Every measured repeat additionally feeds a per-cell
    :class:`~repro.core.metrics.MetricsRegistry` (warmup runs excluded),
    which the profiler's run scopes for the dispatch layer: registered
    kernels with analytic work models record calls, seconds, flops and
    bytes there.  The registry's serialized payload rides on the
    returned record's ``metrics`` field.

    ``sampler`` optionally attaches a
    :class:`~repro.core.sampling.StackSampler`: it runs across the
    measured repeats only (warmup excluded, matching the metrics
    window), and its serialized profile rides on the returned record's
    ``sampling`` field.  The sampler watches the thread that created it,
    so it is meaningful on this serial path only — ``run_suite``'s
    process-pool fan-out does not take one.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    registry = MetricsRegistry()
    with use_backend(backend):
        workload = benchmark.setup(size, variant)
        for index in range(warmup):
            if recorder is not None:
                recorder.set_context(benchmark=benchmark.slug, size=size.name,
                                     variant=variant, repeat=index,
                                     phase="warmup")
            _measure_once(benchmark, workload, clock, recorder)

        total_samples: List[float] = []
        kernel_samples: dict = {}
        kernel_calls: dict = {}
        outputs: dict = {}
        if sampler is not None:
            sampler.start()
        try:
            for index in range(repeats):
                if recorder is not None:
                    recorder.set_context(benchmark=benchmark.slug,
                                         size=size.name,
                                         variant=variant, repeat=index,
                                         phase="measure")
                profiler, outputs = _measure_once(benchmark, workload,
                                                  clock, recorder,
                                                  metrics=registry)
                total_samples.append(profiler.total_seconds)
                seconds = profiler.kernel_seconds
                for name, value in seconds.items():
                    kernel_samples.setdefault(name, []).append(value)
                if index == 0:
                    kernel_calls = profiler.kernel_calls
                elif profiler.kernel_calls != kernel_calls:
                    warnings.warn(
                        f"{benchmark.slug}@{size.name} variant {variant}: "
                        "kernel call counts differ between repeats; keeping "
                        "the first run's",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        finally:
            if sampler is not None:
                sampler.stop()
    # A kernel observed in only some repeats (data-dependent path) gets
    # zero-second samples for the runs that skipped it, so every kernel's
    # RunStats spans all repeats.
    for name, samples in kernel_samples.items():
        if len(samples) < repeats:
            samples.extend([0.0] * (repeats - len(samples)))

    stats = AggregatedRun(
        benchmark=benchmark.slug,
        size=size,
        variant=variant,
        warmup=warmup,
        total=RunStats.of(total_samples),
        kernels={name: RunStats.of(s) for name, s in kernel_samples.items()},
        kernel_calls=dict(kernel_calls),
    )
    return BenchmarkRun(
        benchmark=benchmark.slug,
        size=size,
        variant=variant,
        total_seconds=stats.total.median,
        kernel_seconds={k: s.median for k, s in stats.kernels.items()},
        kernel_calls=dict(kernel_calls),
        outputs=outputs,
        stats=stats,
        metrics=registry.to_dict(),
        sampling=(sampler.profile.to_dict() if sampler is not None
                  else None),
    )


def run_cell(
    slug: str,
    size_name: str,
    variant: int = 0,
    warmup: int = 0,
    repeats: int = 1,
    clock: Optional[Clock] = None,
    recorder: Optional[TraceRecorder] = None,
    backend: Optional[str] = None,
) -> BenchmarkRun:
    """Cell-addressable execution: one grid cell by plain string keys.

    The suite's unit of distribution — pool workers, shard executors and
    remote drivers all address work as
    ``(slug, size name, variant, backend)`` because those keys survive
    pickling, JSON and command lines, unlike :class:`Benchmark` or
    :class:`InputSize` objects.  Everything else is
    :func:`run_benchmark` unchanged.  Raises ``KeyError`` for an unknown
    slug or size name.
    """
    return run_benchmark(
        get_benchmark(slug),
        InputSize[size_name],
        variant,
        warmup=warmup,
        repeats=repeats,
        clock=clock,
        recorder=recorder,
        backend=backend,
    )


def _run_cell(
    slug: str,
    size_name: str,
    variant: int,
    warmup: int,
    repeats: int,
    trace: bool = False,
    track_memory: bool = False,
    backend: Optional[str] = None,
) -> Tuple[BenchmarkRun, Optional[List[dict]]]:
    """Worker entry point: one grid cell, addressed by picklable keys.

    Module-level (not a closure) so ``ProcessPoolExecutor`` can pickle it;
    the benchmark registry re-loads lazily inside each worker process.
    With ``trace=True`` the cell records into a local
    :class:`TraceRecorder` and ships its spans back as plain dictionaries
    for the parent recorder to absorb.  ``backend`` is re-selected inside
    the worker (backend state is per-process, not inherited).
    """
    recorder = TraceRecorder(track_memory=track_memory) if trace else None
    run = run_cell(
        slug,
        size_name,
        variant,
        warmup=warmup,
        repeats=repeats,
        recorder=recorder,
        backend=backend,
    )
    # Outputs may hold arbitrarily large (or unpicklable) application
    # objects; the suite reports only consume timing, so drop them before
    # shipping results back over the pipe.
    run.outputs = {}
    spans = recorder.to_serialized() if recorder is not None else None
    if recorder is not None:
        recorder.finish()
    return run, spans


def run_suite(
    slugs: Optional[Sequence[str]] = None,
    sizes: Iterable[InputSize] = ALL_SIZES,
    variants: Sequence[int] = (0,),
    warmup: int = 0,
    repeats: int = 1,
    jobs: int = 1,
    recorder: Optional[TraceRecorder] = None,
    backend: Optional[str] = None,
    sample_interval: float = 0.0,
) -> SuiteResult:
    """Run the selected applications over ``sizes`` x ``variants``.

    ``slugs=None`` runs the whole suite.  The default single variant keeps
    interactive runs fast; the paper's 65-vector sweep corresponds to
    ``variants=range(5)``.

    ``jobs > 1`` fans the (benchmark, size, variant) grid across worker
    processes.  Result ordering is deterministic and identical to the
    serial nested-loop order regardless of which worker finishes first.
    If a process pool cannot be created or breaks (sandboxed platforms,
    missing semaphores), the runner warns and falls back to the serial
    path rather than failing the measurement.

    With a ``recorder``, every run emits per-kernel-call spans.  On the
    parallel path each worker records locally and its spans are shipped
    back and absorbed in grid order, one ``track`` lane per cell (each
    worker has its own t=0).

    ``backend`` selects the dual-backend kernel implementations for the
    whole grid — serial cells run inside a scoped selection, parallel
    workers re-select it per process.

    ``sample_interval`` > 0 stack-samples every cell's measured repeats
    (a :class:`StackSampler` mapped to the app's kernels), so each run
    carries a ``sampling`` payload.  The sampler watches its own thread,
    so sampling needs ``jobs=1``.
    """
    if sample_interval > 0 and jobs > 1:
        raise ValueError("stack sampling needs jobs=1, got "
                         f"jobs={jobs}")
    if slugs is None:
        benchmarks = all_benchmarks()
    else:
        benchmarks = [get_benchmark(slug) for slug in slugs]
    sizes = list(sizes)
    grid = [
        (benchmark, size, variant)
        for benchmark in benchmarks
        for size in sizes
        for variant in variants
    ]
    result = SuiteResult()
    if jobs > 1 and len(grid) > 1:
        runs = _run_grid_parallel(grid, warmup, repeats, jobs,
                                  trace=recorder is not None,
                                  track_memory=recorder is not None
                                  and recorder.track_memory,
                                  backend=backend)
        if runs is not None:
            for index, (run, spans) in enumerate(runs):
                result.runs.append(run)
                if recorder is not None and spans:
                    recorder.absorb(spans, track=index)
            return result
        warnings.warn(
            "process pool unavailable; falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
    for benchmark, size, variant in grid:
        sampler = (StackSampler(sample_interval,
                                frame_map=kernel_frame_map(benchmark.slug))
                   if sample_interval > 0 else None)
        result.runs.append(
            run_benchmark(benchmark, size, variant,
                          warmup=warmup, repeats=repeats, recorder=recorder,
                          backend=backend, sampler=sampler)
        )
    return result


def _run_grid_parallel(
    grid: Sequence[Tuple[Benchmark, InputSize, int]],
    warmup: int,
    repeats: int,
    jobs: int,
    trace: bool = False,
    track_memory: bool = False,
    backend: Optional[str] = None,
) -> Optional[List[Tuple[BenchmarkRun, Optional[List[dict]]]]]:
    """Execute the grid on a process pool; ``None`` if the pool fails."""
    import concurrent.futures

    max_workers = min(jobs, len(grid))
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers
        ) as pool:
            futures = [
                pool.submit(_run_cell, benchmark.slug, size.name, variant,
                            warmup, repeats, trace, track_memory, backend)
                for benchmark, size, variant in grid
            ]
            # Collect in submission order: deterministic results no matter
            # the completion order of the workers.
            return [future.result() for future in futures]
    except (OSError, ImportError,
            concurrent.futures.process.BrokenProcessPool):
        return None


def scaling_series(result: SuiteResult, slug: str) -> List[ScalingPoint]:
    """Figure 2 series for one application: relative time vs relative size.

    Times are normalized to the SQCIF median, matching the paper's
    "times increase in execution time" y-axis.  When SQCIF was not part
    of the run, the series falls back to normalizing against the smallest
    size present (with a warning) instead of silently returning nothing.
    """
    present = [
        size for size in ALL_SIZES
        if result.median_total(slug, size) is not None
    ]
    if not present:
        return []
    base_size = present[0]
    if base_size is not InputSize.SQCIF:
        warnings.warn(
            f"{slug}: no SQCIF runs to normalize against; normalizing "
            f"Figure 2 to the smallest size present ({base_size.name})",
            RuntimeWarning,
            stacklevel=2,
        )
    base = result.median_total(slug, base_size)
    if base is None or base <= 0:
        warnings.warn(
            f"{slug}: cannot normalize Figure 2 — the {base_size.name} base "
            f"median is {base!r} (zero-duration or fake-clock run?)",
            RuntimeWarning,
            stacklevel=2,
        )
        return []
    points = []
    for size in present:
        median = result.median_total(slug, size)
        if median is None:
            continue
        points.append(
            ScalingPoint(
                benchmark=slug,
                relative_size=size.relative,
                relative_time=median / base,
            )
        )
    return points
