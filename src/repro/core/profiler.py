"""Kernel-level profiler used to attribute application runtime to kernels.

SD-VBS characterizes each application by the share of runtime spent in each
named kernel (Figure 3).  The original C suite did this with external
profilers; here every application threads a :class:`KernelProfiler` through
its kernels and wraps each kernel body in ``with profiler.kernel("Name")``.

Nested kernels are attributed *exclusively*: time spent inside an inner
named kernel is subtracted from the enclosing kernel, so per-kernel shares
sum to at most 100% and the remainder is the paper's "NonKernelWork".
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional

from .metrics import MetricsRegistry, use_metrics
from .tracing import CATEGORY_APP, CATEGORY_KERNEL, TraceRecorder
from .types import KernelSample


class KernelProfiler:
    """Accumulates exclusive wall time per named kernel.

    The profiler is re-entrant: the same kernel name may appear at several
    nesting depths and its samples are merged.  A ``clock`` callable can be
    injected for deterministic tests.

    With a :class:`~repro.core.tracing.TraceRecorder` attached, every
    kernel call additionally emits one span (and ``start``/``stop`` emit a
    whole-application span) into the recorder.  Without one, the hot path
    pays a single ``is None`` check and allocates nothing extra.  A
    :class:`~repro.core.metrics.MetricsRegistry` attached as ``metrics``
    is the registry :meth:`run` puts in scope (with the recorder as span
    annotator) for the dispatched kernels' work accounting; the probes
    themselves write nothing into it, since the run record already
    carries their call counts and seconds.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 recorder: Optional[TraceRecorder] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._clock: Callable[[], float] = clock or time.perf_counter
        self._samples: Dict[str, KernelSample] = {}
        # Stack of [kernel name, accumulated child time] for the active
        # nest of ``kernel`` contexts.
        self._stack: List[List[object]] = []
        self._total_start: Optional[float] = None
        self._total_seconds: float = 0.0
        self._recorder: Optional[TraceRecorder] = recorder
        self._metrics: Optional[MetricsRegistry] = metrics
        self._app_seq: Optional[int] = None

    @property
    def recorder(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, if any."""
        return self._recorder

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The registry :meth:`run` scopes for dispatched kernels, if any."""
        return self._metrics

    # ------------------------------------------------------------------
    # Whole-application timing

    def start(self) -> None:
        """Begin timing the whole application run."""
        if self._total_start is not None:
            raise RuntimeError("profiler already started")
        self._total_start = self._clock()
        recorder = self._recorder
        if recorder is not None:
            self._app_seq = recorder.span_open(
                "app", CATEGORY_APP, self._total_start
            )

    def stop(self) -> float:
        """Stop whole-application timing and return total elapsed seconds."""
        if self._total_start is None:
            raise RuntimeError("profiler not started")
        end = self._clock()
        elapsed = end - self._total_start
        self._total_seconds += elapsed
        self._total_start = None
        recorder = self._recorder
        if recorder is not None and self._app_seq is not None:
            recorder.span_close(self._app_seq, end)
            self._app_seq = None
        return self._total_seconds

    @contextmanager
    def run(self) -> Iterator["KernelProfiler"]:
        """Context manager wrapping :meth:`start`/:meth:`stop`.

        With a ``metrics`` registry attached, the run also scopes it
        (and the recorder) as the active registry for dispatched calls.
        """
        scope = (nullcontext() if self._metrics is None
                 else use_metrics(self._metrics, self._recorder))
        with scope:
            self.start()
            try:
                yield self
            finally:
                self.stop()

    # ------------------------------------------------------------------
    # Kernel attribution

    @contextmanager
    def kernel(self, name: str) -> Iterator[None]:
        """Attribute the wall time of the enclosed block to ``name``.

        Time spent in nested ``kernel`` blocks is excluded (charged to the
        inner kernel only).
        """
        start = self._clock()
        recorder = self._recorder
        seq = -1
        if recorder is not None:
            seq = recorder.span_open(name, CATEGORY_KERNEL, start)
        frame: List[object] = [name, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self._clock()
            elapsed = end - start
            self._stack.pop()
            child_time = float(frame[1])  # accumulated by nested kernels
            exclusive = max(0.0, elapsed - child_time)
            sample = self._samples.setdefault(name, KernelSample(name))
            sample.seconds += exclusive
            sample.calls += 1
            if self._stack:
                parent = self._stack[-1]
                parent[1] = float(parent[1]) + elapsed
            if recorder is not None:
                recorder.span_close(seq, end, self_duration=exclusive)

    # ------------------------------------------------------------------
    # Results

    @property
    def total_seconds(self) -> float:
        return self._total_seconds

    @property
    def kernel_seconds(self) -> Dict[str, float]:
        return {name: s.seconds for name, s in self._samples.items()}

    @property
    def kernel_calls(self) -> Dict[str, int]:
        return {name: s.calls for name, s in self._samples.items()}

    def reset(self) -> None:
        """Discard all samples and timing state."""
        self._samples.clear()
        self._stack.clear()
        self._total_start = None
        self._total_seconds = 0.0
        self._app_seq = None
        recorder = self._recorder
        if recorder is not None:
            # Close any spans this profiler left open so the recorder's
            # nesting stack stays consistent for subsequent runs.
            recorder.abandon_open(self._clock())


class NullProfiler(KernelProfiler):
    """Profiler that records nothing; used when callers pass ``None``.

    Keeps the kernel annotations in application code free of ``if`` guards.
    Because :func:`ensure_profiler` hands out one shared instance, every
    inherited mutating path (``start``/``stop``/``run``/``kernel``/
    ``reset``) is overridden to a stateless no-op — concurrent users can
    never observe each other through it.
    """

    @contextmanager
    def kernel(self, name: str) -> Iterator[None]:  # noqa: D102
        yield

    def start(self) -> None:  # noqa: D102
        pass

    def stop(self) -> float:  # noqa: D102
        return 0.0

    @contextmanager
    def run(self) -> Iterator["KernelProfiler"]:  # noqa: D102
        yield self

    def reset(self) -> None:  # noqa: D102
        pass


def measure_probe_overhead(
    probes: int = 2000,
    passes: int = 3,
    clock: Optional[Callable[[], float]] = None,
) -> Dict[str, float]:
    """Calibrate the cost of one ``with profiler.kernel(...)`` probe.

    Times ``probes`` empty kernel blocks against an equally long empty
    loop and charges the difference to the probes; the best of
    ``passes`` repetitions is kept (scheduler noise only ever inflates
    the estimate).  The result is what the instrumented Figure-3 numbers
    silently include per kernel call — the manifest records it
    (``instrumentation`` block) and ``sdvbs run`` warns when the
    per-cell total exceeds its threshold.

    ``clock`` injects a deterministic time source for tests (it drives
    both the measurement and the profiler under test).
    """
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    clock = clock or time.perf_counter
    best: Optional[float] = None
    calibration = 0.0
    for _ in range(passes):
        profiler = KernelProfiler(clock=clock)
        start = clock()
        for _index in range(probes):
            with profiler.kernel("calibration"):
                pass
        probed = clock() - start
        start = clock()
        for _index in range(probes):
            pass
        baseline = clock() - start
        calibration += probed + baseline
        per_probe = max(0.0, (probed - baseline) / probes)
        if best is None or per_probe < best:
            best = per_probe
    return {
        "probes": float(probes),
        "passes": float(passes),
        "seconds_per_probe": float(best or 0.0),
        "calibration_seconds": calibration,
    }


#: The shared no-op profiler handed out by :func:`ensure_profiler`.  A
#: single module-level instance is safe because NullProfiler holds no
#: mutable state reachable through its public API.
_NULL_PROFILER = NullProfiler()


def ensure_profiler(profiler: Optional[KernelProfiler]) -> KernelProfiler:
    """Return ``profiler`` or the shared no-op profiler when ``None``."""
    if profiler is None:
        return _NULL_PROFILER
    return profiler
