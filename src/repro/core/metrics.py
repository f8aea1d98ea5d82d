"""Work-accounting metrics: counters, histograms, kernel work models.

The paper characterizes SD-VBS by *time* (Figures 2/3) and by abstract
dataflow *operations* (Table IV), but speedup studies on these kernels
(Schwambach et al., arXiv:1502.07446) need the bridge between the two:
how many arithmetic operations and memory bytes a kernel actually moves
for a given input shape, and therefore what GFLOP/s, GB/s and
arithmetic intensity an implementation achieves.  This module is that
bridge:

* :class:`MetricsRegistry` — a lightweight in-process sink for counters
  and histograms.  :class:`~repro.core.profiler.KernelProfiler`
  and :class:`~repro.core.tracing.TraceRecorder` feed it when one is
  attached, and the dual-backend dispatcher records *work* into it.
* :class:`WorkEstimate` / *work models* — every kernel registered in
  :mod:`repro.core.backend` can carry an analytic model mapping its call
  arguments (shapes only; values are never read) to flop and byte
  counts.  The dispatcher evaluates the model per call and accumulates
  per-kernel :class:`KernelWork` totals, from which achieved GFLOP/s,
  GB/s and flop/byte arithmetic intensity follow.
* :func:`use_metrics` — scoped selection of the process-wide active
  registry (mirroring :func:`repro.core.backend.use_backend`), so the
  dispatcher needs no threading of arguments through application code.
* :func:`analytic_work` — evaluate a kernel's work model on the
  deterministic equivalence-case inputs at a given
  :class:`~repro.core.types.InputSize`, without running the kernel;
  this powers the work-model table of ``sdvbs table4`` and KERNELS.md.

Byte counts follow the roofline convention: each input operand is read
once and each output written once (8 bytes per float64 element), i.e.
compulsory traffic, not cache-level traffic.  Flop counts tally the
arithmetic of the loop nest (one add/sub/mul/div/sqrt/exp = 1 flop).
Both are *models* — documented, deterministic functions of shape — so
recorded intensities are comparable across hosts and backends.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: Bytes per element for the suite's float64 arrays.
FLOAT_BYTES = 8


class LogHistogram:
    """Bounded log-bucketed histogram with interpolated percentiles.

    HdrHistogram-style: values are recorded into fixed geometrically
    spaced buckets covering ``[low, high)`` with ``buckets_per_decade``
    buckets per factor of 10, so memory is O(buckets) no matter how many
    observations arrive — the fix for the old unbounded raw-sample
    lists.  Exact ``count``/``sum``/``min``/``max`` (and a running
    sum of squares for ``stddev``) are tracked alongside the buckets.

    The first ``raw_limit`` observations are additionally retained
    verbatim.  While every observation is retained
    (``count <= raw_limit``) percentiles are computed *exactly* with
    numpy-style linear interpolation on the sorted samples; beyond the
    limit they interpolate within the log buckets, accurate to one
    bucket width (relative error ``10**(1/buckets_per_decade) - 1``,
    about 3.7% at the default resolution).  Values outside
    ``[low, high)`` clamp into the edge buckets; reported percentiles
    are always clamped into the exact ``[min, max]`` envelope.
    """

    __slots__ = ("low", "high", "buckets_per_decade", "raw_limit",
                 "_counts", "_raw", "count", "total", "sum_sq",
                 "min", "max")

    def __init__(self, low: float = 1e-6, high: float = 3600.0,
                 buckets_per_decade: int = 64,
                 raw_limit: int = 512) -> None:
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.low = float(low)
        self.high = float(high)
        self.buckets_per_decade = int(buckets_per_decade)
        self.raw_limit = int(raw_limit)
        decades = math.log10(self.high / self.low)
        self._counts: List[int] = [0] * (int(math.ceil(
            decades * self.buckets_per_decade)) + 1)
        self._raw: List[float] = []
        self.count = 0
        self.total = 0.0
        self.sum_sq = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        if value < self.low:
            return 0
        index = int(self.buckets_per_decade
                    * math.log10(value / self.low))
        return min(index, len(self._counts) - 1)

    def _edge(self, index: int) -> float:
        return self.low * 10.0 ** (index / self.buckets_per_decade)

    def observe(self, value: float) -> None:
        """Record one observation (O(1) time, bounded memory)."""
        value = float(value)
        self._counts[self._bucket_index(value)] += 1
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._raw) < self.raw_limit:
            self._raw.append(value)

    # ------------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation (0.0 below two observations)."""
        if self.count < 2:
            return 0.0
        var = self.sum_sq / self.count - self.mean ** 2
        return math.sqrt(max(0.0, var))

    @property
    def exact(self) -> bool:
        """True while every observation is still retained verbatim."""
        return self.count == len(self._raw)

    def raw_samples(self) -> List[float]:
        """The retained raw observations (all of them while ``exact``)."""
        return list(self._raw)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``), interpolated.

        Exact while ``exact`` holds; otherwise accurate to one bucket
        width.  Returns 0.0 for an empty histogram.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        rank = q / 100.0 * (self.count - 1)
        if self.exact:
            ordered = sorted(self._raw)
            lower = int(math.floor(rank))
            upper = min(lower + 1, len(ordered) - 1)
            frac = rank - lower
            return ordered[lower] * (1.0 - frac) + ordered[upper] * frac
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count > rank:
                lo, hi = self._edge(index), self._edge(index + 1)
                frac = (rank - cumulative) / bucket_count
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def percentiles(self, qs: Tuple[float, ...] = (50.0, 90.0, 95.0,
                                                   99.0, 99.9)
                    ) -> Dict[str, float]:
        """``{"p50": ..., "p90": ..., ...}`` for the requested ranks."""
        out: Dict[str, float] = {}
        for q in qs:
            label = f"{q:g}"
            out[f"p{label}"] = self.percentile(q)
        return out

    def nonzero_buckets(self) -> List[Tuple[float, float, int]]:
        """``(lower_edge, upper_edge, count)`` for every occupied bucket."""
        return [
            (self._edge(i), self._edge(i + 1), c)
            for i, c in enumerate(self._counts)
            if c
        ]

    # ------------------------------------------------------------------

    def copy(self) -> "LogHistogram":
        """An independent deep copy (same layout, counts and raw set).

        The telemetry exposition renders from copies taken under the
        registry lock, so a scrape never observes a histogram half-way
        through an ``observe`` from another thread.
        """
        clone = LogHistogram(low=self.low, high=self.high,
                             buckets_per_decade=self.buckets_per_decade,
                             raw_limit=self.raw_limit)
        clone._counts = list(self._counts)
        clone._raw = list(self._raw)
        clone.count = self.count
        clone.total = self.total
        clone.sum_sq = self.sum_sq
        clone.min = self.min
        clone.max = self.max
        return clone

    def summary(self) -> Dict[str, float]:
        """Exact aggregates plus interpolated latency percentiles."""
        empty = self.count == 0
        payload: Dict[str, float] = {
            "count": float(self.count),
            "sum": self.total,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "mean": self.mean,
            "stddev": self.stddev,
        }
        payload.update(self.percentiles())
        return payload


@dataclass(frozen=True)
class WorkEstimate:
    """Analytic work of one kernel call: flop and byte counts.

    ``flops`` counts arithmetic operations, ``traffic_bytes`` compulsory
    memory traffic (read every input once, write every output once).
    """

    flops: float
    traffic_bytes: float

    def __post_init__(self) -> None:
        if self.flops < 0 or self.traffic_bytes < 0:
            raise ValueError("work estimates must be non-negative")

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of compulsory traffic (0.0 for zero traffic)."""
        if self.traffic_bytes <= 0:
            return 0.0
        return self.flops / self.traffic_bytes

    def __add__(self, other: "WorkEstimate") -> "WorkEstimate":
        return WorkEstimate(self.flops + other.flops,
                            self.traffic_bytes + other.traffic_bytes)


@dataclass
class KernelWork:
    """Accumulated work of one kernel across the calls of a run.

    ``seconds`` is wall time measured around the dispatched calls (the
    dispatcher's own clock, not the profiler's), so the achieved-rate
    properties are internally consistent with the recorded work.
    """

    kernel: str
    calls: int = 0
    flops: float = 0.0
    traffic_bytes: float = 0.0
    seconds: float = 0.0

    def add(self, estimate: WorkEstimate, seconds: float) -> None:
        self.calls += 1
        self.flops += estimate.flops
        self.traffic_bytes += estimate.traffic_bytes
        self.seconds += seconds

    @property
    def arithmetic_intensity(self) -> float:
        if self.traffic_bytes <= 0:
            return 0.0
        return self.flops / self.traffic_bytes

    @property
    def gflops_per_second(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9

    @property
    def gbytes_per_second(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.traffic_bytes / self.seconds / 1e9

    def to_dict(self) -> Dict[str, object]:
        return {
            "calls": self.calls,
            "flops": self.flops,
            "bytes": self.traffic_bytes,
            "seconds": self.seconds,
            "gflops_per_s": self.gflops_per_second,
            "gbytes_per_s": self.gbytes_per_second,
            "arithmetic_intensity": self.arithmetic_intensity,
        }


class _NullLock:
    """No-op context manager standing in for a lock (default path)."""

    def __enter__(self) -> "_NullLock":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class MetricsRegistry:
    """In-process sink for counters, histograms and kernel work.

    Deliberately minimal: plain dictionaries and, by default, no
    locking (one registry per measurement cell, like the profiler) and
    no export dependencies.  Pass ``threadsafe=True`` when one registry
    is shared across threads — the serve layer's job manager does —
    and every mutation and snapshot goes through one internal lock.
    Histograms are bounded :class:`LogHistogram` instances — memory
    stays O(buckets) however many samples a long stream observes — and
    :meth:`to_dict` summarizes them as count/sum/min/max/mean (exact,
    from the running aggregates) so exports stay bounded too.  It keeps
    no gauges: a gauge is read from the state it reports when asked for
    (the job manager's :meth:`~repro.core.jobs.JobManager.gauges`).
    """

    def __init__(self, threadsafe: bool = False) -> None:
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, LogHistogram] = {}
        self._work: Dict[str, KernelWork] = {}
        self._lock = threading.Lock() if threadsafe else _NullLock()

    # ------------------------------------------------------------------
    # Primitive instruments

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name`` (bounded memory)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LogHistogram()
            histogram.observe(value)

    @property
    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def histogram(self, name: str) -> List[float]:
        """The raw samples of one histogram ([] when never observed).

        Exact and complete up to the histogram's retention limit
        (:attr:`LogHistogram.raw_limit` samples); past that, only the
        earliest retained samples are returned while the summary in
        :meth:`to_dict` still accounts every observation.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.raw_samples() if histogram is not None else []

    def histogram_snapshot(self) -> Dict[str, LogHistogram]:
        """Consistent deep copies of every histogram, keyed by name.

        Taken under the registry lock so concurrent ``observe`` calls
        can never produce a torn view — the telemetry layer's
        ``/metrics`` exposition renders from this snapshot.
        """
        with self._lock:
            return {name: histogram.copy()
                    for name, histogram in self._histograms.items()}

    # ------------------------------------------------------------------
    # Kernel work accounting (fed by the backend dispatcher)

    def record_work(self, kernel: str, estimate: WorkEstimate,
                    seconds: float) -> None:
        """Accumulate one dispatched kernel call's work and wall time."""
        with self._lock:
            entry = self._work.get(kernel)
            if entry is None:
                entry = self._work[kernel] = KernelWork(kernel=kernel)
            entry.add(estimate, seconds)

    @property
    def kernel_work(self) -> Dict[str, KernelWork]:
        with self._lock:
            return dict(self._work)

    # ------------------------------------------------------------------
    # Serialization (the export layer's ``metrics`` block)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: counters, histogram summaries and
        per-kernel work with derived rates."""
        with self._lock:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> Dict[str, object]:
        histograms: Dict[str, object] = {}
        for name, histogram in sorted(self._histograms.items()):
            histograms[name] = {
                "count": histogram.count,
                "sum": histogram.total,
                "min": histogram.min,
                "max": histogram.max,
                "mean": histogram.mean,
            }
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "histograms": histograms,
            "kernels": {
                name: self._work[name].to_dict()
                for name in sorted(self._work)
            },
        }


# ----------------------------------------------------------------------
# Active registry (scoped, per process — mirrors backend selection)

_active_registry: Optional[MetricsRegistry] = None
_active_annotator: Optional[object] = None


def active_metrics() -> Optional[MetricsRegistry]:
    """The registry dispatched kernel calls currently record into."""
    return _active_registry


def active_annotator() -> Optional[object]:
    """The span annotator (a TraceRecorder) for the active scope."""
    return _active_annotator


@contextmanager
def use_metrics(registry: Optional[MetricsRegistry],
                annotator: Optional[object] = None
                ) -> Iterator[Optional[MetricsRegistry]]:
    """Scoped selection of the active registry (and span annotator).

    ``annotator`` is any object with an ``annotate_current(**attrs)``
    method — in practice a :class:`~repro.core.tracing.TraceRecorder` —
    that receives per-call flop/byte attributions for the innermost open
    span.  ``None`` for both is a no-op scope.  The previous selection
    is restored on exit, so scopes nest.
    """
    global _active_registry, _active_annotator
    previous = (_active_registry, _active_annotator)
    _active_registry = registry
    _active_annotator = annotator
    try:
        yield registry
    finally:
        _active_registry, _active_annotator = previous


# ----------------------------------------------------------------------
# Analytic evaluation without execution


def analytic_work(spec: "object", size: "object",
                  variant: int = 0) -> Optional[WorkEstimate]:
    """Evaluate one kernel's work model on its equivalence-case inputs.

    Builds the kernel's first deterministic equivalence case at
    ``size``/``variant`` (:mod:`repro.core.equivalence`) and applies the
    registered work model to those arguments — no kernel execution, just
    shape arithmetic.  Returns ``None`` for kernels without a work model.
    """
    from .equivalence import cases_for

    work = getattr(spec, "work", None)
    if work is None:
        return None
    cases = cases_for(spec, size, variant)  # type: ignore[arg-type]
    if not cases:
        return None
    _, args = cases[0]
    return work(*args)


def work_model_table(size: "object") -> List[Tuple[str, WorkEstimate]]:
    """(kernel name, analytic work at ``size``) for every modeled kernel."""
    from .backend import registered_kernels

    rows: List[Tuple[str, WorkEstimate]] = []
    for spec in registered_kernels():
        estimate = analytic_work(spec, size)
        if estimate is not None:
            rows.append((spec.name, estimate))
    return rows
