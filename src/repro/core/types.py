"""Core value types shared across the SD-VBS reproduction.

These types encode the vocabulary of the paper: the three input sizes
(SQCIF/QCIF/CIF), the concentration areas of Table I, the data/compute
characteristic of Table II, and the ILP/DLP/TLP parallelism classes of
Table IV.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


class InputSize(enum.Enum):
    """The input scales of the suite.

    The paper ships three (SQCIF/QCIF/CIF); Figure 2/3 label them by
    relative pixel count: SQCIF is "1", QCIF is "2" (roughly 2x the
    pixels of SQCIF) and CIF is "4" (roughly 2x the pixels of QCIF).

    VGA (640x480) extends the axis beyond the paper's largest size to
    probe the Figure-2 scaling law past CIF; it is opt-in (``--sizes
    vga``) and excluded from the default paper-trio sweeps.
    """

    SQCIF = (128, 96)
    QCIF = (176, 144)
    CIF = (352, 288)
    VGA = (640, 480)

    @property
    def width(self) -> int:
        return self.value[0]

    @property
    def height(self) -> int:
        return self.value[1]

    @property
    def shape(self) -> Tuple[int, int]:
        """(rows, cols) shape for numpy images."""
        return (self.value[1], self.value[0])

    @property
    def pixels(self) -> int:
        return self.value[0] * self.value[1]

    @property
    def relative(self) -> int:
        """The paper's relative size label: SQCIF=1, QCIF=2, CIF=4.

        VGA extends the scale with the same pixel-count convention
        (640*480 / (128*96) = 25).
        """
        return {InputSize.SQCIF: 1, InputSize.QCIF: 2,
                InputSize.CIF: 4, InputSize.VGA: 25}[self]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Number of distinct input variants provided per size (the paper ships
#: "five distinct inputs for each of the sizes").
VARIANTS_PER_SIZE = 5


class ConcentrationArea(enum.Enum):
    """Vision concentration areas of Table I."""

    MOTION_TRACKING_STEREO = "Motion, Tracking and Stereo Vision"
    IMAGE_ANALYSIS = "Image Analysis"
    IMAGE_UNDERSTANDING = "Image Understanding"
    IMAGE_PROCESSING_FORMATION = "Image Processing and Formation"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Characteristic(enum.Enum):
    """Workload characteristic of Table II."""

    DATA_INTENSIVE = "Data intensive"
    COMPUTE_INTENSIVE = "Computationally intensive"
    DATA_AND_COMPUTE = "Data and computationally intensive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ParallelismClass(enum.Enum):
    """Parallelism type assigned to each kernel in Table IV.

    ILP: fine-grained parallelism exploitable within a basic block.
    DLP: vector-style loops over large data sets with predictable access.
    TLP: independent coarse tasks schedulable simultaneously.
    """

    ILP = "ILP"
    DLP = "DLP"
    TLP = "TLP"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class KernelInfo:
    """Static description of one named kernel of an application."""

    name: str
    description: str
    parallelism_class: ParallelismClass


@dataclass
class KernelSample:
    """Accumulated timing for one kernel within a single benchmark run."""

    name: str
    seconds: float = 0.0
    calls: int = 0

    def merge(self, other: "KernelSample") -> None:
        if other.name != self.name:
            raise ValueError(f"cannot merge {other.name!r} into {self.name!r}")
        self.seconds += other.seconds
        self.calls += other.calls


#: Label used for time not attributed to any named kernel (the paper's
#: "Non-Kernel Work" slice of Figure 3).
NON_KERNEL_WORK = "NonKernelWork"


@dataclass(frozen=True)
class RunStats:
    """Statistics over repeated measurements of one quantity (seconds).

    The suite driver measures every (benchmark, size, variant) cell
    ``repeats`` times after ``warmup`` discarded runs; this type holds the
    retained samples and the aggregates the reports consume.  ``median``
    is the headline number (robust to a single slow outlier), ``stddev``
    is the sample standard deviation used to flag changes outside noise.
    """

    samples: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("RunStats requires at least one sample")

    @classmethod
    def of(cls, samples: Sequence[float]) -> "RunStats":
        return cls(samples=tuple(float(s) for s in samples))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def median(self) -> float:
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    @property
    def stddev(self) -> float:
        """Sample standard deviation (0.0 for a single sample)."""
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        var = sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1)
        return math.sqrt(var)

    def to_dict(self) -> Dict[str, object]:
        return {
            "samples": list(self.samples),
            "min": self.min,
            "median": self.median,
            "mean": self.mean,
            "stddev": self.stddev,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunStats":
        return cls.of(payload["samples"])  # type: ignore[arg-type]


@dataclass(frozen=True)
class AggregatedRun:
    """Repeated measurements of one (benchmark, size, variant) cell.

    ``total`` aggregates whole-application wall time; ``kernels`` holds a
    :class:`RunStats` per named kernel.  ``kernel_calls`` come from the
    first retained run (they are deterministic per workload and checked
    for consistency by the runner).
    """

    benchmark: str
    size: "InputSize"
    variant: int
    warmup: int
    total: RunStats
    kernels: Dict[str, RunStats] = field(default_factory=dict)
    kernel_calls: Dict[str, int] = field(default_factory=dict)

    @property
    def repeats(self) -> int:
        return self.total.count


@dataclass
class BenchmarkRun:
    """Result of one application run on one input.

    ``kernel_seconds`` maps kernel name -> wall seconds spent inside that
    kernel (exclusive of nested named kernels).  ``total_seconds`` is the
    full application wall time, so occupancy percentages are
    ``kernel_seconds[k] / total_seconds`` and the remainder is non-kernel
    work.
    """

    benchmark: str
    size: InputSize
    variant: int
    total_seconds: float
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    kernel_calls: Dict[str, int] = field(default_factory=dict)
    outputs: Mapping[str, object] = field(default_factory=dict)
    #: Full repeat statistics when the run was measured with ``repeats>1``;
    #: ``total_seconds``/``kernel_seconds`` are then the per-cell medians.
    stats: Optional[AggregatedRun] = None
    #: Work-accounting metrics collected during the measured repeats (the
    #: :meth:`~repro.core.metrics.MetricsRegistry.to_dict` payload):
    #: counters, gauges, histogram summaries and per-kernel flop/byte
    #: totals with achieved GFLOP/s / GB/s.  ``None`` for runs measured
    #: before schema v4 or restored from older exports.
    metrics: Optional[Dict[str, object]] = None
    #: Statistical sampling profile collected alongside the measured
    #: repeats (the :meth:`~repro.core.sampling.SampledProfile.to_dict`
    #: payload): folded call stacks, per-kernel sample shares and the
    #: top NonKernelWork leaf functions.  ``None`` unless the run was
    #: measured with a :class:`~repro.core.sampling.StackSampler`
    #: attached (schema v5).
    sampling: Optional[Dict[str, object]] = None

    def occupancy(self) -> Dict[str, float]:
        """Percentage of total runtime per kernel, plus non-kernel work.

        Matches the y-axis of the paper's Figure 3.  Shares always sum to
        exactly 100%: when attributed kernel time exceeds the measured
        wall time (profiler overhead can skew either side), the kernel
        shares are rescaled onto the 100% budget instead of summing past
        it, and ``NonKernelWork`` is never negative.
        """
        if self.total_seconds <= 0.0:
            return {NON_KERNEL_WORK: 100.0}
        attributed = sum(self.kernel_seconds.values())
        denominator = max(self.total_seconds, attributed)
        shares = {
            name: 100.0 * seconds / denominator
            for name, seconds in self.kernel_seconds.items()
        }
        residual = max(0.0, denominator - attributed)
        shares[NON_KERNEL_WORK] = 100.0 * residual / denominator
        return shares


@dataclass
class ScalingPoint:
    """One point of Figure 2: relative input size vs relative runtime."""

    benchmark: str
    relative_size: int
    relative_time: float


@dataclass(frozen=True)
class ParallelismEstimate:
    """One row of Table IV: kernel work/span parallelism and its type."""

    benchmark: str
    kernel: str
    parallelism: float
    parallelism_class: ParallelismClass
    work: int
    span: int


@dataclass
class SuiteResult:
    """All runs collected by the suite runner, grouped for reporting.

    ``manifest`` is the reproducibility header (host configuration,
    software versions, CLI args, measurement knobs) attached by the JSON
    export layer; it is ``None`` until a caller stamps one on (the CLI
    does) or the result is restored from a schema-v3 payload.

    ``shard`` is the sharded-execution provenance block
    (:mod:`repro.core.shard`, schema v6): the plan hash plus either this
    result's shard index/cells or the ``merged_from`` record of a merged
    sweep.  ``None`` for ordinary unsharded runs.

    ``job`` is the serve-layer provenance block (:mod:`repro.core.jobs`,
    schema v8): job id, canonical spec digest, client and priority when
    the result was produced by a ``sdvbs serve`` job.  ``None`` for
    direct CLI runs.
    """

    runs: List[BenchmarkRun] = field(default_factory=list)
    manifest: Optional[Dict[str, object]] = None
    shard: Optional[Dict[str, object]] = None
    job: Optional[Dict[str, object]] = None

    def benchmarks(self) -> List[str]:
        seen: List[str] = []
        for run in self.runs:
            if run.benchmark not in seen:
                seen.append(run.benchmark)
        return seen

    def median_total(self, benchmark: str, size: InputSize) -> Optional[float]:
        """Median wall time over variants for one benchmark at one size.

        Each run's ``total_seconds`` is already the per-cell median when
        it was measured with repeats, so this is a median of medians —
        the robust headline the figures and comparisons use.
        """
        times = [
            run.total_seconds
            for run in self.runs
            if run.benchmark == benchmark and run.size == size
        ]
        if not times:
            return None
        return RunStats.of(times).median

    def total_stddev(self, benchmark: str, size: InputSize) -> Optional[float]:
        """Measurement noise for one benchmark/size cell.

        Combines the recorded per-run repeat stddevs (root-sum-square of
        the per-variant values, scaled to one variant).  Returns ``None``
        when *no* run in the cell carries repeat statistics with at least
        two samples — single-shot runs and pre-v3 exports have no noise
        estimate, and reporting 0.0 for them would make every comparison
        look infinitely significant.  Runs lacking stats alongside
        repeated ones contribute zero (the repeated runs bound the noise).
        """
        cell = [
            run
            for run in self.runs
            if run.benchmark == benchmark and run.size == size
        ]
        if not cell:
            return None
        if not any(run.stats is not None and run.stats.total.count >= 2
                   for run in cell):
            return None
        stds = [
            run.stats.total.stddev if run.stats is not None else 0.0
            for run in cell
        ]
        return math.sqrt(sum(s * s for s in stds) / len(stds))

    def mean_occupancy(self, benchmark: str, size: InputSize) -> Dict[str, float]:
        """Mean per-kernel occupancy over variants (Figure 3 bars)."""
        runs = [
            run
            for run in self.runs
            if run.benchmark == benchmark and run.size == size
        ]
        if not runs:
            return {}
        totals: Dict[str, float] = {}
        for run in runs:
            for kernel, share in run.occupancy().items():
                totals[kernel] = totals.get(kernel, 0.0) + share
        return {kernel: total / len(runs) for kernel, total in totals.items()}
