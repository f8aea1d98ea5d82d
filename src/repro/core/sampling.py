"""Statistical sampling profiler: the suite's second, independent observer.

The instrumented :class:`~repro.core.profiler.KernelProfiler` is the
paper's Figure-3 measurement method; everything downstream (traces,
metrics, occupancy stacks) inherits whatever bias its probes introduce.
This module adds the standard cross-validation tool: a low-overhead
*statistical* sampler — a background thread walking
``sys._current_frames()`` at a fixed interval, with no ``signal`` or
``sys.setprofile`` machinery — whose per-kernel shares can be diffed
against the instrumented shares (:func:`cross_check`, ``sdvbs xcheck``).

Pieces:

* :class:`StackSampler` — the background sampling thread.  Runs beside
  any benchmark (``run_benchmark(..., sampler=...)``), samples the
  target thread's Python stack every ``interval`` seconds and folds the
  stacks into a :class:`SampledProfile`.  The frames provider and target
  thread are injectable, so tests drive it deterministically without
  threads or wall clocks.
* :func:`kernel_frame_map` — maps code frames back to the *instrumented*
  Figure-3 kernel names: registered dual-backend implementations (both
  ``ref`` and ``fast``) are translated through a per-app label table,
  and each :class:`~repro.core.registry.Benchmark` may declare extra
  ``sampling_frames`` for kernel phases that are inline code rather than
  registered functions.
* Attribution walks each sampled stack leaf→root and charges the sample
  to the first mapped frame — the sampled analogue of the profiler's
  *exclusive* attribution (numpy's C-level work shows up under the
  Python frame that called it, which is exactly the frame we mapped).
  Unmapped stacks are the sampled ``NonKernelWork``, and their leaf
  frames name what actually lives inside that slice
  (:meth:`SampledProfile.non_kernel_top`).
* Samples are *time-weighted*: each carries the wall time since the
  previous sample rather than a uniform count.  A pure-Python sampler
  can only run when the GIL is available, so fixed-weight samples
  systematically undercount phases dominated by GIL-holding C calls
  (numpy's ``cumsum`` holds it; thresholded ufuncs release it) — the
  sampler's wake is delayed and entire hold windows collapse into one
  sample.  Weighting each sample by its elapsed window restores the
  time base: the sample taken right after a long C call (whose frame is
  still the calling function) carries that call's full duration.
  Measured on disparity@CIF this cuts the worst per-kernel bias from
  ~12 points to ~1.
* Exporters: flamegraph collapsed-stack text (:func:`to_collapsed`,
  ``%``/``;``/space escaped since they are format delimiters, with
  :func:`parse_collapsed` as the round-trip) and speedscope JSON
  (:func:`speedscope_json`).
* :func:`cross_check` — the agreement table between instrumented and
  sampled shares with a ±tolerance gate on every kernel holding at
  least ``min_share`` percent of the runtime.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .backend import registered_kernels
from .types import NON_KERNEL_WORK

#: One sampled frame: (module name, function name, source filename).
Frame = Tuple[str, str, str]

#: Frame-map key: (source filename, function name) — the pieces of a
#: code object a live frame exposes and a registered callable exposes.
FrameKey = Tuple[str, str]

#: Default sampling interval: 1 ms keeps sampler overhead far below the
#: workloads while collecting hundreds of samples per CIF-scale run.
DEFAULT_INTERVAL = 0.001


# ----------------------------------------------------------------------
# Frame -> Figure-3 kernel mapping

#: Registry kernel -> instrumented Figure-3 label, per application.
#:
#: The registry's ``paper_kernel`` names use Table II typography
#: ("Integral Image"); the instrumented ``profiler.kernel("...")``
#: blocks use Figure-3 typography ("IntegralImage") and differ per app
#: (the same convolution runs inside "GaussianFilter" in tracking but
#: outside any kernel block in disparity).  ``None`` means "this
#: registered kernel executes outside any instrumented block in this
#: app" — its frames stay unmapped so attribution keeps walking up the
#: stack (and falls through to ``NonKernelWork``, matching what the
#: instrumented profiler reports for that code).  Unlisted (app, kernel)
#: pairs default to ``None``.
_FIGURE3_LABELS: Dict[Tuple[str, str], Optional[str]] = {
    # disparity: prefilter convolution is uninstrumented NonKernelWork.
    ("disparity", "disparity.ssd"): "SSD",
    ("disparity", "imgproc.integral_image"): "IntegralImage",
    ("disparity", "imgproc.convolve_rows"): None,
    ("disparity", "imgproc.convolve_cols"): None,
    # tracking: smoothing runs inside "GaussianFilter", the eigensolve
    # inside the "AreaSum" scoring phase, patch sampling inside the
    # "MatrixInversion" solve loop.
    ("tracking", "imgproc.gradient"): "Gradient",
    ("tracking", "imgproc.integral_image"): "IntegralImage",
    ("tracking", "imgproc.convolve_rows"): "GaussianFilter",
    ("tracking", "imgproc.convolve_cols"): "GaussianFilter",
    ("tracking", "tracking.min_eigenvalue"): "AreaSum",
    ("tracking", "imgproc.bilinear"): "MatrixInversion",
    # sift
    ("sift", "imgproc.integral_image"): "IntegralImage",
    ("sift", "imgproc.bilinear"): "Interpolation",
    ("sift", "sift.descriptor"): "SIFT",
    # stitch: smoothing + gradients run inside the "Convolution" phase.
    ("stitch", "imgproc.convolve2d"): "Convolution",
    ("stitch", "imgproc.gradient"): "Convolution",
    ("stitch", "stitch.match_distances"): "Match",
    # svm
    ("svm", "svm.kernel_matrix"): "MatrixOps",
    # face
    ("face", "imgproc.integral_image"): "IntegralImage",
}


def _frame_key(fn: Callable) -> Optional[FrameKey]:
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_name)


def kernel_frame_map(slug: str) -> Dict[FrameKey, Optional[str]]:
    """Frame map for one application: code frame -> Figure-3 kernel name.

    Combines two sources:

    * every registered dual-backend kernel whose ``apps`` include
      ``slug`` contributes the code objects of its ``ref`` and ``fast``
      implementations, labelled through :data:`_FIGURE3_LABELS`;
    * the application's :class:`~repro.core.registry.Benchmark` may
      declare ``sampling_frames`` (Figure-3 name -> functions) for
      kernel phases whose bodies are factored helpers rather than
      registered kernels (e.g. disparity's winner-take-all "Sort").

    A ``None`` label marks a frame as *known but uninstrumented*:
    attribution skips it and keeps walking toward the stack root.
    """
    from .registry import get_benchmark

    mapping: Dict[FrameKey, Optional[str]] = {}
    for spec in registered_kernels():
        if slug not in spec.apps:
            continue
        label = _FIGURE3_LABELS.get((slug, spec.name))
        for fn in (spec.ref, spec.fast):
            if fn is None:
                continue
            key = _frame_key(fn)
            if key is not None:
                mapping[key] = label
    declared = getattr(get_benchmark(slug), "sampling_frames", None)
    if declared:
        for label, fns in declared.items():
            for fn in fns:
                key = _frame_key(fn)
                if key is not None:
                    mapping[key] = label
    return mapping


def observable_kernels(frame_map: Mapping[FrameKey, Optional[str]]
                       ) -> List[str]:
    """The instrumented kernel names the sampler can attribute to."""
    return sorted({label for label in frame_map.values() if label})


# ----------------------------------------------------------------------
# Sampled profile

def walk_stack(frame: object) -> Tuple[Frame, ...]:
    """Flatten a live frame chain into (module, function, file) tuples.

    Returns the stack root→leaf (outermost caller first), the order the
    collapsed flamegraph format expects.
    """
    stack: List[Frame] = []
    while frame is not None:
        code = frame.f_code  # type: ignore[attr-defined]
        stack.append((
            frame.f_globals.get("__name__", "?"),  # type: ignore[attr-defined]
            code.co_name,
            code.co_filename,
        ))
        frame = frame.f_back  # type: ignore[attr-defined]
    stack.reverse()
    return tuple(stack)


def frame_label(frame: Frame) -> str:
    """Display label of one frame: ``module:function``."""
    return f"{frame[0]}:{frame[1]}"


@dataclass
class SampledProfile:
    """Folded, time-weighted stack samples plus per-kernel attribution.

    ``folded`` maps root→leaf label stacks to sampled seconds (the
    flamegraph input); ``kernel_seconds`` accumulates sampled seconds
    per attributed Figure-3 kernel (``NonKernelWork`` included);
    ``non_kernel_leaves`` accumulates the leaf functions of unattributed
    samples — the answer to "what actually lives inside the
    NonKernelWork slice".  ``samples`` counts raw samples (the
    statistical resolution; the weights carry the time base).
    """

    interval: float = DEFAULT_INTERVAL
    frame_map: Dict[FrameKey, Optional[str]] = field(default_factory=dict)
    samples: int = 0
    folded: Dict[Tuple[str, ...], float] = field(default_factory=dict)
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    non_kernel_leaves: Dict[str, float] = field(default_factory=dict)
    #: Attributable kernel names; derived from ``frame_map`` for live
    #: profiles, restored verbatim for profiles read back from exports
    #: (where the frame map itself is not serialized).
    observable: Optional[Tuple[str, ...]] = None
    #: Distinct folded stacks cut by :meth:`to_dict`'s ``max_stacks``
    #: cap.  Zero for live profiles (nothing has been cut from *this*
    #: object); restored from the payload on :meth:`from_dict` so a
    #: profile read back from an export knows it is partial.
    stacks_truncated: int = 0

    def attribute(self, stack: Sequence[Frame]) -> str:
        """Instrumented kernel name for one stack (leaf→root, first hit).

        Walking from the leaf gives the sampled analogue of the
        profiler's exclusive attribution: a sample inside a helper
        called by a kernel body lands on the kernel, and a ``None``
        mapping (kernel code running outside any instrumented block in
        this app) is skipped rather than matched.
        """
        for module, function, filename in reversed(stack):
            label = self.frame_map.get((filename, function))
            if label:
                return label
        return NON_KERNEL_WORK

    def add(self, stack: Sequence[Frame],
            weight: Optional[float] = None) -> None:
        """Fold one sampled stack into the profile.

        ``weight`` is the sampled window in seconds — the wall time this
        sample stands for (the live sampler passes the elapsed time
        since its previous sample); ``None`` uses one nominal interval,
        which makes hand-fed test samples uniform.
        """
        if not stack:
            return
        if weight is None:
            weight = self.interval
        self.samples += 1
        labels = tuple(frame_label(frame) for frame in stack)
        self.folded[labels] = self.folded.get(labels, 0.0) + weight
        kernel = self.attribute(stack)
        self.kernel_seconds[kernel] = \
            self.kernel_seconds.get(kernel, 0.0) + weight
        if kernel == NON_KERNEL_WORK:
            leaf = labels[-1]
            self.non_kernel_leaves[leaf] = \
                self.non_kernel_leaves.get(leaf, 0.0) + weight

    @property
    def sampled_seconds(self) -> float:
        """Total weighted time across all samples."""
        return sum(self.kernel_seconds.values())

    def shares(self) -> Dict[str, float]:
        """Percent of sampled time per attributed kernel (sums to 100)."""
        total = self.sampled_seconds
        if total <= 0.0:
            return {}
        return {
            kernel: 100.0 * seconds / total
            for kernel, seconds in sorted(self.kernel_seconds.items())
        }

    def non_kernel_top(self, limit: int = 10) -> List[Tuple[str, float]]:
        """Top leaf functions (by sampled seconds) inside NonKernelWork."""
        ordered = sorted(self.non_kernel_leaves.items(),
                         key=lambda kv: (-kv[1], kv[0]))
        return ordered[:limit]

    def observable_kernels(self) -> List[str]:
        if self.observable is not None:
            return sorted(self.observable)
        return observable_kernels(self.frame_map)

    def merge(self, other: "SampledProfile") -> None:
        """Fold another profile's samples into this one, in place.

        Every accumulator is a key-wise sum, so merging a set of
        profiles in any order produces identical state — the property
        the profile store's per-cell variant merge relies on.  The interval keeps the finer of the two
        (min is symmetric and associative); ``observable`` becomes the
        union of both sides' attributable kernels.
        """
        self.interval = min(self.interval, other.interval)
        self.samples += other.samples
        self.stacks_truncated += other.stacks_truncated
        for stack, seconds in other.folded.items():
            self.folded[stack] = self.folded.get(stack, 0.0) + seconds
        for kernel, seconds in other.kernel_seconds.items():
            self.kernel_seconds[kernel] = \
                self.kernel_seconds.get(kernel, 0.0) + seconds
        for leaf, seconds in other.non_kernel_leaves.items():
            self.non_kernel_leaves[leaf] = \
                self.non_kernel_leaves.get(leaf, 0.0) + seconds
        merged = set(self.observable_kernels()) | \
            set(other.observable_kernels())
        self.observable = tuple(sorted(merged))

    @classmethod
    def merged(cls, profiles: Iterable["SampledProfile"]
               ) -> "SampledProfile":
        """Merge any number of profiles into a fresh one (order-free)."""
        out = cls(observable=())
        for profile in profiles:
            out.merge(profile)
        return out

    # ------------------------------------------------------------------
    # Serialization (rides the schema-v5 export as a run's ``sampling``)

    def to_dict(self, max_stacks: int = 500) -> Dict[str, object]:
        """JSON-ready payload; folded stacks capped at ``max_stacks``.

        The cap keeps exports bounded on pathological stack diversity;
        ``folded_dropped`` records how many distinct stacks (never how
        many samples of the top stacks) were cut.
        """
        ordered = sorted(self.folded.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = ordered[:max_stacks]
        truncated = self.stacks_truncated + (len(ordered) - len(kept))
        return {
            "interval_seconds": self.interval,
            "samples": self.samples,
            "shares": self.shares(),
            "kernel_seconds": dict(sorted(self.kernel_seconds.items())),
            "observable": self.observable_kernels(),
            "folded": {
                ";".join(escape_frame(label) for label in stack): seconds
                for stack, seconds in kept
            },
            "folded_dropped": len(ordered) - len(kept),
            # ``folded_dropped`` is this serialization's cut;
            # ``stacks_truncated`` carries cuts across round-trips, so a
            # re-exported profile still reports the total loss.
            "stacks_truncated": truncated,
            "non_kernel_top": [
                [label, seconds] for label, seconds in self.non_kernel_top()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SampledProfile":
        """Rebuild a profile from :meth:`to_dict` output.

        The frame map is not serialized; attribution state
        (``kernel_seconds``, ``observable``, ``non_kernel_leaves``) is
        restored verbatim instead, so shares and cross-checks recompute
        exactly even though ``add`` would need a live map.
        """
        profile = cls(
            interval=float(payload.get("interval_seconds",
                                       DEFAULT_INTERVAL)),  # type: ignore[arg-type]
            samples=int(payload.get("samples", 0)),  # type: ignore[arg-type]
            kernel_seconds={
                str(k): float(v)
                for k, v in payload.get("kernel_seconds", {}).items()  # type: ignore[union-attr]
            },
            observable=tuple(payload.get("observable", ())),  # type: ignore[arg-type]
            stacks_truncated=int(
                payload.get("stacks_truncated",
                            payload.get("folded_dropped", 0))),  # type: ignore[arg-type]
        )
        folded: Mapping[str, float] = payload.get("folded", {})  # type: ignore[assignment]
        for line, seconds in folded.items():
            stack = tuple(unescape_frame(part) for part in line.split(";"))
            profile.folded[stack] = float(seconds)
        for label, seconds in payload.get("non_kernel_top", []):  # type: ignore[union-attr]
            profile.non_kernel_leaves[str(label)] = float(seconds)
        return profile


# ----------------------------------------------------------------------
# The sampling thread

class StackSampler:
    """Background thread sampling one thread's Python stack.

    ``interval`` is the target seconds between samples.  The sampled
    thread defaults to the *constructing* thread (start the sampler from
    the thread that will run the benchmark); ``frames_provider``
    defaults to ``sys._current_frames`` and is injectable for
    deterministic tests, as are ``target_thread_id`` and ``clock``.

    Samples are weighted by the measured time since the previous sample
    (see the module docstring: fixed weights are biased against
    GIL-holding C calls), so the profile's time base tracks wall time
    even when individual wakes are delayed.

    Use as a context manager or via explicit :meth:`start`/:meth:`stop`;
    the collected :class:`SampledProfile` is available as ``.profile``
    throughout and is returned by :meth:`stop`.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        frame_map: Optional[Mapping[FrameKey, Optional[str]]] = None,
        frames_provider: Optional[Callable[[], Mapping[int, object]]] = None,
        target_thread_id: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = float(interval)
        self._frames_provider = frames_provider or sys._current_frames
        self._target = (target_thread_id if target_thread_id is not None
                        else threading.get_ident())
        self._clock: Callable[[], float] = clock or time.perf_counter
        self._last: Optional[float] = None
        self.profile = SampledProfile(interval=self.interval,
                                      frame_map=dict(frame_map or {}))
        self._stop_event: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    def sample_once(self) -> bool:
        """Take one sample of the target thread; False if it has no frame.

        The sample's weight is the clock time since the previous call
        (one nominal interval for the first).
        """
        frame = self._frames_provider().get(self._target)
        now = self._clock()
        weight = (self.interval if self._last is None
                  else max(0.0, now - self._last))
        self._last = now
        if frame is None:
            return False
        self.profile.add(walk_stack(frame), weight)
        return True

    def start(self) -> None:
        """Start the background sampling thread."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop_event = threading.Event()
        self._last = self._clock()
        self._thread = threading.Thread(
            target=self._loop, name="sdvbs-sampler", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        assert self._stop_event is not None
        while not self._stop_event.wait(self.interval):
            try:
                self.sample_once()
            except Exception:
                # A sampler must never take the benchmark down; stop
                # sampling and let stop() join us normally.
                return

    def stop(self) -> SampledProfile:
        """Stop the sampling thread (idempotent) and return the profile."""
        if self._thread is not None:
            assert self._stop_event is not None
            self._stop_event.set()
            self._thread.join()
            self._thread = None
            self._stop_event = None
        return self.profile

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Flamegraph exporters

def escape_frame(label: str) -> str:
    """Escape a frame label for the collapsed-stack format.

    ``;`` separates frames and space separates the stack from its count,
    so both (and the escape character itself) are percent-encoded.
    """
    return (label.replace("%", "%25")
                 .replace(";", "%3B")
                 .replace(" ", "%20"))


def unescape_frame(label: str) -> str:
    """Invert :func:`escape_frame`."""
    return (label.replace("%20", " ")
                 .replace("%3B", ";")
                 .replace("%25", "%"))


def to_collapsed(profile: SampledProfile) -> str:
    """Brendan Gregg collapsed-stack text: ``frame;frame;frame usec``.

    The trailing integer is the stack's sampled time in *microseconds*
    (flamegraph tools expect integer counts; microseconds keep the
    time-weighted resolution).  Lines are sorted for deterministic
    output; feed to any flamegraph renderer (``flamegraph.pl``,
    speedscope, inferno).
    """
    lines = []
    for stack, seconds in sorted(profile.folded.items()):
        micros = int(round(seconds * 1e6))
        lines.append(
            ";".join(escape_frame(label) for label in stack) + f" {micros}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse collapsed-stack text back into folded stacks (round-trip).

    Values are the integer microsecond weights :func:`to_collapsed`
    wrote.
    """
    folded: Dict[Tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_part, _, count_part = line.rpartition(" ")
        if not stack_part:
            raise ValueError(f"malformed collapsed-stack line: {line!r}")
        stack = tuple(unescape_frame(part)
                      for part in stack_part.split(";"))
        folded[stack] = folded.get(stack, 0) + int(count_part)
    return folded


def speedscope_dict(profile: SampledProfile,
                    name: str = "sdvbs") -> Dict[str, object]:
    """Speedscope file-format payload (``"type": "sampled"`` profile).

    Each distinct folded stack becomes one sample weighted by its
    sampled seconds, so the rendered time axis approximates real
    seconds.
    """
    frames: List[Dict[str, str]] = []
    index: Dict[str, int] = {}
    samples: List[List[int]] = []
    weights: List[float] = []
    for stack, seconds in sorted(profile.folded.items()):
        row = []
        for label in stack:
            if label not in index:
                index[label] = len(frames)
                frames.append({"name": label})
            row.append(index[label])
        samples.append(row)
        weights.append(seconds)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "sdvbs-repro",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def speedscope_json(profile: SampledProfile, name: str = "sdvbs",
                    indent: int = 2) -> str:
    """Serialize :func:`speedscope_dict` to JSON."""
    return json.dumps(speedscope_dict(profile, name=name), indent=indent,
                      sort_keys=True)


# ----------------------------------------------------------------------
# Instrumented-vs-sampled agreement

@dataclass(frozen=True)
class AgreementRow:
    """One kernel's instrumented vs sampled runtime share (percent).

    ``sampled`` is ``None`` when the sampler has no frame mapping for
    this kernel in this app (inline instrumented block with no factored
    function) — its instrumented share folds into the residual row
    instead of being compared point-for-point.
    """

    kernel: str
    instrumented: float
    sampled: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.sampled is None:
            return None
        return self.sampled - self.instrumented


@dataclass(frozen=True)
class CrossCheckResult:
    """The agreement table plus its tolerance gate."""

    rows: Tuple[AgreementRow, ...]
    tolerance: float
    min_share: float
    samples: int

    def gated_rows(self) -> List[AgreementRow]:
        """Rows the gate applies to: comparable and holding enough share."""
        return [
            row for row in self.rows
            if row.sampled is not None
            and max(row.instrumented, row.sampled) >= self.min_share
        ]

    def failures(self) -> List[AgreementRow]:
        return [row for row in self.gated_rows()
                if abs(row.delta or 0.0) > self.tolerance]

    @property
    def ok(self) -> bool:
        return not self.failures()


def cross_check(
    instrumented: Mapping[str, float],
    sampled: Mapping[str, float],
    observable: Iterable[str],
    tolerance: float = 5.0,
    min_share: float = 10.0,
    samples: int = 0,
) -> CrossCheckResult:
    """Diff instrumented Figure-3 shares against sampled shares.

    ``instrumented`` and ``sampled`` are percent shares (both including
    their own ``NonKernelWork`` entries); ``observable`` names the
    kernels the sampler can attribute (see :func:`observable_kernels`).
    Instrumented kernels the sampler cannot observe keep their own rows
    (marked unobservable) but are compared inside the residual
    ``NonKernelWork`` row, which aggregates both sides' leftovers — so
    the two columns of the table each sum to ~100 and the residual
    comparison still catches gross attribution bias.

    The gate: every *comparable* row whose share reaches ``min_share``
    percent on either side must agree within ``tolerance`` points.
    """
    observable = set(observable)
    rows: List[AgreementRow] = []
    residual_instrumented = 0.0
    residual_sampled = 0.0
    kernels = sorted(
        (k for k in instrumented if k != NON_KERNEL_WORK),
        key=lambda k: (-instrumented[k], k),
    )
    for kernel in kernels:
        share = instrumented[kernel]
        if kernel in observable:
            rows.append(AgreementRow(kernel, share, sampled.get(kernel, 0.0)))
        else:
            rows.append(AgreementRow(kernel, share, None))
            residual_instrumented += share
    residual_instrumented += instrumented.get(NON_KERNEL_WORK, 0.0)
    for kernel, share in sampled.items():
        if kernel == NON_KERNEL_WORK or kernel not in instrumented:
            # The sampler's own leftovers: unattributed samples plus
            # any label the instrumented profiler never recorded.
            residual_sampled += share
    rows.append(AgreementRow(NON_KERNEL_WORK, residual_instrumented,
                             residual_sampled))
    return CrossCheckResult(
        rows=tuple(rows),
        tolerance=tolerance,
        min_share=min_share,
        samples=samples,
    )
