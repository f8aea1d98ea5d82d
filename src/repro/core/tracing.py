"""Event-level observability: per-call kernel spans, exporters, manifests.

The paper's entire contribution is *characterization* — per-kernel runtime
shares (Figure 3), input-size scaling (Figure 2), critical-path
parallelism (Table IV).  :class:`~repro.core.profiler.KernelProfiler`
aggregates exclusive seconds per kernel, which is enough for the figures
but throws away the per-call timeline.  This module keeps it:

* :class:`TraceRecorder` — receives one :class:`TraceSpan` per kernel
  *call* (name, start, inclusive and exclusive duration, nesting depth,
  parent span, sequence number) plus a whole-application span per run.
  The profiler emits into it when one is attached; with no recorder the
  kernel hot path takes a single ``is None`` check and zero allocations.
* Opt-in ``track_memory``: :mod:`tracemalloc`-based peak-allocation
  sampling per span (see the caveat on :meth:`TraceRecorder.span_close`).
* Exporters — :func:`chrome_trace_dict` produces Chrome trace-event JSON
  loadable in ``chrome://tracing`` / Perfetto; :func:`events_to_jsonl` /
  :func:`events_from_jsonl` round-trip a structured JSONL event log.
* :func:`run_manifest` — the reproducibility header attached to every
  export: host configuration (the paper's Table III rows), Python/numpy
  versions, CLI arguments and the measurement knobs.

Spans serialize to plain dictionaries, so ``jobs=N`` process-pool workers
can record locally and ship their events back to the parent recorder
(:meth:`TraceRecorder.to_serialized` / :meth:`TraceRecorder.absorb`);
absorbed cells land on separate ``track`` lanes with their own t=0.
"""

from __future__ import annotations

import itertools
import json
import platform
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .sysinfo import system_configuration

#: Schema identifier stamped on every manifest this module produces.
MANIFEST_SCHEMA = "sdvbs-repro/manifest/v1"
#: Schema identifier stamped on the JSONL event log header line.
EVENTS_SCHEMA = "sdvbs-repro/trace-events/v1"

#: Span category for one kernel call.
CATEGORY_KERNEL = "kernel"
#: Span category for one whole-application run.
CATEGORY_APP = "app"
#: Span category for a served job's lifecycle envelope: a root span per
#: job plus ``queued`` (submission -> worker pick-up) and ``running``
#: (pick-up -> completion) children wrapping the app/kernel spans, so a
#: job's trace shows where its wall time went *around* the kernels too.
CATEGORY_LIFECYCLE = "lifecycle"


@dataclass
class TraceSpan:
    """One completed span: a single kernel call or whole-app run.

    ``duration`` is inclusive wall time; ``self_duration`` excludes time
    spent in nested named kernels, so summing ``self_duration`` over a
    kernel's spans reproduces the profiler's exclusive
    ``kernel_seconds``.  ``seq`` numbers spans in *start* order and
    ``parent`` is the enclosing span's ``seq`` (``None`` at top level).
    ``track`` separates lanes when traces from parallel workers are
    merged.  ``attrs`` carries the run context (benchmark, size, variant,
    repeat, phase) and the optional ``memory_peak_bytes`` sample.
    """

    seq: int
    name: str
    category: str
    start: float
    duration: float
    self_duration: float
    depth: int
    parent: Optional[int] = None
    track: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "self_duration": self.self_duration,
            "depth": self.depth,
            "parent": self.parent,
            "track": self.track,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TraceSpan":
        return cls(
            seq=int(payload["seq"]),  # type: ignore[arg-type]
            name=str(payload["name"]),
            category=str(payload["category"]),
            start=float(payload["start"]),  # type: ignore[arg-type]
            duration=float(payload["duration"]),  # type: ignore[arg-type]
            self_duration=float(payload["self_duration"]),  # type: ignore[arg-type]
            depth=int(payload["depth"]),  # type: ignore[arg-type]
            parent=None if payload.get("parent") is None
            else int(payload["parent"]),  # type: ignore[arg-type]
            track=int(payload.get("track", 0)),  # type: ignore[arg-type]
            attrs=dict(payload.get("attrs", {})),  # type: ignore[arg-type]
        )


class _OpenSpan:
    """Bookkeeping for a span between ``span_open`` and ``span_close``."""

    __slots__ = ("name", "category", "start_ts", "depth", "parent",
                 "attrs", "child_duration")

    def __init__(self, name: str, category: str, start_ts: float,
                 depth: int, parent: Optional[int],
                 attrs: Dict[str, object]) -> None:
        self.name = name
        self.category = category
        self.start_ts = start_ts
        self.depth = depth
        self.parent = parent
        self.attrs = attrs
        self.child_duration = 0.0


class TraceRecorder:
    """Collects per-call spans emitted by a profiler.

    Timestamps are whatever clock the emitting profiler uses; the first
    timestamp seen becomes the recorder's epoch, so recorded ``start``
    values are relative seconds.  Span sequence numbers are assigned at
    open time, numbering spans in start order (parents before children).

    ``track_memory=True`` turns on :mod:`tracemalloc` (if it is not
    already running) and samples the peak traced allocation per span.
    """

    def __init__(self, track_memory: bool = False) -> None:
        self._spans: List[TraceSpan] = []
        self._open: Dict[int, _OpenSpan] = {}
        self._stack: List[int] = []
        self._seq = itertools.count()
        self._epoch: Optional[float] = None
        self._context: Dict[str, object] = {}
        self.track_memory = bool(track_memory)
        self._started_tracemalloc = False

    # ------------------------------------------------------------------
    # Context and lifecycle

    def set_context(self, **fields: object) -> None:
        """Replace the run context stamped onto subsequently opened spans.

        ``None`` values are dropped, so callers can pass optional fields
        unconditionally.
        """
        self._context = {
            key: value for key, value in fields.items() if value is not None
        }

    def finish(self) -> None:
        """Release resources (stops tracemalloc if this recorder started it)."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    def __enter__(self) -> "TraceRecorder":
        """Context-manager entry: returns the recorder itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Always release resources — tracemalloc must stop even when the
        traced run raises mid-suite."""
        self.finish()

    # ------------------------------------------------------------------
    # Emission (called by KernelProfiler)

    def span_open(self, name: str, category: str, timestamp: float) -> int:
        """Open a span at ``timestamp``; returns its sequence number."""
        if self._epoch is None:
            self._epoch = timestamp
        seq = next(self._seq)
        parent = self._stack[-1] if self._stack else None
        record = _OpenSpan(
            name=name,
            category=category,
            start_ts=timestamp,
            depth=len(self._stack),
            parent=parent,
            attrs=dict(self._context),
        )
        if self.track_memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            tracemalloc.reset_peak()
        self._open[seq] = record
        self._stack.append(seq)
        return seq

    def span_close(self, seq: int, timestamp: float,
                   self_duration: Optional[float] = None) -> TraceSpan:
        """Close span ``seq`` at ``timestamp`` and return the record.

        When ``self_duration`` is omitted it is derived as the inclusive
        duration minus the inclusive durations of direct children — for
        matching timestamps this is bit-identical to the profiler's
        exclusive attribution.

        Memory caveat: ``memory_peak_bytes`` is the tracemalloc peak
        since the *most recent* span open (``reset_peak`` is per-process,
        not per-span), so for a span with traced children it reflects the
        tail segment after the last child closed, not the whole span.
        """
        if not self._stack or self._stack[-1] != seq:
            raise RuntimeError(
                f"span_close({seq}) does not match the innermost open span"
            )
        self._stack.pop()
        record = self._open.pop(seq)
        duration = timestamp - record.start_ts
        if self_duration is None:
            self_duration = max(0.0, duration - record.child_duration)
        if record.parent is not None and record.parent in self._open:
            self._open[record.parent].child_duration += duration
        attrs = record.attrs
        if self.track_memory and tracemalloc.is_tracing():
            attrs["memory_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
        span = TraceSpan(
            seq=seq,
            name=record.name,
            category=record.category,
            start=record.start_ts - (self._epoch or record.start_ts),
            duration=duration,
            self_duration=self_duration,
            depth=record.depth,
            parent=record.parent,
            attrs=attrs,
        )
        self._spans.append(span)
        return span

    def annotate_current(self, **attrs: float) -> None:
        """Accumulate numeric attributes onto the innermost open span.

        Used by the kernel dispatch layer to attach work counts (flops,
        traffic bytes) to whatever profiler span is currently running.
        Values add onto any existing numeric value under the same key, so
        several kernel calls inside one span sum naturally.  A no-op when
        no span is open.
        """
        if not self._stack:
            return
        record = self._open[self._stack[-1]]
        for key, value in attrs.items():
            previous = record.attrs.get(key, 0.0)
            if isinstance(previous, (int, float)):
                record.attrs[key] = float(previous) + float(value)
            else:
                record.attrs[key] = float(value)

    def abandon_open(self, timestamp: float) -> None:
        """Close any still-open spans at ``timestamp``, innermost first.

        Called when a profiler is reset mid-run so the recorder never
        carries dangling open spans; abandoned spans are flagged with
        ``attrs["abandoned"] = True``.
        """
        while self._stack:
            seq = self._stack[-1]
            self._open[seq].attrs["abandoned"] = True
            self.span_close(seq, timestamp)

    # ------------------------------------------------------------------
    # Results

    @property
    def spans(self) -> List[TraceSpan]:
        """Completed spans in start (sequence) order."""
        return sorted(self._spans, key=lambda span: span.seq)

    @property
    def events(self) -> int:
        """Number of completed spans."""
        return len(self._spans)

    def kernel_self_seconds(self) -> Dict[str, float]:
        """Summed exclusive seconds per kernel, from the recorded spans.

        Agrees with :attr:`KernelProfiler.kernel_seconds` for a
        single-profiler trace (same clock, same subtraction).
        """
        totals: Dict[str, float] = {}
        for span in self._spans:
            if span.category != CATEGORY_KERNEL:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.self_duration
        return totals

    # ------------------------------------------------------------------
    # Cross-process merging

    def to_serialized(self) -> List[Dict[str, object]]:
        """Spans as plain dictionaries (picklable / JSON-ready)."""
        return [span.to_dict() for span in self.spans]

    def absorb(self, serialized: Sequence[Dict[str, object]],
               track: Optional[int] = None) -> None:
        """Merge spans recorded elsewhere (e.g. a pool worker).

        Sequence numbers and parent links are re-based onto this
        recorder's counter so merged spans never collide; ``track``
        (default: the next free lane) separates the absorbed cell in
        timeline views, since each worker has its own t=0.
        """
        if not serialized:
            return
        if track is None:
            track = max((span.track for span in self._spans), default=-1) + 1
        remap: Dict[int, int] = {}
        for payload in serialized:
            span = TraceSpan.from_dict(payload)
            new_seq = next(self._seq)
            remap[span.seq] = new_seq
            span.seq = new_seq
            if span.parent is not None:
                span.parent = remap.get(span.parent)
            span.track = track
            self._spans.append(span)


# ----------------------------------------------------------------------
# Run manifests


def run_manifest(argv: Optional[Sequence[str]] = None,
                 warmup: int = 0, repeats: int = 1,
                 jobs: int = 1,
                 backend: Optional[str] = None,
                 instrumentation: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """The reproducibility header attached to JSON exports and traces.

    Records the Table III host rows (:func:`system_configuration`), the
    software versions that determine numeric behaviour, the CLI arguments
    that produced the run, the measurement knobs, and the kernel
    execution backend (``measurement.backend``: loop-faithful ``ref`` vs
    vectorized ``fast`` — timings from the two are not comparable, so
    every export says which one it measured).  ``backend=None`` records
    the process's current selection.

    ``instrumentation`` optionally attaches the measured per-probe
    profiler overhead (the payload of
    :func:`~repro.core.profiler.measure_probe_overhead`) so consumers of
    the export can judge how much of each kernel's time is probe cost.
    The key is additive — the manifest schema stays v1 and older readers
    ignore it.
    """
    from .backend import active_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unavailable"
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": system_configuration(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "argv": list(argv) if argv is not None else [],
        "measurement": {"warmup": warmup, "repeats": repeats, "jobs": jobs,
                        "backend": backend or active_backend()},
    }
    if instrumentation is not None:
        manifest["instrumentation"] = dict(instrumentation)
    return manifest


# ----------------------------------------------------------------------
# Exporters


def chrome_trace_dict(spans: Iterable[TraceSpan],
                      manifest: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
    """Chrome trace-event (object-form) payload for ``chrome://tracing``.

    Every span becomes one complete ('X') event with microsecond
    ``ts``/``dur``; exclusive time and the run context ride in ``args``.
    The manifest lands under ``metadata`` (the object form allows extra
    keys; Perfetto shows them in trace info).
    """
    events: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: s.seq):
        args: Dict[str, object] = {
            "seq": span.seq,
            "depth": span.depth,
            "self_us": span.self_duration * 1e6,
        }
        if span.parent is not None:
            args["parent"] = span.parent
        args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": span.track + 1,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": manifest if manifest is not None else run_manifest(),
    }


def chrome_trace_json(spans: Iterable[TraceSpan],
                      manifest: Optional[Dict[str, object]] = None,
                      indent: int = 2) -> str:
    """Serialize :func:`chrome_trace_dict` to a JSON string."""
    return json.dumps(chrome_trace_dict(spans, manifest), indent=indent,
                      sort_keys=True)


def events_to_jsonl(spans: Iterable[TraceSpan],
                    manifest: Optional[Dict[str, object]] = None) -> str:
    """Structured JSONL event log: one manifest header line, one span per line."""
    header = {
        "type": "manifest",
        "schema": EVENTS_SCHEMA,
        "manifest": manifest if manifest is not None else run_manifest(),
    }
    lines = [json.dumps(header, sort_keys=True)]
    for span in sorted(spans, key=lambda s: s.seq):
        lines.append(json.dumps({"type": "span", **span.to_dict()},
                                sort_keys=True))
    return "\n".join(lines) + "\n"


def events_from_jsonl(text: str, strict: bool = False
                      ) -> Tuple[Optional[Dict[str, object]], List[TraceSpan]]:
    """Parse an :func:`events_to_jsonl` log back into (manifest, spans).

    Event logs are append-streamed, so a crashed or still-writing run
    leaves a truncated final line; by default malformed lines (bad JSON,
    unknown type, missing span fields) are skipped with a single
    :class:`RuntimeWarning` reporting how many were dropped.  Pass
    ``strict=True`` to raise on the first bad line instead.
    """
    manifest: Optional[Dict[str, object]] = None
    spans: List[TraceSpan] = []
    skipped = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            kind = payload.get("type")
            if kind == "manifest":
                manifest = payload.get("manifest")
            elif kind == "span":
                spans.append(TraceSpan.from_dict(payload))
            else:
                raise ValueError(f"unknown event type {kind!r}")
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise ValueError(
                    f"malformed event log line {lineno}: {exc}"
                ) from exc
            skipped += 1
    if skipped:
        warnings.warn(
            f"skipped {skipped} malformed event log line(s)",
            RuntimeWarning,
            stacklevel=2,
        )
    spans.sort(key=lambda s: s.seq)
    return manifest, spans
