"""Operational telemetry for the benchmark service: logs, /metrics, top.

PR 8 made ``sdvbs serve`` a long-running system; this module makes it
*observable*.  SD-VBS characterizes vision workloads by where their time
goes (Figures 2/3), and the serving path deserves the same treatment: an
operator must be able to answer "what is the server doing right now, and
where did this job's time go" without attaching a debugger.  Three
pieces, all stdlib:

* :class:`EventLog` — a leveled, structured JSON-lines event logger.
  One event per request, admission decision, state transition, eviction,
  cache hit and worker pick-up lands in a bounded ring buffer (always)
  and an optional append-only file sink.  The HTTP access log rides the
  same channel, so every line an operator greps has the same shape.
* A **Prometheus text-exposition renderer** over
  :class:`~repro.core.metrics.MetricsRegistry`: counters become
  ``_total`` series, gauges read from the live state pass through, and
  :class:`~repro.core.metrics.LogHistogram` instruments render as
  cumulative ``_bucket``/``_sum``/``_count`` series with proper
  ``HELP``/``TYPE`` lines and label escaping.  Labels use the
  :func:`metric_key` convention — registry keys stay flat strings, the
  renderer parses them back into families.  :func:`lint_exposition`
  re-parses the output (CI uses it as a line-format gate).
* :func:`top_snapshot` / :func:`render_top` — the data model and
  terminal view behind ``sdvbs top``: queue depth, per-state job
  counts, worker utilization, cache hit rate and per-job-type
  queue-wait / execution-latency percentiles, folded from one
  ``server.info`` payload per frame.

Everything here is pull-based and allocation-bounded: the ring buffer
caps memory, histograms are already bounded, and the exposition is
rendered from a locked snapshot so a scrape never observes a torn
histogram.
"""

from __future__ import annotations

import io
import json
import re
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .metrics import LogHistogram, MetricsRegistry

#: Schema stamp carried by every structured log record.
EVENTS_SCHEMA = "sdvbs-repro/serve-events/v1"

#: Severity levels, least severe first (index = rank).
LEVELS = ("debug", "info", "warning", "error")

#: The content type Prometheus scrapers expect for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default namespace prefixed onto every exposed metric name.
METRICS_NAMESPACE = "sdvbs"


# ----------------------------------------------------------------------
# Structured JSON-lines event log


class EventLog:
    """Leveled structured logger: bounded ring buffer + optional sink.

    Every event is one JSON object ``{"ts", "level", "event", ...}``
    with caller-supplied fields flattened in.  The newest ``capacity``
    records are always retained in memory (an operator can pull them
    over RPC without any file configured); a ``sink`` — a path or a
    writable text file object — additionally receives every record as
    one JSON line, flushed per event so a crash loses at most the line
    being written.

    Events below ``level`` are counted (``suppressed``) but neither
    buffered nor written; the threshold is mutable at runtime.  All
    methods are thread-safe behind one lock — emitters are request
    handlers and worker threads.

    A sink write error (full disk, closed file) disables the sink so it
    can never take the server down — but *observably*: the error text is
    kept as ``sink_error``, the monotonic ``sink_disabled`` counter
    increments, a ``warning`` event lands in the ring buffer, and the
    optional ``on_sink_disabled`` hook fires (the job manager points it
    at its metrics registry so ``/metrics`` carries the loss).
    """

    def __init__(self, capacity: int = 2048,
                 sink: Optional[object] = None,
                 level: str = "debug",
                 clock: Callable[[], float] = time.time) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r} (choose from "
                             f"{', '.join(LEVELS)})")
        self.capacity = int(capacity)
        self.level = level
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: List[Dict[str, object]] = []
        self._start = 0  # ring read offset
        self.emitted = 0
        self.suppressed = 0
        #: Times a file sink was disabled by a write error (monotonic).
        self.sink_disabled = 0
        #: The error that disabled the most recent sink, or ``None``.
        self.sink_error: Optional[str] = None
        #: Optional hook called with the error text on sink disable.
        self.on_sink_disabled: Optional[Callable[[str], None]] = None
        self._file: Optional[io.TextIOBase] = None
        self._owns_file = False
        if sink is not None:
            if isinstance(sink, (str, bytes)):
                self._file = open(sink, "a", encoding="utf-8")  # noqa: SIM115 — long-lived sink
                self._owns_file = True
            else:
                self._file = sink  # type: ignore[assignment]

    # ------------------------------------------------------------------

    def emit(self, event: str, level: str = "info",
             **fields: object) -> Optional[Dict[str, object]]:
        """Record one event; returns the record or ``None`` if suppressed.

        ``None``-valued fields are dropped so callers can pass optional
        context (request ids, errors) unconditionally.
        """
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        record: Dict[str, object] = {
            "ts": round(float(self._clock()), 6),
            "level": level,
            "event": event,
        }
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        hook: Optional[Callable[[str], None]] = None
        sink_error: Optional[str] = None
        with self._lock:
            if LEVELS.index(level) < LEVELS.index(self.level):
                self.suppressed += 1
                return None
            self.emitted += 1
            self._append(record)
            if self._file is not None:
                try:
                    self._file.write(json.dumps(record, sort_keys=True)
                                     + "\n")
                    self._file.flush()
                except (OSError, ValueError) as exc:
                    # A full disk or a closed sink must never take the
                    # server down; the ring buffer still has the event.
                    # But the loss must be *visible*: count it, keep the
                    # reason, and leave a warning in the ring (bypassing
                    # the level threshold — an operator silencing info
                    # noise still needs to learn their log file died).
                    self._file = None
                    self.sink_disabled += 1
                    sink_error = f"{type(exc).__name__}: {exc}"
                    self.sink_error = sink_error
                    self.emitted += 1
                    self._append({
                        "ts": record["ts"],
                        "level": "warning",
                        "event": "events.sink_disabled",
                        "error": sink_error,
                    })
                    hook = self.on_sink_disabled
        if hook is not None and sink_error is not None:
            # Outside the lock: the hook typically pokes a metrics
            # registry with its own locking.
            hook(sink_error)
        return record

    def _append(self, record: Dict[str, object]) -> None:
        """Ring-buffer append; caller must hold the lock."""
        if len(self._ring) < self.capacity:
            self._ring.append(record)
        else:
            self._ring[self._start] = record
            self._start = (self._start + 1) % self.capacity

    def recent(self, limit: int = 100, level: Optional[str] = None,
               event: Optional[str] = None) -> List[Dict[str, object]]:
        """The newest matching records, oldest first."""
        if level is not None and level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        with self._lock:
            ordered = (self._ring[self._start:] + self._ring[:self._start])
        if level is not None:
            floor = LEVELS.index(level)
            ordered = [r for r in ordered
                       if LEVELS.index(str(r["level"])) >= floor]
        if event is not None:
            ordered = [r for r in ordered if r["event"] == event]
        return ordered[-max(1, int(limit)):]

    def close(self) -> None:
        """Close the file sink if this log opened it."""
        with self._lock:
            if self._file is not None and self._owns_file:
                self._file.close()
            self._file = None


# ----------------------------------------------------------------------
# Label convention for flat MetricsRegistry keys


_LABEL_RE = re.compile(r"^(?P<name>[^{]+)\{(?P<labels>.*)\}$")


def metric_key(name: str, **labels: object) -> str:
    """Encode ``name`` plus labels into one flat registry key.

    ``MetricsRegistry`` keys are plain strings; this convention —
    ``name{k=v,k2=v2}`` with keys sorted — lets instruments carry
    Prometheus-style dimensions (``job.exec_seconds{type=run}``) while
    the registry stays a dictionary.  :func:`parse_metric_key` inverts
    it.  Label values must not contain ``,`` ``=`` ``{`` ``}``.
    """
    if not labels:
        return name
    for key, value in labels.items():
        text = str(value)
        if any(ch in text for ch in ",={}"):
            raise ValueError(f"label value {text!r} contains a reserved "
                             "character")
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a :func:`metric_key` back into ``(name, labels)``."""
    match = _LABEL_RE.match(key)
    if match is None:
        return key, {}
    labels: Dict[str, str] = {}
    inner = match.group("labels")
    if inner:
        for part in inner.split(","):
            label, _, value = part.partition("=")
            labels[label] = value
    return match.group("name"), labels


# ----------------------------------------------------------------------
# Prometheus text exposition

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: HELP strings for the serving layer's metric catalog (SERVING.md).
HELP_TEXT: Dict[str, str] = {
    "jobs.submitted": "Job submissions received (before admission)",
    "jobs.accepted": "Jobs admitted into the queue",
    "jobs.completed": "Jobs that finished successfully",
    "jobs.failed": "Jobs whose executor raised",
    "jobs.cancelled": "Queued jobs cancelled by a client",
    "jobs.evicted": "Queued jobs evicted by high-priority submissions",
    "rejected.queue_full": "Submissions rejected at the hard queue cap",
    "rejected.backpressure":
        "Submissions rejected by watermark backpressure",
    "rejected.rate_limited":
        "Submissions rejected by the per-client token bucket",
    "cache.hits": "Submissions served from the result cache",
    "cache.misses": "Admitted submissions that missed the result cache",
    "history.recorded_cells": "Suite cells recorded into the history store",
    "http.requests": "HTTP requests handled, by method",
    "queue.depth": "Jobs currently queued (not yet picked up)",
    "workers.busy": "Worker threads currently executing a job",
    "workers.total": "Worker threads in the pool",
    "server.saturated":
        "1 while watermark backpressure admits only high priority",
    "server.shutting_down": "1 once shutdown has been requested",
    "jobs.state": "Jobs currently in each lifecycle state",
    "job.queue_wait_seconds":
        "Seconds a job waited in the queue before a worker picked it up",
    "job.exec_seconds": "Seconds a worker spent executing a job",
    "http.request_seconds": "HTTP request handling latency",
    "events.sink_disabled":
        "Event-log file sinks disabled after a write error",
}


def sanitize_metric_name(name: str, namespace: str = METRICS_NAMESPACE
                         ) -> str:
    """Map an internal metric name onto a legal Prometheus name.

    Dots, slashes and dashes become underscores, illegal characters are
    dropped, and the namespace is prefixed (``jobs.submitted`` →
    ``sdvbs_jobs_submitted``).  Idempotent on already-legal names.
    """
    flat = re.sub(r"[./\- ]", "_", name)
    flat = re.sub(r"[^a-zA-Z0-9_:]", "", flat)
    flat = re.sub(r"__+", "_", flat).strip("_")
    if not flat:
        flat = "metric"
    if flat[0].isdigit():
        flat = "_" + flat
    if namespace:
        return f"{namespace}_{flat}"
    return flat


def sanitize_label_name(name: str) -> str:
    """Map a label key onto ``[a-zA-Z_][a-zA-Z0-9_]*`` (never empty)."""
    flat = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    flat = re.sub(r"__+", "_", flat).strip("_") or "label"
    if flat[0].isdigit():
        flat = "_" + flat
    return flat


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition format."""
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def escape_help(text: str) -> str:
    """Backslash-escape a HELP string per the exposition format."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_fragment(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_label_name(key)}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels))
    return "{" + inner + "}"


def _histogram_lines(name: str, labels: Mapping[str, str],
                     histogram: LogHistogram) -> List[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` lines for one series.

    Bucket bounds are the histogram's occupied log-bucket upper edges;
    cumulative counts are monotone by construction and the ``+Inf``
    bucket equals the exact observation count, so the rendered series
    agrees with the registry's aggregates no matter how many samples
    were folded into the bounded buckets.
    """
    lines: List[str] = []
    cumulative = 0
    for _low, high, bucket_count in histogram.nonzero_buckets():
        cumulative += bucket_count
        bucket_labels = dict(labels)
        bucket_labels["le"] = repr(float(high))
        lines.append(f"{name}_bucket{_labels_fragment(bucket_labels)} "
                     f"{cumulative}")
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(f"{name}_bucket{_labels_fragment(inf_labels)} "
                 f"{histogram.count}")
    lines.append(f"{name}_sum{_labels_fragment(labels)} "
                 f"{repr(float(histogram.total))}")
    lines.append(f"{name}_count{_labels_fragment(labels)} "
                 f"{histogram.count}")
    return lines


def render_prometheus(registry: MetricsRegistry,
                      namespace: str = METRICS_NAMESPACE,
                      help_text: Optional[Mapping[str, str]] = None,
                      gauges: Optional[Mapping[str, float]] = None
                      ) -> str:
    """Render a registry as Prometheus text exposition (version 0.0.4).

    Counters render as ``<ns>_<name>_total`` with ``TYPE counter``,
    ``gauges`` (read from live state by the caller, such as the job
    manager's) pass through with ``TYPE gauge``, and every
    :class:`LogHistogram` renders as a cumulative
    ``_bucket``/``_sum``/``_count`` family with ``TYPE histogram``.
    Series sharing a base name (the :func:`metric_key` label
    convention) are grouped under one ``HELP``/``TYPE`` header.  The
    snapshot APIs of the registry are used throughout, so a render
    taken while workers mutate counters is internally consistent.
    """
    helps = dict(HELP_TEXT)
    if help_text:
        helps.update(help_text)

    def help_for(base: str) -> str:
        return escape_help(helps.get(base, f"sdvbs metric {base}"))

    lines: List[str] = []

    def families(flat: Mapping[str, object]) -> "Dict[str, List[Tuple[Dict[str, str], object]]]":
        grouped: Dict[str, List[Tuple[Dict[str, str], object]]] = {}
        for key in sorted(flat):
            base, labels = parse_metric_key(key)
            grouped.setdefault(base, []).append((labels, flat[key]))
        return grouped

    for base, series in families(registry.counters).items():
        name = sanitize_metric_name(base, namespace)
        if not name.endswith("_total"):
            name += "_total"
        lines.append(f"# HELP {name} {help_for(base)}")
        lines.append(f"# TYPE {name} counter")
        for labels, value in series:
            lines.append(f"{name}{_labels_fragment(labels)} "
                         f"{_format_value(float(value))}")  # type: ignore[arg-type]
    for base, series in families(gauges or {}).items():
        name = sanitize_metric_name(base, namespace)
        lines.append(f"# HELP {name} {help_for(base)}")
        lines.append(f"# TYPE {name} gauge")
        for labels, value in series:
            lines.append(f"{name}{_labels_fragment(labels)} "
                         f"{_format_value(float(value))}")  # type: ignore[arg-type]
    for base, series in families(registry.histogram_snapshot()).items():
        name = sanitize_metric_name(base, namespace)
        lines.append(f"# HELP {name} {help_for(base)}")
        lines.append(f"# TYPE {name} histogram")
        for labels, histogram in series:
            lines.extend(_histogram_lines(name, labels, histogram))  # type: ignore[arg-type]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Exposition linting (tests + the CI serve-smoke gate)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$")


def lint_exposition(text: str) -> Dict[str, List[Tuple[Dict[str, str],
                                                       float]]]:
    """Parse exposition text; raise ``ValueError`` on any malformed line.

    Checks the line grammar (metric and label names, numeric values),
    that every sample is preceded by a ``TYPE`` line for its family, and
    that histogram families are internally consistent: cumulative
    ``_bucket`` counts are monotone non-decreasing in ``le`` order, the
    ``+Inf`` bucket exists and equals ``_count``.  Returns the parsed
    samples grouped by metric name — the helper the tests and the CI
    smoke job assert against.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_OK.match(parts[2]):
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if (len(parts) != 4 or not _NAME_OK.match(parts[2])
                    or parts[3] not in ("counter", "gauge", "histogram",
                                        "summary", "untyped")):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for part in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]'
                                   r'|\\.)*)"', raw):
                labels[part[0]] = (part[1].replace(r'\"', '"')
                                   .replace(r"\n", "\n")
                                   .replace(r"\\", "\\"))
        try:
            value = float(match.group("value").replace("+Inf", "inf"))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value: "
                             f"{line!r}") from None
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and family not in typed:
            raise ValueError(f"line {lineno}: sample {name!r} has no "
                             "preceding TYPE line")
        samples.setdefault(name, []).append((labels, value))
    _check_histograms(samples, typed)
    return samples


def _check_histograms(samples: Mapping[str, List[Tuple[Dict[str, str],
                                                       float]]],
                      typed: Mapping[str, str]) -> None:
    for family, kind in typed.items():
        if kind != "histogram":
            continue
        buckets = samples.get(f"{family}_bucket", [])
        counts = dict()
        for labels, value in samples.get(f"{family}_count", []):
            counts[tuple(sorted(labels.items()))] = value
        series: Dict[Tuple[Tuple[str, str], ...],
                     List[Tuple[float, float]]] = {}
        for labels, value in buckets:
            le = labels.get("le")
            if le is None:
                raise ValueError(f"{family}_bucket sample without le label")
            bound = float("inf") if le == "+Inf" else float(le)
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            series.setdefault(key, []).append((bound, value))
        for key, points in series.items():
            points.sort(key=lambda p: p[0])
            previous = -1.0
            for bound, value in points:
                if value < previous:
                    raise ValueError(
                        f"{family}_bucket{dict(key)} not cumulative at "
                        f"le={bound}")
                previous = value
            if points[-1][0] != float("inf"):
                raise ValueError(f"{family}_bucket{dict(key)} missing "
                                 "+Inf bucket")
            if key in counts and points[-1][1] != counts[key]:
                raise ValueError(
                    f"{family}: +Inf bucket {points[-1][1]} != _count "
                    f"{counts[key]}")


# ----------------------------------------------------------------------
# ``sdvbs top``: snapshot model + terminal rendering


def top_snapshot(info: Mapping[str, object]) -> Dict[str, object]:
    """Fold one ``server.info`` payload into one top frame.

    Config, job-state counts, cache, worker gauges and the per-job-type
    queue-wait / execution-latency block all come from the same
    payload, so a frame shows one moment of the server.  The result is
    JSON-ready — ``sdvbs top --once --json`` prints it verbatim for
    scripting.
    """
    gauges: Mapping[str, object] = info.get("gauges", {})  # type: ignore[assignment]
    counters: Mapping[str, object] = info.get("counters", {})  # type: ignore[assignment]
    cache: Mapping[str, object] = info.get("cache", {})  # type: ignore[assignment]
    config: Mapping[str, object] = info.get("config", {})  # type: ignore[assignment]
    workers_total = int(config.get("workers", 0) or 0)
    busy = int(float(gauges.get("running", 0) or 0))  # type: ignore[arg-type]
    hits = float(cache.get("hits", 0) or 0)  # type: ignore[arg-type]
    misses = float(counters.get("cache.misses",
                                counters.get("jobs.accepted", 0)) or 0)  # type: ignore[arg-type]
    lookups = hits + misses
    phases_by_type: Mapping[str, Mapping[str, Mapping[str, float]]] = \
        info.get("latency", {})  # type: ignore[assignment]
    latency = {
        job_type: {slot: {stat: float(summary.get(stat, 0.0))
                          for stat in ("count", "sum", "mean", "p50",
                                       "p95", "p99")}
                   for slot, summary in phases.items()}
        for job_type, phases in phases_by_type.items()
    }
    rejected = sum(
        float(value) for name, value in counters.items()  # type: ignore[arg-type]
        if str(name).startswith("rejected."))
    events_info = info.get("events")
    sink_disabled = 0
    if isinstance(events_info, Mapping):
        sink_disabled = int(events_info.get("sink_disabled", 0) or 0)  # type: ignore[arg-type]
    return {
        "queue_depth": int(float(gauges.get("queue_depth", 0) or 0)),  # type: ignore[arg-type]
        "saturated": bool(int(float(gauges.get("saturated", 0) or 0))),  # type: ignore[arg-type]
        "shutting_down": bool(info.get("shutting_down", False)),
        "uptime_s": float(info.get("uptime_s", 0.0) or 0.0),  # type: ignore[arg-type]
        "workers": {
            "busy": busy,
            "total": workers_total,
            "utilization_pct": round(100.0 * busy / workers_total, 1)
            if workers_total else 0.0,
        },
        "jobs": {str(k): int(v) for k, v in  # type: ignore[arg-type]
                 dict(info.get("jobs", {})).items()},  # type: ignore[arg-type]
        "cache": {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate_pct": round(100.0 * hits / lookups, 1)
            if lookups else 0.0,
        },
        "rejected": int(rejected),
        "sink_disabled": sink_disabled,
        "latency": latency,
    }


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:9.1f}"


def render_top(snapshot: Mapping[str, object]) -> str:
    """One ``sdvbs top`` frame as fixed-width terminal text."""
    workers: Mapping[str, object] = snapshot.get("workers", {})  # type: ignore[assignment]
    cache: Mapping[str, object] = snapshot.get("cache", {})  # type: ignore[assignment]
    jobs: Mapping[str, object] = snapshot.get("jobs", {})  # type: ignore[assignment]
    state = "DRAINING" if snapshot.get("shutting_down") else (
        "SATURATED" if snapshot.get("saturated") else "ok")
    uptime = float(snapshot.get("uptime_s", 0.0))  # type: ignore[arg-type]
    lines = [
        f"sdvbs top — {state}   uptime {uptime:8.1f}s",
        f"queue {snapshot.get('queue_depth', 0):>4}   workers "
        f"{workers.get('busy', 0)}/{workers.get('total', 0)} "
        f"({workers.get('utilization_pct', 0.0)}% busy)   "
        f"cache {cache.get('hits', 0)} hit / {cache.get('misses', 0)} miss "
        f"({cache.get('hit_rate_pct', 0.0)}%)   "
        f"rejected {snapshot.get('rejected', 0)}",
        "",
        "  state      " + "".join(f"{s:>11}" for s in (
            "queued", "running", "done", "failed", "cancelled", "evicted")),
        "  jobs       " + "".join(
            f"{int(jobs.get(s, 0)):>11}" for s in  # type: ignore[arg-type]
            ("queued", "running", "done", "failed", "cancelled",
             "evicted")),
        "",
        "  type       phase            count    p50 ms    p95 ms    p99 ms",
    ]
    latency: Mapping[str, Mapping[str, Mapping[str, float]]] = \
        snapshot.get("latency", {})  # type: ignore[assignment]
    if not latency:
        lines.append("  (no completed jobs yet)")
    for job_type in sorted(latency):
        for slot, label in (("queue_wait", "queue-wait"), ("exec", "exec")):
            summary = latency[job_type].get(slot)
            if summary is None:
                continue
            lines.append(
                f"  {job_type:<10} {label:<12} {int(summary['count']):>8}"
                f" {_fmt_ms(summary['p50'])} {_fmt_ms(summary['p95'])}"
                f" {_fmt_ms(summary['p99'])}")
    sink_disabled = int(snapshot.get("sink_disabled", 0) or 0)  # type: ignore[arg-type]
    if sink_disabled:
        lines.append("")
        lines.append(f"  WARNING: event-log sink disabled "
                     f"({sink_disabled} time(s)) — file logging lost")
    return "\n".join(lines) + "\n"
