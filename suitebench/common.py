"""Shared pieces of the suite benchmark: statistics, spans, manifest, RSS.

Everything here is benchmark-side code: it calls into ``repro`` only
through its public modules and never changes how the program runs.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from typing import Dict, Iterable, Sequence


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans) -> Dict[str, float]:
    """Summed self seconds per span name.

    A span's self time is its duration minus the part covered by its
    direct children; :class:`repro.core.tracing.TraceRecorder` stores
    exactly that as ``self_duration`` when no override is given.
    """
    out: Dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.self_duration
    return out


class Spans:
    """Benchmark-side spans around calls into each layer.

    A thin helper over a :class:`~repro.core.tracing.TraceRecorder`
    (one per thread: the recorder keeps a single nesting stack), so the
    spans share the program's trace format and can be written with its
    chrome-trace exporter.  ``None`` as recorder disables recording.
    """

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def open(self, name: str, category: str = "bench") -> int:
        if self.recorder is None:
            return -1
        return self.recorder.span_open(name, category, time.perf_counter())

    def close(self, seq: int) -> None:
        if self.recorder is not None:
            self.recorder.span_close(seq, time.perf_counter())


def write_trace(path: str, recorder, manifest: Dict[str, object]) -> int:
    """Write the recorder's spans as a chrome trace; returns span count."""
    from repro.core.tracing import chrome_trace_json

    spans = list(recorder.spans)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(spans, manifest))
    return len(spans)


def manifest(workload: str, seed: int, seconds: int, trace: bool,
             definition: Dict[str, object]) -> Dict[str, object]:
    """Run manifest: host, software, backend, seed and workload definition.

    Host rows come from :func:`repro.core.sysinfo.system_configuration`
    so a 2-CPU figure is never read against a table taken on another
    host.
    """
    import numpy

    from repro.core.backend import active_backend
    from repro.core.history import current_commit
    from repro.core.sysinfo import system_configuration

    host = system_configuration()
    return {
        "schema": "sdvbs-repro/suite-bench/v1",
        "commit": current_commit(),
        "nproc": os.cpu_count() or 1,
        "cpu": host.get("Processors", "unknown"),
        "l2": _cache(host, "L2"),
        "l3": _cache(host, "L3"),
        "host": host,
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "numpy": numpy.__version__,
        "blas": _blas_name(numpy),
        "backend": active_backend(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "definition": definition,
    }


def _cache(host: Dict[str, str], level: str) -> str:
    """First cache row of ``level`` (sysinfo labels them "L2 cache (...)")."""
    for label, description in host.items():
        if label.startswith(f"{level} cache"):
            return description.split(",")[0]
    return "unknown"


def _blas_name(numpy) -> str:
    """The BLAS numpy links, as numpy's build config reports it."""
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except Exception:  # noqa: BLE001 — older numpy: no dict mode
        return "unknown"

