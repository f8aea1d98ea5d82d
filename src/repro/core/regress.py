"""Noise-aware performance-regression detection.

The comparison layer (:mod:`repro.core.compare`) answers "how much faster
is B than A"; this module answers the CI question "did this commit make
anything *meaningfully* slower".  A cell is flagged as a regression only
when both gates pass:

* **statistical** — the median shift exceeds ``sigmas`` times the
  combined recorded repeat noise (:meth:`SpeedupEntry.is_significant`,
  the same k·σ test the comparison table prints), and
* **practical** — the relative slowdown is at least ``min_slowdown``
  (default 10%), so a statistically resolvable 1% wobble on a quiet
  machine does not fail a build.

Cells without noise estimates (single-shot runs, pre-v2 exports) can
never be *confirmed* regressions — they report ``insufficient data``
rather than crying wolf, which makes the gate soft exactly where the
measurements are weak.  Baselines come from either a second export file
or the persistent history store (:mod:`repro.core.history`), defaulting
to the most recently recorded other commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .compare import SpeedupEntry
from .flamediff import attribute_delta, diff_profiles
from .history import HistoryEntry, cell_profiles
from .report import format_table
from .sampling import SampledProfile
from .types import InputSize, SuiteResult

#: Machine-readable verdict schema written by :func:`report_to_dict`.
REGRESS_SCHEMA = "sdvbs-repro/regress-verdict/v1"

#: Cell statuses, in decreasing order of severity.
STATUS_REGRESSION = "regression"
STATUS_IMPROVED = "improved"
STATUS_INSUFFICIENT = "insufficient data"
STATUS_WITHIN_NOISE = "within noise"
STATUS_OK = "ok"

#: One comparable cell: (median_seconds, stddev_or_None).
Cell = Tuple[float, Optional[float]]
#: Cells keyed by (benchmark, size name).
CellMap = Dict[Tuple[str, str], Cell]


def cells_from_result(result: SuiteResult) -> CellMap:
    """Per-(benchmark, size) medians and noise from a suite result."""
    cells: CellMap = {}
    for slug in result.benchmarks():
        for size in InputSize:
            median = result.median_total(slug, size)
            if median is None:
                continue
            cells[(slug, size.name)] = (median,
                                        result.total_stddev(slug, size))
    return cells


#: Streaming latency percentiles gated by default (p50 keeps the
#: median-vs-tail contrast visible in the same report).
LATENCY_METRICS = ("p50", "p95", "p99")


def _percentile_noise(streams: Sequence[Dict[str, object]],
                      merged_latency: Dict[str, object],
                      metric: str) -> Optional[float]:
    """Noise estimate (seconds) for one merged latency percentile.

    With two or more streams, the spread of the per-stream percentile
    values is a direct empirical noise measurement.  For a single
    stream there is no replicate, so the merged distribution's standard
    error of the mean serves as a rough proxy — conservative for tail
    percentiles, and honest about single-stream tails being noisy.
    Returns ``None`` (→ ``insufficient data``, never a confirmed
    regression) when neither estimate is available.
    """
    per_stream = [
        float(entry["latency_ms"][metric])  # type: ignore[index,call-overload]
        for entry in streams
        if metric in entry.get("latency_ms", {})  # type: ignore[union-attr,operator]
    ]
    if len(per_stream) >= 2:
        mu = sum(per_stream) / len(per_stream)
        var = sum((x - mu) ** 2 for x in per_stream) \
            / (len(per_stream) - 1)
        return (var ** 0.5) / 1000.0
    count = float(merged_latency.get("count", 0) or 0)  # type: ignore[arg-type]
    stddev = merged_latency.get("stddev")
    if stddev is not None and count >= 2:
        return float(stddev) / (count ** 0.5) / 1000.0  # type: ignore[arg-type]
    return None


def latency_cells_from_result(
        result: SuiteResult,
        metrics: Sequence[str] = LATENCY_METRICS) -> CellMap:
    """Streaming latency percentiles as regression cells.

    Reads the export's ``streaming`` block (schema v7) and emits one
    cell per gated percentile, keyed ``("disparity[p99]", "CIF")`` so
    tail latency rides the same two-gate noise logic as median runtime
    — a commit can now fail CI for a p99 blow-up even when the median
    is untouched.  Values are merged-across-streams percentiles in
    seconds.  Returns ``{}`` for batch exports without streaming data.
    """
    streaming = result.streaming
    if not streaming:
        return {}
    config: Dict[str, object] = streaming.get("config", {})  # type: ignore[assignment]
    merged: Dict[str, object] = streaming.get("merged", {})  # type: ignore[assignment]
    latency: Dict[str, object] = merged.get("latency_ms", {})  # type: ignore[assignment]
    streams: Sequence[Dict[str, object]] = streaming.get("streams", ())  # type: ignore[assignment]
    benchmark = config.get("benchmark")
    size = config.get("size")
    if not benchmark or not size:
        return {}
    cells: CellMap = {}
    for metric in metrics:
        value = latency.get(metric)
        if value is None:
            continue
        cells[(f"{benchmark}[{metric}]", str(size))] = (
            float(value) / 1000.0,  # type: ignore[arg-type]
            _percentile_noise(streams, latency, metric),
        )
    return cells


def export_cells(result: SuiteResult) -> CellMap:
    """Every gated cell of an export: run medians plus streaming latency."""
    cells = cells_from_result(result)
    cells.update(latency_cells_from_result(result))
    return cells


def cells_from_entries(entries: Sequence[HistoryEntry]) -> CellMap:
    """Per-(benchmark, size) medians and noise from history entries.

    When a commit was recorded more than once (several manifest hashes),
    the latest recording wins — it reflects the current machine state.
    """
    cells: CellMap = {}
    for entry in entries:
        cells[(entry.benchmark, entry.size)] = (entry.median_seconds,
                                                entry.stddev)
    return cells


@dataclass(frozen=True)
class RegressionEntry:
    """Verdict for one (benchmark, size) cell."""

    benchmark: str
    size: str
    baseline_seconds: float
    candidate_seconds: float
    baseline_stddev: Optional[float]
    candidate_stddev: Optional[float]
    status: str
    #: Profile-diff attribution block (:func:`flamediff.attribute_delta`
    #: output) attached by :func:`attribute_regressions` when both sides
    #: of a regressed cell have a stored profile; ``None`` otherwise.
    attribution: Optional[Dict[str, object]] = field(default=None,
                                                     compare=False)

    @property
    def relative_change(self) -> float:
        """Signed relative runtime change; positive means slower."""
        if self.baseline_seconds <= 0:
            return 0.0
        return (self.candidate_seconds - self.baseline_seconds) \
            / self.baseline_seconds

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "benchmark": self.benchmark,
            "size": self.size,
            "baseline_seconds": self.baseline_seconds,
            "candidate_seconds": self.candidate_seconds,
            "baseline_stddev": self.baseline_stddev,
            "candidate_stddev": self.candidate_stddev,
            "relative_change": self.relative_change,
            "status": self.status,
        }
        if self.attribution is not None:
            payload["attribution"] = self.attribution
        return payload


@dataclass
class RegressionReport:
    """All cell verdicts of one baseline/candidate comparison."""

    entries: List[RegressionEntry]
    sigmas: float
    min_slowdown: float
    baseline_label: str = "baseline"
    candidate_label: str = "candidate"

    @property
    def regressions(self) -> List[RegressionEntry]:
        return [e for e in self.entries if e.status == STATUS_REGRESSION]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    @property
    def exit_code(self) -> int:
        """CI gate: 1 only when a confirmed regression exists."""
        return 1 if self.has_regressions else 0


def _classify(entry: SpeedupEntry, sigmas: float,
              min_slowdown: float) -> str:
    """Status for one cell under the two-gate regression policy."""
    delta = entry.candidate_seconds - entry.baseline_seconds
    relative = delta / entry.baseline_seconds \
        if entry.baseline_seconds > 0 else 0.0
    if entry.noise is None:
        return STATUS_OK if delta == 0.0 else STATUS_INSUFFICIENT
    if entry.is_significant(sigmas):
        if relative >= min_slowdown:
            return STATUS_REGRESSION
        if relative <= -min_slowdown:
            return STATUS_IMPROVED
        # Statistically resolvable but practically negligible.
        return STATUS_WITHIN_NOISE
    return STATUS_WITHIN_NOISE if delta != 0.0 else STATUS_OK


def detect_regressions(baseline: CellMap, candidate: CellMap,
                       sigmas: float = 2.0,
                       min_slowdown: float = 0.10,
                       baseline_label: str = "baseline",
                       candidate_label: str = "candidate"
                       ) -> RegressionReport:
    """Compare candidate cells against baseline cells.

    Only cells present on both sides are judged (a benchmark added or
    removed by the commit has no baseline to regress against).  A cell is
    a ``regression`` when the slowdown is significant at ``sigmas``·σ of
    the combined recorded noise *and* at least ``min_slowdown`` relative;
    the symmetric condition reports ``improved``.
    """
    entries: List[RegressionEntry] = []
    for key in sorted(baseline):
        if key not in candidate:
            continue
        base_median, base_std = baseline[key]
        cand_median, cand_std = candidate[key]
        slug, size_name = key
        speedup_entry = SpeedupEntry(
            benchmark=slug,
            size=InputSize[size_name],
            baseline_seconds=base_median,
            candidate_seconds=cand_median,
            baseline_stddev=base_std,
            candidate_stddev=cand_std,
        )
        entries.append(
            RegressionEntry(
                benchmark=slug,
                size=size_name,
                baseline_seconds=base_median,
                candidate_seconds=cand_median,
                baseline_stddev=base_std,
                candidate_stddev=cand_std,
                status=_classify(speedup_entry, sigmas, min_slowdown),
            )
        )
    return RegressionReport(entries=entries, sigmas=sigmas,
                            min_slowdown=min_slowdown,
                            baseline_label=baseline_label,
                            candidate_label=candidate_label)


#: Lookup contract for attribution: (benchmark, size name) -> the
#: (baseline, candidate) profile pair, or ``None`` when either side is
#: missing.  Latency cells ("disparity[p99]") resolve through their base
#: benchmark's profile — see :func:`base_benchmark`.
ProfileLookup = Callable[[str, str],
                         Optional[Tuple[SampledProfile, SampledProfile]]]


def pair_lookup_from_results(baseline: SuiteResult, candidate: SuiteResult
                             ) -> ProfileLookup:
    """Attribution lookup over two sampled exports (export-vs-export)."""
    base = cell_profiles(baseline)
    cand = cell_profiles(candidate)

    def lookup(benchmark: str, size: str
               ) -> Optional[Tuple[SampledProfile, SampledProfile]]:
        key = (benchmark, size)
        if key in base and key in cand:
            return base[key], cand[key]
        return None

    return lookup


def base_benchmark(cell_benchmark: str) -> str:
    """Strip a latency-cell metric suffix: ``disparity[p99]`` -> ``disparity``.

    Profiles are stored per benchmark, not per percentile; a tail-latency
    regression attributes against the same kernel profile as the median.
    """
    index = cell_benchmark.find("[")
    return cell_benchmark[:index] if index > 0 else cell_benchmark


def attribute_regressions(report: RegressionReport,
                          lookup: ProfileLookup,
                          top: int = 3) -> int:
    """Join profile diffs onto the report's regressed cells, in place.

    For every cell the two-gate policy confirmed as a regression, the
    lookup fetches the baseline/candidate profile pair; when both exist
    the cell's verdict gains an ``attribution`` block naming the top-N
    kernels and frames responsible and their share of the slowdown
    (:func:`flamediff.attribute_delta`).  Cells without a profile on
    either side keep ``attribution: None`` — the gate's verdict stands,
    only unexplained.  Returns how many cells were attributed.
    """
    attributed = 0
    entries: List[RegressionEntry] = []
    for entry in report.entries:
        if entry.status == STATUS_REGRESSION:
            pair = lookup(base_benchmark(entry.benchmark), entry.size)
            if pair is not None:
                diff = diff_profiles(pair[0], pair[1],
                                     baseline_label=report.baseline_label,
                                     candidate_label=report.candidate_label)
                entry = replace(
                    entry, attribution=attribute_delta(diff, top=top))
                attributed += 1
        entries.append(entry)
    report.entries = entries
    return attributed


def render_regressions(report: RegressionReport) -> str:
    """Human-readable verdict table plus a one-line summary."""
    if not report.entries:
        return "no comparable cells between baseline and candidate"
    rows = []
    for entry in report.entries:
        noise = "-"
        if entry.baseline_stddev is not None \
                and entry.candidate_stddev is not None:
            combined = (entry.baseline_stddev ** 2
                        + entry.candidate_stddev ** 2) ** 0.5
            noise = f"±{combined * 1000:.2f} ms"
        rows.append(
            (
                entry.benchmark,
                entry.size,
                f"{entry.baseline_seconds * 1000:.1f} ms",
                f"{entry.candidate_seconds * 1000:.1f} ms",
                f"{entry.relative_change * 100:+.1f}%",
                noise,
                entry.status,
            )
        )
    table = format_table(
        ("Benchmark", "Size", report.baseline_label, report.candidate_label,
         "Change", "Noise", "Status"),
        rows,
        title=f"Regression check: {report.candidate_label} vs "
        f"{report.baseline_label} "
        f"(gate: {report.sigmas:g}sigma and "
        f">={report.min_slowdown * 100:.0f}% slower)",
    )
    flagged = report.regressions
    if flagged:
        worst = max(flagged, key=lambda e: e.relative_change)
        summary = (
            f"REGRESSION: {len(flagged)} cell(s) flagged; worst "
            f"{worst.benchmark}@{worst.size} "
            f"{worst.relative_change * 100:+.1f}%"
        )
    else:
        summary = "no confirmed regressions"
    attributed = []
    for entry in flagged:
        if not entry.attribution:
            continue
        kernels = entry.attribution.get("kernels") or []
        if not kernels:
            attributed.append(
                f"  {entry.benchmark}@{entry.size}: no kernel slowed "
                "down in the sampled profile"
            )
            continue
        top = kernels[0]
        attributed.append(
            f"  {entry.benchmark}@{entry.size}: {top['kernel']} "
            f"{float(top['delta_seconds']):+.4f}s sampled "
            f"({float(top['share_of_delta']) * 100:.0f}% of the slowdown)"
        )
    if attributed:
        summary += "\nattribution (top kernel per regressed cell):\n" \
            + "\n".join(attributed)
    return table + "\n" + summary


def report_to_dict(report: RegressionReport) -> Dict[str, object]:
    """Machine-readable verdict (for ``sdvbs regress --json-out``)."""
    return {
        "schema": REGRESS_SCHEMA,
        "sigmas": report.sigmas,
        "min_slowdown": report.min_slowdown,
        "baseline": report.baseline_label,
        "candidate": report.candidate_label,
        "regression_count": len(report.regressions),
        "exit_code": report.exit_code,
        "cells": [entry.to_dict() for entry in report.entries],
    }


def report_to_json(report: RegressionReport, indent: int = 2) -> str:
    """Serialize :func:`report_to_dict` to a JSON string."""
    return json.dumps(report_to_dict(report), indent=indent, sort_keys=True)
