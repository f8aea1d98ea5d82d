"""JSON serialization of suite results for downstream tooling.

Architecture studies consume profiles programmatically; this module
flattens :class:`~repro.core.types.SuiteResult` into plain dictionaries
(JSON-ready) and back, so runs can be stored, diffed and post-processed
outside this package.

Schema history:

* ``sdvbs-repro/suite-result/v1`` — single-shot runs: per-run totals,
  kernel seconds/calls, occupancy, stringified outputs.
* ``sdvbs-repro/suite-result/v2`` — adds the repeat statistics
  recorded by the robust runner: per-run ``stats`` with ``warmup`` and
  min/median/mean/stddev + raw samples for the total and every kernel.
  v1 payloads remain readable (their runs carry no ``stats``).
* ``sdvbs-repro/suite-result/v3`` — every export carries a
  ``manifest`` block (:func:`~repro.core.tracing.run_manifest`): the
  profiling host's Table III rows, Python/numpy versions, the CLI
  arguments and measurement knobs that produced the run.  v1/v2 payloads
  remain readable (their results carry no manifest).
* ``sdvbs-repro/suite-result/v4`` — per-run ``metrics`` block
  (:meth:`~repro.core.metrics.MetricsRegistry.to_dict`): counters and
  histograms (empty for suite runs, whose calls and seconds ride on the
  run itself) plus per-kernel analytic work accounting — flops, traffic bytes, achieved GFLOP/s and GB/s,
  arithmetic intensity.  Older exports may also carry an empty
  ``gauges`` map, which nothing reads.  v1-v3 payloads remain readable
  (their runs carry no metrics).
* ``sdvbs-repro/suite-result/v5`` — per-run ``sampling``
  block (:meth:`~repro.core.sampling.SampledProfile.to_dict`) when the
  run was measured with a statistical stack sampler attached: folded
  call stacks, sampled per-kernel shares, the attributable kernel set
  and the top ``NonKernelWork`` leaf functions.  The manifest may
  additionally carry an ``instrumentation`` block (measured per-probe
  profiler overhead).  v1-v4 payloads remain readable (their runs carry
  no sampling profile).
* ``sdvbs-repro/suite-result/v6`` — optional top-level ``shard``
  provenance block (:mod:`repro.core.shard`): the plan hash, shard
  index/count and per-cell identities of a sharded sweep, or the
  ``merged_from`` record of a merged one.  Unsharded exports carry no
  ``shard`` key and are otherwise identical to v5.  v1-v5 payloads
  remain readable.
* ``sdvbs-repro/suite-result/v7`` — added an optional top-level
  ``streaming`` block of paced-frame latency runs, a mode that has
  since been removed.  v7 payloads remain readable; the reader ignores
  a ``streaming`` block, so such an export loads as its batch runs.
* ``sdvbs-repro/suite-result/v8`` (current) — optional top-level
  ``job`` provenance block (:mod:`repro.core.jobs`): the serve-layer
  job id, canonical spec digest, submitting client and priority when
  the export was produced by a ``sdvbs serve`` job.  Kept out of the
  manifest on purpose — the history layer's manifest hash must depend
  only on the measurement configuration so identical served specs stay
  idempotent.  CLI exports carry no ``job`` key and are otherwise
  identical to v7.  v1-v7 payloads remain readable.

DESIGN.md's "Schema evolution" appendix carries the same history as a
single table with reader guarantees.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from .tracing import run_manifest
from .types import AggregatedRun, BenchmarkRun, InputSize, RunStats, SuiteResult

SCHEMA_V1 = "sdvbs-repro/suite-result/v1"
SCHEMA_V2 = "sdvbs-repro/suite-result/v2"
SCHEMA_V3 = "sdvbs-repro/suite-result/v3"
SCHEMA_V4 = "sdvbs-repro/suite-result/v4"
SCHEMA_V5 = "sdvbs-repro/suite-result/v5"
SCHEMA_V6 = "sdvbs-repro/suite-result/v6"
SCHEMA_V7 = "sdvbs-repro/suite-result/v7"
SCHEMA_V8 = "sdvbs-repro/suite-result/v8"
#: Schema written by :func:`result_to_dict`.
CURRENT_SCHEMA = SCHEMA_V8
#: Schemas :func:`result_from_dict` accepts.
READABLE_SCHEMAS = (SCHEMA_V1, SCHEMA_V2, SCHEMA_V3, SCHEMA_V4, SCHEMA_V5,
                    SCHEMA_V6, SCHEMA_V7, SCHEMA_V8)


def _stats_to_dict(stats: AggregatedRun) -> Dict[str, object]:
    return {
        "warmup": stats.warmup,
        "repeats": stats.repeats,
        "total": stats.total.to_dict(),
        "kernels": {name: s.to_dict() for name, s in stats.kernels.items()},
    }


def _stats_from_dict(run: BenchmarkRun,
                     payload: Dict[str, object]) -> AggregatedRun:
    kernels: Dict[str, Dict[str, object]] = payload.get("kernels", {})  # type: ignore[assignment]
    return AggregatedRun(
        benchmark=run.benchmark,
        size=run.size,
        variant=run.variant,
        warmup=int(payload.get("warmup", 0)),  # type: ignore[arg-type]
        total=RunStats.from_dict(payload["total"]),  # type: ignore[arg-type]
        kernels={name: RunStats.from_dict(s) for name, s in kernels.items()},
        kernel_calls=dict(run.kernel_calls),
    )


def run_to_dict(run: BenchmarkRun) -> Dict[str, object]:
    """Flatten one run; outputs are stringified for JSON safety."""
    payload: Dict[str, object] = {
        "benchmark": run.benchmark,
        "size": run.size.name,
        "variant": run.variant,
        "total_seconds": run.total_seconds,
        "kernel_seconds": dict(run.kernel_seconds),
        "kernel_calls": dict(run.kernel_calls),
        "occupancy": run.occupancy(),
        "outputs": {key: repr(value) for key, value in run.outputs.items()},
    }
    if run.stats is not None:
        payload["stats"] = _stats_to_dict(run.stats)
    if run.metrics is not None:
        payload["metrics"] = dict(run.metrics)
    if run.sampling is not None:
        payload["sampling"] = dict(run.sampling)
    return payload


def result_to_dict(result: SuiteResult,
                   manifest: Optional[Dict[str, object]] = None
                   ) -> Dict[str, object]:
    """Flatten a whole suite result into a JSON-ready dictionary.

    Every export carries a manifest: the explicit ``manifest`` argument
    wins, then ``result.manifest`` (the CLI stamps one with its argv and
    measurement knobs), then a freshly gathered
    :func:`~repro.core.tracing.run_manifest` for this host.
    """
    if manifest is None:
        manifest = result.manifest
    if manifest is None:
        manifest = run_manifest()
    payload: Dict[str, object] = {
        "schema": CURRENT_SCHEMA,
        "manifest": manifest,
        "runs": [run_to_dict(run) for run in result.runs],
    }
    if result.shard is not None:
        payload["shard"] = dict(result.shard)
    if result.job is not None:
        payload["job"] = dict(result.job)
    return payload


def result_to_json(result: SuiteResult, indent: int = 2,
                   manifest: Optional[Dict[str, object]] = None) -> str:
    """Serialize a suite result to a JSON string."""
    return json.dumps(result_to_dict(result, manifest=manifest),
                      indent=indent, sort_keys=True)


def run_from_dict(entry: Dict[str, object]) -> BenchmarkRun:
    """Rebuild one :class:`BenchmarkRun` from :func:`run_to_dict` output.

    Shared by whole-suite restoration and the shard checkpoint reader
    (:mod:`repro.core.shard`), which persists individual runs.
    """
    run = BenchmarkRun(
        benchmark=str(entry["benchmark"]),
        size=InputSize[str(entry["size"])],
        variant=int(entry["variant"]),  # type: ignore[arg-type]
        total_seconds=float(entry["total_seconds"]),  # type: ignore[arg-type]
        kernel_seconds=dict(entry["kernel_seconds"]),  # type: ignore[arg-type]
        kernel_calls=dict(entry["kernel_calls"]),  # type: ignore[arg-type]
        outputs=dict(entry.get("outputs", {})),  # type: ignore[arg-type]
    )
    stats_payload: Optional[Dict[str, object]] = entry.get("stats")  # type: ignore[assignment]
    if stats_payload is not None:
        run.stats = _stats_from_dict(run, stats_payload)
    metrics_payload: Optional[Dict[str, object]] = entry.get("metrics")  # type: ignore[assignment]
    if metrics_payload is not None:
        run.metrics = dict(metrics_payload)
    sampling_payload: Optional[Dict[str, object]] = entry.get("sampling")  # type: ignore[assignment]
    if sampling_payload is not None:
        run.sampling = dict(sampling_payload)
    return run


def result_from_dict(payload: Dict[str, object]) -> SuiteResult:
    """Rebuild a :class:`SuiteResult` from :func:`result_to_dict` output.

    Accepts the current v8 schema and legacy v1-v7 payloads (v1 runs
    carry no repeat statistics; v1/v2 results carry no manifest; v1-v3
    runs carry no metrics; v1-v4 runs carry no sampling profile; v1-v5
    results carry no shard block; v1-v7 results carry no job block; a
    v7 ``streaming`` block is dropped).  ``outputs`` are not
    round-tripped (they were stringified); everything the reports need
    — timings, attribution, measurement statistics, work-accounting
    metrics, shard provenance, job provenance and the manifest — is
    restored exactly.  A payload that is not an object, has no ``runs``
    list, holds a run missing a required field, carries a ``manifest``,
    ``shard`` or ``job`` block that is not an object, or a shard block
    without a string ``plan`` or with a non-integer ``index`` raises
    ``ValueError`` naming the field or block.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"export is a JSON {type(payload).__name__}, not an object")
    schema = payload.get("schema")
    if schema not in READABLE_SCHEMAS:
        raise ValueError(f"unsupported schema {schema!r}")
    result = SuiteResult()
    blocks: Dict[str, Dict[str, object]] = {}
    for key in ("manifest", "shard", "job"):
        block = payload.get(key)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ValueError(f"'{key}' block is a JSON "
                             f"{type(block).__name__}, not an object")
        blocks[key] = dict(block)
    shard = blocks.get("shard")
    # A merged export's block has no 'index' (it lists 'merged_from').
    if shard is not None and not (
            isinstance(shard.get("plan"), str)
            and type(shard.get("index", 0)) is int):
        raise ValueError("'shard' block needs a string 'plan' and an "
                         "integer 'index'")
    result.manifest = blocks.get("manifest")
    result.shard = shard
    result.job = blocks.get("job")
    runs = payload.get("runs")
    if not isinstance(runs, list):
        raise ValueError("export has no 'runs' list")
    for index, entry in enumerate(runs):
        try:
            result.runs.append(run_from_dict(entry))
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"runs[{index}]: missing or malformed field {exc}") from None
    return result


def result_from_json(text: str) -> SuiteResult:
    """Parse a suite result serialized by :func:`result_to_json`."""
    return result_from_dict(json.loads(text))
