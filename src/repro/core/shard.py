"""Sharded suite execution: plan, run (checkpointed, resumable), merge.

The full benchmark matrix — 9 applications x 3 sizes x variants x 2
kernel backends x repeats — is the suite's unit of scale, and at scale a
killed or partial sweep must be cheap to *resume*, not re-run.  This
module splits the matrix into independent shards in the style of a
distributed split/execute/merge pipeline:

* :func:`plan_shards` deterministically partitions the
  (benchmark, size, variant, backend) grid into ``count`` shard specs.
  Every cell gets a stable, human-readable **cell id**
  (``disparity:CIF:v0:fast``) and a global ``plan_index``; the whole
  plan is stamped with a :func:`plan_digest` hash so checkpoints and
  exports from different plans can never be merged silently.  The split
  is round-robin by plan index, so each shard receives a comparable mix
  of small and large cells.
* :func:`run_shard` executes one spec cell by cell, appending one
  **checkpoint** line per completed cell (flushed and fsynced — a
  crash loses at most the in-flight cell, never a completed one).
  With ``resume=True`` existing checkpoints are loaded first and only
  the missing cells execute; a truncated trailing line (killed mid
  write) is skipped and its cell re-runs.
* :func:`merge_shards` folds shard exports back into one
  :class:`~repro.core.types.SuiteResult` in global plan order, with a
  deterministic merged manifest so history ingest of a re-merge is
  idempotent (same manifest hash, ``INSERT OR IGNORE`` adds nothing).

Shards are plain JSON files with no shared state, so they can run in
separate processes, CI matrix jobs, or different hosts entirely; the
merge step is the only rendezvous.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .backend import BACKENDS, DEFAULT_BACKEND
from .registry import all_benchmarks, get_benchmark
from .runner import ALL_SIZES, run_cell
from .types import BenchmarkRun, InputSize, SuiteResult

#: Schema stamped on shard spec files written by :func:`plan_shards`.
SHARD_SPEC_SCHEMA = "sdvbs-repro/shard-spec/v1"
#: Schema stamped on every checkpoint line written by :func:`run_shard`.
CHECKPOINT_SCHEMA = "sdvbs-repro/shard-checkpoint/v1"


@dataclass(frozen=True)
class CellSpec:
    """One executable grid cell: (benchmark, size, variant, backend).

    ``plan_index`` is the cell's position in the full plan's
    deterministic nested-loop order (benchmark, then size, then variant,
    then backend) — the merger uses it to restore global ordering no
    matter how cells were scattered across shards.
    """

    benchmark: str
    size: str
    variant: int
    backend: str
    plan_index: int

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity, e.g. ``disparity:CIF:v0:fast``."""
        return f"{self.benchmark}:{self.size}:v{self.variant}:{self.backend}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.cell_id,
            "benchmark": self.benchmark,
            "size": self.size,
            "variant": self.variant,
            "backend": self.backend,
            "plan_index": self.plan_index,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellSpec":
        return cls(
            benchmark=str(payload["benchmark"]),
            size=str(payload["size"]),
            variant=int(payload["variant"]),  # type: ignore[arg-type]
            backend=str(payload["backend"]),
            plan_index=int(payload["plan_index"]),  # type: ignore[arg-type]
        )


@dataclass
class ShardSpec:
    """One shard: a subset of the plan's cells plus the measurement knobs."""

    index: int
    count: int
    plan: str
    warmup: int
    repeats: int
    cells: List[CellSpec] = field(default_factory=list)

    def cell_ids(self) -> List[str]:
        return [cell.cell_id for cell in self.cells]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SHARD_SPEC_SCHEMA,
            "plan": self.plan,
            "index": self.index,
            "count": self.count,
            "measurement": {"warmup": self.warmup, "repeats": self.repeats},
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardSpec":
        schema = payload.get("schema")
        if schema != SHARD_SPEC_SCHEMA:
            raise ValueError(f"unsupported shard spec schema {schema!r}")
        measurement = payload.get("measurement", {})
        if not isinstance(measurement, dict):
            measurement = {}
        return cls(
            index=int(payload["index"]),  # type: ignore[arg-type]
            count=int(payload["count"]),  # type: ignore[arg-type]
            plan=str(payload["plan"]),
            warmup=int(measurement.get("warmup", 0)),
            repeats=int(measurement.get("repeats", 1)),
            cells=[CellSpec.from_dict(c)
                   for c in payload.get("cells", [])],  # type: ignore[union-attr]
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def read(cls, path: str) -> "ShardSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def plan_cells(slugs: Optional[Sequence[str]] = None,
               sizes: Sequence[InputSize] = ALL_SIZES,
               variants: Sequence[int] = (0,),
               backends: Sequence[str] = (DEFAULT_BACKEND,)
               ) -> List[CellSpec]:
    """The full grid in deterministic nested-loop order.

    Mirrors :func:`~repro.core.runner.run_suite`'s grid (benchmark,
    size, variant) with the kernel backend as the innermost dimension.
    Unknown slugs or backends raise immediately — a plan must never
    discover bad cells halfway through a sweep.
    """
    if slugs is None:
        benchmarks = [b.slug for b in all_benchmarks()]
    else:
        benchmarks = [get_benchmark(slug).slug for slug in slugs]
    for backend in backends:
        if backend not in BACKENDS:
            known = ", ".join(sorted(BACKENDS))
            raise ValueError(f"unknown backend {backend!r}; known: {known}")
    cells: List[CellSpec] = []
    for slug in benchmarks:
        for size in sizes:
            for variant in variants:
                for backend in backends:
                    cells.append(CellSpec(
                        benchmark=slug,
                        size=size.name,
                        variant=int(variant),
                        backend=backend,
                        plan_index=len(cells),
                    ))
    return cells


def plan_digest(cells: Sequence[CellSpec], warmup: int, repeats: int) -> str:
    """Stable hash identifying one plan: the cell grid + measurement knobs.

    Stamped on every shard spec, checkpoint line and shard export so the
    merger can refuse to combine results from different plans.
    """
    canonical = json.dumps(
        {
            "cells": [cell.cell_id for cell in cells],
            "warmup": warmup,
            "repeats": repeats,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def plan_shards(count: int,
                slugs: Optional[Sequence[str]] = None,
                sizes: Sequence[InputSize] = ALL_SIZES,
                variants: Sequence[int] = (0,),
                backends: Sequence[str] = (DEFAULT_BACKEND,),
                warmup: int = 0,
                repeats: int = 1) -> List[ShardSpec]:
    """Split the grid into ``count`` shard specs, deterministically.

    Cells are dealt round-robin by plan index (``cells[i::count]``), so
    every shard gets a comparable mix of cheap and expensive cells
    instead of one shard inheriting all the CIF work.  The same
    arguments always produce byte-identical specs — independent hosts
    can each run ``plan`` locally and agree on the split.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    cells = plan_cells(slugs, sizes, variants, backends)
    digest = plan_digest(cells, warmup, repeats)
    return [
        ShardSpec(
            index=index,
            count=count,
            plan=digest,
            warmup=warmup,
            repeats=repeats,
            cells=cells[index::count],
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Checkpointed execution


def default_checkpoint_path(spec_path: str) -> str:
    """``plan/shard-000.json`` -> ``plan/shard-000.ckpt.jsonl``."""
    stem = spec_path[:-5] if spec_path.endswith(".json") else spec_path
    return stem + ".ckpt.jsonl"


def load_checkpoints(path: str, plan: str) -> Dict[str, BenchmarkRun]:
    """Completed runs recorded in a checkpoint file, keyed by cell id.

    Crash-tolerant: undecodable or truncated lines (a writer killed mid
    append) are skipped, so their cells simply re-execute.  Lines from a
    different plan are skipped with a warning — stale checkpoints must
    not satisfy cells of a new plan.
    """
    from .export import run_from_dict

    completed: Dict[str, BenchmarkRun] = {}
    foreign = 0
    if not os.path.exists(path):
        return completed
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if payload.get("schema") != CHECKPOINT_SCHEMA:
                    continue
                if payload.get("plan") != plan:
                    foreign += 1
                    continue
                cell_id = str(payload["cell"])
                completed[cell_id] = run_from_dict(payload["run"])
            except (ValueError, KeyError, TypeError):
                continue
    if foreign:
        warnings.warn(
            f"{path}: skipped {foreign} checkpoint line(s) from a different "
            f"plan (expected {plan})",
            RuntimeWarning,
            stacklevel=2,
        )
    return completed


def append_checkpoint(handle, spec: ShardSpec, cell: CellSpec,
                      run: BenchmarkRun) -> None:
    """Append one completed cell to an open checkpoint stream.

    Flushed and fsynced per cell: after a kill, every fully written line
    is recoverable and at most the in-flight cell is lost.
    """
    from .export import run_to_dict

    line = json.dumps(
        {
            "schema": CHECKPOINT_SCHEMA,
            "plan": spec.plan,
            "shard": spec.index,
            "cell": cell.cell_id,
            "completed": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "run": run_to_dict(run),
        },
        sort_keys=True,
    )
    handle.write(line + "\n")
    handle.flush()
    os.fsync(handle.fileno())


#: Executes one cell: (cell, spec) -> BenchmarkRun.  Injectable so tests
#: can simulate kills and count executions without running real kernels.
CellRunner = Callable[[CellSpec, ShardSpec], BenchmarkRun]


def _default_runner(cell: CellSpec, spec: ShardSpec) -> BenchmarkRun:
    """Execute one cell through the suite runner's cell-addressable path."""
    run = run_cell(cell.benchmark, cell.size, cell.variant,
                   warmup=spec.warmup, repeats=spec.repeats,
                   backend=cell.backend)
    # Checkpoints are durable JSON; application outputs can be huge and
    # only timing survives serialization anyway, so drop them (the
    # process-pool path does the same before shipping runs over a pipe).
    run.outputs = {}
    return run


@dataclass
class ShardRunReport:
    """Outcome of one :func:`run_shard` invocation."""

    spec: ShardSpec
    result: SuiteResult
    executed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)


def run_shard(spec: ShardSpec,
              checkpoint_path: str,
              resume: bool = False,
              runner: Optional[CellRunner] = None) -> ShardRunReport:
    """Execute one shard spec with per-cell checkpointing.

    Every completed cell is appended to ``checkpoint_path`` before the
    next one starts.  ``resume=True`` loads existing checkpoints and
    executes only the missing cells — the crash-recovery path: a run
    killed after K of M cells re-executes exactly M-K.  Without
    ``resume``, a pre-existing checkpoint file is an error (refusing to
    guess whether to redo or continue) unless it holds no cells of this
    plan.

    The returned report's ``result`` covers *all* of the shard's cells
    (checkpointed + freshly executed) in spec order, with the shard
    provenance block attached for the merger.
    """
    if runner is None:
        runner = _default_runner
    completed: Dict[str, BenchmarkRun] = {}
    if os.path.exists(checkpoint_path):
        existing = load_checkpoints(checkpoint_path, spec.plan)
        if existing and not resume:
            raise FileExistsError(
                f"{checkpoint_path} already holds {len(existing)} completed "
                f"cell(s) of this plan; resume (--resume) to continue or "
                "remove the file to start over"
            )
        if resume:
            completed = existing
    report = ShardRunReport(spec=spec, result=SuiteResult())
    with open(checkpoint_path, "a", encoding="utf-8") as handle:
        for cell in spec.cells:
            if cell.cell_id in completed:
                report.skipped.append(cell.cell_id)
                continue
            run = runner(cell, spec)
            completed[cell.cell_id] = run
            append_checkpoint(handle, spec, cell, run)
            report.executed.append(cell.cell_id)
    for cell in spec.cells:
        report.result.runs.append(completed[cell.cell_id])
    report.result.shard = shard_block(spec)
    return report


def shard_block(spec: ShardSpec) -> Dict[str, object]:
    """The ``shard`` provenance block a shard export carries (schema v6)."""
    return {
        "plan": spec.plan,
        "index": spec.index,
        "count": spec.count,
        "measurement": {"warmup": spec.warmup, "repeats": spec.repeats},
        "cells": [cell.to_dict() for cell in spec.cells],
    }


# ----------------------------------------------------------------------
# Merge


@dataclass
class MergeReport:
    """Outcome of :func:`merge_shards`: the folded result + bookkeeping."""

    result: SuiteResult
    plan: str
    merged_from: List[int] = field(default_factory=list)
    expected_shards: int = 0
    duplicates: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return (not self.missing
                and len(self.merged_from) == self.expected_shards)


def merge_manifest(results: Sequence[SuiteResult],
                   plan: str) -> Dict[str, object]:
    """A deterministic manifest for the merged export.

    Based on the first shard's manifest (shards normally share a host;
    a heterogeneous sweep keeps the first, which is as honest as one
    host row can be about many machines), with ``argv`` replaced by a
    canonical merge stanza.  Re-merging the same shard exports therefore
    produces an identical manifest — and an identical
    :func:`~repro.core.history.manifest_hash`, which is what makes
    history ingest of a re-merge idempotent.
    """
    manifest: Dict[str, object] = {}
    for result in results:
        if isinstance(result.manifest, dict):
            manifest = dict(result.manifest)
            break
    manifest["argv"] = ["shard", "merge", plan]
    return manifest


def merge_shards(results: Sequence[SuiteResult]) -> MergeReport:
    """Fold shard exports, read as suite results, into one, in plan order.

    All results must be shard exports of the *same* plan (mismatched
    plan hashes raise — results from different grids or measurement
    knobs are not comparable).  A cell appearing in several exports
    (overlapping checkpoints) keeps its first occurrence and is listed
    under ``duplicates``; cells named by a shard block but carrying no
    run land in ``missing``.  Merging is deterministic: the same inputs
    produce an identical merged export, byte for byte apart from
    timestamps.
    """
    if not results:
        raise ValueError("nothing to merge: no shard exports given")
    plans = []
    for result in results:
        if not isinstance(result.shard, dict):
            raise ValueError(
                "export carries no shard block; merge only combines "
                "shard exports (from `sdvbs shard run`)"
            )
        plans.append(str(result.shard["plan"]))
    if len(set(plans)) != 1:
        raise ValueError(
            f"cannot merge shards from different plans: {sorted(set(plans))}"
        )
    plan = plans[0]
    report = MergeReport(result=SuiteResult(), plan=plan)

    ordered: List[Tuple[int, str, BenchmarkRun]] = []
    seen: Dict[str, int] = {}
    expected: List[Tuple[int, str]] = []
    for result in results:
        block: Dict[str, object] = result.shard  # type: ignore[assignment]
        index = int(block.get("index", -1))  # type: ignore[arg-type]
        if index not in report.merged_from:
            report.merged_from.append(index)
        report.expected_shards = max(report.expected_shards,
                                     int(block.get("count", 0)))  # type: ignore[arg-type]
        cells: List[Dict[str, object]] = list(block.get("cells", []))  # type: ignore[arg-type]
        runs_by_position = list(result.runs)
        for position, cell in enumerate(cells):
            cell_id = str(cell.get("id"))
            plan_index = int(cell.get("plan_index", position))  # type: ignore[arg-type]
            expected.append((plan_index, cell_id))
            if position >= len(runs_by_position):
                continue
            if cell_id in seen:
                report.duplicates.append(cell_id)
                continue
            seen[cell_id] = plan_index
            ordered.append((plan_index, cell_id, runs_by_position[position]))

    ordered.sort(key=lambda item: item[0])
    report.result.runs = [run for _, _, run in ordered]
    report.missing = sorted(
        {cell_id for _, cell_id in expected if cell_id not in seen}
    )
    report.result.manifest = merge_manifest(results, plan)
    report.result.shard = {
        "plan": plan,
        "count": report.expected_shards,
        "merged_from": sorted(report.merged_from),
        "cells": [{"id": cell_id, "plan_index": plan_index}
                  for plan_index, cell_id, _ in ordered],
    }
    if report.missing:
        report.result.shard["missing"] = list(report.missing)
    return report
