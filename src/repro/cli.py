"""``sdvbs`` command-line driver.

Subcommands::

    sdvbs list                      # the nine applications + metadata
    sdvbs run disparity sift        # run benchmarks, print hotspots
    sdvbs tables                    # Tables I, II, III
    sdvbs sysinfo                   # Table III host rows (manifest fields)
    sdvbs figure2 [--variants N]    # input-size scaling series
    sdvbs figure3 [slugs...]        # kernel occupancy per size
    sdvbs table4                    # critical-path parallelism
    sdvbs trace disparity --size CIF --out trace.json
                                    # per-call spans -> chrome://tracing
    sdvbs flame disparity --size CIF --out disparity.collapsed
                                    # statistical flamegraph (collapsed
                                    # stacks or speedscope JSON)
    sdvbs xcheck disparity --size CIF   # sampled vs instrumented shares
                                    # with a tolerance gate (exit 1 on
                                    # divergence)
    sdvbs report --out report.html  # self-contained HTML observability
                                    # report (occupancy, roofline,
                                    # agreement, trace, manifest)
    sdvbs verify-backends           # ref-vs-fast kernel agreement table
    sdvbs history record run.json   # ingest an export's cell medians
                                    # (and, for a sampled `report --json`
                                    # export, its cell profiles) into the
                                    # history DB, keyed by commit
    sdvbs history list              # recorded commits + cell and
                                    # profile counts
    sdvbs history show <commit>     # per-cell medians and top kernel
                                    # shares of one commit
    sdvbs history diff A B --benchmark disparity --html diff.html
                                    # differential flamegraph between two
                                    # commits (collapsed ±usec, red/blue
                                    # HTML, verdict JSON)
    sdvbs regress run.json          # noise-aware regression gate (exit 1
                                    # on confirmed >=k-sigma slowdowns);
                                    # --attribute joins profile diffs so
                                    # the verdict names guilty kernels
    sdvbs regress cand.json --against base.json
                                    # compare two exports: medians,
                                    # speedups, their geometric mean and
                                    # the noise verdicts
    sdvbs shard plan --shards 4 --out-dir plan
                                    # split the grid into shard spec files
    sdvbs shard run plan/shard-000.json [--resume]
                                    # execute one shard with per-cell
                                    # checkpoints; --resume re-runs only
                                    # the missing cells after a kill
    sdvbs shard merge plan/*.result.json --out merged.json
                                    # fold shard exports into one suite
                                    # result (idempotent history ingest
                                    # with --db)
    sdvbs shard status plan         # per-shard completed/missing cells
    sdvbs serve --port 8642         # benchmark-as-a-service: JSON-RPC
                                    # job server with a bounded worker
                                    # pool, admission control and a
                                    # result cache (see SERVING.md)

``run``/``figure2``/``figure3`` accept the robust-measurement knobs
``--repeats N`` (retained runs per cell, aggregated into
min/median/mean/stddev), ``--warmup N`` (discarded runs) and ``--jobs N``
(worker processes across the benchmark grid), plus ``--events PATH`` to
record every kernel call into a structured JSONL event log.

``run``/``figure2``/``figure3``/``trace`` also accept ``--backend
{ref,fast}`` (see KERNELS.md): ``fast`` (default) measures the
numpy-vectorized kernel implementations, ``ref`` the loop-faithful
reference nests mirroring the original C suite.  The selection is
recorded in the run manifest, and ``sdvbs verify-backends`` checks the
two backends agree within documented tolerances on the deterministic
input generators.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import InputSize, all_benchmarks
from .core import commands
from .core.commands import (
    BACKEND,
    BENCHMARKS,
    COMMANDS,
    FORMAT,
    REPEATS,
    SAMPLING,
    SIZE,
    SIZES,
    VARIANTS,
    WARMUP,
    ArgError,
    integer,
    number,
    validate,
)
from .core.report import (
    render_figure2,
    render_figure3,
    render_kernel_drilldown,
    render_suite_summary,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_top_spans,
    render_work_models,
)
from .core.tracing import (
    TraceRecorder,
    chrome_trace_json,
    events_to_jsonl,
    run_manifest,
)


def _validated(params, args: argparse.Namespace,
               command: str) -> Optional[dict]:
    """The validated argument set, or None after a one-line error.

    argparse checked every value but the benchmark slugs (registry
    lookups, which fail as ``sdvbs <command>: unknown benchmark ...``).
    """
    try:
        return validate(params, vars(args))
    except ArgError as exc:
        print(f"sdvbs {command}: {exc}", file=sys.stderr)
        return None


def _add_params(parser: argparse.ArgumentParser, params) -> None:
    """Declare command-table parameters on a subcommand parser."""
    for param in params:
        param.add_to(parser)


def _add_measurement_flags(parser: argparse.ArgumentParser) -> None:
    """The robust-runner knobs shared by run/figure2/figure3."""
    REPEATS.add_to(parser)
    WARMUP.add_to(parser)
    parser.add_argument("--jobs", type=integer(1).argtype("jobs"),
                        default=1, metavar="N",
                        help="worker processes for the benchmark grid; 1 "
                        "runs serially (default: 1)")
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="record one span per kernel call and write a "
                        "structured JSONL event log (with manifest header) "
                        "to PATH")
    BACKEND.add_to(parser)


def _write_events(path: Optional[str], recorder: Optional[TraceRecorder],
                  manifest: dict) -> None:
    """Write the recorder's JSONL event log when ``--events`` was given."""
    if not path or recorder is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(events_to_jsonl(recorder.spans, manifest))


def _run_trace(args: argparse.Namespace, cli_argv: List[str]) -> int:
    """``sdvbs trace``: one traced run, Chrome trace export, drilldowns."""
    values = _validated(COMMANDS["trace"], args, "trace")
    if values is None:
        return 2
    # Context-managed so tracemalloc stops even if the run raises.
    with TraceRecorder(track_memory=args.memory) as recorder:
        run = commands.trace(values, recorder).result
        manifest = run_manifest(argv=cli_argv, backend=args.backend)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(chrome_trace_json(recorder.spans, manifest))
        _write_events(args.events, recorder, manifest)
    print(render_top_spans(recorder.spans, limit=args.top))
    print()
    print(render_kernel_drilldown(recorder.spans))
    print()
    destinations = args.out + (f" and {args.events}" if args.events else "")
    print(f"wrote {recorder.events} spans ({run.total_seconds * 1000:.1f} ms "
          f"traced) to {destinations}; load in chrome://tracing or "
          "https://ui.perfetto.dev")
    return 0


def _run_flame(args: argparse.Namespace) -> int:
    """``sdvbs flame``: sample one benchmark, export a flamegraph."""
    values = _validated(COMMANDS["flame"], args, "flame")
    if values is None:
        return 2
    outcome = commands.flame(values)
    run, profile = outcome.result  # type: ignore[misc]
    (payload,) = outcome.artifacts.values()
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(payload)
    if profile.samples == 0:
        print(f"sdvbs flame: collected 0 samples — the run is too short "
              f"for --interval {args.interval}; raise --repeats or lower "
              "--interval", file=sys.stderr)
    shares = sorted(profile.shares().items(), key=lambda kv: -kv[1])
    summary = ", ".join(f"{k} {v:.1f}%" for k, v in shares[:5])
    name = f"{args.benchmark}@{args.size}"
    print(f"{profile.samples} samples / {profile.sampled_seconds:.3f} s "
          f"sampled over {args.repeats} runs of {name} "
          f"({run.total_seconds * 1000:.1f} ms median)")
    if summary:
        print(f"sampled shares: {summary}")
    print(f"wrote {args.format} profile to {args.out}")
    return 0


#: ``xcheck`` samples exactly what ``flame`` samples.
XCHECK = tuple(p for p in COMMANDS["flame"] if p is not FORMAT)

#: The CLI's sampled ``report``: the served report's argument set with
#: the sampling knobs in place of its unsampled warmup/repeats.
REPORT = (BENCHMARKS, SIZES) + SAMPLING + (BACKEND,)


def _run_xcheck(args: argparse.Namespace) -> int:
    """``sdvbs xcheck``: gate sampled vs instrumented share agreement."""
    from .core.report import render_cross_check
    from .core.sampling import cross_check, observable_kernels

    if _validated(XCHECK, args, "xcheck") is None:
        return 2
    run, profile, frame_map = commands.sampled_run(
        args.benchmark, args.size, args.variant, args.warmup, args.repeats,
        args.interval, backend=args.backend)
    check = cross_check(
        run.occupancy(), profile.shares(), observable_kernels(frame_map),
        tolerance=args.tolerance, min_share=args.min_share,
        samples=profile.samples)
    print(render_cross_check(check))
    top = profile.non_kernel_top(limit=5)
    if top:
        print()
        print("Top NonKernelWork functions (sampled):")
        for label, seconds in top:
            print(f"  {label}  {seconds * 1000:.2f} ms")
    if profile.samples == 0:
        print(f"sdvbs xcheck: collected 0 samples — raise --repeats or "
              "lower --interval", file=sys.stderr)
        return 1
    if not check.ok:
        names = ", ".join(
            f"{row.kernel} ({row.delta:+.1f})" for row in check.failures())
        print(f"sdvbs xcheck: agreement gate FAILED for {names} "
              f"(tolerance ±{args.tolerance:g} points)", file=sys.stderr)
        return 1
    print()
    print(f"agreement gate passed: every kernel with >={args.min_share:g}% "
          f"share agrees within ±{args.tolerance:g} points")
    return 0


def _run_report(args: argparse.Namespace, cli_argv: List[str]) -> int:
    """``sdvbs report``: render the self-contained HTML report."""
    from .core.htmlreport import render_html_report
    from .core.profiler import measure_probe_overhead

    spans = None
    if getattr(args, "from_export", None):
        result = _load_result(args.from_export, "report")
        if result is None:
            return 2
    else:
        values = _validated(REPORT, args, "report")
        if values is None:
            return 2
        manifest = run_manifest(
            argv=cli_argv, warmup=args.warmup, repeats=args.repeats,
            backend=args.backend,
            instrumentation=measure_probe_overhead())
        recorder = TraceRecorder()
        with recorder:
            result = commands.measure(
                dict(values, variants=commands.VARIANTS.default), manifest,
                recorder=recorder, sample_interval=args.interval)
        spans = recorder.spans
        _write_events(args.events, recorder, manifest)
        if args.json:
            from .core.export import result_to_json

            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(result_to_json(result))
    _warn_truncated_sampling(result, "report")
    document = render_html_report(result, spans=spans,
                                  tolerance=args.tolerance,
                                  min_share=args.min_share)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    extras = [args.out]
    if getattr(args, "json", None) and not getattr(args, "from_export", None):
        extras.append(args.json)
    if getattr(args, "events", None) and spans is not None:
        extras.append(args.events)
    print(f"wrote self-contained HTML report covering {len(result.runs)} "
          f"run(s) to {' and '.join(extras)}")
    return 0


def _warn_probe_overhead(result, instrumentation: dict,
                         threshold_pct: float) -> None:
    """Warn when instrumentation overhead is a visible slice of a cell.

    The estimate is the calibrated per-probe cost times the cell's kernel
    call count, compared against the cell's median wall time; a
    ``threshold_pct`` of 0 (or below) disables the check.
    """
    if threshold_pct <= 0:
        return
    per_probe = float(instrumentation.get("seconds_per_probe", 0.0))
    if per_probe <= 0:
        return
    for run in result.runs:
        if run.total_seconds <= 0:
            continue
        probes = sum(run.kernel_calls.values())
        overhead = per_probe * probes
        pct = 100.0 * overhead / run.total_seconds
        if pct > threshold_pct:
            print(
                f"sdvbs run: warning: {run.benchmark}@{run.size.name} "
                f"variant {run.variant}: estimated instrumentation "
                f"overhead {pct:.1f}% of the {run.total_seconds * 1000:.1f}"
                f" ms median ({probes} probes x "
                f"{per_probe * 1e6:.2f} us) exceeds "
                f"{threshold_pct:g}% — prefer larger inputs or "
                "`sdvbs flame` for fine-grained attribution",
                file=sys.stderr,
            )


def _load_result(path: str, command: str):
    """Read a suite export for a subcommand, with a clean CLI error."""
    from .core.export import result_from_json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return result_from_json(handle.read())
    except (OSError, ValueError) as exc:
        print(f"sdvbs {command}: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _record_result(store, result, commit: Optional[str],
                   command: str) -> None:
    """Record a suite result's medians and profiles into ``store``."""
    from .core.history import HistoryEntry

    _warn_truncated_sampling(result, command)
    added = store.record(result, commit=commit)
    cells = sum(isinstance(entry, HistoryEntry) for entry in added)
    print(f"recorded {cells} new cell(s) and {len(added) - cells} "
          f"profile(s) into {store.path}")
    if added:
        print(f"commit {added[0].commit} backend {added[0].backend} "
              f"manifest {added[0].manifest_hash}")


def _top_shares(entry) -> str:
    """A stored profile's three largest kernel shares ("-" without one)."""
    if entry is None:
        return "-"
    shares = sorted(entry.sampled_profile().shares().items(),
                    key=lambda kv: -kv[1])
    return ", ".join(f"{k} {v:.0f}%" for k, v in shares[:3]) or "-"


def _run_history(args: argparse.Namespace) -> int:
    """``sdvbs history record/list/show/diff``: the persistent store."""
    from .core.history import (
        HistoryEntry,
        ProfileEntry,
        format_created,
        open_history,
    )
    from .core.report import format_table

    if args.history_command == "diff":
        return _run_history_diff(args)
    if args.history_command == "record":
        # Read the export first: a bad file must not create the store.
        result = _load_result(args.result, "history record")
        if result is None:
            return 2
        with open_history(args.db) as store:
            _record_result(store, result, args.commit, "history record")
        return 0
    with open_history(args.db) as store:
        if args.history_command == "list":
            commits = store.commits()
            if not commits:
                print(f"history {args.db} is empty")
                return 0
            rows = []
            for commit in commits:
                cells, profiles = (store.entries(
                    commit=commit,
                    benchmark=args.benchmark,
                    size=args.size.upper() if args.size else None,
                    backend=args.backend,
                    kind=kind) for kind in (HistoryEntry, ProfileEntry))
                if not cells and not profiles:
                    continue
                benchmarks = sorted({e.benchmark for e in cells + profiles})
                last = (cells or profiles)[-1].created
                rows.append(
                    (
                        commit[:12],
                        str(len(cells)),
                        str(len(profiles)),
                        format_created(last),
                        ", ".join(benchmarks[:4])
                        + (", ..." if len(benchmarks) > 4 else ""),
                    )
                )
            if not rows:
                print(f"history {args.db}: no entries match the filters")
                return 0
            print(format_table(
                ("Commit", "Cells", "Profiles", "Last recorded",
                 "Benchmarks"),
                rows,
                title=f"Benchmark history ({args.db})",
            ))
            return 0
        # show: every median with its cell's profile, then profiles
        # recorded without a median.
        commit = store.resolve_commit(args.commit)
        profiles = {(e.benchmark, e.size, e.backend, e.manifest_hash): e
                    for e in store.entries(commit=commit, kind=ProfileEntry)}
        rows = []
        for entry in store.entries(commit=commit):
            noise = "-" if entry.stddev is None \
                else f"±{entry.stddev * 1000:.2f} ms"
            profile = profiles.pop((entry.benchmark, entry.size,
                                    entry.backend, entry.manifest_hash),
                                   None)
            rows.append(
                (
                    entry.benchmark,
                    entry.size,
                    f"{entry.median_seconds * 1000:.1f} ms",
                    noise,
                    str(entry.repeats),
                    entry.backend,
                    entry.manifest_hash,
                    _top_shares(profile),
                )
            )
        for profile in profiles.values():
            rows.append((profile.benchmark, profile.size, "-", "-", "-",
                         profile.backend, profile.manifest_hash,
                         _top_shares(profile)))
        print(format_table(
            ("Benchmark", "Size", "Median", "Noise", "Repeats", "Backend",
             "Manifest", "Top kernels"),
            rows,
            title=f"History for commit {commit}",
        ))
        return 0


def _warn_truncated_sampling(result, command: str) -> None:
    """Surface ``stacks_truncated`` whenever a sampled export leaves us.

    Per-kernel shares survive truncation (they are aggregated before the
    cap) but rare leaf stacks do not; anyone diffing the folded profile
    later deserves to know the tail was cut.
    """
    for run in result.runs:
        if not run.sampling:
            continue
        truncated = int(run.sampling.get("stacks_truncated", 0))
        if truncated > 0:
            print(f"sdvbs {command}: warning: "
                  f"{run.benchmark}@{run.size.name}: {truncated} distinct "
                  "stack(s) dropped by the max-stacks export cap; "
                  "per-kernel shares are exact but rare leaf stacks are "
                  "missing from the folded profile", file=sys.stderr)


def _run_history_diff(args: argparse.Namespace) -> int:
    """``sdvbs history diff``: differential flamegraph of two commits."""
    from .core.flamediff import (
        diff_profiles,
        render_diff,
        to_collapsed_delta,
    )
    from .core.history import ProfileEntry, open_history

    with open_history(args.db) as store:
        sides = []
        for label in (args.baseline, args.candidate):
            commit = store.resolve_commit(label)
            entry = store.latest(commit, args.benchmark, args.size,
                                 backend=args.backend, kind=ProfileEntry)
            if entry is None:
                print(f"sdvbs history diff: commit {commit[:12]} has "
                      f"no profile for {args.benchmark}@{args.size}",
                      file=sys.stderr)
                return 2
            sides.append(entry)
    baseline, candidate = sides
    diff = diff_profiles(
        baseline.sampled_profile(), candidate.sampled_profile(),
        baseline_label=f"{baseline.commit[:12]}",
        candidate_label=f"{candidate.commit[:12]}")
    print(render_diff(diff, top=args.top))
    wrote = []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(to_collapsed_delta(diff))
        wrote.append(args.out)
    if args.html:
        from .core.htmlreport import render_diff_html

        title = (f"{args.benchmark}@{args.size}: "
                 f"{baseline.commit[:12]} vs {candidate.commit[:12]}")
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_diff_html(diff, title=title))
        wrote.append(args.html)
    if args.json_out:
        import json as json_module

        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(json_module.dumps(diff.to_dict(top=args.top),
                                           indent=2, sort_keys=True))
        wrote.append(args.json_out)
    if wrote:
        print(f"wrote differential flamegraph to {' and '.join(wrote)}")
    return 0


def _attribute_from_history(args: argparse.Namespace, report,
                            candidate_result, baseline_commit: str,
                            commit: str) -> None:
    """History-baseline ``--attribute``: join stored profile diffs.

    The baseline comes from the ``--db`` store's profiles and the
    candidate from the export's payloads when present (falling back to
    the store), both of the candidate's backend.  Export-vs-export mode
    attributes inside the shared ``regress`` body instead.  Missing
    profiles degrade to a warning, never an error — the timing verdict
    stands either way.
    """
    from .core.history import (
        ProfileEntry,
        cell_profiles,
        open_history,
        result_backend,
    )
    from .core.regress import attribute_regressions

    if not report.regressions:
        return
    backend = result_backend(candidate_result)
    candidate_cells = cell_profiles(candidate_result)
    with open_history(args.db) as store:

        def stored(commit_id: str, benchmark: str, size: str):
            entry = store.latest(commit_id, benchmark, size,
                                 backend=backend, kind=ProfileEntry)
            return None if entry is None else entry.sampled_profile()

        def lookup(benchmark: str, size: str):
            base = stored(baseline_commit, benchmark, size)
            cand = candidate_cells.get((benchmark, size)) \
                or stored(commit, benchmark, size)
            if base is None or cand is None:
                return None
            return base, cand

        attribute_regressions(report, lookup)


def _run_regress(args: argparse.Namespace) -> int:
    """``sdvbs regress``: flag significant slowdowns vs a baseline."""
    from .core.history import current_commit, open_history, result_backend
    from .core.regress import (
        cells_from_entries,
        cells_from_result,
        detect_regressions,
        render_regressions,
        report_to_json,
    )

    candidate_result = _load_result(args.candidate, "regress")
    if candidate_result is None:
        return 2
    if args.against:
        baseline_result = _load_result(args.against, "regress")
        if baseline_result is None:
            return 2
        report = commands.regress(
            vars(args), baseline_result, candidate_result,
            baseline_label=args.against, candidate_label=args.candidate,
            attribute=args.attribute).result
    else:
        # Only rows of the candidate's backend are comparable: a fast
        # candidate judged against ref medians would always look faster.
        backend = result_backend(candidate_result)
        with open_history(args.db) as store:
            commit = args.commit or current_commit()
            if args.baseline_commit:
                baseline_commit = store.resolve_commit(args.baseline_commit)
            else:
                baseline_commit = store.latest_commit_before(
                    commit, backend=backend)
            if baseline_commit is None:
                print(f"no baseline commit in {args.db} (candidate commit "
                      f"{commit[:12]}); nothing to compare against")
                return 0
            entries = store.entries(commit=baseline_commit, backend=backend)
        if not entries:
            print(f"sdvbs regress: no {backend} history entries for "
                  f"baseline commit {baseline_commit!r}", file=sys.stderr)
            return 2
        report = detect_regressions(
            cells_from_entries(entries),
            cells_from_result(candidate_result),
            sigmas=args.sigmas,
            min_slowdown=args.min_slowdown,
            baseline_label=f"commit {baseline_commit[:12]}",
            candidate_label=args.candidate,
        )
        if args.attribute:
            _attribute_from_history(args, report, candidate_result,
                                    baseline_commit, commit)
    unattributed = [e for e in report.regressions if e.attribution is None]
    if args.attribute and unattributed:
        print(f"sdvbs regress: warning: {len(unattributed)} of "
              f"{len(report.regressions)} regressed cell(s) have no "
              "profile pair to attribute against (record sampled runs "
              "with `sdvbs history record`)", file=sys.stderr)
    print(render_regressions(report))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report_to_json(report))
        print(f"wrote machine-readable verdict to {args.json_out}")
    return report.exit_code


def _run_store_command(args: argparse.Namespace) -> int:
    """``history``/``regress``: a store failure exits 2."""
    from .core.history import StoreError

    run = {"history": _run_history, "regress": _run_regress}[args.command]
    try:
        return run(args)
    except StoreError as exc:
        label = " ".join(filter(None, (
            args.command, getattr(args, f"{args.command}_command", None))))
        print(f"sdvbs {label}: {exc}", file=sys.stderr)
        return 2


def _run_shard_plan(args: argparse.Namespace) -> int:
    """``sdvbs shard plan``: split the grid into shard spec files."""
    import os

    from .core.shard import plan_shards

    backends = args.backends or ["fast"]
    try:
        specs = plan_shards(args.shards, args.benchmarks or None,
                            sizes=[InputSize[name] for name in args.sizes],
                            variants=list(range(args.variants)),
                            backends=backends,
                            warmup=args.warmup, repeats=args.repeats)
    except (KeyError, ValueError) as exc:
        print(f"sdvbs shard plan: {exc.args[0]}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    paths = []
    for spec in specs:
        path = os.path.join(args.out_dir, f"shard-{spec.index:03d}.json")
        spec.write(path)
        paths.append(path)
    cells = sum(len(spec.cells) for spec in specs)
    print(f"plan {specs[0].plan}: {cells} cell(s) across "
          f"{len(specs)} shard(s) in {args.out_dir}/")
    for spec, path in zip(specs, paths):
        print(f"  {path}  {len(spec.cells)} cell(s)")
    return 0


def _run_shard_run(args: argparse.Namespace, cli_argv: List[str]) -> int:
    """``sdvbs shard run``: execute one spec with per-cell checkpoints."""
    from .core.export import result_to_json
    from .core.shard import ShardSpec, default_checkpoint_path, run_shard

    try:
        spec = ShardSpec.read(args.spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"sdvbs shard run: cannot read {args.spec}: {exc}",
              file=sys.stderr)
        return 2
    checkpoint = args.checkpoint or default_checkpoint_path(args.spec)
    out = args.out or default_checkpoint_path(args.spec).replace(
        ".ckpt.jsonl", ".result.json")
    try:
        report = run_shard(spec, checkpoint, resume=args.resume)
    except FileExistsError as exc:
        print(f"sdvbs shard run: {exc}", file=sys.stderr)
        return 2
    report.result.manifest = run_manifest(
        argv=cli_argv, warmup=spec.warmup, repeats=spec.repeats)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(result_to_json(report.result))
    print(f"shard {spec.index + 1}/{spec.count} (plan {spec.plan}): "
          f"executed {len(report.executed)} cell(s), resumed past "
          f"{len(report.skipped)} checkpointed cell(s)")
    print(f"wrote shard export to {out} (checkpoints in {checkpoint})")
    return 0


def _run_shard_merge(args: argparse.Namespace) -> int:
    """``sdvbs shard merge``: fold shard exports into one suite result."""
    from .core.export import result_to_json
    from .core.history import StoreError, open_history
    from .core.shard import merge_shards

    results = []
    for path in args.exports:
        result = _load_result(path, "shard merge")
        if result is None:
            return 2
        results.append(result)
    try:
        report = merge_shards(results)
    except ValueError as exc:
        print(f"sdvbs shard merge: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(result_to_json(report.result))
    print(f"merged {len(report.result.runs)} cell(s) from "
          f"{len(report.merged_from)}/{report.expected_shards} shard(s) "
          f"of plan {report.plan} into {args.out}")
    if report.duplicates:
        print(f"warning: {len(report.duplicates)} duplicate cell(s) "
              f"ignored: {', '.join(sorted(set(report.duplicates))[:4])}",
              file=sys.stderr)
    if report.missing:
        print(f"warning: {len(report.missing)} cell(s) missing from the "
              f"merge: {', '.join(report.missing[:4])}"
              + (", ..." if len(report.missing) > 4 else ""),
              file=sys.stderr)
    if args.db:
        try:
            with open_history(args.db) as store:
                _record_result(store, report.result, args.commit,
                               "shard merge")
        except StoreError as exc:
            print(f"sdvbs shard merge: {exc}", file=sys.stderr)
            return 2
    return 0


def _run_shard_status(args: argparse.Namespace) -> int:
    """``sdvbs shard status``: per-shard completed/missing cells."""
    import glob
    import os

    from .core.shard import ShardSpec, default_checkpoint_path, \
        load_checkpoints

    spec_paths: List[str] = []
    for target in args.targets:
        if os.path.isdir(target):
            spec_paths.extend(sorted(glob.glob(
                os.path.join(target, "shard-*.json"))))
        else:
            spec_paths.append(target)
    spec_paths = [p for p in spec_paths
                  if not p.endswith((".ckpt.jsonl", ".result.json"))]
    if not spec_paths:
        print("sdvbs shard status: no shard specs found", file=sys.stderr)
        return 2
    incomplete = 0
    for path in spec_paths:
        try:
            spec = ShardSpec.read(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"sdvbs shard status: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 2
        completed = load_checkpoints(default_checkpoint_path(path), spec.plan)
        done = [c for c in spec.cell_ids() if c in completed]
        missing = [c for c in spec.cell_ids() if c not in completed]
        line = (f"{path}  plan {spec.plan}  "
                f"{len(done)}/{len(spec.cells)} done")
        if missing:
            incomplete += 1
            line += ("  missing: " + ", ".join(missing[:3])
                     + (", ..." if len(missing) > 3 else ""))
        print(line)
    return 1 if incomplete else 0


def _run_shard(args: argparse.Namespace, cli_argv: List[str]) -> int:
    """Dispatch ``sdvbs shard plan/run/merge/status``."""
    if args.shard_command == "plan":
        return _run_shard_plan(args)
    if args.shard_command == "run":
        return _run_shard_run(args, cli_argv)
    if args.shard_command == "merge":
        return _run_shard_merge(args)
    return _run_shard_status(args)


def _run_serve(args: argparse.Namespace) -> int:
    """``sdvbs serve``: the benchmark-as-a-service JSON-RPC job server."""
    from .core.serve import make_server

    low, high = (args.watermarks if args.watermarks
                 else (None, None))
    try:
        server = make_server(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.max_queue,
            low_watermark=low,
            high_watermark=high,
            rate_limit=args.rate_limit,
            rate_burst=args.burst,
            history_db=args.db,
            work_dir=args.work_dir,
            access_log=args.access_log,
            log_file=args.log_file,
            profile_interval=args.profile_interval,
        )
    except (OSError, ValueError) as exc:
        print(f"sdvbs serve: {exc}", file=sys.stderr)
        return 2
    manager = server.manager
    host, port = server.address
    print(f"sdvbs serve: listening on http://{host}:{port} "
          f"({manager.workers} worker(s), queue {manager.max_queue}, "
          f"watermarks {manager.low_watermark}/{manager.high_watermark}"
          + (f", rate limit {manager.rate_limit:g}/s" if manager.rate_limit
             else "")
          + (f", history {manager.history_db}" if manager.history_db
             else "")
          + (f", profiling @ {manager.profile_interval:g}s"
             if manager.profile_interval else ""))
    print(f"artifacts under {manager.work_dir}; POST JSON-RPC 2.0 to / "
          "(methods and error codes in SERVING.md); GET /metrics for "
          "Prometheus; `sdvbs top` for a live view; Ctrl-C to stop"
          + (f"; events -> {args.log_file}" if args.log_file else ""))
    try:
        server.serve_forever()
        # serve_forever returns when a client called server.shutdown;
        # drain the workers before exiting so no running job is cut off.
        manager.stop()
        print("sdvbs serve: stopped (server.shutdown)")
    except KeyboardInterrupt:
        print("\nsdvbs serve: shutting down (running jobs drain)...")
        server.stop()
    return 0


def _top_frame(url: str) -> dict:
    """One ``sdvbs top`` frame: one ``server.info`` call, folded."""
    import json
    import urllib.request

    from .core.telemetry import top_snapshot

    body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "server.info",
                       "params": {}}).encode("utf-8")
    request = urllib.request.Request(
        url.rstrip("/") + "/", data=body,
        headers={"Content-Type": "application/json",
                 "X-SDVBS-Client": "sdvbs-top"})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        payload = json.loads(response.read().decode("utf-8"))
    if "error" in payload:
        error = payload["error"]
        raise OSError(f"server.info: server error {error.get('code')}: "
                      f"{error.get('message')}")
    return top_snapshot(payload["result"])


def _run_top(args: argparse.Namespace) -> int:
    """``sdvbs top``: live operator view of a running serve instance."""
    import json
    import time

    from .core.telemetry import render_top

    if args.once:
        try:
            snapshot = _top_frame(args.url)
        except OSError as exc:
            print(f"sdvbs top: {args.url}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(snapshot, indent=2, sort_keys=True)
              if args.json else render_top(snapshot))
        return 0
    try:
        while True:
            try:
                snapshot = _top_frame(args.url)
            except OSError as exc:
                print(f"sdvbs top: {args.url}: {exc}", file=sys.stderr)
                return 2
            if args.json:
                print(json.dumps(snapshot, sort_keys=True), flush=True)
            else:
                # Clear + home, then the frame — a poor man's curses.
                print("\x1b[2J\x1b[H" + render_top(snapshot)
                      + f"\n(every {args.interval:g}s; Ctrl-C to exit)",
                      flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _run_verify_backends(args: argparse.Namespace) -> int:
    """``sdvbs verify-backends``: ref/fast agreement on seeded inputs."""
    from .core.backend import load_all_kernels
    from .core.equivalence import render_equivalence, verify_backends

    load_all_kernels()
    kernels = args.kernels or None
    try:
        verdicts = verify_backends(
            sizes=[InputSize[name] for name in args.sizes],
            variants=list(range(args.variants)), kernels=kernels)
    except KeyError as exc:
        print(f"sdvbs verify-backends: {exc.args[0]}", file=sys.stderr)
        return 2
    if kernels:
        found = {v.kernel for v in verdicts}
        missing = sorted(set(kernels) - found)
        if missing:
            print(f"sdvbs verify-backends: unknown kernels: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 2
    print(render_equivalence(verdicts))
    return 0 if all(v.ok for v in verdicts) else 1


def _run_measurement(args: argparse.Namespace, cli_argv: List[str]) -> int:
    """``run``/``figure2``/``figure3``: one ``run`` body, three renderings."""
    from .core.profiler import measure_probe_overhead

    if args.command == "figure2":
        args.benchmarks = [b.slug for b in all_benchmarks() if b.in_figure2]
    values = _validated(COMMANDS["run"], args, args.command)
    if values is None:
        return 2
    instrumentation = measure_probe_overhead()
    manifest = run_manifest(argv=cli_argv, warmup=args.warmup,
                            repeats=args.repeats, jobs=args.jobs,
                            backend=args.backend,
                            instrumentation=instrumentation)
    recorder = TraceRecorder() if args.events else None
    outcome = commands.run(values, manifest, recorder=recorder,
                           jobs=args.jobs)
    result = outcome.result
    _write_events(args.events, recorder, manifest)
    if args.command == "figure2":
        print(render_figure2(result, show_noise=args.repeats > 1))
        return 0
    if args.command == "figure3":
        print(render_figure3(result))
        return 0
    _warn_probe_overhead(result, instrumentation, args.overhead_warn)
    if args.json:
        print(outcome.artifacts["export.json"])
        return 0
    print(render_suite_summary(result))
    print()
    print(render_figure3(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``sdvbs`` command; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="sdvbs",
        description="SD-VBS reproduction: run vision benchmarks and "
        "regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the nine applications")
    sub.add_parser("tables", help="print Tables I, II and III")
    sub.add_parser("table4", help="print Table IV (parallelism)")
    sub.add_parser("sysinfo", help="print the Table III host rows (the "
                   "fields recorded in run manifests)")

    trace_parser = sub.add_parser(
        "trace",
        help="run one benchmark with per-call tracing and export a "
        "chrome://tracing / Perfetto trace",
    )
    _add_params(trace_parser, COMMANDS["trace"])
    trace_parser.add_argument("--out", default="trace.json", metavar="PATH",
                              help="Chrome trace-event JSON output path "
                              "(default: trace.json)")
    trace_parser.add_argument("--events", metavar="PATH", default=None,
                              help="also write the structured JSONL event "
                              "log to PATH")
    trace_parser.add_argument("--memory", action="store_true",
                              help="sample tracemalloc peak allocations "
                              "per span (slows the run)")
    trace_parser.add_argument("--top", type=integer(1).argtype("top"),
                              default=10, metavar="N",
                              help="slowest invocations to print "
                              "(default: 10)")

    flame_parser = sub.add_parser(
        "flame",
        help="sample one benchmark with the statistical stack sampler "
        "and export a flamegraph (collapsed stacks or speedscope JSON)",
    )
    _add_params(flame_parser, COMMANDS["flame"])
    flame_parser.add_argument("--out", default="flame.collapsed",
                              metavar="PATH",
                              help="output path (default: flame.collapsed)")

    xcheck_parser = sub.add_parser(
        "xcheck",
        help="cross-check sampled vs instrumented per-kernel shares and "
        "fail (exit 1) when they diverge beyond the tolerance",
    )
    _add_params(xcheck_parser, XCHECK)
    xcheck_parser.add_argument("--tolerance", type=float, default=5.0,
                               metavar="PTS",
                               help="maximum share disagreement in "
                               "percentage points (default: 5)")
    xcheck_parser.add_argument("--min-share", type=float, default=10.0,
                               metavar="PCT",
                               help="gate only kernels holding at least "
                               "this share on either side (default: 10)")

    report_parser = sub.add_parser(
        "report",
        help="render a self-contained HTML observability report "
        "(occupancy, roofline, sampled-vs-instrumented agreement, "
        "slowest spans, manifest) with zero external references",
    )
    _add_params(report_parser, REPORT)
    report_parser.add_argument("--out", default="report.html",
                               metavar="PATH",
                               help="HTML output path "
                               "(default: report.html)")
    report_parser.add_argument("--from", dest="from_export", default=None,
                               metavar="PATH",
                               help="render from an existing suite export "
                               "JSON instead of measuring live (no trace "
                               "section)")
    report_parser.add_argument("--json", default=None, metavar="PATH",
                               help="also write the measured suite export "
                               "JSON to PATH (live mode only)")
    report_parser.add_argument("--events", metavar="PATH", default=None,
                               help="also write the JSONL event log to "
                               "PATH (live mode only)")
    report_parser.add_argument("--tolerance", type=float, default=5.0,
                               metavar="PTS",
                               help="agreement-table tolerance in points "
                               "(default: 5)")
    report_parser.add_argument("--min-share", type=float, default=10.0,
                               metavar="PCT",
                               help="agreement-table gated-share floor "
                               "(default: 10)")

    verify_parser = sub.add_parser(
        "verify-backends",
        help="run every dual-backend kernel under both ref and fast on "
        "the deterministic input generators and check tolerance-bounded "
        "agreement (exit 1 on any mismatch)",
    )
    SIZES.add_to(verify_parser)
    VARIANTS.add_to(verify_parser, help="input variants checked per size, "
                    "1-5 (default: %(default)s)")
    verify_parser.add_argument("--kernels", nargs="*", metavar="NAME",
                               help="restrict to the named kernels (e.g. "
                               "disparity.ssd; default: all registered)")

    run_parser = sub.add_parser("run", help="run benchmarks and profile")
    _add_params(run_parser, (BENCHMARKS, SIZES, VARIANTS))
    run_parser.add_argument("--json", action="store_true",
                            help="emit the raw result as JSON instead of "
                            "the text reports")
    run_parser.add_argument("--overhead-warn", type=float, default=5.0,
                            metavar="PCT",
                            help="warn when the estimated instrumentation "
                            "overhead (measured per-probe cost x kernel "
                            "calls) exceeds this percentage of a cell's "
                            "median wall time; 0 disables (default: 5)")
    _add_measurement_flags(run_parser)

    fig2_parser = sub.add_parser("figure2", help="execution-time scaling")
    VARIANTS.add_to(fig2_parser)
    _add_measurement_flags(fig2_parser)

    fig3_parser = sub.add_parser("figure3", help="kernel occupancy")
    _add_params(fig3_parser, (BENCHMARKS, VARIANTS))
    _add_measurement_flags(fig3_parser)

    history_parser = sub.add_parser(
        "history",
        help="persistent benchmark history: record suite exports (cell "
        "medians and sampled cell profiles) keyed by commit, list and "
        "inspect them, and diff two commits' profiles",
    )
    history_sub = history_parser.add_subparsers(dest="history_command",
                                                required=True)
    record_parser = history_sub.add_parser(
        "record", help="ingest a suite export JSON into the history store "
        "(its cell medians, plus its cell profiles when runs carry "
        "sampling payloads)")
    record_parser.add_argument("result",
                               help="suite export (from `sdvbs run --json` "
                               "or, with profiles, `sdvbs report --json`)")
    record_parser.add_argument("--commit", default=None, metavar="SHA",
                               help="commit to record under (default: "
                               "current git HEAD)")
    list_parser = history_sub.add_parser(
        "list", help="recorded commits with cell and profile counts")
    list_parser.add_argument("--benchmark", default=None, metavar="SLUG",
                             help="only count cells of this benchmark")
    list_parser.add_argument("--size", default=None, metavar="SIZE",
                             help="only count cells of this input size "
                             "(SQCIF/QCIF/CIF/VGA)")
    BACKEND.add_to(list_parser, help="only count cells measured with "
                   "this kernel backend")
    show_parser = history_sub.add_parser(
        "show", help="per-cell medians and top kernel shares recorded "
        "for one commit")
    show_parser.add_argument("commit",
                             help="commit SHA (unambiguous prefix accepted)")
    diff_parser = history_sub.add_parser(
        "diff", help="differential flamegraph between two commits' "
        "stored profiles of one cell (collapsed ±usec text, red/blue "
        "HTML, or verdict JSON)")
    diff_parser.add_argument("baseline",
                             help="baseline commit (unambiguous prefix "
                             "accepted)")
    diff_parser.add_argument("candidate",
                             help="candidate commit (unambiguous prefix "
                             "accepted)")
    diff_parser.add_argument("--benchmark", required=True, metavar="SLUG",
                             help="benchmark slug of the cell to diff")
    SIZE.with_default("CIF").add_to(diff_parser)
    BACKEND.add_to(diff_parser, help="only consider profiles measured "
                   "with this kernel backend")
    diff_parser.add_argument("--top", type=integer(1).argtype("top"),
                             default=10, metavar="N",
                             help="kernel/frame rows to print "
                             "(default: 10)")
    diff_parser.add_argument("--out", default=None, metavar="PATH",
                             help="write the signed collapsed-stack "
                             "delta (`frame;frame ±usec`) to PATH")
    diff_parser.add_argument("--html", default=None, metavar="PATH",
                             help="write a self-contained red/blue "
                             "differential flamegraph page to PATH")
    diff_parser.add_argument("--json-out", default=None, metavar="PATH",
                             help="write the machine-readable diff JSON "
                             "to PATH")
    for history_command in (record_parser, list_parser, show_parser,
                            diff_parser):
        history_command.add_argument("--db", default="history.sqlite",
                                     metavar="PATH",
                                     help="history store path "
                                     "(default: history.sqlite)")

    regress_parser = sub.add_parser(
        "regress",
        help="compare a run against a baseline (an export or the history "
        "store): per-cell change, speedup and noise verdict, and the "
        "geometric-mean speedup; fail (exit 1) on slowdowns beyond the "
        "recorded noise",
    )
    regress_parser.add_argument("candidate",
                                help="candidate suite export JSON")
    regress_parser.add_argument("--against", default=None, metavar="PATH",
                                help="baseline export JSON; default: the "
                                "previous commit recorded in the history "
                                "store")
    regress_parser.add_argument("--db", default="history.sqlite",
                                metavar="PATH",
                                help="history store used when --against is "
                                "not given, also for --attribute's "
                                "profiles (default: history.sqlite)")
    regress_parser.add_argument("--commit", default=None, metavar="SHA",
                                help="candidate commit id, used to pick the "
                                "baseline from history (default: current "
                                "git HEAD)")
    regress_parser.add_argument("--baseline-commit", default=None,
                                metavar="SHA",
                                help="explicit baseline commit in the "
                                "history store (default: the most recently "
                                "recorded other commit)")
    _add_params(regress_parser, COMMANDS["regress"])
    regress_parser.add_argument("--json-out", default=None, metavar="PATH",
                                help="also write the machine-readable "
                                "verdict JSON to PATH")
    regress_parser.add_argument("--attribute", action="store_true",
                                help="join a differential profile onto "
                                "every confirmed regression: the verdict "
                                "names the top kernels/frames responsible "
                                "and their share of the slowdown (profiles "
                                "from the two exports' sampling payloads, "
                                "or from the --db store)")

    shard_parser = sub.add_parser(
        "shard",
        help="sharded suite execution: split the benchmark grid into "
        "independent spec files, run them anywhere with per-cell "
        "checkpoints (resumable after a kill), and merge the exports "
        "back into one suite result",
    )
    shard_sub = shard_parser.add_subparsers(dest="shard_command",
                                            required=True)
    splan_parser = shard_sub.add_parser(
        "plan", help="deterministically split the (benchmark, size, "
        "variant, backend) grid into N shard spec files")
    _add_params(splan_parser, (BENCHMARKS, SIZES, VARIANTS, WARMUP,
                               REPEATS))
    splan_parser.add_argument("--backends", nargs="+",
                              choices=["ref", "fast"], default=None,
                              metavar="BACKEND",
                              help="kernel backends to cover (ref/fast, "
                              "default: fast)")
    splan_parser.add_argument("--shards", type=integer(1).argtype("shards"),
                              default=2, metavar="N",
                              help="number of shards to split into "
                              "(default: 2)")
    splan_parser.add_argument("--out-dir", default="plan", metavar="DIR",
                              help="directory for shard-NNN.json specs "
                              "(default: plan)")
    srun_parser = shard_sub.add_parser(
        "run", help="execute one shard spec, checkpointing every "
        "completed cell; --resume skips already-checkpointed cells")
    srun_parser.add_argument("spec", help="shard spec file (from "
                             "`sdvbs shard plan`)")
    srun_parser.add_argument("--resume", action="store_true",
                             help="load existing checkpoints and execute "
                             "only the missing cells (the crash-recovery "
                             "path)")
    srun_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                             help="checkpoint JSONL path (default: the "
                             "spec path with .ckpt.jsonl)")
    srun_parser.add_argument("--out", default=None, metavar="PATH",
                             help="shard export JSON path (default: the "
                             "spec path with .result.json)")
    smerge_parser = shard_sub.add_parser(
        "merge", help="fold shard exports into one merged suite result "
        "(and optionally ingest it into the history store, "
        "idempotently)")
    smerge_parser.add_argument("exports", nargs="+",
                               help="shard export JSONs (from `sdvbs "
                               "shard run`)")
    smerge_parser.add_argument("--out", default="merged.json",
                               metavar="PATH",
                               help="merged export path "
                               "(default: merged.json)")
    smerge_parser.add_argument("--db", default=None, metavar="PATH",
                               help="also record the merged result into "
                               "this history store (re-merging the same "
                               "shards adds nothing)")
    smerge_parser.add_argument("--commit", default=None, metavar="SHA",
                               help="commit to record under (default: "
                               "current git HEAD)")
    sstatus_parser = shard_sub.add_parser(
        "status", help="per-shard progress from checkpoint files "
        "(exit 1 when any shard has missing cells)")
    sstatus_parser.add_argument("targets", nargs="+",
                                help="shard spec files or plan "
                                "directories")

    serve_parser = sub.add_parser(
        "serve",
        help="benchmark-as-a-service: a long-running JSON-RPC job server "
        "executing run/trace/flame/report/regress specs on a bounded "
        "worker pool with admission control and a result cache "
        "(operator's manual: SERVING.md)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                              help="bind address; the default stays on "
                              "localhost because the server has no "
                              "authentication (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=integer(0).argtype("port"),
                              default=8642, metavar="N",
                              help="TCP port; 0 binds an ephemeral port "
                              "(default: 8642)")
    serve_parser.add_argument("--workers", type=integer(1).argtype("workers"),
                              default=2, metavar="N",
                              help="concurrent job executor threads "
                              "(default: 2)")
    serve_parser.add_argument("--max-queue",
                              type=integer(1).argtype("max_queue"),
                              default=16, metavar="N",
                              help="hard cap on queued jobs; beyond it "
                              "submissions are rejected with a typed "
                              "queue-full error (default: 16)")
    serve_parser.add_argument("--watermarks", nargs=2,
                              type=integer(1).argtype("watermarks"),
                              default=None, metavar=("LOW", "HIGH"),
                              help="backpressure hysteresis: at HIGH "
                              "queued jobs only high-priority submissions "
                              "are admitted until the backlog drains to "
                              "LOW (default: max-queue/2 and max-queue)")
    serve_parser.add_argument("--rate-limit",
                              type=number(0.0).argtype("rate_limit"),
                              default=0.0, metavar="N",
                              help="per-client submissions per second via "
                              "a token bucket; 0 disables (default: 0)")
    serve_parser.add_argument("--burst", type=integer(1).argtype("burst"),
                              default=None, metavar="N",
                              help="token-bucket burst capacity "
                              "(default: max(1, rate-limit))")
    serve_parser.add_argument("--db", default=None, metavar="PATH",
                              help="record completed run jobs into this "
                              "history store (idempotent per spec digest; "
                              "default: no history)")
    serve_parser.add_argument("--work-dir", default=None, metavar="DIR",
                              help="artifact directory, one subdirectory "
                              "per job (default: a fresh temp dir)")
    serve_parser.add_argument("--access-log", action="store_true",
                              help="emit one structured http.access event "
                              "per HTTP response into the event log "
                              "(default: off; metrics count regardless)")
    serve_parser.add_argument("--log-file", default=None, metavar="PATH",
                              help="append structured JSON-lines events "
                              "(job lifecycle, admission, access log) to "
                              "this file (default: in-memory ring only)")
    serve_parser.add_argument("--profile-interval",
                              type=number(0.0).argtype("profile_interval"),
                              default=0.0, metavar="SEC",
                              help="stack-sample every served run and "
                              "measured report at this interval: each "
                              "run's export carries its sampling payload "
                              "and, with --db, its per-cell profile is "
                              "recorded for `sdvbs history` and `regress "
                              "--attribute`; 0 disables (default: 0; try "
                              "0.005)")

    top_parser = sub.add_parser(
        "top",
        help="live view of a running sdvbs serve instance: queue depth, "
        "per-state job counts, worker utilization, cache hit rate and "
        "queue-wait/exec latency percentiles, polled over JSON-RPC",
    )
    top_parser.add_argument("--url", default="http://127.0.0.1:8642",
                            metavar="URL",
                            help="server base URL "
                            "(default: http://127.0.0.1:8642)")
    top_parser.add_argument("--interval",
                            type=number(0.1).argtype("interval"),
                            default=2.0, metavar="SECONDS",
                            help="refresh period (default: 2.0)")
    top_parser.add_argument("--once", action="store_true",
                            help="render a single frame and exit")
    top_parser.add_argument("--json", action="store_true",
                            help="print the frame as JSON instead of the "
                            "terminal view (implies a machine consumer; "
                            "pairs with --once for scripting)")

    args = parser.parse_args(argv)
    cli_argv = list(argv) if argv is not None else list(sys.argv[1:])

    if args.command == "list":
        print(render_table1())
        return 0
    if args.command == "tables":
        print(render_table1())
        print()
        print(render_table2())
        print()
        print(render_table3())
        return 0
    if args.command == "table4":
        print(render_table4())
        print()
        print(render_work_models())
        return 0
    if args.command == "sysinfo":
        print(render_table3())
        return 0
    if args.command == "trace":
        return _run_trace(args, cli_argv)
    if args.command == "flame":
        return _run_flame(args)
    if args.command == "xcheck":
        return _run_xcheck(args)
    if args.command == "report":
        return _run_report(args, cli_argv)
    if args.command == "verify-backends":
        return _run_verify_backends(args)
    if args.command in ("history", "regress"):
        return _run_store_command(args)
    if args.command == "shard":
        return _run_shard(args, cli_argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "top":
        return _run_top(args)
    return _run_measurement(args, cli_argv)

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
