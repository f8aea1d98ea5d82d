"""The suite benchmark: one command per workload, checked and measured.

Run from the root of a checkout::

    python3 suitebench/run.py --workload suite-sqcif --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``catalog.py`` and ``NOTES.md``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from the checkout's ``src/``;
without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import time

#: Set-up time runs from here (after interpreter start, before any other
#: import) to the first timed call, in this process and in each child.
_STARTED = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout: temp stores, exports and traces.
OUT = os.path.join(ROOT, ".suitebench_out")
#: ``suite-cif`` runs by hand only: BENCHMARK.json lists the other two so
#: that each run can be long enough to be steady (NOTES.md).
WORKLOADS = ("suite-sqcif", "suite-cif", "serve-mix")
#: Set-up is sampled this many times per run (this process plus fresh
#: child processes after the measured window); ``setup_s`` is the median.
#: The suites' set-up takes ~5 s (face trains a cascade), serve-mix's
#: ~1 s and varies more, so it takes more samples.
SETUP_SAMPLES = {"suite-sqcif": 3, "suite-cif": 3, "serve-mix": 5}
#: String hashing is randomised per process unless pinned; localization's
#: SQCIF run time moved by 25% between processes with it unpinned.
HASH_SEED = "0"
CHILD_TIMEOUT = 150


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="suitebench/run.py",
        description="Run one workload of the suite benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"suitebench: no program sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def setup(workload: str, seed: int, spans):
    """Workload set-up; returns (state, layer metrics)."""
    if workload == "serve-mix":
        from servemix import Server

        server = Server(OUT, seed, spans)
        return server, {"runner.setup_ms": server.setup_ms}
    import suite

    return None, suite.setup(workload, seed, spans)


def child_setup_seconds(args: argparse.Namespace) -> List[float]:
    """Set-up time of fresh processes running this workload's set-up.

    The children run after the measured window, one after another, so
    each sample is taken on an otherwise idle host.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        try:
            out, err = child.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {err.strip()}")
        samples.append(float(json.loads(
            out.strip().splitlines()[-1])["setup_s"]))
    return samples


def print_result(ledger, metrics: Dict[str, float],
                 units: Dict[str, str]) -> None:
    for line in ledger.report_lines():
        print(line)
    payload = {
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(payload, sort_keys=False))


def print_header(args, man: Dict[str, object]) -> None:
    print(f"suitebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("manifest: " + json.dumps(man, sort_keys=True))


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics


def measure_suite(args) -> Tuple[object, Dict[str, float]]:
    import suite
    from common import median

    loop = suite.SuiteLoop(args.workload, args.seed)
    wall = loop.run_for(args.seconds)
    print(f"window: {len(loop.passes)} passes, {len(loop.records)} cell "
          f"runs in {wall:.2f} s")
    apps: Dict[str, List[float]] = {}
    for (slug, _, _), ms in loop.per_cell(
            lambda wall, run: 1e3 * run.total_seconds).items():
        apps.setdefault(slug, []).append(ms)
    print("app median ms: " + " ".join(
        f"{slug}={median(v):.1f}" for slug, v in apps.items()))
    return loop.ledger, loop.end_to_end()


def measure_serve(args, server) -> Tuple[object, Dict[str, float]]:
    import servemix
    from common import Spans

    client = servemix.drive(server, args.seed, args.seconds, Spans(None))
    servemix.fetch_exports(server, client)
    for line in servemix.report_lines(client):
        print(line)
    return client.ledger, servemix.end_to_end(client)


def run_untraced(args) -> None:
    from catalog import END_TO_END
    from common import Spans, manifest, median, peak_rss_mb

    server, _ = setup(args.workload, args.seed, Spans(None))
    setup_main = time.time() - _STARTED
    try:
        if server is None:
            ledger, metrics = measure_suite(args)
        else:
            ledger, metrics = measure_serve(args, server)
    finally:
        if server is not None:
            server.close()
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples = [setup_main] + child_setup_seconds(args)
    metrics["setup_s"] = median(samples)
    print_header(args, manifest(args.workload, args.seed, args.seconds,
                                False, definition(args)))
    print("setup_s samples: " + ", ".join(f"{s:.3f}" for s in samples))
    for name, unit in END_TO_END.items():
        print(f"{name:<16} {metrics[name]:>12.4f} {unit}")
    failed_frac = ledger.failed / max(1, ledger.attempted)
    print(f"{'failed_frac':<16} {failed_frac:>12.4f} ratio "
          f"({ledger.failed}/{ledger.attempted})")
    print_result(ledger, metrics, END_TO_END)


def definition(args) -> Dict[str, object]:
    if args.workload == "serve-mix":
        import servemix

        return servemix.definition(args.seed)
    import suite

    return suite.definition(args.workload, args.seed)


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics


def traced_suite(args, spans) -> Tuple[object, Dict[str, float], Dict, Dict]:
    """Alternating untraced/traced passes: per-layer numbers + overhead."""
    import suite
    from layers import instrumentation_ladder, persistence_probe

    loop = suite.SuiteLoop(args.workload, args.seed)
    wall = loop.run_for(args.seconds, recorder=spans.recorder, spans=spans,
                        alternate=True)
    metrics = loop.layer_metrics()
    print(f"window: {len(loop.passes)} passes in {wall:.2f} s, every "
          f"other pass traced; tracing overhead "
          f"{metrics.get('trace.overhead_pct', 0.0):+.2f}%")
    calls, seconds = loop.dispatch_per_pass()
    seq = spans.open("instr_ladder")
    ladder = instrumentation_ladder(
        suite.pass_cells(args.workload, args.seed, 0))
    spans.close(seq)
    seq = spans.open("persistence")
    metrics.update(persistence_probe(loop.pass_results(), OUT,
                                     f"{args.workload}-{args.seed}"))
    spans.close(seq)
    return loop.ledger, metrics, ladder, (calls, seconds)


def traced_serve(args, server, spans
                 ) -> Tuple[object, Dict[str, float], Dict, Dict]:
    import servemix
    from layers import instrumentation_ladder

    client = servemix.drive(server, args.seed, args.seconds, spans)
    seq = spans.open("fetch_exports")
    fetched = servemix.fetch_exports(server, client)
    spans.close(seq)
    for line in servemix.report_lines(client):
        print(line)
    metrics, calls, seconds = servemix.layer_metrics(server, client, fetched)
    seq = spans.open("instr_ladder")
    ladder = instrumentation_ladder(
        [(slug, "SQCIF", 0) for slug in servemix.APPS])
    spans.close(seq)
    return client.ledger, metrics, ladder, (calls, seconds)


def run_traced(args) -> None:
    from catalog import PER_LAYER, PER_LAYER_UNITS, complete, kernel_layer_metrics
    from common import Spans, manifest, self_times, write_trace
    from layers import kernel_sweep
    from repro.core.tracing import TraceRecorder

    recorder = TraceRecorder()
    spans = Spans(recorder)
    server, metrics = setup(args.workload, args.seed, spans)
    try:
        if server is None:
            ledger, layer, ladder, dispatch = traced_suite(args, spans)
        else:
            ledger, layer, ladder, dispatch = traced_serve(args, server,
                                                           spans)
    finally:
        if server is not None:
            server.close()
    metrics.update(layer)
    seq = spans.open("kernel_sweep")
    sweep = kernel_sweep()
    spans.close(seq)
    metrics.update(kernel_layer_metrics(sweep, *dispatch))
    metrics.update({f"instr.{key}": value for key, value in ladder.items()
                    if key in ("metrics_ms", "metrics_us_per_call",
                               "trace_ms", "sampler_ms")})
    man = manifest(args.workload, args.seed, args.seconds, True,
                   definition(args))
    trace_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace.json")
    span_count = write_trace(trace_path, recorder, man)
    print_header(args, man)
    print(f"trace: {span_count} spans -> {os.path.relpath(trace_path, ROOT)}")
    print("self time by span (s):")
    totals = self_times(recorder.spans)
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1])[:25]:
        print(f"  {name:<32} {value:>10.4f}")
    print("instrumentation ladder (ms per pass over "
          f"{ladder['cells']} cells, {ladder['rounds']} rounds, "
          f"{ladder['calls_per_pass']} calls): bare profiler "
          f"{ladder['profiler_ms']:.1f}, +metrics {ladder['metrics_ms']:+.2f}, "
          f"+trace {ladder['trace_ms']:+.2f}, +sampler "
          f"{ladder['sampler_ms']:+.2f}")
    values = complete(metrics, PER_LAYER_UNITS)
    for name, unit, moves, where in PER_LAYER:
        reached = "" if name in metrics else "  (layer not reached)"
        print(f"{name:<40} {values[name]:>14.4f} {unit:<8} -> {moves} "
              f"on {where}{reached}")
    print_result(ledger, values, PER_LAYER_UNITS)


def run_setup_only(args) -> None:
    from common import Spans

    server, _ = setup(args.workload, args.seed, Spans(None))
    setup_s = time.time() - _STARTED
    if server is not None:
        server.close()
    print(json.dumps({"setup_s": setup_s}))


def pin_hash_seed() -> None:
    """Re-execute this process with ``PYTHONHASHSEED`` pinned."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  env)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_hash_seed()
    bootstrap()
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        run_setup_only(args)
    elif args.trace:
        run_traced(args)
    else:
        run_untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
