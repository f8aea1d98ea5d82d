"""The benchmark's metrics: names, units, and what each should move.

``END_TO_END`` are measured with tracing off (``--trace 0``);
``PER_LAYER`` come from the traced run (``--trace 1``).  Every
per-layer metric carries the end-to-end metric it should move and the
workload where it should move it — written down before any change is
measured against it.  A layer a workload does not reach reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

SUITE_SLUGS = ("disparity", "tracking", "segmentation", "sift",
               "localization", "svm", "face", "stitch", "texture")

KERNELS = ("disparity.ssd", "imgproc.bilinear", "imgproc.convolve2d",
           "imgproc.convolve_cols", "imgproc.convolve_rows",
           "imgproc.gradient", "imgproc.integral_image",
           "imgproc.warp_affine", "sift.descriptor",
           "stitch.match_distances", "svm.kernel_matrix",
           "tracking.min_eigenvalue")

#: name -> unit, for every workload (suites: a job is one pass over the
#: workload's apps; serve-mix: a job is one executed job.submit).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "geomean_run_ms": "ms",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: ``suite-cif`` is not in BENCHMARK.json, which lists two workloads so
#: that each run can be long enough to be steady (NOTES.md); it is run
#: by hand, on both commits, to show a kernel change's gain.
SUITES = "suite-sqcif; suite-cif by hand"
KERNEL_MOVE = ("geomean_run_ms, runs_per_s",
               "suite-cif by hand; no change on suite-sqcif or serve-mix")
SERVE_MOVE = ("job_p50_ms, job_p90_ms, jobs_per_s", "serve-mix")
STORE_MOVE = ("job_p50_ms", "serve-mix; no change on either suite")


def _per_layer() -> List[Tuple[str, str, str, str]]:
    rows: List[Tuple[str, str, str, str]] = []
    for slug in SUITE_SLUGS:
        rows.append((f"app.{slug}.run_ms", "ms", "geomean_run_ms", SUITES))
        rows.append((f"app.{slug}.nonkernel_pct", "%",
                     "Amdahl bound on geomean_run_ms for kernel changes",
                     SUITES))
    for name in KERNELS:
        rows.append((f"kernel.{name}.calls", "count") + KERNEL_MOVE)
        rows.append((f"kernel.{name}.ms", "ms") + KERNEL_MOVE)
        rows.append((f"kernel.{name}.direct_us", "us") + KERNEL_MOVE)
        rows.append((f"kernel.{name}.gflops_per_s", "GFLOP/s") + KERNEL_MOVE)
    instr = ("runs_per_s, geomean_run_ms",
             "suite-sqcif; at most a few percent on suite-cif by hand")
    rows += [
        ("instr.metrics_ms", "ms") + instr,
        ("instr.metrics_us_per_call", "us") + instr,
        ("instr.trace_ms", "ms", "job_p50_ms", "serve-mix"),
        ("instr.sampler_ms", "ms", "none: no workload samples", "-"),
        ("trace.overhead_pct", "%", "none: measured runs are untraced", "-"),
        ("runner.setup_ms", "ms", "setup_s", "all"),
        ("runner.overhead_ms", "ms", "runs_per_s", "suite-sqcif"),
        ("export.write_ms", "ms") + STORE_MOVE,
        ("export.read_ms", "ms") + STORE_MOVE,
        ("export.bytes", "bytes") + STORE_MOVE,
        ("history.record_ms", "ms") + STORE_MOVE,
        ("history.rows", "count") + STORE_MOVE,
        ("regress.ms", "ms") + STORE_MOVE,
        ("jobs.queue_wait_ms", "ms") + SERVE_MOVE,
        ("jobs.exec_ms", "ms") + SERVE_MOVE,
        ("jobs.cache_hit_ratio", "ratio") + SERVE_MOVE,
        ("jobs.rejected", "count") + SERVE_MOVE,
        ("serve.submit_rtt_ms", "ms") + SERVE_MOVE,
        ("serve.status_rtt_ms", "ms") + SERVE_MOVE,
        ("serve.polls_per_job", "ratio") + SERVE_MOVE,
        ("telemetry.events", "count") + SERVE_MOVE,
    ]
    return rows


#: (name, unit, end-to-end metric it should move, workload) rows.
PER_LAYER = _per_layer()
PER_LAYER_UNITS: Dict[str, str] = {row[0]: row[1] for row in PER_LAYER}


def kernel_layer_metrics(sweep: Dict[str, Dict[str, object]],
                         calls: Dict[str, float],
                         seconds: Dict[str, float]) -> Dict[str, float]:
    """``kernel.*`` metrics from the standalone sweep and dispatch totals."""
    out: Dict[str, float] = {}
    for name in KERNELS:
        entry = sweep.get(name, {})
        out[f"kernel.{name}.calls"] = float(calls.get(name, 0.0))
        out[f"kernel.{name}.ms"] = 1e3 * seconds.get(name, 0.0)
        out[f"kernel.{name}.direct_us"] = float(entry.get("direct_us", 0.0))  # type: ignore[arg-type]
        out[f"kernel.{name}.gflops_per_s"] = float(
            entry.get("gflops_per_s", 0.0))  # type: ignore[arg-type]
    return out


def complete(metrics: Dict[str, float], names) -> Dict[str, float]:
    """Every name in ``names``, 0.0 for a layer the workload did not reach."""
    return {name: float(metrics.get(name, 0.0)) for name in names}
