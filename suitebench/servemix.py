"""``serve-mix``: an in-process ``BenchServer`` driven over HTTP JSON-RPC.

One closed-loop client (it sends its next request only after the
previous one completes) repeats the workflow SERVING.md documents, one
cycle per cell:

1. submit a cold single-cell ``run`` job (the *baseline*), poll it to
   ``done`` and fetch its result — it writes an ``export.json`` artifact
   and a history row;
2. resubmit the identical spec — a cache hit, as in SERVING.md's worked
   curl session and the CI serve-smoke job;
3. and 4. the same for a second cold run of the cell (the *candidate*);
5. submit a ``regress`` job comparing the candidate against the baseline
   (SERVING.md's ``regress`` spec: two completed run jobs) — it reads
   two exports.

So the mix is 2 cold runs : 2 cache hits : 1 regress, taken from the
documented workflow rather than tuned.  The run prints each kind's
measured share of loop time.  The seed orders the apps within every
block of three cycles; each block runs each app once.

The server keeps its defaults (``workers=2``, ``max_queue=16``) with a
temporary ``history_db`` and ``work_dir`` inside the checkout.  One
client, not two: with two, both workers ran Python-heavy app code side
by side, and how much their jobs overlapped swung every served number
by 20-40% between runs of one seed (the GIL serialises them; two
clients completed no more jobs per second than one).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import time
from typing import Dict, List, Optional, Tuple

from checks import CellLedger, check_outputs, exported_fingerprint, fingerprint
from common import Spans, geomean, median, percentile

#: Short SQCIF apps (42-98 ms a run).  Face is left out: its first run per
#: process trains a cascade for seconds, which would make the tail the
#: training time instead of the service.  Disparity (7 ms) is left out:
#: served, its run time was mostly the other worker's interference, which
#: swung the geomean by 15% between runs of one seed.
APPS = ("svm", "texture", "stitch")
#: A cold spec runs its app ``warmup + repeats`` times, 1 to this many.
#: Specs differ only in those two counts and in whether the backend is
#: named, so each app has ``MAX_RUNS_PER_JOB * (MAX_RUNS_PER_JOB + 1)``
#: distinct cold specs — several times what a window uses (NOTES.md).
MAX_RUNS_PER_JOB = 8
#: Seconds between job.status polls.
POLL_SECONDS = 0.01
KINDS = ("run", "hit", "regress")


def cold_specs(slug: str) -> List[Dict[str, object]]:
    """Every distinct cold run spec of ``slug``, in the order they are used.

    Each is one (app, SQCIF, variant 0) cell on the fast path.  A spec
    running n times has n (warmup, repeats) splits, each with the backend
    named or not, so n-run jobs make up a share of the pool proportional
    to n.  The order interleaves the run counts in those proportions,
    starting with one spec of each count, so every prefix a window uses
    holds the same mix and one of each rare short job however long the
    window runs; it is fixed, not seeded, so the cold jobs a run executes
    are the same for every seed.
    """
    groups: Dict[int, List[Dict[str, object]]] = {}
    for runs in range(1, MAX_RUNS_PER_JOB + 1):
        for warmup in range(runs):
            for named in (False, True):
                spec: Dict[str, object] = {
                    "type": "run", "benchmarks": [slug],
                    "sizes": ["SQCIF"], "variants": 1,
                    "warmup": warmup, "repeats": runs - warmup}
                if named:
                    spec["backend"] = "fast"
                groups.setdefault(runs, []).append(spec)
    keyed = []
    for runs, specs in groups.items():
        random.Random(f"{slug}-{runs}").shuffle(specs)
        keyed.extend((index / len(specs), runs, spec)
                     for index, spec in enumerate(specs))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [spec for _, _, spec in keyed]


def definition(seed: int) -> Dict[str, object]:
    return {
        "apps": list(APPS),
        "size": "SQCIF",
        "clients": 1,
        "loop": "closed",
        "cycle": ["run baseline", "hit baseline", "run candidate",
                  "hit candidate", "regress candidate vs baseline"],
        "cycle_source": ("SERVING.md worked session (submit, poll, fetch, "
                         "resubmit = cache hit) and its regress spec (two "
                         "completed run jobs of one cell)"),
        "app_order": f"seed {seed} shuffles every block of {len(APPS)} cycles",
        "max_runs_per_job": MAX_RUNS_PER_JOB,
        "assumption": ("a cold job runs its cell 1 to max_runs_per_job "
                       "times; the documented workflow fixes no job size, "
                       "and the cache needs distinct specs"),
        "cold_specs_per_app": len(cold_specs(APPS[0])),
        "poll_seconds": POLL_SECONDS,
        "server": {"workers": 2, "max_queue": 16},
        "why": ("the only workload that reaches core.jobs, core.serve, "
                "core.export, core.history and core.regress; writes, "
                "reads and no-op cache hits side by side"),
    }


class Server:
    """Set-up: reference outputs for the checks, then the server itself."""

    def __init__(self, out_dir: str, seed: int, spans: Spans) -> None:
        from repro.core import load_all_kernels
        from repro.core.registry import get_benchmark
        from repro.core.runner import run_benchmark
        from repro.core.serve import make_server
        from repro.core.types import InputSize

        root = spans.open("setup")
        start = time.perf_counter()
        load_all_kernels()
        self.reference: Dict[str, str] = {}
        self.reference_errors: Dict[str, str] = {}
        for slug in APPS:
            seq = spans.open(f"setup.{slug}")
            run = run_benchmark(get_benchmark(slug), InputSize.SQCIF, 0,
                                backend="fast")
            spans.close(seq)
            self.reference[slug] = fingerprint(run.outputs)
            error = check_outputs(slug, "SQCIF", run.outputs)
            if error is not None:
                self.reference_errors[slug] = error
        self.setup_ms = 1e3 * (time.perf_counter() - start)
        self.dir = os.path.join(out_dir, f"serve-mix-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        seq = spans.open("setup.server")
        self.server = make_server(
            history_db=os.path.join(self.dir, "history.sqlite"),
            work_dir=os.path.join(self.dir, "work"))
        self.server.start()
        host, port = self.server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            if connection.getresponse().status != 200:
                raise RuntimeError("server did not come up healthy")
        finally:
            connection.close()
        spans.close(seq)
        spans.close(root)

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


class Rpc:
    """A keep-alive JSON-RPC connection."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.connection = http.client.HTTPConnection(*address, timeout=60)
        self._id = 0

    def call(self, method: str, params: Dict[str, object]) -> Dict[str, object]:
        self._id += 1
        body = json.dumps({"jsonrpc": "2.0", "id": self._id,
                           "method": method, "params": params})
        self.connection.request("POST", "/rpc", body=body,
                                headers={"Content-Type": "application/json"})
        return json.loads(self.connection.getresponse().read())

    def get(self, path: str) -> bytes:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> {response.status}")
        return payload

    def close(self) -> None:
        self.connection.close()


class Client:
    """The closed-loop client running its seeded sequence of cycles.

    With a recording ``spans`` every other cycle of each app records RPC
    spans, so traced and untraced jobs of every app and run count
    interleave in one window.
    """

    def __init__(self, seed: int, address: Tuple[str, int],
                 spans: Spans) -> None:
        self.rng = random.Random(seed * 1009)
        self.address = address
        self.spans = spans
        self.pools = {slug: cold_specs(slug) for slug in APPS}
        self.ledger = CellLedger()
        self.counts = {"submitted": 0, "hit": 0, "regress": 0, "rejected": 0}
        #: loop seconds spent in each kind of operation
        self.kind_seconds = {kind: 0.0 for kind in KINDS}
        #: executed jobs: (kind, latency s, queue wait s, exec s, traced op)
        self.executed: List[Tuple[str, float, float, float, bool]] = []
        #: completed run jobs: (job id, app, spec)
        self.runs: List[Tuple[str, str, Dict[str, object]]] = []
        #: app -> the served per-cell median ms of each completed run job
        self.run_medians: Dict[str, List[float]] = {}
        self.submit_rtt: List[float] = []
        self.status_rtt: List[float] = []
        self.wasted_polls = 0
        self.cycles = {slug: 0 for slug in APPS}
        self.traced = False
        self.deadline = 0.0
        self.wall = 0.0
        self.rpc: Optional[Rpc] = None

    def run(self, seconds: float) -> None:
        """Run cycles until ``seconds`` have passed; sets ``wall``."""
        start = time.perf_counter()
        self.deadline = start + seconds
        self.rpc = Rpc(self.address)
        try:
            while self._live():
                order = list(APPS)
                self.rng.shuffle(order)
                for slug in order:
                    if not self._cycle(slug):
                        return
        finally:
            self.wall = time.perf_counter() - start
            self.rpc.close()

    def _live(self) -> bool:
        return time.perf_counter() < self.deadline

    def _cycle(self, slug: str) -> bool:
        """One baseline/candidate cycle on ``slug``; False ends the loop."""
        self.traced = (self.spans.recorder is not None
                       and self.cycles[slug] % 2 == 0)
        self.cycles[slug] += 1
        done: List[str] = []
        for _ in range(2):
            if not self._live():
                return False
            if not self.pools[slug]:
                # A window must never change its mix: fail, do not refill.
                self.ledger.fail(f"run:{slug}", "cold-spec pool used up "
                                 "inside the window")
                return False
            spec = self.pools[slug].pop(0)
            job_id = self._operation("run", spec)
            if job_id is None:
                continue
            done.append(job_id)
            if not self._live():
                return False
            self._operation("hit", spec)
        if len(done) == 2 and self._live():
            self._operation("regress", {
                "type": "regress", "baseline_job": done[0],
                "candidate_job": done[1]})
        return self._live()

    def _operation(self, kind: str, spec: Dict[str, object]) -> Optional[str]:
        traced = self.traced
        spans = self.spans if traced else Spans(None)
        start = time.perf_counter()
        seq = spans.open(f"op.{kind}")
        try:
            if kind == "hit":
                self._hit(spans, spec)
                return None
            if kind == "regress":
                self._regress(spans, spec, traced)
                return None
            return self._cold(spans, spec, traced)
        finally:
            spans.close(seq)
            self.kind_seconds[kind] += time.perf_counter() - start

    def _submit(self, spans: Spans, spec: Dict[str, object]
                ) -> Tuple[Optional[Dict[str, object]], float]:
        self.counts["submitted"] += 1
        seq = spans.open("rpc.job.submit")
        sent = time.time()
        start = time.perf_counter()
        reply = self.rpc.call("job.submit", {"spec": spec,  # type: ignore[union-attr]
                                             "client": "serve-mix"})
        self.submit_rtt.append(time.perf_counter() - start)
        spans.close(seq)
        if "error" in reply:
            self.counts["rejected"] += 1
            return None, sent
        return reply["result"], sent  # type: ignore[return-value]

    def _wait(self, spans: Spans, job_id: str) -> Dict[str, object]:
        while True:
            seq = spans.open("rpc.job.status")
            start = time.perf_counter()
            reply = self.rpc.call("job.status", {"id": job_id})  # type: ignore[union-attr]
            self.status_rtt.append(time.perf_counter() - start)
            spans.close(seq)
            status = reply.get("result")
            if not isinstance(status, dict):
                raise RuntimeError(f"job.status failed: {reply.get('error')}")
            if status["state"] in ("done", "failed", "cancelled", "evicted"):
                return status
            self.wasted_polls += 1
            time.sleep(POLL_SECONDS)

    def _execute(self, spans: Spans, kind: str, label: str,
                 spec: Dict[str, object], traced: bool
                 ) -> Optional[Dict[str, object]]:
        """Submit a job that must execute; its result when it ends done."""
        job, sent = self._submit(spans, spec)
        if job is None:
            self.ledger.fail(label, "submission rejected")
            return None
        if job.get("cached"):
            self.ledger.fail(label, "unexpected cache hit on a new spec")
            return None
        status = self._wait(spans, str(job["id"]))
        if status["state"] != "done":
            self.ledger.fail(label, f"job ended {status['state']}: "
                                    f"{status.get('error')}")
            return None
        self.executed.append((kind, float(status["finished"]) - sent,
                              float(status["queue_wait_s"]),
                              float(status["exec_s"]), traced))
        seq = spans.open("rpc.job.result")
        reply = self.rpc.call("job.result", {"id": job["id"]})  # type: ignore[union-attr]
        spans.close(seq)
        result = reply.get("result")
        if not isinstance(result, dict):
            self.ledger.fail(label, "job.result failed for a done job")
            return None
        return result

    def _cold(self, spans: Spans, spec: Dict[str, object], traced: bool
              ) -> Optional[str]:
        slug = str(spec["benchmarks"][0])  # type: ignore[index]
        label = f"run:{slug}"
        result = self._execute(spans, "run", label, spec, traced)
        if result is None:
            return None
        body = result["result"]
        summary = body.get("summary") or [{}]  # type: ignore[union-attr]
        cell = summary[0]
        if (body.get("type") != "run" or body.get("cells") != 1  # type: ignore[union-attr]
                or cell.get("benchmark") != slug
                or cell.get("size") != "SQCIF" or cell.get("variant") != 0
                or not float(cell.get("median_ms", 0)) > 0
                or body.get("history", {}).get("recorded") != 1):  # type: ignore[union-attr]
            self.ledger.fail(label, f"malformed run result {body}")
            return None
        self.ledger.attempted += 1
        job_id = str(result["job"]["id"])  # type: ignore[index]
        self.runs.append((job_id, slug, spec))
        self.run_medians.setdefault(slug, []).append(float(cell["median_ms"]))
        return job_id

    def _hit(self, spans: Spans, spec: Dict[str, object]) -> None:
        label = f"hit:{spec['benchmarks'][0]}"  # type: ignore[index]
        job, _ = self._submit(spans, spec)
        if job is None:
            self.ledger.fail(label, "submission rejected")
        elif not job.get("cached") or job.get("state") != "done":
            self.ledger.fail(label, "resubmitted done spec missed the cache")
        else:
            self.counts["hit"] += 1
            self.ledger.attempted += 1

    def _regress(self, spans: Spans, spec: Dict[str, object],
                 traced: bool) -> None:
        result = self._execute(spans, "regress", "regress", spec, traced)
        if result is None:
            return
        body = result["result"]
        if (body.get("type") != "regress"  # type: ignore[union-attr]
                or not isinstance(body.get("verdict"), dict)  # type: ignore[union-attr]
                or body.get("exit_code") not in (0, 1)):  # type: ignore[union-attr]
            self.ledger.fail("regress", f"malformed regress result {body}")
            return
        self.counts["regress"] += 1
        self.ledger.attempted += 1


def drive(server: Server, seed: int, seconds: float, spans: Spans) -> Client:
    """Run the client against ``server`` for ``seconds``."""
    client = Client(seed, server.server.address, spans)
    client.run(seconds)
    return client


def fetch_exports(server: Server, client: Client):
    """Fetch every executed run job's export and check its outputs.

    Served outputs must equal the in-process reference run's, which in
    turn passed the quality checks at set-up.  Returns
    ``(app, measured repeats, SuiteResult)`` per readable export.
    """
    from repro.core.export import result_from_json

    rpc = Rpc(server.server.address)
    fetched = []
    try:
        for job_id, slug, spec in client.runs:
            label = f"run:{slug}"
            try:
                text = rpc.get(f"/artifacts/{job_id}/export.json")
                result = result_from_json(text.decode("utf-8"))
                run = result.runs[0]
            except (RuntimeError, ValueError, KeyError, IndexError) as exc:
                client.ledger.fail(label, f"export of {job_id} unreadable: "
                                          f"{type(exc).__name__}: {exc}",
                                   attempted=False)
                continue
            if slug in server.reference_errors:
                client.ledger.fail(label, server.reference_errors[slug],
                                   attempted=False)
            elif exported_fingerprint(run.outputs) != server.reference[slug]:
                client.ledger.fail(label, "served outputs differ from the "
                                          "in-process reference run",
                                   attempted=False)
            fetched.append((slug, int(spec["repeats"]), result))  # type: ignore[call-overload]
    finally:
        rpc.close()
    return fetched


def end_to_end(client: Client) -> Dict[str, float]:
    latencies = [lat for _, lat, _, _, _ in client.executed]
    app_runs = sum(int(spec["warmup"]) + int(spec["repeats"])  # type: ignore[call-overload]
                   for _, _, spec in client.runs)
    done = len(client.executed) + client.counts["hit"]
    wall = client.wall
    return {
        "runs_per_s": app_runs / wall if wall else 0.0,
        "geomean_run_ms": geomean(median(v)
                                  for v in client.run_medians.values()),
        "job_p50_ms": 1e3 * percentile(latencies, 50),
        "job_p90_ms": 1e3 * percentile(latencies, 90),
        "jobs_per_s": done / wall if wall else 0.0,
    }


def report_lines(client: Client) -> List[str]:
    """Operation counts, cold-spec pool use and each kind's loop share."""
    latencies = [e[1] for e in client.executed]
    beyond = sum(1 for v in latencies if v > percentile(latencies, 90))
    counts = dict(client.counts, executed=len(client.executed))
    pool = len(cold_specs(APPS[0]))
    used = {slug: pool - len(specs) for slug, specs in client.pools.items()}
    busy = sum(client.kind_seconds.values()) or 1.0
    return [
        "serve-mix counts: " + " ".join(
            f"{key}={counts[key]}" for key in
            ("submitted", "executed", "hit", "regress", "rejected")),
        f"loop wall {client.wall:.2f} s; {len(latencies)} executed jobs, "
        f"{beyond} beyond p90",
        "cold specs used (of {} per app): {}".format(pool, " ".join(
            f"{slug}={n}" for slug, n in used.items())),
        "share of loop time: " + " ".join(
            f"{kind}={100.0 * s / busy:.1f}%"
            for kind, s in client.kind_seconds.items()),
    ]


def layer_metrics(server: Server, client: Client, fetched
                  ) -> Tuple[Dict[str, float], Dict[str, float],
                             Dict[str, float]]:
    """Job, serve, telemetry, store and app metrics of one traced run,
    plus registered-kernel calls and seconds per pass over the apps."""
    from layers import persistence_probe
    from repro.core.types import NON_KERNEL_WORK

    executed = client.executed
    total = client.counts
    results = [result for _, _, result in fetched]
    out = persistence_probe(results, os.path.join(server.dir, "probe"),
                            "serve-mix")
    out.update({
        "jobs.queue_wait_ms": 1e3 * median([e[2] for e in executed]),
        "jobs.exec_ms": 1e3 * median([e[3] for e in executed]),
        "jobs.cache_hit_ratio": (total["hit"] / total["submitted"]
                                 if total["submitted"] else 0.0),
        "jobs.rejected": float(total["rejected"]),
        "serve.submit_rtt_ms": 1e3 * median(client.submit_rtt),
        "serve.status_rtt_ms": 1e3 * median(client.status_rtt),
        "serve.polls_per_job": (client.wasted_polls / len(executed)
                                if executed else 0.0),
        "telemetry.events": float(server.server.manager.events.emitted),
        # The served regress jobs, not the probe's in-process comparison.
        "regress.ms": 1e3 * median([e[3] for e in executed
                                    if e[0] == "regress"]),
        "runner.setup_ms": server.setup_ms,
    })
    # Latency outside the job's own execution, so job sizes cancel out;
    # the difference is taken as a share of the untraced latency.
    traced = [e[1] - e[3] for e in executed if e[4]]
    untraced = [e[1] - e[3] for e in executed if not e[4]]
    if traced and untraced:
        out["trace.overhead_pct"] = 100.0 * (
            median(traced) - median(untraced)) / median(
                [e[1] for e in executed if not e[4]])
    by_app: Dict[str, List[object]] = {}
    #: app -> per measured repeat {kernel: (calls, seconds)}, one per run
    per_run: Dict[str, List[Dict[str, Tuple[float, float]]]] = {}
    for slug, repeats, result in fetched:
        for run in result.runs:
            by_app.setdefault(slug, []).append(run)
            per_run.setdefault(slug, []).append({
                name: (work["calls"] / repeats, work["seconds"] / repeats)
                for name, work in (run.metrics or {}).get("kernels",
                                                          {}).items()})
    for slug, runs in by_app.items():
        out[f"app.{slug}.run_ms"] = 1e3 * median(
            [r.total_seconds for r in runs])
        out[f"app.{slug}.nonkernel_pct"] = median(
            [r.occupancy()[NON_KERNEL_WORK] for r in runs])
    # One pass over the served apps: each app's median run, summed.
    calls: Dict[str, float] = {}
    seconds: Dict[str, float] = {}
    for runs in per_run.values():
        for name in {name for work in runs for name in work}:
            calls[name] = calls.get(name, 0.0) + median(
                [work.get(name, (0.0, 0.0))[0] for work in runs])
            seconds[name] = seconds.get(name, 0.0) + median(
                [work.get(name, (0.0, 0.0))[1] for work in runs])
    return out, calls, seconds
