"""Tests for the benchmark service: jobs, admission control, JSON-RPC.

The admission-control tests inject a gated executor so queue depth is
under test control; the round-trip tests run the real executors on the
smallest input (disparity @ SQCIF) against a live in-process
ThreadingHTTPServer on an ephemeral port.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.history import open_history
from repro.core.jobs import (
    JobManager,
    NotCancellableError,
    QueueFullError,
    RateLimitedError,
    SpecError,
    TokenBucket,
    UnknownJobError,
    spec_digest,
    validate_spec,
)
from repro.core.serve import (
    INVALID_PARAMS,
    INVALID_REQUEST,
    JOB_NOT_DONE,
    METHOD_NOT_FOUND,
    NOT_CANCELLABLE,
    PARSE_ERROR,
    QUEUE_FULL,
    RATE_LIMITED,
    UNKNOWN_JOB,
    BenchServer,
    make_server,
)

RUN_SPEC = {"type": "run", "benchmarks": ["disparity"], "sizes": ["SQCIF"],
            "repeats": 1}


def wait_for(manager, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = manager.status(job_id)
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish: "
                         f"{manager.status(job_id)}")


class GatedExecutor:
    """Executor that blocks until released, counting executions."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, job, manager):
        with self._lock:
            self.calls += 1
        self.gate.wait(timeout=30.0)
        return {"ok": True, "digest": job.digest}, {}


# ----------------------------------------------------------------------
# Spec validation and canonical digests


class TestSpecs:
    def test_run_spec_fills_defaults(self):
        spec = validate_spec({"type": "run", "benchmarks": ["disparity"]})
        assert spec["sizes"] == ["SQCIF", "QCIF", "CIF"]
        assert spec["repeats"] == 1 and spec["warmup"] == 0
        assert spec["backend"] is None

    def test_equivalent_specs_share_a_digest(self):
        explicit = validate_spec({"type": "run", "benchmarks": ["disparity"],
                                  "sizes": ["sqcif", "qcif", "cif"],
                                  "repeats": 1, "warmup": 0, "variants": 1})
        defaulted = validate_spec({"type": "run",
                                   "benchmarks": ["disparity"]})
        assert spec_digest(explicit) == spec_digest(defaulted)
        assert len(spec_digest(explicit)) == 16

    def test_different_specs_differ(self):
        a = validate_spec({"type": "run", "benchmarks": ["disparity"]})
        b = validate_spec({"type": "run", "benchmarks": ["disparity"],
                           "repeats": 2})
        assert spec_digest(a) != spec_digest(b)

    @pytest.mark.parametrize("bad", [
        None,
        {"type": "nope"},
        {"type": "run", "benchmarks": ["zzz"]},
        {"type": "run", "sizes": ["huge"]},
        {"type": "run", "repeats": 0},
        {"type": "run", "warmup": -1},
        {"type": "run", "backend": "gpu"},
        {"type": "run", "variants": 6},
        {"type": "trace"},
        {"type": "flame", "benchmark": "disparity", "interval": 0.0},
        {"type": "flame", "benchmark": "disparity", "format": "svg"},
        {"type": "regress", "candidate_job": "job-1"},
        {"type": "report", "from_job": 7},
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(SpecError):
            validate_spec(bad)

    # One list of bad values, rejected by both shells through the one
    # command table: the CLI exits 2 and the server raises SpecError
    # naming the same parameter.
    @pytest.mark.parametrize("argv, spec, field", [
        (["trace", "disparity", "--variant", "5"],
         {"type": "trace", "benchmark": "disparity", "variant": 5},
         "variant"),
        (["run", "disparity", "--variants", "0"],
         {"type": "run", "benchmarks": ["disparity"], "variants": 0},
         "variants"),
        (["run", "disparity", "--variants", "6"],
         {"type": "run", "benchmarks": ["disparity"], "variants": 6},
         "variants"),
        (["flame", "disparity", "--repeats", "0"],
         {"type": "flame", "benchmark": "disparity", "repeats": 0},
         "repeats"),
        (["run", "disparity", "--warmup", "-1"],
         {"type": "run", "benchmarks": ["disparity"], "warmup": -1},
         "warmup"),
        (["flame", "disparity", "--interval", "0"],
         {"type": "flame", "benchmark": "disparity", "interval": 0},
         "interval"),
        (["regress", "candidate.json", "--sigmas", "-1"],
         {"type": "regress", "candidate_job": "job-000002",
          "baseline_job": "job-000001", "sigmas": -1},
         "sigmas"),
        (["trace", "disparity", "--size", "XL"],
         {"type": "trace", "benchmark": "disparity", "size": "XL"},
         "size"),
        (["run", "disparity", "--sizes", "XL"],
         {"type": "run", "benchmarks": ["disparity"], "sizes": ["XL"]},
         "sizes"),
        (["trace", "nosuch"],
         {"type": "trace", "benchmark": "nosuch"},
         "benchmark"),
        (["run", "nosuch"],
         {"type": "run", "benchmarks": ["nosuch"]},
         "benchmarks"),
        (["run", "disparity", "--backend", "gpu"],
         {"type": "run", "benchmarks": ["disparity"], "backend": "gpu"},
         "backend"),
    ], ids=["variant-5", "variants-0", "variants-6", "repeats-0",
            "warmup-neg", "interval-0", "sigmas-neg", "size-XL",
            "sizes-XL", "slug", "slugs", "backend"])
    def test_both_shells_reject(self, argv, spec, field, tmp_path,
                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SpecError) as excinfo:
            validate_spec(spec)
        assert excinfo.value.data["field"] == field

    def test_size_and_slug_normalization(self):
        spec = validate_spec({"type": "trace", "benchmark": "disparity",
                              "size": "cif"})
        assert spec["size"] == "CIF"


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: now[0])
        assert bucket.take() == (True, 0.0)
        assert bucket.take() == (True, 0.0)
        ok, wait = bucket.take()
        assert not ok and wait == pytest.approx(0.5)
        now[0] += 0.5
        assert bucket.take()[0]


# ----------------------------------------------------------------------
# Admission control (gated executor; no real benchmark work)


class TestAdmission:
    def make(self, **kwargs):
        executor = GatedExecutor()
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("work_dir", "/tmp/sdvbs-test-admission")
        manager = JobManager(executor=executor, **kwargs)
        manager.start()
        return manager, executor

    def specs(self, count, start=0):
        return [{"type": "run", "benchmarks": ["disparity"],
                 "sizes": ["SQCIF"], "repeats": start + i + 1}
                for i in range(count)]

    def test_queue_full_rejection_is_typed(self):
        # Watermarks pinned to the cap so the hard queue-full path is
        # what rejects (backpressure has its own test below).
        manager, executor = self.make(max_queue=2, low_watermark=2,
                                      high_watermark=2)
        try:
            manager.submit(self.specs(1)[0])
            time.sleep(0.1)  # the worker holds job 1; queue drains to 0
            manager.submit(self.specs(1, start=1)[0])
            manager.submit(self.specs(1, start=2)[0])  # depth 2 == cap
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(self.specs(1, start=3)[0])
            data = excinfo.value.data
            assert data["retry_after_s"] >= 1.0
            assert data["reason"] == "queue-full"
            assert manager.metrics.counters["rejected.queue_full"] == 1
        finally:
            executor.gate.set()
            manager.stop()

    def test_watermark_backpressure_admits_only_high(self):
        manager, executor = self.make(max_queue=8, low_watermark=1,
                                      high_watermark=2)
        try:
            manager.submit(self.specs(1)[0])
            time.sleep(0.1)  # worker holds job 1; queue is empty again
            manager.submit(self.specs(1, start=1)[0])
            manager.submit(self.specs(1, start=2)[0])  # depth 2 == HIGH
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(self.specs(1, start=3)[0])
            assert excinfo.value.data["reason"] == "backpressure"
            # High-priority work is still admitted while saturated.
            job, cached = manager.submit(self.specs(1, start=4)[0],
                                         priority="high")
            assert not cached and job.state == "queued"
        finally:
            executor.gate.set()
            manager.stop()

    def test_high_priority_evicts_youngest_lower(self):
        manager, executor = self.make(max_queue=2)
        try:
            manager.submit(self.specs(1)[0])
            time.sleep(0.1)
            manager.submit(self.specs(1, start=1)[0])
            victim, _ = manager.submit(self.specs(1, start=2)[0],
                                       priority="low")
            evictor, cached = manager.submit(self.specs(1, start=3)[0],
                                             priority="high")
            assert not cached
            assert manager.status(victim.id)["state"] == "evicted"
            assert manager.status(evictor.id)["state"] == "queued"
            assert manager.metrics.counters["jobs.evicted"] == 1
        finally:
            executor.gate.set()
            manager.stop()

    def test_no_accepted_job_is_lost_under_burst(self):
        manager, executor = self.make(max_queue=4, workers=2)
        accepted, rejected = [], 0
        try:
            for spec in self.specs(32):
                try:
                    job, _ = manager.submit(spec)
                    accepted.append(job.id)
                except QueueFullError:
                    rejected += 1
            executor.gate.set()
            for job_id in accepted:
                assert wait_for(manager, job_id)["state"] == "done"
            assert rejected > 0
            counts = manager.counts()
            assert counts["done"] == len(accepted)
        finally:
            executor.gate.set()
            manager.stop()

    def test_rate_limit_rejection_is_typed(self):
        manager, executor = self.make(max_queue=16, rate_limit=1.0,
                                      rate_burst=2)
        try:
            manager.submit(self.specs(1)[0], client="alice")
            manager.submit(self.specs(1, start=1)[0], client="alice")
            with pytest.raises(RateLimitedError) as excinfo:
                manager.submit(self.specs(1, start=2)[0], client="alice")
            assert excinfo.value.data["retry_after_s"] > 0
            # Another client has its own bucket.
            manager.submit(self.specs(1, start=3)[0], client="bob")
        finally:
            executor.gate.set()
            manager.stop()

    def test_cancel_queued_only(self):
        manager, executor = self.make(max_queue=4)
        try:
            running, _ = manager.submit(self.specs(1)[0])
            time.sleep(0.1)
            queued, _ = manager.submit(self.specs(1, start=1)[0])
            assert manager.cancel(queued.id)["state"] == "cancelled"
            with pytest.raises(NotCancellableError):
                manager.cancel(running.id)
            with pytest.raises(NotCancellableError):
                manager.cancel(queued.id)  # already terminal
            with pytest.raises(UnknownJobError):
                manager.cancel("job-999999")
        finally:
            executor.gate.set()
            manager.stop()

    def test_duplicate_spec_served_from_cache(self):
        manager, executor = self.make(max_queue=4)
        executor.gate.set()
        try:
            spec = self.specs(1)[0]
            first, cached = manager.submit(spec)
            assert not cached
            wait_for(manager, first.id)
            again, cached = manager.submit(dict(spec))
            assert cached and again.id == first.id
            assert executor.calls == 1
            assert manager.metrics.counters["cache.hits"] == 1
            assert manager.info()["cache"]["hits"] == 1
        finally:
            manager.stop()

    def test_priority_order_of_execution(self):
        manager, executor = self.make(max_queue=8)
        order = []
        lock = threading.Lock()

        def tracking(job, mgr):
            with lock:
                order.append(job.priority)
            executor.gate.wait(timeout=30.0)
            return {}, {}

        manager.executor = tracking
        try:
            blocker, _ = manager.submit(self.specs(1)[0])
            time.sleep(0.1)
            manager.submit(self.specs(1, start=1)[0], priority="low")
            manager.submit(self.specs(1, start=2)[0], priority="normal")
            manager.submit(self.specs(1, start=3)[0], priority="high")
            executor.gate.set()
            deadline = time.monotonic() + 10.0
            while len(order) < 4 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert order[1:] == ["high", "normal", "low"]
        finally:
            executor.gate.set()
            manager.stop()

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            JobManager(max_queue=4, low_watermark=5, high_watermark=2)


# ----------------------------------------------------------------------
# HTTP/JSON-RPC round trips (live server, real executors)


@pytest.fixture(scope="class")
def server(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    bench = make_server(port=0, workers=2, max_queue=8,
                        history_db=str(tmp / "history.sqlite"),
                        work_dir=str(tmp / "work"))
    bench.start()
    request.cls.server = bench
    request.cls.url = bench.url
    yield bench
    bench.stop()


def rpc_call(url, method, params=None, rid=1, raw=None):
    body = raw if raw is not None else json.dumps(
        {"jsonrpc": "2.0", "id": rid, "method": method,
         "params": params or {}}).encode("utf-8")
    request = urllib.request.Request(
        url + "/", data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.usefixtures("server")
class TestHttpRoundTrip:
    def submit(self, spec, **params):
        status, body = rpc_call(self.url, "job.submit",
                                {"spec": spec, **params})
        assert status == 200, body
        return body["result"]

    def wait_http(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, body = rpc_call(self.url, "job.status", {"id": job_id})
            if body["result"]["state"] in ("done", "failed"):
                return body["result"]
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never finished")

    def test_run_submit_status_result_and_cache(self):
        first = self.submit(RUN_SPEC)
        assert first["state"] == "queued" and not first["cached"]
        status = self.wait_http(first["id"])
        assert status["state"] == "done", status["error"]

        _, body = rpc_call(self.url, "job.result", {"id": first["id"]})
        result = body["result"]
        assert result["result"]["type"] == "run"
        assert result["result"]["cells"] == 1
        assert result["result"]["history"]["recorded"] == 1
        artifact = result["artifacts"]["export.json"]

        # The artifact streams back over plain GET as a v8 export with
        # job provenance, and its manifest argv is the canonical
        # ["serve", "job", digest] form.
        with urllib.request.urlopen(self.url + artifact) as response:
            payload = json.loads(response.read())
        assert payload["schema"] == "sdvbs-repro/suite-result/v8"
        assert payload["job"]["id"] == first["id"]
        assert payload["manifest"]["argv"] == \
            ["serve", "job", first["digest"]]

        # Identical resubmission: served from cache, same job id, no
        # re-execution (the history count did not grow).
        again = self.submit(dict(RUN_SPEC))
        assert again["cached"] and again["id"] == first["id"]
        _, info = rpc_call(self.url, "server.info")
        assert info["result"]["cache"]["hits"] >= 1
        assert info["result"]["schema"] == "sdvbs-repro/serve/v1"

        # Recording was idempotent: one cell for this manifest hash.
        digest = result["result"]["history"]["manifest_hash"]
        with open_history(self.server.manager.history_db) as store:
            assert len(store.entries(manifest_hash=digest)) == 1

    def test_regress_round_trip_via_from_jobs(self):
        base = self.submit(RUN_SPEC)
        job_id = base["id"] if base["cached"] else base["id"]
        self.wait_http(job_id)
        verdict = self.submit({"type": "regress", "candidate_job": job_id,
                               "baseline_job": job_id})
        status = self.wait_http(verdict["id"])
        assert status["state"] == "done", status["error"]
        _, body = rpc_call(self.url, "job.result", {"id": verdict["id"]})
        result = body["result"]
        assert result["result"]["exit_code"] == 0
        assert "verdict.json" in result["artifacts"]

    def test_malformed_json_is_parse_error(self):
        status, body = rpc_call(self.url, None, raw=b"{not json")
        assert status == 400
        assert body["error"]["code"] == PARSE_ERROR

    def test_batch_and_non_rpc_are_invalid_request(self):
        status, body = rpc_call(self.url, None, raw=b"[]")
        assert status == 400 and body["error"]["code"] == INVALID_REQUEST
        status, body = rpc_call(self.url, None, raw=b'{"method": "x"}')
        assert status == 400 and body["error"]["code"] == INVALID_REQUEST

    def test_unknown_method(self):
        status, body = rpc_call(self.url, "job.nope")
        assert status == 404
        assert body["error"]["code"] == METHOD_NOT_FOUND

    def test_invalid_spec_is_invalid_params(self):
        status, body = rpc_call(self.url, "job.submit",
                                {"spec": {"type": "run",
                                          "benchmarks": ["zzz"]}})
        assert status == 400
        assert body["error"]["code"] == INVALID_PARAMS
        assert "zzz" in body["error"]["message"]

    def test_unknown_job_and_not_done(self):
        status, body = rpc_call(self.url, "job.status", {"id": "job-999999"})
        assert status == 400 and body["error"]["code"] == UNKNOWN_JOB
        # A cancelled job exists but never produces a result.
        sub = self.submit(RUN_SPEC)
        job_id = sub["id"]
        self.wait_http(job_id)
        pending = self.submit({"type": "regress", "candidate_job": job_id,
                               "baseline_job": job_id, "sigmas": 3.0})
        _, body = rpc_call(self.url, "job.result", {"id": "job-999999"})
        assert body["error"]["code"] == UNKNOWN_JOB
        self.wait_http(pending["id"])

    def test_cancel_errors_over_http(self):
        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        status, body = rpc_call(self.url, "job.cancel", {"id": sub["id"]})
        assert status == 400
        assert body["error"]["code"] == NOT_CANCELLABLE

    def test_job_list_filters(self):
        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        _, body = rpc_call(self.url, "job.list", {"state": "done"})
        jobs = body["result"]["jobs"]
        assert jobs and all(j["state"] == "done" for j in jobs)

    def test_healthz_and_artifact_404(self):
        with urllib.request.urlopen(self.url + "/healthz") as response:
            assert json.loads(response.read())["ok"] is True
        try:
            urllib.request.urlopen(self.url + "/artifacts/job-999999/x.json")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404

    def test_artifact_path_cannot_traverse(self):
        # Names resolve against the job's artifact table; an arbitrary
        # path segment is a typed miss, not a filesystem read.
        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        try:
            urllib.request.urlopen(
                self.url + f"/artifacts/{sub['id']}/..%2F..%2Fsecret")
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404


class TestHttpAdmission:
    """Queue-full and rate-limit carry the documented codes over HTTP."""

    def test_queue_full_and_rate_limit_codes(self, tmp_path):
        executor = GatedExecutor()
        manager = JobManager(workers=1, max_queue=1, rate_limit=100.0,
                             rate_burst=100, work_dir=str(tmp_path),
                             executor=executor)
        bench = BenchServer(manager, port=0)
        bench.start()
        try:
            url = bench.url
            specs = [{"type": "run", "benchmarks": ["disparity"],
                      "sizes": ["SQCIF"], "repeats": i + 1}
                     for i in range(8)]
            assert rpc_call(url, "job.submit", {"spec": specs[0]})[0] == 200
            time.sleep(0.1)
            assert rpc_call(url, "job.submit", {"spec": specs[1]})[0] == 200
            status, body = rpc_call(url, "job.submit", {"spec": specs[2]})
            assert status == 429
            assert body["error"]["code"] == QUEUE_FULL
            assert body["error"]["data"]["retry_after_s"] >= 1.0
        finally:
            executor.gate.set()
            bench.stop()

    def test_rate_limit_code(self, tmp_path):
        executor = GatedExecutor()
        executor.gate.set()
        manager = JobManager(workers=1, max_queue=16, rate_limit=0.001,
                             rate_burst=1, work_dir=str(tmp_path),
                             executor=executor)
        bench = BenchServer(manager, port=0)
        bench.start()
        try:
            url = bench.url
            spec = {"type": "run", "benchmarks": ["disparity"],
                    "sizes": ["SQCIF"], "repeats": 1}
            assert rpc_call(url, "job.submit", {"spec": spec,
                                                "client": "c"})[0] == 200
            status, body = rpc_call(
                url, "job.submit",
                {"spec": {**spec, "repeats": 2}, "client": "c"})
            assert status == 429
            assert body["error"]["code"] == RATE_LIMITED
            assert body["error"]["data"]["retry_after_s"] > 0
        finally:
            bench.stop()


# ----------------------------------------------------------------------
# CLI surface


# ----------------------------------------------------------------------
# Telemetry: /metrics, /healthz readiness, request ids, access log, top


@pytest.mark.usefixtures("server")
class TestTelemetryHttp:
    def submit(self, spec, **params):
        status, body = rpc_call(self.url, "job.submit",
                                {"spec": spec, **params})
        assert status == 200, body
        return body["result"]

    def wait_http(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, body = rpc_call(self.url, "job.status", {"id": job_id})
            if body["result"]["state"] in ("done", "failed"):
                return body["result"]
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never finished")

    def test_metrics_exposition_agrees_with_server_info(self):
        from repro.core.telemetry import lint_exposition, parse_metric_key

        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        with urllib.request.urlopen(self.url + "/metrics") as response:
            assert response.headers["Content-Type"] \
                == "text/plain; version=0.0.4; charset=utf-8"
            text = response.read().decode("utf-8")
        samples = lint_exposition(text)
        # The catalog's load-bearing series all exist.
        for required in ("sdvbs_queue_depth", "sdvbs_jobs_state",
                         "sdvbs_cache_hits_total",
                         "sdvbs_cache_misses_total",
                         "sdvbs_workers_busy", "sdvbs_workers_total",
                         "sdvbs_job_queue_wait_seconds_count",
                         "sdvbs_job_exec_seconds_count",
                         "sdvbs_job_queue_wait_seconds_bucket",
                         "sdvbs_job_exec_seconds_bucket"):
            assert required in samples, f"missing {required}"
        # Cross-check: histogram _count/_sum match the latency block
        # server.info reports (no jobs are running, so no drift).
        _, body = rpc_call(self.url, "server.info")
        latency = body["result"]["latency"]
        for family in ("queue_wait", "exec"):
            name = f"sdvbs_job_{family}_seconds"
            for labels, value in samples[f"{name}_count"]:
                summary = latency[labels["type"]][family]
                assert value == summary["count"]
            for labels, value in samples[f"{name}_sum"]:
                summary = latency[labels["type"]][family]
                assert value == pytest.approx(summary["sum"])
        # Jobs-by-state gauges match the info tally.
        states = {labels["state"]: value
                  for labels, value in samples["sdvbs_jobs_state"]}
        assert states == {k: float(v)
                          for k, v in body["result"]["jobs"].items()}
        # server.metrics returns the same data as JSON.
        _, body = rpc_call(self.url, "server.metrics")
        histograms = body["result"]["histograms"]
        for key, summary in histograms.items():
            base, labels = parse_metric_key(key)
            if base == "job.exec_seconds":
                assert summary["count"] \
                    == latency[labels["type"]]["exec"]["count"]

    def test_trace_artifact_has_lifecycle_envelope(self):
        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        _, body = rpc_call(self.url, "job.result", {"id": sub["id"]})
        artifact = body["result"]["artifacts"]["trace.json"]
        with urllib.request.urlopen(self.url + artifact) as response:
            doc = json.loads(response.read())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        spans = {e["name"]: e for e in events}
        job_span = spans[f"job:{sub['id']}"]
        running = spans["running"]
        queued = spans["queued"]
        kernels = [e for e in events if e.get("cat") == "kernel"]
        assert job_span["cat"] == "lifecycle"
        assert kernels, "run trace must contain kernel spans"

        def contains(outer, inner, slack=1.0):
            return (outer["ts"] - slack <= inner["ts"]
                    and inner["ts"] + inner["dur"]
                    <= outer["ts"] + outer["dur"] + slack)

        # queued and running partition the envelope; every kernel span
        # sits inside running, which sits inside the job span.
        assert contains(job_span, queued)
        assert contains(job_span, running)
        for kernel in kernels:
            assert contains(running, kernel), kernel["name"]

    def test_request_id_echo_and_propagation(self):
        body = json.dumps({
            "jsonrpc": "2.0", "id": 1, "method": "job.submit",
            "params": {"spec": dict(RUN_SPEC)},
        }).encode("utf-8")
        request = urllib.request.Request(
            self.url + "/", data=body,
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "trace-me-42"})
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Request-Id"] == "trace-me-42"
            job = json.loads(response.read())["result"]
        # Cached or fresh, the submission stamps the job record only
        # when it created it; a fresh submit carries the id through.
        if not job["cached"]:
            assert job["request_id"] == "trace-me-42"
        # Without a client-supplied header the server generates one.
        with urllib.request.urlopen(self.url + "/healthz") as response:
            assert response.headers["X-Request-Id"]

    def test_top_cli_once_json(self, capsys):
        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        assert main(["top", "--url", self.url, "--once", "--json"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["workers"]["total"] == 2
        assert frame["jobs"]["done"] >= 1
        assert "run" in frame["latency"]
        assert main(["top", "--url", self.url, "--once"]) == 0
        text = capsys.readouterr().out
        assert "sdvbs top" in text and "queue-wait" in text

    def test_top_cli_unreachable_exit_2(self, capsys):
        assert main(["top", "--url", "http://127.0.0.1:9",
                     "--once"]) == 2
        assert "sdvbs top" in capsys.readouterr().err


class TestHealthzReadiness:
    def test_healthz_reports_real_state_and_drains_to_503(self, tmp_path):
        executor = GatedExecutor()
        manager = JobManager(workers=1, max_queue=4,
                             work_dir=str(tmp_path), executor=executor)
        bench = BenchServer(manager, port=0)
        bench.start()
        try:
            with urllib.request.urlopen(bench.url + "/healthz") as response:
                body = json.loads(response.read())
            assert body["ok"] is True
            assert body["shutting_down"] is False
            assert body["workers"] == {"total": 1, "busy": 0}
            assert body["queue_depth"] == 0
            assert body["saturated"] is False
            assert body["uptime_s"] >= 0.0
            # Flip to draining: probes must see 503 with ok false while
            # read-only RPC (server.metrics) stays answerable.
            bench._shutting_down = True
            try:
                urllib.request.urlopen(bench.url + "/healthz")
                raise AssertionError("expected 503")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                body = json.loads(exc.read())
            assert body["ok"] is False and body["shutting_down"] is True
            status, body = rpc_call(bench.url, "server.metrics")
            assert status == 200 and "counters" in body["result"]
            status, body = rpc_call(bench.url, "job.list")
            assert status == 503
        finally:
            executor.gate.set()
            bench.stop()


class TestAccessLog:
    def test_access_log_off_by_default_but_metrics_count(self, tmp_path):
        bench = make_server(port=0, work_dir=str(tmp_path))
        bench.start()
        try:
            urllib.request.urlopen(bench.url + "/healthz").read()
            events = bench.manager.events.recent(event="http.access")
            assert events == []
            counters = bench.manager.metrics.counters
            assert sum(v for k, v in counters.items()
                       if k.startswith("http.requests")) >= 1
        finally:
            bench.stop()

    def test_access_log_records_structured_events(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        bench = make_server(port=0, work_dir=str(tmp_path / "work"),
                            access_log=True, log_file=str(log_path))
        bench.start()
        try:
            request = urllib.request.Request(
                bench.url + "/healthz",
                headers={"X-Request-Id": "probe-7"})
            urllib.request.urlopen(request).read()
            deadline = time.monotonic() + 5.0
            access = []
            while time.monotonic() < deadline and not access:
                access = bench.manager.events.recent(event="http.access")
                time.sleep(0.01)
            assert access, "expected an http.access event"
            record = access[-1]
            assert record["method"] == "GET"
            assert record["path"] == "/healthz"
            assert record["status"] == 200
            assert record["request_id"] == "probe-7"
            assert record["duration_ms"] >= 0.0
            # The same record landed in the JSON-lines sink.
            lines = [json.loads(line)
                     for line in log_path.read_text().splitlines()]
            assert any(r.get("event") == "http.access"
                       and r.get("request_id") == "probe-7"
                       for r in lines)
        finally:
            bench.stop()


class TestManagerTelemetry:
    """Job-lifecycle metrics and events on the manager itself."""

    def test_registry_threadsafe_by_default(self, tmp_path):
        # The serve regression: concurrent workers hammering one
        # counter must never drop an increment.
        manager = JobManager(workers=1, work_dir=str(tmp_path),
                             executor=GatedExecutor())
        barrier = threading.Barrier(8)

        def pound():
            barrier.wait()
            for _ in range(500):
                manager.metrics.inc("test.concurrent")

        threads = [threading.Thread(target=pound) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert manager.metrics.counters["test.concurrent"] == 4000

    def test_lifecycle_events_and_state_gauges(self, tmp_path):
        executor = GatedExecutor()
        executor.gate.set()
        manager = JobManager(workers=1, work_dir=str(tmp_path),
                             executor=executor)
        manager.start()
        try:
            spec = {"type": "run", "benchmarks": ["disparity"],
                    "sizes": ["SQCIF"], "repeats": 1}
            job, _ = manager.submit(spec, request_id="rid-1")
            wait_for(manager, job.id)
            events = [r["event"] for r in manager.events.recent()]
            for expected in ("job.submit", "job.pickup", "job.state",
                             "job.done"):
                assert expected in events, events
            done = manager.events.recent(event="job.done")[-1]
            assert done["id"] == job.id
            assert done["request_id"] == "rid-1"
            status = manager.status(job.id)
            assert status["queue_wait_s"] >= 0.0
            assert status["exec_s"] > 0.0
            gauges = manager.metrics.gauges
            assert gauges["jobs.state{state=done}"] == 1
            assert gauges["jobs.state{state=queued}"] == 0
            assert gauges["workers.busy"] == 0
        finally:
            manager.stop()

    def test_failed_job_emits_and_counts(self, tmp_path):
        def broken(job, mgr):
            raise RuntimeError("kaboom")

        manager = JobManager(workers=1, work_dir=str(tmp_path),
                             executor=broken)
        manager.start()
        try:
            spec = {"type": "run", "benchmarks": ["disparity"],
                    "sizes": ["SQCIF"], "repeats": 1}
            job, _ = manager.submit(spec)
            status = wait_for(manager, job.id)
            assert status["state"] == "failed"
            failed = manager.events.recent(event="job.failed")
            assert failed and "kaboom" in failed[-1]["error"]
            assert failed[-1]["level"] == "error"
            assert manager.metrics.gauges["jobs.state{state=failed}"] == 1
            # exec latency is observed even for failures.
            key = "job.exec_seconds{type=run}"
            assert manager.metrics.log_histogram(key).count == 1
        finally:
            manager.stop()


class TestContinuousProfiler:
    """Unit-level continuous-profiler behavior (no live server)."""

    def test_overhead_audit_shape(self):
        from repro.core.jobs import measure_sampler_overhead

        audit = measure_sampler_overhead(0.005, work_seconds=0.01,
                                         passes=2)
        assert set(audit) == {"interval_seconds", "work_seconds",
                              "passes", "overhead_pct"}
        assert audit["interval_seconds"] == 0.005
        assert audit["passes"] == 2.0
        assert audit["overhead_pct"] >= 0.0

    def test_overhead_audit_validates_args(self):
        from repro.core.jobs import measure_sampler_overhead

        with pytest.raises(ValueError):
            measure_sampler_overhead(0.0)
        with pytest.raises(ValueError):
            measure_sampler_overhead(0.005, passes=0)

    def test_disabled_audit_is_deterministic(self):
        from repro.core.jobs import ContinuousProfiler

        profiler = ContinuousProfiler(interval=0.005,
                                      measure_overhead=False)
        assert profiler.overhead["overhead_pct"] == 0.0
        assert profiler.audit_block() == profiler.overhead
        assert profiler.audit_block() is not profiler.overhead

    def test_interval_must_be_positive(self):
        from repro.core.jobs import ContinuousProfiler

        with pytest.raises(ValueError):
            ContinuousProfiler(interval=0.0, measure_overhead=False)

    def test_record_merges_per_type_aggregates(self):
        from repro.core.jobs import ContinuousProfiler
        from repro.core.sampling import SampledProfile

        profiler = ContinuousProfiler(interval=0.005,
                                      measure_overhead=False)
        one = SampledProfile(interval=0.005, samples=4,
                             folded={("m", "a"): 0.02},
                             kernel_seconds={"A": 0.02},
                             observable=("A",))
        two = SampledProfile(interval=0.005, samples=6,
                             folded={("m", "a"): 0.03},
                             kernel_seconds={"A": 0.03},
                             observable=("A",))
        profiler.record("run", one)
        profiler.record("run", two)
        profiler.record("report", one)
        assert profiler.jobs_sampled == 3
        assert profiler.samples == 14
        assert profiler.job_types() == ["report", "run"]
        collapsed = profiler.collapsed("run")
        assert collapsed is not None and "m;a" in collapsed
        assert profiler.collapsed("flame") is None

        snapshot = profiler.snapshot()
        assert snapshot["enabled"] is True
        run = snapshot["types"]["run"]
        assert run["samples"] == 10
        assert run["artifact"] == "/artifacts/profile/run.collapsed"
        only = profiler.snapshot(job_type="report")
        assert set(only["types"]) == {"report"}

    def test_manager_without_profiler_reports_disabled(self, tmp_path):
        manager = JobManager(workers=1, work_dir=str(tmp_path),
                             executor=GatedExecutor())
        assert manager.profiler is None
        assert manager.profile_snapshot() == {"enabled": False}
        assert manager.info()["profile"] == {"enabled": False}
        assert manager.info()["config"]["profile_interval"] == 0.0

    def test_sink_disable_hook_reaches_metrics(self, tmp_path):
        from repro.core.telemetry import EventLog

        events = EventLog(sink=str(tmp_path / "events.jsonl"))
        manager = JobManager(workers=1, work_dir=str(tmp_path / "work"),
                             executor=GatedExecutor(), events=events)
        assert manager.metrics.counters["events.sink_disabled"] == 0
        events._file.close()
        events.emit("boom")
        assert manager.metrics.counters["events.sink_disabled"] == 1
        info = manager.info()
        assert info["events"]["sink_disabled"] == 1
        assert "ValueError" in info["events"]["sink_error"]


@pytest.fixture(scope="class")
def profiled_server(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("profserve")
    bench = make_server(port=0, workers=2, max_queue=8,
                        history_db=str(tmp / "history.sqlite"),
                        work_dir=str(tmp / "work"),
                        profile_interval=0.002)
    bench.start()
    request.cls.server = bench
    request.cls.url = bench.url
    yield bench
    bench.stop()


@pytest.mark.usefixtures("profiled_server")
class TestProfiledServer:
    def _run_one_job(self):
        status, body = rpc_call(self.url, "job.submit",
                                {"spec": dict(RUN_SPEC)})
        assert status == 200, body
        job_id = body["result"]["id"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            _, body = rpc_call(self.url, "job.status", {"id": job_id})
            if body["result"]["state"] in ("done", "failed"):
                assert body["result"]["state"] == "done", body
                return job_id
            time.sleep(0.05)
        raise AssertionError("job never finished")

    def test_profile_rpc_artifact_and_manifest(self):
        job_id = self._run_one_job()

        _, body = rpc_call(self.url, "server.profile")
        snapshot = body["result"]
        assert snapshot["enabled"] is True
        assert snapshot["interval_seconds"] == 0.002
        assert snapshot["jobs_sampled"] >= 1
        assert snapshot["schema"] == "sdvbs-repro/serve/v1"
        run = snapshot["types"]["run"]
        assert run["artifact"] == "/artifacts/profile/run.collapsed"

        # The aggregate flamegraph streams over plain GET.
        with urllib.request.urlopen(self.url + run["artifact"]) as resp:
            text = resp.read().decode("utf-8")
        assert resp.status == 200
        if run["samples"]:
            assert text.strip()

        # The served export's manifest records the profiler audit.
        _, body = rpc_call(self.url, "job.result", {"id": job_id})
        artifact = body["result"]["artifacts"]["export.json"]
        with urllib.request.urlopen(self.url + artifact) as resp:
            export = json.loads(resp.read())
        audit = export["manifest"]["continuous_profiler"]
        assert audit["interval_seconds"] == 0.002
        assert audit["overhead_pct"] >= 0.0

        # server.info and /metrics surface the same numbers.
        _, body = rpc_call(self.url, "server.info")
        info = body["result"]
        assert info["profile"]["enabled"] is True
        assert info["profile"]["jobs_sampled"] >= 1
        assert info["config"]["profile_interval"] == 0.002
        with urllib.request.urlopen(self.url + "/metrics") as resp:
            exposition = resp.read().decode("utf-8")
        assert "sdvbs_profile_jobs_sampled" in exposition
        assert "sdvbs_profile_samples" in exposition
        assert "sdvbs_profile_overhead_pct" in exposition
        assert "sdvbs_events_sink_disabled" in exposition
        from repro.core.telemetry import lint_exposition

        lint_exposition(exposition)

    def test_profile_rpc_validates_top(self):
        status, body = rpc_call(self.url, "server.profile", {"top": 0})
        assert body["error"]["code"] == INVALID_PARAMS
        status, body = rpc_call(self.url, "server.profile",
                                {"top": True})
        assert body["error"]["code"] == INVALID_PARAMS

    def test_unknown_profile_artifact_is_404(self):
        for path in ("/artifacts/profile/ghost.collapsed",
                     "/artifacts/profile/run.svg"):
            try:
                urllib.request.urlopen(self.url + path)
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
            else:
                raise AssertionError(f"{path} should 404")


class TestServeCli:
    def test_nonpositive_args_exit_2(self, capsys):
        for argv in (["serve", "--workers", "0"],
                     ["serve", "--max-queue", "0"],
                     ["serve", "--rate-limit", "-1"],
                     ["serve", "--port", "-1"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_bad_watermarks_exit_2(self, capsys):
        assert main(["serve", "--watermarks", "5", "2",
                     "--max-queue", "4", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "low" in err and "high" in err
