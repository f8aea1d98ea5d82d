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

    def test_unprofiled_run_records_no_profiles(self):
        from repro.core.history import ProfileEntry

        job = self.submit(RUN_SPEC)
        assert self.wait_http(job["id"])["state"] == "done"
        _, body = rpc_call(self.url, "job.result", {"id": job["id"]})
        artifact = body["result"]["artifacts"]["export.json"]
        with urllib.request.urlopen(self.url + artifact) as response:
            export = json.loads(response.read())
        assert all(run.get("sampling") is None for run in export["runs"])
        assert "sample_interval" not in export["manifest"]["measurement"]
        with open_history(self.server.manager.history_db) as store:
            assert store.entries(kind=ProfileEntry) == []

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
        from repro.core.telemetry import lint_exposition

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
        # The scalar gauges match server.info's blocks too.
        gauges = body["result"]["gauges"]
        assert samples["sdvbs_queue_depth"] == [({}, gauges["queue_depth"])]
        assert samples["sdvbs_workers_busy"] == [({}, gauges["running"])]
        assert samples["sdvbs_workers_total"] \
            == [({}, body["result"]["workers"]["total"])]
        assert samples["sdvbs_server_saturated"] \
            == [({}, gauges["saturated"])]
        # server.info is the one JSON snapshot; server.metrics is gone.
        status, body = rpc_call(self.url, "server.metrics")
        assert status == 404
        assert body["error"]["code"] == METHOD_NOT_FOUND

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

    def test_artifact_and_metrics_responses_echo_request_id(self):
        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        for path in (f"/artifacts/{sub['id']}/export.json", "/metrics"):
            request = urllib.request.Request(
                self.url + path, headers={"X-Request-Id": "echo-me-7"})
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                assert response.headers["X-Request-Id"] == "echo-me-7", path
                assert len(response.read()) \
                    == int(response.headers["Content-Length"])

    def test_top_cli_once_json(self, capsys):
        def posts():
            return sum(value for key, value
                       in self.server.manager.metrics.counters.items()
                       if key.startswith("http.requests")
                       and "method=POST" in key)

        sub = self.submit(RUN_SPEC)
        self.wait_http(sub["id"])
        before = posts()
        assert main(["top", "--url", self.url, "--once", "--json"]) == 0
        assert posts() - before == 1  # one server.info call per frame
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


def scrape_gauges(bench):
    """GET /metrics; the five gauge families as plain values."""
    from repro.core.telemetry import lint_exposition

    with urllib.request.urlopen(bench.url + "/metrics") as response:
        samples = lint_exposition(response.read().decode("utf-8"))
    scalars = {}
    for name in ("sdvbs_queue_depth", "sdvbs_workers_busy",
                 "sdvbs_workers_total", "sdvbs_server_saturated"):
        assert name in samples, f"missing {name}"
        (labels, value), = samples[name]
        assert labels == {}
        scalars[name] = value
    states = {labels["state"]: value
              for labels, value in samples.get("sdvbs_jobs_state", [])}
    return scalars, states


class TestServerGauges:
    """Every view of the pool's state reads the one per-state tally."""

    def test_fresh_server_exposes_every_gauge_family(self, tmp_path):
        manager = JobManager(workers=3, work_dir=str(tmp_path),
                             executor=GatedExecutor())
        bench = BenchServer(manager, port=0)
        bench.start()
        try:
            scalars, states = scrape_gauges(bench)
            assert scalars == {"sdvbs_queue_depth": 0,
                               "sdvbs_workers_busy": 0,
                               "sdvbs_workers_total": 3,
                               "sdvbs_server_saturated": 0}
            assert states == {state: 0 for state in (
                "queued", "running", "done", "failed", "cancelled",
                "evicted")}
        finally:
            bench.stop()

    def test_gauge_views_agree_through_every_transition(self, tmp_path):
        release = {}
        failing = set()

        def stepped(job, mgr):
            # Each job blocks until the test releases it by id.
            release.setdefault(job.id, threading.Event()).wait(30.0)
            if job.id in failing:
                raise RuntimeError("failed on purpose")
            return {"ok": True}, {}

        manager = JobManager(workers=1, max_queue=3, low_watermark=1,
                             high_watermark=2, work_dir=str(tmp_path),
                             executor=stepped)
        bench = BenchServer(manager, port=0)
        bench.start()

        def spec(repeats):
            return {"type": "run", "benchmarks": ["disparity"],
                    "sizes": ["SQCIF"], "repeats": repeats}

        def settle(job_id, state):
            deadline = time.monotonic() + 10.0
            while manager.status(job_id)["state"] != state:
                assert time.monotonic() < deadline, manager.status(job_id)
                time.sleep(0.01)

        def finish(job_id, next_id):
            release.setdefault(job_id, threading.Event()).set()
            settle(next_id, "running")

        def check(queued, running, saturated, **terminal):
            scalars, states = scrape_gauges(bench)
            counts = manager.counts()
            info = manager.info()
            health = manager.health()
            expected = {"queued": queued, "running": running, "done": 0,
                        "failed": 0, "cancelled": 0, "evicted": 0,
                        **terminal}
            assert states == counts == info["jobs"] == expected
            assert scalars["sdvbs_queue_depth"] == states["queued"] \
                == health["queue_depth"] == info["gauges"]["queue_depth"]
            assert scalars["sdvbs_workers_busy"] == states["running"] \
                == health["workers"]["busy"] == info["workers"]["busy"] \
                == info["gauges"]["running"]
            assert scalars["sdvbs_workers_total"] == 1 \
                == health["workers"]["total"] == info["workers"]["total"]
            assert scalars["sdvbs_server_saturated"] == int(saturated) \
                == int(health["saturated"]) == info["gauges"]["saturated"]

        try:
            check(0, 0, False)
            a, _ = manager.submit(spec(1))
            settle(a.id, "running")
            check(0, 1, False)
            # Queue past the high watermark (2): normal work is refused,
            # high priority still lands.
            b, _ = manager.submit(spec(2))
            c, _ = manager.submit(spec(3))
            with pytest.raises(QueueFullError):
                manager.submit(spec(4))
            d, _ = manager.submit(spec(5), priority="high")
            check(3, 1, True)
            # At the cap a high submit evicts the youngest normal job.
            e, _ = manager.submit(spec(6), priority="high")
            assert manager.status(c.id)["state"] == "evicted"
            check(3, 1, True, evicted=1)
            manager.cancel(b.id)
            check(2, 1, True, evicted=1, cancelled=1)
            # Fail the running job; the worker picks up d (high, oldest).
            failing.add(a.id)
            finish(a.id, d.id)
            check(1, 1, False, evicted=1, cancelled=1, failed=1)
            # Finish d; the worker picks up e and the queue is empty.
            finish(d.id, e.id)
            check(0, 1, False, evicted=1, cancelled=1, failed=1, done=1)
            release.setdefault(e.id, threading.Event()).set()
            settle(e.id, "done")
            check(0, 0, False, evicted=1, cancelled=1, failed=1, done=2)
        finally:
            for event in release.values():
                event.set()
            failing.clear()
            bench.stop()


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
            # the read-only snapshot (server.info) stays answerable.
            bench._shutting_down = True
            try:
                urllib.request.urlopen(bench.url + "/healthz")
                raise AssertionError("expected 503")
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
                body = json.loads(exc.read())
            assert body["ok"] is False and body["shutting_down"] is True
            status, body = rpc_call(bench.url, "server.info")
            assert status == 200 and "counters" in body["result"]
            assert body["result"]["shutting_down"] is True
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
            gauges = manager.gauges()
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
            assert manager.gauges()["jobs.state{state=failed}"] == 1
            # exec latency is observed even for failures.
            key = "job.exec_seconds{type=run}"
            assert manager.metrics.histogram_snapshot()[key].count == 1
        finally:
            manager.stop()

    def test_finished_jobs_drop_their_trace_recorder(self, tmp_path):
        # The recorder holds every kernel span of the job; once
        # trace.json is written nothing reads it, so it is not kept.
        manager = JobManager(workers=1, work_dir=str(tmp_path))
        manager.start()
        try:
            job, _ = manager.submit(dict(RUN_SPEC))
            assert wait_for(manager, job.id)["state"] == "done"
            assert job.trace is None
            with open(job.artifacts["trace.json"], encoding="utf-8") as fh:
                events = [e for e in json.load(fh)["traceEvents"]
                          if e.get("ph") == "X"]
            names = {e["name"] for e in events}
            assert {f"job:{job.id}", "running"} <= names
            assert any(e.get("cat") == "kernel" for e in events)
        finally:
            manager.stop()

        def broken(job, mgr):
            raise RuntimeError("kaboom")

        manager = JobManager(workers=1, work_dir=str(tmp_path / "failed"),
                             executor=broken)
        manager.start()
        try:
            job, _ = manager.submit(dict(RUN_SPEC))
            assert wait_for(manager, job.id)["state"] == "failed"
            assert job.trace is None
        finally:
            manager.stop()

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


#: A spec with two cells and enough repeats that a 2 ms sampler sees both.
PROFILED_SPEC = {"type": "run", "benchmarks": ["disparity"],
                 "sizes": ["SQCIF", "QCIF"], "repeats": 3}


@pytest.mark.usefixtures("profiled_server")
class TestProfiledServer:
    """A profiled server's runs land in the one store beside their cells."""

    def _run_job(self, spec):
        status, body = rpc_call(self.url, "job.submit", {"spec": spec})
        assert status == 200, body
        job_id = body["result"]["id"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            _, body = rpc_call(self.url, "job.status", {"id": job_id})
            if body["result"]["state"] in ("done", "failed"):
                assert body["result"]["state"] == "done", body
                _, body = rpc_call(self.url, "job.result", {"id": job_id})
                return body["result"]
            time.sleep(0.05)
        raise AssertionError("job never finished")

    def _export(self, result):
        artifact = result["artifacts"]["export.json"]
        with urllib.request.urlopen(self.url + artifact) as resp:
            return json.loads(resp.read())

    def test_profile_rows_keyed_like_history_rows(self):
        from repro.core.history import HistoryEntry, ProfileEntry

        result = self._run_job(dict(PROFILED_SPEC))
        history = result["result"]["history"]
        assert history["recorded"] == 2
        export = self._export(result)
        assert export["manifest"]["measurement"]["sample_interval"] == 0.002
        assert all(run["sampling"]["samples"] > 0 for run in export["runs"])

        key = ("commit", "benchmark", "size", "backend", "manifest_hash",
               "created")
        with open_history(self.server.manager.history_db) as store:
            cells = store.entries(manifest_hash=history["manifest_hash"],
                                  kind=HistoryEntry)
            profiles = store.entries(
                manifest_hash=history["manifest_hash"], kind=ProfileEntry)
        assert len(profiles) == 2
        assert ({tuple(getattr(e, k) for k in key) for e in profiles}
                == {tuple(getattr(e, k) for k in key) for e in cells})
        assert all(entry.samples > 0 for entry in profiles)
        _, body = rpc_call(self.url, "server.info")
        assert body["result"]["config"]["profile_interval"] == 0.002

    def test_profile_cli_reads_served_rows(self, capsys):
        import dataclasses

        from repro.core.history import ProfileEntry

        self._run_job(dict(PROFILED_SPEC))
        db = self.server.manager.history_db
        with open_history(db) as store:
            (commit,) = store.commits()
            served = store.entries(commit=commit, kind=ProfileEntry)
            # The same profiles under a second commit give `history
            # diff` two sides; nothing about them is serve-specific.
            store.record_entries(dataclasses.replace(entry, commit="c0ffee")
                                 for entry in served)
        capsys.readouterr()
        assert main(["history", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if line.startswith(commit[:12]))
        assert int(row.split("|")[2]) >= 2  # the Profiles column
        assert "c0ffee" in out  # a profile-only commit still lists
        assert main(["history", "show", commit[:12], "--db", db]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("disparity")]
        assert {row.split("|")[1].strip() for row in rows} == \
            {"SQCIF", "QCIF"}
        # Every served cell shows its profile's top kernel shares.
        assert all(row.rstrip().split("|")[-1].strip() != "-"
                   for row in rows)
        assert main(["history", "diff", "c0ffee", commit[:12],
                     "--benchmark", "disparity", "--size", "SQCIF",
                     "--db", db]) == 0

    def test_unknown_profile_artifact_is_404(self):
        # "profile" is an unknown job id like any other.
        for path in ("/artifacts/profile/run.collapsed",
                     "/artifacts/profile/run.svg"):
            try:
                urllib.request.urlopen(self.url + path)
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
                assert json.loads(exc.read())["job_id"] == "profile"
            else:
                raise AssertionError(f"{path} should 404")
        status, body = rpc_call(self.url, "server.profile")
        assert body["error"]["code"] == METHOD_NOT_FOUND


class TestServedProfileStore:
    """Manifest stability and all-or-nothing recording of served profiles."""

    @staticmethod
    def _job():
        from repro.core.jobs import Job

        spec = validate_spec(RUN_SPEC)
        return Job(id="job-000001", spec=spec, digest=spec_digest(spec),
                   priority="normal", client="test", seq=1)

    def test_profiled_manifest_hash_is_stable(self, tmp_path):
        from repro.core.history import manifest_hash
        from repro.core.jobs import _serve_manifest

        job = self._job()
        profiled = [
            _serve_manifest(job, JobManager(
                workers=1, work_dir=str(tmp_path / str(i)),
                executor=GatedExecutor(), profile_interval=0.005))
            for i in range(2)
        ]
        assert manifest_hash(profiled[0]) == manifest_hash(profiled[1])
        plain = JobManager(workers=1, work_dir=str(tmp_path / "plain"),
                           executor=GatedExecutor())
        unprofiled = _serve_manifest(job, plain)
        assert manifest_hash(unprofiled) != manifest_hash(profiled[0])
        # Profiling off: the manifest has exactly the unprofiled keys.
        assert set(unprofiled) == {"schema", "created", "host", "platform",
                                   "python", "numpy", "argv", "measurement"}
        assert set(unprofiled["measurement"]) == {"warmup", "repeats",
                                                  "jobs", "backend"}
        assert plain.info()["config"]["profile_interval"] == 0.0
        # Profiling on adds the configured interval and nothing measured.
        expected = dict(unprofiled, measurement=dict(
            unprofiled["measurement"], sample_interval=0.005))
        for manifest in profiled:
            assert (dict(manifest, created=None)
                    == dict(expected, created=None))

    def test_failed_profile_write_records_nothing(self, tmp_path):
        import sqlite3

        from repro.core.history import HistoryEntry, ProfileEntry

        db = str(tmp_path / "history.sqlite")
        open_history(db).close()
        conn = sqlite3.connect(db)
        conn.execute(
            "CREATE TRIGGER fail_profiles BEFORE INSERT ON profiles "
            "BEGIN SELECT RAISE(ABORT, 'injected write failure'); END")
        conn.commit()
        conn.close()
        manager = JobManager(workers=1, work_dir=str(tmp_path / "work"),
                             history_db=db, profile_interval=0.002)
        manager.start()
        try:
            job, _ = manager.submit(dict(PROFILED_SPEC))
            status = wait_for(manager, job.id, timeout=60.0)
        finally:
            manager.stop()
        assert status["state"] == "failed"
        assert "injected write failure" in status["error"]
        with open_history(db) as store:
            assert store.entries(kind=HistoryEntry) == []
            assert store.entries(kind=ProfileEntry) == []


class TestServedCommit:
    def test_rows_keyed_by_package_checkout_not_cwd(self, tmp_path,
                                                    monkeypatch):
        from repro.core import jobs as jobs_module
        from repro.core.history import UNKNOWN_COMMIT, current_commit

        package = os.path.dirname(os.path.abspath(jobs_module.__file__))
        head = current_commit(cwd=package)
        if head == UNKNOWN_COMMIT:
            pytest.skip("the package is not inside a git checkout")
        outside = tmp_path / "outside"
        outside.mkdir()
        monkeypatch.chdir(outside)
        if current_commit() != UNKNOWN_COMMIT:
            pytest.skip("the temporary directory is inside a git checkout")
        db = str(tmp_path / "history.sqlite")
        manager = JobManager(workers=1, work_dir=str(tmp_path / "work"),
                             history_db=db)
        manager.start()
        try:
            job, _ = manager.submit(dict(RUN_SPEC))
            status = wait_for(manager, job.id, timeout=60.0)
        finally:
            manager.stop()
        assert status["state"] == "done", status["error"]
        with open_history(db) as store:
            assert store.commits() == [head]


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
