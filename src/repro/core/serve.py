"""HTTP/JSON-RPC envelope of the benchmark service (``sdvbs serve``).

:mod:`repro.core.jobs` holds the substance — spec validation, admission
control, the worker pool, the result cache.  This module is the thin
wire layer over it: a stdlib :class:`ThreadingHTTPServer` speaking
JSON-RPC 2.0 on ``POST /`` plus three plain-HTTP conveniences:

* ``GET /healthz`` — readiness probe.  Reports real state (queue
  depth, saturation, worker occupancy, uptime) and flips to
  ``503 {"ok": false, ...}`` the moment the server starts draining,
  so external probes see degradation instead of a static ok.
* ``GET /metrics`` — Prometheus text exposition (version 0.0.4) of
  the manager's :class:`~repro.core.metrics.MetricsRegistry` —
  counters and latency histograms as cumulative
  ``_bucket``/``_sum``/``_count`` series — plus the gauges
  :meth:`~repro.core.jobs.JobManager.gauges` reads from the job
  tally at scrape time.  Rendered by
  :func:`repro.core.telemetry.render_prometheus`.
* ``GET /artifacts/<job id>/<name>`` — stream a completed job's
  artifact (suite export, chrome trace, flamegraph, HTML report,
  regression verdict) with a content type inferred from the name.
  Artifact names are resolved against the job's recorded artifact
  table, never joined into filesystem paths from request input, so
  traversal is structurally impossible.

Exposed JSON-RPC methods (full schemas in SERVING.md): ``job.submit``,
``job.status``, ``job.result``, ``job.cancel``, ``job.list``,
``server.info`` (the one JSON snapshot of the server, and the one
read-only method still answering while it drains), ``server.shutdown``.

Request identity: every request gets an id — the ``X-Request-Id``
header when the client sends one (truncated to 64 chars), else a
generated hex token — echoed back as a header on every response
(JSON, exposition and artifact bodies all go through one send path),
stamped onto
the structured access-log event, and carried through ``job.submit``
into the job record and its lifecycle trace spans.  The default
handler's stderr chatter is silenced; instead each response emits one
``http.access`` event into the manager's
:class:`~repro.core.telemetry.EventLog` when ``--access-log`` is on
(protocol errors log as ``http.error`` warnings unconditionally), and
every response counts into ``http.requests``/``http.request_seconds``
regardless.

Error codes follow JSON-RPC 2.0 for protocol failures and carve out an
application range for the admission/job layer:

====================  ======  =====================================
name                  code    raised when
====================  ======  =====================================
parse error           -32700  body is not valid JSON
invalid request       -32600  not a JSON-RPC 2.0 request object
method not found      -32601  unknown ``method``
invalid params        -32602  spec/params failed validation
internal error        -32603  unexpected server-side failure
queue full            -32001  admission refused (cap or watermark);
                              ``data.retry_after_s`` hints backoff
rate limited          -32002  client exceeded its token bucket
unknown job           -32003  no such job id (or artifact name)
job not done          -32004  result requested before completion,
                              or the job failed
not cancellable       -32005  cancel of a non-queued job
shutting down         -32006  submit during server shutdown
====================  ======  =====================================

Security model: the server binds to localhost by default and performs
no authentication — it is an operator's tool for one trusted host, not
an internet-facing endpoint.  SERVING.md spells out the implications.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .jobs import (
    JobError,
    JobManager,
    JobNotDoneError,
    NotCancellableError,
    QueueFullError,
    RateLimitedError,
    SpecError,
    UnknownJobError,
)
from .telemetry import (
    EventLog,
    PROMETHEUS_CONTENT_TYPE,
    metric_key,
    render_prometheus,
)

#: Version stamp carried by every ``server.info`` response.
SERVE_SCHEMA = "sdvbs-repro/serve/v1"

# JSON-RPC 2.0 protocol errors.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
# Application errors (documented above and in SERVING.md).
QUEUE_FULL = -32001
RATE_LIMITED = -32002
UNKNOWN_JOB = -32003
JOB_NOT_DONE = -32004
NOT_CANCELLABLE = -32005
SHUTTING_DOWN = -32006

class ShuttingDownError(JobError):
    """Submission refused because the server is draining to exit."""


#: Typed job-layer exception -> JSON-RPC error code.
ERROR_CODES: Dict[type, int] = {
    SpecError: INVALID_PARAMS,
    QueueFullError: QUEUE_FULL,
    RateLimitedError: RATE_LIMITED,
    UnknownJobError: UNKNOWN_JOB,
    JobNotDoneError: JOB_NOT_DONE,
    NotCancellableError: NOT_CANCELLABLE,
    ShuttingDownError: SHUTTING_DOWN,
}

#: Artifact name suffix -> HTTP content type.
_CONTENT_TYPES = (
    (".html", "text/html; charset=utf-8"),
    (".json", "application/json"),
    (".collapsed", "text/plain; charset=utf-8"),
)


def _content_type(name: str) -> str:
    for suffix, content_type in _CONTENT_TYPES:
        if name.endswith(suffix):
            return content_type
    return "application/octet-stream"


def rpc_error(code: int, message: str,
              data: Optional[Dict[str, object]] = None,
              request_id: object = None) -> Dict[str, object]:
    """One JSON-RPC 2.0 error response body."""
    error: Dict[str, object] = {"code": code, "message": message}
    if data:
        error["data"] = data
    return {"jsonrpc": "2.0", "id": request_id, "error": error}


def rpc_result(result: object, request_id: object) -> Dict[str, object]:
    """One JSON-RPC 2.0 success response body."""
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


class BenchServer:
    """The ``sdvbs serve`` process: a JobManager behind JSON-RPC.

    ``port=0`` binds an ephemeral port (tests use this); the bound
    address is available as :attr:`address` after construction.  Use
    :meth:`serve_forever` for a foreground server (the CLI) or
    :meth:`start`/:meth:`stop` for a background one (tests).
    """

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0, access_log: bool = False) -> None:
        self.manager = manager
        self.access_log = bool(access_log)
        server = self

        class Handler(_RpcHandler):
            bench = server

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._shutting_down = False

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Workers + HTTP loop on background threads (idempotent)."""
        self.manager.start()
        if self._thread is None:
            host, port = self.address
            self.manager.events.emit("server.start", host=host, port=port,
                                     workers=self.manager.workers)
            self._thread = threading.Thread(target=self.httpd.serve_forever,
                                            name="sdvbs-http", daemon=True)
            self._thread.start()

    def serve_forever(self) -> None:
        """Foreground server: blocks until :meth:`stop` or Ctrl-C."""
        self.manager.start()
        host, port = self.address
        self.manager.events.emit("server.start", host=host, port=port,
                                 workers=self.manager.workers)
        self.httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests, then drain running jobs."""
        if not self._shutting_down:
            self.manager.events.emit("server.stopping", level="warning")
        self._shutting_down = True
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.manager.stop()
        self.manager.events.emit("server.stopped")

    def request_shutdown(self) -> None:
        """Async shutdown for ``server.shutdown`` (can't block the
        handler thread: ``httpd.shutdown`` waits for the serve loop,
        which waits for the handler)."""
        self._shutting_down = True
        self.manager.events.emit("server.stopping", level="warning",
                                 via="server.shutdown")
        threading.Thread(target=self.stop, name="sdvbs-shutdown",
                         daemon=True).start()

    # ------------------------------------------------------------------
    # Plain-HTTP bodies

    def health(self) -> Tuple[int, Dict[str, object]]:
        """``/healthz`` status + body: real readiness, not a static ok."""
        body: Dict[str, object] = {
            "ok": not self._shutting_down,
            "schema": SERVE_SCHEMA,
            "shutting_down": self._shutting_down,
        }
        body.update(self.manager.health())
        return (503 if self._shutting_down else 200), body

    # ------------------------------------------------------------------
    # Method dispatch

    def dispatch(self, method: str, params: Dict[str, object],
                 client: str,
                 request_id: Optional[str] = None) -> object:
        """Execute one JSON-RPC method; raises typed JobError on refusal."""
        if method == "job.submit":
            if self._shutting_down:
                raise ShuttingDownError("server is shutting down")
            job, cached = self.manager.submit(
                params.get("spec"),
                client=str(params.get("client") or client),
                priority=str(params.get("priority", "normal")),
                request_id=request_id,
            )
            payload = job.to_dict()
            payload["cached"] = cached
            return payload
        if method == "job.status":
            return self.manager.status(_job_id(params))
        if method == "job.result":
            return self.manager.result(_job_id(params))
        if method == "job.cancel":
            return self.manager.cancel(_job_id(params))
        if method == "job.list":
            state = params.get("state")
            filter_client = params.get("client")
            limit = params.get("limit", 50)
            if not isinstance(limit, int) or isinstance(limit, bool):
                raise SpecError(f"limit must be an integer, got {limit!r}",
                                field="limit")
            return {
                "jobs": self.manager.list_jobs(
                    state=None if state is None else str(state),
                    client=None if filter_client is None
                    else str(filter_client),
                    limit=limit,
                )
            }
        if method == "server.info":
            info = self.manager.info()
            info["schema"] = SERVE_SCHEMA
            info["shutting_down"] = self._shutting_down
            return info
        if method == "server.shutdown":
            self.request_shutdown()
            return {"stopping": True}
        raise LookupError(method)


def _job_id(params: Dict[str, object]) -> str:
    job_id = params.get("id")
    if not isinstance(job_id, str) or not job_id:
        raise SpecError("params.id must be a job id string", field="id")
    return job_id


class _RpcHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`BenchServer` via subclass."""

    bench: BenchServer
    protocol_version = "HTTP/1.1"
    server_version = "sdvbs-serve/1"

    # ------------------------------------------------------------------
    # Logging: the default handler prints every request to stderr — a
    # paced load test would drown the operator's terminal.  Instead the
    # completion hook below feeds the structured EventLog (gated on
    # --access-log) and the metrics registry (always).

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        return

    def log_error(self, format: str, *args: object) -> None:  # noqa: A002
        """Protocol-level failures land in the event log unconditionally."""
        bench = getattr(self, "bench", None)
        if bench is not None:
            bench.manager.events.emit(
                "http.error", level="warning", message=format % args,
                request_id=getattr(self, "_request_id", None))

    def log_request(self, code: object = "-", size: object = "-") -> None:
        """One structured access event + metrics sample per response."""
        bench = getattr(self, "bench", None)
        if bench is None:
            return
        try:
            status = int(code)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            status = 0
        started = getattr(self, "_started", None)
        duration = (time.perf_counter() - started
                    if started is not None else None)
        method = getattr(self, "command", None) or "?"
        bench.manager.metrics.inc(
            metric_key("http.requests", method=str(method),
                       code=str(status)))
        if duration is not None:
            bench.manager.metrics.observe("http.request_seconds", duration)
        if bench.access_log:
            bench.manager.events.emit(
                "http.access",
                method=str(method),
                path=getattr(self, "path", None),
                status=status,
                duration_ms=(round(duration * 1000.0, 3)
                             if duration is not None else None),
                client=str(self.client_address[0]),
                request_id=getattr(self, "_request_id", None))

    # ------------------------------------------------------------------
    # Per-request identity

    def _begin(self) -> str:
        """Stamp the request start time and resolve its request id."""
        self._started = time.perf_counter()
        header = self.headers.get("X-Request-Id", "")
        rid = "".join(ch for ch in header if ch.isprintable()).strip()[:64]
        self._request_id = rid or uuid.uuid4().hex[:12]
        return self._request_id

    def _send(self, status: int, content_type: str, data: bytes) -> None:
        """The one response writer, in two sends: ``end_headers`` flushes
        the buffered status line and headers, then the body is written.

        On a keep-alive connection Nagle's algorithm holds the second
        small send until the client's delayed ACK of the first, about
        40 ms on loopback."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        rid = getattr(self, "_request_id", None)
        if rid:
            self.send_header("X-Request-Id", rid)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, body: Dict[str, object]) -> None:
        self._send(status, "application/json",
                   json.dumps(body, sort_keys=True).encode("utf-8"))

    def _client(self) -> str:
        """Client identity for rate limiting: header, else remote addr."""
        header = self.headers.get("X-SDVBS-Client")
        if header:
            return header
        return str(self.client_address[0])

    # ------------------------------------------------------------------
    # GET: health + metrics + artifact streaming

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        self._begin()
        if self.path == "/healthz":
            status, body = self.bench.health()
            self._send_json(status, body)
            return
        if self.path == "/metrics":
            manager = self.bench.manager
            text = render_prometheus(manager.metrics,
                                     gauges=manager.gauges())
            self._send(200, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8"))
            return
        if self.path.startswith("/artifacts/"):
            parts = self.path.split("/")
            # /artifacts/<job_id>/<name> -> ["", "artifacts", id, name]
            if len(parts) != 4 or not all(parts[2:]):
                self._send_json(404, {"error": "expected "
                                      "/artifacts/<job-id>/<name>"})
                return
            job_id, name = parts[2], parts[3]
            try:
                path = self.bench.manager.artifact_path(job_id, name)
            except JobError as exc:
                self._send_json(404, {"error": exc.message, **exc.data})
                return
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
            except OSError as exc:
                self._send_json(500, {"error": f"artifact unreadable: {exc}"})
                return
            self._send(200, _content_type(name), payload)
            return
        self._send_json(404, {"error": f"no such path {self.path!r}"})

    # ------------------------------------------------------------------
    # POST: JSON-RPC

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        self._begin()
        if self.path not in ("/", "/rpc"):
            self._send_json(404, {"error": f"no such path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length > 0 else b""
        try:
            request = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, rpc_error(
                PARSE_ERROR, f"request body is not valid JSON: {exc}"))
            return
        if isinstance(request, list):
            self._send_json(400, rpc_error(
                INVALID_REQUEST,
                "batch requests are not supported; send one request "
                "object per POST"))
            return
        if not isinstance(request, dict) or request.get("jsonrpc") != "2.0":
            self._send_json(400, rpc_error(
                INVALID_REQUEST,
                'expected a JSON-RPC 2.0 request object with "jsonrpc": '
                '"2.0"'))
            return
        request_id = request.get("id")
        method = request.get("method")
        if not isinstance(method, str):
            self._send_json(400, rpc_error(
                INVALID_REQUEST, "method must be a string",
                request_id=request_id))
            return
        params = request.get("params", {})
        if params is None:
            params = {}
        if not isinstance(params, dict):
            self._send_json(400, rpc_error(
                INVALID_PARAMS, "params must be an object",
                request_id=request_id))
            return
        if self.bench._shutting_down and method != "server.info":
            self._send_json(503, rpc_error(
                SHUTTING_DOWN, "server is shutting down",
                request_id=request_id))
            return
        try:
            result = self.bench.dispatch(method, params, self._client(),
                                         request_id=self._request_id)
        except LookupError:
            self._send_json(404, rpc_error(
                METHOD_NOT_FOUND, f"unknown method {method!r}",
                request_id=request_id))
            return
        except JobError as exc:
            code = ERROR_CODES.get(type(exc), INTERNAL_ERROR)
            status = {QUEUE_FULL: 429, RATE_LIMITED: 429,
                      SHUTTING_DOWN: 503}.get(code, 400)
            self._send_json(status, rpc_error(
                code, exc.message, data=exc.data or None,
                request_id=request_id))
            return
        except Exception as exc:  # noqa: BLE001 — wire boundary
            self._send_json(500, rpc_error(
                INTERNAL_ERROR, f"{type(exc).__name__}: {exc}",
                request_id=request_id))
            return
        self._send_json(200, rpc_result(result, request_id))


def make_server(host: str = "127.0.0.1", port: int = 0,
                workers: int = 2, max_queue: int = 16,
                low_watermark: Optional[int] = None,
                high_watermark: Optional[int] = None,
                rate_limit: float = 0.0,
                rate_burst: Optional[int] = None,
                history_db: Optional[str] = None,
                work_dir: Optional[str] = None,
                access_log: bool = False,
                log_file: Optional[str] = None,
                profile_interval: float = 0.0) -> BenchServer:
    """Construct a server + manager pair from flat CLI-style knobs.

    ``log_file`` attaches a JSON-lines sink to the event log (one
    object per line, appended and flushed per event); ``access_log``
    additionally emits one ``http.access`` event per HTTP response.
    ``profile_interval`` > 0 stack-samples every served run and
    measured report at that interval: each run's export carries its
    ``sampling`` payload, and with ``history_db`` the per-cell profiles
    are recorded beside the medians.
    """
    events = EventLog(sink=log_file) if log_file else None
    manager = JobManager(
        workers=workers,
        max_queue=max_queue,
        low_watermark=low_watermark,
        high_watermark=high_watermark,
        rate_limit=rate_limit,
        rate_burst=rate_burst,
        history_db=history_db,
        work_dir=work_dir,
        events=events,
        profile_interval=profile_interval,
    )
    return BenchServer(manager, host=host, port=port,
                       access_log=access_log)
