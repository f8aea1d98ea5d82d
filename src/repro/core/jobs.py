"""Job layer of the benchmark service: specs, admission control, workers.

``sdvbs serve`` (:mod:`repro.core.serve`) turns the local CLI stack into
a long-running system; this module is the part that survives heavy
traffic.  It validates job *specs* (JSON descriptions of run / trace /
flame / report / regress work) against the command table the CLI parses
with (:mod:`repro.core.commands`), admits them through production-style
backpressure, and executes them on a bounded worker pool with the CLI's
own command bodies:

* **Priority queue** — each submission carries ``high`` / ``normal`` /
  ``low`` priority; workers always pick the highest-priority oldest
  queued job.
* **Watermark admission control** — the queue has a hard cap
  (``max_queue``) plus a low/high watermark pair with hysteresis: once
  the queued depth reaches the high watermark the server turns
  *saturated* and admits only high-priority work until the depth drains
  to the low watermark.  Rejections are typed
  (:class:`QueueFullError`) and carry a ``retry_after_s`` hint derived
  from the observed mean job duration.
* **Eviction** — at the hard cap a high-priority submission may evict
  the youngest queued job of strictly lower priority (state
  ``evicted``) instead of being turned away; nothing ever evicts a
  running job.
* **Per-client rate limiting** — a token bucket per client id
  (:class:`TokenBucket`); violations are typed
  (:class:`RateLimitedError`) with the exact ``retry_after_s`` until
  the next token.
* **Result cache** — every spec is canonicalized (defaults filled,
  names normalized) and hashed with the shard planner's
  plan-digest discipline (:func:`spec_digest`).  Submitting a spec
  whose digest already maps to a completed job returns that job
  immediately — no re-execution — and bumps the ``cache_hits``
  counter surfaced by ``server.info``.

Completed run jobs land in the persistent history store
(:mod:`repro.core.history`) with a canonical ``["serve", "job",
<digest>]`` manifest argv, so re-recording an identical spec is
idempotent, and the store's manifest-hash lookup reports how many runs
of this exact configuration history already holds.  The rows are keyed
by the commit of the checkout this package runs from, found once when
the manager is built, not by the server's working directory.  Artifacts (suite
exports, chrome traces, flamegraphs, HTML reports, regression verdicts)
are written under ``work_dir/<job id>/`` and streamed back over HTTP by
job id.

Since PR 9 the manager is also the service's telemetry source
(SERVING.md "Telemetry" section): every admission decision, cache hit,
eviction, worker pick-up and state transition emits one structured
event into an :class:`~repro.core.telemetry.EventLog`; per-job-type
queue-wait and execution-latency land in labeled
:class:`~repro.core.metrics.LogHistogram` instruments; gauges are
read from the per-state tally on demand (:meth:`JobManager.gauges`);
and each executed job carries a lifecycle
:class:`~repro.core.tracing.TraceRecorder` whose
``job``/``queued``/``running`` envelope spans wrap the kernel spans in
the job's ``trace.json`` artifact.

Everything here is framework-free stdlib threading; the HTTP/JSON-RPC
envelope lives in :mod:`repro.core.serve` and the operator's manual in
``SERVING.md``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .commands import COMMANDS, ArgError, validate
from .metrics import MetricsRegistry
from .telemetry import EventLog, metric_key, parse_metric_key

#: Version stamp for job payloads and the ``job`` export block.
JOBS_SCHEMA = "sdvbs-repro/serve-job/v1"

#: The job types the service accepts: the command table's commands.
JOB_TYPES = tuple(COMMANDS)

#: Valid priorities, best first; rank = index (lower runs earlier).
PRIORITIES = ("high", "normal", "low")

# Job lifecycle states (see the diagram in SERVING.md):
#   queued -> running -> done | failed
#   queued -> cancelled (job.cancel) | evicted (admission control)
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
EVICTED = "evicted"
#: States a job can never leave.
TERMINAL_STATES = (DONE, FAILED, CANCELLED, EVICTED)
#: Every lifecycle state, in the order reports list them.
STATES = (QUEUED, RUNNING) + TERMINAL_STATES


# ----------------------------------------------------------------------
# Typed admission errors (mapped onto JSON-RPC error codes in serve.py)


class JobError(Exception):
    """Base of every typed job-layer error; carries structured data."""

    def __init__(self, message: str, **data: object) -> None:
        super().__init__(message)
        self.message = message
        self.data: Dict[str, object] = dict(data)


class SpecError(JobError):
    """The job spec failed validation (unknown type/slug/size/...)."""


class QueueFullError(JobError):
    """Admission refused: hard queue cap or watermark backpressure."""


class RateLimitedError(JobError):
    """Admission refused: the client exceeded its token bucket."""


class UnknownJobError(JobError):
    """No job with the requested id."""


class JobNotDoneError(JobError):
    """The job exists but has not produced a result (yet, or ever)."""


class NotCancellableError(JobError):
    """Only queued jobs can be cancelled."""


# ----------------------------------------------------------------------
# Spec validation and canonical digests


def _require(condition: bool, message: str, **data: object) -> None:
    if not condition:
        raise SpecError(message, **data)


def validate_spec(spec: object) -> Dict[str, object]:
    """Validate and canonicalize one job spec.

    Returns a *normalized* spec: defaults filled in, benchmark slugs and
    size names resolved through the registry, keys in a fixed set.  Two
    submissions meaning the same work therefore normalize to the same
    dictionary — and the same :func:`spec_digest` — whether or not they
    spelled the defaults out, which is what makes the result cache
    effective.  The keys are the type's argument set in
    :data:`~repro.core.commands.COMMANDS` plus the serve-only job ids.
    Raises :class:`SpecError` (JSON-RPC "invalid params") naming the
    offending ``field``; validation must reject bad work at admission,
    never halfway into execution.
    """
    _require(isinstance(spec, dict), "job spec must be an object")
    spec = dict(spec)  # type: ignore[arg-type]
    job_type = spec.get("type")
    _require(job_type in JOB_TYPES,
             f"unknown job type {job_type!r} (choose from "
             f"{', '.join(JOB_TYPES)})", field="type")

    normalized: Dict[str, object] = {"type": job_type}
    if job_type == "report" and spec.get("from_job") is not None:
        _require(isinstance(spec["from_job"], str),
                 "from_job must be a job id string", field="from_job")
        normalized["from_job"] = spec["from_job"]
        return normalized
    if job_type == "regress":
        for key in ("candidate_job", "baseline_job"):
            value = spec.get(key)
            _require(isinstance(value, str) and bool(value),
                     f"regress specs need a {key} job id", field=key)
            normalized[key] = value
    try:
        normalized.update(validate(COMMANDS[str(job_type)], spec))
    except ArgError as exc:
        raise SpecError(str(exc), field=exc.field) from None
    return normalized


def spec_digest(spec: Dict[str, object]) -> str:
    """Canonical hash of a normalized spec — the result-cache key.

    Same construction as the shard planner's plan digest
    (:func:`repro.core.shard.plan_digest`): sha256 over the sorted-key
    canonical JSON, truncated to 16 hex characters.  Validation has
    already filled every default, so logically identical submissions
    collide here by design.
    """
    canonical = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Rate limiting


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``take`` consumes one token if available and otherwise reports how
    long until the next one accrues — the ``retry_after_s`` hint of a
    rate-limit rejection.  The clock is injectable for deterministic
    tests; callers provide locking (the manager's lock covers it).
    """

    def __init__(self, rate: float, burst: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def take(self) -> Tuple[bool, float]:
        """Consume one token; ``(False, seconds_until_next)`` if empty."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate


# ----------------------------------------------------------------------
# Jobs


@dataclass
class Job:
    """One submitted unit of work and everything recorded about it."""

    id: str
    spec: Dict[str, object]
    digest: str
    priority: str
    client: str
    seq: int
    state: str = QUEUED
    submitted: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    artifacts: Dict[str, str] = field(default_factory=dict)
    #: Request id of the submitting HTTP request, propagated into the
    #: structured log and the lifecycle trace (None for direct submits).
    request_id: Optional[str] = None
    #: Submission stamp on the manager's monotonic clock (queue-wait
    #: arithmetic; ``submitted`` stays wall-clock for humans).
    submitted_mono: float = 0.0
    #: Seconds spent queued before a worker picked the job up.
    queue_wait: Optional[float] = None
    #: Seconds the executor ran (set at completion or failure).
    exec_seconds: Optional[float] = None
    #: Lifecycle trace recorder, attached by the worker at pick-up;
    #: executors thread it into run_benchmark/run_suite so kernel spans
    #: nest inside the job's ``running`` envelope span.  Dropped when the
    #: job ends: ``trace.json`` holds its spans from then on.
    trace: Optional[object] = None

    @property
    def rank(self) -> int:
        return PRIORITIES.index(self.priority)

    def to_dict(self) -> Dict[str, object]:
        """The ``job.status`` payload: everything but the result body."""
        return {
            "id": self.id,
            "type": self.spec.get("type"),
            "state": self.state,
            "priority": self.priority,
            "client": self.client,
            "digest": self.digest,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "artifacts": sorted(self.artifacts),
            "request_id": self.request_id,
            "queue_wait_s": (None if self.queue_wait is None
                             else round(self.queue_wait, 6)),
            "exec_s": (None if self.exec_seconds is None
                       else round(self.exec_seconds, 6)),
        }


def job_block(job: Job) -> Dict[str, object]:
    """The schema-v8 ``job`` provenance block a served export carries.

    Identifies which service job produced the export — id, canonical
    spec digest, client and priority — without contaminating the
    *manifest* (whose hash must depend only on the measurement
    configuration, so identical specs stay idempotent in history).
    """
    return {
        "schema": JOBS_SCHEMA,
        "id": job.id,
        "type": job.spec.get("type"),
        "digest": job.digest,
        "client": job.client,
        "priority": job.priority,
        "submitted": job.submitted,
    }


#: Executes one job: (job, manager) -> (result payload, artifacts).
#: Injectable so tests can block workers or count executions.
JobExecutor = Callable[["Job", "JobManager"],
                       Tuple[Dict[str, object], Dict[str, str]]]


class JobManager:
    """Bounded worker pool with admission control and a result cache.

    The synchronization discipline: one lock (condition variable)
    guards the queue, the job table, the per-state tally, the cache,
    the saturation latch and the rate-limit buckets; job *execution*
    happens outside the lock on worker threads.  Counters and
    histograms live in a thread-safe
    :class:`~repro.core.metrics.MetricsRegistry`; gauges are derived
    by :meth:`gauges`, never stored.
    """

    def __init__(self,
                 workers: int = 2,
                 max_queue: int = 16,
                 low_watermark: Optional[int] = None,
                 high_watermark: Optional[int] = None,
                 rate_limit: float = 0.0,
                 rate_burst: Optional[int] = None,
                 history_db: Optional[str] = None,
                 work_dir: Optional[str] = None,
                 executor: Optional[JobExecutor] = None,
                 events: Optional[EventLog] = None,
                 profile_interval: float = 0.0,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.workers = int(workers)
        self.max_queue = int(max_queue)
        self.high_watermark = (int(high_watermark)
                               if high_watermark is not None else max_queue)
        self.low_watermark = (int(low_watermark)
                              if low_watermark is not None
                              else max(1, max_queue // 2))
        if not 1 <= self.low_watermark <= self.high_watermark <= max_queue:
            raise ValueError(
                f"need 1 <= low ({self.low_watermark}) <= high "
                f"({self.high_watermark}) <= max_queue ({max_queue})")
        self.rate_limit = float(rate_limit)
        self.rate_burst = (int(rate_burst) if rate_burst is not None
                           else max(1, int(self.rate_limit)))
        self.history_db = history_db
        #: Commit served rows are recorded under: this package's checkout.
        self.commit: Optional[str] = None
        if history_db:
            from .history import current_commit

            self.commit = current_commit(
                cwd=os.path.dirname(os.path.abspath(__file__)))
        #: Seconds between stack samples of each served run (0: off).
        self.profile_interval = float(profile_interval)
        if work_dir is None:
            import tempfile

            work_dir = tempfile.mkdtemp(prefix="sdvbs-serve-")
        self.work_dir = work_dir
        self.executor: JobExecutor = executor or execute_job
        # One shared registry across workers and handlers — threadsafe
        # by construction, never opt-out (a dropped counter increment
        # under concurrency is an observability bug).
        self.metrics = MetricsRegistry(threadsafe=True)
        self.events = events if events is not None else EventLog()
        self._clock = clock
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._saturated = False
        self._seq = 0
        self._cache: Dict[str, str] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._mean_seconds = 0.0
        self._completed = 0
        self._started_at: Optional[float] = None
        #: The one count of jobs per state (queue depth is ``queued``).
        self._state_tally: Dict[str, int] = {state: 0 for state in STATES}
        # Pre-seed the counters so every series exists from the first
        # scrape (a counter that has never incremented still exposes 0).
        for name in ("jobs.submitted", "jobs.accepted", "jobs.completed",
                     "jobs.failed", "jobs.cancelled", "jobs.evicted",
                     "rejected.queue_full", "rejected.backpressure",
                     "rejected.rate_limited", "cache.hits", "cache.misses",
                     "events.sink_disabled"):
            self.metrics.inc(name, 0.0)
        # A sink disabled before the manager existed still counts; from
        # here on the hook keeps /metrics in lockstep with the log.
        if self.events.sink_disabled:
            self.metrics.inc("events.sink_disabled",
                             self.events.sink_disabled)
        self.events.on_sink_disabled = self._sink_disabled

    def _sink_disabled(self, error: str) -> None:
        """EventLog hook: mirror sink loss into the scraped registry."""
        self.metrics.inc("events.sink_disabled")

    # ------------------------------------------------------------------
    # Telemetry plumbing

    def _transition(self, job: Job, new_state: str) -> None:
        """Move ``job`` between lifecycle states; caller holds the lock.

        Keeps the incremental per-state tally exact without an O(jobs)
        rescan, and emits one structured state-
        transition event — the job-lifecycle audit trail an operator
        greps when a job goes missing.
        """
        old_state = job.state
        job.state = new_state
        self._state_tally[old_state] -= 1
        self._state_tally[new_state] += 1
        self.events.emit("job.state", id=job.id,
                         type=str(job.spec.get("type")),
                         state=new_state, previous=old_state,
                         request_id=job.request_id)

    def uptime(self) -> float:
        """Seconds since :meth:`start` (0.0 before the pool exists)."""
        if self._started_at is None:
            return 0.0
        return max(0.0, self._clock() - self._started_at)

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        with self._cond:
            if self._threads:
                return
            self._stopping = False
            if self._started_at is None:
                self._started_at = self._clock()
            for index in range(self.workers):
                thread = threading.Thread(target=self._worker,
                                          name=f"sdvbs-worker-{index}",
                                          daemon=True)
                thread.start()
                self._threads.append(thread)

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the pool: running jobs finish, queued jobs stay queued.

        Queued-but-never-run jobs are *not* silently discarded — they
        remain visible as ``queued`` in ``job.list`` so an operator can
        see what a shutdown abandoned (SERVING.md documents this).
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # ------------------------------------------------------------------
    # Admission

    def _retry_after(self) -> float:
        """Backoff hint: roughly one queue-drain's worth of seconds."""
        per_job = self._mean_seconds if self._completed else 1.0
        depth = self.gauges()["queue.depth"]
        estimate = max(1.0, depth * max(per_job, 0.05) / self.workers)
        return round(min(estimate, 600.0), 2)

    def submit(self, spec: object, client: str = "anonymous",
               priority: str = "normal",
               request_id: Optional[str] = None) -> Tuple[Job, bool]:
        """Validate, admit and enqueue one job.

        Returns ``(job, cached)``; ``cached`` means the spec's digest
        matched a completed job and that job is returned instead of
        re-executing.  Raises a typed :class:`JobError` subclass when
        validation, rate limiting or admission control refuses.

        Admission order is deliberate: validate first (a malformed spec
        is the submitter's bug regardless of load), then rate-limit
        (cheap, per client), then serve from cache (a hit costs the
        server nothing, so it must not be charged against the queue),
        then apply queue bounds.
        """
        if priority not in PRIORITIES:
            raise SpecError(
                f"unknown priority {priority!r} (choose from "
                f"{', '.join(PRIORITIES)})", field="priority")
        normalized = validate_spec(spec)
        digest = spec_digest(normalized)
        job_type = str(normalized.get("type"))
        with self._cond:
            self.metrics.inc("jobs.submitted")
            if self.rate_limit > 0:
                bucket = self._buckets.get(client)
                if bucket is None:
                    bucket = self._buckets[client] = TokenBucket(
                        self.rate_limit, self.rate_burst, clock=self._clock)
                allowed, wait = bucket.take()
                if not allowed:
                    self.metrics.inc("rejected.rate_limited")
                    self.events.emit("job.rejected", level="warning",
                                     reason="rate-limited", client=client,
                                     type=job_type, digest=digest,
                                     retry_after_s=round(wait, 3),
                                     request_id=request_id)
                    raise RateLimitedError(
                        f"client {client!r} exceeded {self.rate_limit:g} "
                        "submissions/s",
                        retry_after_s=round(wait, 3),
                        limit_per_s=self.rate_limit,
                        burst=self.rate_burst,
                    )
            cached_id = self._cache.get(digest)
            if cached_id is not None:
                cached = self._jobs.get(cached_id)
                if cached is not None and cached.state == DONE:
                    self.metrics.inc("cache.hits")
                    self.events.emit("job.cache_hit", id=cached.id,
                                     client=client, type=job_type,
                                     digest=digest, request_id=request_id)
                    return cached, True
            job = self._admit(normalized, digest, client, priority,
                              request_id)
            self.metrics.inc("cache.misses")
            self._cond.notify()
            return job, False

    def _admit(self, spec: Dict[str, object], digest: str, client: str,
               priority: str, request_id: Optional[str] = None) -> Job:
        """Queue-bound admission; caller holds the lock."""
        rank = PRIORITIES.index(priority)
        job_type = str(spec.get("type"))
        depth = self._state_tally[QUEUED]
        # Watermark hysteresis: saturate at high, drain to low.
        if depth >= self.high_watermark:
            if not self._saturated:
                self.events.emit("server.saturated", level="warning",
                                 queue_depth=depth,
                                 high_watermark=self.high_watermark)
            self._saturated = True
        if self._saturated and rank > 0 and depth > self.low_watermark:
            self.metrics.inc("rejected.backpressure")
            self.events.emit("job.rejected", level="warning",
                             reason="backpressure", client=client,
                             type=job_type, digest=digest,
                             queue_depth=depth,
                             request_id=request_id)
            raise QueueFullError(
                f"queue saturated ({depth} queued >= high watermark "
                f"{self.high_watermark}); only high-priority jobs are "
                "admitted until the backlog drains to "
                f"{self.low_watermark}",
                reason="backpressure",
                retry_after_s=self._retry_after(),
                queue_depth=depth,
                high_watermark=self.high_watermark,
                low_watermark=self.low_watermark,
            )
        if depth >= self.max_queue:
            evicted = self._evict_for(rank) if rank == 0 else None
            if evicted is None:
                self.metrics.inc("rejected.queue_full")
                self.events.emit("job.rejected", level="warning",
                                 reason="queue-full", client=client,
                                 type=job_type, digest=digest,
                                 queue_depth=depth,
                                 request_id=request_id)
                raise QueueFullError(
                    f"queue full ({depth}/{self.max_queue} jobs "
                    "queued)",
                    reason="queue-full",
                    retry_after_s=self._retry_after(),
                    queue_depth=depth,
                    max_queue=self.max_queue,
                )
        self._seq += 1
        job = Job(
            id=f"job-{self._seq:06d}",
            spec=spec,
            digest=digest,
            priority=priority,
            client=client,
            seq=self._seq,
            submitted=time.time(),
            request_id=request_id,
            submitted_mono=self._clock(),
        )
        self._jobs[job.id] = job
        heapq.heappush(self._heap, (job.rank, job.seq, job.id))
        self._state_tally[QUEUED] += 1
        self.metrics.inc("jobs.accepted")
        self.events.emit("job.submit", id=job.id, type=job_type,
                         client=client, priority=priority, digest=digest,
                         queue_depth=self._state_tally[QUEUED],
                         request_id=request_id)
        return job

    def _evict_for(self, rank: int) -> Optional[Job]:
        """Evict the youngest queued job of strictly lower priority."""
        victim: Optional[Job] = None
        for job in self._jobs.values():
            if job.state != QUEUED or job.rank <= rank:
                continue
            if victim is None or (job.rank, job.seq) > (victim.rank,
                                                        victim.seq):
                victim = job
        if victim is None:
            return None
        self._transition(victim, EVICTED)
        victim.finished = time.time()
        victim.error = ("evicted under queue pressure by a high-priority "
                        "submission")
        self.metrics.inc("jobs.evicted")
        self.events.emit("job.evicted", level="warning", id=victim.id,
                         type=str(victim.spec.get("type")),
                         priority=victim.priority,
                         request_id=victim.request_id)
        return victim

    # ------------------------------------------------------------------
    # Queries

    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job with id {job_id!r}",
                                  job_id=job_id)
        return job

    def status(self, job_id: str) -> Dict[str, object]:
        with self._cond:
            return self._get(job_id).to_dict()

    def result(self, job_id: str) -> Dict[str, object]:
        """The completed job's payload (typed error otherwise)."""
        with self._cond:
            job = self._get(job_id)
            if job.state == FAILED:
                raise JobNotDoneError(
                    f"job {job_id} failed: {job.error}",
                    state=job.state, job_id=job_id)
            if job.state != DONE:
                raise JobNotDoneError(
                    f"job {job_id} is {job.state}, not done",
                    state=job.state, job_id=job_id)
            return {
                "job": job.to_dict(),
                "result": dict(job.result or {}),
                "artifacts": {
                    name: f"/artifacts/{job.id}/{name}"
                    for name in sorted(job.artifacts)
                },
            }

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel a *queued* job (running/terminal jobs are typed errors)."""
        with self._cond:
            job = self._get(job_id)
            if job.state != QUEUED:
                raise NotCancellableError(
                    f"job {job_id} is {job.state}; only queued jobs can "
                    "be cancelled", state=job.state, job_id=job_id)
            self._transition(job, CANCELLED)
            job.finished = time.time()
            self._maybe_drain()
            self.metrics.inc("jobs.cancelled")
            self.events.emit("job.cancelled", id=job.id,
                             type=str(job.spec.get("type")),
                             request_id=job.request_id)
            return job.to_dict()

    def list_jobs(self, state: Optional[str] = None,
                  client: Optional[str] = None,
                  limit: int = 50) -> List[Dict[str, object]]:
        """Newest-first job summaries, optionally filtered."""
        with self._cond:
            out = []
            for job in reversed(list(self._jobs.values())):
                if state is not None and job.state != state:
                    continue
                if client is not None and job.client != client:
                    continue
                out.append(job.to_dict())
                if len(out) >= max(1, limit):
                    break
            return out

    def artifact_path(self, job_id: str, name: str) -> str:
        """Filesystem path of one artifact (typed errors otherwise)."""
        with self._cond:
            job = self._get(job_id)
            path = job.artifacts.get(name)
            if path is None:
                known = ", ".join(sorted(job.artifacts)) or "none"
                raise UnknownJobError(
                    f"job {job_id} has no artifact {name!r} "
                    f"(available: {known})", job_id=job_id, artifact=name)
            return path

    def counts(self) -> Dict[str, int]:
        with self._cond:
            return dict(self._state_tally)

    def latency_summaries(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-job-type queue-wait and exec-latency histogram summaries.

        ``{"run": {"queue_wait": {...count/sum/p50/p95/p99...},
        "exec": {...}}, ...}`` — the numbers ``sdvbs top`` renders and
        the exact aggregates the Prometheus ``_count``/``_sum`` series
        must agree with (both read the same bounded histograms).
        """
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for key, histogram in self.metrics.histogram_snapshot().items():
            base, labels = parse_metric_key(key)
            if base == "job.queue_wait_seconds":
                slot = "queue_wait"
            elif base == "job.exec_seconds":
                slot = "exec"
            else:
                continue
            summary = histogram.summary()
            out.setdefault(labels.get("type", "all"), {})[slot] = {
                stat: summary[stat]
                for stat in ("count", "sum", "mean", "min", "max",
                             "p50", "p95", "p99")
            }
        return out

    def gauges(self) -> Dict[str, int]:
        """The pool's gauges, read from the state tally under the lock.

        Keyed like registry entries so ``/metrics`` renders them beside
        the registry; :meth:`info`, :meth:`health` and the retry-after
        hint read the same dict, so no view can fall out of step.
        """
        with self._cond:
            tally = dict(self._state_tally)
            saturated = self._saturated
        gauges = {
            "queue.depth": tally[QUEUED],
            "workers.busy": tally[RUNNING],
            "workers.total": self.workers,
            "server.saturated": int(saturated),
        }
        for state in STATES:
            gauges[metric_key("jobs.state", state=state)] = tally[state]
        return gauges

    def health(self) -> Dict[str, object]:
        """A cheap readiness snapshot for ``/healthz`` probes.

        Deliberately lighter than :meth:`info` — no latency summaries,
        no cache scan — because external probes poll this every few
        seconds.
        """
        gauges = self.gauges()
        return {
            "queue_depth": gauges["queue.depth"],
            "saturated": bool(gauges["server.saturated"]),
            "workers": {"total": gauges["workers.total"],
                        "busy": gauges["workers.busy"]},
            "uptime_s": round(self.uptime(), 3),
        }

    def info(self) -> Dict[str, object]:
        """The ``server.info`` body: config, counters, gauges, cache."""
        with self._cond:
            cache_entries = sum(
                1 for digest, job_id in self._cache.items()
                if self._jobs.get(job_id) is not None
                and self._jobs[job_id].state == DONE)
            gauges = self.gauges()
            mean_seconds = self._mean_seconds
        counters = self.metrics.counters
        return {
            "config": {
                "workers": self.workers,
                "max_queue": self.max_queue,
                "watermarks": [self.low_watermark, self.high_watermark],
                "rate_limit_per_s": self.rate_limit,
                "rate_burst": self.rate_burst,
                "history_db": self.history_db,
                "work_dir": self.work_dir,
                "profile_interval": self.profile_interval,
            },
            "counters": counters,
            "gauges": {
                "queue_depth": gauges["queue.depth"],
                "running": gauges["workers.busy"],
                "saturated": gauges["server.saturated"],
                "mean_job_seconds": round(mean_seconds, 6),
            },
            "workers": {"total": gauges["workers.total"],
                        "busy": gauges["workers.busy"]},
            "uptime_s": round(self.uptime(), 3),
            "cache": {
                "entries": cache_entries,
                "hits": int(counters.get("cache.hits", 0)),
                "misses": int(counters.get("cache.misses", 0)),
            },
            "jobs": {state: gauges[metric_key("jobs.state", state=state)]
                     for state in STATES},
            "latency": self.latency_summaries(),
            "events": {
                "emitted": self.events.emitted,
                "suppressed": self.events.suppressed,
                "sink_disabled": self.events.sink_disabled,
                "sink_error": self.events.sink_error,
            },
        }

    # ------------------------------------------------------------------
    # Worker pool

    def _next_job(self) -> Optional[Job]:
        """Pop the best queued job; caller holds the lock."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            if job is not None and job.state == QUEUED:
                return job
        return None

    def _maybe_drain(self) -> None:
        """Release the saturation latch once the backlog reaches low."""
        if self._saturated and self._state_tally[QUEUED] <= self.low_watermark:
            self._saturated = False
            self.events.emit("server.drained",
                             queue_depth=self._state_tally[QUEUED],
                             low_watermark=self.low_watermark)

    def _job_trace(self, job: Job, pickup: float) -> Tuple[object, int, int]:
        """Open the lifecycle trace envelope for one picked-up job.

        The recorder's clock is the manager's (``time.perf_counter`` by
        default — the same clock the kernel profiler stamps spans with,
        so envelope and kernel spans nest consistently).  Layout::

            job:<id>            submission ........... completion
            ├─ queued           submission ... worker pick-up
            └─ running          pick-up ............. completion
               └─ app/kernels   (emitted by the executor, if any)
        """
        from .tracing import CATEGORY_LIFECYCLE, TraceRecorder

        recorder = TraceRecorder()
        recorder.set_context(job=job.id, type=str(job.spec.get("type")),
                             priority=job.priority,
                             request_id=job.request_id)
        root = recorder.span_open(f"job:{job.id}", CATEGORY_LIFECYCLE,
                                  job.submitted_mono)
        queued_seq = recorder.span_open("queued", CATEGORY_LIFECYCLE,
                                        job.submitted_mono)
        recorder.span_close(queued_seq, pickup)
        running_seq = recorder.span_open("running", CATEGORY_LIFECYCLE,
                                         pickup)
        job.trace = recorder
        return recorder, running_seq, root

    def _write_trace_artifact(self, job: Job, recorder: object
                              ) -> Optional[Tuple[str, str]]:
        """Render the lifecycle trace as the job's ``trace.json`` artifact."""
        from .tracing import chrome_trace_json

        manifest = _serve_manifest(job)
        try:
            return _write_artifact(
                self, job, "trace.json",
                chrome_trace_json(recorder.spans,  # type: ignore[attr-defined]
                                  manifest))
        except OSError as exc:  # pragma: no cover - disk full etc.
            self.events.emit("job.trace_artifact_failed", level="error",
                             id=job.id, error=str(exc))
            return None

    def _worker(self) -> None:
        worker_name = threading.current_thread().name
        while True:
            with self._cond:
                job = self._next_job()
                while job is None:
                    if self._stopping:
                        return
                    self._cond.wait(timeout=0.2)
                    job = self._next_job()
                pickup = self._clock()
                self._transition(job, RUNNING)
                job.started = time.time()
                job.queue_wait = max(0.0, pickup - job.submitted_mono)
                self._maybe_drain()
                job_type = str(job.spec.get("type"))
            self.metrics.observe(
                metric_key("job.queue_wait_seconds", type=job_type),
                job.queue_wait)
            self.events.emit("job.pickup", id=job.id, type=job_type,
                             worker=worker_name,
                             queue_wait_s=round(job.queue_wait, 6),
                             request_id=job.request_id)
            recorder, running_seq, root_seq = self._job_trace(job, pickup)
            started = self._clock()
            try:
                payload, artifacts = self.executor(job, self)
            except Exception as exc:  # noqa: BLE001 — jobs fail, not the pool
                elapsed = self._clock() - started
                # Close any spans the executor left open (innermost
                # first), then the envelope itself.
                recorder.abandon_open(self._clock())
                self.metrics.observe(
                    metric_key("job.exec_seconds", type=job_type), elapsed)
                self.events.emit("job.failed", level="error", id=job.id,
                                 type=job_type, worker=worker_name,
                                 error=f"{type(exc).__name__}: {exc}",
                                 exec_s=round(elapsed, 6),
                                 request_id=job.request_id)
                with self._cond:
                    self._transition(job, FAILED)
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.finished = time.time()
                    job.exec_seconds = elapsed
                    job.trace = None
                    self.metrics.inc("jobs.failed")
                continue
            finish = self._clock()
            elapsed = finish - started
            recorder.span_close(running_seq, finish)
            recorder.span_close(root_seq, finish)
            artifacts = dict(artifacts)
            trace_artifact = self._write_trace_artifact(job, recorder)
            if trace_artifact is not None:
                artifacts.setdefault(*trace_artifact)
            self.metrics.observe(
                metric_key("job.exec_seconds", type=job_type), elapsed)
            self.events.emit("job.done", id=job.id, type=job_type,
                             worker=worker_name, exec_s=round(elapsed, 6),
                             artifacts=sorted(artifacts),
                             request_id=job.request_id)
            with self._cond:
                job.result = payload
                job.artifacts = artifacts
                self._transition(job, DONE)
                job.finished = time.time()
                job.exec_seconds = elapsed
                job.trace = None
                self._completed += 1
                # EMA over completed durations feeds the retry-after hint.
                alpha = 0.3
                self._mean_seconds = (elapsed if self._completed == 1 else
                                      alpha * elapsed
                                      + (1 - alpha) * self._mean_seconds)
                self._cache[job.digest] = job.id
                self.metrics.inc("jobs.completed")


# ----------------------------------------------------------------------
# The default executor: command bodies on worker threads


def _job_dir(manager: JobManager, job: Job) -> str:
    path = os.path.join(manager.work_dir, job.id)
    os.makedirs(path, exist_ok=True)
    return path


def _write_artifact(manager: JobManager, job: Job, name: str,
                    payload: str) -> Tuple[str, str]:
    path = os.path.join(_job_dir(manager, job), name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    return name, path


def _serve_manifest(job: Job, manager: Optional[JobManager] = None
                    ) -> Dict[str, object]:
    """A canonical manifest for served runs: argv is the spec digest.

    Two submissions of the same spec produce the same argv — and, on one
    host, the same :func:`~repro.core.history.manifest_hash` — so
    recording a re-served job into history is idempotent, exactly like
    re-merging the same shard plan.  With a ``manager`` that profiles,
    ``measurement.sample_interval`` records the configured interval: a
    fixed knob, so the hash stays stable across server starts.
    """
    from .tracing import run_manifest

    spec = job.spec
    manifest = run_manifest(
        argv=["serve", "job", job.digest],
        warmup=int(spec.get("warmup", 0)),  # type: ignore[arg-type]
        repeats=int(spec.get("repeats", 1)),  # type: ignore[arg-type]
        backend=spec.get("backend"))  # type: ignore[arg-type]
    if manager is not None and manager.profile_interval > 0:
        manifest["measurement"]["sample_interval"] = \
            manager.profile_interval  # type: ignore[index]
    return manifest


def _load_job_export(manager: JobManager, job_id: str):
    """A completed run job's suite export (SpecError if unusable)."""
    from .export import result_from_json

    try:
        path = manager.artifact_path(job_id, "export.json")
    except UnknownJobError as exc:
        raise SpecError(
            f"job {job_id!r} has no suite export to build on "
            "(is it a completed run job?)", job_id=job_id) from exc
    with open(path, "r", encoding="utf-8") as handle:
        return result_from_json(handle.read())


def _record_history(manager: JobManager, result) -> Dict[str, object]:
    """Record a run job's cells into the history store; the payload block.

    A sampled run's per-cell profiles go in the same transaction, keyed
    like its medians, so the store holds both or neither.
    """
    from .history import HistoryEntry, manifest_hash, open_history

    digest = manifest_hash(result.manifest)
    with open_history(str(manager.history_db)) as store:
        added = store.record(result, manager.commit)
        recorded_before = len(store.entries(manifest_hash=digest))
    cells = sum(isinstance(entry, HistoryEntry) for entry in added)
    manager.metrics.inc("history.recorded_cells", cells)
    return {
        "db": manager.history_db,
        "recorded": cells,
        "manifest_hash": digest,
        # How many cells history holds for this exact measurement
        # configuration — >recorded means an identical spec was
        # recorded before (by an earlier job or an earlier server).
        "cells_for_manifest": recorded_before,
    }


def execute_job(job: Job, manager: JobManager
                ) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Run one job through the CLI's own command body (default executor).

    This shell supplies the digest manifest, the lifecycle trace
    recorder and exports resolved from job ids, and writes the body's
    artifacts into the job directory.
    """
    from . import commands

    spec = job.spec
    job_type = str(spec["type"])
    if job_type == "run":
        # Kernel spans nest under the worker's ``running`` envelope.
        outcome = commands.run(spec, _serve_manifest(job, manager),
                               recorder=job.trace,  # type: ignore[arg-type]
                               job=job_block(job),
                               sample_interval=manager.profile_interval)
    elif job_type == "trace":
        # The worker writes the combined ``trace.json`` at completion.
        outcome = commands.trace(spec, job.trace)  # type: ignore[arg-type]
    elif job_type == "flame":
        outcome = commands.flame(spec)
    elif job_type == "report":
        if "from_job" in spec:
            result = _load_job_export(manager, str(spec["from_job"]))
        else:
            # Measured like ``run``, at its default single variant.
            result = commands.measure(
                dict(spec, variants=commands.VARIANTS.default),
                _serve_manifest(job, manager), job=job_block(job),
                sample_interval=manager.profile_interval)
        outcome = commands.report(result)
    else:
        # Attribution joins the exports' ``sampling`` payloads, which
        # runs served with ``--profile-interval`` carry; without them
        # the verdict is simply unattributed.
        candidate = _load_job_export(manager, str(spec["candidate_job"]))
        baseline = _load_job_export(manager, str(spec["baseline_job"]))
        outcome = commands.regress(
            spec, baseline, candidate,
            baseline_label=str(spec["baseline_job"]),
            candidate_label=str(spec["candidate_job"]))
    payload: Dict[str, object] = {"type": job_type, **outcome.summary}
    if job_type == "run" and manager.history_db:
        payload["history"] = _record_history(manager, outcome.result)
    artifacts = dict(_write_artifact(manager, job, name, text)
                     for name, text in outcome.artifacts.items())
    return payload, artifacts
