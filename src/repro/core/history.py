"""Persistent benchmark history: one keyed SQLite store, two payload kinds.

Regression tracking needs more than two JSON files on someone's laptop —
it needs every measured run, keyed by the code revision that produced it,
durable across sessions.  This module ingests suite exports
(:func:`~repro.core.export.result_to_dict` payloads or live
:class:`~repro.core.types.SuiteResult` objects) into per-cell rows keyed
by ``(commit, benchmark, size, backend, manifest hash)``:

* **commit** — the repository revision measured (``git rev-parse HEAD``,
  or ``"unknown"`` outside a checkout).
* **benchmark / size** — one suite grid cell, aggregated over variants
  exactly like the comparison layer (median of per-cell medians, noise
  combined root-sum-square; sampled profiles merged).
* **backend** — ``ref`` vs ``fast`` timings and flamegraphs are not
  comparable, so they never share a key.
* **manifest hash** — a stable digest of the run manifest minus its
  timestamp; re-recording the same export is a no-op (append-only with
  idempotent ingest), while a re-measurement of the same commit gets its
  own row.

Two payload kinds share that key and one :class:`HistoryStore` file:
cell medians (:class:`HistoryEntry`, the ``history`` table) answer "how
fast was commit X?", and folded-stack profiles (:class:`ProfileEntry`,
the ``profiles`` table) answer "where did commit X spend its time?" —
which is what lets ``sdvbs regress --attribute`` explain a verdict from
the same store that produced it.  :meth:`HistoryStore.record` is the one
ingest path: it writes a result's medians and, for sampled runs, its
profiles in one transaction, and every SQLite failure (a corrupt file, a
failed write) surfaces as a :class:`StoreError`.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .sampling import SampledProfile
from .types import InputSize, SuiteResult

#: Commit recorded when the working directory is not a git checkout.
UNKNOWN_COMMIT = "unknown"


class StoreError(Exception):
    """A store file cannot be opened, read or written, or a lookup failed.

    The message is one line, fit for a CLI's stderr.
    """


def current_commit(cwd: Optional[str] = None) -> str:
    """The repository HEAD revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return UNKNOWN_COMMIT
    if out.returncode != 0:
        return UNKNOWN_COMMIT
    revision = out.stdout.strip()
    return revision if revision else UNKNOWN_COMMIT


def format_created(created: str) -> str:
    """Normalize a history ``created`` stamp to ISO-8601 for display.

    New entries are written as ISO-8601 local time already; stores
    written by earlier revisions may hold raw epoch floats (e.g.
    ``"1754300000.123"``), which render as unreadable numbers in
    ``sdvbs history list``.  Epoch-looking values are converted to local
    ISO-8601 via :meth:`datetime.astimezone` — ``time.strftime`` with
    ``%z`` renders an *empty* UTC offset on platforms whose
    ``time.localtime`` carries no zone info, whereas an aware datetime
    always formats one.  Anything non-numeric passes through unchanged.
    """
    try:
        epoch = float(created)
    except (TypeError, ValueError):
        return created
    return datetime.fromtimestamp(epoch).astimezone().isoformat()


def created_sort_key(created: str) -> float:
    """Best-effort epoch seconds for ordering ``created`` stamps.

    Accepts the raw epoch floats of early stores, ISO-8601 with or
    without a ``%z``-style offset, and falls back to ``0.0`` for
    unparseable values (which then sort oldest, deferring to insertion
    order as the tie-break).
    """
    try:
        return float(created)
    except (TypeError, ValueError):
        pass
    text = str(created)
    try:
        return datetime.fromisoformat(text).timestamp()
    except ValueError:
        pass
    # time.strftime("%z") writes "+0000"-style offsets, which
    # fromisoformat only accepts from Python 3.11 on.
    try:
        return datetime.strptime(text, "%Y-%m-%dT%H:%M:%S%z").timestamp()
    except ValueError:
        return 0.0


def manifest_hash(manifest: Optional[Dict[str, object]]) -> str:
    """Stable digest of a run manifest, ignoring its creation timestamp.

    Two runs with identical host, software and measurement configuration
    hash identically even when taken at different times; an absent
    manifest hashes to a fixed sentinel so pre-v3 exports remain
    recordable.
    """
    if not manifest:
        return hashlib.sha256(b"no-manifest").hexdigest()[:16]
    payload = {k: v for k, v in manifest.items() if k != "created"}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def result_backend(result: SuiteResult) -> str:
    """The kernel backend a result was measured with (``"fast"`` if unstated)."""
    measurement = (result.manifest or {}).get("measurement", {})
    if isinstance(measurement, dict) and measurement.get("backend"):
        return str(measurement["backend"])
    return "fast"


def _result_key(result: SuiteResult, commit: Optional[str]
                ) -> Tuple[str, str, str, str]:
    """``(commit, backend, manifest hash, created)`` shared by a result's rows.

    ``commit=None`` stamps the current checkout's HEAD.  ``created`` is
    the *measurement* time — the manifest's ``created`` stamp when the
    export carries one — not the ingest time.  Recording an old export
    late must not make its commit look like the newest measurement (the
    regression detector picks its default baseline by recency); only
    manifest-less legacy exports fall back to "now".
    """
    if commit is None:
        commit = current_commit()
    created = (result.manifest or {}).get("created")
    if not isinstance(created, str) or not created:
        created = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return commit, result_backend(result), manifest_hash(result.manifest), \
        created


#: Key columns, in row order, shared by both tables.
_KEY_COLUMNS = ("commit_id", "benchmark", "size", "backend",
                "manifest_hash", "created")


@dataclass(frozen=True)
class StoreEntry:
    """The key and measurement time every stored row carries.

    Subclasses add one payload kind: the table it lives in (``TABLE``,
    created by ``DDL``), its payload columns (``COLUMNS``) and the
    conversion to and from those columns.
    """

    TABLE: ClassVar[str]
    DDL: ClassVar[str]
    COLUMNS: ClassVar[Tuple[str, ...]]

    commit: str
    benchmark: str
    size: str
    backend: str
    manifest_hash: str
    created: str

    def row(self) -> Tuple[object, ...]:
        """Key columns followed by the payload columns."""
        return (self.commit, self.benchmark, self.size, self.backend,
                self.manifest_hash, self.created) + self._payload()

    def _payload(self) -> Tuple[object, ...]:
        raise NotImplementedError

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "StoreEntry":
        """The entry a ``SELECT`` of key + payload columns returned."""
        raise NotImplementedError


@dataclass(frozen=True)
class HistoryEntry(StoreEntry):
    """One recorded cell median.

    ``median_seconds`` is the comparison-layer headline (median over
    variants of per-cell repeat medians); ``stddev`` is the combined
    repeat noise or ``None`` when the run carried no repeat statistics
    (single-shot — its noise is unknown, not zero).
    """

    TABLE = "history"
    COLUMNS = ("median_seconds", "stddev", "repeats", "runs")
    DDL = """
        CREATE TABLE IF NOT EXISTS history (
            rowid_order INTEGER PRIMARY KEY AUTOINCREMENT,
            commit_id TEXT NOT NULL,
            benchmark TEXT NOT NULL,
            size TEXT NOT NULL,
            backend TEXT NOT NULL,
            manifest_hash TEXT NOT NULL,
            created TEXT NOT NULL,
            median_seconds REAL NOT NULL,
            stddev REAL,
            repeats INTEGER NOT NULL,
            runs INTEGER NOT NULL,
            UNIQUE (commit_id, benchmark, size, backend, manifest_hash)
        )
        """

    median_seconds: float
    stddev: Optional[float]
    repeats: int
    runs: int

    def _payload(self) -> Tuple[object, ...]:
        return (self.median_seconds, self.stddev, self.repeats, self.runs)

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "HistoryEntry":
        median, stddev, repeats, runs = row[6:]
        return cls(*row[:6], median_seconds=float(median),
                   stddev=None if stddev is None else float(stddev),
                   repeats=int(repeats), runs=int(runs))


@dataclass(frozen=True)
class ProfileEntry(StoreEntry):
    """One recorded cell profile.

    ``profile`` is the :meth:`SampledProfile.to_dict` payload verbatim —
    the store neither re-truncates nor reinterprets it, so a round-trip
    is exact.  It rides as one JSON text column beside the key.
    """

    TABLE = "profiles"
    COLUMNS = ("profile",)
    DDL = """
        CREATE TABLE IF NOT EXISTS profiles (
            rowid_order INTEGER PRIMARY KEY AUTOINCREMENT,
            commit_id TEXT NOT NULL,
            benchmark TEXT NOT NULL,
            size TEXT NOT NULL,
            backend TEXT NOT NULL,
            manifest_hash TEXT NOT NULL,
            created TEXT NOT NULL,
            profile TEXT NOT NULL,
            UNIQUE (commit_id, benchmark, size, backend, manifest_hash)
        )
        """

    profile: Dict[str, object] = field(compare=False)

    @property
    def samples(self) -> int:
        return int(self.profile.get("samples", 0))  # type: ignore[arg-type]

    def sampled_profile(self) -> SampledProfile:
        """Deserialize the stored payload back into a live profile."""
        return SampledProfile.from_dict(self.profile)

    def _payload(self) -> Tuple[object, ...]:
        return (json.dumps(self.profile, sort_keys=True),)

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "ProfileEntry":
        return cls(*row[:6], profile=json.loads(row[6]))


#: The payload kinds one store file holds.
KINDS: Tuple[Type[StoreEntry], ...] = (HistoryEntry, ProfileEntry)


def entries_from_result(result: SuiteResult,
                        commit: Optional[str] = None) -> List[HistoryEntry]:
    """Flatten a suite result into per-cell history entries.

    The backend and manifest hash come from the result's manifest
    (absent pieces degrade to ``"fast"`` / the no-manifest sentinel, so
    legacy exports record); see :func:`_result_key` for ``created``.
    """
    commit, backend, digest, created = _result_key(result, commit)
    entries: List[HistoryEntry] = []
    for slug in result.benchmarks():
        for size in InputSize:
            median = result.median_total(slug, size)
            if median is None:
                continue
            cell = [run for run in result.runs
                    if run.benchmark == slug and run.size == size]
            repeats = max(
                (run.stats.total.count for run in cell
                 if run.stats is not None),
                default=1,
            )
            entries.append(
                HistoryEntry(
                    commit=commit,
                    benchmark=slug,
                    size=size.name,
                    backend=backend,
                    manifest_hash=digest,
                    created=created,
                    median_seconds=median,
                    stddev=result.total_stddev(slug, size),
                    repeats=repeats,
                    runs=len(cell),
                )
            )
    return entries


def cell_profiles(result: SuiteResult
                  ) -> Dict[Tuple[str, str], SampledProfile]:
    """Merged per-(benchmark, size name) profiles of a sampled result.

    Only runs carrying a ``sampling`` payload contribute (``sdvbs
    report``'s live mode and ``run_benchmark(..., sampler=...)`` attach
    one; plain ``sdvbs run`` exports do not and simply yield no cells).
    Multiple variants of one cell merge into a single profile,
    mirroring the per-cell aggregation of medians.
    """
    cells: Dict[Tuple[str, str], SampledProfile] = {}
    for slug in result.benchmarks():
        for size in InputSize:
            payloads = [
                run.sampling for run in result.runs
                if run.benchmark == slug and run.size == size
                and run.sampling
            ]
            if not payloads:
                continue
            cells[(slug, size.name)] = SampledProfile.merged(
                SampledProfile.from_dict(payload) for payload in payloads
            )
    return cells


def profile_entries_from_result(result: SuiteResult,
                                commit: Optional[str] = None,
                                max_stacks: int = 500
                                ) -> List[ProfileEntry]:
    """Per-cell profile entries of a sampled suite result.

    Keyed exactly like :func:`entries_from_result`; cells without
    sampling payloads yield nothing.
    """
    commit, backend, digest, created = _result_key(result, commit)
    return [
        ProfileEntry(
            commit=commit,
            benchmark=slug,
            size=size_name,
            backend=backend,
            manifest_hash=digest,
            created=created,
            profile=merged.to_dict(max_stacks=max_stacks),
        )
        for (slug, size_name), merged in sorted(cell_profiles(result).items())
    ]


def _open_error(path: str, exc: Exception) -> str:
    """One-line reason a store file could not be opened."""
    try:
        with open(path, "rb") as handle:
            legacy = handle.read(1) == b"{"
    except OSError:
        legacy = False
    if legacy:
        return (f"{path} is a JSONL store written by an older version, "
                "which is no longer read; re-record its exports into a "
                "SQLite store with `sdvbs history record`")
    return f"cannot open store {path}: {exc}"


class HistoryStore:
    """One SQLite file holding both payload kinds.

    Each kind has its own table with the five key columns as a unique
    index; ingest uses ``INSERT OR IGNORE`` so duplicate recordings are
    no-ops at the database layer, immune to concurrent writers.  Entry
    queries take ``kind`` (:class:`HistoryEntry` by default, or
    :class:`ProfileEntry`) to pick the table; commit lookups span both.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        conn: Optional[sqlite3.Connection] = None
        try:
            conn = sqlite3.connect(path)
            with conn:
                for kind in KINDS:
                    conn.execute(kind.DDL)
        except sqlite3.Error as exc:
            if conn is not None:
                conn.close()
            raise StoreError(_open_error(path, exc)) from exc
        self._conn = conn

    def _query(self, sql: str, params: Sequence[object] = ()
               ) -> List[Tuple[object, ...]]:
        try:
            return self._conn.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise StoreError(f"cannot read {self.path}: {exc}") from exc

    def record(self, result: SuiteResult,
               commit: Optional[str] = None) -> List[StoreEntry]:
        """Ingest a suite result; returns the entries added.

        Every cell adds its median and, when its runs carry ``sampling``,
        its merged profile under the same key, all in one transaction.
        Re-recording an identical export (same commit, cells, backend and
        manifest hash) adds nothing — the store is append-only but the
        ingest is idempotent.
        """
        if commit is None:
            commit = current_commit()
        return self.record_entries(
            entries_from_result(result, commit)
            + profile_entries_from_result(result, commit))

    def record_entries(self, entries: Iterable[StoreEntry]
                       ) -> List[StoreEntry]:
        """Bulk idempotent ingest in one transaction; returns entries added.

        Either every new row of the batch lands or none does: a failed
        write rolls the whole batch back and raises :class:`StoreError`.
        """
        added: List[StoreEntry] = []
        try:
            with self._conn:
                for entry in entries:
                    columns = _KEY_COLUMNS + entry.COLUMNS
                    cursor = self._conn.execute(
                        f"INSERT OR IGNORE INTO {entry.TABLE} "
                        f"({', '.join(columns)}) "
                        f"VALUES ({', '.join('?' * len(columns))})",
                        entry.row(),
                    )
                    if cursor.rowcount > 0:
                        added.append(entry)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot write to {self.path}: {exc}") from exc
        return added

    def entries(self, commit: Optional[str] = None,
                benchmark: Optional[str] = None,
                size: Optional[str] = None,
                backend: Optional[str] = None,
                manifest_hash: Optional[str] = None,
                kind: Type[StoreEntry] = HistoryEntry) -> List[StoreEntry]:
        """Stored entries of one kind in insertion order, optionally filtered.

        ``manifest_hash`` selects every cell recorded under one exact
        measurement configuration (host, software, warmup/repeats,
        backend) regardless of when it ran — the serve layer's result
        cache uses it to report how much history a job spec already has.
        """
        filters = {"commit_id": commit, "benchmark": benchmark,
                   "size": size, "backend": backend,
                   "manifest_hash": manifest_hash}
        active = {name: value for name, value in filters.items()
                  if value is not None}
        where = " AND ".join(f"{name} = ?" for name in active)
        rows = self._query(
            f"SELECT {', '.join(_KEY_COLUMNS + kind.COLUMNS)} "
            f"FROM {kind.TABLE}"
            + (f" WHERE {where}" if where else "")
            + " ORDER BY rowid_order",
            list(active.values()),
        )
        return [kind.from_row(row) for row in rows]

    def commits(self) -> List[str]:
        """Distinct commits of either kind in first-recorded order.

        Commits with medians come first (oldest first), then commits
        that only have profiles.
        """
        ordered: Dict[str, None] = {}
        for kind in KINDS:
            for row in self._query(
                    f"SELECT commit_id FROM {kind.TABLE} "
                    "GROUP BY commit_id ORDER BY MIN(rowid_order)"):
                ordered.setdefault(str(row[0]))
        return list(ordered)

    def resolve_commit(self, prefix: str) -> str:
        """The one recorded commit ``prefix`` names (an exact id wins).

        Raises :class:`StoreError` when no commit or several match.
        """
        matches = [c for c in self.commits() if c.startswith(prefix)]
        if prefix in matches:
            return prefix
        if not matches:
            raise StoreError(f"no commit matching {prefix!r} in {self.path}")
        if len(matches) > 1:
            raise StoreError(
                f"ambiguous prefix {prefix!r} "
                f"({', '.join(c[:12] for c in matches)})")
        return matches[0]

    def latest_commit_before(self, commit: str,
                             backend: Optional[str] = None,
                             kind: Type[StoreEntry] = HistoryEntry
                             ) -> Optional[str]:
        """The most recently *measured* commit other than ``commit``.

        The regression detector's default baseline: "whatever this store
        saw last that isn't the revision under test", among rows of
        ``backend`` when given.  Rows are ordered by ``created`` stamp
        (measurement time), with insertion order as the tie-break — raw
        insertion order alone would let a stale export, re-recorded
        after a newer commit (say, for a second backend), hijack the
        baseline.  ``None`` when the store holds no other commit.
        """
        sql = (f"SELECT commit_id, created, rowid_order FROM {kind.TABLE} "
               "WHERE commit_id != ?")
        params = [commit]
        if backend is not None:
            sql += " AND backend = ?"
            params.append(backend)
        newest = max(self._query(sql, params),
                     key=lambda row: (created_sort_key(str(row[1])), row[2]),
                     default=None)
        return None if newest is None else str(newest[0])

    def latest(self, commit: str, benchmark: str, size: str,
               backend: Optional[str] = None,
               kind: Type[StoreEntry] = HistoryEntry
               ) -> Optional[StoreEntry]:
        """Newest stored entry for one cell at one commit (or None)."""
        matches = self.entries(commit=commit, benchmark=benchmark,
                               size=size, backend=backend, kind=kind)
        # max() keeps the first of equal keys; scanning newest-inserted
        # first makes insertion order the tie-break.
        return max(reversed(matches),
                   key=lambda entry: created_sort_key(entry.created),
                   default=None)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def open_history(path: str) -> HistoryStore:
    """Open (creating if needed) the store at ``path``.

    Raises :class:`StoreError` when ``path`` is not a SQLite database —
    including a JSONL store left by an older version.
    """
    return HistoryStore(path)
