"""Tests for the keyed history store: cell medians and sampled profiles."""

import dataclasses
import itertools
import json
import sqlite3

import pytest

from repro.core.export import result_to_json
from repro.core.history import (
    UNKNOWN_COMMIT,
    HistoryEntry,
    HistoryStore,
    ProfileEntry,
    StoreError,
    cell_profiles,
    created_sort_key,
    current_commit,
    entries_from_result,
    format_created,
    manifest_hash,
    open_history,
    profile_entries_from_result,
)
from repro.core.regress import pair_lookup_from_results
from repro.core.sampling import SampledProfile
from repro.core.types import (
    AggregatedRun,
    BenchmarkRun,
    InputSize,
    RunStats,
    SuiteResult,
)


def make_result(total=1.5, samples=(1.4, 1.5, 1.6), manifest=True,
                backend="fast", created="2026-08-06T00:00:00"):
    """A one-cell suite result with repeat stats and (optionally) a manifest."""
    run = BenchmarkRun(
        benchmark="demo",
        size=InputSize.QCIF,
        variant=0,
        total_seconds=total,
        kernel_seconds={"A": total / 2},
        kernel_calls={"A": 4},
    )
    if samples is not None:
        run.stats = AggregatedRun(
            benchmark="demo",
            size=InputSize.QCIF,
            variant=0,
            warmup=1,
            total=RunStats.of(list(samples)),
            kernels={"A": RunStats.of([s / 2 for s in samples])},
            kernel_calls={"A": 4},
        )
    result = SuiteResult()
    result.runs.append(run)
    if manifest:
        result.manifest = {
            "schema": "sdvbs-repro/manifest/v1",
            "created": created,
            "measurement": {"backend": backend, "repeats": len(samples or ())},
        }
    return result


def make_profile_dict(scale=1.0, samples=40):
    """A small but realistic SampledProfile.to_dict payload."""
    profile = SampledProfile(
        interval=0.0002,
        samples=samples,
        folded={("main", "dispatch", "ssd"): 0.004 * scale,
                ("main", "dispatch", "sort"): 0.002},
        kernel_seconds={"SSD": 0.004 * scale, "Sort": 0.002},
        observable=("SSD", "Sort"),
    )
    return profile.to_dict()


def make_sampled_result(scale=1.0, backend="fast",
                        created="2026-08-06T00:00:00", sampled=True):
    """A one-cell sampled suite result (demo@QCIF)."""
    run = BenchmarkRun(
        benchmark="demo",
        size=InputSize.QCIF,
        variant=0,
        total_seconds=0.01 * scale,
        kernel_seconds={"SSD": 0.004 * scale, "Sort": 0.002},
        kernel_calls={"SSD": 1, "Sort": 1},
    )
    if sampled:
        run.sampling = make_profile_dict(scale=scale)
    result = SuiteResult()
    result.runs.append(run)
    result.manifest = {
        "schema": "sdvbs-repro/manifest/v1",
        "created": created,
        "measurement": {"backend": backend, "repeats": 3},
    }
    return result


def make_entry(kind, commit="aaa", benchmark="demo", size="QCIF",
               backend="fast", digest="deadbeef00000000",
               created="2026-08-06T00:00:00", scale=1.0):
    """One entry of either payload kind; ``scale`` varies the payload."""
    key = dict(commit=commit, benchmark=benchmark, size=size,
               backend=backend, manifest_hash=digest, created=created)
    if kind is HistoryEntry:
        return HistoryEntry(median_seconds=1.5 * scale, stddev=0.1,
                            repeats=3, runs=1, **key)
    return ProfileEntry(profile=make_profile_dict(scale=scale), **key)


class TestCurrentCommit:
    def test_inside_repo_returns_hex(self):
        commit = current_commit(cwd="/root/repo")
        assert commit != UNKNOWN_COMMIT
        assert len(commit) == 40
        int(commit, 16)  # raises if not hex

    def test_outside_repo_returns_unknown(self, tmp_path):
        assert current_commit(cwd=str(tmp_path)) == UNKNOWN_COMMIT


class TestManifestHash:
    def test_stable_across_timestamps(self):
        base = {"measurement": {"backend": "fast"}, "created": "t1"}
        later = {"measurement": {"backend": "fast"}, "created": "t2"}
        assert manifest_hash(base) == manifest_hash(later)

    def test_differs_on_configuration(self):
        fast = {"measurement": {"backend": "fast"}}
        ref = {"measurement": {"backend": "ref"}}
        assert manifest_hash(fast) != manifest_hash(ref)

    def test_absent_manifest_sentinel(self):
        assert manifest_hash(None) == manifest_hash({})
        assert len(manifest_hash(None)) == 16


class TestEntriesFromResult:
    def test_one_entry_per_populated_cell(self):
        entries = entries_from_result(make_result(), commit="abc123")
        assert len(entries) == 1
        entry = entries[0]
        assert entry.commit == "abc123"
        assert entry.benchmark == "demo"
        assert entry.size == "QCIF"
        assert entry.backend == "fast"
        assert entry.median_seconds == pytest.approx(1.5)
        assert entry.stddev is not None and entry.stddev > 0
        assert entry.repeats == 3
        assert entry.runs == 1

    def test_statless_run_has_unknown_noise(self):
        entries = entries_from_result(make_result(samples=None),
                                      commit="abc123")
        assert entries[0].stddev is None
        assert entries[0].repeats == 1

    def test_backend_from_manifest(self):
        entries = entries_from_result(make_result(backend="ref"),
                                      commit="abc123")
        assert entries[0].backend == "ref"

    def test_no_manifest_defaults(self):
        entries = entries_from_result(make_result(manifest=False),
                                      commit="abc123")
        assert entries[0].backend == "fast"
        assert entries[0].manifest_hash == manifest_hash(None)

    def test_default_commit_is_head(self):
        entries = entries_from_result(make_result())
        assert entries[0].commit == current_commit()


class TestProfileEntriesFromResult:
    def test_one_entry_per_sampled_cell(self):
        entries = profile_entries_from_result(make_sampled_result(),
                                              commit="abc123")
        assert len(entries) == 1
        entry = entries[0]
        assert entry.commit == "abc123"
        assert entry.benchmark == "demo"
        assert entry.size == "QCIF"
        assert entry.backend == "fast"
        assert entry.created == "2026-08-06T00:00:00"
        assert entry.manifest_hash == manifest_hash(
            make_sampled_result().manifest)
        assert entry.samples == 40

    def test_keyed_like_history_entries(self):
        result = make_sampled_result(backend="ref")
        cell = entries_from_result(result, commit="abc123")[0]
        profile = profile_entries_from_result(result, commit="abc123")[0]
        # Same key columns and measurement time, different payload.
        assert profile.row()[:6] == cell.row()[:6]

    def test_unsampled_result_yields_nothing(self):
        assert profile_entries_from_result(make_sampled_result(sampled=False),
                                           commit="abc123") == []

    def test_variants_of_one_cell_merge(self):
        result = make_sampled_result()
        second = BenchmarkRun(
            benchmark="demo", size=InputSize.QCIF, variant=1,
            total_seconds=0.01,
            kernel_seconds={"SSD": 0.004, "Sort": 0.002},
            kernel_calls={"SSD": 1, "Sort": 1},
        )
        second.sampling = make_profile_dict(samples=10)
        result.runs.append(second)
        entries = profile_entries_from_result(result, commit="abc123")
        assert len(entries) == 1
        assert entries[0].samples == 50

    def test_round_trips_through_sampled_profile(self):
        entries = profile_entries_from_result(make_sampled_result(),
                                              commit="abc123")
        profile = entries[0].sampled_profile()
        assert profile.kernel_seconds["SSD"] == pytest.approx(0.004)
        assert profile.samples == 40


class TestMergeOrderIndependence:
    def test_merged_is_commutative(self):
        parts = [
            SampledProfile(interval=0.0002, samples=10,
                           folded={("m", "a"): 0.001},
                           kernel_seconds={"A": 0.001},
                           observable=("A",)),
            SampledProfile(interval=0.0005, samples=20,
                           folded={("m", "a"): 0.002, ("m", "b"): 0.003},
                           kernel_seconds={"A": 0.002, "B": 0.003},
                           observable=("B",)),
            SampledProfile(interval=0.0002, samples=5,
                           folded={("m", "b"): 0.004},
                           kernel_seconds={"B": 0.004},
                           observable=("A", "B")),
        ]
        payloads = []
        for order in itertools.permutations(range(3)):
            merged = SampledProfile.merged(parts[i] for i in order)
            payloads.append(json.dumps(merged.to_dict(), sort_keys=True))
        assert len(set(payloads)) == 1
        merged = SampledProfile.merged(parts)
        assert merged.samples == 35
        assert merged.interval == pytest.approx(0.0002)
        assert merged.folded[("m", "a")] == pytest.approx(0.003)
        assert merged.kernel_seconds["B"] == pytest.approx(0.007)


@pytest.fixture
def store(tmp_path):
    with open_history(str(tmp_path / "history.sqlite")) as opened:
        yield opened


@pytest.fixture(params=[HistoryEntry, ProfileEntry],
                ids=["history", "profiles"])
def kind(request):
    return request.param


class TestStoreKinds:
    """Behaviour both payload kinds share, run once per kind."""

    def test_record_and_read_back_exact(self, store, kind):
        entry = make_entry(kind)
        assert store.record_entries([entry]) == [entry]
        stored = store.entries(kind=kind)
        assert stored == [entry]
        assert stored[0].row() == entry.row()

    def test_reopen_persists(self, store, kind):
        store.record_entries([make_entry(kind)])
        with open_history(store.path) as reopened:
            assert len(reopened.entries(kind=kind)) == 1

    def test_duplicate_key_is_noop(self, store, kind):
        entry = make_entry(kind)
        store.record_entries([entry])
        assert store.record_entries([make_entry(kind, scale=9.0)]) == []
        # First recording wins — the payload was not overwritten.
        assert store.entries(kind=kind)[0].row() == entry.row()

    def test_same_commit_new_manifest_gets_new_row(self, store, kind):
        store.record_entries([make_entry(kind, digest="d1")])
        added = store.record_entries([make_entry(kind, digest="d2")])
        assert len(added) == 1
        assert len(store.entries(kind=kind)) == 2

    def test_filters(self, store, kind):
        store.record_entries([
            make_entry(kind, commit="aaa"),
            make_entry(kind, commit="bbb"),
            make_entry(kind, commit="bbb", benchmark="mser"),
            make_entry(kind, commit="bbb", backend="ref"),
            make_entry(kind, commit="bbb", size="CIF", digest="d2"),
        ])
        assert len(store.entries(commit="bbb", kind=kind)) == 4
        assert len(store.entries(commit="bbb", benchmark="demo",
                                 kind=kind)) == 3
        assert len(store.entries(backend="ref", kind=kind)) == 1
        assert len(store.entries(size="CIF", kind=kind)) == 1
        assert len(store.entries(manifest_hash="d2", kind=kind)) == 1
        assert store.entries(commit="zzz", kind=kind) == []

    def test_kinds_do_not_mix(self, store, kind):
        store.record_entries([make_entry(kind, commit="aaa")])
        other = ProfileEntry if kind is HistoryEntry else HistoryEntry
        assert store.entries(kind=other) == []
        # Commit lookups span both tables.
        assert store.commits() == ["aaa"]

    def test_commits_in_first_recorded_order(self, store, kind):
        store.record_entries([
            make_entry(kind, commit="bbb"),
            make_entry(kind, commit="aaa"),
            make_entry(kind, commit="bbb", benchmark="mser"),
        ])
        assert store.commits() == ["bbb", "aaa"]

    def test_latest_commit_before_empty(self, store, kind):
        assert store.latest_commit_before("head", kind=kind) is None

    def test_latest_commit_before_orders_by_measurement_time(self, store,
                                                             kind):
        """A stale export re-recorded late must not hijack the baseline.

        ``old`` is measured first, ``new`` second; recording another of
        ``old``'s exports *after* ``new`` (a second backend, say) puts
        ``old`` last in insertion order, but ``new`` remains the most
        recently measured commit and must stay the default baseline.
        """
        store.record_entries([
            make_entry(kind, commit="old", created="2026-08-01T00:00:00"),
            make_entry(kind, commit="new", created="2026-08-05T00:00:00"),
            make_entry(kind, commit="old", backend="ref", digest="d2",
                       created="2026-08-01T00:00:00"),
        ])
        assert store.latest_commit_before("head", kind=kind) == "new"
        assert store.latest_commit_before("new", kind=kind) == "old"

    def test_latest_commit_before_ties_break_by_insertion(self, store,
                                                          kind):
        store.record_entries([make_entry(kind, commit="c1"),
                              make_entry(kind, commit="c2")])
        assert store.latest_commit_before("c3", kind=kind) == "c2"
        assert store.latest_commit_before("c2", kind=kind) == "c1"
        assert store.latest_commit_before("c1", kind=kind) == "c2"

    def test_latest_commit_before_backend(self, store, kind):
        store.record_entries([
            make_entry(kind, commit="fast1", created="2026-08-01T00:00:00"),
            make_entry(kind, commit="ref2", backend="ref",
                       created="2026-08-05T00:00:00"),
        ])
        assert store.latest_commit_before("head", kind=kind) == "ref2"
        assert store.latest_commit_before("head", backend="fast",
                                          kind=kind) == "fast1"
        assert store.latest_commit_before("fast1", backend="fast",
                                          kind=kind) is None

    def test_latest_picks_newest(self, store, kind):
        store.record_entries([
            make_entry(kind, digest="d1", created="2026-08-05T00:00:00"),
            make_entry(kind, digest="d2", created="2026-08-01T00:00:00"),
            make_entry(kind, digest="d3", created="2026-08-05T00:00:00"),
        ])
        # Newest created wins; equal stamps fall back to insertion order.
        latest = store.latest("aaa", "demo", "QCIF", kind=kind)
        assert latest is not None and latest.manifest_hash == "d3"
        assert store.latest("aaa", "demo", "CIF", kind=kind) is None
        assert store.latest("aaa", "demo", "QCIF", backend="ref",
                            kind=kind) is None

    def test_resolve_commit(self, store, kind):
        store.record_entries([make_entry(kind, commit=commit)
                              for commit in ("abc111", "abc222", "abc2x",
                                             "abc")])
        assert store.resolve_commit("abc1") == "abc111"
        # An exact id is never ambiguous, even when it prefixes others.
        assert store.resolve_commit("abc") == "abc"
        with pytest.raises(StoreError, match="ambiguous prefix 'abc2'"):
            store.resolve_commit("abc2")
        with pytest.raises(StoreError, match="no commit matching 'zzz'"):
            store.resolve_commit("zzz")

    def test_failed_write_leaves_no_rows(self, tmp_path, kind):
        """A batch that fails at its k-th row lands none of its rows."""
        path = str(tmp_path / "h.sqlite")
        open_history(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            f"CREATE TRIGGER fail_boom BEFORE INSERT ON {kind.TABLE} "
            "WHEN NEW.benchmark = 'boom' "
            "BEGIN SELECT RAISE(ABORT, 'injected write failure'); END")
        conn.commit()
        conn.close()
        batch = [make_entry(kind, benchmark=name)
                 for name in ("first", "second", "boom", "last")]
        with open_history(path) as store:
            with pytest.raises(StoreError, match="injected write failure"):
                store.record_entries(batch)
            assert store.entries(kind=kind) == []
            # The store stays usable after the rollback.
            assert store.record_entries(batch[:2]) == batch[:2]


class TestHistoryRecord:
    def test_record_is_idempotent(self, store):
        added = store.record(make_result(), commit="c1")
        assert len(added) == 1
        assert store.entries() == added
        assert store.record(make_result(), commit="c1") == []
        assert len(store.entries()) == 1

    def test_manifest_hash_filter(self, store):
        # Same configuration recorded under two commits shares the
        # manifest hash; a different backend changes it (the serve
        # layer's cache lookup relies on both).
        store.record(make_result(backend="fast"), commit="c1")
        store.record(make_result(backend="fast"), commit="c2")
        store.record(make_result(backend="ref"), commit="c1")
        digest = manifest_hash(make_result(backend="fast").manifest)
        matching = store.entries(manifest_hash=digest)
        assert len(matching) == 2
        assert {e.commit for e in matching} == {"c1", "c2"}
        assert store.entries(manifest_hash="0" * 16) == []

    def test_profile_record_is_idempotent(self, store):
        result = make_sampled_result()
        assert len(store.record(result, commit="aaa")) == 2
        assert store.record(result, commit="aaa") == []
        assert len(store.entries(kind=ProfileEntry)) == 1

    def test_sampled_result_records_both_kinds_under_one_key(self, store):
        result = make_sampled_result()
        result.runs.append(dataclasses.replace(
            result.runs[0], size=InputSize.CIF))
        added = store.record(result, commit="aaa")
        cells = store.entries()
        profiles = store.entries(kind=ProfileEntry)
        assert len(cells) == len(profiles) == 2
        assert len(added) == 4
        assert {p.row()[:6] for p in profiles} == \
            {c.row()[:6] for c in cells}
        # Runs without sampling record their medians only.
        assert len(store.record(make_result(), commit="bbb")) == 1

    def test_failed_profile_write_rolls_back_medians(self, tmp_path):
        path = str(tmp_path / "h.sqlite")
        open_history(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TRIGGER fail_profiles BEFORE INSERT ON profiles "
            "BEGIN SELECT RAISE(ABORT, 'injected write failure'); END")
        conn.commit()
        conn.close()
        with open_history(path) as store:
            with pytest.raises(StoreError, match="injected write failure"):
                store.record(make_sampled_result(), commit="aaa")
            assert store.entries() == []
            assert store.entries(kind=ProfileEntry) == []
            assert store.commits() == []

    def test_commits_span_both_kinds(self, store):
        store.record_entries([make_entry(ProfileEntry, commit="ppp"),
                              make_entry(HistoryEntry, commit="hhh")])
        # Commits with medians first, then profile-only commits.
        assert store.commits() == ["hhh", "ppp"]
        assert store.resolve_commit("pp") == "ppp"


class TestStoreBackends:
    def test_created_comes_from_manifest(self):
        entries = entries_from_result(make_result(), commit="c1")
        assert entries[0].created == "2026-08-06T00:00:00"

    def test_created_falls_back_to_now_without_manifest(self):
        entries = entries_from_result(make_result(manifest=False),
                                      commit="c1")
        assert entries[0].created.startswith("20")  # an ISO stamp, not ""


#: The tables as created by the two stores this one replaced; files
#: written then must open and read back unchanged.
PREVIOUS_DDL = (
    """
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
    """,
    """
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
    """,
)


class TestStoreFiles:
    def test_previous_tables_read_back_unchanged(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        payload = make_profile_dict()
        conn = sqlite3.connect(path)
        for ddl in PREVIOUS_DDL:
            conn.execute(ddl)
        conn.execute(
            "INSERT INTO history (commit_id, benchmark, size, backend, "
            "manifest_hash, created, median_seconds, stddev, repeats, runs) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            ("c1", "demo", "QCIF", "fast", "d1", "1754300000.5", 1.5, None,
             1, 2))
        conn.execute(
            "INSERT INTO profiles (commit_id, benchmark, size, backend, "
            "manifest_hash, created, profile) VALUES (?, ?, ?, ?, ?, ?, ?)",
            ("c1", "demo", "QCIF", "ref", "d2", "2026-08-06T00:00:00+0000",
             json.dumps(payload, sort_keys=True)))
        conn.commit()
        schema = conn.execute(
            "SELECT name, sql FROM sqlite_master ORDER BY name").fetchall()
        conn.close()
        with open_history(path) as store:
            assert store.entries() == [HistoryEntry(
                commit="c1", benchmark="demo", size="QCIF", backend="fast",
                manifest_hash="d1", created="1754300000.5",
                median_seconds=1.5, stddev=None, repeats=1, runs=2)]
            [profile] = store.entries(kind=ProfileEntry)
            assert profile.row()[:6] == ("c1", "demo", "QCIF", "ref", "d2",
                                         "2026-08-06T00:00:00+0000")
            assert profile.profile == payload
        conn = sqlite3.connect(path)
        assert conn.execute(
            "SELECT name, sql FROM sqlite_master ORDER BY name"
        ).fetchall() == schema
        conn.close()

    def test_one_file_holds_both_kinds(self, tmp_path):
        path = str(tmp_path / "history.sqlite")
        result = make_sampled_result()
        with open_history(path) as store:
            store.record(result, commit="aaa")
        with open_history(path) as store:
            assert len(store.entries()) == 1
            assert len(store.entries(kind=ProfileEntry)) == 1

    def test_corrupt_file_raises_store_error(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a database\n" * 64)
        with pytest.raises(StoreError, match="cannot open store"):
            open_history(str(path))

    def test_legacy_jsonl_store_says_to_rerecord(self, tmp_path):
        path = tmp_path / "history.jsonl"
        line = json.dumps({"schema": "sdvbs-repro/history/v1",
                           "commit": "c1", "benchmark": "demo"})
        path.write_text((line + "\n") * 8)
        with pytest.raises(StoreError, match="re-record"):
            open_history(str(path))

    def test_unopenable_path_raises_store_error(self, tmp_path):
        with pytest.raises(StoreError):
            open_history(str(tmp_path / "missing-dir" / "h.sqlite"))


class TestCreatedStamps:
    def test_format_created_always_carries_an_offset(self):
        """The %z + time.localtime path rendered an empty offset on some
        platforms; the aware-datetime path always formats one."""
        formatted = format_created("1754300000.5")
        assert "+" in formatted or formatted.count("-") > 2

    def test_format_created_passthrough_for_non_numeric(self):
        assert format_created("2026-08-06T00:00:00") == "2026-08-06T00:00:00"
        assert format_created("garbage") == "garbage"

    def test_sort_key_accepts_all_written_formats(self):
        epoch = created_sort_key("1754300000.5")
        assert epoch == pytest.approx(1754300000.5)
        # strftime("%z") offsets ("+0000", no colon) and fromisoformat
        # offsets ("+00:00") must order identically.
        legacy = created_sort_key("2026-08-06T00:00:00+0000")
        modern = created_sort_key("2026-08-06T00:00:00+00:00")
        assert legacy == modern > 0
        assert created_sort_key("2026-08-07T00:00:00+0000") > legacy

    def test_sort_key_unparseable_sorts_oldest(self):
        assert created_sort_key("garbage") == 0.0


class TestOpenHistory:
    def test_default_is_sqlite(self, tmp_path):
        path = tmp_path / "h.jsonl"  # the suffix no longer selects a format
        with open_history(str(path)) as store:
            assert isinstance(store, HistoryStore)
            store.record(make_result(), commit="c1")
        assert path.read_bytes().startswith(b"SQLite format 3")


class TestPairLookups:
    def test_from_results_requires_both_sides(self):
        lookup = pair_lookup_from_results(make_sampled_result(),
                                          make_sampled_result(scale=3.0))
        pair = lookup("demo", "QCIF")
        assert pair is not None
        base, cand = pair
        assert cand.kernel_seconds["SSD"] == \
            pytest.approx(3 * base.kernel_seconds["SSD"])
        assert lookup("demo", "CIF") is None
        assert lookup("mser", "QCIF") is None

    def test_from_results_unsampled_side_yields_none(self):
        lookup = pair_lookup_from_results(
            make_sampled_result(sampled=False), make_sampled_result())
        assert lookup("demo", "QCIF") is None


class TestCellProfiles:
    def test_empty_for_unsampled(self):
        assert cell_profiles(make_sampled_result(sampled=False)) == {}

    def test_keyed_by_benchmark_and_size_name(self):
        cells = cell_profiles(make_sampled_result())
        assert set(cells) == {("demo", "QCIF")}
        assert cells[("demo", "QCIF")].samples == 40


def _write_export(path, result):
    path.write_text(result_to_json(result))
    return str(path)


def _garbage_db(tmp_path):
    path = tmp_path / "garbage.sqlite"
    path.write_bytes(b"\x00not a database" * 64)
    return str(path)


class TestCliHistory:
    def _export(self, tmp_path, result=None):
        return _write_export(tmp_path / "result.json",
                             result or make_result())

    def test_record_list_show_roundtrip(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        export = self._export(tmp_path)
        db = str(tmp_path / "history.sqlite")
        assert cli_main(["history", "record", export, "--db", db,
                         "--commit", "feedc0de" * 5]) == 0
        out = capsys.readouterr().out
        assert "recorded 1 new cell(s)" in out

        assert cli_main(["history", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "feedc0de" in out
        assert "demo" in out

        assert cli_main(["history", "show", "feedc0de", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "QCIF" in out

    def test_record_twice_adds_nothing(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        export = self._export(tmp_path)
        db = str(tmp_path / "history.sqlite")
        cli_main(["history", "record", export, "--db", db, "--commit", "c1"])
        capsys.readouterr()
        assert cli_main(["history", "record", export, "--db", db,
                         "--commit", "c1"]) == 0
        assert "recorded 0 new cell(s)" in capsys.readouterr().out

    def test_show_unknown_prefix_fails(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        export = self._export(tmp_path)
        db = str(tmp_path / "history.sqlite")
        cli_main(["history", "record", export, "--db", db, "--commit", "c1"])
        capsys.readouterr()
        assert cli_main(["history", "show", "nope", "--db", db]) == 2
        assert "sdvbs history show: no commit matching 'nope'" in \
            capsys.readouterr().err

    def test_list_empty_store(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "empty.sqlite")
        assert cli_main(["history", "list", "--db", db]) == 0
        assert "empty" in capsys.readouterr().out

    def test_record_missing_file_fails(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        missing = str(tmp_path / "nope.json")
        assert cli_main(["history", "record", missing, "--db", db]) == 2

    @pytest.mark.parametrize("bad", ["missing", "malformed"])
    def test_failed_record_creates_no_store(self, tmp_path, capsys, bad):
        from repro.cli import main as cli_main

        db = tmp_path / "history.sqlite"
        export = tmp_path / "bad.json"
        if bad == "malformed":
            export.write_text('{"x": 1}')
        assert cli_main(["history", "record", str(export),
                         "--db", str(db)]) == 2
        assert capsys.readouterr().err.startswith(
            "sdvbs history record: cannot read ")
        assert not db.exists()

    def test_corrupt_store_exits_two_with_one_line(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["history", "list", "--db",
                         _garbage_db(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sdvbs history list: cannot open store")
        assert len(err.strip().splitlines()) == 1


class TestCliProfile:
    """Profiles through the ``history`` commands."""

    def test_record_list_show(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        export = _write_export(tmp_path / "r.json", make_sampled_result())
        assert cli_main(["history", "record", export, "--db", db,
                         "--commit", "aaaa000"]) == 0
        out = capsys.readouterr().out
        assert "recorded 1 new cell(s) and 1 profile(s)" in out
        with open_history(db) as store:
            assert len(store.entries()) == 1
            assert len(store.entries(kind=ProfileEntry)) == 1

        assert cli_main(["history", "record", export, "--db", db,
                         "--commit", "aaaa000"]) == 0
        assert "recorded 0 new cell(s) and 0 profile(s)" in \
            capsys.readouterr().out

        assert cli_main(["history", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "Profiles" in out
        row = next(line for line in out.splitlines()
                   if line.startswith("aaaa000"))
        assert [cell.strip() for cell in row.split("|")][1:3] == ["1", "1"]
        assert "demo" in row

        assert cli_main(["history", "show", "aaaa", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "QCIF" in out and "SSD 67%" in out

    def test_list_filters_count_profiles(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        with open_history(db) as store:
            store.record_entries([
                make_entry(ProfileEntry, commit="aaaa000"),
                make_entry(ProfileEntry, commit="aaaa000", size="CIF"),
                make_entry(ProfileEntry, commit="bbbb111", backend="ref"),
            ])
        assert cli_main(["history", "list", "--db", db, "--size", "cif"]) \
            == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if line.startswith("aaaa000"))
        assert [cell.strip() for cell in row.split("|")][1:3] == ["0", "1"]
        assert "bbbb111" not in out
        assert cli_main(["history", "list", "--db", db, "--backend",
                         "ref"]) == 0
        out = capsys.readouterr().out
        assert "bbbb111" in out and "aaaa000" not in out
        assert cli_main(["history", "list", "--db", db, "--benchmark",
                         "mser"]) == 0
        assert "no entries match" in capsys.readouterr().out

    def test_show_without_profile_prints_dash(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        export = _write_export(tmp_path / "r.json", make_result())
        assert cli_main(["history", "record", export, "--db", db,
                         "--commit", "aaaa000"]) == 0
        capsys.readouterr()
        assert cli_main(["history", "show", "aaaa", "--db", db]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("demo"))
        assert row.rstrip().endswith("-")

    def test_profile_only_commit_lists_shows_and_diffs(self, tmp_path,
                                                       capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        with open_history(db) as store:
            store.record_entries([
                make_entry(ProfileEntry, commit="aaaa000"),
                make_entry(ProfileEntry, commit="bbbb111", scale=3.0)])
        assert cli_main(["history", "list", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "aaaa000" in out and "bbbb111" in out
        assert cli_main(["history", "show", "bbbb", "--db", db]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("demo"))
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[2] == "-" and "SSD" in cells[-1]
        assert cli_main(["history", "diff", "aaaa", "bbbb",
                         "--benchmark", "demo", "--size", "qcif",
                         "--db", db]) == 0
        assert "SSD" in capsys.readouterr().out

    def test_history_and_profile_share_the_default_file(self, tmp_path,
                                                        capsys,
                                                        monkeypatch):
        from repro.cli import main as cli_main

        monkeypatch.chdir(tmp_path)
        export = _write_export(tmp_path / "r.json", make_sampled_result())
        assert cli_main(["history", "record", export,
                         "--commit", "aaaa000"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["history.sqlite", "r.json"]
        with open_history(str(tmp_path / "history.sqlite")) as store:
            assert len(store.entries()) == 1
            assert len(store.entries(kind=ProfileEntry)) == 1

    def test_record_unsampled_export_records_no_profiles(self, tmp_path,
                                                         capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        export = _write_export(tmp_path / "r.json",
                               make_sampled_result(sampled=False))
        assert cli_main(["history", "record", export, "--db", db,
                         "--commit", "aaaa000"]) == 0
        assert "recorded 1 new cell(s) and 0 profile(s)" in \
            capsys.readouterr().out
        with open_history(db) as store:
            assert store.entries(kind=ProfileEntry) == []

    def test_record_warns_on_truncated_stacks(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        result = make_sampled_result()
        result.runs[0].sampling["stacks_truncated"] = 7
        db = str(tmp_path / "history.sqlite")
        export = _write_export(tmp_path / "r.json", result)
        assert cli_main(["history", "record", export, "--db", db,
                         "--commit", "aaaa000"]) == 0
        assert "stack(s) dropped" in capsys.readouterr().err

    def test_show_unknown_and_ambiguous_prefix(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        with open_history(db) as store:
            store.record_entries([make_entry(ProfileEntry, commit="abc111"),
                                  make_entry(ProfileEntry, commit="abc222")])
        assert cli_main(["history", "show", "zzz", "--db", db]) == 2
        assert "sdvbs history show: no commit matching 'zzz'" in \
            capsys.readouterr().err
        assert cli_main(["history", "show", "abc", "--db", db]) == 2
        assert "sdvbs history show: ambiguous prefix 'abc'" in \
            capsys.readouterr().err

    def test_diff_renders_and_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.flamediff import FLAMEDIFF_SCHEMA

        db = str(tmp_path / "history.sqlite")
        base = _write_export(tmp_path / "base.json",
                             make_sampled_result(scale=1.0))
        slow = _write_export(tmp_path / "slow.json",
                             make_sampled_result(scale=3.0))
        assert cli_main(["history", "record", base, "--db", db,
                         "--commit", "aaaa000"]) == 0
        assert cli_main(["history", "record", slow, "--db", db,
                         "--commit", "bbbb111"]) == 0
        capsys.readouterr()

        out_path = tmp_path / "diff.collapsed"
        html_path = tmp_path / "diff.html"
        json_path = tmp_path / "diff.json"
        assert cli_main(["history", "diff", "aaaa", "bbbb",
                         "--benchmark", "demo", "--size", "qcif",
                         "--db", db,
                         "--out", str(out_path),
                         "--html", str(html_path),
                         "--json-out", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "SSD" in out

        assert "+8000" in out_path.read_text()
        html = html_path.read_text()
        assert "flamediff" in html and "SSD" in html
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == FLAMEDIFF_SCHEMA
        assert payload["kernels"][0]["kernel"] == "SSD"

    def test_diff_missing_cell_exits_two(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        with open_history(db) as store:
            store.record_entries([make_entry(ProfileEntry, commit="aaaa000"),
                                  make_entry(ProfileEntry, commit="bbbb111")])
        assert cli_main(["history", "diff", "aaaa", "bbbb",
                         "--benchmark", "mser", "--size", "qcif",
                         "--db", db]) == 2
        assert "sdvbs history diff: commit aaaa000 has no profile" in \
            capsys.readouterr().err

    def test_diff_unknown_prefix_exits_two(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        with open_history(db) as store:
            store.record_entries([make_entry(ProfileEntry, commit="aaaa000")])
        assert cli_main(["history", "diff", "aaaa", "zzzz",
                         "--benchmark", "demo", "--size", "qcif",
                         "--db", db]) == 2
        assert "sdvbs history diff: no commit matching 'zzzz'" in \
            capsys.readouterr().err

    def test_corrupt_store_exits_two(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        for command in (["show", "aaaa"],
                        ["diff", "aaaa", "bbbb", "--benchmark", "demo"]):
            assert cli_main(["history", *command, "--db",
                             _garbage_db(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"sdvbs history {command[0]}: cannot open store")
            assert len(err.strip().splitlines()) == 1

    def test_profile_group_is_gone(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["profile", "list"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err
