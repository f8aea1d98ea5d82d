"""Tests for noise-aware regression detection and the ``regress`` CLI."""

import json

import pytest

from repro.core.export import result_to_json
from repro.core.history import open_history
from repro.core.regress import (
    REGRESS_SCHEMA,
    STATUS_IMPROVED,
    STATUS_INSUFFICIENT,
    STATUS_OK,
    STATUS_REGRESSION,
    STATUS_WITHIN_NOISE,
    cells_from_entries,
    cells_from_result,
    detect_regressions,
    render_regressions,
    report_to_dict,
    report_to_json,
)
from repro.core.types import (
    AggregatedRun,
    BenchmarkRun,
    InputSize,
    RunStats,
    SuiteResult,
)


def make_result(total=1.0, noise=0.01, benchmark="demo",
                size=InputSize.QCIF):
    """One-cell result: median ``total`` with repeat stddev ~``noise``."""
    run = BenchmarkRun(
        benchmark=benchmark,
        size=size,
        variant=0,
        total_seconds=total,
        kernel_seconds={"A": total / 2},
        kernel_calls={"A": 1},
    )
    if noise is not None:
        samples = [total - noise, total, total + noise]
        run.stats = AggregatedRun(
            benchmark=benchmark,
            size=size,
            variant=0,
            warmup=1,
            total=RunStats.of(samples),
            kernels={"A": RunStats.of([s / 2 for s in samples])},
            kernel_calls={"A": 1},
        )
    result = SuiteResult()
    result.runs.append(run)
    return result


def with_backend(result, backend, created="2026-08-06T00:00:00"):
    """Stamp a result's manifest with the kernel backend it measured."""
    result.manifest = {
        "schema": "sdvbs-repro/manifest/v1",
        "created": created,
        "measurement": {"backend": backend, "repeats": 3},
    }
    return result


def cell_map(median, stddev, benchmark="demo", size="QCIF"):
    return {(benchmark, size): (median, stddev)}


class TestCells:
    def test_cells_from_result(self):
        cells = cells_from_result(make_result(total=1.0, noise=0.01))
        assert ("demo", "QCIF") in cells
        median, stddev = cells[("demo", "QCIF")]
        assert median == pytest.approx(1.0)
        assert stddev is not None and stddev > 0

    def test_statless_result_has_none_stddev(self):
        cells = cells_from_result(make_result(noise=None))
        assert cells[("demo", "QCIF")][1] is None

    def test_cells_from_entries_latest_wins(self):
        from repro.core.history import entries_from_result

        old = entries_from_result(make_result(total=1.0), commit="c1")
        new = entries_from_result(make_result(total=2.0), commit="c1")
        cells = cells_from_entries(old + new)
        assert cells[("demo", "QCIF")][0] == pytest.approx(2.0)


class TestClassification:
    def test_identical_cells_are_ok(self):
        report = detect_regressions(cell_map(1.0, 0.01), cell_map(1.0, 0.01))
        assert [e.status for e in report.entries] == [STATUS_OK]
        assert report.exit_code == 0

    def test_large_significant_slowdown_is_regression(self):
        report = detect_regressions(cell_map(1.0, 0.01),
                                    cell_map(1.5, 0.01))
        entry = report.entries[0]
        assert entry.status == STATUS_REGRESSION
        assert entry.relative_change == pytest.approx(0.5)
        assert report.exit_code == 1

    def test_shift_inside_noise_band_passes(self):
        # 5% slower but noise is ±10%: not statistically resolvable.
        report = detect_regressions(cell_map(1.0, 0.10),
                                    cell_map(1.05, 0.10))
        assert report.entries[0].status == STATUS_WITHIN_NOISE
        assert report.exit_code == 0

    def test_significant_but_small_shift_passes(self):
        # 5% slower, significant at >2 sigma, but below the 10% gate.
        report = detect_regressions(cell_map(1.0, 0.001),
                                    cell_map(1.05, 0.001))
        assert report.entries[0].status == STATUS_WITHIN_NOISE
        assert report.exit_code == 0

    def test_large_significant_speedup_is_improved(self):
        report = detect_regressions(cell_map(1.5, 0.01),
                                    cell_map(1.0, 0.01))
        assert report.entries[0].status == STATUS_IMPROVED
        assert report.exit_code == 0

    def test_unknown_noise_is_insufficient_not_regression(self):
        report = detect_regressions(cell_map(1.0, None),
                                    cell_map(2.0, None))
        assert report.entries[0].status == STATUS_INSUFFICIENT
        assert report.exit_code == 0

    def test_one_sided_noise_is_insufficient(self):
        report = detect_regressions(cell_map(1.0, 0.01),
                                    cell_map(2.0, None))
        assert report.entries[0].status == STATUS_INSUFFICIENT

    def test_unknown_noise_identical_medians_ok(self):
        report = detect_regressions(cell_map(1.0, None),
                                    cell_map(1.0, None))
        assert report.entries[0].status == STATUS_OK

    def test_thresholds_are_tunable(self):
        baseline, candidate = cell_map(1.0, 0.01), cell_map(1.05, 0.01)
        strict = detect_regressions(baseline, candidate, min_slowdown=0.02)
        assert strict.entries[0].status == STATUS_REGRESSION
        lax = detect_regressions(cell_map(1.0, 0.01), cell_map(1.5, 0.01),
                                 sigmas=1000.0)
        assert lax.entries[0].status == STATUS_WITHIN_NOISE

    def test_disjoint_cells_are_skipped(self):
        report = detect_regressions(cell_map(1.0, 0.01),
                                    cell_map(1.0, 0.01, benchmark="other"))
        assert report.entries == []
        assert report.exit_code == 0


class TestRendering:
    def test_regression_summary_line(self):
        report = detect_regressions(cell_map(1.0, 0.01), cell_map(1.5, 0.01))
        text = render_regressions(report)
        assert "REGRESSION: 1 cell(s) flagged" in text
        assert "demo@QCIF" in text
        assert "+50.0%" in text

    def test_clean_summary_line(self):
        report = detect_regressions(cell_map(1.0, 0.01), cell_map(1.0, 0.01))
        assert "no confirmed regressions" in render_regressions(report)

    def test_empty_report(self):
        report = detect_regressions({}, {})
        assert "no comparable cells" in render_regressions(report)

    def test_json_verdict_shape(self):
        report = detect_regressions(cell_map(1.0, 0.01), cell_map(1.5, 0.01))
        payload = json.loads(report_to_json(report))
        assert payload["schema"] == REGRESS_SCHEMA
        assert payload["exit_code"] == 1
        assert payload["regression_count"] == 1
        assert payload["cells"][0]["status"] == STATUS_REGRESSION
        assert payload == report_to_dict(report)


class TestCliRegress:
    def _write(self, path, result):
        path.write_text(result_to_json(result))
        return str(path)

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        export = self._write(tmp_path / "r.json", make_result())
        assert cli_main(["regress", export, "--against", export]) == 0
        assert "no confirmed regressions" in capsys.readouterr().out

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        base = self._write(tmp_path / "base.json", make_result(total=1.0))
        slow = self._write(tmp_path / "slow.json",
                           make_result(total=1.5))
        assert cli_main(["regress", slow, "--against", base]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_history_baseline_path(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        with open_history(db) as store:
            store.record(make_result(total=1.0), commit="baseline-commit")
        slow = self._write(tmp_path / "slow.json", make_result(total=1.5))
        assert cli_main(["regress", slow, "--db", db,
                         "--commit", "candidate-commit"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_explicit_baseline_commit(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "history.sqlite")
        with open_history(db) as store:
            store.record(make_result(total=1.0), commit="good")
            store.record(make_result(total=1.5), commit="bad")
        cand = self._write(tmp_path / "c.json", make_result(total=1.5))
        assert cli_main(["regress", cand, "--db", db, "--commit", "head",
                         "--baseline-commit", "good"]) == 1
        capsys.readouterr()
        assert cli_main(["regress", cand, "--db", db, "--commit", "head",
                         "--baseline-commit", "bad"]) == 0

    def test_empty_history_is_soft_pass(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "empty.sqlite")
        cand = self._write(tmp_path / "c.json", make_result())
        assert cli_main(["regress", cand, "--db", db,
                         "--commit", "head"]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_unknown_explicit_baseline_fails(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "h.sqlite")
        with open_history(db) as store:
            store.record(make_result(), commit="c1")
        cand = self._write(tmp_path / "c.json", make_result())
        assert cli_main(["regress", cand, "--db", db, "--commit", "head",
                         "--baseline-commit", "ghost"]) == 2
        assert "sdvbs regress: no commit matching 'ghost'" in \
            capsys.readouterr().err

    def test_baseline_commit_prefix(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "h.sqlite")
        with open_history(db) as store:
            store.record(make_result(total=1.0), commit="good1234")
            store.record(make_result(total=1.0), commit="fine5678")
            store.record(make_result(total=1.0), commit="fine9999")
        cand = self._write(tmp_path / "c.json", make_result(total=1.5))
        assert cli_main(["regress", cand, "--db", db, "--commit", "head",
                         "--baseline-commit", "good"]) == 1
        assert "commit good1234" in capsys.readouterr().out
        assert cli_main(["regress", cand, "--db", db, "--commit", "head",
                         "--baseline-commit", "fine"]) == 2
        assert "sdvbs regress: ambiguous prefix 'fine'" in \
            capsys.readouterr().err

    def test_baseline_uses_candidate_backend(self, tmp_path, capsys):
        """A commit recorded with both backends is judged per backend.

        The baseline commit holds a fast 0.05 s row and a ref 3.0 s row
        for one cell; a fast candidate at 0.05 s must be compared with
        the fast row, not whichever row was recorded last.
        """
        from repro.cli import main as cli_main

        db = str(tmp_path / "h.sqlite")
        with open_history(db) as store:
            store.record(with_backend(make_result(total=0.05, noise=0.001),
                                      "fast"), commit="baseline0")
            store.record(with_backend(make_result(total=3.0, noise=0.01),
                                      "ref"), commit="baseline0")
        cand = self._write(
            tmp_path / "c.json",
            with_backend(make_result(total=0.05, noise=0.001), "fast"))
        verdict = tmp_path / "verdict.json"
        assert cli_main(["regress", cand, "--db", db, "--commit", "head",
                         "--json-out", str(verdict)]) == 0
        cell = json.loads(verdict.read_text())["cells"][0]
        assert cell["baseline_seconds"] == pytest.approx(0.05)
        assert cell["status"] == STATUS_OK

    def test_default_baseline_skips_other_backend_commits(self, tmp_path,
                                                          capsys):
        from repro.cli import main as cli_main

        db = str(tmp_path / "h.sqlite")
        with open_history(db) as store:
            store.record(with_backend(make_result(total=1.0), "fast",
                                      created="2026-08-01T00:00:00"),
                         commit="fast-commit")
            store.record(with_backend(make_result(total=9.0), "ref",
                                      created="2026-08-05T00:00:00"),
                         commit="ref-commit")
        cand = self._write(tmp_path / "c.json",
                           with_backend(make_result(total=1.5), "fast"))
        assert cli_main(["regress", cand, "--db", db,
                         "--commit", "head"]) == 1
        assert "commit fast-commit" in capsys.readouterr().out

    def test_corrupt_store_exits_two(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = tmp_path / "garbage.sqlite"
        db.write_bytes(b"\x00not a database" * 64)
        cand = self._write(tmp_path / "c.json", make_result())
        assert cli_main(["regress", cand, "--db", str(db),
                         "--commit", "head"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sdvbs regress: cannot open store")
        assert len(err.strip().splitlines()) == 1

    def test_json_out(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        base = self._write(tmp_path / "base.json", make_result(total=1.0))
        slow = self._write(tmp_path / "slow.json", make_result(total=1.5))
        verdict = tmp_path / "verdict.json"
        assert cli_main(["regress", slow, "--against", base,
                         "--json-out", str(verdict)]) == 1
        payload = json.loads(verdict.read_text())
        assert payload["schema"] == REGRESS_SCHEMA
        assert payload["exit_code"] == 1

    def test_tunable_gates(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        base = self._write(tmp_path / "base.json", make_result(total=1.0))
        slow = self._write(tmp_path / "slow.json", make_result(total=1.05))
        assert cli_main(["regress", slow, "--against", base]) == 0
        capsys.readouterr()
        assert cli_main(["regress", slow, "--against", base,
                         "--min-slowdown", "0.02"]) == 1

    def test_missing_candidate_fails(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        missing = str(tmp_path / "nope.json")
        assert cli_main(["regress", missing,
                         "--db", str(tmp_path / "h.sqlite")]) == 2


def make_sampled_result(total=1.0, noise=0.01, kernel_scale=1.0):
    """A regressable result whose run also carries a sampling profile."""
    from repro.core.sampling import SampledProfile

    result = make_result(total=total, noise=noise)
    profile = SampledProfile(
        interval=0.001,
        samples=20,
        folded={("main", "ssd"): 0.004 * kernel_scale,
                ("main", "sort"): 0.002},
        kernel_seconds={"SSD": 0.004 * kernel_scale, "Sort": 0.002},
        observable=("SSD", "Sort"),
    )
    result.runs[0].sampling = profile.to_dict()
    result.manifest = {
        "schema": "sdvbs-repro/manifest/v1",
        "created": "2026-08-06T00:00:00",
        "measurement": {"backend": "fast", "repeats": 3},
    }
    return result


class TestCliAttribute:
    def _write(self, path, result):
        path.write_text(result_to_json(result))
        return str(path)

    def test_export_vs_export_names_guilty_kernel(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        base = self._write(tmp_path / "base.json",
                           make_sampled_result(total=1.0))
        slow = self._write(tmp_path / "slow.json",
                           make_sampled_result(total=1.5, kernel_scale=1.5))
        verdict = tmp_path / "verdict.json"
        assert cli_main(["regress", slow, "--against", base,
                         "--attribute", "--json-out", str(verdict)]) == 1
        out = capsys.readouterr().out
        assert "attribution" in out and "SSD" in out
        payload = json.loads(verdict.read_text())
        cell = payload["cells"][0]
        assert cell["status"] == STATUS_REGRESSION
        attribution = cell["attribution"]
        assert attribution["kernels"][0]["kernel"] == "SSD"
        assert attribution["kernels"][0]["share_of_delta"] == \
            pytest.approx(1.0)

    def test_attribute_without_profiles_warns(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        base = self._write(tmp_path / "base.json", make_result(total=1.0))
        slow = self._write(tmp_path / "slow.json", make_result(total=1.5))
        verdict = tmp_path / "verdict.json"
        assert cli_main(["regress", slow, "--against", base,
                         "--attribute", "--json-out", str(verdict)]) == 1
        assert "no profile pair" in capsys.readouterr().err
        cell = json.loads(verdict.read_text())["cells"][0]
        assert "attribution" not in cell

    def test_history_mode_attributes_from_store(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.history import profile_entries_from_result

        db = str(tmp_path / "history.sqlite")
        baseline = make_sampled_result(total=1.0)
        with open_history(db) as store:
            store.record(baseline, commit="good-commit")
            store.record_entries(
                profile_entries_from_result(baseline, commit="good-commit"))
        slow = self._write(tmp_path / "slow.json",
                           make_sampled_result(total=1.5, kernel_scale=1.5))
        verdict = tmp_path / "verdict.json"
        assert cli_main(["regress", slow, "--db", db,
                         "--commit", "bad-commit", "--attribute",
                         "--json-out", str(verdict)]) == 1
        cell = json.loads(verdict.read_text())["cells"][0]
        assert cell["attribution"]["kernels"][0]["kernel"] == "SSD"

    def test_history_mode_attribution_uses_candidate_backend(self, tmp_path,
                                                             capsys):
        """Profiles of the other backend never pair with the candidate."""
        from repro.cli import main as cli_main
        from repro.core.history import profile_entries_from_result

        db = str(tmp_path / "history.sqlite")
        baseline = make_sampled_result(total=1.0)
        ref_profile = with_backend(make_sampled_result(total=1.0), "ref",
                                   created="2026-08-07T00:00:00")
        with open_history(db) as store:
            store.record(baseline, commit="good-commit")
            store.record_entries(
                profile_entries_from_result(ref_profile,
                                            commit="good-commit"))
        slow = self._write(tmp_path / "slow.json",
                           make_sampled_result(total=1.5, kernel_scale=1.5))
        verdict = tmp_path / "verdict.json"
        assert cli_main(["regress", slow, "--db", db,
                         "--commit", "bad-commit", "--attribute",
                         "--json-out", str(verdict)]) == 1
        assert "no profile pair" in capsys.readouterr().err
        cell = json.loads(verdict.read_text())["cells"][0]
        assert "attribution" not in cell

    def test_attribute_on_clean_run_is_silent_noop(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        export = self._write(tmp_path / "r.json", make_sampled_result())
        assert cli_main(["regress", export, "--against", export,
                         "--attribute"]) == 0
        assert "no profile pair" not in capsys.readouterr().err
