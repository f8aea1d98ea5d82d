"""Tests for JSON export/import of suite results."""

import json

import pytest

from repro.core import InputSize, run_suite
from repro.core.export import (
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.core.types import BenchmarkRun, SuiteResult


def small_result():
    result = SuiteResult()
    result.runs.append(
        BenchmarkRun(
            benchmark="demo",
            size=InputSize.QCIF,
            variant=2,
            total_seconds=1.5,
            kernel_seconds={"A": 1.0, "B": 0.25},
            kernel_calls={"A": 4, "B": 1},
            outputs={"metric": 0.5},
        )
    )
    return result


class TestRoundTrip:
    def test_json_is_valid(self):
        text = result_to_json(small_result())
        payload = json.loads(text)
        assert payload["schema"] == "sdvbs-repro/suite-result/v8"
        assert len(payload["runs"]) == 1

    def test_v3_payload_still_readable(self):
        payload = result_to_dict(small_result())
        payload["schema"] = "sdvbs-repro/suite-result/v3"
        for entry in payload["runs"]:
            entry.pop("metrics", None)
        restored = result_from_dict(payload)
        assert restored.runs[0].total_seconds == 1.5
        assert restored.runs[0].metrics is None

    def test_metrics_roundtrip(self):
        result = small_result()
        result.runs[0].metrics = {
            "counters": {"kernel/SSD/calls": 16.0},
            "gauges": {},
            "histograms": {},
            "kernels": {
                "disparity.ssd": {
                    "calls": 16, "flops": 393216.0, "bytes": 4718592.0,
                    "seconds": 0.004, "gflops_per_s": 0.0983,
                    "gbytes_per_s": 1.1796, "arithmetic_intensity": 0.0833,
                },
            },
        }
        restored = result_from_json(result_to_json(result))
        assert restored.runs[0].metrics == result.runs[0].metrics

    def test_real_run_carries_metrics(self):
        result = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           variants=[0])
        metrics = result.runs[0].metrics
        assert metrics is not None
        work = metrics["kernels"]["disparity.ssd"]
        assert work["flops"] > 0
        assert work["bytes"] > 0
        assert work["arithmetic_intensity"] > 0
        restored = result_from_json(result_to_json(result))
        assert restored.runs[0].metrics == metrics

    def test_export_always_carries_manifest(self):
        payload = result_to_dict(small_result())
        manifest = payload["manifest"]
        assert manifest["schema"] == "sdvbs-repro/manifest/v1"
        for key in ("host", "python", "numpy", "measurement"):
            assert key in manifest, key
        assert "Operating System" in manifest["host"]

    def test_v1_payload_still_readable(self):
        payload = result_to_dict(small_result())
        payload["schema"] = "sdvbs-repro/suite-result/v1"
        del payload["manifest"]
        restored = result_from_dict(payload)
        assert restored.runs[0].total_seconds == 1.5
        assert restored.manifest is None

    def test_v2_payload_still_readable(self):
        payload = result_to_dict(small_result())
        payload["schema"] = "sdvbs-repro/suite-result/v2"
        del payload["manifest"]
        restored = result_from_dict(payload)
        assert restored.runs[0].total_seconds == 1.5
        assert restored.manifest is None

    def test_v5_payload_still_readable(self):
        payload = result_to_dict(small_result())
        payload["schema"] = "sdvbs-repro/suite-result/v5"
        payload.pop("shard", None)
        restored = result_from_dict(payload)
        assert restored.runs[0].total_seconds == 1.5
        assert restored.shard is None

    def test_v6_payload_still_readable(self):
        restored = result_from_dict(
            {"schema": "sdvbs-repro/suite-result/v6", "runs": []})
        assert restored.runs == []
        assert restored.job is None

    def test_shard_block_roundtrip(self):
        result = small_result()
        result.shard = {"plan": "abcd1234abcd1234", "shards": 2,
                        "merged_from": [0, 1]}
        restored = result_from_json(result_to_json(result))
        assert restored.shard == result.shard

    def test_job_block_roundtrip(self):
        result = small_result()
        result.job = {"schema": "sdvbs-repro/serve-job/v1",
                      "id": "job-000001", "type": "run",
                      "digest": "ab" * 8, "client": "ci",
                      "priority": "normal"}
        restored = result_from_json(result_to_json(result))
        assert restored.job == result.job

    def test_v7_payload_still_readable(self):
        payload = result_to_dict(small_result())
        payload["schema"] = "sdvbs-repro/suite-result/v7"
        payload.pop("job", None)
        restored = result_from_dict(payload)
        assert restored.runs[0].total_seconds == 1.5
        assert restored.job is None

        # A v7 export from the removed paced-stream mode: its
        # ``streaming`` block is dropped on read, and gating it against
        # itself yields only the run-median cells, no latency cells.
        from repro.core import commands
        from repro.core.regress import cells_from_result

        payload["streaming"] = {
            "schema": "sdvbs-repro/streaming/v1",
            "config": {"benchmark": "demo", "size": "QCIF", "fps": 10.0},
            "merged": {"frames": 20, "latency_ms": {
                "p50": 10.0, "p95": 12.0, "p99": 15.0,
                "count": 20, "stddev": 1.0}},
            "streams": [],
        }
        restored = result_from_dict(payload)
        assert [run.total_seconds for run in restored.runs] == [1.5]
        assert "streaming" not in result_to_dict(restored)
        verdict = commands.regress(
            {"sigmas": 2.0, "min_slowdown": 0.10}, restored, restored,
            baseline_label="v7", candidate_label="v7").result
        cells = cells_from_result(restored)
        assert list(cells) == [("demo", "QCIF")]
        assert {(e.benchmark, e.size): (e.baseline_seconds,
                                        e.candidate_seconds)
                for e in verdict.entries} == {
            key: (cell[0], cell[0]) for key, cell in cells.items()}

    def test_manifest_roundtrip(self):
        result = small_result()
        result.manifest = {"schema": "sdvbs-repro/manifest/v1",
                           "argv": ["run", "demo"], "custom": 7}
        restored = result_from_json(result_to_json(result))
        assert restored.manifest == result.manifest

    def test_stats_roundtrip(self):
        from repro.core.types import AggregatedRun, RunStats

        result = small_result()
        run = result.runs[0]
        run.stats = AggregatedRun(
            benchmark=run.benchmark,
            size=run.size,
            variant=run.variant,
            warmup=1,
            total=RunStats.of([1.4, 1.5, 1.6]),
            kernels={"A": RunStats.of([0.9, 1.0, 1.1])},
            kernel_calls=dict(run.kernel_calls),
        )
        payload = result_to_dict(result)
        stats = payload["runs"][0]["stats"]
        assert stats["repeats"] == 3
        for key in ("min", "median", "mean", "stddev", "samples"):
            assert key in stats["total"]
            assert key in stats["kernels"]["A"]
        restored = result_from_json(result_to_json(result))
        assert restored.runs[0].stats.total == run.stats.total
        assert restored.runs[0].stats.kernels == run.stats.kernels
        assert restored.runs[0].stats.warmup == 1

    def test_roundtrip_preserves_timings(self):
        original = small_result()
        restored = result_from_json(result_to_json(original))
        assert len(restored.runs) == 1
        run = restored.runs[0]
        assert run.benchmark == "demo"
        assert run.size == InputSize.QCIF
        assert run.variant == 2
        assert run.total_seconds == 1.5
        assert run.kernel_seconds == {"A": 1.0, "B": 0.25}
        assert run.kernel_calls == {"A": 4, "B": 1}

    def test_occupancy_reconstructable(self):
        restored = result_from_json(result_to_json(small_result()))
        shares = restored.runs[0].occupancy()
        assert shares["A"] == pytest.approx(100.0 * 1.0 / 1.5)

    def test_outputs_stringified(self):
        payload = result_to_dict(small_result())
        assert payload["runs"][0]["outputs"]["metric"] == "0.5"

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            result_from_dict({"schema": "other", "runs": []})

    def test_real_run_roundtrip(self):
        result = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           variants=[0])
        restored = result_from_json(result_to_json(result))
        assert restored.runs[0].benchmark == "disparity"
        assert restored.median_total("disparity", InputSize.SQCIF) == \
            pytest.approx(result.median_total("disparity", InputSize.SQCIF))


class TestCliJson:
    def test_run_json_flag(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(
            ["run", "disparity", "--sizes", "sqcif", "--json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["runs"][0]["benchmark"] == "disparity"

    def test_run_json_with_repeats_and_jobs(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(
            ["run", "disparity", "--sizes", "sqcif", "--repeats", "2",
             "--warmup", "1", "--jobs", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["runs"][0]["stats"]
        assert stats["warmup"] == 1
        assert stats["repeats"] == 2
        for kernel_stats in stats["kernels"].values():
            for key in ("min", "median", "mean", "stddev", "samples"):
                assert key in kernel_stats


class TestCliRegressExports:
    """``regress --against`` as the comparison of two export files."""

    def test_self_regress_prints_geomean(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        result = run_suite(["disparity"], sizes=[InputSize.SQCIF],
                           variants=[0])
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(result_to_json(result))
        cand.write_text(result_to_json(result))
        assert cli_main(["regress", str(cand), "--against", str(base)]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if line.startswith("disparity"))
        assert "| 1.00x " in row
        assert "geometric mean speedup: 1.00x" in out

    @pytest.mark.parametrize("bad", ["missing", "malformed"])
    def test_bad_input_exits_2(self, tmp_path, capsys, bad):
        from repro.cli import main as cli_main

        good = tmp_path / "good.json"
        good.write_text(result_to_json(small_result()))
        path = tmp_path / "bad.json"
        if bad == "malformed":
            path.write_text('{"x": 1}')
        for argv in ([str(path), "--against", str(good)],
                     [str(good), "--against", str(path)]):
            assert cli_main(["regress", *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"sdvbs regress: cannot read {path}")
            assert len(err.strip().splitlines()) == 1


def _malformed_payload(kind):
    payload = result_to_dict(small_result())
    if kind == "no-runs":
        del payload["runs"]
    elif kind == "list":
        payload = [payload]
    elif kind == "run-without-size":
        del payload["runs"][0]["size"]
    elif kind.endswith("-list"):
        payload[kind[:-len("-list")]] = [1]
    elif kind == "shard-without-plan":
        payload["shard"] = {"index": 0, "count": 1, "cells": []}
    else:  # shard-index-string
        payload["shard"] = {"plan": "p", "index": "0", "count": 1,
                            "cells": []}
    return payload


class TestMalformedExports:
    @pytest.mark.parametrize("kind", [
        "no-runs", "list", "run-without-size", "manifest-list", "shard-list",
        "job-list", "shard-without-plan", "shard-index-string"])
    def test_commands_exit_2_with_one_line_error(self, tmp_path, capsys,
                                                 kind):
        from repro.cli import main as cli_main

        good = tmp_path / "good.json"
        good.write_text(result_to_json(small_result()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_malformed_payload(kind)))
        db = str(tmp_path / "history.sqlite")
        for label, argv in (
                ("report", ["report", "--from", str(bad),
                            "--out", str(tmp_path / "r.html")]),
                ("regress", ["regress", str(bad), "--against", str(good)]),
                ("regress", ["regress", str(good), "--against", str(bad)]),
                ("history record", ["history", "record", str(bad),
                                    "--db", db]),
                ("shard merge", ["shard", "merge", str(bad),
                                 "--out", str(tmp_path / "m.json")])):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"sdvbs {label}: cannot read ")
            assert len(err.strip().splitlines()) == 1
            assert "Traceback" not in err
