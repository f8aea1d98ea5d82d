"""Tests for sharded suite execution: plan / run / merge."""

import json
import os

import pytest

from repro.core.export import result_to_dict, result_to_json
from repro.core.history import open_history
from repro.core.shard import (
    CHECKPOINT_SCHEMA,
    SHARD_SPEC_SCHEMA,
    ShardSpec,
    default_checkpoint_path,
    load_checkpoints,
    merge_shards,
    plan_cells,
    plan_digest,
    plan_shards,
    run_shard,
)
from repro.core.types import BenchmarkRun, InputSize

SLUGS = ["disparity", "tracking", "sift"]


def small_plan(count=2, **kwargs):
    return plan_shards(count, SLUGS,
                       sizes=[InputSize.SQCIF, InputSize.QCIF],
                       variants=[0], backends=["fast"], **kwargs)


def fake_run(cell):
    return BenchmarkRun(
        benchmark=cell.benchmark,
        size=InputSize[cell.size],
        variant=cell.variant,
        total_seconds=0.5 + cell.plan_index,
        kernel_seconds={"K": 0.25},
        kernel_calls={"K": 2},
    )


def fake_runner(cell, spec):
    return fake_run(cell)


class KillAfter:
    """A cell runner that simulates a mid-shard kill after N cells."""

    def __init__(self, n):
        self.n = n
        self.executed = []

    def __call__(self, cell, spec):
        if len(self.executed) >= self.n:
            raise KeyboardInterrupt("killed mid-shard")
        self.executed.append(cell.cell_id)
        return fake_run(cell)


class Counting:
    def __init__(self):
        self.executed = []

    def __call__(self, cell, spec):
        self.executed.append(cell.cell_id)
        return fake_run(cell)


class TestPlan:
    def test_deterministic(self):
        first = [spec.to_dict() for spec in small_plan()]
        second = [spec.to_dict() for spec in small_plan()]
        assert first == second

    def test_cells_partition_the_grid(self):
        specs = small_plan(count=4)
        grid = [cell.cell_id for cell in plan_cells(
            SLUGS, sizes=[InputSize.SQCIF, InputSize.QCIF], variants=[0])]
        shard_ids = [cell.cell_id for spec in specs for cell in spec.cells]
        assert sorted(shard_ids) == sorted(grid)
        assert len(shard_ids) == len(set(shard_ids))

    def test_round_robin_split(self):
        specs = small_plan(count=2)
        assert [c.plan_index for c in specs[0].cells] == [0, 2, 4]
        assert [c.plan_index for c in specs[1].cells] == [1, 3, 5]

    def test_cell_id_shape(self):
        cell = plan_cells(["disparity"], sizes=[InputSize.CIF],
                          variants=[3], backends=["ref"])[0]
        assert cell.cell_id == "disparity:CIF:v3:ref"

    def test_digest_covers_grid_and_knobs(self):
        base = small_plan()[0].plan
        assert small_plan()[0].plan == base
        assert small_plan(repeats=5)[0].plan != base
        assert small_plan(warmup=1)[0].plan != base
        other_grid = plan_shards(2, ["disparity"], sizes=[InputSize.SQCIF])
        assert other_grid[0].plan != base

    def test_all_shards_share_plan_and_count(self):
        specs = small_plan(count=3)
        assert len({spec.plan for spec in specs}) == 1
        assert [spec.index for spec in specs] == [0, 1, 2]
        assert all(spec.count == 3 for spec in specs)

    def test_backend_dimension(self):
        cells = plan_cells(["disparity"], sizes=[InputSize.SQCIF],
                           backends=["ref", "fast"])
        assert [c.cell_id for c in cells] == [
            "disparity:SQCIF:v0:ref", "disparity:SQCIF:v0:fast"]

    def test_unknown_slug_raises(self):
        with pytest.raises(KeyError):
            plan_shards(2, ["ghost"])

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            plan_shards(2, ["disparity"], backends=["cuda"])

    def test_bad_count_raises(self):
        with pytest.raises(ValueError):
            plan_shards(0, ["disparity"])

    def test_spec_file_round_trip(self, tmp_path):
        spec = small_plan()[0]
        path = str(tmp_path / "shard-000.json")
        spec.write(path)
        restored = ShardSpec.read(path)
        assert restored == spec
        payload = json.loads((tmp_path / "shard-000.json").read_text())
        assert payload["schema"] == SHARD_SPEC_SCHEMA

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError):
            ShardSpec.read(str(path))

    def test_default_checkpoint_path(self):
        assert default_checkpoint_path("plan/shard-000.json") == \
            "plan/shard-000.ckpt.jsonl"


class TestRunShard:
    def _spec(self):
        return small_plan(count=1)[0]

    def test_full_run_checkpoints_every_cell(self, tmp_path):
        spec = self._spec()
        ckpt = str(tmp_path / "s.ckpt.jsonl")
        report = run_shard(spec, ckpt, runner=fake_runner)
        assert report.executed == spec.cell_ids()
        assert report.skipped == []
        lines = [json.loads(l) for l in open(ckpt) if l.strip()]
        assert [l["cell"] for l in lines] == spec.cell_ids()
        assert all(l["schema"] == CHECKPOINT_SCHEMA for l in lines)
        assert all(l["plan"] == spec.plan for l in lines)
        # Result covers every cell in spec order with the shard block.
        assert [r.benchmark for r in report.result.runs] == \
            [c.benchmark for c in spec.cells]
        assert report.result.shard["plan"] == spec.plan
        assert report.result.shard["index"] == 0

    def test_kill_mid_shard_then_resume_runs_only_missing(self, tmp_path):
        spec = self._spec()
        total = len(spec.cells)
        killed = KillAfter(2)
        ckpt = str(tmp_path / "s.ckpt.jsonl")
        with pytest.raises(KeyboardInterrupt):
            run_shard(spec, ckpt, runner=killed)
        assert len(load_checkpoints(ckpt, spec.plan)) == 2

        resumed = Counting()
        report = run_shard(spec, ckpt, resume=True, runner=resumed)
        # Exactly M-K cells execute, and they are the missing ones.
        assert resumed.executed == spec.cell_ids()[2:]
        assert len(report.executed) == total - 2
        assert report.skipped == spec.cell_ids()[:2]

        # The resumed result is cell-identical to an uninterrupted run.
        clean = run_shard(spec, str(tmp_path / "clean.ckpt.jsonl"),
                          runner=fake_runner)
        assert result_to_dict(report.result) == result_to_dict(clean.result)

    def test_existing_checkpoint_without_resume_refuses(self, tmp_path):
        spec = self._spec()
        ckpt = str(tmp_path / "s.ckpt.jsonl")
        run_shard(spec, ckpt, runner=fake_runner)
        with pytest.raises(FileExistsError):
            run_shard(spec, ckpt, runner=fake_runner)

    def test_truncated_checkpoint_line_reexecutes_cell(self, tmp_path):
        spec = self._spec()
        ckpt = str(tmp_path / "s.ckpt.jsonl")
        run_shard(spec, ckpt, runner=fake_runner)
        # Simulate a writer killed mid-append: chop the last line.
        text = open(ckpt).read()
        open(ckpt, "w").write(text[:-40])
        resumed = Counting()
        run_shard(spec, ckpt, resume=True, runner=resumed)
        assert resumed.executed == [spec.cell_ids()[-1]]

    def test_foreign_plan_checkpoints_ignored(self, tmp_path):
        spec = self._spec()
        ckpt = str(tmp_path / "s.ckpt.jsonl")
        other = ShardSpec(index=0, count=1, plan="feedfacedeadbeef",
                          warmup=0, repeats=1, cells=spec.cells)
        run_shard(other, ckpt, runner=fake_runner)
        with pytest.warns(RuntimeWarning, match="different plan"):
            completed = load_checkpoints(ckpt, spec.plan)
        assert completed == {}
        # ... so every cell of the real plan still executes on resume.
        resumed = Counting()
        with pytest.warns(RuntimeWarning, match="different plan"):
            run_shard(spec, ckpt, resume=True, runner=resumed)
        assert resumed.executed == spec.cell_ids()


def _shard_exports(tmp_path, count=2):
    """Run a small plan's shards with the fake runner; return payloads."""
    specs = small_plan(count=count)
    payloads = []
    for spec in specs:
        report = run_shard(
            spec, str(tmp_path / f"s{spec.index}.ckpt.jsonl"),
            runner=fake_runner)
        report.result.manifest = {
            "schema": "sdvbs-repro/manifest/v1",
            "created": "2026-08-07T00:00:00",
            "measurement": {"backend": "fast"},
            "argv": ["shard", "run", f"shard-{spec.index:03d}.json"],
        }
        payloads.append(json.loads(result_to_json(report.result)))
    return specs, payloads


class TestMerge:
    def test_merged_runs_in_plan_order(self, tmp_path):
        specs, payloads = _shard_exports(tmp_path)
        report = merge_shards(payloads)
        grid = [c.cell_id for c in plan_cells(
            SLUGS, sizes=[InputSize.SQCIF, InputSize.QCIF], variants=[0])]
        merged_ids = [c["id"] for c in report.result.shard["cells"]]
        assert merged_ids == grid
        assert report.complete
        assert report.merged_from == [0, 1]
        # plan_index encodes total_seconds in fake_run: order must be 0..5.
        assert [r.total_seconds for r in report.result.runs] == \
            [0.5 + i for i in range(6)]

    def test_merge_is_deterministic(self, tmp_path):
        _, payloads = _shard_exports(tmp_path)
        first = merge_shards(payloads).result
        second = merge_shards(payloads).result
        assert result_to_dict(first) == result_to_dict(second)

    def test_merged_manifest_argv_is_canonical(self, tmp_path):
        specs, payloads = _shard_exports(tmp_path)
        report = merge_shards(payloads)
        # Shard argvs differ per spec file; the merged manifest must not
        # depend on them or history ingest would never be idempotent.
        assert report.result.manifest["argv"] == \
            ["shard", "merge", specs[0].plan]

    def test_mismatched_plans_refuse(self, tmp_path):
        _, payloads = _shard_exports(tmp_path)
        payloads[1]["shard"]["plan"] = "feedfacedeadbeef"
        with pytest.raises(ValueError, match="different plans"):
            merge_shards(payloads)

    def test_unsharded_export_refused(self, tmp_path):
        _, payloads = _shard_exports(tmp_path)
        del payloads[0]["shard"]
        with pytest.raises(ValueError, match="shard block"):
            merge_shards(payloads)

    def test_nothing_to_merge_raises(self):
        with pytest.raises(ValueError):
            merge_shards([])

    def test_duplicate_cells_keep_first(self, tmp_path):
        _, payloads = _shard_exports(tmp_path)
        report = merge_shards([payloads[0], payloads[0], payloads[1]])
        assert len(report.result.runs) == 6
        assert sorted(set(report.duplicates)) == \
            sorted(c["id"] for c in payloads[0]["shard"]["cells"])

    def test_absent_shard_reported_incomplete(self, tmp_path):
        _, payloads = _shard_exports(tmp_path)
        report = merge_shards([payloads[0]])
        assert not report.complete
        assert report.merged_from == [0]
        assert report.expected_shards == 2

    def test_history_ingest_idempotent_across_remerges(self, tmp_path):
        _, payloads = _shard_exports(tmp_path)
        with open_history(str(tmp_path / "h.sqlite")) as store:
            first = store.record(merge_shards(payloads).result, commit="c1")
            assert len(first) == 6  # 3 benchmarks x 2 sizes
            again = store.record(merge_shards(payloads).result, commit="c1")
            assert again == []


class TestCliShard:
    """End-to-end `sdvbs shard` with real (tiny) benchmark executions."""

    def _plan(self, tmp_path):
        from repro.cli import main as cli_main

        plan_dir = str(tmp_path / "plan")
        assert cli_main(["shard", "plan", "disparity", "tracking",
                         "--sizes", "sqcif", "--shards", "2",
                         "--out-dir", plan_dir]) == 0
        return plan_dir

    def test_plan_run_merge_status_round_trip(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        plan_dir = self._plan(tmp_path)
        specs = sorted(os.listdir(plan_dir))
        assert specs == ["shard-000.json", "shard-001.json"]

        # An unfinished plan reports missing cells with exit 1.
        assert cli_main(["shard", "status", plan_dir]) == 1
        capsys.readouterr()

        for name in specs:
            assert cli_main(["shard", "run",
                             os.path.join(plan_dir, name)]) == 0
        assert cli_main(["shard", "status", plan_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("1/1 done") == 2

        merged = str(tmp_path / "merged.json")
        db = str(tmp_path / "history.sqlite")
        exports = [os.path.join(plan_dir, f"shard-{i:03d}.result.json")
                   for i in (0, 1)]
        assert cli_main(["shard", "merge", *exports, "--out", merged,
                         "--db", db, "--commit", "shardci"]) == 0
        out = capsys.readouterr().out
        assert "merged 2 cell(s)" in out
        assert "recorded 2 new cell(s)" in out

        payload = json.loads(open(merged).read())
        assert payload["schema"] == "sdvbs-repro/suite-result/v8"
        assert payload["shard"]["merged_from"] == [0, 1]
        benchmarks = {run["benchmark"] for run in payload["runs"]}
        assert benchmarks == {"disparity", "tracking"}

        # Re-merging the same shard exports adds zero history entries.
        assert cli_main(["shard", "merge", *exports, "--out", merged,
                         "--db", db, "--commit", "shardci"]) == 0
        assert "recorded 0 new cell(s)" in capsys.readouterr().out

    def test_run_resume_skips_completed_cells(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        plan_dir = self._plan(tmp_path)
        spec = os.path.join(plan_dir, "shard-000.json")
        assert cli_main(["shard", "run", spec]) == 0
        capsys.readouterr()
        # Without --resume a populated checkpoint refuses ...
        assert cli_main(["shard", "run", spec]) == 2
        assert "--resume" in capsys.readouterr().err
        # ... with it, nothing re-executes.
        assert cli_main(["shard", "run", spec, "--resume"]) == 0
        assert "executed 0 cell(s)" in capsys.readouterr().out

    def test_plan_rejects_unknown_slug(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["shard", "plan", "ghost",
                         "--out-dir", str(tmp_path / "p")]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_status_on_missing_dir(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["shard", "status",
                         str(tmp_path / "nothing")]) == 2

    def test_merge_rejects_unreadable_export(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["shard", "merge", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "m.json")]) == 2
