"""Golden-structure tests for the self-contained HTML report."""

import json
import re

import pytest

from repro.core.htmlreport import SECTION_IDS, render_html_report
from repro.core.types import NON_KERNEL_WORK, BenchmarkRun, InputSize, \
    SuiteResult


def synthetic_result():
    """A fully populated result with no live measurement involved."""
    run = BenchmarkRun(
        benchmark="disparity",
        size=InputSize.SQCIF,
        variant=0,
        total_seconds=0.010,
        kernel_seconds={"SSD": 0.004, "Sort & <Friends>": 0.003},
        kernel_calls={"SSD": 16, "Sort & <Friends>": 16},
        outputs={},
    )
    run.metrics = {
        "kernels": {
            "disparity.ssd": {
                "calls": 16,
                "flops": 2.0e6,
                "bytes": 3.0e6,
                "seconds": 0.004,
                "gflops_per_s": 0.5,
                "gbytes_per_s": 0.75,
                "arithmetic_intensity": 0.667,
            }
        }
    }
    run.sampling = {
        "interval_seconds": 0.001,
        "samples": 50,
        "shares": {"SSD": 42.0, "Sort & <Friends>": 31.0,
                   NON_KERNEL_WORK: 27.0},
        "kernel_seconds": {"SSD": 0.021, "Sort & <Friends>": 0.0155,
                           NON_KERNEL_WORK: 0.0135},
        "observable": ["SSD", "Sort & <Friends>"],
        "folded": {},
        "folded_dropped": 0,
        "non_kernel_top": [["numpy:<pad & trim>", 0.005]],
    }
    result = SuiteResult()
    result.runs.append(run)
    result.manifest = {
        "schema": "sdvbs-repro/manifest/v1",
        "python": "3.x",
        "measurement": {"repeats": 3, "backend": "fast"},
        "instrumentation": {"seconds_per_probe": 2e-06},
    }
    return result


class TestGoldenStructure:
    def test_required_sections_present(self):
        html = render_html_report(synthetic_result())
        for section_id in SECTION_IDS:
            assert f'id="{section_id}"' in html, section_id

    def test_zero_external_references(self):
        html = render_html_report(synthetic_result())
        assert "http://" not in html
        assert "https://" not in html
        assert "<script" not in html.lower()
        assert "<link" not in html.lower()
        assert "url(" not in html.lower()

    def test_dynamic_text_is_escaped(self):
        html = render_html_report(synthetic_result())
        assert "Sort & <Friends>" not in html
        assert "Sort &amp; &lt;Friends&gt;" in html
        assert "numpy:&lt;pad &amp; trim&gt;" in html

    def test_occupancy_stack_rendered(self):
        html = render_html_report(synthetic_result())
        assert html.count('class="seg"') >= 3  # SSD, Sort, residual
        assert 'class="legend"' in html
        assert "SQCIF variant 0" in html

    def test_roofline_point_and_axes(self):
        html = render_html_report(synthetic_result())
        assert "<svg" in html and "<circle" in html
        assert "arithmetic intensity (flop/byte)" in html
        assert "achieved GFLOP/s" in html

    def test_agreement_table_pass_verdicts(self):
        html = render_html_report(synthetic_result())
        assert "agree" in html
        assert "PASS" in html
        # NonKernelWork residual: 27 instrumented-side (here derived)
        assert NON_KERNEL_WORK in html

    def test_agreement_gate_failure_marked(self):
        result = synthetic_result()
        result.runs[0].sampling["shares"]["SSD"] = 90.0
        html = render_html_report(result)
        assert "DIVERGES" in html and "FAIL" in html

    def test_dark_mode_tokens_present(self):
        html = render_html_report(synthetic_result())
        assert "prefers-color-scheme: dark" in html
        assert '[data-theme="dark"]' in html
        assert "--surface" in html and "--muted" in html

    def test_empty_result_renders_placeholders(self):
        html = render_html_report(SuiteResult())
        for section_id in SECTION_IDS:
            assert f'id="{section_id}"' in html
        assert "No runs in this export" in html
        assert "No trace recorded" in html

    def test_flamediff_placeholder_without_diff(self):
        html = render_html_report(synthetic_result())
        assert 'id="flamediff"' in html
        assert "sdvbs history diff" in html

    def test_flamediff_section_populated(self):
        from repro.core.flamediff import diff_profiles
        from repro.core.sampling import SampledProfile

        base = SampledProfile(interval=0.001, samples=10,
                              folded={("main", "ssd"): 0.004},
                              kernel_seconds={"SSD": 0.004},
                              observable=("SSD",))
        cand = SampledProfile(interval=0.001, samples=10,
                              folded={("main", "ssd"): 0.012},
                              kernel_seconds={"SSD": 0.012},
                              observable=("SSD",))
        diff = diff_profiles(base, cand, baseline_label="aaa",
                             candidate_label="bbb")
        html = render_html_report(synthetic_result(), diff=diff)
        assert "aaa" in html and "bbb" in html
        assert "SSD" in html
        assert 'class="diffbar"' in html
        assert "delta-pos" in html
        assert "Red grew" in html

    def test_render_diff_html_standalone(self):
        from repro.core.flamediff import diff_profiles
        from repro.core.htmlreport import render_diff_html
        from repro.core.sampling import SampledProfile

        base = SampledProfile(interval=0.001, samples=10,
                              folded={("main", "ssd"): 0.004},
                              kernel_seconds={"SSD": 0.004},
                              observable=("SSD",))
        cand = SampledProfile(interval=0.001, samples=10,
                              folded={("main", "ssd"): 0.002},
                              kernel_seconds={"SSD": 0.002},
                              observable=("SSD",))
        diff = diff_profiles(base, cand)
        html = render_diff_html(diff, title="my <diff> & title")
        assert 'id="flamediff"' in html
        assert "my &lt;diff&gt; &amp; title" in html
        assert "delta-neg" in html
        assert "http://" not in html and "<script" not in html.lower()

    def test_truncation_note_rendered_when_stacks_dropped(self):
        result = synthetic_result()
        html = render_html_report(result)
        assert "distinct stack(s) were dropped" not in html
        result.runs[0].sampling["stacks_truncated"] = 12
        html = render_html_report(result)
        assert "12 distinct stack(s) were dropped" in html

    def test_trace_section_from_spans(self):
        from repro.core import TraceRecorder, run_benchmark
        from repro.core.registry import get_benchmark

        with TraceRecorder() as recorder:
            run_benchmark(get_benchmark("disparity"), InputSize.SQCIF,
                          recorder=recorder)
        html = render_html_report(synthetic_result(),
                                  spans=recorder.spans)
        assert "slowest kernel invocations" in html
        assert re.search(r"<td>SSD</td>", html)

    def test_title_is_escaped(self):
        html = render_html_report(SuiteResult(), title="a <b> & c")
        assert "<title>a &lt;b&gt; &amp; c</title>" in html


class TestCliReport:
    def test_report_from_export(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.export import result_to_json

        export = tmp_path / "run.json"
        export.write_text(result_to_json(synthetic_result()))
        out = tmp_path / "report.html"
        assert cli_main(["report", "--from", str(export),
                         "--out", str(out)]) == 0
        html = out.read_text()
        for section_id in SECTION_IDS:
            assert f'id="{section_id}"' in html
        assert "https://" not in html and "http://" not in html
        assert "No trace recorded" in html  # exports carry no spans
        assert "report.html" in capsys.readouterr().out

    def test_report_from_v8_export_with_gauges(self, tmp_path):
        """v8 exports written while ``MetricsRegistry.to_dict`` still
        emitted an empty ``gauges`` key load and render unchanged."""
        from repro.cli import main as cli_main
        from repro.core.export import result_from_dict, result_to_dict

        payload = result_to_dict(synthetic_result())
        assert payload["schema"] == "sdvbs-repro/suite-result/v8"
        payload["runs"][0]["metrics"]["gauges"] = {}
        restored = result_from_dict(payload)
        assert restored.runs[0].metrics["kernels"] == \
            synthetic_result().runs[0].metrics["kernels"]
        export = tmp_path / "old.json"
        export.write_text(json.dumps(payload))
        out = tmp_path / "report.html"
        assert cli_main(["report", "--from", str(export),
                         "--out", str(out)]) == 0
        html = out.read_text()
        assert 'id="roofline"' in html and "disparity.ssd" in html

    def test_report_from_missing_file(self, tmp_path):
        from repro.cli import main as cli_main

        assert cli_main(["report", "--from",
                         str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "r.html")]) == 2

    def test_report_live_single_cell(self, tmp_path):
        from repro.cli import main as cli_main

        out = tmp_path / "report.html"
        export = tmp_path / "run.json"
        assert cli_main(["report", "disparity", "--sizes", "sqcif",
                         "--repeats", "2", "--warmup", "0",
                         "--out", str(out),
                         "--json", str(export)]) == 0
        html = out.read_text()
        for section_id in SECTION_IDS:
            assert f'id="{section_id}"' in html
        assert "https://" not in html and "http://" not in html
        # Live mode has a trace, a sampler and a stamped manifest.
        assert "slowest kernel invocations" in html
        payload = json.loads(export.read_text())
        assert payload["schema"] == "sdvbs-repro/suite-result/v8"
        assert "instrumentation" in payload["manifest"]
        assert payload["runs"][0]["sampling"] is not None

    def test_report_live_grid_order_and_sampling(self, tmp_path):
        """Live mode measures through ``run_suite``: benchmark-major
        cells in argument order, variant 0, each one sampled."""
        from repro.cli import main as cli_main

        out = tmp_path / "report.html"
        export = tmp_path / "run.json"
        assert cli_main(["report", "svm", "disparity",
                         "--sizes", "qcif", "sqcif",
                         "--repeats", "2", "--warmup", "0",
                         "--out", str(out), "--json", str(export)]) == 0
        runs = json.loads(export.read_text())["runs"]
        assert [(r["benchmark"], r["size"], r["variant"]) for r in runs] == [
            ("svm", "QCIF", 0), ("svm", "SQCIF", 0),
            ("disparity", "QCIF", 0), ("disparity", "SQCIF", 0)]
        assert all(r["sampling"] and r["sampling"]["samples"] > 0
                   for r in runs)
        html = out.read_text()
        assert "No sampling profiles" not in html
        for run in runs:
            assert f"{run['benchmark']} @ {run['size']} &mdash;" in html

    def test_report_unknown_slug(self, tmp_path):
        from repro.cli import main as cli_main

        assert cli_main(["report", "nope", "--sizes", "sqcif",
                         "--out", str(tmp_path / "r.html")]) == 2


class TestHistoryFormatting:
    def test_epoch_floats_become_iso(self):
        from repro.core.history import format_created

        formatted = format_created("1754300000.5")
        assert re.match(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}", formatted)

    def test_iso_passthrough(self):
        from repro.core.history import format_created

        stamp = "2026-08-06T12:00:00+0000"
        assert format_created(stamp) == stamp

    def test_history_list_filters(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.core.export import result_to_json
        from repro.core.types import BenchmarkRun

        result = SuiteResult()
        result.runs.append(BenchmarkRun(
            benchmark="disparity", size=InputSize.SQCIF, variant=0,
            total_seconds=0.01, kernel_seconds={"SSD": 0.004},
            kernel_calls={"SSD": 16}, outputs={}))
        export = tmp_path / "run.json"
        export.write_text(result_to_json(result))
        db = tmp_path / "h.sqlite"
        assert cli_main(["history", "record", str(export),
                         "--db", str(db), "--commit", "abc123"]) == 0
        capsys.readouterr()
        assert cli_main(["history", "list", "--db", str(db),
                         "--benchmark", "disparity",
                         "--size", "sqcif"]) == 0
        out = capsys.readouterr().out
        assert "disparity" in out
        # The created column is ISO-8601, not an epoch float.
        assert re.search(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}", out)
        assert cli_main(["history", "list", "--db", str(db),
                         "--benchmark", "tracking"]) == 0
        assert "no entries match" in capsys.readouterr().out
