"""Tests for differential flamegraphs and regression attribution."""

import pytest

from repro.core.flamediff import (
    FLAMEDIFF_SCHEMA,
    attribute_delta,
    diff_profiles,
    render_diff,
    to_collapsed_delta,
)
from repro.core.sampling import SampledProfile


def make_profile(folded, kernel_seconds, interval=0.001):
    """A profile with explicit folded stacks and kernel attribution."""
    return SampledProfile(
        interval=interval,
        samples=sum(1 for _ in folded),
        folded=dict(folded),
        kernel_seconds=dict(kernel_seconds),
        observable=tuple(k for k in kernel_seconds if k != "NonKernelWork"),
    )


def slowdown_pair(factor=3.0):
    """Baseline + candidate where only the SSD stacks got slower."""
    baseline = make_profile(
        {("main", "dispatch", "ssd"): 0.004,
         ("main", "dispatch", "sort"): 0.003},
        {"SSD": 0.004, "Sort": 0.003},
    )
    candidate = make_profile(
        {("main", "dispatch", "ssd"): 0.004 * factor,
         ("main", "dispatch", "sort"): 0.003},
        {"SSD": 0.004 * factor, "Sort": 0.003},
    )
    return baseline, candidate


class TestDiffProfiles:
    def test_injected_slowdown_has_positive_sign(self):
        baseline, candidate = slowdown_pair()
        diff = diff_profiles(baseline, candidate)
        assert diff.stacks[("main", "dispatch", "ssd")] == \
            pytest.approx(0.008)
        assert diff.stacks[("main", "dispatch", "sort")] == \
            pytest.approx(0.0)
        assert diff.delta_seconds == pytest.approx(0.008)

    def test_improvement_has_negative_sign(self):
        baseline, candidate = slowdown_pair()
        diff = diff_profiles(candidate, baseline)  # swapped: got faster
        assert diff.stacks[("main", "dispatch", "ssd")] == \
            pytest.approx(-0.008)
        assert diff.delta_seconds == pytest.approx(-0.008)

    def test_stack_present_on_one_side_aligns_against_zero(self):
        baseline = make_profile({("a", "b"): 0.002}, {"A": 0.002})
        candidate = make_profile({("a", "c"): 0.005}, {"A": 0.005})
        diff = diff_profiles(baseline, candidate)
        assert diff.stacks[("a", "b")] == pytest.approx(-0.002)
        assert diff.stacks[("a", "c")] == pytest.approx(0.005)

    def test_top_kernels_ranks_slowdown_first(self):
        baseline, candidate = slowdown_pair()
        diff = diff_profiles(baseline, candidate)
        top = diff.top_kernels(5)
        assert top[0].kernel == "SSD"
        assert top[0].delta == pytest.approx(0.008)
        # Sort did not move; zero-delta kernels are not listed.
        assert all(k.kernel != "Sort" for k in top)

    def test_top_frames_ranks_by_self_not_inclusive(self):
        # "main" inherits the full inclusive delta but has no self
        # time; ranking by self time must name the leaf that actually
        # slowed down, not the root.
        baseline, candidate = slowdown_pair()
        diff = diff_profiles(baseline, candidate)
        top = diff.top_frames(3)
        assert top[0].frame == "ssd"
        assert top[0].self_delta == pytest.approx(0.008)
        main = next(f for f in diff.frames if f.frame == "main")
        assert main.self_delta == pytest.approx(0.0)
        assert main.inclusive_delta == pytest.approx(0.008)

    def test_recursive_frame_counted_once_per_stack(self):
        baseline = make_profile({("f", "f", "f"): 0.002}, {"F": 0.002})
        candidate = make_profile({("f", "f", "f"): 0.006}, {"F": 0.006})
        diff = diff_profiles(baseline, candidate)
        frame = next(f for f in diff.frames if f.frame == "f")
        # Inclusive charge is once per stack, not once per occurrence.
        assert frame.inclusive_before == pytest.approx(0.002)
        assert frame.inclusive_after == pytest.approx(0.006)
        assert frame.self_delta == pytest.approx(0.004)

    def test_to_dict_schema_and_labels(self):
        baseline, candidate = slowdown_pair()
        diff = diff_profiles(baseline, candidate,
                             baseline_label="aaa", candidate_label="bbb")
        payload = diff.to_dict()
        assert payload["schema"] == FLAMEDIFF_SCHEMA
        assert payload["baseline"] == "aaa"
        assert payload["candidate"] == "bbb"
        assert payload["kernels"][0]["kernel"] == "SSD"
        assert payload["delta_seconds"] == pytest.approx(0.008)


class TestCollapsedDelta:
    def test_signed_microseconds(self):
        baseline, candidate = slowdown_pair()
        lines = to_collapsed_delta(
            diff_profiles(baseline, candidate)).splitlines()
        assert "main;dispatch;ssd +8000" in lines
        # Zero-delta stacks are omitted entirely.
        assert not any("sort" in line for line in lines)

    def test_negative_delta_keeps_minus(self):
        baseline, candidate = slowdown_pair()
        text = to_collapsed_delta(diff_profiles(candidate, baseline))
        assert "main;dispatch;ssd -8000" in text

    def test_frames_are_escaped(self):
        baseline = make_profile({("a b", "c;d"): 0.001}, {"A": 0.001})
        candidate = make_profile({("a b", "c;d"): 0.003}, {"A": 0.003})
        text = to_collapsed_delta(diff_profiles(baseline, candidate))
        assert "a%20b;c%3Bd +2000" in text

    def test_identical_profiles_empty(self):
        baseline, _ = slowdown_pair()
        assert to_collapsed_delta(
            diff_profiles(baseline, baseline)) == ""


class TestAttribution:
    def test_injected_slowdown_names_the_kernel(self):
        baseline, candidate = slowdown_pair(factor=1.5)
        block = attribute_delta(diff_profiles(baseline, candidate))
        assert block["kernels"][0]["kernel"] == "SSD"
        assert block["kernels"][0]["share_of_delta"] == pytest.approx(1.0)
        assert block["slowdown_seconds"] == pytest.approx(0.002)
        assert block["frames"][0]["frame"] == "ssd"

    def test_offsetting_improvement_cannot_exceed_full_share(self):
        baseline = make_profile(
            {("m", "ssd"): 0.004, ("m", "sort"): 0.006},
            {"SSD": 0.004, "Sort": 0.006})
        candidate = make_profile(
            {("m", "ssd"): 0.012, ("m", "sort"): 0.002},
            {"SSD": 0.012, "Sort": 0.002})
        block = attribute_delta(diff_profiles(baseline, candidate))
        # Net delta is +0.004 but the slowdown is +0.008; shares are
        # normalized by the positive sum, so SSD owns exactly 100%.
        assert block["delta_seconds"] == pytest.approx(0.004)
        assert block["slowdown_seconds"] == pytest.approx(0.008)
        assert block["kernels"][0]["share_of_delta"] == pytest.approx(1.0)
        assert all(k["kernel"] != "Sort" for k in block["kernels"])

    def test_nothing_slower_yields_empty_kernels(self):
        baseline, candidate = slowdown_pair()
        block = attribute_delta(diff_profiles(candidate, baseline))
        assert block["kernels"] == []
        assert block["slowdown_seconds"] == pytest.approx(0.0)

    def test_two_guilty_kernels_split_the_share(self):
        baseline = make_profile(
            {("m", "a"): 0.002, ("m", "b"): 0.002},
            {"A": 0.002, "B": 0.002})
        candidate = make_profile(
            {("m", "a"): 0.008, ("m", "b"): 0.004},
            {"A": 0.008, "B": 0.004})
        block = attribute_delta(diff_profiles(baseline, candidate))
        assert [k["kernel"] for k in block["kernels"]] == ["A", "B"]
        assert block["kernels"][0]["share_of_delta"] == pytest.approx(0.75)
        assert block["kernels"][1]["share_of_delta"] == pytest.approx(0.25)


class TestRenderDiff:
    def test_text_table_carries_labels_and_deltas(self):
        baseline, candidate = slowdown_pair()
        diff = diff_profiles(baseline, candidate,
                             baseline_label="before",
                             candidate_label="after")
        text = render_diff(diff)
        assert "before -> after" in text
        assert "SSD" in text
        assert "+0.0080" in text


def regressed_report():
    """A one-cell report where demo@QCIF clearly regressed 50%."""
    from repro.core.regress import detect_regressions

    cells_base = {("demo", "QCIF"): (0.010, 0.0001)}
    cells_cand = {("demo", "QCIF"): (0.015, 0.0001)}
    return detect_regressions(cells_base, cells_cand)


class TestRegressAttribution:
    def test_attribute_regressions_joins_regressed_cells(self):
        from repro.core.regress import STATUS_REGRESSION, \
            attribute_regressions

        baseline, candidate = slowdown_pair(factor=1.5)
        report = regressed_report()
        assert report.entries[0].status == STATUS_REGRESSION

        def lookup(benchmark, size):
            assert benchmark == "demo" and size == "QCIF"
            return baseline, candidate

        assert attribute_regressions(report, lookup) == 1
        entry = report.entries[0]
        assert entry.attribution["kernels"][0]["kernel"] == "SSD"
        assert entry.to_dict()["attribution"] == entry.attribution

    def test_missing_profiles_leave_attribution_none(self):
        from repro.core.regress import attribute_regressions

        report = regressed_report()
        assert attribute_regressions(report, lambda b, s: None) == 0
        entry = report.entries[0]
        assert entry.attribution is None
        assert "attribution" not in entry.to_dict()
