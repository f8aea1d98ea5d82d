"""Unit tests for the kernel profiler."""

import pytest

from repro.core.profiler import KernelProfiler, NullProfiler, ensure_profiler


class FakeClock:
    """Deterministic clock: each call advances by a scripted step."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_total_time_accumulates():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    profiler.start()
    clock.advance(2.0)
    assert profiler.stop() == pytest.approx(2.0)


def test_run_context_manager():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.run():
        clock.advance(1.5)
    assert profiler.total_seconds == pytest.approx(1.5)


def test_double_start_raises():
    profiler = KernelProfiler()
    profiler.start()
    with pytest.raises(RuntimeError):
        profiler.start()


def test_stop_without_start_raises():
    with pytest.raises(RuntimeError):
        KernelProfiler().stop()


def test_kernel_attribution():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.kernel("A"):
        clock.advance(3.0)
    assert profiler.kernel_seconds["A"] == pytest.approx(3.0)
    assert profiler.kernel_calls["A"] == 1


def test_nested_kernels_are_exclusive():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.kernel("outer"):
        clock.advance(1.0)
        with profiler.kernel("inner"):
            clock.advance(2.0)
        clock.advance(0.5)
    assert profiler.kernel_seconds["inner"] == pytest.approx(2.0)
    assert profiler.kernel_seconds["outer"] == pytest.approx(1.5)


def test_same_kernel_reentrant_merges():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.kernel("A"):
        clock.advance(1.0)
    with profiler.kernel("A"):
        clock.advance(2.0)
    assert profiler.kernel_seconds["A"] == pytest.approx(3.0)
    assert profiler.kernel_calls["A"] == 2


def test_nested_same_name_does_not_double_count():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.kernel("A"):
        clock.advance(1.0)
        with profiler.kernel("A"):
            clock.advance(2.0)
    # Total charged to A should equal wall time, not more.
    assert profiler.kernel_seconds["A"] == pytest.approx(3.0)


def test_attributed_never_exceeds_wall():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.run():
        with profiler.kernel("A"):
            clock.advance(1.0)
            with profiler.kernel("B"):
                clock.advance(1.0)
        clock.advance(0.5)
    attributed = sum(profiler.kernel_seconds.values())
    assert attributed <= profiler.total_seconds + 1e-12


def test_reset_clears_everything():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.run():
        with profiler.kernel("A"):
            clock.advance(1.0)
    profiler.reset()
    assert profiler.kernel_seconds == {}
    assert profiler.total_seconds == 0.0


def test_null_profiler_records_nothing():
    profiler = NullProfiler()
    with profiler.kernel("A"):
        pass
    profiler.start()
    assert profiler.stop() == 0.0
    assert profiler.kernel_seconds == {}


def test_ensure_profiler():
    assert isinstance(ensure_profiler(None), NullProfiler)
    real = KernelProfiler()
    assert ensure_profiler(real) is real


def test_three_level_nesting_subtracts_children_at_each_level():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.kernel("a"):
        clock.advance(1.0)
        with profiler.kernel("b"):
            clock.advance(2.0)
            with profiler.kernel("c"):
                clock.advance(4.0)
            clock.advance(0.25)
        clock.advance(0.5)
    assert profiler.kernel_seconds["c"] == pytest.approx(4.0)
    assert profiler.kernel_seconds["b"] == pytest.approx(2.25)
    assert profiler.kernel_seconds["a"] == pytest.approx(1.5)
    assert sum(profiler.kernel_seconds.values()) == pytest.approx(7.75)


def test_same_kernel_at_three_depths_sums_to_wall_time():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with profiler.kernel("A"):
        clock.advance(1.0)
        with profiler.kernel("A"):
            clock.advance(2.0)
            with profiler.kernel("A"):
                clock.advance(4.0)
    assert profiler.kernel_seconds["A"] == pytest.approx(7.0)
    assert profiler.kernel_calls["A"] == 3


def test_reset_clears_recorder_linkage_state():
    from repro.core.tracing import TraceRecorder

    clock = FakeClock()
    recorder = TraceRecorder()
    profiler = KernelProfiler(clock=clock, recorder=recorder)
    profiler.start()
    clock.advance(1.0)
    profiler.reset()
    # The interrupted app span was closed (flagged abandoned) so the
    # recorder's nesting stack stays clean for the next run.
    abandoned = [s for s in recorder.spans if s.attrs.get("abandoned")]
    assert len(abandoned) == 1
    with profiler.run():
        with profiler.kernel("A"):
            clock.advance(1.0)
    fresh = [s for s in recorder.spans if not s.attrs.get("abandoned")]
    assert sorted(s.name for s in fresh) == ["A", "app"]
    kernel = next(s for s in fresh if s.name == "A")
    app = next(s for s in fresh if s.name == "app")
    assert kernel.depth == 1 and kernel.parent == app.seq


def test_exception_inside_kernel_still_attributes():
    clock = FakeClock()
    profiler = KernelProfiler(clock=clock)
    with pytest.raises(ValueError):
        with profiler.kernel("A"):
            clock.advance(1.0)
            raise ValueError("boom")
    assert profiler.kernel_seconds["A"] == pytest.approx(1.0)
