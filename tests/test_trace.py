"""Tests for the dynamic dataflow tracer, cross-validating Table IV models.

The analytic cost models in each application's ``parallelism_models``
assert critical-path shapes; here the *actual* kernel computations run on
traced values and the measured work/span must agree with the analytic
combinators on matching instance shapes.
"""

import math

import numpy as np
import pytest

from repro.core.dataflow import Chain, Op, ParMap, Reduce, Seq
from repro.core.trace import (
    TracedValue,
    Tracer,
    traced_integral_reassociated,
    traced_integral_serial,
    traced_ssd,
    traced_winner_take_all,
    tree_reduce,
    tree_sum,
)


class TestTracedArithmetic:
    def test_values_compute_correctly(self):
        tracer = Tracer()
        a = tracer.constant(3.0)
        b = tracer.constant(4.0)
        c = (a + b) * 2.0 - 1.0
        assert float(c) == pytest.approx(13.0)

    def test_work_counts_operations(self):
        tracer = Tracer()
        a = tracer.constant(1.0)
        b = tracer.constant(2.0)
        _ = a + b  # 1 op
        _ = a * b  # 1 op
        assert tracer.work == 2

    def test_span_follows_dependences(self):
        tracer = Tracer()
        a = tracer.constant(1.0)
        chain = a
        for _ in range(5):
            chain = chain + 1.0  # serial chain of 5 ops
        assert tracer.span == 5

    def test_independent_ops_share_span(self):
        tracer = Tracer()
        values = tracer.constants([1.0, 2.0, 3.0, 4.0])
        for v in values:
            _ = v * 2.0
        assert tracer.work == 4
        assert tracer.span == 1
        assert tracer.parallelism == pytest.approx(4.0)

    def test_division_and_negation(self):
        tracer = Tracer()
        a = tracer.constant(8.0)
        assert float(a / 2.0) == 4.0
        assert float(2.0 / a) == 0.25
        assert float(-a) == -8.0
        assert float(1.0 - a) == -7.0

    def test_min_max(self):
        tracer = Tracer()
        a = tracer.constant(3.0)
        assert float(a.minimum(1.0)) == 1.0
        assert float(a.maximum(9.0)) == 9.0

    def test_cross_tracer_rejected(self):
        a = Tracer().constant(1.0)
        b = Tracer().constant(2.0)
        with pytest.raises(ValueError):
            _ = a + b


class TestTracerDeterminism:
    def test_node_ids_are_per_tracer(self):
        """Fresh tracers start numbering at 0, whatever traced earlier."""
        first = Tracer()
        first.constants([1.0, 2.0, 3.0])  # pollute the "process"
        fresh = Tracer()
        leaf = fresh.constant(5.0)
        assert leaf.node == 0
        assert (leaf + 1.0).node == 2  # leaf, coerced constant, then the add

    def test_identical_traces_produce_identical_graphs(self):
        """Repeated limit-study traces are comparable node-for-node."""
        def trace_once():
            tracer = Tracer()
            values = tracer.constants([1.0, 2.0, 3.0, 4.0])
            tree_sum(values)
            return tracer

        one, two = trace_once(), trace_once()
        assert one.work == two.work
        assert one.span == two.span
        assert len(one.graph) == len(two.graph)
        # Same ids in both graphs: 0..n-1, regardless of trace order.
        assert all(node in two.graph for node in range(len(one.graph)))


class TestTreeReduce:
    def test_sum_correct(self):
        tracer = Tracer()
        values = tracer.constants(list(range(1, 9)))
        total = tree_sum(values)
        assert float(total) == 36.0

    def test_log_depth(self):
        tracer = Tracer()
        values = tracer.constants([1.0] * 16)
        tree_sum(values)
        assert tracer.span == 4  # log2(16)
        assert tracer.work == 15

    def test_matches_reduce_model(self):
        for n in (2, 5, 8, 13, 32):
            tracer = Tracer()
            tree_sum(tracer.constants([1.0] * n))
            model = Reduce(n)
            assert tracer.work == model.work
            assert tracer.span <= model.span  # ceil-log bound

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_reduce([], lambda a, b: a)

    def test_single_value_zero_ops(self):
        tracer = Tracer()
        v = tracer.constant(5.0)
        assert tree_sum([v]) is v
        assert tracer.work == 0


class TestTracedKernelsMatchModels:
    """Empirical work/span of real kernel bodies vs. the analytic models
    published for Table IV, on identical small shapes."""

    def test_ssd_matches_parmap_model(self):
        rng = np.random.default_rng(0)
        left = rng.random((6, 8)).tolist()
        right = rng.random((6, 8)).tolist()
        tracer = Tracer()
        out = traced_ssd(tracer, left, right)
        # Model: every pixel independent, 2 dependent ops (sub, square).
        model = ParMap(48, Op(2))
        assert tracer.work == model.work
        assert tracer.span == model.span
        # And it computes the right thing.
        expected = (np.array(left) - np.array(right)) ** 2
        got = np.array([[float(v) for v in row] for row in out])
        assert np.allclose(got, expected)

    def test_serial_integral_matches_chain_model(self):
        rng = np.random.default_rng(1)
        image = rng.random((5, 7)).tolist()
        tracer = Tracer()
        cells = traced_integral_serial(tracer, image)
        rows, cols = 5, 7
        # Model: serial prefix per row (parallel across rows), then
        # serial prefix per column (parallel across columns).
        model = Seq(
            ParMap(rows, Chain(cols - 1, Op(1))),
            ParMap(cols, Chain(rows - 1, Op(1))),
        )
        assert tracer.work == model.work
        assert tracer.span == model.span
        expected = np.asarray(image).cumsum(axis=1).cumsum(axis=0)
        got = np.array([[float(v) for v in row] for row in cells])
        assert np.allclose(got, expected)

    def test_reassociation_shrinks_span(self):
        """The paper's key observation: the same integral-image values,
        computed on an ideal dataflow machine, have log-depth span."""
        rng = np.random.default_rng(2)
        image = rng.random((8, 8)).tolist()
        serial = Tracer()
        traced_integral_serial(serial, image)
        ideal = Tracer()
        out = traced_integral_reassociated(ideal, image)
        assert ideal.span < serial.span
        assert ideal.span <= 2 * math.ceil(math.log2(8)) + 1
        expected = np.asarray(image).cumsum(axis=1).cumsum(axis=0)
        got = np.array([[float(v) for v in row] for row in out])
        assert np.allclose(got, expected)

    def test_winner_take_all_matches_chain_model(self):
        rng = np.random.default_rng(4)
        costs = rng.random((6, 10)).tolist()
        tracer = Tracer()
        best = traced_winner_take_all(tracer, costs)
        model = ParMap(10, Chain(5, Op(1)))
        assert tracer.work == model.work
        assert tracer.span == model.span
        assert np.allclose(
            [float(v) for v in best], np.asarray(costs).min(axis=0)
        )

    def test_empirical_parallelism_ordering_matches_table4(self):
        """On equal-size instances, the traced kernels reproduce the
        disparity row ordering: SSD (parallel) >> winner-take-all with
        its shift-carried chain >> serial integral image."""
        rng = np.random.default_rng(5)
        image = rng.random((8, 8)).tolist()
        ssd_tracer = Tracer()
        traced_ssd(ssd_tracer, image, image)
        # Winner-take-all over few shifts and many pixels (the real
        # disparity shape: pixels >> shifts).
        wta_tracer = Tracer()
        traced_winner_take_all(wta_tracer, rng.random((4, 16)).tolist())
        integral_tracer = Tracer()
        traced_integral_serial(integral_tracer, image)
        assert ssd_tracer.parallelism > wta_tracer.parallelism
        assert wta_tracer.parallelism > integral_tracer.parallelism
