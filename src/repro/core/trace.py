"""Dynamic dataflow tracing — an empirical Lam-Wilson limit study.

Table IV's analytic cost models (:mod:`repro.core.dataflow`) assert what
the critical path of each kernel's loop nest *should* be.  This module
checks those claims empirically, the way the paper's referenced tool
does: run the actual computation on traced values, record every scalar
operation and its data dependences into a :class:`TaskGraph`, and read
off work (operation count) and span (longest dependence chain).

``TracedValue`` wraps a float; arithmetic on traced values appends graph
nodes whose dependences are exactly the operands' producing nodes.
Reassociation of reductions — the reason integral images measure huge
parallelism despite serial-looking loops — is modeled by
:func:`tree_reduce`, mirroring what an ideal dataflow machine does.

Intended for *small* instances (every scalar op is a Python object); the
tests cross-validate traced work/span against the analytic combinators on
matching shapes.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Sequence, Union

from .dataflow import TaskGraph

Number = Union[int, float, "TracedValue"]


class Tracer:
    """Owns the dependence graph of one traced computation.

    Node ids are allocated per tracer (starting at 0), not from a
    process-global counter, so tracing the same computation always
    produces the same graph — repeated limit-study runs are deterministic
    and comparable regardless of what was traced earlier in the process.
    """

    def __init__(self) -> None:
        self.graph = TaskGraph()
        self._ids = itertools.count()

    def constant(self, value: float) -> "TracedValue":
        """A leaf value (an input load; zero-cost source node)."""
        node = next(self._ids)
        self.graph.add(node, 0, ())
        return TracedValue(self, float(value), node)

    def constants(self, values: Sequence[float]) -> List["TracedValue"]:
        return [self.constant(v) for v in values]

    def record(self, value: float, deps: Sequence["TracedValue"],
               cost: int = 1) -> "TracedValue":
        """Record one operation producing ``value`` from ``deps``."""
        node = next(self._ids)
        self.graph.add(node, cost, [d.node for d in deps])
        return TracedValue(self, float(value), node)

    @property
    def work(self) -> int:
        return self.graph.work

    @property
    def span(self) -> int:
        return self.graph.span

    @property
    def parallelism(self) -> float:
        return self.graph.parallelism


class TracedValue:
    """A float whose arithmetic is recorded into a tracer's graph."""

    __slots__ = ("tracer", "value", "node")

    def __init__(self, tracer: Tracer, value: float, node: int) -> None:
        self.tracer = tracer
        self.value = value
        self.node = node

    # -- helpers -------------------------------------------------------

    def _coerce(self, other: Number) -> "TracedValue":
        if isinstance(other, TracedValue):
            if other.tracer is not self.tracer:
                raise ValueError("cannot mix values from different tracers")
            return other
        return self.tracer.constant(float(other))

    def _binary(self, other: Number, op: Callable[[float, float], float]
                ) -> "TracedValue":
        rhs = self._coerce(other)
        return self.tracer.record(op(self.value, rhs.value), [self, rhs])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Number) -> "TracedValue":
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other: Number) -> "TracedValue":
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other: Number) -> "TracedValue":
        rhs = self._coerce(other)
        return rhs._binary(self, lambda a, b: a - b)

    def __mul__(self, other: Number) -> "TracedValue":
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "TracedValue":
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other: Number) -> "TracedValue":
        rhs = self._coerce(other)
        return rhs._binary(self, lambda a, b: a / b)

    def __neg__(self) -> "TracedValue":
        return self.tracer.record(-self.value, [self])

    def minimum(self, other: Number) -> "TracedValue":
        """Traced min (one compare-select operation)."""
        return self._binary(other, min)

    def maximum(self, other: Number) -> "TracedValue":
        return self._binary(other, max)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TracedValue({self.value!r}, node={self.node})"


def tree_reduce(values: Sequence[TracedValue],
                op: Callable[[TracedValue, TracedValue], TracedValue]
                ) -> TracedValue:
    """Balanced reduction — how an ideal dataflow machine reassociates.

    ``sum(values)`` builds a serial chain (span n); this builds the
    log-depth tree the limit study assumes is reachable.
    """
    if not values:
        raise ValueError("cannot reduce an empty sequence")
    layer = list(values)
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(op(layer[i], layer[i + 1]))
        if len(layer) % 2 == 1:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


def tree_sum(values: Sequence[TracedValue]) -> TracedValue:
    """Balanced (log-depth) traced sum of ``values``."""
    return tree_reduce(values, lambda a, b: a + b)


# ----------------------------------------------------------------------
# Traced miniature kernels (used by the Table IV validation tests)


def traced_ssd(tracer: Tracer, left: Sequence[Sequence[float]],
               right: Sequence[Sequence[float]]) -> List[List[TracedValue]]:
    """Per-pixel squared differences (the disparity SSD kernel body)."""
    out: List[List[TracedValue]] = []
    for lrow, rrow in zip(left, right):
        row = []
        for lval, rval in zip(lrow, rrow):
            a = tracer.constant(lval)
            b = tracer.constant(rval)
            diff = a - b
            row.append(diff * diff)
        out.append(row)
    return out


def traced_integral_serial(tracer: Tracer,
                           image: Sequence[Sequence[float]]
                           ) -> List[List[TracedValue]]:
    """Integral image with the C code's serial accumulation chains."""
    rows = len(image)
    cols = len(image[0]) if rows else 0
    cells = [[tracer.constant(v) for v in row] for row in image]
    # Serial row prefix sums.
    for r in range(rows):
        for c in range(1, cols):
            cells[r][c] = cells[r][c] + cells[r][c - 1]
    # Serial column prefix sums.
    for c in range(cols):
        for r in range(1, rows):
            cells[r][c] = cells[r][c] + cells[r - 1][c]
    return cells


def traced_integral_reassociated(tracer: Tracer,
                                 image: Sequence[Sequence[float]]
                                 ) -> List[List[TracedValue]]:
    """Integral image with tree-reassociated prefixes (ideal machine).

    Each output is the tree sum of its dominated rectangle — the dataflow
    limit the paper's tool measures.  O(n^2) redundant work per output is
    irrelevant to span, which is what parallelism estimates care about;
    work here models a scan-style 2x overhead instead by reusing row
    sums.
    """
    rows = len(image)
    cols = len(image[0]) if rows else 0
    cells = [[tracer.constant(v) for v in row] for row in image]
    row_prefix: List[List[TracedValue]] = []
    for r in range(rows):
        prefixes = []
        for c in range(cols):
            prefixes.append(tree_sum(cells[r][: c + 1]))
        row_prefix.append(prefixes)
    out: List[List[TracedValue]] = []
    for r in range(rows):
        out.append(
            [tree_sum([row_prefix[k][c] for k in range(r + 1)])
             for c in range(cols)]
        )
    return out


def traced_winner_take_all(tracer: Tracer,
                           costs: Sequence[Sequence[float]]
                           ) -> List[TracedValue]:
    """Per-pixel running min across shifts (disparity's Sort kernel).

    ``costs[d][p]`` is pixel ``p``'s cost at shift ``d``; the carried min
    across ``d`` is the loop-carried chain the model captures.
    """
    n_shifts = len(costs)
    n_pixels = len(costs[0]) if n_shifts else 0
    best = [tracer.constant(costs[0][p]) for p in range(n_pixels)]
    for d in range(1, n_shifts):
        for p in range(n_pixels):
            best[p] = best[p].minimum(tracer.constant(costs[d][p]))
    return best
