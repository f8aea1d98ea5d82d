"""Benchmark registry: the nine SD-VBS applications and their metadata.

Each application package exports a module-level ``BENCHMARK`` descriptor
created with :class:`Benchmark`.  The registry imports those packages
lazily (so ``import repro.core`` stays cheap) and exposes lookups used by
the suite runner and the table/figure reports.

Tables I and II of the paper are pure renderings of this metadata.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .profiler import KernelProfiler
from .types import (
    Characteristic,
    ConcentrationArea,
    InputSize,
    KernelInfo,
    ParallelismEstimate,
)

#: Untimed workload preparation: (size, variant) -> opaque workload.
SetupFn = Callable[[InputSize, int], object]

#: The timed application entry point: (workload, profiler) -> outputs.
RunFn = Callable[[object, KernelProfiler], Mapping[str, object]]

#: Provider of Table IV rows for one application at a given input size.
ParallelismFn = Callable[[InputSize], List[ParallelismEstimate]]


@dataclass(frozen=True)
class Benchmark:
    """Descriptor for one suite application.

    ``kernels`` lists the named kernels in the order the paper's Figure 3
    legend uses.  ``setup`` builds the synthetic workload (and any
    pre-trained models) *outside* the timed region — the paper times the
    vision computation on preloaded inputs; ``run`` executes it and
    attributes kernel time through the profiler.

    ``sampling_frames`` optionally maps instrumented kernel names to the
    functions whose frames the statistical sampler
    (:mod:`repro.core.sampling`) should attribute to that kernel —
    needed when a ``profiler.kernel(...)`` block's body is a factored
    helper rather than a registered dual-backend kernel (the registry's
    implementations are mapped automatically).
    """

    name: str
    slug: str
    area: ConcentrationArea
    description: str
    characteristic: Characteristic
    application_domain: str
    kernels: Sequence[KernelInfo]
    setup: SetupFn
    run: RunFn
    parallelism: Optional[ParallelismFn] = None
    in_figure2: bool = False
    sampling_frames: Optional[Mapping[str, Sequence[Callable]]] = None

    def kernel_names(self) -> List[str]:
        return [k.name for k in self.kernels]


#: Packages providing a BENCHMARK descriptor, in the paper's Table I order.
_BENCHMARK_MODULES = (
    "repro.disparity",
    "repro.tracking",
    "repro.segmentation",
    "repro.sift",
    "repro.localization",
    "repro.svm",
    "repro.face",
    "repro.stitch",
    "repro.texture",
)

_registry: Dict[str, Benchmark] = {}
_loaded = False


def _load() -> None:
    global _loaded
    if _loaded:
        return
    for module_name in _BENCHMARK_MODULES:
        module = importlib.import_module(module_name)
        benchmark = getattr(module, "BENCHMARK", None)
        if benchmark is None:
            raise ImportError(f"{module_name} does not export BENCHMARK")
        _registry[benchmark.slug] = benchmark
    _loaded = True


def all_benchmarks() -> List[Benchmark]:
    """All nine applications in Table I order."""
    _load()
    return list(_registry.values())


def get_benchmark(slug: str) -> Benchmark:
    """Look up one application by slug (e.g. ``"disparity"``)."""
    _load()
    try:
        return _registry[slug]
    except KeyError:
        known = ", ".join(sorted(_registry))
        raise KeyError(f"unknown benchmark {slug!r}; known: {known}") from None


def table4_benchmarks() -> List[Benchmark]:
    """Applications with a critical-path parallelism model (Table IV)."""
    return [b for b in all_benchmarks() if b.parallelism is not None]
