"""Dual-backend kernel execution: loop-faithful ``ref`` vs vectorized ``fast``.

The paper's claim is structural: SD-VBS kernels are "clean" loop nests
whose regularity exposes enormous parallelism (Table IV).  Validating an
optimized implementation against the literal loop nest is the standard
methodology for vision-kernel speedup studies (Schwambach et al.; Bethel
et al.'s traditional-vs-data-parallel primitive pairs), and this module
is that methodology as infrastructure:

* every hot kernel registers two implementations under one name —

  - ``ref`` — the *loop-faithful reference*: scalar Python loop nests
    mirroring the original C suite's loop structure statement for
    statement.  Slow, obviously-correct, and the ground truth the
    equivalence harness checks against.
  - ``fast`` — the numpy-vectorized production path (the implementation
    the suite actually measures by default).

* the active backend is selected suite-wide — ``run_benchmark(...,
  backend=...)``, ``run_suite(..., backend=...)``, or the CLI's
  ``--backend {ref,fast}`` — and recorded in the run manifest;
* :mod:`repro.core.equivalence` replays every registered kernel on the
  deterministic input generators under both backends and asserts
  tolerance-bounded agreement (``sdvbs verify-backends``).

Registration happens at import of the defining module; call
:func:`load_all_kernels` before enumerating the registry so every
kernel-bearing module has been imported.

See ``KERNELS.md`` for the catalog of registered kernels and the
numerical-divergence policy each tolerance implements.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import metrics as _metrics

#: The two execution backends, in documentation order.
BACKENDS = ("ref", "fast")

#: Backend used when none is selected: the vectorized production path.
DEFAULT_BACKEND = "fast"

_registry: Dict[str, "KernelSpec"] = {}
_active: str = DEFAULT_BACKEND


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown backend {backend!r}; choose from {known}")
    return backend


@dataclass
class KernelSpec:
    """One dual-backend kernel: its implementations plus catalog metadata.

    ``rtol``/``atol`` are the *documented* agreement tolerances between
    the two backends (see KERNELS.md "when may fast diverge"): zero-cost
    dispatch differences need exact agreement, reassociated reductions
    (different summation order) are allowed round-off-sized drift.

    ``work`` is the kernel's analytic *work model* (see
    :mod:`repro.core.metrics`): a callable with the kernel's signature
    returning a :class:`~repro.core.metrics.WorkEstimate` (flop and byte
    counts) from the argument shapes alone.  When a metrics registry is
    active, the dispatcher evaluates it per call.
    """

    name: str                      # registry key, e.g. "disparity.ssd"
    paper_kernel: str              # Table II typography, e.g. "SSD"
    apps: Tuple[str, ...]          # benchmark slugs that execute it
    ref: Callable
    fast: Callable
    rtol: float = 1e-9
    atol: float = 1e-12
    doc: str = ""
    module: str = field(default="")
    work: Optional[Callable] = None

    def implementation(self, backend: str) -> Callable:
        """The callable for ``backend``."""
        return self.fast if _check_backend(backend) == "fast" else self.ref


def _first_doc_line(fn: Callable) -> str:
    lines = (fn.__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


def _make_dispatch(spec: "KernelSpec", wrapped: Callable) -> Callable:
    """The public wrapper for one kernel: backend dispatch + work accounting.

    Without an active metrics registry (or without a work model) the
    call costs one module-global read on top of the implementation —
    the measured hot path is unchanged.  With one, the call is timed
    and the work model's flop/byte estimate is recorded under the
    kernel's registry name; an active span annotator (the trace
    recorder) additionally receives the estimate for the innermost
    open span.
    """

    @functools.wraps(wrapped)
    def dispatch(*args, **kwargs):
        impl = spec.implementation(_active)
        registry = _metrics.active_metrics()
        if registry is None or spec.work is None:
            return impl(*args, **kwargs)
        start = time.perf_counter()
        out = impl(*args, **kwargs)
        seconds = time.perf_counter() - start
        estimate = spec.work(*args, **kwargs)
        registry.record_work(spec.name, estimate, seconds)
        annotator = _metrics.active_annotator()
        if annotator is not None:
            annotator.annotate_current(flops=estimate.flops,
                                       traffic_bytes=estimate.traffic_bytes)
        return out

    dispatch.kernel_spec = spec  # type: ignore[attr-defined]
    return dispatch


def register_kernel(
    name: str,
    *,
    paper_kernel: str,
    apps: Sequence[str],
    ref: Callable,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    doc: str = "",
    work: Optional[Callable] = None,
) -> Callable[[Callable], Callable]:
    """Decorator: register the decorated function as the ``fast`` path.

    The decorated (vectorized) function becomes the kernel's ``fast``
    implementation and ``ref`` its loop-faithful reference; the returned
    wrapper dispatches on the suite-wide active backend, so callers keep
    calling the public name unchanged::

        def _ssd_ref(left, right, d): ...        # literal loop nest

        @register_kernel("disparity.ssd", paper_kernel="SSD",
                         apps=("disparity",), ref=_ssd_ref)
        def ssd_map(left, right, d): ...         # vectorized

    Registering the same name twice is an error (kernels are
    module-level singletons).
    """

    def decorate(fast_fn: Callable) -> Callable:
        spec = KernelSpec(
            name=name,
            paper_kernel=paper_kernel,
            apps=tuple(apps),
            ref=ref,
            fast=fast_fn,
            rtol=rtol,
            atol=atol,
            doc=doc or _first_doc_line(fast_fn),
            module=fast_fn.__module__,
            work=work,
        )
        _register(spec)
        return _make_dispatch(spec, fast_fn)

    return decorate


def _register(spec: KernelSpec) -> None:
    if spec.name in _registry:
        raise ValueError(f"kernel {spec.name!r} already registered")
    _registry[spec.name] = spec


def active_backend() -> str:
    """The currently selected backend (``"fast"`` unless overridden)."""
    return _active


def set_backend(backend: str) -> None:
    """Select the suite-wide backend (validates the name)."""
    global _active
    _active = _check_backend(backend)


@contextmanager
def use_backend(backend: Optional[str]) -> Iterator[str]:
    """Scoped backend selection; restores the previous choice on exit.

    ``None`` is a no-op scope (keeps the current backend), so callers
    can thread an optional ``backend=`` argument straight through.
    """
    previous = _active
    if backend is not None:
        set_backend(backend)
    try:
        yield _active
    finally:
        set_backend(previous)


def get_kernel(name: str) -> KernelSpec:
    """Look up one registered kernel by name."""
    load_all_kernels()
    try:
        return _registry[name]
    except KeyError:
        known = ", ".join(sorted(_registry))
        raise KeyError(f"unknown kernel {name!r}; known: {known}") from None


def registered_kernels() -> List[KernelSpec]:
    """All registered kernels, sorted by name (stable for reports)."""
    load_all_kernels()
    return [_registry[name] for name in sorted(_registry)]


#: Modules whose import registers dual-backend kernels.  Kept explicit —
#: like the benchmark registry — so enumeration does not depend on what
#: happens to have been imported already.
_KERNEL_MODULES = (
    "repro.imgproc.convolution",
    "repro.imgproc.gradient",
    "repro.imgproc.integral",
    "repro.imgproc.interpolate",
    "repro.imgproc.warp",
    "repro.disparity.algorithm",
    "repro.tracking.features",
    "repro.sift.descriptors",
    "repro.stitch.matching",
    "repro.svm.kernels",
)


def load_all_kernels() -> None:
    """Import every kernel-bearing module so the registry is complete."""
    import importlib

    for module_name in _KERNEL_MODULES:
        importlib.import_module(module_name)
