"""Reference-equivalence checking for dual-backend kernels.

For every kernel registered in :mod:`repro.core.backend`, this module
builds deterministic workloads from the suite's seeded input generators
(:mod:`repro.core.inputs`), executes the ``ref`` (loop-faithful) and
``fast`` (vectorized) implementations on identical arguments, and
asserts tolerance-bounded agreement — the validation step that licenses
reporting ``fast``-backend timings as *this benchmark's* numbers
(Schwambach et al.'s reference-vs-optimized methodology).

Implementations are invoked directly off the :class:`KernelSpec` (not
through the dispatcher), so a check can never be confused by nested
dispatch: case construction happens once, outside any backend scope,
and each backend sees bit-identical inputs.

``sdvbs verify-backends`` is the CLI face; the parametrized agreement
tests in ``tests/test_backend_equivalence.py`` pin the same harness into
tier-1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .backend import KernelSpec, registered_kernels
from .types import InputSize

#: A prepared invocation: display label plus positional arguments.
Case = Tuple[str, tuple]

#: Sizes checked by default — the full SQCIF/QCIF/CIF ladder.
DEFAULT_SIZES = (InputSize.SQCIF, InputSize.QCIF, InputSize.CIF)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of one (kernel, case) ref-vs-fast comparison."""

    kernel: str
    case: str
    ok: bool
    max_abs_err: float
    max_rel_err: float
    rtol: float
    atol: float
    ref_seconds: float
    fast_seconds: float

    @property
    def speedup(self) -> float:
        """Observed single-shot ref/fast ratio (indicative; the formal
        measurement lives in ``bench_backend_speedup``)."""
        if self.fast_seconds <= 0:
            return float("inf")
        return self.ref_seconds / self.fast_seconds


def _flatten_outputs(value: object) -> List[np.ndarray]:
    """Normalize a kernel result (array or tuple of arrays) to a list."""
    if isinstance(value, tuple):
        return [np.asarray(part, dtype=np.float64) for part in value]
    return [np.asarray(value, dtype=np.float64)]


def _compare(ref_out: object, fast_out: object,
             rtol: float, atol: float) -> Tuple[bool, float, float]:
    """Tolerance check plus the worst absolute/relative error observed."""
    ref_parts = _flatten_outputs(ref_out)
    fast_parts = _flatten_outputs(fast_out)
    if len(ref_parts) != len(fast_parts):
        return False, float("inf"), float("inf")
    ok = True
    max_abs = 0.0
    max_rel = 0.0
    for ref_arr, fast_arr in zip(ref_parts, fast_parts):
        if ref_arr.shape != fast_arr.shape:
            return False, float("inf"), float("inf")
        diff = np.abs(ref_arr - fast_arr)
        if diff.size:
            max_abs = max(max_abs, float(diff.max()))
            denom = np.maximum(np.abs(ref_arr), 1e-300)
            max_rel = max(max_rel, float((diff / denom).max()))
        ok = ok and bool(
            np.allclose(fast_arr, ref_arr, rtol=rtol, atol=atol)
        )
    return ok, max_abs, max_rel


# ----------------------------------------------------------------------
# Deterministic cases per kernel, built from the suite's input generators


def _image(size: InputSize, variant: int) -> np.ndarray:
    from . import inputs

    return inputs.image(size, variant)


def _cases_convolve_rows(size: InputSize, variant: int) -> List[Case]:
    from ..imgproc.filters import binomial_kernel, gaussian_kernel

    img = _image(size, variant)
    return [
        ("gaussian7", (img, gaussian_kernel(1.2))),
        ("binomial5", (img, binomial_kernel(5))),
    ]


def _cases_convolve2d(size: InputSize, variant: int) -> List[Case]:
    img = _image(size, variant)
    smooth = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0
    sharpen = np.array([[0.0, -1.0, 0.0], [-1.0, 5.0, -1.0], [0.0, -1.0, 0.0]])
    # A kernel stack (texture's oriented bands), one kernel with zero taps.
    stack = np.stack([smooth, sharpen, smooth - sharpen])
    return [("smooth3x3", (img, smooth)), ("sharpen3x3", (img, sharpen)),
            ("stack3x3x3", (img, stack))]


def _cases_gradient(size: InputSize, variant: int) -> List[Case]:
    return [("image", (_image(size, variant),))]


def _cases_integral(size: InputSize, variant: int) -> List[Case]:
    return [("image", (_image(size, variant),))]


def _cases_bilinear(size: InputSize, variant: int) -> List[Case]:
    img = _image(size, variant)
    rows, cols = img.shape
    # Fractional query grid covering the interior plus out-of-range
    # corners (exercises the clamp path on both backends).
    rr = np.linspace(-1.0, rows + 0.5, rows) + 0.37
    cc = np.linspace(-1.0, cols + 0.5, cols) + 0.19
    grid_r, grid_c = np.meshgrid(rr, cc, indexing="ij")
    return [("fractional-grid", (img, grid_r, grid_c))]


def _cases_warp_affine(size: InputSize, variant: int) -> List[Case]:
    from ..imgproc.warp import rotation_matrix

    img = _image(size, variant)
    angle = 0.1 + 0.05 * variant
    return [
        ("rotate", (img, rotation_matrix(angle), np.array([2.5, -1.5]))),
        ("shift", (img, np.eye(2), np.array([0.6, 1.4]))),
    ]


def _cases_disparity_ssd(size: InputSize, variant: int) -> List[Case]:
    from . import inputs

    pair = inputs.stereo_pair(size, variant)
    left = np.asarray(pair.left, dtype=np.float64)
    right = np.asarray(pair.right, dtype=np.float64)
    return [("shift0", (left, right, 0)), ("shift3", (left, right, 3))]


def _cases_min_eigenvalue(size: InputSize, variant: int) -> List[Case]:
    from ..imgproc.gradient import gradient

    img = _image(size, variant)
    gx, gy = gradient(img)
    return [("tensor", (gx * gx, gx * gy, gy * gy))]


def _cases_sift_descriptor(size: InputSize, variant: int) -> List[Case]:
    from ..imgproc.gradient import gradient
    from .inputs import rng_for

    img = _image(size, variant)
    gx, gy = gradient(img)
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx)
    rows, cols = img.shape
    # A batch past one 64-keypoint block, some keypoints off the map and
    # some windows shrunk below unit scale.
    rng = rng_for(size, variant, "backend-descriptor")
    n = 70
    batch = (rng.uniform(-8.0, rows + 8.0, n),
             rng.uniform(-8.0, cols + 8.0, n),
             rng.uniform(-np.pi, np.pi, n),
             rng.uniform(0.3, 3.0, n))
    # Scalar cases first: the suite benchmark's kernel sweep times case 0.
    return [
        ("centre", (magnitude, angle, rows / 2.0, cols / 2.0, 0.4, 1.3)),
        ("border", (magnitude, angle, 3.0, 4.0, -1.1, 1.0)),
        ("batch", (magnitude, angle) + batch),
    ]


def _cases_match_distances(size: InputSize, variant: int) -> List[Case]:
    from .inputs import rng_for

    rng = rng_for(size, variant, "backend-match")
    n = 12 * size.relative
    a = rng.standard_normal((n, 64))
    b = rng.standard_normal((n + 5, 64))
    return [("descriptors", (a, b))]


def _cases_svm_kernel_matrix(size: InputSize, variant: int) -> List[Case]:
    from ..svm.kernels import polynomial_kernel
    from . import inputs

    data = inputs.svm_dataset(size, variant)
    return [("polynomial", (polynomial_kernel(), data.train_x))]


#: kernel name -> deterministic case builder (size, variant) -> cases.
CASE_BUILDERS: Dict[str, Callable[[InputSize, int], List[Case]]] = {
    "imgproc.convolve_rows": _cases_convolve_rows,
    "imgproc.convolve_cols": _cases_convolve_rows,  # same signature/shape
    "imgproc.convolve2d": _cases_convolve2d,
    "imgproc.gradient": _cases_gradient,
    "imgproc.integral_image": _cases_integral,
    "imgproc.bilinear": _cases_bilinear,
    "imgproc.warp_affine": _cases_warp_affine,
    "disparity.ssd": _cases_disparity_ssd,
    "tracking.min_eigenvalue": _cases_min_eigenvalue,
    "sift.descriptor": _cases_sift_descriptor,
    "stitch.match_distances": _cases_match_distances,
    "svm.kernel_matrix": _cases_svm_kernel_matrix,
}


def cases_for(spec: KernelSpec, size: InputSize,
              variant: int) -> List[Case]:
    """Deterministic invocations for one kernel at one (size, variant)."""
    try:
        builder = CASE_BUILDERS[spec.name]
    except KeyError:
        raise KeyError(
            f"kernel {spec.name!r} has no equivalence cases; add a builder "
            "to repro.core.equivalence.CASE_BUILDERS"
        ) from None
    return builder(size, variant)


def verify_kernel(
    spec: KernelSpec,
    sizes: Sequence[InputSize] = DEFAULT_SIZES,
    variants: Sequence[int] = (0,),
) -> List[EquivalenceVerdict]:
    """Run ref and fast on every case of one kernel; one verdict per case.

    A kernel without a fast path is vacuously in agreement (its single
    implementation is compared against itself, timing both calls), so
    partial fast coverage keeps ``verify-backends`` green.
    """
    verdicts = []
    ref_fn = spec.implementation("ref")
    fast_fn = spec.implementation("fast")
    for size in sizes:
        for variant in variants:
            for label, args in cases_for(spec, size, variant):
                start = time.perf_counter()
                ref_out = ref_fn(*args)
                ref_seconds = time.perf_counter() - start
                start = time.perf_counter()
                fast_out = fast_fn(*args)
                fast_seconds = time.perf_counter() - start
                ok, max_abs, max_rel = _compare(
                    ref_out, fast_out, spec.rtol, spec.atol
                )
                verdicts.append(
                    EquivalenceVerdict(
                        kernel=spec.name,
                        case=f"{size.name}/v{variant}/{label}",
                        ok=ok,
                        max_abs_err=max_abs,
                        max_rel_err=max_rel,
                        rtol=spec.rtol,
                        atol=spec.atol,
                        ref_seconds=ref_seconds,
                        fast_seconds=fast_seconds,
                    )
                )
    return verdicts


def verify_backends(
    sizes: Sequence[InputSize] = DEFAULT_SIZES,
    variants: Sequence[int] = (0,),
    kernels: Optional[Iterable[str]] = None,
) -> List[EquivalenceVerdict]:
    """Check every registered kernel (or the named subset) across sizes."""
    wanted = set(kernels) if kernels is not None else None
    verdicts: List[EquivalenceVerdict] = []
    for spec in registered_kernels():
        if wanted is not None and spec.name not in wanted:
            continue
        verdicts.extend(verify_kernel(spec, sizes=sizes, variants=variants))
    return verdicts


def render_equivalence(verdicts: Sequence[EquivalenceVerdict]) -> str:
    """Fixed-width agreement table, one row per (kernel, case)."""
    lines = []
    header = (
        f"{'Kernel':<26} {'Case':<24} {'max |err|':>11} {'tolerance':>16} "
        f"{'ref ms':>9} {'fast ms':>9} {'status':>7}"
    )
    lines.append("Backend equivalence: loop-faithful ref vs vectorized fast")
    lines.append("=" * len(header))
    lines.append(header)
    lines.append("-" * len(header))
    for verdict in verdicts:
        tolerance = f"rtol={verdict.rtol:.0e}"
        lines.append(
            f"{verdict.kernel:<26} {verdict.case:<24} "
            f"{verdict.max_abs_err:>11.2e} {tolerance:>16} "
            f"{verdict.ref_seconds * 1e3:>9.2f} "
            f"{verdict.fast_seconds * 1e3:>9.2f} "
            f"{'ok' if verdict.ok else 'FAIL':>7}"
        )
    lines.append("-" * len(header))
    failures = sum(1 for v in verdicts if not v.ok)
    lines.append(
        f"{len(verdicts)} checks, {failures} failures"
        if failures
        else f"{len(verdicts)} checks, all within tolerance"
    )
    return "\n".join(lines)
