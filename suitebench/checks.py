"""Output checks: every app's ground-truth quality output, per input size.

Each synthetic input carries its ground truth (``repro.core.inputs``), and
each app already reports a quality figure against it.  The thresholds
below were taken from the outputs of all five variants at SQCIF and CIF
on the commit that introduced this benchmark, with this margin:

* an error bound is 1.25x the worst observed error at that size;
* a score bound (purity, accuracy) is the worst observed score minus 0.05;
* a sub-pixel geometric error (tracking motion, stitch registration) must
  stay within 0.01 px, where every variant measured below 1e-4 px;
* a discrete outcome (face hit rate, sift feature count, texture residual
  shrinking) must hold exactly as observed.

A failing check is a defect in the program: report it, never widen the
bound to make it pass.  Besides these quality bounds, a cell's outputs
must be identical across its repeats (``fingerprint``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

#: (slug, size name) -> threshold; the worst observed value is in the comment.
DISPARITY_MAE = {"SQCIF": 0.62, "CIF": 0.21}        # 0.4955 / 0.1626
LOCALIZATION_ERROR = {"SQCIF": 0.25, "CIF": 0.35}   # 0.1991 / 0.2777
SVM_ACCURACY = {"SQCIF": 0.73, "CIF": 0.68}         # 0.7833 / 0.7333
SEGMENTATION_PURITY = {"SQCIF": 0.93, "CIF": 0.93}  # 0.9838 / 0.9835
SUBPIXEL = 0.01                                     # tracking 3.7e-5, stitch 1.2e-13
FACE_HIT_RATE = 1.0                                 # 1.0 on every variant


def _number(outputs: Mapping[str, object], key: str) -> float:
    return float(outputs[key])  # type: ignore[arg-type]


def _disparity(outputs, size: str) -> Optional[str]:
    mae = _number(outputs, "mean_abs_error")
    if mae <= DISPARITY_MAE[size]:
        return None
    return f"mean_abs_error {mae:.4f} > {DISPARITY_MAE[size]}"


def _tracking(outputs, size: str) -> Optional[str]:
    measured = [float(v) for v in outputs["median_motion"]]  # type: ignore[union-attr]
    truth = [float(v) for v in outputs["true_motion"]]  # type: ignore[union-attr]
    worst = max(abs(m - t) for m, t in zip(measured, truth))
    if len(measured) == len(truth) == 2 and worst <= SUBPIXEL:
        return None
    return f"median_motion {measured} vs true_motion {truth} (off {worst:.4g} px)"


def _segmentation(outputs, size: str) -> Optional[str]:
    purity = _number(outputs, "purity")
    if purity >= SEGMENTATION_PURITY[size]:
        return None
    return f"purity {purity:.4f} < {SEGMENTATION_PURITY[size]}"


def _sift(outputs, size: str) -> Optional[str]:
    features = int(outputs["features"])  # type: ignore[call-overload]
    return None if features > 0 else "no sift features"


def _localization(outputs, size: str) -> Optional[str]:
    error = _number(outputs, "tracking_error")
    if error <= LOCALIZATION_ERROR[size]:
        return None
    return f"tracking_error {error:.4f} > {LOCALIZATION_ERROR[size]}"


def _svm(outputs, size: str) -> Optional[str]:
    accuracy = _number(outputs, "test_accuracy")
    if accuracy >= SVM_ACCURACY[size]:
        return None
    return f"test_accuracy {accuracy:.4f} < {SVM_ACCURACY[size]}"


def _face(outputs, size: str) -> Optional[str]:
    hit_rate = _number(outputs, "hit_rate")
    return None if hit_rate >= FACE_HIT_RATE else f"hit_rate {hit_rate:.3f} < 1"


def _stitch(outputs, size: str) -> Optional[str]:
    error = _number(outputs, "registration_error")
    if error <= SUBPIXEL:
        return None
    return f"registration_error {error:.4g} px > {SUBPIXEL}"


def _texture(outputs, size: str) -> Optional[str]:
    final = _number(outputs, "final_residual")
    initial = _number(outputs, "initial_residual")
    if final < initial:
        return None
    return f"final_residual {final:.4f} >= initial_residual {initial:.4f}"


CHECKS: Dict[str, Callable[[Mapping[str, object], str], Optional[str]]] = {
    "disparity": _disparity,
    "tracking": _tracking,
    "segmentation": _segmentation,
    "sift": _sift,
    "localization": _localization,
    "svm": _svm,
    "face": _face,
    "stitch": _stitch,
    "texture": _texture,
}


def check_outputs(slug: str, size: str,
                  outputs: Mapping[str, object]) -> Optional[str]:
    """``None`` when the outputs pass, else the reason they fail."""
    try:
        return CHECKS[slug](outputs, size)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed outputs ({type(exc).__name__}: {exc})"


def fingerprint(outputs: Mapping[str, object]) -> str:
    """Exact text form of a run's outputs, for the across-repeats check.

    Built from the same ``repr`` the export layer stores, so a served
    export's outputs compare against an in-process run's directly.
    """
    return exported_fingerprint(
        {key: repr(value) for key, value in outputs.items()})


def exported_fingerprint(outputs: Mapping[str, object]) -> str:
    """:func:`fingerprint` of outputs already stringified by an export."""
    return repr(sorted((key, str(value)) for key, value in outputs.items()))


class CellLedger:
    """Per-cell pass/fail bookkeeping shared by every workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, List[str]] = {}
        self._prints: Dict[str, str] = {}

    def record(self, cell: str, slug: str, size: str,
               outputs: Mapping[str, object]) -> bool:
        """Check one run of ``cell``; returns whether it passed."""
        self.attempted += 1
        error = check_outputs(slug, size, outputs)
        if error is None:
            printed = fingerprint(outputs)
            if self._prints.setdefault(cell, printed) != printed:
                error = "outputs differ between repeats of this cell"
        if error is None:
            return True
        self.failures.setdefault(cell, []).append(error)
        return False

    def fail(self, cell: str, error: str, attempted: bool = True) -> None:
        """Count one failed operation; ``attempted=False`` when the
        operation was already counted (a later check on its result)."""
        self.attempted += int(attempted)
        self.failures.setdefault(cell, []).append(error)

    @property
    def failed(self) -> int:
        return sum(len(errors) for errors in self.failures.values())

    def report_lines(self) -> List[str]:
        lines = []
        for cell in sorted(self.failures):
            errors = self.failures[cell]
            lines.append(f"FAILED {cell}: {errors[0]}"
                         + (f" (+{len(errors) - 1} more)"
                            if len(errors) > 1 else ""))
        return lines
