"""Border padding helpers shared by the filtering kernels.

SD-VBS's clean-C kernels handle borders by replication; these helpers make
that policy explicit and reusable.  Supported modes: ``replicate`` (clamp to
edge, the suite's default), ``reflect`` (mirror without repeating the edge
sample), and ``zero``.
"""

from __future__ import annotations

import numpy as np

_MODES = ("replicate", "reflect", "zero")


def pad(image: np.ndarray, amount: int, mode: str = "replicate") -> np.ndarray:
    """Pad ``image`` by ``amount`` pixels on every side."""
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if amount < 0:
        raise ValueError("pad amount must be non-negative")
    if mode not in _MODES:
        raise ValueError(f"unknown pad mode {mode!r}; expected one of {_MODES}")
    if amount == 0:
        return image.copy()
    if mode == "zero":
        return np.pad(image, amount, mode="constant")
    if mode == "replicate":
        return np.pad(image, amount, mode="edge")
    rows, cols = image.shape
    if amount >= rows or amount >= cols:
        raise ValueError(
            f"reflect pad of {amount} exceeds image extent {image.shape}"
        )
    return np.pad(image, amount, mode="reflect")
