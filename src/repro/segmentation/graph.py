"""Pixel-affinity graphs on image grids — the "Adjacency matrix" kernel.

Normalized cuts views the image as a weighted graph: nodes are pixels,
edges connect pixels within a spatial radius, and weights combine
intensity similarity and spatial proximity:

    w(p, q) = exp(-(I_p - I_q)^2 / sigma_i^2) * exp(-|p - q|^2 / sigma_x^2)

Storing the full n x n matrix is quadratic in pixels, so the graph is kept
in *stencil* form: one weight plane per neighbour offset.  That preserves
the suite's computation (every pixel-pair weight within the radius is
still evaluated) while making ``W @ v`` a handful of shifted multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


def stencil_offsets(radius: int) -> List[Tuple[int, int]]:
    """Unique half-plane offsets within a Euclidean ``radius``.

    Only one of each (+o, -o) pair is listed; symmetry supplies the other.
    The ordering is deterministic (row-major).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    offsets = []
    for dy in range(0, radius + 1):
        for dx in range(-radius, radius + 1):
            if dy == 0 and dx <= 0:
                continue  # half-plane: skip self and mirrored duplicates
            if dy * dy + dx * dx <= radius * radius:
                offsets.append((dy, dx))
    return offsets


@dataclass
class GridAffinity:
    """Symmetric pixel-affinity operator in stencil form.

    ``planes[i][r, c]`` is the weight between pixel ``(r, c)`` and pixel
    ``(r + dy_i, c + dx_i)`` (zero where the neighbour falls outside).
    """

    shape: Tuple[int, int]
    offsets: List[Tuple[int, int]]
    planes: List[np.ndarray]
    #: Row ``2i`` / ``2i + 1`` of ``_index`` and ``_weights``: for every
    #: pixel, its ``+offsets[i]`` / ``-offsets[i]`` neighbour in the
    #: zero-padded flat grid, and the weight of that edge (zero where the
    #: neighbour falls outside).
    _index: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _padded_shape: Tuple[int, int] = field(init=False, repr=False,
                                           compare=False)
    _interior: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows, cols = self.shape
        pad_r = max((abs(dy) for dy, _ in self.offsets), default=0)
        pad_c = max((abs(dx) for _, dx in self.offsets), default=0)
        width = cols + 2 * pad_c
        self._padded_shape = (rows + 2 * pad_r, width)
        self._interior = (slice(pad_r, pad_r + rows),
                          slice(pad_c, pad_c + cols))
        r, c = np.divmod(np.arange(rows * cols), cols)
        centre = (r + pad_r) * width + (c + pad_c)
        index, weights = [], []
        for (dy, dx), plane in zip(self.offsets, self.planes):
            src = _slice_pair(self.shape, dy, dx)
            dst = _slice_pair(self.shape, -dy, -dx)
            forward, backward = np.zeros(self.shape), np.zeros(self.shape)
            forward[src] = plane[src]
            backward[dst] = plane[src]
            shift = dy * width + dx
            index += [centre + shift, centre - shift]
            weights += [forward.ravel(), backward.ravel()]
        self._index = np.array(index, dtype=np.intp).reshape(-1, rows * cols)
        self._weights = np.array(weights).reshape(-1, rows * cols)

    @property
    def n_nodes(self) -> int:
        return self.shape[0] * self.shape[1]

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Apply ``W`` to a flat vector of length ``n_nodes``.

        One gather of every pixel's neighbours into a ``(2 * offsets,
        n_nodes)`` array, one multiply by the edge weights and one sum
        over the rows.  The sum adds the rows in stencil order (``+o``
        then ``-o`` per offset) and a missing neighbour adds ``+0.0``, so
        the result has the bits of applying the offsets one at a time.
        """
        grid = np.zeros(self._padded_shape)
        grid[self._interior] = np.asarray(
            vec, dtype=np.float64).reshape(self.shape)
        terms = grid.ravel().take(self._index)
        terms *= self._weights
        return terms.sum(axis=0)

    def degrees(self) -> np.ndarray:
        """Row sums of ``W`` (node degrees), flat."""
        return self.matvec(np.ones(self.n_nodes))

    def dense(self) -> np.ndarray:
        """Materialize the full symmetric matrix (tests/small grids only)."""
        n = self.n_nodes
        if n > 4096:
            raise ValueError(f"refusing to densify a {n}-node affinity")
        rows, cols = self.shape
        out = np.zeros((n, n))
        for (dy, dx), plane in zip(self.offsets, self.planes):
            for r in range(rows):
                for c in range(cols):
                    r2, c2 = r + dy, c + dx
                    if 0 <= r2 < rows and 0 <= c2 < cols:
                        i, j = r * cols + c, r2 * cols + c2
                        out[i, j] = plane[r, c]
                        out[j, i] = plane[r, c]
        return out


def _slice_pair(shape: Tuple[int, int], dy: int, dx: int):
    """Region of pixels whose ``(dy, dx)`` neighbour is inside ``shape``."""
    rows, cols = shape
    # Clamped at zero: an offset longer than the grid has no such pixel
    # (a negative stop would count from the far end instead).
    rs = slice(max(0, -dy), max(0, rows - max(0, dy)))
    cs = slice(max(0, -dx), max(0, cols - max(0, dx)))
    return rs, cs


def build_affinity(
    image: np.ndarray,
    radius: int = 3,
    sigma_intensity: float = 0.08,
    sigma_spatial: float = 4.0,
) -> GridAffinity:
    """Construct the intensity/proximity affinity of a grayscale image."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if sigma_intensity <= 0 or sigma_spatial <= 0:
        raise ValueError("sigmas must be positive")
    shape = image.shape
    offsets = stencil_offsets(radius)
    planes = []
    inv_si2 = 1.0 / (sigma_intensity * sigma_intensity)
    inv_sx2 = 1.0 / (sigma_spatial * sigma_spatial)
    for dy, dx in offsets:
        plane = np.zeros(shape)
        src = _slice_pair(shape, dy, dx)
        dst = _slice_pair(shape, -dy, -dx)
        diff = image[src] - image[dst]
        spatial = (dy * dy + dx * dx) * inv_sx2
        plane[src] = np.exp(-diff * diff * inv_si2 - spatial)
        planes.append(plane)
    return GridAffinity(shape=shape, offsets=offsets, planes=planes)
