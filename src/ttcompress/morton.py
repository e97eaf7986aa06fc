"""Morton (Z-order) encoding of 3-d particle positions.

Sorting particles by Morton index imposes a spatially coherent linear
order: points that are close on the curve are close in space, which is
what makes the particle axis compressible after tensorization.  Keys are
built most-significant-level first, so comparing the integer keys equals
comparing the interleaved binary expansions lexicographically.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, IndexRangeError, ShapeError

MAX_BITS = 21  # 3 * 21 = 63 key bits fit an unsigned 64-bit integer


@dataclass(frozen=True)
class DomainTransform:
    """Axis-aligned map taking a point cloud into the half-open unit cube."""

    shift: np.ndarray
    scale: np.ndarray

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return (pts - self.shift) * self.scale


@dataclass(frozen=True)
class MortonKey:
    bits: int
    b: int

    def __post_init__(self):
        if not 1 <= self.b <= MAX_BITS:
            raise IndexRangeError(f"bit depth {self.b} out of range 1..{MAX_BITS}")
        if not 0 <= self.bits < 1 << (3 * self.b):
            raise IndexRangeError(
                f"key {self.bits} out of range for bit depth {self.b}"
            )


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"expected an (n, 3) point array, got {pts.shape}")
    if pts.shape[0] < 1:
        raise ShapeError("need at least one point")
    if not np.isfinite(pts).all():
        raise DataError("points contain non-finite coordinates")
    return pts


def fit_domain(points) -> DomainTransform:
    """Bounding-box normalization into [0, 1)^3.

    A relative margin keeps the maxima strictly below 1.  A degenerate
    axis (zero extent) gets scale 1 and is centred at 0.5.
    """
    pts = _as_points(points)
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    extent = maxs - mins
    shift = np.empty(3)
    scale = np.empty(3)
    for k in range(3):
        if extent[k] > 0.0:
            shift[k] = mins[k]
            scale[k] = (1.0 - 1e-9) / extent[k]
        else:
            shift[k] = mins[k] - 0.5
            scale[k] = 1.0
    return DomainTransform(shift=shift, scale=scale)


def morton_keys(points, b: int) -> np.ndarray:
    """Vectorized Morton keys for points in [0, 1)^3.

    Takes the first ``b`` bits of each coordinate's binary expansion and
    interleaves them level by level as (x, y, z), most significant first.
    """
    if not 1 <= int(b) <= MAX_BITS:
        raise IndexRangeError(f"bit depth {b} out of range 1..{MAX_BITS}")
    b = int(b)
    pts = _as_points(points)
    if (pts < 0.0).any() or (pts >= 1.0).any():
        raise IndexRangeError("points must lie in the half-open unit cube")
    # cells < 2^b is guaranteed: scaling by a power of two is exact
    cells = np.floor(pts * float(1 << b)).astype(np.uint64)
    keys = np.zeros(pts.shape[0], dtype=np.uint64)
    for lvl in range(b):
        shift = np.uint64(b - 1 - lvl)
        one = np.uint64(1)
        xb = (cells[:, 0] >> shift) & one
        yb = (cells[:, 1] >> shift) & one
        zb = (cells[:, 2] >> shift) & one
        keys = keys * np.uint64(8) + xb * np.uint64(4) + yb * np.uint64(2) + zb
    return keys


def morton_id(point, b: int) -> MortonKey:
    """Morton key of a single point in [0, 1)^3."""
    pts = np.asarray(point, dtype=np.float64).reshape(1, 3)
    return MortonKey(bits=int(morton_keys(pts, b)[0]), b=int(b))


def morton_sort(points, b: int) -> np.ndarray:
    """Deterministic spatially coherent ordering of a point cloud.

    Returns a 0-based permutation ``perm`` such that
    ``points[perm]`` is sorted by Morton key; equal keys keep their
    original relative order, so the result is reproducible.
    """
    keys = morton_keys(points, b)
    return np.argsort(keys, kind="stable")
