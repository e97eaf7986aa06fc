"""Dense tensors with explicit column-major index arithmetic.

Tensors are stored as a flat float64 sequence in column-major (Fortran)
order together with a dimension list.  Reshaping and unfolding are
metadata-only operations on that flat sequence (a new tensor over the
same values), so the linearization semantics are independent of any
array library's native memory layout.

All public indices and axis numbers are 1-based, matching the usual
mathematical convention for multi-index formulas.  Internally everything
is 0-based numpy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexRangeError, ShapeError


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Return a read-only float64 view of ``arr`` without copying."""
    out = np.asarray(arr, dtype=np.float64)
    if out.flags.writeable:
        out = out.view()
        out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DenseTensor:
    """A d-dimensional real tensor: extents ``dims`` plus a flat
    column-major value sequence of length ``prod(dims)``."""

    dims: tuple
    values: np.ndarray

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) < 1 or any(n < 1 for n in dims):
            raise ShapeError(f"tensor extents must all be >= 1, got {dims}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ShapeError(
                "values must be a flat column-major sequence; "
                "use DenseTensor.from_numpy for multi-dimensional arrays"
            )
        if vals.size != math.prod(dims):
            raise ShapeError(
                f"got {vals.size} values for dims {dims} "
                f"(expected {math.prod(dims)})"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_numpy(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        return cls(tuple(arr.shape), arr.flatten(order="F"))

    def to_numpy(self) -> np.ndarray:
        """View the values as a numpy array of shape ``dims`` (read-only)."""
        return self.values.reshape(self.dims, order="F")

    def get(self, indices) -> float:
        """Entry at a 1-based multi-index, checked by :func:`index_rows`;
        the first index varies fastest (column-major)."""
        idx = index_rows([tuple(indices)], self.dims)[0] - 1
        flat = np.ravel_multi_index(idx, self.dims, order="F")
        return float(self.values[flat])


# A matrix is a 2-D DenseTensor.  The name stays because perfbench's
# kernel worker (perfbench/worker.py) builds its matrix with
# dense.DenseMatrix.from_numpy.
DenseMatrix = DenseTensor


def index_rows(indices, dims) -> np.ndarray:
    """New ``(N, len(dims))`` int64 array of 1-based multi-indices, one per
    row, each checked against ``dims``."""
    idx = np.array(indices, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != len(dims):
        raise ShapeError(
            f"multi-index rows of shape {idx.shape} do not match rank {len(dims)}"
        )
    bad = np.argwhere((idx < 1) | (idx > np.asarray(dims)))
    if len(bad):
        row, k = bad[0]
        raise IndexRangeError(
            f"index {idx[row, k]} out of range 1..{dims[k]} at position {k + 1}"
        )
    return idx
