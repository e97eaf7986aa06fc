"""Reconstruction-error metrics.

Two error criteria: normalized RMSE compares the root-mean-squared
reconstruction error against the data range, and relative Frobenius error
compares it against the average entry magnitude.
"""

import numpy as np

from .dense import DenseTensor
from .errors import DegenerateDataError, ShapeError


def _paired(x: DenseTensor, y: DenseTensor):
    if x.dims != y.dims:
        raise ShapeError(f"dims differ: {x.dims} != {y.dims}")
    return x.values, y.values


def nrmse(x: DenseTensor, y: DenseTensor) -> float:
    """Root-mean-squared error of ``y`` against ``x``, normalized by the
    range of ``x``.  Undefined (degenerate) for constant ``x``."""
    xv, yv = _paired(x, y)
    x_min, x_max = float(xv.min()), float(xv.max())
    if x_max == x_min:
        raise DegenerateDataError(
            "data range is zero; use rel_frob or exact comparison"
        )
    rmse = float(np.sqrt(np.mean((xv - yv) ** 2)))
    return rmse / (x_max - x_min)


def rel_frob(x: DenseTensor, y: DenseTensor) -> float:
    """Frobenius norm of the error relative to the Frobenius norm of ``x``."""
    xv, yv = _paired(x, y)
    norm = float(np.linalg.norm(xv))
    if norm == 0.0:
        raise DegenerateDataError("reference tensor has zero norm")
    return float(np.linalg.norm(xv - yv)) / norm

