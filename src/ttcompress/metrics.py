"""Reconstruction-error and compressibility metrics.

Two error criteria: normalized RMSE compares the root-mean-squared
reconstruction error against the data range, and relative Frobenius error
compares it against the average entry magnitude.  The k-lag
autocorrelation of time fibers diagnoses how much redundancy a variable
has for the compressor to exploit.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dense import DenseTensor
from .errors import (
    ConfigError,
    DegenerateDataError,
    IndexRangeError,
    ShapeError,
)


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


def autocorrelation(series, k: int) -> float:
    """k-lag autocorrelation of a time series.

    Mean-centred covariance at lag ``k`` (averaged over the ``n - k``
    available pairs) divided by the series variance.  By definition the
    value is 1 at lag 0 and 0 for lags of at least the series length.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1 or y.size < 2:
        raise ShapeError("expected a 1-d series of length >= 2")
    k = int(k)
    if k < 0:
        raise ConfigError(f"lag must be >= 0, got {k}")
    n = y.size
    if k == 0:
        return 1.0
    if k >= n:
        return 0.0
    centred = y - y.mean()
    variance = float(np.mean(centred**2))
    if variance == 0.0:
        raise DegenerateDataError("series has zero variance")
    cov = float(np.mean(centred[: n - k] * centred[k:]))
    return cov / variance


@dataclass(frozen=True)
class AutocorrelationProfile:
    lags: np.ndarray
    means: np.ndarray
    fibers_used: int
    fibers_skipped: int


def autocorrelation_profile(
    data: DenseTensor,
    time_axis: int,
    average_axes,
    max_lag: Optional[int] = None,
) -> AutocorrelationProfile:
    """Per-lag autocorrelations of the time fibers, averaged across fibers.

    ``time_axis`` is 1-based; ``average_axes`` must list every remaining
    axis (slice the tensor first for per-component profiles).  Fibers with
    zero variance are skipped and counted instead of poisoning the mean.
    """
    d = data.ndim
    if not 1 <= time_axis <= d:
        raise IndexRangeError(f"time axis {time_axis} out of range 1..{d}")
    expected = sorted(set(range(1, d + 1)) - {time_axis})
    if sorted(int(a) for a in average_axes) != expected:
        raise ConfigError(
            f"average_axes must cover every non-time axis {expected}"
        )
    arr = np.moveaxis(data.to_numpy(), time_axis - 1, 0)
    n = arr.shape[0]
    if n < 2:
        raise ShapeError("need at least two timesteps")
    fibers = arr.reshape(n, -1)
    centred = fibers - fibers.mean(axis=0)
    variance = np.mean(centred**2, axis=0)
    keep = variance > 0.0
    used = int(np.sum(keep))
    skipped = int(keep.size - used)
    if used == 0:
        raise DegenerateDataError("every fiber has zero variance")
    centred = centred[:, keep]
    variance = variance[keep]
    if max_lag is None:
        max_lag = n - 1
    max_lag = int(max_lag)
    lags = np.arange(max_lag + 1)
    means = np.empty(max_lag + 1)
    means[0] = 1.0
    for k in range(1, max_lag + 1):
        if k >= n:
            means[k] = 0.0
            continue
        cov = np.mean(centred[: n - k] * centred[k:], axis=0)
        means[k] = float(np.mean(cov / variance))
    return AutocorrelationProfile(
        lags=lags, means=means, fibers_used=used, fibers_skipped=skipped
    )


def write_csv(path, rows, columns) -> None:
    """Write report rows (dicts) with a fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in columns})
