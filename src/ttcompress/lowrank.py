"""Low-rank matrix factorization kernels.

Truncated SVD with an absolute Frobenius truncation budget, an economy QR
and a matrix-free spectral-norm estimator.  These are the primitives the
tensor-train sweeps are built from.

Importing this module runs every OpenBLAS loaded in the process on one
thread (see :func:`_pin_blas_threads`).
"""

import ctypes
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg

from .dense import DenseMatrix
from .errors import ConfigError, DataError

# A wide matrix whose truncation budget is at least this multiple of its
# Frobenius norm is truncated through its Gram matrix.  Squaring costs
# eigenvalue accuracy of about rows * eps * ||M||^2 (_EPS below), under
# the squared budget of at least 1e-12 * ||M||^2 for fewer than 4500 rows.
GRAM_MIN_RELATIVE_BUDGET = 1e-6
_EPS = float(np.finfo(np.float64).eps)

# the C entry points of numpy's and scipy's OpenBLAS builds (scipy-openblas,
# 64-bit integer and 32-bit integer) and of a plain OpenBLAS
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _pin_blas_threads() -> None:
    """Run every OpenBLAS loaded in this process on one thread.

    The sweeps make thousands of small LAPACK calls on matrices with at
    most a few dozen rows; threads fighting over them made compression
    several times slower on two cores, and the thread count changed the
    last bits of the cores.  The count is set through each library's own
    entry point because numpy is usually imported, and its OpenBLAS
    initialised, before this module, so environment variables come too
    late.  Libraries are found in ``/proc/self/maps``; where that file or
    the entry point does not exist nothing is changed.
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split() for line in fh]
    except OSError:
        return
    paths = {
        f[5] for f in fields
        if len(f) == 6 and "openblas" in os.path.basename(f[5])
    }
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SET_THREADS:
            set_threads = getattr(lib, symbol, None)
            if set_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)
                break


_pin_blas_threads()


def _as_2d(m) -> np.ndarray:
    if isinstance(m, DenseMatrix):
        return m.to_numpy()
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"expected a matrix, got ndim={arr.ndim}")
    return arr


def _svd(arr: np.ndarray, accurate: bool = False):
    # gesdd is fast but its small singular values carry O(eps * sigma_1)
    # noise; gesvd resolves them properly, which matters when the
    # truncation budget sits near the noise floor
    first, second = ("gesvd", "gesdd") if accurate else ("gesdd", "gesvd")
    try:
        return scipy.linalg.svd(arr, full_matrices=False, lapack_driver=first)
    except np.linalg.LinAlgError:
        return scipy.linalg.svd(arr, full_matrices=False, lapack_driver=second)


def svd_truncation_rank(singular_values: np.ndarray, delta: float) -> int:
    """Smallest rank whose discarded tail has root-sum-square <= ``delta``.

    Floor of 1: even an all-zero spectrum keeps one (zero) singular triplet
    so downstream rank chains stay well formed.
    """
    sq = np.asarray(singular_values, dtype=np.float64) ** 2
    # tail[r] = sum of squares of the values discarded when keeping r
    tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
    budget = float(delta) ** 2
    # tail is nonincreasing and tail[-1] == 0, so a qualifying rank exists
    r = int(np.nonzero(tail <= budget)[0][0])
    return max(r, 1)


@dataclass(frozen=True)
class TruncatedSVD:
    """Rank-``r`` factorization ``M ~ U @ diag(s) @ V.T``.

    ``discarded_energy`` is the root-sum-square of the dropped singular
    values, i.e. the Frobenius norm of the approximation error.
    """

    U: DenseMatrix
    singular_values: np.ndarray
    V: DenseMatrix
    discarded_energy: float

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    def reconstruct(self) -> np.ndarray:
        u = self.U.to_numpy()
        v = self.V.to_numpy()
        return (u * self.singular_values) @ v.T


def _checked_norm(arr: np.ndarray, delta: float) -> float:
    if delta < 0:
        raise ConfigError(f"truncation budget must be >= 0, got {delta}")
    if not np.isfinite(arr).all():
        raise DataError("matrix contains non-finite entries")
    return float(np.linalg.norm(arr))


def _exact_truncation(arr: np.ndarray, delta: float, norm: float):
    accurate = 0.0 < delta < 1e-12 * norm
    u, s, vt = _svd(arr, accurate=accurate)
    r = svd_truncation_rank(s, delta)
    discarded = float(np.sqrt(np.sum(s[r:] ** 2)))
    return u[:, :r], s[:r].copy(), vt[:r, :], discarded


def _gram_truncation(arr: np.ndarray, delta: float, norm: float):
    """Truncation of a wide matrix through ``G = M M^T`` and ``eigh``.

    Returns ``(U, W, lost)`` with ``U`` the leading eigenvectors and
    ``W = U^T M``; for orthonormal ``U`` the error ``||M - U W||_F^2``
    equals ``lost = ||M||_F^2 - ||W||_F^2``, whatever the accuracy of the
    eigenvalues that chose the rank.
    """
    evals, evecs = np.linalg.eigh(arr @ arr.T)
    # eigh sorts ascending; rounding can leave tiny negative eigenvalues
    sigma = np.sqrt(np.maximum(evals[::-1], 0.0))
    r = svd_truncation_rank(sigma, delta)
    u = evecs[:, ::-1][:, :r]
    # M^T U is C-ordered, so W comes out F-ordered for the sweeps' reshapes
    w = (arr.T @ u).T
    lost = norm**2 - float(np.linalg.norm(w)) ** 2
    return u, w, lost


def _truncated_svd_arrays(arr: np.ndarray, delta: float):
    """numpy-level truncation used by the tensor-train sweeps.

    Returns ``(U, W, discarded_energy)`` with ``M ~ U @ W``: ``U`` has
    orthonormal columns, ``W = U^T M`` (``diag(s) V^T`` of an SVD) is the
    carry the sweeps fold into the next core, and the rank is the smallest
    whose discarded energy is within ``delta``.

    A wide matrix with a budget of at least ``GRAM_MIN_RELATIVE_BUDGET``
    times its norm goes through its Gram matrix, which is far cheaper than
    an SVD when the rows are few; the error is checked afterwards and the
    SVD runs instead when it exceeds ``delta``.  Tall matrices, smaller
    budgets and the zero matrix go straight to the SVD.

    ``discarded_energy`` is ``||M - U W||_F``.  On the Gram path it is a
    difference of squares, and it also holds ``rows * eps * ||M||_F^2``,
    an estimate (not a proven bound) of that difference's float error:
    ``U`` from ``eigh`` is orthonormal only to about ``rows * eps``.  So
    it can exceed ``delta`` by that much.
    """
    norm = _checked_norm(arr, delta)
    rows, cols = arr.shape
    if rows <= cols and 0.0 < GRAM_MIN_RELATIVE_BUDGET * norm <= delta:
        u, w, lost = _gram_truncation(arr, delta, norm)
        if lost <= delta**2:
            slack = rows * _EPS * norm**2
            return u, w, math.sqrt(max(lost, 0.0) + slack)
    u, s, vt, discarded = _exact_truncation(arr, delta, norm)
    return u, s[:, None] * vt, discarded


def truncated_svd(m, delta: float) -> TruncatedSVD:
    """SVD truncated to the smallest rank meeting an absolute Frobenius budget.

    Discards the largest tail of singular values whose root-sum-square is
    still <= ``delta`` (the Frobenius-optimal truncation rule); when the tail
    energy ties the budget exactly the smaller rank wins.  The rank never
    drops below 1.
    """
    arr = _as_2d(m)
    u, s, vt, discarded = _exact_truncation(arr, delta, _checked_norm(arr, delta))
    return TruncatedSVD(
        U=DenseMatrix.from_numpy(u),
        singular_values=s,
        V=DenseMatrix.from_numpy(vt.T),
        discarded_energy=discarded,
    )


def _qr_arrays(arr: np.ndarray):
    if not np.isfinite(arr).all():
        raise DataError("matrix contains non-finite entries")
    return np.linalg.qr(arr, mode="reduced")


class SpectralEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


def spectral_norm_estimate(
    apply: Callable[[np.ndarray], np.ndarray],
    apply_transpose: Callable[[np.ndarray], np.ndarray],
    dims,
    tol: float = 1e-3,
    max_iterations: int = 500,
    seed: Optional[int] = 0,
) -> SpectralEstimate:
    """Largest singular value of an operator given only matvec oracles.

    Power iteration on ``A^T A`` from a random start vector.  The iterates
    increase monotonically with geometrically decaying steps, so the
    remaining error is projected from the ratio of successive differences;
    iteration stops once both the last step and the projection are below
    ``tol`` relative.  On hitting the iteration cap the best estimate is
    returned with ``converged=False``.
    """
    if not 0 < tol < 1:
        raise ConfigError(f"tolerance must be in (0, 1), got {tol}")
    _, n = dims
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0.0:  # pragma: no cover - standard_normal never returns all zeros
        v = np.ones(n)
        nv = math.sqrt(n)
    v /= nv
    estimate = 0.0
    prev_diff = None
    for it in range(1, max_iterations + 1):
        u = np.asarray(apply(v), dtype=np.float64)
        sigma = float(np.linalg.norm(u))
        if sigma == 0.0:
            return SpectralEstimate(0.0, True, it)
        w = np.asarray(apply_transpose(u / sigma), dtype=np.float64)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return SpectralEstimate(sigma, True, it)
        v = w / nw
        if it > 1:
            diff = abs(sigma - estimate)
            if diff == 0.0:
                return SpectralEstimate(sigma, True, it)
            if prev_diff is not None and diff < tol * sigma:
                rate = min(diff / prev_diff, 0.999) if prev_diff > 0 else 0.0
                projected = diff * rate / (1.0 - rate)
                if projected < tol * sigma:
                    return SpectralEstimate(sigma, True, it)
            prev_diff = diff
        estimate = sigma
    return SpectralEstimate(estimate, False, max_iterations)
