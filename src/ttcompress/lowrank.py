"""Low-rank matrix factorization kernels.

Truncated SVD with an absolute Frobenius truncation budget, an economy QR
and a matrix-free spectral-norm estimator.  These are the primitives the
tensor-train sweeps are built from.

A truncation (:func:`_truncated_svd_arrays`) takes one of three routes.
A matrix whose smaller side is at least ``RANGE_MIN_SIDE`` and whose
budget is positive first tries a seeded randomized range finder, whose
residual forms no temporary the size of the matrix; the small projected
matrix it leaves takes one of the other two.  Budgets of at least
``GRAM_MIN_RELATIVE_BUDGET`` times the norm go through the Gram matrix
of the smaller side and numpy's ``eigh``; the SVD serves smaller
budgets, the zero matrix and the Gram route's checked fallback.  There a
matrix at least twice as wide as it is tall first takes the eigenvalues
of its Gram.  They may prove that the rank keeps every row, and then no
factorization runs; when fewer of them than the range finder's cap clear
the proof's margin, the range finder goes first, whatever the size.
Otherwise a blocked QR of the long side (TSQR, Demmel, Grigori, Hoemmen
& Langou, 2012) leaves the SVD only a small triangle.  Every route
carries the projection ``U^T M`` of the matrix on the kept vectors into
the next core; a wide matrix whose rank keeps every row is that
projection itself, kept whole with ``U = I`` and nothing discarded.

Every SVD is numpy's (LAPACK ``gesdd``), whatever the budget; when it
fails to converge, :func:`_svd` retries on the transpose and then runs a
one-sided Jacobi SVD, so numpy is the only dependency.  Importing this
module runs every OpenBLAS loaded in the process on one thread (see
:func:`_pin_blas_threads`).
"""

import ctypes
import math
import os
import re
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DataError, ShapeError, TTCompressError

# A matrix whose truncation budget is at least this multiple of its
# Frobenius norm is truncated through the Gram matrix of its smaller side,
# and at such budgets the range route measures its residual as the same
# kind of difference of squares, ||M||^2 - ||Q^T M||^2.  Squaring costs
# accuracy of about min(rows, cols) * eps * ||M||^2 (_EPS below), under
# the squared budget of at least 1e-12 * ||M||^2 while that side is
# shorter than 4500.
GRAM_MIN_RELATIVE_BUDGET = 1e-6
# A matrix with a positive budget whose smaller side is at least this long
# first tries the randomized range finder.  Of the 562 truncations of a
# settling run's segments and merge (4096 particles, 1024 steps), the
# largest smaller side is 214, so those never sketch.  A sketch that
# fails to certify stops after one block, and at smaller sides of 256 to
# 300 that costs 5 to 20% of the direct route (0.5 ms against 8 to 18 ms
# at 256 x 384, 6 ms against 29 to 71 ms at 256 x 4096); the kernel
# study's 256 x 4096 unfoldings of ranks 11 to 15 certify at once.
# Smaller wide matrices sketch only where the SVD route's full-rank proof
# fails (_exact_truncation), as the kernel study's 64 x 16384 unfoldings
# of ranks 10 to 14 do; a side of 64 here made a full-rank 64 x 16384 at
# 1e-12 three times slower (13.6 against 4.2 ms).
RANGE_MIN_SIDE = 256
_RANGE_FIRST_BLOCK = 16
_RANGE_SEED = 0
# A matrix at least this many times as wide as it is tall is reduced to
# the triangular factor of a QR of its long side before the exact SVD.
# Timed on one core at 16 to 256 rows, the QR and the SVD of the triangle
# took 0.4 to 1.3 times the SVD of the whole matrix at this aspect, but
# 1.0 to 2.0 times at 1.5 and up to 2.6 times at 1.25.  The QR cuts row
# blocks only from matrices at least 8 times as wide as tall, so these
# figures hold for the blocked QR too.
_FACTOR_FIRST_ASPECT = 2
# That QR factors row blocks of about this many entries (256 KB) in one
# batched LAPACK call; blocks of 2**12 to 2**17 entries timed alike.  The
# range route's direct residual ||M - Q B||_F is summed over blocks of the
# same size, taken along M's contiguous axis.
_TSQR_BLOCK_ENTRIES = 2**15
_EPS = float(np.finfo(np.float64).eps)

# A one-sided Jacobi SVD that has not converged in this many sweeps gives
# up; on graded spectra down to 1e-15 it took 13 at 256 x 256.
_JACOBI_MAX_SWEEPS = 60


def _set_threads_symbols(path: str):
    """Names an OpenBLAS library at ``path`` may give its thread-count
    entry point.  A build that adds a prefix or an integer-width suffix to
    ``openblas`` in its file name, as numpy's wheels do, adds the same to
    its symbols (``lib<p>openblas<s>.so`` exports
    ``<p>openblas_set_num_threads<s>``); plain builds export one of the
    last two names."""
    stem = re.split(r"[-.]", os.path.basename(path).removeprefix("lib"), maxsplit=1)[0]
    prefix, _, suffix = stem.partition("openblas")
    return (
        f"{prefix}openblas_set_num_threads{suffix}",
        "openblas_set_num_threads64_",
        "openblas_set_num_threads",
    )


def _pin_blas_threads() -> None:
    """Run every OpenBLAS loaded in this process on one thread.

    The sweeps make thousands of LAPACK calls, most on matrices with a
    few dozen rows and the largest near 1024 x 1024; threads fighting
    over them made compression several times slower on two cores, and
    the thread count changed the last bits of the cores.  The count is
    set through each library's own entry point because numpy is usually
    imported, and its OpenBLAS initialised, before this module, so
    environment variables come too late.  Libraries are found in
    ``/proc/self/maps``; where that file or the entry point does not
    exist nothing is changed.
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
        for symbol in _set_threads_symbols(path):
            set_threads = getattr(lib, symbol, None)
            if set_threads is not None:
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)
                break


_pin_blas_threads()


def _svd(arr: np.ndarray):
    """Thin SVD ``(U, s, V^T)`` through numpy's ``gesdd``, the one
    driver for every budget (see :func:`_exact_truncation`).

    Divide and conquer can fail to converge, which numpy reports as
    ``LinAlgError``; the same call on ``M^T`` then takes the matrix, and
    should that fail too, :func:`_jacobi_svd` does.
    """
    try:
        return np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    try:
        v, s, ut = np.linalg.svd(arr.T, full_matrices=False)
    except np.linalg.LinAlgError:
        return _jacobi_svd(arr)
    return ut.T, s, v.T


def _jacobi_svd(arr: np.ndarray):
    """Thin SVD ``(U, s, V^T)`` by one-sided (Hestenes) Jacobi rotations.

    Of ``M`` and ``M^T``, the one with at least as many rows as columns,
    ``T = Q_0 R``, is first reduced by a Householder QR, and the ``n``
    columns of ``X = R^T`` are rotated in round-robin rounds of disjoint
    pairs, each round's pairs at once; a pair is rotated while
    ``|x_i^T x_j| > sqrt(n) eps ||x_i|| ||x_j||``.  This always converges
    and is accurate (Demmel & Veselic, 1992), and the QR makes it
    converge in a few sweeps where the spectrum is graded, but every
    sweep passes over the whole matrix, so it serves only when ``gesdd``
    fails.  The singular values are the final column norms.
    Sorted by norm, the rotated columns' Householder ``Q`` gives ``T``'s
    right vectors, orthonormal even where columns are zero, and ``Q_0``
    times the accumulated rotations its left ones.
    """
    wide = arr.shape[0] < arr.shape[1]
    q0, r = np.linalg.qr(arr.T if wide else arr)
    # entries scaled to at most 1, so no square under- or overflows, and
    # products below sqrt(n) eps^2 count as orthogonal: that far under the
    # largest entry, no rotation changes what the SVD's rounding does not
    scale = float(np.max(np.abs(r), initial=0.0)) or 1.0
    x, n = r.T / scale, r.shape[0]
    # the rounding of an n-term inner product, as LAPACK's dgesvj takes
    # it; at eps itself, rotations that change nothing can cycle
    tol = math.sqrt(n) * _EPS
    v = np.eye(n)
    # the circle method: index n is a bye when n is odd
    ring, rounds = np.arange(n + n % 2), []
    for _ in range(len(ring) - 1):
        p, q = ring[: len(ring) // 2], ring[::-1][: len(ring) // 2]
        rounds.append((p[(p < n) & (q < n)], q[(p < n) & (q < n)]))
        ring = np.concatenate([ring[:1], np.roll(ring[1:], 1)])
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in rounds:
            xp, xq = x[:, p], x[:, q]
            alpha, beta = np.sum(xp * xp, axis=0), np.sum(xq * xq, axis=0)
            gamma = np.sum(xp * xq, axis=0)
            hit = np.abs(gamma) > tol * np.maximum(np.sqrt(alpha * beta), _EPS)
            if not hit.any():
                continue
            rotated = True
            p, q = p[hit], q[hit]
            zeta = (beta[hit] - alpha[hit]) / (2 * gamma[hit])
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = 1 / np.sqrt(1 + t * t)
            for m in (x, v):
                mp, mq = m[:, p], m[:, q]
                m[:, p], m[:, q] = c * mp - c * t * mq, c * t * mp + c * mq
        if not rotated:
            break
    else:
        raise TTCompressError(
            f"Jacobi SVD of a {arr.shape[0]} x {arr.shape[1]} matrix did not "
            f"converge in {_JACOBI_MAX_SWEEPS} sweeps"
        )
    s = np.linalg.norm(x, axis=0) * scale
    order = np.argsort(-s, kind="stable")
    q, r = np.linalg.qr(x[:, order])
    right = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    left = q0 @ v[:, order]
    return (right, s[order], left.T) if wide else (left, s[order], right.T)


def svd_truncation_rank(singular_values: np.ndarray, delta: float) -> int:
    """Smallest rank whose discarded tail has root-sum-square <= ``delta``.

    Floor of 1: even an all-zero spectrum keeps one (zero) singular triplet
    so downstream rank chains stay well formed.
    """
    sq = np.asarray(singular_values, dtype=np.float64) ** 2
    # tail[r] = sum of squares of the values discarded when keeping r
    tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
    delta = float(delta)
    budget = delta * delta  # inf for a huge delta, where ** would raise
    # tail is nonincreasing and tail[-1] == 0, so a qualifying rank exists
    r = int(np.nonzero(tail <= budget)[0][0])
    return max(r, 1)


def _svd_rounding(rows: int, norm: float) -> float:
    """The SVD route's estimate (not a proven bound) of its own rounding
    on a matrix of ``rows`` rows and norm ``norm``: ``(2 + log2(rows)) *
    eps * norm`` (see :func:`_exact_truncation`)."""
    return (2 + math.log2(rows)) * _EPS * norm


def _checked_norm(arr: np.ndarray, delta: float) -> float:
    if not delta >= 0:  # NaN too
        raise ConfigError(f"truncation budget must be >= 0, got {delta}")
    if not np.isfinite(arr).all():
        raise DataError("matrix contains non-finite entries")
    return float(np.linalg.norm(arr))


def _tall_triangle(a: np.ndarray) -> np.ndarray:
    """``R`` of ``A = Q R`` for a tall ``m x n`` matrix, by a two-level
    blocked QR (TSQR; Demmel, Grigori, Hoemmen & Langou, 2012).

    The rows are cut into blocks of at least ``4 n`` rows and about
    ``_TSQR_BLOCK_ENTRIES`` entries, which one batched LAPACK call
    factors; the stacked triangles and the leftover rows then take one
    more QR.  Both levels are Householder QRs, so ``R`` is as backward
    stable as one QR of the whole matrix, and each block stays in cache.
    With fewer than two blocks the whole matrix takes one QR.
    """
    m, n = a.shape
    rows = max(4 * n, _TSQR_BLOCK_ENTRIES // max(n, 1))
    blocks = m // rows
    if blocks < 2:
        return np.linalg.qr(a, mode="r")
    cut = blocks * rows
    r = np.linalg.qr(a[:cut].reshape(blocks, rows, n), mode="r")
    return np.linalg.qr(np.vstack([r.reshape(blocks * n, n), a[cut:]]), mode="r")


def _kept_whole(arr: np.ndarray, rank: int):
    """``(I, M, 0.0)`` when ``rank`` keeps every row of a wide (or
    square) ``M``, else ``None``.  ``U = I`` is orthonormal and
    ``W = U^T M = M`` exactly, so nothing is dropped or rounded and the
    error is exactly 0.  The next unfolding differs from the one the
    singular vectors give only by an orthogonal rotation of its rows, so
    later ranks do not change."""
    rows, cols = arr.shape
    if rank == rows <= cols:
        return np.eye(rows), arr, 0.0
    return None


def _exact_truncation(arr: np.ndarray, delta: float, norm: float):
    """Truncation through at most one SVD, numpy's ``gesdd``
    (:func:`_svd`): ``(U, W, discarded)``.

    A matrix at least ``_FACTOR_FIRST_ASPECT`` times as wide as it is tall
    is first reduced to ``R^T`` of ``M^T = Q R``, which has ``M``'s
    singular values and left vectors, so the SVD sees only that small
    triangle (Chan's R-SVD, 1982) and never forms ``V^T`` of the wide
    matrix.  ``R`` comes from :func:`_tall_triangle`, a blocked QR (TSQR)
    as backward stable as one QR of the whole of ``M^T``.  Other matrices
    go to the SVD whole; for tall ones LAPACK takes a QR first itself.

    Before that QR, the wide matrix takes ``eigvalsh(M M^T)``.  The Gram
    product errs by at most about ``cols * eps * ||M||_F^2`` (Higham,
    2002) and its eigenvalues by ``rows * eps * ||M||_F^2`` more, so
    when the smallest exceeds ``delta^2 + (rows + cols) * eps *
    ||M||_F^2``, every singular value exceeds ``delta``, the rank keeps
    every row, and the matrix is kept whole with no QR and no SVD.  Kept
    whole is exact, so the margin decides only whether the rank is the
    one the SVD would choose, never the error certificate.  When the
    proof fails, the count of eigenvalues past the margin is a lower
    bound on the rank at ``delta``; while it is below the range finder's
    cap (a quarter of the rows, at least ``_RANGE_FIRST_BLOCK``) and
    ``delta`` is positive, :func:`_range_truncation` tries first, with
    its own certificate, and the QR runs only when no sketch certifies.

    ``W = U^T M``, not ``diag(s) V^T``, which passes the SVD's own
    rounding on to the next core; at budgets near ``eps * ||M||`` that
    rounding outgrows the budget.  When the rank keeps every row of a
    wide matrix, it is kept whole (:func:`_kept_whole`): ``U = I``,
    ``W = M`` and ``discarded = 0``, with no product or estimate formed.

    Otherwise ``discarded`` is the root-sum-square of the dropped
    singular values plus an estimate (not a proven bound) of the
    rounding.  The SVD's backward error and the carry's rounding, taken
    as ``(2 + log2(rows)) * eps * ||M||`` (:func:`_svd_rounding`), add to
    the dropped tail, since they need not be orthogonal to it; the same
    term covers ``gesdd``'s absolute error in the small singular values,
    so a budget near ``eps * ||M||`` needs no more accurate driver.
    ``U``'s columns are orthonormal only to about ``eps``, which leaves
    ``U (U^T U - I) diag(s_r)`` of the kept part, orthogonal to the tail,
    in the error.  The same certificate holds when :func:`_svd` falls
    back to the transpose or to Jacobi rotations, whose ``U`` is measured
    the same way.
    """
    rows, cols = arr.shape
    if cols >= _FACTOR_FIRST_ASPECT * rows:
        # full rank proved from the Gram (see above); where ||M||^2 or
        # delta^2 overflows, nothing is proved and the Gram is not formed
        margin = delta * delta + (rows + cols) * _EPS * norm * norm
        if margin < math.inf:
            proved = int(np.count_nonzero(np.linalg.eigvalsh(arr @ arr.T) > margin))
            if proved == rows:
                return _kept_whole(arr, rows)
            if delta > 0 and proved < rows // 4 and rows // 4 >= _RANGE_FIRST_BLOCK:
                found = _range_truncation(arr, delta, norm)
                if found is not None:
                    return found
        core = _tall_triangle(arr.T).T
    else:
        core = arr
    u, s, _ = _svd(core)
    r = svd_truncation_rank(s, delta)
    whole = _kept_whole(arr, r)
    if whole is not None:
        return whole
    u = u[:, :r]
    tail = float(np.sqrt(np.sum(s[r:] ** 2)))
    backward = _svd_rounding(rows, norm)
    defect = float(np.linalg.norm((u.T @ u - np.eye(r)) * s[:r]))
    discarded = math.hypot(tail + backward, defect)
    # M^T U is C-ordered, so W comes out F-ordered for the sweeps' reshapes
    return u, (arr.T @ u).T, discarded


def _gram_truncation(arr: np.ndarray, delta: float, norm: float):
    """Truncation through the Gram matrix of the smaller side and ``eigh``:
    ``(U, W, discarded)``, or ``None`` when the result misses ``delta``.

    ``M ~ U W``.  A wide matrix takes ``U`` from the leading eigenvectors
    of ``M M^T`` and ``W = U^T M``, or is kept whole when the rank keeps
    every row (:func:`_kept_whole`).  A tall one takes ``V_r`` from those
    of ``M^T M`` and a thin QR ``M V_r = Q R``, with ``U = Q`` and
    ``W = R V_r^T``.  For orthonormal eigenvectors the error
    ``||M - U W||_F^2`` equals ``lost = ||M||_F^2 - ||kept||_F^2``
    (``kept`` being ``W`` or ``R``), whatever the accuracy of the
    eigenvalues that chose the rank.  That difference is checked against
    ``delta^2``; ``discarded`` adds ``min(rows, cols) * eps * ||M||_F^2``
    to it, an estimate (not a proven bound) of its float error, since
    ``eigh``'s eigenvectors are orthonormal only to about
    ``min(rows, cols) * eps``.
    """
    wide = arr.shape[0] <= arr.shape[1]
    evals, evecs = np.linalg.eigh(arr @ arr.T if wide else arr.T @ arr)
    # eigh sorts ascending; rounding can leave tiny negative eigenvalues
    sigma = np.sqrt(np.maximum(evals[::-1], 0.0))
    r = svd_truncation_rank(sigma, delta)
    whole = _kept_whole(arr, r)
    if whole is not None:
        return whole
    lead = evecs[:, ::-1][:, :r]
    if wide:
        # M^T U is C-ordered, so W comes out F-ordered for the sweeps'
        # reshapes
        u = lead
        kept = w = (arr.T @ u).T
    else:
        u, kept = np.linalg.qr(arr @ lead)
        w = (lead @ kept.T).T
    lost = norm**2 - float(np.linalg.norm(kept)) ** 2
    if lost > delta * delta:
        return None
    slack = min(arr.shape) * _EPS * norm**2
    return u, w, math.sqrt(max(lost, 0.0) + slack)


def _range_truncation(arr: np.ndarray, delta: float, norm: float):
    """Truncation through a seeded randomized range finder, or ``None``.

    ``Q`` is an orthonormal basis of ``M Omega`` for Gaussian blocks of 16,
    32, 64, ... columns, up to a quarter of the smaller side (Halko,
    Martinsson & Tropp, 2011).  At the first size whose residual
    ``res = ||M - Q Q^T M||_F`` is within ``delta / sqrt(2)``,
    ``B = Q^T M`` is truncated by the direct route with the budget
    ``sqrt(delta^2 - res^2)``.  The residual and ``B``'s loss lie in
    orthogonal complements, so ``U = Q U_B``, ``W = W_B`` lose
    ``sqrt(res^2 + lost_B^2)``.  At budgets of at least
    ``GRAM_MIN_RELATIVE_BUDGET`` times the norm, ``res^2`` is the
    difference of squares ``||M||_F^2 - ||B||_F^2``, and the certificate
    adds the Gram route's own slack, ``min(rows, cols) * eps *
    ||M||_F^2``; below them it is measured directly by
    :func:`_residual_squared`, one block along ``M``'s contiguous axis at
    a time, so no ``m x n`` temporary is formed.  The SVD route tries
    smaller wide matrices too (:func:`_exact_truncation`).  Returns
    ``None`` when no size certifies, or as soon as none can: the singular
    values decrease, so each column up to the cap is taken to capture at
    most the energy per column that the last block captured, and when
    even that leaves more than ``delta^2 / 2`` uncaptured, no further
    sketch is drawn.
    """
    rng = np.random.default_rng(_RANGE_SEED)
    sketch = np.empty((arr.shape[0], 0))
    cap = min(arr.shape) // 4
    k = _RANGE_FIRST_BLOCK
    missed = norm * norm  # energy outside the sketch's range
    squares = GRAM_MIN_RELATIVE_BUDGET * norm <= delta
    slack = min(arr.shape) * _EPS * norm * norm if squares else 0.0
    while k <= cap:
        block = k - sketch.shape[1]
        omega = rng.standard_normal((arr.shape[1], block))
        sketch = np.hstack([sketch, arr @ omega])
        q = np.linalg.qr(sketch)[0]
        b = q.T @ arr
        b_norm = float(np.linalg.norm(b))
        if squares:
            res2 = max(norm * norm - b_norm * b_norm, 0.0)
        else:
            res2 = _residual_squared(arr, q, b)
        if res2 <= delta * delta / 2:
            budget = math.sqrt(delta * delta - res2)
            u, w, lost = _direct_truncation(b, budget, b_norm)
            return q @ u, w, math.sqrt(res2 + slack + lost * lost)
        per_column = (missed - res2) / block
        missed = res2
        if missed - (cap - k) * per_column > delta * delta / 2:
            return None
        k *= 2
    return None


def _residual_squared(arr: np.ndarray, q: np.ndarray, b: np.ndarray) -> float:
    """``||M - Q B||_F^2``, summed over blocks of about
    ``_TSQR_BLOCK_ENTRIES`` entries taken along ``M``'s contiguous axis:
    column blocks of the sweeps' column-major unfoldings, row blocks of a
    C-ordered ``M``.  Every block is formed in one buffer, so no ``m x n``
    temporary is formed and no block is a strided gather."""
    if arr.flags.f_contiguous:
        # ||M - Q B|| = ||M^T - B^T Q^T||, whose rows are M's columns
        arr, q, b = arr.T, b.T, q.T
    rows = max(1, _TSQR_BLOCK_ENTRIES // arr.shape[1])
    buffer = np.empty((min(rows, arr.shape[0]), arr.shape[1]))
    total = 0.0
    for start in range(0, arr.shape[0], rows):
        part = arr[start : start + rows]
        resid = buffer[: len(part)]
        np.matmul(q[start : start + rows], b, out=resid)
        resid -= part  # the sign does not matter
        total += float(np.vdot(resid, resid))
    return total


def _direct_truncation(arr: np.ndarray, delta: float, norm: float):
    """The Gram route, checked, or else the SVD: ``(U, W, discarded)``.

    The SVD route is :func:`_exact_truncation`: it factors the long side
    of a wide matrix first and carries ``U^T M``, never ``diag(s) V^T``.
    """
    if 0.0 < GRAM_MIN_RELATIVE_BUDGET * norm <= delta:
        found = _gram_truncation(arr, delta, norm)
        if found is not None:
            return found
    return _exact_truncation(arr, delta, norm)


def _truncated_svd_arrays(arr: np.ndarray, delta: float, norm: Optional[float] = None):
    """numpy-level truncation used by the tensor-train sweeps.

    Returns ``(U, W, discarded_energy)`` with ``M ~ U @ W``: ``U`` has
    orthonormal columns, ``W = U^T M`` (to rounding, on every route) is the
    carry the sweeps fold into the next core, and the rank is the smallest
    whose discarded energy is within ``delta``.

    Three routes:

    * range: a matrix whose smaller side is at least ``RANGE_MIN_SIDE``
      and whose budget is positive first tries
      :func:`_range_truncation`, which needs a few tall products instead
      of a factorization of the whole matrix when its numerical rank is
      small, and forms no temporary of the whole matrix's size;
      ``B = Q^T M`` then takes one of the two routes below.  When no
      sketch size certifies, the matrix goes on to those routes itself.
    * Gram: a budget of at least ``GRAM_MIN_RELATIVE_BUDGET`` times the
      norm goes through the Gram matrix of the smaller side, which is far
      cheaper than an SVD when that side is short; the error is checked
      afterwards and the SVD runs instead when it exceeds ``delta``.
    * SVD: smaller budgets, zero among them, and the zero matrix go to
      numpy's ``gesdd`` (:func:`_svd`; when it fails to converge, on the
      transpose and then by Jacobi rotations).  A matrix at least twice
      as wide as it is tall first takes the eigenvalues of its Gram,
      which can prove that the rank keeps every row before any
      factorization; when fewer of them than the range finder's cap
      clear the proof's margin, the range route goes first, whatever the
      size.  Otherwise it is factored by a QR of its long side, and the
      SVD sees only the small triangular factor
      (:func:`_exact_truncation`).  ``W`` is ``U^T M``,
      not ``diag(s) V^T``, whose rounding would reach the next core.

    On the Gram and SVD routes, a wide (or square) matrix whose rank keeps
    every row is returned whole, ``(I, M, 0.0)``: nothing is dropped or
    rounded, and the next unfolding differs from the one the singular
    vectors give only by an orthogonal rotation of its rows.

    ``discarded_energy`` is ``||M - U W||_F``: exactly 0 for a matrix
    kept whole.  Otherwise, on the Gram path it is a difference of
    squares, and it also holds
    ``min(rows, cols) * eps * ||M||_F^2``, an estimate (not a proven
    bound) of that difference's float error: eigenvectors from ``eigh``
    are orthonormal only to about ``min(rows, cols) * eps``.  So it can
    exceed ``delta`` by that much.  The range route's residual is the
    same kind of difference of squares, with the same slack, at those
    budgets and is measured directly below them; it adds what ``B``'s
    route discards.  On the
    SVD route it is the root-sum-square of the dropped singular values
    plus an estimate of the rounding, a few ``eps * ||M||_F`` (see
    :func:`_exact_truncation`), or the range route's account where a
    sketch certifies there.

    A caller that has already checked ``M`` to be finite and ``delta`` to
    be non-negative, and computed ``||M||_F``, passes it as ``norm``.
    """
    if norm is None:
        norm = _checked_norm(arr, delta)
    if delta > 0 and min(arr.shape) >= RANGE_MIN_SIDE:
        found = _range_truncation(arr, delta, norm)
        if found is not None:
            return found
    return _direct_truncation(arr, delta, norm)


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
    returned with ``converged=False``.  ``dims`` are the operator's
    ``(rows, cols)``, each at least 1, and ``max_iterations`` is at
    least 1.
    """
    if not 0 < tol < 1:
        raise ConfigError(f"tolerance must be in (0, 1), got {tol}")
    if not max_iterations >= 1:
        raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
    if min(dims) < 1:
        raise ShapeError(f"operator extents must all be >= 1, got {tuple(dims)}")
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
