"""Tensor-train representation and its core algorithms.

A d-dimensional tensor is stored as a chain of order-3 cores; the entry at
a multi-index is the product of one matrix slice per core (Oseledets,
2011).  This module provides the sequential truncated-SVD decomposition of
a dense tensor, the QR+SVD rank-reduction sweep for inflated chains (for
stacks, with each part orthogonalized on its own), element access, full
reconstruction, norm-from-cores, the compression ratio, and the two exact
combination primitives used by streaming compression: concatenation along
an existing dimension and stacking along a new trailing dimension.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor, _freeze, index_rows
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    IndexRangeError,
    ShapeError,
    StructureError,
)
from .lowrank import _qr_arrays, _truncated_svd_arrays

DEFAULT_FULL_CAP_ENTRIES = 2**31
FULL_CAP_ENV_VAR = "QTT_MEMORY_CAP_ENTRIES"


@dataclass(frozen=True)
class TTTensor:
    """Chain of order-3 cores; core ``k`` has shape ``(r_{k-1}, n_k, r_k)``.

    Boundary ranks are 1, so the slice product ``X_1(i_1) ... X_d(i_d)``
    is a 1x1 matrix holding the tensor entry.
    """

    cores: tuple

    def __post_init__(self):
        cores = tuple(_freeze(c) for c in self.cores)
        if len(cores) < 1:
            raise StructureError("a tensor train needs at least one core")
        for k, c in enumerate(cores):
            if c.ndim != 3:
                raise StructureError(f"core {k + 1} is not order-3")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise StructureError("boundary ranks must equal 1")
        for k in range(1, len(cores)):
            if cores[k - 1].shape[2] != cores[k].shape[0]:
                raise StructureError(
                    f"rank chain broken between cores {k} and {k + 1}: "
                    f"{cores[k - 1].shape[2]} != {cores[k].shape[0]}"
                )
        object.__setattr__(self, "cores", cores)

    @property
    def ndim(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def core_entry_count(self) -> int:
        return sum(c.size for c in self.cores)


def zero_tt(dims) -> TTTensor:
    """All-zero tensor with every rank equal to 1."""
    return TTTensor(tuple(np.zeros((1, int(n), 1)) for n in dims))


def constant_tt(dims, value: float) -> TTTensor:
    """Rank-1 representation of a constant tensor."""
    dims = tuple(int(n) for n in dims)
    cores = [np.full((1, dims[0], 1), float(value))]
    cores += [np.ones((1, n, 1)) for n in dims[1:]]
    return TTTensor(tuple(cores))


def _check_tolerance(tau_rel_frob: float) -> None:
    if not tau_rel_frob >= 0:  # NaN too
        raise ConfigError(f"tolerance must be >= 0, got {tau_rel_frob}")


def tt_svd(t: DenseTensor, tau_rel_frob: float) -> TTTensor:
    """Compress a dense tensor to TT form with a relative Frobenius bound.

    Sequential sweep of truncated SVDs over the unfolding matrices, each
    step given the absolute budget ``tau * ||X||_F / sqrt(d - 1)``; the
    discarded pieces are mutually orthogonal, so the result Y satisfies
    ``||X - Y||_F <= tau * ||X||_F``.

    A 1-dimensional input is stored exactly as a single core (there is no
    second mode to truncate against), and a zero tensor short-circuits to
    the all-zero rank-1 train.
    """
    return _tt_svd(t, tau_rel_frob)[0]


def _tt_svd(t: DenseTensor, tau_rel_frob: float):
    """:func:`tt_svd` and its certified error: ``(train, lost)`` with
    ``||X - train||_F <= lost``, the root-sum-square of what the steps
    discarded (their pieces are mutually orthogonal).  This holds in
    exact arithmetic; float rounding is covered by the estimate that
    :func:`_truncated_svd_arrays` adds on its Gram path."""
    _check_tolerance(tau_rel_frob)
    if not np.isfinite(t.values).all():
        raise DataError("tensor contains non-finite entries")
    dims = t.dims
    d = len(dims)
    norm = float(np.linalg.norm(t.values))
    if norm == 0.0:
        return zero_tt(dims), 0.0
    if d == 1:
        return TTTensor((t.values.reshape((1, dims[0], 1)),)), 0.0

    delta = tau_rel_frob * norm / math.sqrt(d - 1)
    m = t.values.reshape((dims[0], -1), order="F")
    cores = []
    lost2 = 0.0
    r_prev = 1
    for k in range(d - 1):
        u, m, discarded = _truncated_svd_arrays(m, delta)
        lost2 += discarded**2
        r = u.shape[1]
        cores.append(u.reshape((r_prev, dims[k], r), order="F"))
        if k < d - 2:
            m = m.reshape((r * dims[k + 1], -1), order="F")
        r_prev = r
    cores.append(m.reshape((r_prev, dims[-1], 1), order="F"))
    return TTTensor(tuple(cores)), math.sqrt(lost2)


def _prefix_vectors(cores, idx):
    """Row vectors of every distinct index prefix, contracted left to right.

    ``idx`` holds one 0-based digit per core and row.  Returns the vectors
    and, per row, the position of its prefix's vector; rows sharing a
    prefix share its products.
    """
    vecs = np.ones((1, 1))
    ids = np.zeros(len(idx), dtype=np.int64)
    for k, core in enumerate(cores):
        n = core.shape[1]
        keys, ids = np.unique(ids * n + idx[:, k], return_inverse=True)
        parent, digit = np.divmod(keys, n)
        nxt = np.empty((len(keys), core.shape[2]))
        order = np.argsort(digit, kind="stable")
        cuts = np.flatnonzero(np.diff(digit[order])) + 1
        for rows in np.split(order, cuts):
            nxt[rows] = vecs[parent[rows]] @ core[:, digit[rows[0]], :]
        vecs = nxt
    return vecs, ids


def tt_gather(t: TTTensor, indices) -> np.ndarray:
    """Entries at many 1-based multi-indices, one per row of ``indices``.

    The cores left of the largest rank are contracted left to right and
    the others right to left, each distinct prefix and suffix of the rows
    once; one row-wise dot product of the two halves finishes each entry.
    Memory is O(rows x largest rank).
    """
    idx = index_rows(indices, t.dims) - 1
    if not len(idx):
        return np.empty(0)
    split = int(np.argmax(t.ranks))
    left, left_ids = _prefix_vectors(t.cores[:split], idx[:, :split])
    right, right_ids = _prefix_vectors(
        [c.transpose(2, 1, 0) for c in reversed(t.cores[split:])],
        idx[:, split:][:, ::-1],
    )
    return np.einsum("ij,ij->i", left[left_ids], right[right_ids])


def tt_get(t: TTTensor, indices) -> float:
    """Entry at a 1-based multi-index: the product of one slice per core."""
    return float(tt_gather(t, [tuple(indices)])[0])


def _check_full_cap(dims) -> None:
    """Refuse to materialize more than the cap's entries: 2**31, or the
    QTT_MEMORY_CAP_ENTRIES environment variable, which must hold an
    integer >= 0."""
    value = os.environ.get(FULL_CAP_ENV_VAR, str(DEFAULT_FULL_CAP_ENTRIES))
    if not value.strip().isdecimal():
        raise ConfigError(
            f"{FULL_CAP_ENV_VAR} must be an integer >= 0, got {value!r}"
        )
    cap = int(value)
    total = math.prod(dims)
    if total > cap:
        raise CapacityError(
            f"materializing {total} entries exceeds the cap of {cap}"
        )


def _contract_cores(cores, r_in: int = 1) -> np.ndarray:
    """Consecutive cores, the first with ``r_in`` rows, contracted into one
    ``(r_in * n_1 ... n_k, r_out)`` matrix whose rows run column-major,
    ``r_in`` fastest (the identity when there are no cores)."""
    mat = np.eye(r_in)
    for core in cores:
        r0, n, r1 = core.shape
        # the transposed product comes out column-major, so the reshape
        # below is a view and not a copy
        mat = (core.reshape((r0, n * r1), order="F").T @ mat.T).T
        mat = mat.reshape((-1, r1), order="F")
    return mat


def tt_full(t: TTTensor) -> DenseTensor:
    """Materialize the represented tensor densely.

    Refuses to allocate more than 2**31 entries, or the cap set by the
    QTT_MEMORY_CAP_ENTRIES environment variable, so tensorized datasets
    are not expanded by accident.
    """
    _check_full_cap(t.dims)
    return DenseTensor(t.dims, _contract_cores(t.cores).reshape(-1, order="F"))


def tt_norm(t: TTTensor) -> float:
    """Frobenius norm of the represented tensor, computed from the cores.

    The right-to-left QR sweep of :func:`_orthogonalize` leaves every core
    but the first with orthonormal rows, which do not change the norm, so
    the first core carries it all.  No dense materialization.
    """
    return float(np.linalg.norm(_orthogonalize(t.cores)[0]))


def tt_round(t: TTTensor, tau_rel_frob: float) -> TTTensor:
    """Shrink inflated TT ranks while keeping the result within tolerance.

    Two sweeps: a right-to-left QR pass makes every core but the first
    right-orthogonal, then a left-to-right truncated-SVD pass trims ranks
    against the budget ``tau * ||X||_F / sqrt(d - 1)`` per step.  The QR
    pass keeps every column of each economy QR, so there a rank
    ``r_{k-1}`` only shrinks to ``n_k * r_k`` when it exceeds it; all
    other trimming is left to the SVD pass, which measures what it drops.
    (Cutting at a rank counted from an unpivoted QR's diagonal can drop a
    needed direction when stacked parts are linearly dependent.)  The
    output satisfies
    ``||X - Y||_F <= tau * ||X||_F`` relative to the input train, and no
    rank ever increases.
    """
    return _tt_round(t, tau_rel_frob)[0]


def _tt_round(t: TTTensor, tau_rel_frob: float):
    """:func:`tt_round` and its certified error: ``(train, lost)`` with
    ``||X - train||_F <= lost``.  After the orthogonalization the cores
    right of the SVD step are orthonormal and those left of it too, so
    the discarded pieces are mutually orthogonal, as in TT-SVD."""
    return _round_orthogonal(
        TTTensor(tuple(_orthogonalize(t.cores))), tau_rel_frob
    )


def _orthogonalize(cores) -> list:
    """Right-to-left QR sweep: every core but the first becomes
    right-orthogonal (its ``(r0, n * r1)`` unfolding has orthonormal
    rows) and the first carries the whole norm.  Each economy QR keeps
    every column, so a rank ``r_{k-1}`` only shrinks to ``n_k * r_k``
    when it exceeds it."""
    cores = list(cores)
    for k in range(len(cores) - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        mat = cores[k].reshape((r0, n * r1), order="F")
        q, r_fact = _qr_arrays(mat.T)
        rank = q.shape[1]
        cores[k] = q.T.reshape((rank, n, r1), order="F")
        left = cores[k - 1]
        l0, ln, lr = left.shape
        folded = left.reshape((l0 * ln, lr), order="F") @ r_fact.T
        cores[k - 1] = folded.reshape((l0, ln, rank), order="F")
    return cores


def _orthogonal_stack(parts) -> TTTensor:
    """:func:`tt_stack_new` of the parts, each orthogonalized first.

    The stack is then right-orthogonal apart from its first core: its
    interior cores are block-diagonal in right-orthogonal blocks with
    disjoint columns, and the new trailing core is the identity.  So
    :func:`_round_orthogonal` rounds it without a joint QR sweep, which
    at arity 2 costs about four times the QR flops of the parts' own.
    """
    return tt_stack_new(
        [TTTensor(tuple(_orthogonalize(p.cores))) for p in parts]
    )


def _round_orthogonal(
    t: TTTensor, tau_rel_frob: float, abs_budget: float = 0.0
):
    """The truncation sweep of :func:`_tt_round` on a train whose cores
    right of the first are already right-orthogonal: ``(train, lost)``,
    spending ``max(tau * ||X||_F, abs_budget)``."""
    _check_tolerance(tau_rel_frob)
    d = t.ndim
    if d == 1:
        return t, 0.0

    cores = list(t.cores)
    # the entire norm sits in the first core
    norm = float(np.linalg.norm(cores[0]))
    if norm == 0.0:
        return zero_tt(t.dims), 0.0
    delta = max(tau_rel_frob * norm, abs_budget) / math.sqrt(d - 1)

    # left-to-right rank truncation
    lost2 = 0.0
    for k in range(d - 1):
        r0, n, r1 = cores[k].shape
        mat = cores[k].reshape((r0 * n, r1), order="F")
        u, carry, discarded = _truncated_svd_arrays(mat, delta)
        lost2 += discarded**2
        rank = u.shape[1]
        cores[k] = u.reshape((r0, n, rank), order="F")
        nxt = cores[k + 1]
        n0, nn, nr = nxt.shape
        folded = carry @ nxt.reshape((n0, nn * nr), order="F")
        cores[k + 1] = folded.reshape((rank, nn, nr), order="F")
    return TTTensor(tuple(cores)), math.sqrt(lost2)


def compression_ratio(t: TTTensor) -> float:
    """Original entry count divided by total core entry count."""
    return math.prod(t.dims) / t.core_entry_count


def _concat_trains(parts, ax: int) -> TTTensor:
    """Concatenate trains of equal order along mode ``ax`` (0-based).

    Each core becomes a zero-padded block combination of the parts'
    cores: interior ranks add, the first core shares its single row and
    the last its single column, and along mode ``ax`` each part's block
    takes its own range of indices.  Values are copied without
    arithmetic, so reconstruction equals the dense concatenation exactly.
    """
    dims = parts[0].dims
    for p in parts[1:]:
        if p.ndim != len(dims):
            raise ShapeError(f"rank mismatch: {p.ndim} != {len(dims)}")
        for k, (n, m) in enumerate(zip(p.dims, dims)):
            if k != ax and n != m:
                raise ShapeError(f"dims differ on axis {k + 1}: {n} != {m}")
    last = len(dims) - 1
    cores = []
    for k in range(len(dims)):
        blocks = [p.cores[k] for p in parts]
        rows = 1 if k == 0 else sum(b.shape[0] for b in blocks)
        cols = 1 if k == last else sum(b.shape[2] for b in blocks)
        n_out = sum(b.shape[1] for b in blocks) if k == ax else dims[k]
        core = np.zeros((rows, n_out, cols))
        r = i = c = 0
        for b in blocks:
            r0, n, r1 = b.shape
            modes = slice(i, i + n) if k == ax else slice(None)
            core[r : r + r0, modes, c : c + r1] = b
            r += r0 if k > 0 else 0
            i += n
            c += r1 if k < last else 0
        cores.append(core)
    return TTTensor(tuple(cores))


def tt_concat_existing(a: TTTensor, b: TTTensor, dim: int) -> TTTensor:
    """Concatenate two trains along an existing dimension (1-based).

    Interior ranks add; reconstruction equals the dense concatenation
    exactly.
    """
    if not 1 <= dim <= a.ndim:
        raise IndexRangeError(f"axis {dim} out of range 1..{a.ndim}")
    return _concat_trains([a, b], dim - 1)


def tt_stack_new(parts) -> TTTensor:
    """Stack trains with identical dims along a new trailing dimension.

    Each part gains a trailing mode of extent 1, and the parts are
    concatenated along it: the first cores are joined horizontally,
    interior cores become block-diagonal, and the new final core's slices
    are the canonical basis columns selecting one part per trailing
    index.  Exact: entry ``(..., k)`` of the result equals entry ``(...)``
    of part k.
    """
    parts = list(parts)
    if not parts:
        raise ShapeError("need at least one tensor to stack")
    one = np.ones((1, 1, 1))
    extended = [TTTensor(p.cores + (one,)) for p in parts]
    return _concat_trains(extended, parts[0].ndim)
