"""Tensor-train representation and its core algorithms.

A d-dimensional tensor is stored as a chain of order-3 cores; the entry at
a multi-index is the product of one matrix slice per core (Oseledets,
2011).  This module provides the sequential truncated-SVD decomposition of
a dense tensor, the QR+SVD rank-reduction sweep for inflated chains,
element access, full reconstruction, norm-from-cores, the compression
ratio, and the two exact combination primitives used by streaming
compression: concatenation along an existing dimension and stacking along
a new trailing dimension.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor, index_rows
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


def _freeze_core(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.flags.writeable:
        out = out.view()
        out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TTTensor:
    """Chain of order-3 cores; core ``k`` has shape ``(r_{k-1}, n_k, r_k)``.

    Boundary ranks are 1, so the slice product ``X_1(i_1) ... X_d(i_d)``
    is a 1x1 matrix holding the tensor entry.
    """

    cores: tuple

    def __post_init__(self):
        cores = tuple(_freeze_core(c) for c in self.cores)
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
    if tau_rel_frob < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tau_rel_frob}")
    if not np.isfinite(t.values).all():
        raise DataError("tensor contains non-finite entries")
    dims = t.dims
    d = len(dims)
    norm = float(np.linalg.norm(t.values))
    if norm == 0.0:
        return zero_tt(dims)
    if d == 1:
        return TTTensor((t.values.reshape((1, dims[0], 1)),))

    delta = tau_rel_frob * norm / math.sqrt(d - 1)
    m = t.values.reshape((dims[0], -1), order="F")
    cores = []
    r_prev = 1
    for k in range(d - 1):
        u, m, _ = _truncated_svd_arrays(m, delta)
        r = u.shape[1]
        cores.append(u.reshape((r_prev, dims[k], r), order="F"))
        if k < d - 2:
            m = m.reshape((r * dims[k + 1], -1), order="F")
        r_prev = r
    cores.append(m.reshape((r_prev, dims[-1], 1), order="F"))
    return TTTensor(tuple(cores))


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


def _check_full_cap(dims, max_entries=None) -> None:
    """Refuse to materialize more than ``max_entries`` entries (default
    2**31, or the QTT_MEMORY_CAP_ENTRIES environment variable)."""
    if max_entries is not None:
        cap = int(max_entries)
    elif FULL_CAP_ENV_VAR in os.environ:
        cap = int(os.environ[FULL_CAP_ENV_VAR])
    else:
        cap = DEFAULT_FULL_CAP_ENTRIES
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


def tt_full(t: TTTensor, max_entries=None) -> DenseTensor:
    """Materialize the represented tensor densely.

    Refuses to allocate more than ``max_entries`` entries (default 2**31,
    overridable per call or via the QTT_MEMORY_CAP_ENTRIES environment
    variable) so tensorized datasets are not expanded by accident.
    """
    _check_full_cap(t.dims, max_entries)
    return DenseTensor(t.dims, _contract_cores(t.cores).reshape(-1, order="F"))


def tt_norm(t: TTTensor) -> float:
    """Frobenius norm of the represented tensor, computed from the cores.

    A right-to-left orthogonalization pass folds each core's triangular
    factor into its left neighbour; orthonormal factors do not change the
    norm, so at the end the first core carries it all.  No dense
    materialization.
    """
    carry = None  # triangular factor to fold into the next core to the left
    for core in t.cores[:0:-1]:
        r0, n, r1 = core.shape
        mat = core.reshape((r0, n * r1), order="F")
        if carry is not None:
            mat = (mat.reshape((r0 * n, r1), order="F") @ carry).reshape(
                (r0, -1), order="F"
            )
        _, r_fact = _qr_arrays(mat.T)
        carry = r_fact.T
    first = t.cores[0].reshape((t.cores[0].shape[1], -1), order="F")
    if carry is not None:
        first = first @ carry
    return float(np.linalg.norm(first))


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
    if tau_rel_frob < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tau_rel_frob}")
    d = t.ndim
    dims = t.dims
    if d == 1:
        return TTTensor((t.cores[0],))

    cores = [np.array(c) for c in t.cores]
    # right-to-left orthogonalization
    for k in range(d - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        mat = cores[k].reshape((r0, n * r1), order="F")
        q, r_fact = _qr_arrays(mat.T)
        rank = q.shape[1]
        cores[k] = q.T.reshape((rank, n, r1), order="F")
        left = cores[k - 1]
        l0, ln, lr = left.shape
        folded = left.reshape((l0 * ln, lr), order="F") @ r_fact.T
        cores[k - 1] = folded.reshape((l0, ln, rank), order="F")

    # after the sweep the entire norm sits in the first core
    norm = float(np.linalg.norm(cores[0]))
    if norm == 0.0:
        return zero_tt(dims)
    delta = tau_rel_frob * norm / math.sqrt(d - 1)

    # left-to-right rank truncation
    for k in range(d - 1):
        r0, n, r1 = cores[k].shape
        mat = cores[k].reshape((r0 * n, r1), order="F")
        u, carry, _ = _truncated_svd_arrays(mat, delta)
        rank = u.shape[1]
        cores[k] = u.reshape((r0, n, rank), order="F")
        nxt = cores[k + 1]
        n0, nn, nr = nxt.shape
        folded = carry @ nxt.reshape((n0, nn * nr), order="F")
        cores[k + 1] = folded.reshape((rank, nn, nr), order="F")
    return TTTensor(tuple(cores))


def compression_ratio(t: TTTensor) -> float:
    """Original entry count divided by total core entry count."""
    return math.prod(t.dims) / t.core_entry_count


def tt_concat_existing(a: TTTensor, b: TTTensor, dim: int) -> TTTensor:
    """Concatenate two trains along an existing dimension (1-based).

    Every core becomes a zero-padded block combination of the two input
    cores; along the concatenation axis the two blocks occupy disjoint
    mode ranges.  Interior ranks add.  The construction copies values
    without arithmetic, so reconstruction equals the dense concatenation
    exactly.
    """
    da, db = a.ndim, b.ndim
    if da != db:
        raise ShapeError(f"rank mismatch: {da} != {db}")
    if not 1 <= dim <= da:
        raise IndexRangeError(f"axis {dim} out of range 1..{da}")
    ax = dim - 1
    for k in range(da):
        if k != ax and a.dims[k] != b.dims[k]:
            raise ShapeError(
                f"dims differ on axis {k + 1}: {a.dims[k]} != {b.dims[k]}"
            )
    d = da
    na, nb = a.dims[ax], b.dims[ax]
    cores = []
    for k in range(d):
        ca, cb = a.cores[k], b.cores[k]
        rows_a, cols_a = ca.shape[0], ca.shape[2]
        rows_b, cols_b = cb.shape[0], cb.shape[2]
        row_off = rows_a if k > 0 else 0
        col_off = cols_a if k < d - 1 else 0
        n_out = na + nb if k == ax else a.dims[k]
        core = np.zeros((row_off + rows_b, n_out, col_off + cols_b))
        if k == ax:
            core[:rows_a, :na, :cols_a] = ca
            core[row_off:, na:, col_off:] = cb
        else:
            core[:rows_a, :, :cols_a] = ca
            core[row_off:, :, col_off:] = cb
        cores.append(core)
    return TTTensor(tuple(cores))


def tt_stack_new(parts) -> TTTensor:
    """Stack trains with identical dims along a new trailing dimension.

    The first cores are concatenated horizontally, interior cores become
    block-diagonal, and the new final core's slices are the canonical
    basis columns selecting one part per trailing index.  Exact: entry
    ``(..., k)`` of the result equals entry ``(...)`` of part k.
    """
    parts = list(parts)
    if not parts:
        raise ShapeError("need at least one tensor to stack")
    dims = parts[0].dims
    for p in parts[1:]:
        if p.dims != dims:
            raise ShapeError(f"dims differ across parts: {p.dims} != {dims}")
    d = len(dims)
    n_parts = len(parts)
    cores = []
    for k in range(d):
        blocks = [p.cores[k] for p in parts]
        rows = [b.shape[0] for b in blocks]
        cols = [b.shape[2] for b in blocks]
        if k == 0:
            core = np.zeros((1, dims[k], sum(cols)))
        else:
            core = np.zeros((sum(rows), dims[k], sum(cols)))
        ro = co = 0
        for b, nr, nc in zip(blocks, rows, cols):
            if k == 0:
                core[0:1, :, co : co + nc] = b
            else:
                core[ro : ro + nr, :, co : co + nc] = b
            ro += nr
            co += nc
        cores.append(core)
    # trailing core: slice i is the i-th canonical basis column
    basis = np.eye(n_parts).reshape((n_parts, n_parts, 1))
    cores.append(basis)
    return TTTensor(tuple(cores))
