"""Segment-wise streaming compression.

A run's segments, each read as the 3-D tensor of its steps, are
compressed independently (reorder particles, pad, tensorize, TT-SVD),
then merged under an explicit error budget.  One account of the error is
kept: each part's ledger (``CompressedSegment.error_bound``) certifies
its actual error from what its truncations discarded.
:func:`merge_stack`, the one merge, stacks parts along a new trailing
dimension, so the stacks carry the time hierarchy; its certificate is
the parts' bounds in root-sum-square plus what one rounding discards,
and that rounding spends only what the ledger leaves of the budget.
:func:`merge_tree` owns a run's budget and hands it to one
:func:`merge_stack` of every segment.  Every read maps
coordinates through ``tensorize.axis_offsets``; full reads share one
preparation and decode in file order, a block of whole time columns at a
time (:func:`decode_columns`), or leaf by leaf (:func:`decode_leaves`).
"""

import base64
import dataclasses
import functools
import hashlib
import json
import math
import numbers
import operator
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dense import DenseTensor
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    IndexRangeError,
    MergeError,
    ShapeError,
    StructureError,
)
from .lowrank import _svd_rounding
from .tensorize import (
    AxisPad,
    TensorizePlan,
    apply_plan,
    axis_offsets,
    build_plan,
    factor_dims,
    next_factorable,
)
from .tt import (
    _NORM_OVERFLOW,
    TTTensor,
    _check_full_cap,
    _contract_cores,
    _orthogonalize,
    _round_orthogonal,
    _tt_svd,
    constant_tt,
    tt_gather,
    tt_stack_new,
)

TOLERANCE_KINDS = ("nrmse", "relfrob")
REORDER_POLICIES = ("none", "segment")
# steps, spread over a segment or a run, whose positions fit the particle
# order: one step goes stale on a moving field
ORDER_STEPS = 4
SEGMENT_FILE_RE = re.compile(r"^seg_(\d+)_(\d+)\.ttc$")
# entries x largest rank per block of a region query, and values per
# block of a full reconstruction: each array stays near 8 MB
_REGION_BLOCK_VALUES = 1 << 20


@dataclass(frozen=True)
class DataStats:
    """Extrema, Frobenius norm and entry count of (unpadded) data."""

    x_min: float
    x_max: float
    frobenius_norm: float
    entry_count: int


def stats_of(arr) -> DataStats:
    arr = np.asarray(arr, dtype=np.float64)
    return DataStats(
        x_min=float(arr.min()),
        x_max=float(arr.max()),
        frobenius_norm=float(np.linalg.norm(arr.reshape(-1))),
        entry_count=int(arr.size),
    )


def combine_stats(items) -> DataStats:
    items = list(items)
    if not items:
        raise ConfigError("cannot combine an empty list of stats")
    return DataStats(
        x_min=min(s.x_min for s in items),
        x_max=max(s.x_max for s in items),
        frobenius_norm=float(
            math.sqrt(sum(s.frobenius_norm**2 for s in items))
        ),
        entry_count=sum(s.entry_count for s in items),
    )


def nrmse_to_relfrob(tau_nrmse: float, stats: DataStats):
    """Relative-Frobenius tolerance equivalent to a normalized-RMSE target.

    ``(x_max - x_min) * sqrt(n) / ||X||_F * tau``.  Returns ``None`` for
    constant or all-zero data: no truncation tolerance applies, the caller
    should store the (rank-1) tensor exactly.
    """
    if not 0 < tau_nrmse < math.inf:  # NaN too
        raise ConfigError(
            f"nRMSE target must be a finite number > 0, got {tau_nrmse}"
        )
    if stats.x_max == stats.x_min or stats.frobenius_norm == 0.0:
        return None
    return (
        (stats.x_max - stats.x_min)
        * math.sqrt(stats.entry_count)
        / stats.frobenius_norm
        * tau_nrmse
    )


def error_measures(err: float, stats: DataStats):
    """``(rel_frob, nrmse)`` of an absolute Frobenius error ``err`` against
    data of ``stats``: ``err / ||X||_F`` and ``err / ((x_max - x_min) *
    sqrt(n))``, the inverse of :func:`nrmse_to_relfrob`.  Each is ``None``
    where it is undefined (zero norm, constant data)."""
    rel_frob = nrmse = None
    if stats.frobenius_norm > 0:
        rel_frob = err / stats.frobenius_norm
    if stats.x_max > stats.x_min:
        scale = (stats.x_max - stats.x_min) * math.sqrt(stats.entry_count)
        nrmse = err / scale
    return rel_frob, nrmse


def _relative_tolerance(config, stats: DataStats):
    """``config``'s target as a relative-Frobenius tolerance against data
    of ``stats``: a ``relfrob`` target as it is, an ``nrmse`` one through
    :func:`nrmse_to_relfrob` (``None`` for constant data)."""
    if config.tolerance_kind == "nrmse":
        return nrmse_to_relfrob(config.tolerance, stats)
    return config.tolerance


def _integer_in(value, lo) -> bool:
    """``value`` is an integer, not a bool, of at least ``lo``."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and lo <= value
    )


@dataclass(frozen=True)
class CompressionConfig:
    """Everything the segment pipeline needs to know.

    ``tolerance`` is a finite real number, ``segment_length`` an integer
    >= 1, neither a bool; ``0`` with kind ``relfrob`` selects lossless
    mode (keep every numerically nonzero singular value).
    ``level`` is the tensorization level of every split axis (time and
    particles of a run, every axis of a plain tensor), capped at an axis's
    factor count; ``None`` keeps every factor as its own dimension, and
    ``1`` keeps every axis whole (no tensorization); the plan comes from
    ``tensorize.build_plan``, whose split axes factor into primes up to
    ``tensorize.MAX_FACTOR``.
    ``reorder`` picks the particle order: ``"segment"`` (default) orders
    by balanced bisection (:func:`bisection_order`) of the positions, the
    first three components of the data, at :data:`ORDER_STEPS` steps
    spread over the segment, or over the run when its segments merge;
    ``"none"`` keeps the input order.
    """

    tolerance: float = 0.1
    tolerance_kind: str = "nrmse"
    segment_length: int = 32
    level: Optional[int] = None
    reorder: str = "segment"

    def __post_init__(self):
        tolerance = self.tolerance
        if (
            isinstance(tolerance, bool)
            or not isinstance(tolerance, numbers.Real)
            or not 0 <= tolerance < math.inf
        ):
            raise ConfigError(
                f"tolerance must be a finite number >= 0, got {tolerance!r}"
            )
        if self.tolerance_kind not in TOLERANCE_KINDS:
            raise ConfigError(
                f"tolerance kind must be one of {TOLERANCE_KINDS}, "
                f"got {self.tolerance_kind!r}"
            )
        if self.tolerance == 0 and self.tolerance_kind == "nrmse":
            raise ConfigError("an nRMSE target must be > 0")
        if not _integer_in(self.segment_length, 1):
            raise ConfigError(
                "segment length must be an integer >= 1, got "
                f"{self.segment_length!r}"
            )
        level = self.level
        if level is not None and not _integer_in(level, 1):
            raise ConfigError(f"level must be an integer >= 1, got {level!r}")
        if self.reorder not in REORDER_POLICIES:
            raise ConfigError(
                f"reorder policy must be one of {REORDER_POLICIES}, "
                f"got {self.reorder!r}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class CompressedSegment:
    """A compressed piece of a run plus everything needed to undo it.

    ``time_range`` holds inclusive global step indices.  A merged segment
    carries extra trailing stack dimensions on its train, past the plan's
    (:attr:`stack_dims`); each stacked leaf covers
    ``part_time_extents[j]`` real timesteps (padding copies excluded).
    ``permutations`` is ``None`` or one permutation of the particles
    for the whole segment, checked here; the reorder policy
    (:attr:`reorder`) follows from it.
    ``error_bound`` is the certified absolute Frobenius error against
    this segment's own unpadded data, from the ledger of discarded
    energies (``None`` when unknown, as in archives written without it).
    It and the statistics must be finite, and ``stats.entry_count`` must
    be the integer count of the segment's steps times its other extents.
    """

    tt: TTTensor
    plan: TensorizePlan
    permutations: Optional[np.ndarray]
    time_range: tuple
    part_time_extents: tuple
    stats: DataStats
    error_bound: Optional[float] = None

    def __post_init__(self):
        # integers, so step arithmetic and indexing cannot fail later
        for name in ("time_range", "part_time_extents"):
            steps = tuple(map(operator.index, getattr(self, name)))
            object.__setattr__(self, name, steps)
        plan_dims = self.plan.tensorized_dims()
        if self.tt.dims[: len(plan_dims)] != plan_dims:
            raise StructureError(
                f"train dims {self.tt.dims} do not start with the plan's "
                f"{plan_dims}"
            )
        if len(self.part_time_extents) != math.prod(self.stack_dims):
            raise StructureError(
                "per-leaf time extents do not match the stack shape"
            )
        n_t = self.plan.original_dims[0]
        if not all(0 <= n <= n_t for n in self.part_time_extents):
            raise StructureError(
                f"leaf time extents {self.part_time_extents} must each lie "
                f"in 0..{n_t}"
            )
        first, last = self.time_range
        if sum(self.part_time_extents) != last - first + 1:
            raise StructureError("time range does not match leaf extents")
        perms = _checked_permutation(self.permutations, self.plan.original_dims)
        object.__setattr__(self, "permutations", perms)
        stats = self.stats
        x_min = _finite(stats.x_min, "minimum")
        if not x_min <= _finite(stats.x_max, "maximum"):
            raise StructureError(f"minimum {x_min} is above the maximum")
        _finite(stats.frobenius_norm, "norm", True)
        count = stats.entry_count
        expected = self.total_steps * math.prod(self.plan.original_dims[1:])
        if (
            isinstance(count, bool)
            or not isinstance(count, numbers.Integral)
            or count != expected
        ):
            raise StructureError(
                f"entry count {count!r} is not {self.total_steps} steps of "
                f"{self.plan.original_dims[1:]}"
            )
        if self.error_bound is not None:
            bound = _finite(self.error_bound, "error bound", True)
            object.__setattr__(self, "error_bound", bound)

    @property
    def stack_dims(self) -> tuple:
        """The train's dims past the plan's: one per stacking merge
        (archives written before the one-level merge have several)."""
        return self.tt.dims[len(self.plan.tensorized_dims()) :]

    @property
    def reorder(self) -> str:
        """The reorder policy: ``"none"`` without a permutation, else
        ``"segment"``."""
        return "none" if self.permutations is None else "segment"

    @property
    def total_steps(self) -> int:
        return self.time_range[1] - self.time_range[0] + 1

    @property
    def compression_ratio(self) -> float:
        """Unpadded original entries per stored core entry."""
        return self.stats.entry_count / self.tt.core_entry_count

    @functools.cached_property
    def inverse_permutations(self) -> Optional[np.ndarray]:
        """Sorted position of each original particle; ``None`` without
        reordering."""
        perms = self.permutations
        return None if perms is None else np.argsort(perms)


def _checked_permutation(perms, dims) -> Optional[np.ndarray]:
    """``perms`` as an array, or ``None``; a :class:`StructureError`
    unless it is ``None`` or one permutation of the particles (the second
    axis) of a tensor of extents ``dims``."""
    if perms is None:
        return None
    perms = np.asarray(perms)
    if (
        perms.ndim != 1
        or perms.shape != dims[1:2]  # () for 1-D dims
        or not np.array_equal(np.sort(perms), np.arange(len(perms)))
    ):
        raise StructureError(
            f"a permutation of shape {perms.shape} does not permute the "
            f"particles of {dims}"
        )
    return perms


def _finite(value, what: str, nonnegative: bool = False) -> float:
    """``value`` as a float; a :class:`StructureError` unless it is a
    finite real number, and ``>= 0`` when ``nonnegative`` (NaN fails)."""
    top = sys.float_info.max
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (0.0 if nonnegative else -top) <= value <= top
    ):
        raise StructureError(
            f"{what} {value!r} is not a finite number"
            + (" >= 0" if nonnegative else "")
        )
    return float(value)


def _data_stats(data: DenseTensor, first_step: int = 0) -> DataStats:
    """Statistics of ``data``, whose first axis counts steps from
    ``first_step``; a :class:`DataError` names the first step that holds
    a NaN or an infinity, or the overflow of finite data's squared norm."""
    with np.errstate(over="ignore"):
        stats = stats_of(data.values)
    if not (math.isfinite(stats.x_min) and math.isfinite(stats.x_max)):
        # column-major values: the time index runs fastest
        steps = np.flatnonzero(~np.isfinite(data.values)) % data.dims[0]
        raise DataError(
            f"timestep {first_step + steps.min()}: the data holds non-finite "
            "values (NaN or infinity)"
        )
    if not math.isfinite(stats.frobenius_norm):
        raise DataError(_NORM_OVERFLOW)
    return stats


def _compress(
    data: DenseTensor,
    plan: TensorizePlan,
    config: CompressionConfig,
    stats: DataStats,
    perms: Optional[np.ndarray] = None,
    first_step: int = 0,
) -> CompressedSegment:
    """TT-SVD of ``data`` (already in particle order) under ``plan``.

    Constant (or zero) data is exactly rank 1 after any reshaping and is
    stored as such.  The tolerance is relative to the unpadded data's
    norm (``stats``), so padding adds nothing to the budget.  The error
    bound is the one TT-SVD certifies on the padded tensor, which bounds
    the real data region's error too.
    """
    if stats.x_max == stats.x_min or stats.frobenius_norm == 0.0:
        tt, lost = constant_tt(plan.tensorized_dims(), stats.x_min), 0.0
    else:
        tau_rel = _relative_tolerance(config, stats)
        tensorized = apply_plan(data, plan)
        tt, lost = _tt_svd(tensorized, tau_rel, stats.frobenius_norm)
    n_t = data.dims[0]
    return CompressedSegment(
        tt=tt,
        plan=plan,
        permutations=perms,
        time_range=(first_step, first_step + n_t - 1),
        part_time_extents=(n_t,),
        stats=stats,
        error_bound=lost,
    )


def bisection_order(points, factors) -> np.ndarray:
    """Balanced bisection (k-d) order of ``points``, an ``(n, m)`` array,
    fitted to the digits ``factors`` of a padded extent of at least ``n``,
    least significant first, as :func:`factor_dims` lists them.

    From the most significant digit down, each group of points that
    shares the digits above is sorted along its widest coordinate (the
    largest max - min, in raw units) and cut at the next digit's slot
    boundaries, clipped to ``n``.  So every digit splits its group in
    space into as many near-equal parts as it has values, and the points
    fill the first ``n`` slots.  The sorts are stable: ties keep their
    order, and reruns repeat.  Returns ``perm``, with ``points[perm]`` in
    that order.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    perm = rows = np.arange(n)
    size = math.prod(factors)
    # non-finite points order too; compress_segment names their step
    with np.errstate(invalid="ignore", over="ignore"):
        for f in reversed(factors):
            group = rows // size  # slots sharing the digits above
            ordered = points[perm]
            starts = np.arange(0, n, size)
            width = np.maximum.reduceat(ordered, starts) - np.minimum.reduceat(
                ordered, starts
            )
            key = ordered[rows, width.argmax(axis=1)[group]]
            perm = perm[np.lexsort((key, group))]
            size //= f
    return perm


def _sampled_steps(n_t: int) -> np.ndarray:
    """:data:`ORDER_STEPS` steps spread over ``n_t``, the first and the
    last among them (fewer when ``n_t`` is smaller)."""
    k = ORDER_STEPS
    return np.unique(np.arange(k) * (n_t - 1) // (k - 1))


def _particle_order(steps) -> np.ndarray:
    """Particle permutation from ``steps``, the (particles, components)
    arrays of a segment's or a run's sampled steps: the bisection order
    of each particle's positions, its first three components, at every
    step side by side.  It fits the digits of the padded particle extent,
    ``factor_dims(next_factorable(n_p))`` as ``tensorize.build_plan``
    splits it, whatever the level: an order within one train mode cannot
    change a rank."""
    n_p, n_c = steps[0].shape
    if n_c < 3:
        raise ConfigError(
            "particle reordering needs three position components, "
            f"got {n_c}; use reorder='none'"
        )
    points = np.concatenate([s[:, :3] for s in steps], axis=1)
    return bisection_order(points, factor_dims(next_factorable(n_p)))


def _segment_array(data: DenseTensor) -> np.ndarray:
    """``data`` viewed as its (steps, particles, components) array; a
    :class:`ShapeError` unless it is 3-D."""
    if data.ndim != 3:
        raise ShapeError(
            "segment data must be 3-dimensional (steps, particles, "
            f"components), got {data.ndim} dimensions"
        )
    return data.to_numpy()


def compress_segment(
    data: DenseTensor,
    config: CompressionConfig,
    first_step: int = 0,
    permutation_override: Optional[np.ndarray] = None,
    pad_time_to: Optional[int] = None,
) -> CompressedSegment:
    """Compress one segment: the 3-D tensor of its steps, dims
    (n_t, n_p, n_c).

    Pipeline: reorder particles per ``config.reorder``, by the bisection
    order of the positions (the first three components) at
    :data:`ORDER_STEPS` steps spread over the segment, pad and tensorize
    per ``tensorize.build_plan`` at ``config.level`` (time and particles
    split, components whole; ``pad_time_to`` pads time), then TT-SVD at
    the tolerance converted with the segment's own statistics, taken from
    the raw (pre-padding) data, which must be finite.

    ``permutation_override`` pins one particle ordering across segments
    that will later be merged; it must permute the segment's particles.
    """
    arr = _segment_array(data)
    stats = _data_stats(data, first_step)

    # checked as the segment record checks it, but before the SVD
    perms = _checked_permutation(permutation_override, arr.shape)
    if perms is None and config.reorder == "segment":
        perms = _particle_order(arr[_sampled_steps(len(arr))])
    if perms is not None:
        # the transpose is row-major: take copies whole time columns, and
        # the column-major result makes the flat values below a view
        permuted = arr.T.take(perms, axis=1).T
        data = DenseTensor(arr.shape, permuted.reshape(-1, order="F"))

    # time and particles are split, components stay whole
    plan = build_plan(data.dims, config.level, 2, pad_time_to)
    return _compress(data, plan, config, stats, perms, first_step)


def compress_tensor(
    data: DenseTensor, config: CompressionConfig
) -> CompressedSegment:
    """Compress a generic dense tensor (no particle semantics).

    Every axis is factored, each at ``config.level``.  The first axis
    plays the role of time in the segment bookkeeping.
    """
    plan = build_plan(data.dims, config.level, data.ndim)
    return _compress(data, plan, config, _data_stats(data))


def _normalize_time_axis(plan: TensorizePlan) -> TensorizePlan:
    """Treat the padded time extent as original (per-leaf crops take over
    once segments are merged)."""
    return dataclasses.replace(
        plan,
        original_dims=plan.padded_dims()[:1] + plan.original_dims[1:],
        pads=tuple(p for p in plan.pads if p.axis != 1),
    )


def _check_contiguous(parts) -> None:
    """Each part's steps follow the previous part's, without gap or overlap."""
    for prev, nxt in zip(parts, parts[1:]):
        if prev.time_range[1] + 1 != nxt.time_range[0]:
            raise MergeError(
                f"time ranges are not contiguous: {prev.time_range} then "
                f"{nxt.time_range}"
            )


def combine_error_bounds(parts) -> Optional[float]:
    """Certified error of parts that cover disjoint entries: their errors
    add in squares.  ``None`` when a part's bound is unknown."""
    bounds = [p.error_bound for p in parts]
    if None in bounds:
        return None
    return math.hypot(*bounds)


def _check_mergeable(parts) -> None:
    """The parts share one particle permutation, the train dims and the
    plan up to time padding, and follow each other in time."""
    base = parts[0]
    for p in parts[1:]:
        a, b = p.permutations, base.permutations
        if (a is None) != (b is None) or (
            a is not None and not np.array_equal(a, b)
        ):
            raise StructureError(
                "parts use different particle permutations; reuse one "
                "ordering per merged group"
            )
        if p.tt.dims != base.tt.dims:
            raise MergeError(
                f"train dims differ: {p.tt.dims} != {base.tt.dims}"
            )
        if _normalize_time_axis(p.plan) != _normalize_time_axis(base.plan):
            raise MergeError("parts were tensorized under different plans")
    _check_contiguous(parts)


def _rounding_floor(parts, norm: float) -> float:
    """About the least that rounding the parts' stack certifies as lost:
    the SVD route's estimate of its own rounding, ``(2 + log2(rows)) *
    eps * norm`` per step, in root-sum-square.  Step ``k`` unfolds at most
    ``R_k n_k`` rows, ``R_k`` being the stack's rank: 1 left of the first
    core, the parts' ranks summed elsewhere."""
    dims = parts[0].tt.dims
    rows = [dims[0]] + [
        sum(p.tt.ranks[k] for p in parts) * n for k, n in enumerate(dims) if k
    ]
    return math.sqrt(sum(_svd_rounding(r, norm) ** 2 for r in rows))


def merge_stack(parts, budget: float = 0.0) -> CompressedSegment:
    """Merge segments by stacking along a new trailing dimension.

    The parts must be mergeable (:func:`_check_mergeable`).  ``budget`` is
    the merged part's relative error budget against ``||X||``, the parts'
    unpadded data norm (not the stack's, which padded time copies can
    inflate).  The parts' certified bounds add in squares (disjoint
    entries) into the ledger.  When it is known and leaves a spare of
    ``budget * ||X||`` above the float estimates the rounding itself
    would certify (:func:`_rounding_floor`), one blockwise rounding
    (:func:`~ttcompress.tt._round_orthogonal`) spends that spare alone,
    each part orthogonalized on its own and the stack never formed, and
    the bound is the ledger plus what it lost.  Otherwise, as when near
    float64's precision those estimates alone would exceed the spare,
    the stack stays exact and the bound is the ledger (``None`` if a
    part's is unknown).  So parts within a relative ``t`` merge within
    ``max(t, budget)``, inside ``t + t_r + t * t_r`` at a budget ``t_r``.
    The one check of a merge's inputs: ``budget`` must be a finite number
    ``>= 0``, the parts at least one, and a lone part comes back as it
    is.  The merged part's record is taken first, and each part is then
    popped as its orthogonalized copy is taken, so parts handed over by
    an iterator let each original train go before the rounding.
    """
    if not 0 <= budget < math.inf:  # NaN too
        raise ConfigError(
            f"merge budget must be a finite number >= 0, got {budget}"
        )
    parts = list(parts)
    if not parts:
        raise MergeError("nothing to merge")
    if len(parts) == 1:
        return parts[0]
    _check_mergeable(parts)
    ledger = combine_error_bounds(parts)
    stats = combine_stats(p.stats for p in parts)
    # the merged record, taken before the rounding lets the parts go
    record = dict(
        plan=_normalize_time_axis(parts[0].plan),
        permutations=parts[0].permutations,
        time_range=(parts[0].time_range[0], parts[-1].time_range[1]),
        part_time_extents=sum((p.part_time_extents for p in parts), ()),
        stats=stats,
    )
    spare = -math.inf
    if ledger is not None:
        spare = budget * stats.frobenius_norm - ledger
    if spare > _rounding_floor(parts, stats.frobenius_norm):
        # popped, so that a part handed over lets its train go
        orthogonal = [
            _orthogonalize(parts.pop(0).tt.cores) for _ in range(len(parts))
        ]
        merged, lost = _round_orthogonal(orthogonal, spare)
    else:
        merged, lost = tt_stack_new([p.tt for p in parts]), 0.0
    bound = None if ledger is None else ledger + lost
    return CompressedSegment(tt=merged, error_bound=bound, **record)


def merge_tree(segments, budget=None):
    """Merge ``segments`` into one part under one relative error
    ``budget``: one :func:`merge_stack` of every segment, which checks
    the budget and the segments, returns a lone segment as it is, and
    rounds the stack of several at most once, spending what the
    segments' certified errors leave of the budget.  ``budget=None``
    keeps the stack exact.  Segments handed over by an iterator are let
    go once their trains are taken.
    """
    return merge_stack(segments, 0.0 if budget is None else budget)


def compress_run(
    read,
    n_t: int,
    config: CompressionConfig,
    merge: bool = True,
    timings: Optional[dict] = None,
    on_level=None,
):
    """Compress a run of ``n_t`` steps segment by segment and merge it.

    ``read(start, stop)`` returns the 3-D :class:`DenseTensor` of steps
    [start, stop), as a run directory's reader and
    ``SnapshotBatch.time_slice`` do.  Segments are read one at a time, so
    memory holds one segment plus the compressed parts.  A run that
    merges and reorders first reads :data:`ORDER_STEPS` single steps
    spread over the run, ``read(s, s + 1)``, and orders its particles
    once from them (:func:`bisection_order`); every other step is read
    once.  Each segment is compressed against its own statistics, at
    half the target when merged: at an nRMSE target ``r`` segment ``i``
    errs by at most ``r * range_i * sqrt(n_i)``, and
    ``sum range_i^2 * n_i <= range^2 * n``.
    Merged segments share that one permutation, and one
    :func:`merge_tree` call stacks them all and rounds the stack at most
    once, spending only what their certified errors leave of the run's
    relative budget, which the merged part's ``error_bound`` thus keeps:
    every tolerance is relative to the unpadded data's norm, so it holds
    on a run whose padded last segment is short and energetic too.

    Returns the parts the run stores: ``[merged]``, or the segments when
    ``merge`` is off or the run fits in one segment.  ``on_level``, when
    given, observes the segments as a list once they are all compressed,
    and then ``[merged]`` when the run merges.  ``timings``, when given,
    receives the seconds of compression and of the merge.
    """
    seg_len = config.segment_length
    merging = merge and n_t > seg_len
    seg_config, pad, perms = config, None, None
    t0 = time.perf_counter()
    if merging:
        seg_config = dataclasses.replace(config, tolerance=config.tolerance / 2)
        pad = seg_len
        if config.reorder == "segment":
            steps = _sampled_steps(n_t)
            perms = _particle_order(
                [_segment_array(read(s, s + 1))[0] for s in steps]
            )

    parts = []  # the segments
    for start in range(0, n_t, seg_len):
        data = read(start, min(start + seg_len, n_t))
        parts.append(compress_segment(data, seg_config, start, perms, pad))
        del data  # one raw segment in memory at a time
    t1 = time.perf_counter()

    report = on_level or (lambda parts: None)
    report(list(parts))  # a copy: the merge empties ``parts``
    if merging:
        stats = combine_stats(s.stats for s in parts)
        if not math.isfinite(stats.frobenius_norm):
            raise DataError(_NORM_OVERFLOW)
        budget = _relative_tolerance(config, stats)
        # handed over, so that the merge lets each go once it is taken
        handed = (parts.pop(0) for _ in range(len(parts)))
        parts = [merge_tree(handed, budget)]
        report(list(parts))
    if timings is not None:
        timings.update(compress=t1 - t0, merge=time.perf_counter() - t1)
    return parts


def _checked_run(segs):
    """The segments as a list and their run's dims; a :class:`MergeError`
    on a gap or an overlap in time or on other non-time extents, and a
    :class:`CapacityError` on a train past the cap of :func:`tt_full`."""
    segs = list(segs)
    if not segs:
        raise MergeError("no segments to reconstruct")
    _check_contiguous(segs)
    extents = segs[0].plan.original_dims[1:]
    for seg in segs:
        if seg.plan.original_dims[1:] != extents:
            raise MergeError(
                f"segments disagree on their non-time extents: {extents} "
                f"and {seg.plan.original_dims[1:]}"
            )
        _check_full_cap(seg.tt.dims)
    return segs, (sum(seg.total_steps for seg in segs),) + extents


def _prepared(seg, extents):
    """A segment's plan matrix, its rows in original column-major order
    over its longest leaf, and its stack cores as one column per leaf."""
    box = (max(seg.part_time_extents),) + extents  # the longest leaf
    # made before the contraction's temporaries, so its memory goes back
    rows = _plan_rows(seg, np.ogrid[tuple(map(slice, box))]).ravel("F")
    n_plan = len(seg.plan.tensorized_dims())
    plan_mat = _contract_cores(seg.tt.cores[:n_plan])
    # rows put in original order in place, one column at a time, so the
    # products that decode leaves round exactly as on the contraction
    for column in plan_mat.T:
        column[: rows.size] = column[rows]
    plan_mat = plan_mat[: rows.size]
    leaf_mat = _contract_cores(seg.tt.cores[n_plan:], plan_mat.shape[1])
    return plan_mat, leaf_mat.reshape((plan_mat.shape[1], -1), order="F")


def decode_leaves(segs):
    """Decode consecutive segments of one run leaf by leaf: an iterator of
    ``(first_step, block)``, each block a leaf's real steps in original
    order, each leaf one product with its segment's plan matrix (one held
    at a time).  The run is checked as in :func:`decode_columns` first."""
    segs, dims = _checked_run(segs)
    return _decoded_leaves(segs, dims[1:])


def _decoded_leaves(segs, extents):
    for seg in segs:
        plan_mat, leaf_mat = _prepared(seg, extents)
        step = seg.time_range[0]
        for leaf, extent in enumerate(seg.part_time_extents):
            if extent == 0:
                continue
            # no reference kept, so a consumer holds one leaf at a time
            yield step, (plan_mat @ leaf_mat[:, leaf]).reshape(
                (-1,) + extents, order="F"
            )[:extent]
            step += extent


def decode_columns(segs):
    """Decode consecutive segments of one run in DT64 file order: the
    run's dims and an iterator of flat blocks of about
    ``_REGION_BLOCK_VALUES`` values, each all steps of a range of whole
    non-time columns (a row range of every plan matrix), the pair that
    :func:`~ttcompress.formats.write_dt64` takes.  The run is checked and
    the plan matrices made before it returns; then memory holds them and
    one block."""
    segs, dims = _checked_run(segs)
    parts = [(seg, *_prepared(seg, dims[1:])) for seg in segs]
    return dims, _column_blocks(parts, dims[0], math.prod(dims[1:]))


def _column_blocks(parts, n_t, n_columns):
    width = max(1, _REGION_BLOCK_VALUES // n_t)
    for j0 in range(0, n_columns, width):
        block = np.empty((n_t, min(width, n_columns - j0)), order="F")
        step = 0
        for seg, plan_mat, leaf_mat in parts:
            longest = max(seg.part_time_extents)
            rows = plan_mat[longest * j0 : longest * (j0 + width)]
            for leaf, extent in enumerate(seg.part_time_extents):
                if extent:
                    block[step : step + extent] = (rows @ leaf_mat[:, leaf]).reshape(
                        (longest, -1), order="F"
                    )[:extent]
                    step += extent
        yield block.reshape(-1, order="F")
        del block  # a consumer that drops each block holds one at a time


def reconstruct_segments(segs) -> DenseTensor:
    """Full dense reconstruction of consecutive segments of one run: the
    blocks of :func:`decode_columns`, written into one output."""
    dims, blocks = decode_columns(segs)
    values, start = np.empty(math.prod(dims)), 0
    for block in blocks:
        values[start : start + block.size] = block
        start += block.size
    return DenseTensor(dims, values)


def _plan_rows(seg: CompressedSegment, coords) -> np.ndarray:
    """Row of the contracted plan matrix behind original coordinates:
    ``coords`` holds one broadcasting array of 0-based indices per axis,
    time counted within a leaf.  Each particle goes to its sorted
    position, and :func:`axis_offsets` of just these indices undoes
    padding and interlacing."""
    coords = list(coords)
    if seg.inverse_permutations is not None:
        coords[1] = seg.inverse_permutations[coords[1]]
    return sum(axis_offsets(seg.plan, coords))


def reconstruct_segment(seg: CompressedSegment) -> DenseTensor:
    """Full dense reconstruction of one segment (see
    :func:`reconstruct_segments`)."""
    return reconstruct_segments([seg])


def _train_indices(seg: CompressedSegment, coords) -> np.ndarray:
    """1-based train multi-indices of original coordinates, one row per
    entry: the digits of its :func:`_plan_rows` row, then those of its
    stacked leaf.  ``coords`` holds one row of 0-based indices per entry,
    checked by the caller and changed in place; time counts within the
    segment and selects the leaf and the step within it."""
    bounds = np.cumsum((0,) + seg.part_time_extents)
    leaf = np.searchsorted(bounds, coords[:, 0], side="right") - 1
    coords[:, 0] -= bounds[leaf]
    rows = _plan_rows(seg, coords.T)
    digits = np.unravel_index(rows, seg.plan.tensorized_dims(), order="F")
    if seg.stack_dims:
        digits += np.unravel_index(leaf, seg.stack_dims, order="F")
    return np.column_stack(digits) + 1


def reconstruct_region(seg: CompressedSegment, region) -> DenseTensor:
    """Reconstruct a sub-box from the cores, without the full tensor.

    ``region`` lists one inclusive 1-based (lo, hi) pair per original
    axis; the time axis counts within the segment (1..total steps).  The
    output counts against the cap of :func:`~ttcompress.tt.tt_full`; the
    box is evaluated in blocks, so memory stays near the output's size.
    """
    dims = (seg.total_steps,) + seg.plan.original_dims[1:]
    region = [tuple(int(x) for x in r) for r in region]
    if len(region) != len(dims):
        raise IndexRangeError(
            f"region needs {len(dims)} axis ranges, got {len(region)}"
        )
    for (lo, hi), n in zip(region, dims):
        if not 1 <= lo <= hi <= n:
            raise IndexRangeError(
                f"region ({lo}, {hi}) out of range 1..{n}"
            )
    out_dims = tuple(hi - lo + 1 for lo, hi in region)
    corner = np.array([lo - 1 for lo, _ in region])
    _check_full_cap(out_dims)
    total = math.prod(out_dims)
    values = np.empty(total)
    block = max(1, _REGION_BLOCK_VALUES // max(seg.tt.ranks))
    for start in range(0, total, block):
        flat = np.arange(start, min(start + block, total))
        coords = np.stack(np.unravel_index(flat, out_dims, order="F"), axis=1)
        rows = _train_indices(seg, coords + corner)
        values[start : start + len(flat)] = tt_gather(seg.tt, rows)
    return DenseTensor(out_dims, values)


# --- segment store -------------------------------------------------------


def _encode_u32(arr: np.ndarray) -> str:
    return base64.b64encode(
        np.asarray(arr).astype("<u4").tobytes()
    ).decode("ascii")


def _decode_u32(blob: str, shape) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(blob), dtype="<u4")
    return flat.reshape(tuple(shape)).astype(np.int64)


def _plan_to_dict(plan: TensorizePlan) -> dict:
    return {
        "original_dims": list(plan.original_dims),
        "axis_factors": [list(f) for f in plan.axis_factors],
        "axis_levels": list(plan.axis_levels),
        "interlace": list(plan.interlace) if plan.interlace else None,
        "pads": [
            [p.axis, p.original, p.padded, "replicate"] for p in plan.pads
        ],
    }


def _plan_from_dict(d: dict) -> TensorizePlan:
    return TensorizePlan(
        original_dims=tuple(d["original_dims"]),
        axis_factors=tuple(tuple(f) for f in d["axis_factors"]),
        axis_levels=tuple(d["axis_levels"]),
        interlace=tuple(d["interlace"]) if d.get("interlace") else None,
        pads=tuple(
            AxisPad(axis=a, original=o, padded=p)
            for a, o, p, _ in d.get("pads", [])
        ),
    )


def segment_metadata(
    seg: CompressedSegment, config_hash: Optional[str] = None
) -> dict:
    from . import __version__

    meta = {
        "format": "ttc-segment",
        "time_range": list(seg.time_range),
        "part_time_extents": list(seg.part_time_extents),
        "stack_dims": list(seg.stack_dims),
        "reorder": seg.reorder,
        "plan": _plan_to_dict(seg.plan),
        "stats": dataclasses.asdict(seg.stats),
        "tool_version": __version__,
    }
    if seg.error_bound is not None:
        meta["error_bound"] = seg.error_bound
    if seg.permutations is not None:
        perms = seg.permutations
        meta["permutation"] = {
            "shape": list(perms.shape),
            "u32le_b64": _encode_u32(perms),
        }
    if config_hash is not None:
        meta["config_hash"] = config_hash
    return meta


def segment_from_parts(tt: TTTensor, meta: dict) -> CompressedSegment:
    try:
        perms = None
        if "permutation" in meta:
            perms = _decode_u32(
                meta["permutation"]["u32le_b64"], meta["permutation"]["shape"]
            )
        stats = DataStats(**meta["stats"])
        seg = CompressedSegment(
            tt=tt,
            plan=_plan_from_dict(meta["plan"]),
            permutations=perms,
            time_range=tuple(meta["time_range"]),
            part_time_extents=tuple(meta["part_time_extents"]),
            stats=stats,
            # archives written before the ledger alone budgeted merges
            # also hold a "tolerance_spent" key, which is ignored
            error_bound=meta.get("error_bound"),
        )
        # written from the train; reorder follows from the permutations
        if tuple(map(operator.index, meta["stack_dims"])) != seg.stack_dims:
            raise FormatError(
                f"stack dims {meta['stack_dims']} are not the train's "
                f"trailing dims {seg.stack_dims}"
            )
        return seg
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"segment metadata is malformed: {exc!r}") from exc


def segment_filename(seg: CompressedSegment) -> str:
    return f"seg_{seg.time_range[0]}_{seg.time_range[1]}.ttc"


def save_segment(
    directory, seg: CompressedSegment, config_hash: Optional[str] = None
) -> str:
    from .formats import write_ttc1

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, segment_filename(seg))
    write_ttc1(path, seg.tt, segment_metadata(seg, config_hash))
    return path


def load_segment(path) -> CompressedSegment:
    from .formats import read_ttc1

    tt, meta = read_ttc1(path)
    return segment_from_parts(tt, meta)


def list_segments(directory):
    """Paths of ``seg_<first>_<last>.ttc`` files sorted by first step."""
    found = []
    for name in os.listdir(directory):
        m = SEGMENT_FILE_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(found)]
