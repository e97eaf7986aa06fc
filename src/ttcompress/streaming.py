"""Segment-wise streaming compression.

Incoming snapshot batches are compressed independently (reorder particles,
pad, tensorize, TT-SVD), then merged under an explicit error budget.  Two
accounts are kept.  A priori, if every part meets relative tolerance ``t``
and the merge is rounded at ``t_r``, the combination meets
``t + t_r + t * t_r``; this governs :func:`merge_stack` and
:func:`merge_concat`.  The ledger certifies each part's actual error from
what its truncations discarded (``CompressedSegment.error_bound``).
:func:`merge_tree` owns a run's budget: it rounds every level below the
last at the equal a-priori split and the last level at what the ledger
leaves of the budget.  Stacking along a new trailing dimension preserves
tensorized time hierarchies; plain concatenation serves untensorized
streaming axes.
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

from .dense import DenseTensor, index_rows
from .errors import (
    ConfigError,
    IndexRangeError,
    MergeError,
    PlanError,
    StructureError,
)
from .morton import DEFAULT_BITS, fit_domain, morton_sort
from .synthdata import SnapshotBatch
from .tensorize import (
    AxisPad,
    TensorizePlan,
    apply_plan,
    factor_dims,
    next_factorable,
    original_view,
)
from .tt import (
    TTTensor,
    _check_full_cap,
    _concat_trains,
    _contract_cores,
    _orthogonal_stack,
    _round_orthogonal,
    _tt_round,
    _tt_svd,
    constant_tt,
    tt_gather,
    tt_stack_new,
    zero_tt,
)

TOLERANCE_KINDS = ("nrmse", "relfrob")
REORDER_POLICIES = ("none", "segment", "timestep")
SEGMENT_FILE_RE = re.compile(r"^seg_(\d+)_(\d+)\.ttc$")
# entries x largest rank per block of a region query, which keeps each
# array of prefix vectors near 8 MB
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


@dataclass(frozen=True)
class CompressionConfig:
    """Everything the segment pipeline needs to know.

    ``tolerance`` is a finite target; ``0`` with kind ``relfrob`` selects
    lossless mode (keep every numerically nonzero singular value).
    ``level`` is the tensorization level of every split axis (time and
    particles of a run, every axis of a plain tensor), capped at an axis's
    factor count; ``None`` keeps every factor as its own dimension.
    ``reorder`` picks the Morton policy: one permutation per segment
    (default), one per timestep (requires 3-component position-like data),
    or none.
    """

    tolerance: float = 0.1
    tolerance_kind: str = "nrmse"
    segment_length: int = 32
    merge_arity: int = 2
    tensorize: bool = True
    max_factor: int = 5
    level: Optional[int] = None
    reorder: str = "segment"
    morton_bits: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.tolerance < math.inf:
            raise ConfigError(
                f"tolerance must be a finite number >= 0, got {self.tolerance}"
            )
        if self.tolerance_kind not in TOLERANCE_KINDS:
            raise ConfigError(
                f"tolerance kind must be one of {TOLERANCE_KINDS}, "
                f"got {self.tolerance_kind!r}"
            )
        if self.tolerance == 0 and self.tolerance_kind == "nrmse":
            raise ConfigError("an nRMSE target must be > 0")
        if self.segment_length < 1:
            raise ConfigError("segment length must be >= 1")
        if self.merge_arity < 2:
            raise ConfigError("merge arity must be >= 2")
        if self.max_factor < 2:
            raise ConfigError("factor cap must be >= 2")
        if self.reorder not in REORDER_POLICIES:
            raise ConfigError(
                f"reorder policy must be one of {REORDER_POLICIES}, "
                f"got {self.reorder!r}"
            )
        if self.morton_bits is not None and not 1 <= self.morton_bits <= 21:
            raise ConfigError("morton bits must be in 1..21")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class CompressedSegment:
    """A compressed piece of a run plus everything needed to undo it.

    ``time_range`` holds inclusive global step indices.  A merged segment
    carries extra trailing stack dimensions on its train; each stacked
    leaf covers ``part_time_extents[j]`` real timesteps (padding copies
    excluded).  ``tolerance_spent`` is the relative-Frobenius budget
    consumed against this segment's own unpadded data: the a-priori
    composition of its merges, or, for the last level of a
    :func:`merge_tree` under a budget, the certified bound over the data's
    norm.  ``error_bound`` is the certified absolute Frobenius error
    against the same data, from the ledger of discarded energies (``None``
    when unknown, as in archives written without it).  Both, and the
    statistics, must be finite, and ``stats.entry_count`` must be the
    integer count of the segment's steps times its other extents.
    """

    tt: TTTensor
    plan: TensorizePlan
    reorder: str
    permutations: Optional[np.ndarray]
    time_range: tuple
    part_time_extents: tuple
    stack_dims: tuple
    stats: DataStats
    tolerance_spent: float
    error_bound: Optional[float] = None

    def __post_init__(self):
        # integers, so step arithmetic and indexing cannot fail later
        object.__setattr__(
            self, "time_range", tuple(map(operator.index, self.time_range))
        )
        object.__setattr__(
            self,
            "part_time_extents",
            tuple(map(operator.index, self.part_time_extents)),
        )
        object.__setattr__(
            self, "stack_dims", tuple(map(operator.index, self.stack_dims))
        )
        expected = self.plan.tensorized_dims() + self.stack_dims
        if self.tt.dims != expected:
            raise StructureError(
                f"train dims {self.tt.dims} do not match plan + stack dims "
                f"{expected}"
            )
        n_leaves = math.prod(self.stack_dims) if self.stack_dims else 1
        if len(self.part_time_extents) != n_leaves:
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
        if self.permutations is not None:
            perms = np.asarray(self.permutations)
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
        spent = _finite(self.tolerance_spent, "tolerance spent", True)
        object.__setattr__(self, "tolerance_spent", spent)
        if self.error_bound is not None:
            bound = _finite(self.error_bound, "error bound", True)
            object.__setattr__(self, "error_bound", bound)

    @property
    def total_steps(self) -> int:
        return self.time_range[1] - self.time_range[0] + 1

    @property
    def compression_ratio(self) -> float:
        """Unpadded original entries per stored core entry."""
        return self.stats.entry_count / self.tt.core_entry_count

    @functools.cached_property
    def inverse_permutations(self) -> Optional[np.ndarray]:
        """Sorted position of each original particle, per step of a leaf
        for per-timestep permutations; ``None`` without reordering.
        Checked on first use."""
        perms = self.permutations
        if perms is None:
            return None
        n_p = self.plan.original_dims[1]
        fits = perms.shape == (n_p,) or (
            perms.ndim == 2
            and perms.shape[1] == n_p
            and len(perms) >= max(self.part_time_extents)
        )
        inverse = np.argsort(perms, axis=-1) if fits else None
        if not fits or np.any(np.take_along_axis(perms, inverse, -1) != np.arange(n_p)):
            raise StructureError(
                f"particle permutations of shape {perms.shape} do not "
                f"permute {n_p} particles"
            )
        return inverse


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


def _morton_permutation(positions, bits: Optional[int]) -> np.ndarray:
    transform = fit_domain(positions)
    return morton_sort(transform.apply(positions), bits or DEFAULT_BITS)


def build_plan(
    dims,
    config: CompressionConfig,
    n_split: int,
    pad_time_to: Optional[int] = None,
) -> TensorizePlan:
    """Tensorization plan for a tensor of extents ``dims``; axis 1 is time.

    The leading ``n_split`` axes are factored into small primes (padding
    by replication when an extent will not factor) and keep
    ``config.level`` tree levels as dimensions (None: all of them; a
    larger level is capped).  Later axes, and every axis when
    tensorization is off, stay whole.  ``pad_time_to`` grows a short
    segment to a common length so the segments of one run share a shape
    and can be merged.
    """
    t_target = dims[0]
    if pad_time_to is not None:
        if pad_time_to < dims[0]:
            raise PlanError(
                f"cannot pad {dims[0]} timesteps down to {pad_time_to}"
            )
        t_target = pad_time_to
    axis_factors, axis_levels, pads = [], [], []
    for ax, extent in enumerate(dims):
        target = t_target if ax == 0 else extent
        if config.tensorize and ax < n_split:
            factors = factor_dims(target, config.max_factor)
            if factors is None:
                target = next_factorable(target, config.max_factor)
                factors = factor_dims(target, config.max_factor)
            level = config.level
            level = len(factors) if level is None else min(level, len(factors))
        else:
            factors, level = (target,), 1
        if target != extent:
            pads.append(AxisPad(axis=ax + 1, original=extent, padded=target))
        axis_factors.append(tuple(factors))
        axis_levels.append(level)
    return TensorizePlan(
        original_dims=dims,
        axis_factors=tuple(axis_factors),
        axis_levels=tuple(axis_levels),
        interlace=None,
        pads=tuple(pads),
    )


def _target_relfrob(config: CompressionConfig, stats: DataStats, reference):
    """Per-segment relative-Frobenius tolerance, or None for the exact path."""
    if stats.x_max == stats.x_min or stats.frobenius_norm == 0.0:
        return None
    if config.tolerance_kind == "relfrob":
        return config.tolerance
    return nrmse_to_relfrob(config.tolerance, reference or stats)


def _compress(
    data: DenseTensor,
    plan: TensorizePlan,
    config: CompressionConfig,
    stats: DataStats,
    reference: Optional[DataStats] = None,
    perms: Optional[np.ndarray] = None,
    first_step: int = 0,
) -> CompressedSegment:
    """TT-SVD of ``data`` (already in particle order) under ``plan``.

    Constant (or zero) data is exactly rank 1 after any reshaping and is
    stored as such.  When padding grows the tensor the internal tolerance
    is tightened by the norm ratio so the guarantee still holds on the
    real data region.  The error bound is the one TT-SVD certifies on the
    padded tensor, which bounds the real data region's error too.
    """
    tau_rel = _target_relfrob(config, stats, reference)
    if tau_rel is None:
        tt, tau_rel = constant_tt(plan.tensorized_dims(), stats.x_min), 0.0
        lost = 0.0
    else:
        tensorized = apply_plan(data, plan)
        padded_norm = float(np.linalg.norm(tensorized.values))
        tt, lost = _tt_svd(
            tensorized, tau_rel * stats.frobenius_norm / padded_norm
        )
    n_t = data.dims[0]
    return CompressedSegment(
        tt=tt,
        plan=plan,
        reorder="none" if perms is None else config.reorder,
        permutations=perms,
        time_range=(first_step, first_step + n_t - 1),
        part_time_extents=(n_t,),
        stack_dims=(),
        stats=stats,
        tolerance_spent=tau_rel,
        error_bound=lost,
    )


def compress_segment(
    batch: SnapshotBatch,
    config: CompressionConfig,
    first_step: int = 0,
    stats_reference: Optional[DataStats] = None,
    permutation_override: Optional[np.ndarray] = None,
    pad_time_to: Optional[int] = None,
) -> CompressedSegment:
    """Compress one snapshot batch.

    Pipeline: reorder particles by the Morton policy, pad and tensorize
    per the plan, then TT-SVD at the converted tolerance.  Statistics are
    recorded from the raw (pre-padding) data.

    ``stats_reference`` feeds the nRMSE conversion with the statistics of
    the whole run when a multi-segment run targets one overall error;
    ``permutation_override`` pins one particle ordering across segments
    that will later be merged.
    """
    arr = batch.data.to_numpy()
    n_t, n_p, n_c = arr.shape
    stats = stats_of(arr)

    perms = None
    if permutation_override is not None:
        perms = np.asarray(permutation_override)
        if perms.shape != (n_p,):
            raise ConfigError(
                f"permutation override has shape {perms.shape}, "
                f"expected ({n_p},)"
            )
    elif config.reorder == "segment":
        if batch.positions_first is None:
            raise ConfigError(
                "Morton reordering needs first-timestep positions; "
                "use reorder='none' for data without them"
            )
        perms = _morton_permutation(batch.positions_first, config.morton_bits)
    elif config.reorder == "timestep":
        if n_c != 3:
            raise ConfigError(
                "per-timestep reordering uses the data itself as positions "
                "and needs exactly 3 components"
            )
        perms = np.stack(
            [_morton_permutation(arr[t], config.morton_bits) for t in range(n_t)]
        )
    data = batch.data
    if perms is not None:
        # column-major results, so the flat values below are a view
        if perms.ndim == 1:
            # the transpose is row-major: take copies whole time columns
            permuted = arr.T.take(perms, axis=1).T
        else:
            permuted = np.empty(arr.shape, order="F")
            for t in range(n_t):
                permuted[t] = arr[t, perms[t]]
        data = DenseTensor(arr.shape, permuted.reshape(-1, order="F"))

    # time and particles are split, components stay whole
    plan = build_plan(data.dims, config, 2, pad_time_to)
    return _compress(
        data, plan, config, stats, stats_reference, perms, first_step
    )


def compress_tensor(
    data: DenseTensor, config: CompressionConfig
) -> CompressedSegment:
    """Compress a generic dense tensor (no particle semantics).

    Every axis is factored when tensorization is on, each at
    ``config.level``.  The first axis plays the role of time in the
    segment bookkeeping.
    """
    plan = build_plan(data.dims, config, data.ndim)
    return _compress(data, plan, config, stats_of(data.values))


def compose_tolerances(base: float, rounding_taus) -> float:
    """Cumulative relative tolerance after a chain of rounded merges."""
    total = float(base)
    for tau in rounding_taus:
        total = total + tau + total * tau
    return total


def plan_tau_schedule(
    total_budget: float, per_segment: float, n_levels: int
):
    """Equal per-level rounding tolerances exhausting the remaining budget.

    Solves ``(1 + per_segment) * (1 + x)^n == 1 + total_budget`` for x.
    """
    if not 0 <= total_budget < math.inf:  # NaN too
        raise ConfigError(
            f"total budget must be a finite number >= 0, got {total_budget}"
        )
    if not 0 <= per_segment <= total_budget:
        raise ConfigError(
            f"per-segment tolerance {per_segment} is not within the total "
            f"budget {total_budget}"
        )
    if n_levels == 0:
        return []
    factor = (1.0 + total_budget) / (1.0 + per_segment)
    x = factor ** (1.0 / n_levels) - 1.0
    return [max(x, 0.0)] * n_levels


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


def _merge_parts(parts, tau_round: float) -> list:
    """The parts of a merge as a list, after the checks both merges share:
    at least one part, a rounding tolerance >= 0, and one reorder policy
    and one particle permutation across the parts."""
    parts = list(parts)
    if not parts:
        raise MergeError("nothing to merge")
    if not tau_round >= 0:  # NaN too
        raise ConfigError(f"rounding tolerance must be >= 0, got {tau_round}")
    base = parts[0]
    for p in parts[1:]:
        if p.reorder != base.reorder:
            raise MergeError("parts used different reorder policies")
        a, b = p.permutations, base.permutations
        if (a is None) != (b is None) or (
            a is not None and not np.array_equal(a, b)
        ):
            raise StructureError(
                "parts use different particle permutations; reuse one "
                "ordering per merged group"
            )
    return parts


def _merged(parts, tt: TTTensor, tau_round: float, lost: float, **layout):
    """The part that merges ``parts`` into ``tt``, whose rounding at
    ``tau_round`` discarded ``lost``; ``layout`` gives its plan, leaf
    extents and stack dims.

    Its a-priori budget is ``t + tau_round + t * tau_round`` with ``t``
    the worst part tolerance.  Its error bound is the parts' bounds in
    root-sum-square, since they cover disjoint entries, plus ``lost`` in
    full, since the rounding error is not orthogonal to theirs.
    """
    bound = combine_error_bounds(parts)
    return CompressedSegment(
        tt=tt,
        reorder=parts[0].reorder,
        permutations=parts[0].permutations,
        time_range=(parts[0].time_range[0], parts[-1].time_range[1]),
        stats=combine_stats([p.stats for p in parts]),
        tolerance_spent=compose_tolerances(
            max(p.tolerance_spent for p in parts), [tau_round]
        ),
        error_bound=None if bound is None else bound + lost,
        **layout,
    )


def merge_stack(parts, tau_round: float) -> CompressedSegment:
    """Merge segments by stacking along a new trailing dimension.

    The stacked train is exact; rounding at ``tau_round`` (skipped when 0)
    then shrinks the inflated ranks, with each part orthogonalized on its
    own (:func:`~ttcompress.tt._orthogonal_stack`).  Budget and error
    bound as in :func:`_merged`.
    """
    parts = _merge_parts(parts, tau_round)
    if len(parts) == 1:
        return parts[0]
    base = parts[0]
    for p in parts[1:]:
        if p.tt.dims != base.tt.dims:
            raise MergeError(
                f"train dims differ: {p.tt.dims} != {base.tt.dims}"
            )
        if p.stack_dims != base.stack_dims:
            raise MergeError("parts carry different stack histories")
        if _normalize_time_axis(p.plan) != _normalize_time_axis(base.plan):
            raise MergeError("parts were tensorized under different plans")
    _check_contiguous(parts)
    trains = [p.tt for p in parts]
    if tau_round > 0:
        merged, lost = _round_orthogonal(_orthogonal_stack(trains), tau_round)
    else:
        merged, lost = tt_stack_new(trains), 0.0
    return _merged(
        parts, merged, tau_round, lost,
        plan=_normalize_time_axis(base.plan),
        part_time_extents=sum((p.part_time_extents for p in parts), ()),
        stack_dims=base.stack_dims + (len(parts),),
    )


def _concat_axis_position(plan: TensorizePlan, axis: int) -> int:
    """1-based train dimension holding a given unsplit original axis."""
    if plan.interlace is not None:
        raise MergeError("cannot concatenate interlaced plans")
    split = plan.axis_split_dims(axis)
    if len(split) != 1 or split[0] != plan.original_dims[axis - 1]:
        raise MergeError(
            f"axis {axis} is tensorized; stack along a new dimension instead"
        )
    pos = 0
    for ax in range(1, axis):
        pos += len(plan.axis_split_dims(ax))
    return pos + 1


def merge_concat(parts, dim: int, tau_round: float) -> CompressedSegment:
    """Merge segments along an existing (untensorized) dimension.

    Cores are combined with zero padding so reconstruction equals the
    dense concatenation exactly, then rounded at ``tau_round`` (skipped
    when 0) after a joint QR sweep, since the last core couples the
    parts.  Budget and error bound as in :func:`_merged`.
    """
    parts = _merge_parts(parts, tau_round)
    if len(parts) == 1:
        return parts[0]
    base = parts[0]
    n_axes = len(base.plan.original_dims)
    if not 1 <= dim <= n_axes:
        raise IndexRangeError(f"axis {dim} out of range 1..{n_axes}")
    for p in parts:
        if p.stack_dims != ():
            raise MergeError(
                "parts already stacked along a new dimension cannot be "
                "concatenated"
            )
        for ax in range(1, n_axes + 1):
            if ax != dim and (
                p.plan.axis_split_dims(ax) != base.plan.axis_split_dims(ax)
                or p.plan.original_dims[ax - 1] != base.plan.original_dims[ax - 1]
            ):
                raise MergeError(f"parts differ on axis {ax}")
        if p.plan.pads != base.plan.pads:
            raise MergeError("parts carry different padding records")
        if any(pad.axis == dim for pad in p.plan.pads):
            raise MergeError(f"axis {dim} is padded; cannot concatenate")
    pos = _concat_axis_position(base.plan, dim)
    for p in parts[1:]:
        if _concat_axis_position(p.plan, dim) != pos:
            raise MergeError("concat axis sits at different train positions")
    if dim == 1:
        _check_contiguous(parts)
    else:
        for p in parts[1:]:
            if p.time_range != base.time_range:
                raise MergeError(
                    "parts merged along a non-time axis must cover the "
                    "same steps"
                )

    merged_tt, lost = _concat_trains([p.tt for p in parts], pos - 1), 0.0
    if tau_round > 0:
        merged_tt, lost = _tt_round(merged_tt, tau_round)

    total = sum(p.plan.original_dims[dim - 1] for p in parts)
    dims, factors = base.plan.original_dims, base.plan.axis_factors
    plan = dataclasses.replace(
        base.plan,
        original_dims=dims[: dim - 1] + (total,) + dims[dim:],
        axis_factors=factors[: dim - 1] + ((total,),) + factors[dim:],
    )
    extents = (total,) if dim == 1 else base.part_time_extents
    return _merged(
        parts, merged_tt, tau_round, lost,
        plan=plan, part_time_extents=extents, stack_dims=(),
    )


def merge_tree_levels(n_segments: int, arity: int) -> int:
    """Number of merge levels needed to collapse ``n_segments`` to one."""
    if arity < 2:
        raise ConfigError("merge arity must be >= 2")
    levels = 0
    count = n_segments
    while count > 1:
        count = math.ceil(count / arity)
        levels += 1
    return levels


def merge_tree(segments, arity: int, budget=None):
    """Hierarchical stack-merge of ``segments`` under one relative error
    ``budget``: level 0 holds the segments, each next level merges
    consecutive groups of ``arity``.

    Every level below the last rounds at the equal per-level tolerance of
    :func:`plan_tau_schedule` over the segments' worst
    ``tolerance_spent``, which keeps the a-priori composition within the
    budget (a segment above it raises :class:`ConfigError` before any
    merging).  Those bounds are worst cases, so the last level is stacked
    exactly and rounded at whatever the ledger of certified errors leaves
    of the budget (:func:`_spend_leftover`).  ``budget=None`` keeps every
    stack exact.  Returns every level, level 0 first, so per-level
    compression curves can be reported.
    """
    segments = list(segments)
    if not segments:
        raise ConfigError("no segments to merge")
    n_levels = merge_tree_levels(len(segments), arity)
    schedule = [0.0] * n_levels
    if budget is not None:
        worst = max(s.tolerance_spent for s in segments)
        schedule = plan_tau_schedule(budget, worst, n_levels)
    levels = [segments]
    for tau in schedule[:-1]:
        levels.append(
            [merge_stack(group, tau) for group in _groups(levels[-1], arity)]
        )
    if n_levels:
        (group,) = _groups(levels[-1], arity)
        merged = merge_stack(group, 0.0)
        if budget is not None:
            merged = _spend_leftover(merged, group, schedule[-1], budget)
        levels.append([merged])
    return levels


def _groups(level, arity: int):
    """Consecutive groups of ``arity`` parts of a merge level, the last
    filled up with :func:`_empty_part`."""
    for start in range(0, len(level), arity):
        group = level[start : start + arity]
        yield group + [_empty_part(group[-1])] * (arity - len(group))


def _empty_part(like: CompressedSegment) -> CompressedSegment:
    """An exact all-zero part shaped like ``like`` that covers no steps.

    It fills a short trailing group up to the merge arity, so every part
    of a merge level has the same stack dims; its leaves have a time
    extent of 0, so no reconstruction reads them, and the rounding step
    removes its rank.
    """
    end = like.time_range[1]
    return dataclasses.replace(
        like,
        tt=zero_tt(like.tt.dims),
        time_range=(end + 1, end),
        part_time_extents=(0,) * len(like.part_time_extents),
        stats=DataStats(like.stats.x_min, like.stats.x_max, 0.0, 0),
        tolerance_spent=0.0,
        error_bound=0.0,
    )


def _spend_leftover(
    stacked: CompressedSegment, parts, planned: float, budget: float
) -> CompressedSegment:
    """Round the last merge level's exact stack of ``parts`` at what its
    ledger leaves of ``budget`` times the stack's data norm, never at
    less than ``planned``.

    The certified bound is then within the budget and becomes the part's
    ``tolerance_spent``.  Only the Gram path's float slack can carry the
    bound past the budget; the stack is then rounded at ``planned`` and
    keeps the a-priori composition, as it is without a ledger.  Both
    roundings start from one orthogonalization of the parts.  A zero
    budget and schedule (lossless) leave the exact stack.
    """
    if stacked.error_bound is None:
        return merge_stack(parts, planned)
    norm = stacked.stats.frobenius_norm
    spare = budget * norm - stacked.error_bound
    if planned == 0 and spare <= 0:
        return stacked
    ortho = _orthogonal_stack([p.tt for p in parts])
    tt, lost = _round_orthogonal(ortho, planned, spare)
    if lost <= spare and norm > 0:
        spent = (stacked.error_bound + lost) / norm
    else:
        if lost > spare:
            tt, lost = _round_orthogonal(ortho, planned)
        spent = compose_tolerances(stacked.tolerance_spent, [planned])
    return dataclasses.replace(
        stacked,
        tt=tt,
        error_bound=stacked.error_bound + lost,
        tolerance_spent=spent,
    )


def compress_run(
    read,
    n_t: int,
    config: CompressionConfig,
    merge: bool = True,
    timings: Optional[dict] = None,
):
    """Compress a run of ``n_t`` steps segment by segment and merge it.

    ``read(start, stop)`` returns the :class:`SnapshotBatch` of steps
    [start, stop).  Raw data is read one segment at a time, so memory
    holds one segment plus the compressed parts.  In order: a stats-only
    pre-pass over the segments, which also checks every step before
    anything is compressed; when merging with per-segment reordering, one
    Morton permutation from step 0's positions; each segment compressed
    against the run's statistics, at half the error budget when merged;
    and one :func:`merge_tree` pass at the run's relative budget (the
    nRMSE target converted with the run's statistics).  The merged part's
    ``tolerance_spent`` is then its certified relative bound, never above
    the target.

    Returns the merge-tree levels: level 0 holds the segments and the last
    level the merged part (only level 0 without merging).  ``timings``,
    when given, receives the seconds of the pre-pass, the segment
    compression and the merge.
    """
    seg_len = config.segment_length
    starts = range(0, n_t, seg_len)
    merging = merge and len(starts) > 1
    if merging and config.reorder == "timestep":
        raise ConfigError(
            "per-timestep reordering produces per-step permutations that "
            "cannot be merged; rerun with --no-merge or --reorder segment"
        )

    def segment(start):
        return read(start, min(start + seg_len, n_t))

    t0 = time.perf_counter()
    stats = combine_stats(stats_of(segment(s).data.values) for s in starts)
    perms = None
    if merging and config.reorder == "segment":
        positions = read(0, 1).positions_first
        if positions is None:
            raise ConfigError(
                "Morton reordering needs positions; use reorder='none'"
            )
        perms = _morton_permutation(positions, config.morton_bits)
    t1 = time.perf_counter()

    seg_config = config
    if merging:
        seg_config = dataclasses.replace(config, tolerance=config.tolerance / 2)
    segments = [
        compress_segment(
            segment(start),
            seg_config,
            first_step=start,
            stats_reference=stats,
            permutation_override=perms,
            pad_time_to=seg_len if merging else None,
        )
        for start in starts
    ]
    t2 = time.perf_counter()

    levels = [segments]
    if merging:
        budget = config.tolerance
        if config.tolerance_kind == "nrmse":
            budget = nrmse_to_relfrob(config.tolerance, stats)
        levels = merge_tree(segments, config.merge_arity, budget)
    if timings is not None:
        timings.update(
            stats=t1 - t0, compress=t2 - t1, merge=time.perf_counter() - t2
        )
    return levels


def reconstruct_segments(segs, max_entries=None) -> DenseTensor:
    """Full dense reconstruction of consecutive segments of one run, in
    original order, padding cropped.

    The segments' own time ranges must follow each other without a gap or
    an overlap, and their plans must agree on every axis but time;
    otherwise a :class:`MergeError` is raised.  Per segment, the plan
    cores are contracted once into a matrix with one row per tensorized
    entry, and its rows are gathered once through :func:`_plan_rows`
    into the segment's original order.  Each stacked leaf is then one
    matrix-vector product, cropped to its real timesteps and written
    into one preallocated output.  ``max_entries`` caps each train's
    entry count as in :func:`tt_full`.
    """
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
        _check_full_cap(seg.tt.dims, max_entries)
    first = segs[0].time_range[0]
    dims = (segs[-1].time_range[1] + 1 - first,) + extents
    out = np.empty(dims, order="F")
    for seg in segs:
        n_plan = len(seg.plan.tensorized_dims())
        plan_mat = _contract_cores(seg.tt.cores[:n_plan])
        rank = plan_mat.shape[1]
        leaf_mat = _contract_cores(seg.tt.cores[n_plan:], rank).reshape(
            (rank, -1), order="F"
        )
        rows = _plan_rows(seg)
        # column by column into a column-major matrix: no second full
        # copy, and the products below round exactly as on ``plan_mat``
        gathered = np.empty((rows.size, rank), order="F")
        for j in range(rank):
            gathered[:, j] = plan_mat[rows, j]
        del plan_mat
        t0 = seg.time_range[0] - first
        for leaf, extent in enumerate(seg.part_time_extents):
            if extent == 0:
                continue
            block = (gathered @ leaf_mat[:, leaf]).reshape(
                (-1,) + extents, order="F"
            )
            out[t0 : t0 + extent] = block[:extent]
            t0 += extent
    return DenseTensor(dims, out.reshape(-1, order="F"))


def _plan_rows(seg: CompressedSegment) -> np.ndarray:
    """Row of the contracted plan matrix behind each entry of a leaf, in
    original order over the steps of the segment's longest leaf, flat in
    column-major order.  One map undoes padding, interlacing and the
    particle permutation."""
    steps = max(seg.part_time_extents)
    n_rows = math.prod(seg.plan.tensorized_dims())
    rows = original_view(np.arange(n_rows), seg.plan)[:steps]
    inverse = seg.inverse_permutations
    if inverse is not None:
        # each original particle sits at its sorted position
        if inverse.ndim == 2:
            rows = rows[np.arange(steps)[:, None], inverse[:steps]]
        else:
            rows = rows[:, inverse]
    return rows.reshape(-1, order="F")


def reconstruct_segment(
    seg: CompressedSegment, max_entries=None
) -> DenseTensor:
    """Full dense reconstruction of one segment (see
    :func:`reconstruct_segments`)."""
    return reconstruct_segments([seg], max_entries)


def _train_indices(seg: CompressedSegment, coords) -> np.ndarray:
    """1-based train multi-indices of 1-based original coordinates.

    One row per entry; the time coordinate counts within the segment
    (1..total steps) and selects the stacked leaf and the step within it.
    """
    coords = index_rows(coords, (seg.total_steps,) + seg.plan.original_dims[1:])
    bounds = np.cumsum((0,) + seg.part_time_extents)
    leaf = np.searchsorted(bounds, coords[:, 0] - 1, side="right") - 1
    coords[:, 0] -= bounds[leaf]
    inverse = seg.inverse_permutations
    if inverse is not None:
        # position of each original particle in the sorted order
        rows = (coords[:, 0] - 1,) if inverse.ndim == 2 else ()
        coords[:, 1] = inverse[rows + (coords[:, 1] - 1,)] + 1
    leaf_digits = ()
    if seg.stack_dims:
        leaf_digits = np.unravel_index(leaf, seg.stack_dims, order="F")
    return np.column_stack(
        [seg.plan.forward_indices(coords)] + [d + 1 for d in leaf_digits]
    )


def reconstruct_region(seg: CompressedSegment, region) -> DenseTensor:
    """Reconstruct a sub-box from the cores, without the full tensor.

    ``region`` lists one inclusive 1-based (lo, hi) pair per original
    axis; the time axis counts within the segment (1..total steps).  The
    box is evaluated in blocks, so memory stays bounded whatever its size.
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
    corner = np.array([lo for lo, _ in region])
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
            [p.axis, p.original, p.padded, p.strategy] for p in plan.pads
        ],
    }


def _plan_from_dict(d: dict) -> TensorizePlan:
    return TensorizePlan(
        original_dims=tuple(d["original_dims"]),
        axis_factors=tuple(tuple(f) for f in d["axis_factors"]),
        axis_levels=tuple(d["axis_levels"]),
        interlace=tuple(d["interlace"]) if d.get("interlace") else None,
        pads=tuple(
            AxisPad(axis=a, original=o, padded=p, strategy=s)
            for a, o, p, s in d.get("pads", [])
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
        "tolerance_spent": seg.tolerance_spent,
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
    from .errors import FormatError

    try:
        perms = None
        if "permutation" in meta:
            perms = _decode_u32(
                meta["permutation"]["u32le_b64"], meta["permutation"]["shape"]
            )
        stats = DataStats(**meta["stats"])
        return CompressedSegment(
            tt=tt,
            plan=_plan_from_dict(meta["plan"]),
            reorder=meta.get("reorder", "none"),
            permutations=perms,
            time_range=tuple(meta["time_range"]),
            part_time_extents=tuple(meta["part_time_extents"]),
            stack_dims=tuple(meta["stack_dims"]),
            stats=stats,
            tolerance_spent=meta["tolerance_spent"],
            error_bound=meta.get("error_bound"),
        )
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
