"""Segment-wise streaming compression.

Incoming snapshot batches are compressed independently (reorder particles,
pad, tensorize, TT-SVD), then merged under an explicit error budget.  Two
accounts are kept.  A priori, parts within relative tolerances ``t_i``
stack within their norm-weighted ``t`` (:func:`combine_tolerances`), and
rounding at ``t_r`` gives ``t + t_r + t * t_r``; this governs
:func:`merge_stack` and :func:`merge_concat`.  The ledger certifies each
part's actual error from what its truncations discarded
(``CompressedSegment.error_bound``).  :func:`merge_tree` owns a run's
budget: one :func:`merge_stack` per group rounds each level at the equal
a-priori split, the last spending what the ledger leaves, and returns
the merged part alone.  Stacks along a new trailing dimension keep time
hierarchies; concatenation serves untensorized axes.  Every read maps
coordinates through ``tensorize.axis_offsets``; full reads share one
preparation and decode in file order, a block of whole time columns at
a time (:func:`decode_columns`), or leaf by leaf (:func:`decode_leaves`).
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
    DataError,
    FormatError,
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
    axis_offsets,
    factor_dims,
    next_factorable,
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
        level = self.level
        if level is not None and (
            isinstance(level, bool)
            or not isinstance(level, numbers.Integral)
            or level < 1
        ):
            raise ConfigError(f"level must be an integer >= 1, got {level!r}")
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
    carries extra trailing stack dimensions on its train, past the plan's
    (:attr:`stack_dims`); each stacked leaf covers
    ``part_time_extents[j]`` real timesteps (padding copies excluded).
    The Morton policy (:attr:`reorder`) follows from ``permutations``.
    ``tolerance_spent`` is the relative-Frobenius budget consumed
    against this segment's own unpadded data: the a-priori
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
    permutations: Optional[np.ndarray]
    time_range: tuple
    part_time_extents: tuple
    stats: DataStats
    tolerance_spent: float
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
    def stack_dims(self) -> tuple:
        """The train's dims past the plan's: one per merge level."""
        return self.tt.dims[len(self.plan.tensorized_dims()) :]

    @property
    def reorder(self) -> str:
        """The Morton policy of the permutations: ``"none"`` without,
        ``"segment"`` for one, ``"timestep"`` for one per step."""
        if self.permutations is None:
            return "none"
        return "segment" if self.permutations.ndim == 1 else "timestep"

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


def _data_stats(data: DenseTensor, first_step: int = 0) -> DataStats:
    """Statistics of ``data``, whose first axis counts steps from
    ``first_step``; a :class:`DataError` names the first step that holds
    a NaN or an infinity."""
    stats = stats_of(data.values)
    if not (math.isfinite(stats.x_min) and math.isfinite(stats.x_max)):
        # column-major values: the time index runs fastest
        steps = np.flatnonzero(~np.isfinite(data.values)) % data.dims[0]
        raise DataError(
            f"timestep {first_step + steps.min()}: the data holds non-finite "
            "values (NaN or infinity)"
        )
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
    stored as such.  When padding grows the tensor the internal tolerance
    is tightened by the norm ratio so the guarantee still holds on the
    real data region.  The error bound is the one TT-SVD certifies on the
    padded tensor, which bounds the real data region's error too.
    """
    if stats.x_max == stats.x_min or stats.frobenius_norm == 0.0:
        tt, tau_rel = constant_tt(plan.tensorized_dims(), stats.x_min), 0.0
        lost = 0.0
    else:
        tau_rel = config.tolerance
        if config.tolerance_kind == "nrmse":
            tau_rel = nrmse_to_relfrob(tau_rel, stats)
        tensorized = apply_plan(data, plan)
        padded_norm = float(np.linalg.norm(tensorized.values))
        tt, lost = _tt_svd(
            tensorized, tau_rel * stats.frobenius_norm / padded_norm
        )
    n_t = data.dims[0]
    return CompressedSegment(
        tt=tt,
        plan=plan,
        permutations=perms,
        time_range=(first_step, first_step + n_t - 1),
        part_time_extents=(n_t,),
        stats=stats,
        tolerance_spent=tau_rel,
        error_bound=lost,
    )


def compress_segment(
    batch: SnapshotBatch,
    config: CompressionConfig,
    first_step: int = 0,
    permutation_override: Optional[np.ndarray] = None,
    pad_time_to: Optional[int] = None,
) -> CompressedSegment:
    """Compress one snapshot batch.

    Pipeline: reorder particles by the Morton policy, pad and tensorize
    per the plan, then TT-SVD at the tolerance converted with the batch's
    own statistics, taken from the raw (pre-padding) data, which must be
    finite.

    ``permutation_override`` pins one particle ordering across segments
    that will later be merged.
    """
    stats = _data_stats(batch.data, first_step)
    arr = batch.data.to_numpy()
    n_t, n_p, n_c = arr.shape

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
    return _compress(data, plan, config, stats, perms, first_step)


def compress_tensor(
    data: DenseTensor, config: CompressionConfig
) -> CompressedSegment:
    """Compress a generic dense tensor (no particle semantics).

    Every axis is factored when tensorization is on, each at
    ``config.level``.  The first axis plays the role of time in the
    segment bookkeeping.
    """
    plan = build_plan(data.dims, config, data.ndim)
    return _compress(data, plan, config, _data_stats(data))


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
    at least one part, a rounding tolerance >= 0, and one particle
    permutation (so one reorder policy) across the parts."""
    parts = list(parts)
    if not parts:
        raise MergeError("nothing to merge")
    if not tau_round >= 0:  # NaN too
        raise ConfigError(f"rounding tolerance must be >= 0, got {tau_round}")
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
    return parts


def combine_tolerances(parts) -> float:
    """A-priori relative tolerance of parts that cover disjoint entries:
    their absolute errors ``t_i * ||X_i||`` add in squares, so it is
    ``sqrt(sum (t_i * ||X_i||)^2) / ||X||``, or the worst ``t_i`` when
    that is less (float rounding) or the data is all zero."""
    worst = max(p.tolerance_spent for p in parts)
    norm = math.hypot(*(p.stats.frobenius_norm for p in parts))
    errors = (p.tolerance_spent * p.stats.frobenius_norm for p in parts)
    return min(worst, math.hypot(*errors) / norm) if norm > 0 else worst


def _merged(parts, tt: TTTensor, tau_round, lost, spent=None, **layout):
    """The part that merges ``parts`` into ``tt``, whose rounding at
    ``tau_round`` discarded ``lost``; ``layout`` gives its plan and leaf
    extents.

    Its budget is ``spent`` if certified, else the a-priori ``t +
    tau_round + t * tau_round``, ``t`` the parts' :func:`combine_tolerances`.
    Its error bound is their bounds in root-sum-square, since they cover
    disjoint entries, plus ``lost`` in full, since the rounding error is
    not orthogonal to them.
    """
    bound = combine_error_bounds(parts)
    if spent is None:
        spent = compose_tolerances(combine_tolerances(parts), [tau_round])
    return CompressedSegment(
        tt=tt,
        permutations=parts[0].permutations,
        time_range=(parts[0].time_range[0], parts[-1].time_range[1]),
        stats=combine_stats([p.stats for p in parts]),
        tolerance_spent=spent,
        error_bound=None if bound is None else bound + lost,
        **layout,
    )


def merge_stack(parts, tau_round: float, budget=None) -> CompressedSegment:
    """Merge segments by stacking along a new trailing dimension.

    The stacked train is exact; rounding at ``tau_round`` (skipped when 0)
    then shrinks the inflated ranks, with each part orthogonalized on its
    own (:func:`~ttcompress.tt._orthogonal_stack`).  Budget and error
    bound as in :func:`_merged`.  A relative ``budget`` also spends what
    the parts' certified errors leave of ``budget * ||X||``, and the
    certified bound over ``||X||`` becomes the part's budget; float slack
    past it, or an unknown part bound, keep ``tau_round`` alone.
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
        if _normalize_time_axis(p.plan) != _normalize_time_axis(base.plan):
            raise MergeError("parts were tensorized under different plans")
    _check_contiguous(parts)
    trains = [p.tt for p in parts]
    ledger = combine_error_bounds(parts)
    norm = combine_stats(p.stats for p in parts).frobenius_norm
    # what the ledger leaves of the budget: nothing without both
    spare, spent = -math.inf, None
    if budget is not None and ledger is not None:
        spare = budget * norm - ledger
    if tau_round == 0 and spare <= 0:
        merged, lost = tt_stack_new(trains), 0.0
    else:
        ortho = _orthogonal_stack(trains)
        merged, lost = _round_orthogonal(ortho, tau_round, spare)
        if lost <= spare and norm > 0:
            spent = (ledger + lost) / norm
        elif lost > spare > 0:
            merged, lost = _round_orthogonal(ortho, tau_round)
    return _merged(
        parts, merged, tau_round, lost, spent,
        plan=_normalize_time_axis(base.plan),
        part_time_extents=sum((p.part_time_extents for p in parts), ()),
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
        plan=plan, part_time_extents=extents,
    )


def merge_tree(segments, arity: int, budget=None, on_level=None):
    """Hierarchical stack-merge of ``segments`` under one relative error
    ``budget``; returns the merged part.  Level 0 holds the segments, and
    each next level merges consecutive groups of ``arity``.

    Every level rounds at the equal per-level tolerance of
    :func:`plan_tau_schedule` over the segments' :func:`combine_tolerances`,
    which keeps the a-priori composition within the budget (segments
    above it raise :class:`ConfigError` before any merging).  Those bounds
    are worst cases, so :func:`merge_stack` also spends, at the last level,
    whatever the ledger of certified errors leaves of the budget.
    ``budget=None`` keeps every stack exact.  Each level is dropped once
    the next is built.  ``on_level``, when given, observes each level's
    parts as they are made, level 0 first.
    """
    level = list(segments)
    if not level:
        raise ConfigError("no segments to merge")
    if arity < 2:
        raise ConfigError("merge arity must be >= 2")
    n_levels = 0  # merges until one part is left
    while arity**n_levels < len(level):
        n_levels += 1
    report = on_level or (lambda parts: None)
    schedule = [0.0] * n_levels
    if budget is not None:
        schedule = plan_tau_schedule(budget, combine_tolerances(level), n_levels)
    report(level)
    for k, tau in enumerate(schedule, 1):
        spend = budget if k == n_levels else None
        level = [merge_stack(g, tau, spend) for g in _groups(level, arity)]
        report(level)
    return level[0]


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


def compress_run(
    read,
    n_t: int,
    config: CompressionConfig,
    merge: bool = True,
    timings: Optional[dict] = None,
    on_level=None,
):
    """Compress a run of ``n_t`` steps segment by segment and merge it.

    ``read(start, stop)`` returns the :class:`SnapshotBatch` of steps
    [start, stop).  Each step is read once, one segment at a time, so
    memory holds one segment plus the compressed parts.  Each segment is
    compressed against its own statistics, at half the target when
    merged: at an nRMSE target ``r`` segment ``i`` errs by at most
    ``r * range_i * sqrt(n_i)``, and ``sum range_i^2 * n_i <= range^2 * n``.
    Merged segments share the first segment's Morton permutation, and one
    :func:`merge_tree` pass merges them at the run's relative budget, which
    the merged part's certified ``tolerance_spent`` never exceeds.

    Returns the parts the run stores: ``[merged]``, or the segments when
    ``merge`` is off or the run fits in one segment.  ``on_level`` observes
    the levels as in :func:`merge_tree`, or the segments alone; ``timings``,
    when given, receives the seconds of compression and of the merge.
    """
    seg_len = config.segment_length
    merging = merge and n_t > seg_len
    if merging and config.reorder == "timestep":
        raise ConfigError(
            "per-timestep reordering produces per-step permutations that "
            "cannot be merged; rerun with --no-merge or --reorder segment"
        )
    seg_config, pad = config, None
    if merging:
        seg_config = dataclasses.replace(config, tolerance=config.tolerance / 2)
        pad = seg_len

    t0 = time.perf_counter()
    parts = []  # the segments
    for start in range(0, n_t, seg_len):
        perms = parts[0].permutations if merging and parts else None
        batch = read(start, min(start + seg_len, n_t))
        parts.append(compress_segment(batch, seg_config, start, perms, pad))
        del batch  # one raw segment in memory at a time
    t1 = time.perf_counter()

    if merging:
        budget = config.tolerance
        if config.tolerance_kind == "nrmse":
            stats = combine_stats(s.stats for s in parts)
            budget = nrmse_to_relfrob(config.tolerance, stats)
        # handed over, so that merge_tree frees them once level 1 is built
        handed = (parts.pop(0) for _ in range(len(parts)))
        parts = [merge_tree(handed, config.merge_arity, budget, on_level)]
    elif on_level is not None:
        on_level(parts)
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
    """Decode consecutive segments of one run in DT64 file order: an
    iterator of flat blocks of about ``_REGION_BLOCK_VALUES`` values, each
    all steps of a range of whole non-time columns (a row range of every
    plan matrix).  The run is checked and the plan matrices made before
    it returns; then memory holds them and one block."""
    segs, dims = _checked_run(segs)
    parts = [(seg, *_prepared(seg, dims[1:])) for seg in segs]
    return _column_blocks(parts, dims[0], math.prod(dims[1:]))


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
    segs = list(segs)
    blocks = decode_columns(segs)
    dims = (sum(s.total_steps for s in segs),) + segs[0].plan.original_dims[1:]
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
    inverse = seg.inverse_permutations
    if inverse is not None:
        steps = (coords[0],) if inverse.ndim == 2 else ()
        coords[1] = inverse[steps + (coords[1],)]
    return sum(axis_offsets(seg.plan, coords))


def reconstruct_segment(seg: CompressedSegment) -> DenseTensor:
    """Full dense reconstruction of one segment (see
    :func:`reconstruct_segments`)."""
    return reconstruct_segments([seg])


def _train_indices(seg: CompressedSegment, coords) -> np.ndarray:
    """1-based train multi-indices of 1-based original coordinates, one
    row per entry: the digits of its :func:`_plan_rows` row, then those of
    its stacked leaf.  Time counts within the segment (1..total steps)
    and selects the leaf and the step within it."""
    dims = (seg.total_steps,) + seg.plan.original_dims[1:]
    coords = index_rows(coords, dims) - 1
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
            tolerance_spent=meta["tolerance_spent"],
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
