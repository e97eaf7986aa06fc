"""Reshaping low-dimensional arrays into many small dimensions.

Splitting an axis of extent ``f_1 * ... * f_m`` into separate dimensions
exposes hierarchical redundancy to the tensor-train sweeps: under the
column-major convention the first factor is the finest subdivision and
the last is the coarsest (the root of the factor tree).  A *level* ``l``
keeps the top ``l - 1`` tree levels as separate dimensions and merges the
remaining fine factors into one leaf dimension.

An axis whose extent has a prime factor above the cap is first padded to
the next extent that factors, by replicating its final slice; the plan
records both extents, so inversion crops the copies away.

For square matrices the row and column factor dimensions can additionally
be interlaced, which makes the linear order through the tensor spatially
coherent in the original 2-d domain.  Interlacing is an explicit entry
permutation (not a pure reshape) and is recorded in the plan so it can be
inverted exactly.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dense import DenseTensor
from .errors import ConfigError, PlanError


def factor_dims(n: int, max_factor: int):
    """Nondecreasing prime factors of ``n``, all bounded by ``max_factor``.

    Returns ``None`` when ``n`` has a prime factor above the cap, which
    signals that the axis must be padded before it can be split.  ``n == 1``
    yields ``[1]`` so the axis keeps a (trivial) dimension.
    """
    n = int(n)
    if n < 1:
        raise ConfigError(f"extent must be >= 1, got {n}")
    if max_factor < 2:
        raise ConfigError(f"factor cap must be >= 2, got {max_factor}")
    if n == 1:
        return [1]
    factors = []
    rem = n
    p = 2
    while p <= max_factor and rem > 1:
        while rem % p == 0:
            factors.append(p)
            rem //= p
        p += 1
    if rem > 1:
        return None
    return factors


def next_factorable(n: int, max_factor: int) -> int:
    """Smallest extent >= ``n`` whose prime factors are all <= ``max_factor``."""
    candidate = int(n)
    while factor_dims(candidate, max_factor) is None:
        candidate += 1
    return candidate


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AxisPad:
    """Padding applied to one original axis before splitting."""

    axis: int  # 1-based original axis
    original: int
    padded: int
    strategy: str = "replicate"


@dataclass(frozen=True)
class TensorizePlan:
    """Invertible recipe: pad -> per-axis mixed-radix split -> optional
    interlace permutation of the split dimensions."""

    original_dims: tuple
    axis_factors: tuple  # tuple of per-axis factor tuples (padded extents)
    axis_levels: tuple
    interlace: Optional[tuple]  # permutation of split-dim positions, or None
    pads: tuple  # AxisPad entries, at most one per axis

    def __post_init__(self):
        object.__setattr__(
            self, "original_dims", tuple(int(n) for n in self.original_dims)
        )
        object.__setattr__(
            self,
            "axis_factors",
            tuple(tuple(int(f) for f in fs) for fs in self.axis_factors),
        )
        object.__setattr__(
            self, "axis_levels", tuple(int(l) for l in self.axis_levels)
        )
        if self.interlace is not None:
            object.__setattr__(
                self, "interlace", tuple(int(p) for p in self.interlace)
            )
        object.__setattr__(self, "pads", tuple(self.pads))
        self._validate()

    def _validate(self):
        n_axes = len(self.original_dims)
        if len(self.axis_factors) != n_axes or len(self.axis_levels) != n_axes:
            raise PlanError("per-axis factor/level lists must match the rank")
        pad_map = self.pad_map()
        for ax0, (factors, level) in enumerate(
            zip(self.axis_factors, self.axis_levels)
        ):
            padded = pad_map.get(ax0 + 1, self.original_dims[ax0])
            if math.prod(factors) != padded:
                raise PlanError(
                    f"axis {ax0 + 1}: factors {factors} do not multiply to "
                    f"the padded extent {padded}"
                )
            if not 1 <= level <= len(factors):
                raise PlanError(
                    f"axis {ax0 + 1}: level {level} out of range "
                    f"1..{len(factors)}"
                )
        for pad in self.pads:
            if not 1 <= pad.axis <= n_axes:
                raise PlanError(f"pad axis {pad.axis} out of range")
            if pad.original != self.original_dims[pad.axis - 1]:
                raise PlanError(
                    f"pad record for axis {pad.axis} disagrees with the "
                    f"original extent"
                )
            if pad.padded < pad.original:
                raise PlanError("padded extent smaller than original")
        if self.interlace is not None:
            n_split = len(self.pre_interlace_dims())
            if sorted(self.interlace) != list(range(n_split)):
                raise PlanError(
                    f"interlace must be a permutation of 0..{n_split - 1}"
                )

    def pad_map(self) -> dict:
        return {p.axis: p.padded for p in self.pads}

    def padded_dims(self) -> tuple:
        pm = self.pad_map()
        return tuple(
            pm.get(ax0 + 1, n) for ax0, n in enumerate(self.original_dims)
        )

    def axis_split_dims(self, axis: int):
        """Split dimension list of one 1-based axis: the merged leaf
        first, then the top ``level - 1`` tree factors (coarsest last)."""
        factors = self.axis_factors[axis - 1]
        cut = len(factors) - self.axis_levels[axis - 1] + 1
        return [math.prod(factors[:cut])] + list(factors[cut:])

    def pre_interlace_dims(self) -> tuple:
        dims = []
        for ax in range(1, len(self.original_dims) + 1):
            dims.extend(self.axis_split_dims(ax))
        return tuple(dims)

    def tensorized_dims(self) -> tuple:
        pre = self.pre_interlace_dims()
        if self.interlace is None:
            return pre
        return tuple(pre[p] for p in self.interlace)


def apply_plan(data: DenseTensor, plan: TensorizePlan) -> DenseTensor:
    """Pad, split and (optionally) interlace per the plan.

    Every padded axis grows by replicating its final slice, all in one
    ``np.pad`` of the transposed array, whose C-order result is the
    padded tensor's column-major values.  A plan without pads pads
    nothing and copies nothing before the interlace."""
    if data.dims != plan.original_dims:
        raise PlanError(
            f"data dims {data.dims} do not match the plan's "
            f"{plan.original_dims}"
        )
    values = data.values
    if plan.pads:
        grow = [(0, p - n) for n, p in zip(data.dims, plan.padded_dims())]
        values = np.pad(data.to_numpy().T, grow[::-1], mode="edge")
        values = values.reshape(-1)
    if plan.interlace is None:
        # splitting axes is a pure reshape of the column-major values
        return DenseTensor(plan.tensorized_dims(), values)
    arr = values.reshape(plan.pre_interlace_dims(), order="F")
    return DenseTensor.from_numpy(np.transpose(arr, plan.interlace))


def axis_offsets(plan: TensorizePlan, indices=None) -> list:
    """Per original axis, what each of its 0-based ``indices`` (an array
    per axis, by default every unpadded index) adds to the flat index of
    the tensorized tensor: the sum of its digits times their strides, at
    a cost that follows the indices, not the extents.  An entry's flat
    index is the sum of its axes' offsets, wherever interlacing puts them."""
    dims = plan.tensorized_dims()
    strides = np.cumprod((1,) + dims[:-1])
    # the train stride of each split dimension, in pre-interlace order
    strides = iter(strides[np.argsort(plan.interlace or range(len(dims)))])
    if indices is None:
        indices = [np.arange(n) for n in plan.original_dims]
    out = []
    for ax, index in enumerate(indices, 1):
        offset = 0
        for split in plan.axis_split_dims(ax):
            # column-major: each digit runs slower than those before it
            index, digit = np.divmod(index, split)
            offset = offset + digit * next(strides)
        out.append(offset)
    return out


def invert_plan(data: DenseTensor, plan: TensorizePlan) -> DenseTensor:
    """Exact inverse of :func:`apply_plan` onto the original (unpadded)
    box: a gather through :func:`axis_offsets`."""
    if data.dims != plan.tensorized_dims():
        raise PlanError(
            f"data dims {data.dims} do not match the plan's tensorized "
            f"dims {plan.tensorized_dims()}"
        )
    return DenseTensor.from_numpy(data.values[sum(np.ix_(*axis_offsets(plan)))])


def tensorize_vector(v: DenseTensor, level: int) -> DenseTensor:
    """View a length-2^d vector as an ``l``-dimensional tensor.

    The result has shape ``2^(d-l+1) x 2 x ... x 2``: the leading leaf
    dimension walks within a block of consecutive entries, the remaining
    binary dimensions walk the top levels of the subdivision tree.  Under
    the column-major convention this is a pure reshape.
    """
    if v.ndim != 1:
        raise PlanError(f"expected a vector, got {v.ndim} dimensions")
    n = v.dims[0]
    if not _is_power_of_two(n):
        raise PlanError(f"extent {n} is not a power of two")
    d = n.bit_length() - 1
    if not 1 <= level <= max(d, 1):
        raise PlanError(f"level {level} out of range 1..{max(d, 1)}")
    new_dims = [2 ** (d - level + 1)] + [2] * (level - 1)
    return DenseTensor(tuple(new_dims), v.values)


def interlace_permutation(level: int):
    """Split-dim permutation pairing row and column factor dimensions:
    (row leaf, col leaf, row_2, col_2, ...)."""
    perm = []
    for k in range(level):
        perm.append(k)
        perm.append(level + k)
    return tuple(perm)


def matrix_interlace_plan(extent: int, level: int) -> TensorizePlan:
    """Plan for interlaced tensorization of a square power-of-two matrix."""
    if not _is_power_of_two(extent):
        raise PlanError(f"extent {extent} is not a power of two")
    d = extent.bit_length() - 1
    if not 1 <= level <= max(d, 1):
        raise PlanError(f"level {level} out of range 1..{max(d, 1)}")
    factors = tuple([2] * d)
    return TensorizePlan(
        original_dims=(extent, extent),
        axis_factors=(factors, factors),
        axis_levels=(level, level),
        interlace=interlace_permutation(level),
        pads=(),
    )


def tensorize_matrix_interlaced(m: DenseTensor, level: int) -> DenseTensor:
    """Tensorize a square power-of-two matrix, a 2-D tensor, with
    interlaced row/column dimensions.

    The result is 2l-dimensional: two leading leaf dimensions of extent
    ``2^(d-l+1)`` (row block, column block) followed by alternating binary
    row/column dimensions.  This is an entry permutation, recorded in the
    plan returned by :func:`matrix_interlace_plan` for exact inversion.
    Anything but a square 2-D tensor raises :class:`PlanError`.
    """
    if m.ndim != 2 or m.dims[0] != m.dims[1]:
        raise PlanError(f"not a square matrix: dims {m.dims}")
    return apply_plan(m, matrix_interlace_plan(m.dims[0], level))
