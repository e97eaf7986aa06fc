"""Tensor-train compression toolkit for multidimensional scientific data.

Compresses dense datasets (particle trajectories, sampled kernels,
generic tensors) into tensor-train form with guaranteed reconstruction
error bounds, optionally after ordering particles by balanced bisection
of their positions and mixed-radix tensorization, and merges
independently compressed segments under an explicit error budget.
"""

__version__ = "0.1.0"

from .dense import DenseTensor
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateDataError,
    FormatError,
    IndexRangeError,
    IngestionError,
    MergeError,
    PlanError,
    ShapeError,
    StructureError,
    TTCompressError,
)
from .formats import read_dt64, read_ttc1, write_dt64, write_ttc1
from .lowrank import SpectralEstimate, spectral_norm_estimate
from .metrics import nrmse, rel_frob
from .morton import (
    DomainTransform,
    MortonKey,
    fit_domain,
    morton_id,
    morton_keys,
    morton_sort,
)
from .streaming import (
    CompressedSegment,
    CompressionConfig,
    DataStats,
    combine_stats,
    compress_run,
    compress_segment,
    compress_tensor,
    list_segments,
    load_segment,
    merge_stack,
    merge_tree,
    nrmse_to_relfrob,
    reconstruct_region,
    reconstruct_segment,
    reconstruct_segments,
    save_segment,
    stats_of,
)
from .synthdata import (
    SnapshotBatch,
    load_snapshots,
    open_run,
    sample_kernel_matrix,
    sample_univariate,
    synth_particles,
    write_run,
)
from .tensorize import (
    AxisPad,
    TensorizePlan,
    apply_plan,
    factor_dims,
    invert_plan,
    matrix_interlace_plan,
    next_factorable,
    tensorize_matrix_interlaced,
    tensorize_vector,
)
from .tt import (
    TTTensor,
    compression_ratio,
    constant_tt,
    tt_concat_existing,
    tt_full,
    tt_get,
    tt_round,
    tt_stack_new,
    tt_svd,
    zero_tt,
)
