"""Tensor-train compression toolkit for multidimensional scientific data.

Compresses dense datasets (particle trajectories, sampled kernels,
generic tensors) into tensor-train form with guaranteed reconstruction
error bounds, optionally after Morton-order sorting and mixed-radix
tensorization, and merges independently compressed segments under an
explicit error budget.
"""

__version__ = "0.1.0"

from .dense import (
    DenseMatrix,
    DenseTensor,
    frobenius_norm,
    long_index,
    multi_index,
    reshape,
    unfold,
)
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
from .lowrank import (
    SpectralEstimate,
    TruncatedSVD,
    spectral_norm_estimate,
    truncated_svd,
)
from .metrics import (
    AutocorrelationProfile,
    autocorrelation,
    autocorrelation_profile,
    nrmse,
    rel_frob,
)
from .morton import (
    DomainTransform,
    MortonKey,
    choose_bits,
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
    compose_tolerances,
    compress_run,
    compress_segment,
    compress_tensor,
    list_segments,
    load_segment,
    merge_concat,
    merge_stack,
    merge_tree,
    nrmse_to_relfrob,
    plan_tau_schedule,
    reconstruct_region,
    reconstruct_segment,
    reconstruct_segments,
    save_segment,
    segment_entry,
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
    pad_replicate,
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
    tt_norm,
    tt_round,
    tt_stack_new,
    tt_svd,
    zero_tt,
)
