"""Command-line front end.

Subcommands: ``compress`` (run directory or raw tensor -> archives),
``reconstruct`` (archives -> raw tensor), ``info`` (archive summary) and
``bench`` (structured-data studies emitting CSV).  Exit codes: 0 success,
1 internal error, 2 user/input error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .dense import DenseTensor
from .errors import ConfigError, IndexRangeError, IngestionError, TTCompressError
from .formats import read_dt64, write_dt64
from .lowrank import spectral_norm_estimate
from .metrics import nrmse as nrmse_metric, rel_frob, write_csv
from .morton import fit_domain, morton_sort, DEFAULT_BITS
from .streaming import (
    CompressionConfig,
    compress_segment,
    compress_tensor,
    list_segments,
    load_segment,
    merge_tree,
    merge_tree_levels,
    nrmse_to_relfrob,
    plan_tau_schedule,
    reconstruct_region,
    reconstruct_segment,
    save_segment,
    segment_metrics,
    stats_of,
)
from .synthdata import load_snapshots, sample_kernel_matrix, sample_univariate, synth_particles
from .tensorize import invert_plan, matrix_interlace_plan, tensorize_matrix_interlaced, tensorize_vector
from .tt import compression_ratio, tt_full, tt_svd

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2


def _config_from_args(args) -> CompressionConfig:
    return CompressionConfig(
        tolerance=args.tolerance,
        tolerance_kind=args.tolerance_kind,
        segment_length=args.segment_length,
        merge_arity=args.merge_arity,
        tensorize=args.tensorize,
        max_factor=args.max_factor,
        time_level=args.level,
        particle_level=args.level,
        reorder=args.reorder,
        morton_bits=args.morton_bits,
    )


def _write_manifest(outdir, payload) -> str:
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
    return path


def _output_record(path) -> dict:
    return {"path": path, "bytes": os.path.getsize(path)}


def _compress_run(args, outdir) -> dict:
    config = _config_from_args(args)
    batch = load_snapshots(args.input)
    n_t = batch.n_t
    seg_len = config.segment_length
    n_segments = math.ceil(n_t / seg_len)
    merging = args.merge and n_segments > 1
    if merging and config.reorder == "timestep":
        raise ConfigError(
            "per-timestep reordering produces per-step permutations that "
            "cannot be merged; rerun with --no-merge or --reorder segment"
        )

    # one overall error target: segments get half the budget, merge levels
    # split the rest; a single unmerged segment keeps the full budget
    seg_config = config
    if merging:
        seg_config = dataclasses.replace(config, tolerance=config.tolerance / 2)

    global_stats = stats_of(batch.data.values)
    perm_override = None
    if merging and config.reorder == "segment":
        # one ordering for the whole merged group
        if batch.positions_first is None:
            raise ConfigError("Morton reordering needs positions; use --reorder none")
        transform = fit_domain(batch.positions_first)
        perm_override = morton_sort(
            transform.apply(batch.positions_first),
            config.morton_bits or DEFAULT_BITS,
        )

    t0 = time.perf_counter()
    segments = [
        compress_segment(
            batch.time_slice(start, min(start + seg_len, n_t)),
            seg_config,
            first_step=start,
            stats_reference=global_stats
            if config.tolerance_kind == "nrmse"
            else None,
            permutation_override=perm_override,
            pad_time_to=seg_len if merging else None,
        )
        for start in range(0, n_t, seg_len)
    ]
    compress_time = time.perf_counter() - t0

    seg_dir = os.path.join(outdir, "segments")
    outputs = []
    for seg in segments:
        outputs.append(
            _output_record(save_segment(seg_dir, seg, config.config_hash()))
        )

    merged = None
    merge_time = 0.0
    if merging:
        t0 = time.perf_counter()
        n_levels = merge_tree_levels(len(segments), config.merge_arity)
        if config.tolerance_kind == "nrmse":
            total_rel = nrmse_to_relfrob(config.tolerance, global_stats)
        else:
            total_rel = config.tolerance
        worst = max(s.tolerance_spent for s in segments)
        if total_rel is None:
            schedule = [0.0] * n_levels
            budget = None
        else:
            schedule = plan_tau_schedule(total_rel, worst, n_levels)
            budget = total_rel
        levels = merge_tree(segments, config.merge_arity, schedule, budget)
        merged = levels[-1][0]
        merge_time = time.perf_counter() - t0
        outputs.append(
            _output_record(save_segment(outdir, merged, config.config_hash()))
        )

    metrics = {}
    final = merged if merged is not None else None
    if args.verify:
        original = batch.data
        if final is not None:
            report = segment_metrics(final, original=original)
        elif len(segments) == 1:
            report = segment_metrics(segments[0], original=original)
        else:
            parts = [
                reconstruct_segment(s).to_numpy() for s in segments
            ]
            recon = DenseTensor.from_numpy(np.concatenate(parts, axis=0))
            report = None
            metrics["nrmse"] = nrmse_metric(original, recon)
            metrics["rel_frob"] = rel_frob(original, recon)
        if report is not None:
            metrics = {
                k: v for k, v in report.to_dict().items() if v is not None
            }
    headline = merged if merged is not None else segments[0]
    metrics.setdefault(
        "compression_ratio_cores_only",
        sum(s.stats.entry_count for s in ([merged] if merged else segments))
        / sum(s.tt.core_entry_count for s in ([merged] if merged else segments)),
    )
    metrics["ranks_final"] = list(headline.tt.ranks)

    return {
        "command": "compress",
        "tool_version": __version__,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "inputs": [args.input],
        "outputs": outputs,
        "timings_s": {"compress": compress_time, "merge": merge_time},
        "metrics": metrics,
    }


def _compress_dt64(args, outdir) -> dict:
    config = _config_from_args(args)
    if args.reorder != "none":
        config = dataclasses.replace(config, reorder="none")
    tensor = read_dt64(args.input)
    t0 = time.perf_counter()
    seg = compress_tensor(tensor, config, level=args.level)
    compress_time = time.perf_counter() - t0
    outputs = [_output_record(save_segment(outdir, seg, config.config_hash()))]
    metrics = {}
    if args.verify:
        report = segment_metrics(seg, original=tensor)
        metrics = {k: v for k, v in report.to_dict().items() if v is not None}
    metrics.setdefault("compression_ratio_cores_only", seg.compression_ratio)
    metrics["ranks_final"] = list(seg.tt.ranks)
    return {
        "command": "compress",
        "tool_version": __version__,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "inputs": [args.input],
        "outputs": outputs,
        "timings_s": {"compress": compress_time, "merge": 0.0},
        "metrics": metrics,
    }


def cmd_compress(args) -> int:
    outdir = args.output
    os.makedirs(outdir, exist_ok=True)
    if os.path.isdir(args.input):
        manifest = _compress_run(args, outdir)
    elif os.path.isfile(args.input):
        manifest = _compress_dt64(args, outdir)
    else:
        raise IngestionError(
            f"input {args.input!r} is neither a run directory nor a file"
        )
    path = _write_manifest(outdir, manifest)
    print(f"wrote {len(manifest['outputs'])} archive(s); manifest: {path}")
    return EXIT_OK


def _parse_region(text, ndim):
    parts = text.split(",")
    if len(parts) != ndim:
        raise IndexRangeError(
            f"region needs {ndim} ranges (lo:hi), got {len(parts)}"
        )
    region = []
    for part in parts:
        lo, _, hi = part.partition(":")
        try:
            lo = int(lo)
            hi = int(hi) if hi else lo
        except ValueError:
            raise IndexRangeError(
                f"bad region range {part!r}; expected lo:hi integers"
            ) from None
        region.append((lo, hi))
    return region


def cmd_reconstruct(args) -> int:
    if os.path.isdir(args.archive):
        paths = list_segments(args.archive)
        if not paths:
            raise IngestionError(f"no segment archives found in {args.archive!r}")
        if args.region:
            raise ConfigError(
                "region selection works on a single archive file"
            )
        parts = [reconstruct_segment(load_segment(p)).to_numpy() for p in paths]
        out = DenseTensor.from_numpy(np.concatenate(parts, axis=0))
    else:
        seg = load_segment(args.archive)
        if args.region:
            ndim = len(seg.plan.original_dims)
            region = _parse_region(args.region, ndim)
            out = reconstruct_region(seg, region)
        else:
            out = reconstruct_segment(seg)
    write_dt64(args.output, out)
    print(f"wrote {args.output} dims={out.dims}")
    return EXIT_OK


def cmd_info(args) -> int:
    seg = load_segment(args.archive)
    archive_bytes = os.path.getsize(args.archive)
    report = segment_metrics(seg, archive_bytes=archive_bytes)
    payload = {
        "archive": args.archive,
        "archive_bytes": archive_bytes,
        "train_dims": list(seg.tt.dims),
        "ranks": list(seg.tt.ranks),
        "original_dims": list(seg.plan.original_dims),
        "stack_dims": list(seg.stack_dims),
        "time_range": list(seg.time_range),
        "reorder": seg.reorder,
        "tolerance_spent": seg.tolerance_spent,
        "compression_ratio_cores_only": report.compression_ratio_cores_only,
        "compression_ratio_total_archive": report.compression_ratio_total_archive,
        "entry_count": seg.stats.entry_count,
        "x_min": seg.stats.x_min,
        "x_max": seg.stats.x_max,
        "tool_version": __version__,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key in (
            "archive",
            "original_dims",
            "train_dims",
            "ranks",
            "stack_dims",
            "time_range",
            "reorder",
            "tolerance_spent",
            "entry_count",
        ):
            print(f"{key}: {payload[key]}")
        print(
            "compression ratio (cores only): "
            f"{payload['compression_ratio_cores_only']:.4g}"
        )
        print(
            "compression ratio (total archive): "
            f"{payload['compression_ratio_total_archive']:.4g}"
        )
    return EXIT_OK


def _parse_floats(text):
    return [float(x) for x in text.split(",") if x]


def _parse_levels(text):
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x]


def bench_fig3(args):
    """Tensorization-level sweep on the peaked univariate samples."""
    rows = []
    for delta in args.deltas:
        samples = sample_univariate(delta, args.d)
        for tau in args.taus:
            for level in args.levels:
                tensor = tensorize_vector(samples, level)
                train = tt_svd(tensor, tau)
                err = rel_frob(tensor, tt_full(train))
                rows.append(
                    {
                        "study": "fig3",
                        "delta": delta,
                        "tau": tau,
                        "level": level,
                        "ndim": train.ndim,
                        "ratio": compression_ratio(train),
                        "rel_frob_error": err,
                    }
                )
    columns = ["study", "delta", "tau", "level", "ndim", "ratio", "rel_frob_error"]
    return rows, columns


def bench_table1(args):
    """Interlaced kernel-matrix compression with spectral-error readout."""
    delta = args.deltas[0]
    kernel = sample_kernel_matrix(delta, args.d)
    dense_k = kernel.to_numpy()
    rows = []
    for level in args.levels:
        plan = matrix_interlace_plan(kernel.rows, level)
        tensor = tensorize_matrix_interlaced(kernel, level)
        for tau in args.taus:
            train = tt_svd(tensor, tau)
            recon = invert_plan(tt_full(train), plan).to_numpy()
            est = spectral_norm_estimate(
                lambda v: dense_k @ v - recon @ v,
                lambda v: dense_k.T @ v - recon.T @ v,
                dense_k.shape,
                tol=1e-3,
                max_iterations=500,
            )
            rows.append(
                {
                    "study": "table1",
                    "level": level,
                    "tau": tau,
                    "ndim": train.ndim,
                    "ratio": compression_ratio(train),
                    "spectral_error": est.value,
                    "spectral_converged": est.converged,
                }
            )
    columns = [
        "study",
        "level",
        "tau",
        "ndim",
        "ratio",
        "spectral_error",
        "spectral_converged",
    ]
    return rows, columns


def bench_streaming(args):
    """Segmented compression of a settling run plus its merge-tree levels."""
    n_t = args.segments * args.segment_length
    batch = synth_particles(args.particles, n_t, args.scenario, args.seed)
    # segments get half the error budget, the merge levels share the rest
    config = CompressionConfig(
        tolerance=args.tolerance / 2,
        tolerance_kind="nrmse",
        segment_length=args.segment_length,
        merge_arity=args.merge_arity,
        reorder="segment",
    )
    config_flat = dataclasses.replace(config, tensorize=False)
    global_stats = stats_of(batch.data.values)
    transform = fit_domain(batch.positions_first)
    perm = morton_sort(transform.apply(batch.positions_first), DEFAULT_BITS)

    segments = []
    flat_ratios = []
    for start in range(0, n_t, args.segment_length):
        sub = batch.time_slice(start, start + args.segment_length)
        seg = compress_segment(
            sub,
            config,
            first_step=start,
            stats_reference=global_stats,
            permutation_override=perm,
        )
        segments.append(seg)
        flat = compress_segment(
            sub,
            config_flat,
            first_step=start,
            stats_reference=global_stats,
            permutation_override=perm,
        )
        flat_ratios.append(flat.compression_ratio)

    n_levels = merge_tree_levels(len(segments), args.merge_arity)
    total_rel = nrmse_to_relfrob(args.tolerance, global_stats)
    worst = max(s.tolerance_spent for s in segments)
    schedule = plan_tau_schedule(total_rel, worst, n_levels)
    levels = merge_tree(segments, args.merge_arity, schedule, total_rel)

    original = batch.data.to_numpy()
    rows = []
    for lvl, segs in enumerate(levels):
        entries = sum(s.stats.entry_count for s in segs)
        stored = sum(s.tt.core_entry_count for s in segs)
        # assemble the whole run from this level's segments; the error
        # budget composes globally, not per segment
        assembled = np.empty_like(original)
        for s in segs:
            first, last = s.time_range
            assembled[first : last + 1] = reconstruct_segment(s).to_numpy()
        overall_nrmse = nrmse_metric(
            batch.data, DenseTensor.from_numpy(assembled)
        )
        row = {
            "study": "streaming",
            "level": lvl,
            "steps_per_segment": segs[0].total_steps,
            "n_segments": len(segs),
            "overall_ratio": entries / stored,
            "overall_nrmse": overall_nrmse,
        }
        if lvl == 0:
            total = sum(s.stats.entry_count for s in segments)
            row["overall_ratio_untensorized"] = total / sum(
                s.stats.entry_count / r for s, r in zip(segments, flat_ratios)
            )
        rows.append(row)
    columns = [
        "study",
        "level",
        "steps_per_segment",
        "n_segments",
        "overall_ratio",
        "overall_ratio_untensorized",
        "overall_nrmse",
    ]
    return rows, columns


def cmd_bench(args) -> int:
    if args.study == "fig3":
        rows, columns = bench_fig3(args)
    elif args.study == "table1":
        rows, columns = bench_table1(args)
    else:
        rows, columns = bench_streaming(args)
    write_csv(args.output, rows, columns)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttc",
        description="Tensor-train compression of multidimensional datasets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a run directory or .dt64 file")
    p.add_argument("input")
    p.add_argument("--output", "-o", required=True, help="output directory")
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument(
        "--tolerance-kind",
        choices=["nrmse", "relfrob"],
        default="nrmse",
        dest="tolerance_kind",
    )
    p.add_argument("--segment-length", type=int, default=32, dest="segment_length")
    p.add_argument("--level", type=int, default=None, help="tensorization level override")
    p.add_argument("--merge-arity", type=int, default=2, dest="merge_arity")
    p.add_argument("--no-merge", dest="merge", action="store_false")
    p.add_argument(
        "--reorder", choices=["none", "segment", "timestep"], default="segment"
    )
    p.add_argument("--morton-bits", type=int, default=None, dest="morton_bits")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--no-tensorize", dest="tensorize", action="store_false")
    p.add_argument("--max-factor", type=int, default=5, dest="max_factor")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("reconstruct", help="expand archives back to a .dt64 tensor")
    p.add_argument("archive", help="a .ttc file or a directory of segments")
    p.add_argument("--output", "-o", required=True)
    p.add_argument(
        "--region",
        default=None,
        help="per-axis 1-based inclusive ranges, e.g. 1:16,5:5,1:3",
    )
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("info", help="summarize an archive")
    p.add_argument("archive")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("bench", help="run a structured-data study, emit CSV")
    p.add_argument("study", choices=["fig3", "table1", "streaming"])
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--deltas", type=_parse_floats, default=None)
    p.add_argument("--taus", type=_parse_floats, default=None)
    p.add_argument("--levels", type=_parse_levels, default=None)
    p.add_argument("--segments", type=int, default=32)
    p.add_argument("--segment-length", type=int, default=32, dest="segment_length")
    p.add_argument("--particles", type=int, default=1024)
    p.add_argument(
        "--scenario", choices=["ballistic", "settle", "noise"], default="settle"
    )
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--merge-arity", type=int, default=2, dest="merge_arity")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_bench)
    return parser


def _apply_bench_defaults(args) -> None:
    if args.command != "bench":
        return
    if args.study == "fig3":
        args.d = args.d or 20
        args.deltas = args.deltas or [1e-1, 1e-5, 1e-9]
        args.taus = args.taus or [1e-1, 1e-2, 1e-3, 1e-4]
        args.levels = args.levels or list(range(10, 21))
    elif args.study == "table1":
        args.d = args.d or 10
        args.deltas = args.deltas or [1e-5]
        args.taus = args.taus or [1e-2, 1e-5, 1e-8, 1e-11, 1e-14]
        args.levels = args.levels or [6, 7, 8]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_bench_defaults(args)
    try:
        return args.func(args)
    except TTCompressError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except (FileNotFoundError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
