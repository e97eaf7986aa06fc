"""Command-line front end.

Subcommands: ``compress`` (run directory or raw tensor -> archives),
``reconstruct`` (archives -> raw tensor), ``info`` (archive summary) and
``bench`` (structured-data studies emitting CSV).  Exit codes: 0 success,
1 internal error, 2 user/input error.
"""

import argparse
import csv
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
from .formats import _replacing, read_dt64, write_dt64
from .lowrank import spectral_norm_estimate
from .metrics import rel_frob
from .streaming import (
    REORDER_POLICIES,
    TOLERANCE_KINDS,
    CompressionConfig,
    combine_error_bounds,
    combine_stats,
    compress_run,
    compress_tensor,
    decode_columns,
    decode_leaves,
    error_measures,
    list_segments,
    load_segment,
    reconstruct_region,
    save_segment,
    segment_filename,
    stats_of,
)
from .synthdata import open_run, sample_kernel_matrix, sample_univariate, synth_particles
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
        level=args.level,
        reorder=args.reorder,
    )


def _write_manifest(outdir, payload) -> str:
    """Write ``manifest.json`` beside its old copy, which it replaces only
    once complete (:func:`formats._replacing`)."""
    path = os.path.join(outdir, "manifest.json")
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2).encode("ascii"))
    return path


def _overall_ratio(segs) -> float:
    """Unpadded entries per stored core entry over several parts."""
    return sum(s.stats.entry_count for s in segs) / sum(
        s.tt.core_entry_count for s in segs
    )


def _certified(parts) -> dict:
    """Relative-Frobenius error and nRMSE the parts' error bounds certify,
    against their own data statistics; ``None`` where a bound is unknown
    or the measure is undefined (zero norm, constant data).  The parts
    cover disjoint steps, so their bounds add in squares."""
    err = combine_error_bounds(parts)
    rel_frob = nrmse = None
    if err is not None:
        rel_frob, nrmse = error_measures(
            err, combine_stats(p.stats for p in parts)
        )
    return {"certified_rel_frob": rel_frob, "certified_nrmse": nrmse}


def _measure(parts, read) -> dict:
    """Error of the stored parts against the original data, which
    ``read(start, stop)`` returns as a :class:`DenseTensor` of steps
    [start, stop).  Each leaf that :func:`decode_leaves` decodes is
    compared with the original steps it covers, so memory holds one leaf
    and its steps, never the whole run."""
    err2 = 0.0
    stats = []
    for step, block in decode_leaves(parts):
        original = read(step, step + len(block))
        stats.append(stats_of(original.values))
        diff = original.to_numpy() - block
        err2 += float(np.sum(np.square(diff, out=diff)))
        del original, diff, block  # before the next leaf is decoded
    stats = combine_stats(stats)
    metrics = {k: getattr(stats, k) for k in ("entry_count", "x_min", "x_max")}
    rel_frob, nrmse = error_measures(math.sqrt(err2), stats)
    measures = {"nrmse": nrmse, "rel_frob": rel_frob}
    metrics.update((k, v) for k, v in measures.items() if v is not None)
    return metrics


def _compress_run(args, config):
    n_t, read = open_run(args.input)
    timings = {}
    parts = compress_run(read, n_t, config, args.merge, timings)
    return parts, timings, read


def _compress_dt64(args, config):
    tensor = read_dt64(args.input)
    t0 = time.perf_counter()
    parts = [compress_tensor(tensor, config)]
    timings = {"compress": time.perf_counter() - t0, "merge": 0.0}
    steps = tensor.to_numpy()
    return parts, timings, lambda a, b: DenseTensor.from_numpy(steps[a:b])


def cmd_compress(args) -> int:
    outdir = args.output
    config = _config_from_args(args)
    if os.path.isdir(args.input):
        compress = _compress_run
    elif os.path.isfile(args.input):
        compress = _compress_dt64
        config = dataclasses.replace(config, reorder="none")
    else:
        raise IngestionError(
            f"input {args.input!r} is neither a run directory nor a file"
        )
    if os.path.exists(outdir) and not os.path.isdir(outdir):
        raise IngestionError(f"output {outdir!r} exists and is not a directory")
    final, timings, read = compress(args, config)
    # OUT is made only once there are archives to write, so a failed run
    # leaves none behind
    paths = [save_segment(outdir, p, config.config_hash()) for p in final]
    # an earlier run's archives would be read back beside this one's manifest
    for stale in set(list_segments(outdir)) - set(paths):
        os.remove(stale)
    metrics = _measure(final, read) if args.verify else {}
    metrics.update(_certified(final))
    metrics["compression_ratio_cores_only"] = _overall_ratio(final)
    metrics["ranks_final"] = [list(p.tt.ranks) for p in final]
    manifest = {
        "command": "compress",
        "tool_version": __version__,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "inputs": [args.input],
        "outputs": [{"path": p, "bytes": os.path.getsize(p)} for p in paths],
        "timings_s": timings,
        "metrics": metrics,
    }
    path = _write_manifest(outdir, manifest)
    print(f"wrote {len(paths)} archive(s); manifest: {path}")
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


def _load_run_segments(directory):
    """The segment archives of a directory, which must cover one run from
    step 0 on, each named after its own time range."""
    paths = list_segments(directory)
    if not paths:
        raise IngestionError(f"no segment archives found in {directory!r}")
    segs = [load_segment(p) for p in paths]
    for path, seg in zip(paths, segs):
        if os.path.basename(path) != segment_filename(seg):
            raise IngestionError(
                f"{path} holds steps {seg.time_range[0]}..{seg.time_range[1]}"
                f"; its name does not match"
            )
    if segs[0].time_range[0] != 0:
        raise IngestionError(
            f"the first segment starts at step {segs[0].time_range[0]}, not 0"
        )
    return segs


def cmd_reconstruct(args) -> int:
    if os.path.isdir(args.archive):
        if args.region is not None:
            raise ConfigError(
                "region selection works on a single archive file"
            )
        segs = _load_run_segments(args.archive)
    else:
        segs = [load_segment(args.archive)]
    if args.region is not None:
        ndim = len(segs[0].plan.original_dims)
        out = reconstruct_region(segs[0], _parse_region(args.region, ndim))
        dims, blocks = out.dims, [out.values]
    else:
        dims, blocks = decode_columns(segs)  # checks the run before writing
    write_dt64(args.output, dims, blocks)
    print(f"wrote {args.output} dims={dims}")
    return EXIT_OK


def cmd_info(args) -> int:
    seg = load_segment(args.archive)
    archive_bytes = os.path.getsize(args.archive)
    payload = {
        "archive": args.archive,
        "archive_bytes": archive_bytes,
        "train_dims": list(seg.tt.dims),
        "ranks": list(seg.tt.ranks),
        "original_dims": list(seg.plan.original_dims),
        "stack_dims": list(seg.stack_dims),
        "time_range": list(seg.time_range),
        "reorder": seg.reorder,
        "error_bound": seg.error_bound,
        **_certified([seg]),
        "compression_ratio_cores_only": seg.compression_ratio,
        "compression_ratio_total_archive": (
            seg.stats.entry_count * 8 / archive_bytes
        ),
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
            "entry_count",
        ):
            print(f"{key}: {payload[key]}")
        for key in ("error_bound", "certified_rel_frob", "certified_nrmse"):
            value = payload[key]
            print(f"{key}: {'unknown' if value is None else f'{value:.4g}'}")
        print(
            "compression ratio (cores only): "
            f"{payload['compression_ratio_cores_only']:.4g}"
        )
        print(
            "compression ratio (total archive): "
            f"{payload['compression_ratio_total_archive']:.4g}"
        )
    return EXIT_OK


def _nonempty(values, text):
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no values")
    return values


def _parse_floats(text):
    return _nonempty([float(x) for x in text.split(",") if x], text)


def _parse_levels(text):
    if ":" in text:
        lo, hi = text.split(":")
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(x) for x in text.split(",") if x], text)


def bench_fig3(args):
    """Tensorization-level sweep on the peaked univariate samples: one
    row per delta, tau and level, its keys in column order."""
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
    return rows


def bench_table1(args):
    """Interlaced kernel-matrix compression with spectral-error readout:
    one row per level and tau, its keys in column order.  Its rows name
    no delta, so it takes exactly one."""
    if len(args.deltas) != 1:
        raise ConfigError(
            f"table1 takes one delta, got {len(args.deltas)}: {args.deltas}"
        )
    (delta,) = args.deltas
    kernel = sample_kernel_matrix(delta, args.d)
    dense_k = kernel.to_numpy()
    rows = []
    for level in args.levels:
        plan = matrix_interlace_plan(kernel.dims[0], level)
        tensor = tensorize_matrix_interlaced(kernel, level)
        for tau in args.taus:
            train = tt_svd(tensor, tau)
            # formed once: K @ v - R @ v cancels at tight tolerances
            diff = dense_k - invert_plan(tt_full(train), plan).to_numpy()
            est = spectral_norm_estimate(
                lambda v: diff @ v,
                lambda v: diff.T @ v,
                diff.shape,
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
    return rows


def bench_streaming(args):
    """Segmented compression of a settling run: a row for its segments and
    one for the merged run, its keys in column order.  The untensorized
    pass runs first, so each row is built whole."""
    n_t = args.segments * args.segment_length
    batch = synth_particles(args.particles, n_t, args.scenario, args.seed)
    config = CompressionConfig(
        tolerance=args.tolerance,
        tolerance_kind="nrmse",
        segment_length=args.segment_length,
        reorder="segment",
    )
    # the same segments untensorized, at the same budget and ordering: the
    # segments' ratio, then the merged run's when there is one
    flat = []
    compress_run(
        batch.time_slice, n_t, dataclasses.replace(config, level=1),
        on_level=lambda segs: flat.append(_overall_ratio(segs)),
    )
    rows = []

    def add_row(segs):
        # the error budget composes over the whole run, not per segment
        rows.append({
            "study": "streaming",
            "level": len(rows),
            "steps_per_segment": segs[0].total_steps,
            "n_segments": len(segs),
            "overall_ratio": _overall_ratio(segs),
            "overall_ratio_untensorized": flat[len(rows)],
            "overall_nrmse": _measure(segs, batch.time_slice).get("nrmse"),
        })

    compress_run(batch.time_slice, n_t, config, on_level=add_row)
    return rows


def cmd_bench(args) -> int:
    studies = {
        "fig3": bench_fig3, "table1": bench_table1, "streaming": bench_streaming
    }
    rows = studies[args.study](args)
    with open(args.output, "w", newline="") as fh:
        # every study returns at least one row, its keys in column order
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)
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
        choices=TOLERANCE_KINDS,
        default="nrmse",
        dest="tolerance_kind",
    )
    p.add_argument("--segment-length", type=int, default=32, dest="segment_length")
    p.add_argument(
        "--level", type=int, default=None,
        help="tensorization level override; 1 keeps every axis whole",
    )
    p.add_argument("--no-merge", dest="merge", action="store_false")
    p.add_argument("--reorder", choices=REORDER_POLICIES, default="segment")
    p.add_argument("--verify", action="store_true")
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
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_bench)
    return parser


_BENCH_DEFAULTS = {
    "fig3": dict(d=20, deltas=[1e-1, 1e-5, 1e-9], taus=[1e-1, 1e-2, 1e-3, 1e-4],
                 levels=list(range(10, 21))),
    "table1": dict(d=10, deltas=[1e-5], taus=[1e-2, 1e-5, 1e-8, 1e-11, 1e-14],
                   levels=[6, 7, 8]),
}


def _apply_bench_defaults(args) -> None:
    """The study's defaults for the flags that were not given; a given
    value, even 0, is kept for the study to check."""
    if args.command != "bench":
        return
    for key, value in _BENCH_DEFAULTS.get(args.study, {}).items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_bench_defaults(args)
    try:
        return args.func(args)
    except (TTCompressError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
