"""Spans around the calls into ttcompress's modules, and the per-layer
metrics made from them.

The program is not edited: :func:`install` replaces module functions with
wrappers in the benchmark's own process.  A span is ``[name, start, end,
parent, attrs]``; spans are kept in memory and written out when the
process ends.  A self time is a span's duration minus the durations of its
direct child spans (calls are single-threaded, so children never overlap).
"""

import functools
import json
import os
import time
from collections import defaultdict

# metric -> (span names, kind); kind is "total", "self", "calls",
# "sum:<attr>" or "max:<attr>".  Names and units are in BENCHMARK.json.
LAYER_SPANS = {
    "cli.compress_self_s": (("cli.compress",), "self"),
    "synthdata.load_snapshots_s": (("synthdata.load_snapshots",), "total"),
    "synthdata.time_slice_s": (("synthdata.time_slice",), "total"),
    "dense.from_numpy_calls": (("dense.from_numpy",), "calls"),
    "dense.from_numpy_bytes": (("dense.from_numpy",), "sum:bytes"),
    "morton.morton_sort_calls": (("morton.morton_sort",), "calls"),
    "morton.morton_sort_s": (("morton.morton_sort",), "total"),
    "tensorize.apply_plan_s": (("tensorize.apply_plan",), "total"),
    "tensorize.invert_plan_s": (("tensorize.invert_plan",), "total"),
    "lowrank.svd_calls": (("lowrank.svd",), "calls"),
    "lowrank.svd_s": (("lowrank.svd",), "total"),
    "lowrank.svd_flops": (("lowrank.svd",), "sum:flops"),
    "lowrank.svd_accurate_calls": (("lowrank.svd_driver",), "sum:accurate"),
    "lowrank.qr_calls": (("lowrank.qr",), "calls"),
    "lowrank.qr_s": (("lowrank.qr",), "total"),
    "tt.tt_svd_calls": (("tt.tt_svd",), "calls"),
    "tt.tt_svd_self_s": (("tt.tt_svd",), "self"),
    "tt.tt_round_calls": (("tt.tt_round",), "calls"),
    "tt.tt_round_self_s": (("tt.tt_round",), "self"),
    "tt.tt_stack_new_s": (("tt.tt_stack_new",), "total"),
    "tt.tt_full_s": (("tt.tt_full",), "total"),
    "tt.tt_get_calls": (("tt.tt_get",), "calls"),
    "tt.tt_get_s": (("tt.tt_get",), "total"),
    "tt.max_rank": (("tt.tt_svd", "tt.tt_round"), "max:max_rank"),
    "tt.core_entries": (("tt.tt_svd", "tt.tt_round"), "sum:core_entries"),
    "streaming.compress_segment_calls": (("streaming.compress_segment",), "calls"),
    "streaming.compress_segment_self_s": (("streaming.compress_segment",), "self"),
    "streaming.merge_tree_s": (("streaming.merge_tree",), "total"),
    "streaming.merge_stack_calls": (("streaming.merge_stack",), "calls"),
    "streaming.reconstruct_segment_self_s": (("streaming.reconstruct_segment",), "self"),
    "streaming.reconstruct_region_self_s": (("streaming.reconstruct_region",), "self"),
    "streaming.region_entries": (("streaming.reconstruct_region",), "sum:entries"),
    "formats.write_ttc1_s": (("formats.write_ttc1",), "total"),
    "formats.read_ttc1_s": (("formats.read_ttc1",), "total"),
    "formats.bytes_written": (("formats.write_ttc1", "formats.write_dt64"), "sum:bytes"),
    "formats.write_dt64_s": (("formats.write_dt64",), "total"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, kwargs,
        result, parent_name)`` adds counts after the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, 0.0, 0.0, parent, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                parent_name = self.spans[parent][0] if parent >= 0 else None
                span[4] = attrs(args, kwargs, result, parent_name)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _train_counts(args, kwargs, train, parent):
    return {"max_rank": max(train.ranks), "core_entries": train.core_entry_count}


def _svd_counts(args, kwargs, result, parent):
    m, n = args[0].shape
    return {"flops": m * n * min(m, n)}


def _svd_driver_counts(args, kwargs, result, parent):
    # the accurate (gesvd) branch, counted for truncations that tt asked for
    accurate = kwargs.get("accurate", args[1] if len(args) > 1 else False)
    return {"accurate": int(bool(accurate) and parent == "lowrank.svd")}


def _dense_counts(args, kwargs, tensor, parent):
    return {"bytes": tensor.values.nbytes}


def _region_counts(args, kwargs, tensor, parent):
    return {"entries": tensor.size}


def _file_counts(args, kwargs, result, parent):
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    """Route the calls the per-layer metrics need through ``tracer``."""
    from ttcompress import (
        cli, dense, formats, lowrank, morton, streaming, synthdata, tensorize, tt,
    )
    import ttcompress

    modules = (ttcompress, cli, dense, formats, lowrank, morton, streaming,
               synthdata, tensorize, tt)

    def everywhere(owner, attr, name, attrs=None):
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, attrs)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    def only(module, attr, name, attrs=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))

    only(cli, "cmd_compress", "cli.compress")
    only(cli, "cmd_reconstruct", "cli.reconstruct")
    everywhere(synthdata, "load_snapshots", "synthdata.load_snapshots")
    batch = synthdata.SnapshotBatch
    batch.time_slice = tracer.wrap("synthdata.time_slice", batch.time_slice)
    from_numpy = dense.DenseTensor.__dict__["from_numpy"].__func__
    dense.DenseTensor.from_numpy = classmethod(
        tracer.wrap("dense.from_numpy", from_numpy, _dense_counts)
    )
    everywhere(morton, "morton_sort", "morton.morton_sort")
    everywhere(tensorize, "apply_plan", "tensorize.apply_plan")
    everywhere(tensorize, "invert_plan", "tensorize.invert_plan")
    # lowrank is measured for the calls the tt module makes
    only(tt, "_truncated_svd_arrays", "lowrank.svd", _svd_counts)
    only(tt, "_qr_arrays", "lowrank.qr")
    only(lowrank, "_svd", "lowrank.svd_driver", _svd_driver_counts)
    everywhere(tt, "tt_svd", "tt.tt_svd", _train_counts)
    everywhere(tt, "tt_round", "tt.tt_round", _train_counts)
    everywhere(tt, "tt_stack_new", "tt.tt_stack_new")
    everywhere(tt, "tt_full", "tt.tt_full")
    everywhere(tt, "tt_get", "tt.tt_get")
    everywhere(streaming, "compress_segment", "streaming.compress_segment")
    everywhere(streaming, "merge_tree", "streaming.merge_tree")
    everywhere(streaming, "merge_stack", "streaming.merge_stack")
    everywhere(streaming, "reconstruct_segment", "streaming.reconstruct_segment")
    everywhere(streaming, "reconstruct_region", "streaming.reconstruct_region",
               _region_counts)
    everywhere(streaming, "load_segment", "streaming.load_segment")
    everywhere(formats, "write_ttc1", "formats.write_ttc1", _file_counts)
    everywhere(formats, "read_ttc1", "formats.read_ttc1")
    everywhere(formats, "write_dt64", "formats.write_dt64", _file_counts)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one process's spans."""
    child_time = defaultdict(float)
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)
    maxes = defaultdict(int)
    for idx, (name, start, end, _parent, attrs) in enumerate(spans):
        totals[name] += end - start
        selfs[name] += end - start - child_time[idx]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            sums[name, key] += value
            maxes[name, key] = max(maxes[name, key], value)
    out = {}
    for metric, (names, kind) in LAYER_SPANS.items():
        if kind == "total":
            out[metric] = sum(totals[n] for n in names)
        elif kind == "self":
            out[metric] = sum(selfs[n] for n in names)
        elif kind == "calls":
            out[metric] = sum(calls[n] for n in names)
        else:
            how, attr = kind.split(":")
            if how == "sum":
                out[metric] = sum(sums[n, attr] for n in names)
            else:
                out[metric] = max(maxes[n, attr] for n in names)
    return out


def combine(per_process) -> dict:
    """Metrics of several processes of one round: maxima stay maxima,
    everything else adds up."""
    out = {}
    for metric, (_names, kind) in LAYER_SPANS.items():
        values = [m[metric] for m in per_process]
        out[metric] = max(values, default=0) if kind.startswith("max:") else sum(values)
    return out
