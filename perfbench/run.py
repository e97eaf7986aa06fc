"""Benchmark of ttcompress: the ``ttc compress`` / ``ttc reconstruct`` path,
region queries and the tight-tolerance kernel study.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the repository root.  It makes its inputs, sets up several
times, then repeats whole rounds of the workload's operations
until ``--seconds`` have passed, checks every output with its own numpy
code and prints one JSON line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  A results file
with the environment and every round goes to ``.perfbench/results/``.
``--smoke`` runs every workload and check at a tiny size as a self-test.
See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing
from worker import KERNEL_TAUS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = str(HERE / "worker.py")
# what the ``ttc`` console script of pyproject.toml runs
TTC = ["-c", "import sys; from ttcompress.cli import main; sys.exit(main())"]

NRMSE_TARGET = 1e-2
# The settling runs come from this fixed generator seed, not from --seed.
# tt_round can drop a needed direction when stacked segments are linearly
# dependent, and merged archives of about half the seeds from 23 up then
# miss the nRMSE target (seeds 1-22 meet it).  A seeded run would fail on
# some seeds only; this one fails on every run, so the failure is counted
# the same way each time.  --seed still picks the region queries.
SETTLE_SEED = 25
KERNEL_DELTA = 1e-5
# float64 floor of the kernel trains: a lossless train (tau = 0) already
# differs from the samples by 1.7e-14 to 5.1e-14 at levels 6-8
KERNEL_ALLOWANCE = 1e-13
# per-entry slice products and full reconstruction's chained matrix
# products round differently; the difference, relative to the largest
# magnitude in the data, is a few 1e-15
SLICE_ALLOWANCE = 1e-12
# full reconstructions per settle-query round; the round's wall_s also
# holds the region process, whose interpreter-bound loop swings more from
# run to run, and the reconstructions dilute that
RECONSTRUCTS = 3

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


@dataclass(frozen=True)
class Size:
    particles: int
    steps: int
    kernel_d: int
    kernel_levels: tuple
    trajectories: int
    snapshots: int
    boxes: int
    box: tuple  # (steps, particles)


def over_target(ratios) -> float:
    """``error_over_target`` of a round: the worst achieved error over its
    target among the round's operations, and 1 when every one meets its
    target.  Below the target, error is what the program may spend on
    ratio, so only the overshoot is a loss."""
    return max(1.0, *ratios)


FULL = Size(4096, 1024, 10, (6, 7, 8), 4, 2, 16, (8, 16))
SMOKE = Size(128, 128, 6, (3, 4), 2, 1, 2, (4, 4))


class BenchmarkError(RuntimeError):
    pass


@dataclass
class Finished:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str


@dataclass
class Round:
    """One round's operations.  An operation fails when its process exits
    non-zero or its output misses the error target the program promises;
    ``ok`` is false when a further check on the other outputs fails."""

    attempted: int
    failed: int = 0
    ok: bool = True
    values: dict = field(default_factory=dict)  # metric -> samples
    detail: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # span files of a traced round
    layers: dict = None  # their per-layer metrics


class Run:
    """One benchmark run: seed, size, tracing and a scratch directory."""

    def __init__(self, size: Size, seed: int, trace: bool, work: Path):
        self.size = size
        self.seed = seed
        self.trace = trace
        self.work = work
        self.environment = None
        self._count = 0
        # started while this process is still small; see launch.py
        self._launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        """Let the launcher finish and wait for it."""
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    def _next(self, suffix) -> Path:
        self._count += 1
        return self.work / f"{self._count:04d}{suffix}"

    def program(self, args) -> Finished:
        """Run a Python process with the program's sources importable."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        log = self._next(".log")
        request = {
            "args": [sys.executable, *map(str, args)],
            "env": env,
            "cwd": str(ROOT),
            "stdout": str(log.with_suffix(".out")),
            "stderr": str(log),
        }
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        answer = self._launcher.stdout.readline()
        if not answer:
            raise BenchmarkError("the process launcher stopped")
        answer = json.loads(answer)
        if answer["code"] != 0:
            sys.stderr.write(f"exit {answer['code']}: {args}\n{log.read_text()}")
        stdout = log.with_suffix(".out").read_text()
        return Finished(answer["code"], answer["wall_s"], answer["peak_rss_mb"], stdout)

    def spans_path(self):
        return self._next(".spans.json") if self.trace else None

    def ttc(self, *args, spans=None) -> list:
        if spans is None:
            return TTC + list(args)
        return [WORKER, "cli", spans, *args]

    def probe(self) -> None:
        done = self.program([WORKER, "env"])
        if done.code != 0:
            raise BenchmarkError("the program's environment probe failed")
        self.environment = json.loads(done.stdout.splitlines()[-1])


def last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


# --- settle-compress and settle-query --------------------------------------


def setup_settle(run: Run, build_archive: bool) -> dict:
    size = run.size
    run.probe()
    data = inputs.settle_trajectories(SETTLE_SEED, size.particles, size.steps)
    run_dir = run.work / "run"
    state = {"data": data, "run_dir": run_dir, "checked": {}}
    if not build_archive:
        return state
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs.write_run(run_dir, data)
    out = run.work / "archive"
    shutil.rmtree(out, ignore_errors=True)
    done = run.program(run.ttc(
        "compress", run_dir, "-o", out, "--tolerance", NRMSE_TARGET
    ))
    if done.code != 0:
        raise BenchmarkError("ttc compress failed while building the archive")
    # deleted before its pages are written back, which would otherwise
    # happen during the rounds
    shutil.rmtree(run_dir)
    archive = out / f"seg_0_{size.steps - 1}.ttc"
    queries = inputs.region_queries(
        run.seed, data.shape, size.trajectories, size.snapshots,
        size.boxes, size.box,
    )
    queries_path = run.work / "queries.json"
    queries_path.write_text(json.dumps(queries))
    state.update(
        archive=archive,
        ratio=data.size * 8 / archive.stat().st_size,
        queries=queries,
        queries_path=queries_path,
    )
    return state


def write_settle_run(run: Run, state: dict) -> None:
    """settle-compress writes its run directory once, after the timed
    set-ups, and flushes it to disk.  Creating its 1024 files took from
    0.2 s to 0.65 s on one machine from one minute to the next, whatever
    the program; and pages not yet written back would be written during
    the rounds."""
    inputs.write_run(state["run_dir"], state["data"], flush=True)


def round_compress(run: Run, state: dict) -> Round:
    data = state["data"]
    out = run.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    spans = run.spans_path()
    done = run.program(run.ttc(
        "compress", state["run_dir"], "-o", out, "--tolerance", NRMSE_TARGET,
        spans=spans,
    ))
    result = Round(attempted=1, spans=[spans] if spans else [])
    if done.code != 0:
        result.failed = 1
        return result
    archive = out / f"seg_0_{data.shape[0] - 1}.ttc"
    blob = archive.read_bytes()
    # identical archives (the usual case at a fixed thread count) are
    # decoded and checked once
    digest = hashlib.sha256(blob).hexdigest()
    if digest not in state["checked"]:
        state["checked"][digest] = checks.nrmse(data, checks.decode_segment(archive))
    err = state["checked"][digest]
    result.failed = int(err > NRMSE_TARGET)
    ratio = data.size * 8 / len(blob)
    result.values = {
        "wall_s": [done.wall_s],
        "peak_rss_mb": [done.peak_rss_mb],
        "ratio": [ratio],
        "error_over_target": [over_target([err / NRMSE_TARGET])],
    }
    result.detail = {
        "compress_s": done.wall_s,
        "compress_peak_rss_mb": done.peak_rss_mb,
        "compress_ratio": ratio,
        "nrmse": err,
    }
    return result


def region_checks(queries, results, data, full) -> dict:
    """Each region against the full reconstruction's slice and against the
    original.  The nRMSE target bounds the whole run's squared error, so a
    region over that budget misses the target (``over_budget`` counts
    them); a region's own nRMSE is reported, not bounded."""
    scale = float(np.abs(data).max())
    budget = (NRMSE_TARGET * checks.data_range(data)) ** 2 * data.size
    worst_slice = 0.0
    worst_budget_share = 0.0
    worst_local = 0.0
    over_budget = 0
    for k, region in enumerate(queries):
        key = f"q{k}"
        if key not in results.files:
            continue
        box = tuple(slice(lo - 1, hi) for lo, hi in region)
        got = results[key]
        if got.shape != data[box].shape:
            worst_slice = worst_budget_share = worst_local = float("inf")
            continue
        if full is not None:
            worst_slice = max(worst_slice, float(np.abs(got - full[box]).max()) / scale)
        err = got - data[box]
        share = float(np.sum(err * err)) / budget
        over_budget += share > 1.0
        worst_budget_share = max(worst_budget_share, share)
        worst_local = max(
            worst_local,
            float(np.sqrt(np.mean(err * err))) / checks.data_range(data),
        )
    return {
        "slice_difference": worst_slice,
        "budget_share": worst_budget_share,
        "local_nrmse": worst_local,
        "over_budget": over_budget,
    }


def round_query(run: Run, state: dict) -> Round:
    data = state["data"]
    queries = state["queries"]
    result = Round(attempted=RECONSTRUCTS + len(queries))
    full_path = run.work / "full.dt64"
    full = None
    walls = []
    rss = []
    for _ in range(RECONSTRUCTS):
        spans = run.spans_path()
        rebuilt = run.program(run.ttc(
            "reconstruct", state["archive"], "-o", full_path, spans=spans
        ))
        if rebuilt.code != 0:
            result.failed += 1
            continue
        blob = full_path.read_bytes()
        full_path.unlink()  # before its pages are written back
        full = checks.dt64_values(blob)
        digest = hashlib.sha256(blob).hexdigest()
        if digest not in state["checked"]:
            state["checked"][digest] = checks.nrmse(data, full)
        result.failed += state["checked"][digest] > NRMSE_TARGET
        walls.append(rebuilt.wall_s)
        rss.append(rebuilt.peak_rss_mb)
        result.detail.setdefault("reconstruct_s", []).append(rebuilt.wall_s)
        result.detail.setdefault("reconstruct_peak_rss_mb", []).append(rebuilt.peak_rss_mb)
        result.detail.setdefault("nrmse", []).append(state["checked"][digest])
        if spans:
            result.spans.append(spans)
    spans = run.spans_path()
    results_path = run.work / "regions.npz"
    asked = run.program(
        [WORKER, "region", state["archive"], state["queries_path"], results_path]
        + ([spans] if spans else [])
    )
    if asked.code != 0:
        result.failed += len(queries)
    else:
        stats = last_json(asked.stdout)
        result.failed += stats["failed"]
        with np.load(results_path) as results:
            found = region_checks(queries, results, data, full)
        result.ok &= found["slice_difference"] <= SLICE_ALLOWANCE
        result.failed += found["over_budget"]
        walls.append(asked.wall_s)
        rss.append(asked.peak_rss_mb)
        result.detail.update(
            region_entries_per_s=stats["entries"] / stats["elapsed_s"],
            region_peak_rss_mb=asked.peak_rss_mb,
            region_entries=stats["entries"],
            **found,
        )
        if spans:
            result.spans.append(spans)
    if len(rss) == RECONSTRUCTS + 1:
        # the round's operations one after another: the region path is in
        # the end-to-end time as well as the full reconstructions
        result.values["wall_s"] = [sum(walls)]
        result.values["peak_rss_mb"] = [max(rss)]
        result.values["error_over_target"] = [over_target(
            [e / NRMSE_TARGET for e in result.detail["nrmse"]]
            + [found["budget_share"] ** 0.5]
        )]
    result.values["ratio"] = [state["ratio"]]
    return result


# --- kernel-tight -----------------------------------------------------------


def setup_kernel(run: Run) -> dict:
    size = run.size
    run.probe()
    samples = inputs.kernel_samples(size.kernel_d, KERNEL_DELTA)
    path = run.work / "kernel.npy"
    np.save(path, samples)
    return {
        "samples": path,
        "tensors": {lvl: inputs.interlace(samples, lvl) for lvl in size.kernel_levels},
    }


def round_kernel(run: Run, state: dict) -> Round:
    levels = run.size.kernel_levels
    result = Round(attempted=len(levels) * len(KERNEL_TAUS))
    out = run.work / "cores.npz"
    spans = run.spans_path()
    done = run.program(
        [WORKER, "kernel", state["samples"], ",".join(map(str, levels)), out]
        + ([spans] if spans else [])
    )
    if done.code != 0:
        result.failed = result.attempted
        return result
    stats = last_json(done.stdout)
    result.failed = stats["failed"]
    result.spans = [spans] if spans else []
    entries = stored = 0
    errors = {}
    shares = []
    case = 0
    with np.load(out) as saved:
        for level in levels:
            tensor = state["tensors"][level]
            for tau in KERNEL_TAUS:
                case += 1
                cores = []
                while f"{case}.{len(cores)}" in saved.files:
                    cores.append(saved[f"{case}.{len(cores)}"])
                if not cores:
                    continue
                err = checks.rel_frob(tensor, checks.tt_contract(cores))
                errors[f"{level}/{tau:g}"] = err
                shares.append(err / (tau + KERNEL_ALLOWANCE))
                result.failed += shares[-1] > 1.0
                entries += tensor.size
                stored += sum(c.size for c in cores)
    elapsed = stats["elapsed_s"]
    if not stored:
        return result
    result.values = {
        "wall_s": [elapsed],
        "peak_rss_mb": [done.peak_rss_mb],
        "ratio": [entries / stored],
        "error_over_target": [over_target(shares)],
    }
    result.detail = {
        "kernel_s": elapsed,
        "kernel_ratio": entries / stored,
        "case_s": stats["case_s"],
        "rel_frob": errors,
    }
    return result


# --- driver -----------------------------------------------------------------

WORKLOADS = {
    # name: (set-up, untimed step after the set-ups, round, set-ups per run)
    "settle-compress": (
        lambda run: setup_settle(run, False), write_settle_run, round_compress, 7
    ),
    "settle-query": (lambda run: setup_settle(run, True), None, round_query, 2),
    "kernel-tight": (setup_kernel, None, round_kernel, 7),
}


def measure(workload: str, size: Size, seed: int, seconds: float, trace: bool) -> dict:
    setup, after_setup, one_round, setups = WORKLOADS[workload]
    work = OUT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(size, seed, trace, work)
    try:
        setup_s = []
        for _ in range(setups):
            start = time.perf_counter()
            state = setup(run)
            setup_s.append(time.perf_counter() - start)
        if after_setup is not None:
            after_setup(run, state)
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            latest = one_round(run, state)
            if trace:
                latest.layers = tracing.combine([
                    tracing.layer_metrics(json.loads(Path(p).read_text()))
                    for p in latest.spans
                ])
            rounds.append(latest)
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = {
            name: {
                "value": statistics.median(r.layers[name] for r in rounds),
                "unit": unit,
            }
            for name, unit in PER_LAYER
        }
    else:
        metrics = {}
        for name, unit in END_TO_END:
            measured = setup_s if name == "setup_s" else [
                v for r in rounds for v in r.values.get(name, [])
            ]
            if not measured:
                raise BenchmarkError(f"no round measured {name}")
            metrics[name] = {"value": statistics.median(measured), "unit": unit}
    result = {
        "correct": all(r.ok for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size.__dict__,
        "environment": run.environment,
        "setup_s": setup_s,
        "rounds": [r.__dict__ for r in rounds],
        "result": result,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{workload}_seed{seed}_trace{int(trace)}_{stamp}_{os.getpid()}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1, default=str))
    return result


def smoke() -> int:
    """Every workload and check at a tiny size, traced and untraced."""
    if sorted(n for n, _ in PER_LAYER) != sorted(tracing.LAYER_SPANS):
        print("smoke: BENCHMARK.json's per-layer metrics are not the ones "
              "tracing.LAYER_SPANS computes\nsmoke: FAILED")
        return 1
    problems = []
    expect = {
        "settle-compress": lambda m: (
            m["tt.tt_svd_calls"] == 4 and m["streaming.merge_stack_calls"] == 3
            and m["lowrank.svd_accurate_calls"] == 0
            and m["formats.bytes_written"] > 0 and m["tt.tt_get_calls"] == 0
        ),
        "settle-query": lambda m: (
            m["tt.tt_get_calls"] == m["streaming.region_entries"] > 0
            and m["lowrank.svd_calls"] == 0 and m["tt.tt_full_s"] > 0
            and m["formats.read_ttc1_s"] > 0
        ),
        "kernel-tight": lambda m: (
            m["tt.tt_svd_calls"] == len(SMOKE.kernel_levels) * len(KERNEL_TAUS)
            and m["lowrank.svd_accurate_calls"] > 0
            and m["streaming.compress_segment_calls"] == 0
        ),
    }
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, SMOKE, seed=1, seconds=0, trace=trace)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            names = [n for n, _ in (PER_LAYER if trace else END_TO_END)]
            label = f"{workload} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{label}: a check failed")
            if workload == "kernel-tight" and result["failed"]:
                problems.append(f"{label}: a kernel case failed")
            if list(metrics) != names:
                problems.append(f"{label}: metrics {sorted(metrics)}")
            elif trace and not expect[workload](metrics):
                problems.append(f"{label}: unexpected layer counts {metrics}")
            elif not trace and min(metrics.values()) <= 0:
                problems.append(f"{label}: a metric is not positive {metrics}")
            print(f"{label}: {json.dumps(result)}", file=sys.stderr)
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ttcompress" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        result = measure(args.workload, FULL, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
