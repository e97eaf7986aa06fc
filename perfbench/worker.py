"""The benchmark's program-side processes; ``run.py`` starts each one with
the program's ``src`` directory on ``PYTHONPATH``.

    worker.py env                          environment record (JSON)
    worker.py cli SPANS ARGS...            the ``ttc`` command, traced
    worker.py region ARCHIVE QUERIES OUT [SPANS]
    worker.py kernel SAMPLES LEVELS OUT [SPANS]

``region`` and ``kernel`` print one JSON line with their timings and
failures and save their results to ``OUT`` (``.npz``).  A SPANS path turns
tracing on; the spans are written there when the work is done.
"""

import ctypes
import json
import os
import platform
import sys
import time
import traceback

import numpy as np

import tracing

KERNEL_TAUS = (1e-2, 1e-5, 1e-8, 1e-11, 1e-14)
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


def start_tracing(spans_path):
    if spans_path is None:
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded, as the
    library itself reports it."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
                paths.add(fields[5])
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    import ttcompress

    def blas_of(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        }

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ttcompress": ttcompress.__version__,
        "numpy_blas": blas_of(np),
        "scipy_blas": blas_of(scipy),
        "blas_threads": blas_threads(),
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def run_cli(spans_path, argv) -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from ttcompress import cli

    try:
        return cli.main(argv)
    finally:
        tracer.write(spans_path)


def run_regions(archive, queries_path, out_path, spans_path) -> dict:
    tracer = start_tracing(spans_path)
    from ttcompress import streaming

    with open(queries_path) as fh:
        queries = json.load(fh)
    results = {}
    failed = 0
    start = time.perf_counter()
    seg = streaming.load_segment(archive)
    for k, region in enumerate(queries):
        try:
            results[f"q{k}"] = streaming.reconstruct_region(seg, region).to_numpy()
        except Exception:
            traceback.print_exc()
            failed += 1
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.write(spans_path)
    np.savez(out_path, **results)
    entries = sum(r.size for r in results.values())
    return {"elapsed_s": elapsed, "entries": entries, "failed": failed}


def run_kernel(samples_path, levels, out_path, spans_path) -> dict:
    tracer = start_tracing(spans_path)
    from ttcompress import dense, tensorize, tt

    matrix = dense.DenseMatrix.from_numpy(np.load(samples_path))
    cores = {}
    case_s = {}
    failed = 0
    start = time.perf_counter()
    case = 0
    for level in levels:
        tensor = tensorize.tensorize_matrix_interlaced(matrix, level)
        for tau in KERNEL_TAUS:
            case += 1
            t0 = time.perf_counter()
            try:
                train = tt.tt_svd(tensor, tau)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            case_s[case] = time.perf_counter() - t0
            for k, core in enumerate(train.cores):
                cores[f"{case}.{k}"] = core
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.write(spans_path)
    np.savez(out_path, **cores)
    return {"elapsed_s": elapsed, "case_s": case_s, "failed": failed}


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "env":
        print(json.dumps(environment()))
        return 0
    if mode == "cli":
        return run_cli(args[0], args[1:])
    spans = args[3] if len(args) > 3 else None
    if mode == "region":
        print(json.dumps(run_regions(args[0], args[1], args[2], spans)))
        return 0
    if mode == "kernel":
        levels = [int(x) for x in args[1].split(",")]
        print(json.dumps(run_kernel(args[0], levels, args[2], spans)))
        return 0
    print(f"unknown worker mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
