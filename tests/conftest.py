import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ttcompress
from ttcompress import DenseTensor, SnapshotBatch, write_dt64, write_run


def settling_run(path, seed, n_p, n_t):
    """Write a run of particles dropped from rest at seeded positions that
    bounce on the floor z = 0 with restitution 0.5 until they settle."""
    gravity, restitution, dt, rest = -9.81, 0.5, 0.01, 0.02
    rng = np.random.default_rng([seed, 0])
    x = rng.uniform(0.0, 1.0, n_p)
    y = rng.uniform(0.0, 1.0, n_p)
    z = rng.uniform(0.5, 3.0, n_p)
    vz = np.zeros(n_p)
    moving = np.ones(n_p, dtype=bool)
    data = np.empty((n_t, n_p, 3))
    data[:, :, 0] = x
    data[:, :, 1] = y
    for k in range(n_t):
        data[k, :, 2] = z
        vz = np.where(moving, vz + gravity * dt, 0.0)
        z = np.where(moving, z + vz * dt, z)
        below = z < 0.0
        z = np.where(below, -z, z)
        vz = np.where(below, -restitution * vz, vz)
        stop = moving & (z < rest) & (np.abs(vz) < rest)
        z[stop] = 0.0
        vz[stop] = 0.0
        moving &= ~stop
    batch = SnapshotBatch(DenseTensor.from_numpy(data), dt)
    write_run(path, batch)
    return str(path)


def swirl_positions(seed, n_p, n_t, dt=0.01):
    """Positions, (n_t, n_p, 3), of a seeded spatially coherent field:
    particles start uniform in (-1, 1)^2 x (0, 1) and turn about the z
    axis, faster near it (``theta = theta0 + 2 t / (0.3 + r)``), while
    their radius breathes (``r (1 + 0.1 sin(3 t + 2 z0))``) and their
    height decays (``z0 exp(-t / 2) + 0.05 sin(4 theta)``), each plus a
    random walk of step 0.002.  Neighbours move alike, but the field
    shears, so an order fitted to one step goes stale."""
    rng = np.random.default_rng([seed, 1])
    x0 = rng.uniform(-1.0, 1.0, n_p)
    y0 = rng.uniform(-1.0, 1.0, n_p)
    z0 = rng.uniform(0.0, 1.0, n_p)
    r0, theta0 = np.hypot(x0, y0), np.arctan2(y0, x0)
    t = (np.arange(n_t) * dt)[:, None]
    theta = theta0 + 2.0 * t / (0.3 + r0)
    r = r0 * (1.0 + 0.1 * np.sin(3.0 * t + 2.0 * z0))
    data = np.stack(
        [
            r * np.cos(theta),
            r * np.sin(theta),
            z0 * np.exp(-t / 2.0) + 0.05 * np.sin(4.0 * theta),
        ],
        axis=2,
    )
    return data + np.cumsum(0.002 * rng.standard_normal(data.shape), axis=0)


def run_fresh(code, *args):
    """stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this checkout's package, with no BLAS thread count in its
    environment."""
    src = os.path.dirname(os.path.dirname(ttcompress.__file__))
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# Blocks scipy, so that importing it raises, then compresses a run
# (merged and not) and a .dt64, reads them back, and truncates one matrix
# with numpy's SVD failing.  The last line printed holds each command's
# exit code and stdout, the truncation's error, certificate and norm, and
# the thread count each loaded OpenBLAS reports of itself.
NUMPY_ONLY = """
import contextlib, ctypes, io, json, os, sys
sys.modules["scipy"] = None
import numpy as np
from ttcompress import load_segment, lowrank, reconstruct_region
from ttcompress.cli import main

run, dt64, work = sys.argv[1:]
out, flat, tight = (os.path.join(work, d) for d in ("out", "flat", "tight"))
archive = os.path.join(out, "seg_0_99.ttc")
compress = ["compress", run, "--tolerance", "1e-2", "--segment-length", "16"]
commands = {
    "merged": compress + ["-o", out],
    "flat": compress + ["-o", flat, "--no-merge"],
    "tight": ["compress", dt64, "-o", tight, "--tolerance", "1e-12",
              "--tolerance-kind", "relfrob"],
    "file": ["reconstruct", archive, "-o", os.path.join(work, "file.dt64")],
    "dir": ["reconstruct", flat, "-o", os.path.join(work, "dir.dt64")],
    "region": ["reconstruct", archive, "-o", os.path.join(work, "region.dt64"),
               "--region", "2:9,3:40,1:3"],
    "info": ["info", archive, "--json"],
}
codes, stdout = {}, {}
for name, argv in commands.items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes[name] = main(argv)
    stdout[name] = buf.getvalue()
region = reconstruct_region(load_segment(archive), [(1, 40), (5, 9), (2, 3)])
np.save(os.path.join(work, "region.npy"), region.values)

def no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")

np.linalg.svd = no_convergence
rng = np.random.default_rng(21)
u0, _ = np.linalg.qr(rng.standard_normal((16, 16)))
v0, _ = np.linalg.qr(rng.standard_normal((400, 16)))
m = (u0 * 0.1 ** np.arange(16)) @ v0.T
norm = float(np.linalg.norm(m))
u, w, discarded = lowrank._truncated_svd_arrays(m, 1e-13 * norm)
err = float(np.linalg.norm(m - u @ w))
found = {}
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        paths = {f[5] for f in map(str.split, fh)
                 if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(lib, symbol, None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                found[os.path.basename(path)] = get_threads()
                break
print(json.dumps({"codes": codes, "stdout": stdout, "err": err,
                  "discarded": discarded, "norm": norm, "threads": found}))
"""


@pytest.fixture(scope="session")
def numpy_only(tmp_path_factory):
    """One fresh interpreter, with scipy unimportable, that runs every
    command and one truncation with ``gesdd`` failing: its work directory
    and the report its last line holds."""
    work = tmp_path_factory.mktemp("numpy_only")
    run = settling_run(work / "run", 3, 64, 100)
    rng = np.random.default_rng(6)
    t = DenseTensor.from_numpy(rng.uniform(size=(16, 8, 3)))
    dt64 = str(work / "in.dt64")
    write_dt64(dt64, t.dims, [t.values])
    stdout = run_fresh(NUMPY_ONLY, run, dt64, str(work))
    return work, json.loads(stdout.splitlines()[-1])
