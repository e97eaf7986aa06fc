"""Seeded benchmark inputs, made without the program's own generators.

Settling trajectories are written in the documented run-directory format
(``meta.json`` plus one ``step_<k>.bin`` per timestep), so the program
reads them through its ingest layer; a change to ``ttcompress.synthdata``
cannot change a workload.
"""

import json
import os

import numpy as np

GRAVITY = -9.81
RESTITUTION = 0.5
TIMESTEP = 0.01
# below this height and vertical speed a particle comes to rest
REST_THRESHOLD = 0.02


def settle_trajectories(seed: int, n_p: int, n_t: int) -> np.ndarray:
    """Particles dropped from rest at seeded positions bounce on the floor
    z = 0 with restitution 0.5 until they settle.

    Returns an ``(n_t, n_p, 3)`` float64 array of x, y, z positions.
    """
    rng = np.random.default_rng([seed, 0])
    x = rng.uniform(0.0, 1.0, n_p)
    y = rng.uniform(0.0, 1.0, n_p)
    z = rng.uniform(0.5, 3.0, n_p)
    vz = np.zeros(n_p)
    moving = np.ones(n_p, dtype=bool)
    out = np.empty((n_t, n_p, 3))
    out[:, :, 0] = x
    out[:, :, 1] = y
    for k in range(n_t):
        out[k, :, 2] = z
        vz = np.where(moving, vz + GRAVITY * TIMESTEP, 0.0)
        z = np.where(moving, z + vz * TIMESTEP, z)
        below = z < 0.0
        z = np.where(below, -z, z)
        vz = np.where(below, -RESTITUTION * vz, vz)
        stop = moving & (z < REST_THRESHOLD) & (np.abs(vz) < REST_THRESHOLD)
        z[stop] = 0.0
        vz[stop] = 0.0
        moving &= ~stop
    return out


def write_run(path, data: np.ndarray, flush: bool = False) -> None:
    """Write ``meta.json`` and the per-step files; each step holds the
    ``(n_p, n_c)`` values column-major (particle index fastest), ``<f8``.
    ``flush`` waits until the step files are on disk."""
    n_t, n_p, n_c = data.shape
    os.makedirs(path, exist_ok=True)
    meta = {
        "n_t": n_t,
        "n_p": n_p,
        "n_c": n_c,
        "dt": TIMESTEP,
        "components": ["x", "y", "z"][:n_c],
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    for k in range(n_t):
        with open(os.path.join(path, f"step_{k}.bin"), "wb") as fh:
            fh.write(data[k].T.astype("<f8").tobytes())
            if flush:
                fh.flush()
                os.fsync(fh.fileno())


def kernel_samples(d: int, delta: float) -> np.ndarray:
    """``-ln(|x - y| + delta)`` at the cell midpoints of a ``2^d`` grid on
    (0, 1)^2.  The kernel study has no random part, so it ignores the seed."""
    n = 1 << d
    x = (np.arange(n) + 0.5) / n
    return -np.log(np.abs(x[:, None] - x[None, :]) + delta)


def interlace(matrix: np.ndarray, level: int) -> np.ndarray:
    """Interlaced tensorization of a square ``2^d`` matrix: row and column
    indices are each split column-major into a leaf of extent
    ``2^(d-level+1)`` and ``level - 1`` binary digits, then the row and
    column digits alternate (row leaf, column leaf, row 2, column 2, ...)."""
    d = matrix.shape[0].bit_length() - 1
    split = [1 << (d - level + 1)] + [2] * (level - 1)
    arr = matrix.reshape(split + split, order="F")
    order = [axis for k in range(level) for axis in (k, level + k)]
    return arr.transpose(order)


def region_queries(seed: int, shape, trajectories: int, snapshots: int,
                   boxes: int, box) -> list:
    """A seeded, fixed-size query set over an ``(n_t, n_p, n_c)`` run, as
    1-based inclusive ``(lo, hi)`` ranges per axis: whole single-particle
    trajectories, whole single-step snapshots and small time x particle
    boxes.  The entry count depends on the sizes only, not on the seed."""
    n_t, n_p, n_c = shape
    rng = np.random.default_rng([seed, 1])
    queries = []
    for p in rng.choice(n_p, trajectories, replace=False):
        queries.append([(1, n_t), (int(p) + 1, int(p) + 1), (1, n_c)])
    for t in rng.choice(n_t, snapshots, replace=False):
        queries.append([(int(t) + 1, int(t) + 1), (1, n_p), (1, n_c)])
    box_t, box_p = box
    for _ in range(boxes):
        t = int(rng.integers(1, n_t - box_t + 2))
        p = int(rng.integers(1, n_p - box_p + 2))
        queries.append([(t, t + box_t - 1), (p, p + box_p - 1), (1, n_c)])
    return queries
