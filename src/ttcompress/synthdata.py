"""Synthetic datasets and raw snapshot ingestion.

Two structured generators sample a sharply peaked univariate function and
the corresponding bivariate kernel on dyadic grids; they drive the
tensorization benchmark studies.  The particle generators produce
deterministic free-fall / settling / noise trajectories standing in for
granular-media simulation output, and the run-directory reader/writer
defines the on-disk snapshot layout the CLI ingests.
"""

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dense import DenseTensor
from .errors import ConfigError, IngestionError

GRAVITY = -9.81
SETTLE_RESTITUTION = 0.5
META_NAME = "meta.json"


def sample_univariate(delta: float, d: int) -> DenseTensor:
    """Uniform samples of ``ln(1 / (|x - 1/2| + delta))`` on (0, 1).

    Returns a vector of length ``2**d`` with entries at the cell midpoints
    ``x_i = (i - 1/2) / 2**d``.  The peak at ``x = 1/2`` sharpens as
    ``delta`` shrinks.
    """
    if delta <= 0:
        raise ConfigError(f"delta must be > 0, got {delta}")
    if not 1 <= int(d) <= 24:
        raise ConfigError(f"d must be in 1..24, got {d}")
    n = 1 << int(d)
    x = (np.arange(1, n + 1) - 0.5) / n
    return DenseTensor((n,), -np.log(np.abs(x - 0.5) + delta))


def sample_kernel_matrix(delta: float, d: int) -> DenseTensor:
    """Uniform samples of ``ln(1 / (|x - y| + delta))`` on (0, 1)^2.

    Returns the symmetric ``2**d x 2**d`` kernel matrix at cell midpoints;
    the diagonal entries all equal ``ln(1 / delta)``.
    """
    if delta <= 0:
        raise ConfigError(f"delta must be > 0, got {delta}")
    if not 1 <= int(d) <= 12:
        raise ConfigError(f"d must be in 1..12, got {d}")
    n = 1 << int(d)
    x = (np.arange(1, n + 1) - 0.5) / n
    return DenseTensor.from_numpy(
        -np.log(np.abs(x[:, None] - x[None, :]) + delta)
    )


@dataclass(frozen=True)
class SnapshotBatch:
    """Raw per-timestep particle data before any ordering or reshaping.

    ``data`` has dims (n_t, n_p, n_c); ``positions_first`` holds the
    particle positions at the batch's first timestep when available
    (needed for Morton ordering).  ``position_columns`` records which
    data components are positions (0-based), so sub-batches can extract
    their own first-step positions; None means the data carries no
    positions beyond ``positions_first``.
    """

    data: DenseTensor
    positions_first: Optional[np.ndarray]
    timestep_size: float
    position_columns: Optional[tuple] = None

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ConfigError(
                f"batch data must be 3-dimensional, got {self.data.ndim}"
            )
        if self.positions_first is not None:
            pos = np.asarray(self.positions_first, dtype=np.float64)
            if pos.shape != (self.data.dims[1], 3):
                raise ConfigError(
                    f"positions shape {pos.shape} does not match "
                    f"({self.data.dims[1]}, 3)"
                )
            if not np.isfinite(pos).all():
                raise ConfigError("positions contain non-finite values")
            object.__setattr__(self, "positions_first", pos)
        if self.position_columns is not None:
            cols = tuple(int(c) for c in self.position_columns)
            if len(cols) != 3 or any(
                not 0 <= c < self.data.dims[2] for c in cols
            ):
                raise ConfigError(
                    f"position columns {cols} invalid for "
                    f"{self.data.dims[2]} components"
                )
            object.__setattr__(self, "position_columns", cols)

    @property
    def n_t(self) -> int:
        return self.data.dims[0]

    def time_slice(self, start: int, stop: int) -> "SnapshotBatch":
        """Sub-batch over timesteps [start, stop) (0-based)."""
        arr = self.data.to_numpy()[start:stop]
        positions = None
        if self.position_columns is not None:
            positions = arr[0][:, list(self.position_columns)].copy()
        elif start == 0:
            positions = self.positions_first
        return SnapshotBatch(
            data=DenseTensor.from_numpy(arr),
            positions_first=positions,
            timestep_size=self.timestep_size,
            position_columns=self.position_columns,
        )


SCENARIOS = ("ballistic", "settle", "noise")


def synth_particles(
    n_p: int,
    n_t: int,
    scenario: str,
    seed: int,
    timestep_size: float = 0.01,
) -> SnapshotBatch:
    """Deterministic synthetic particle trajectories.

    ``ballistic``: free-fall position curves, exactly quadratic in time
    and therefore highly compressible.  ``settle``: particles released
    from rest drop onto a floor and bounce with restitution 0.5 until they
    come to rest, giving a smooth / rough / smooth compressibility
    profile.  ``noise``: i.i.d. uniform values, the incompressible
    control.  All three return position-like 3-component data.
    """
    if n_p < 1 or n_t < 1:
        raise ConfigError("extents must be >= 1")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; pick from {SCENARIOS}")
    rng = np.random.default_rng(seed)
    dt = float(timestep_size)

    if scenario == "noise":
        data = rng.uniform(size=(n_t, n_p, 3))
    else:
        p0 = np.empty((n_p, 3))
        p0[:, 0] = rng.uniform(0.0, 1.0, n_p)
        p0[:, 1] = rng.uniform(0.0, 1.0, n_p)
        p0[:, 2] = rng.uniform(0.5, 3.0, n_p)

    if scenario == "ballistic":
        v0 = rng.uniform(-0.5, 0.5, (n_p, 3))
        t = np.arange(n_t) * dt
        data = (
            p0[None, :, :]
            + v0[None, :, :] * t[:, None, None]
            + 0.5
            * np.array([0.0, 0.0, GRAVITY])[None, None, :]
            * (t**2)[:, None, None]
        )
    elif scenario == "settle":
        # drop from rest, bounce on the floor z = 0, damp to rest
        data = np.empty((n_t, n_p, 3))
        z = p0[:, 2].copy()
        vz = np.zeros(n_p)
        rest = np.zeros(n_p, dtype=bool)
        rest_threshold = 0.02  # below this height and speed a particle stops
        for step in range(n_t):
            data[step, :, 0] = p0[:, 0]
            data[step, :, 1] = p0[:, 1]
            data[step, :, 2] = z
            active = ~rest
            vz[active] += GRAVITY * dt
            z[active] += vz[active] * dt
            bounced = active & (z < 0.0)
            z[bounced] *= -1.0
            vz[bounced] *= -SETTLE_RESTITUTION
            settled = active & (z < rest_threshold) & (np.abs(vz) < rest_threshold)
            z[settled] = 0.0
            vz[settled] = 0.0
            rest |= settled
    return SnapshotBatch(
        data=DenseTensor.from_numpy(data),
        positions_first=data[0].copy(),
        timestep_size=dt,
        position_columns=(0, 1, 2),
    )


def _step_name(k: int) -> str:
    return f"step_{k}.bin"


def write_run(path, batch: SnapshotBatch) -> None:
    """Write a run directory: ``meta.json`` plus one binary file per step.

    Step files hold the (n_p, n_c) float64 little-endian values in
    column-major order (particle index fastest).
    """
    os.makedirs(path, exist_ok=True)
    n_t, n_p, n_c = batch.data.dims
    components = (
        ["x", "y", "z"][:n_c] if n_c <= 3 else [f"c{j}" for j in range(n_c)]
    )
    meta = {
        "n_t": n_t,
        "n_p": n_p,
        "n_c": n_c,
        "dt": batch.timestep_size,
        "components": components,
    }
    with open(os.path.join(path, META_NAME), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
    arr = batch.data.to_numpy()
    for k in range(n_t):
        step = arr[k].flatten(order="F").astype("<f8")
        with open(os.path.join(path, _step_name(k)), "wb") as fh:
            fh.write(step.tobytes())


def open_run(path):
    """Open a run directory for reading by step range.

    Returns ``(n_t, read)``: ``read(start, stop)`` assembles steps
    [start, stop) (0-based) into a snapshot batch.  Every step file's size
    is checked here, before anything is allocated, and again when read.
    The first three components are the positions when at least three
    exist; otherwise the batch carries none.
    """
    meta_path = os.path.join(path, META_NAME)
    if not os.path.isfile(meta_path):
        raise IngestionError(f"missing {META_NAME} in {path}")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"malformed {META_NAME}: {exc}") from exc
    try:
        n_t, n_p, n_c = int(meta["n_t"]), int(meta["n_p"]), int(meta["n_c"])
        dt = float(meta.get("dt", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"bad header fields in {META_NAME}: {exc}") from exc
    if n_t < 1 or n_p < 1 or n_c < 1:
        raise IngestionError("header extents must be >= 1")

    pos_cols = (0, 1, 2) if n_c >= 3 else None
    expected = n_p * n_c

    def check_size(k: int, size: int) -> None:
        if size != 8 * expected:
            raise IngestionError(
                f"timestep {k}: expected {expected} values "
                f"({n_p} particles x {n_c} components), found {size} bytes"
            )

    for k in range(n_t):
        step_path = os.path.join(path, _step_name(k))
        if not os.path.isfile(step_path):
            raise IngestionError(f"timestep {k}: missing {_step_name(k)}")
        check_size(k, os.path.getsize(step_path))

    def read(start: int, stop: int) -> SnapshotBatch:
        if not 0 <= start < stop <= n_t:
            raise IngestionError(
                f"step range [{start}, {stop}) outside the run's 0..{n_t - 1}"
            )
        # one step file per row, each (n_p, n_c) column-major
        rows = np.empty((stop - start, expected))
        for k in range(start, stop):
            raw = np.fromfile(os.path.join(path, _step_name(k)), dtype="<f8")
            check_size(k, raw.nbytes)
            rows[k - start] = raw
        # one copy into the column-major batch, whose flat values below
        # are then a view
        data = np.asfortranarray(
            rows.reshape((stop - start, n_c, n_p)).transpose(0, 2, 1)
        )
        return SnapshotBatch(
            data=DenseTensor(data.shape, data.reshape(-1, order="F")),
            positions_first=None if pos_cols is None else data[0][:, pos_cols],
            timestep_size=dt,
            position_columns=pos_cols,
        )

    return n_t, read


def load_snapshots(path) -> SnapshotBatch:
    """Assemble a whole run directory into one snapshot batch (see
    :func:`open_run`)."""
    n_t, read = open_run(path)
    return read(0, n_t)
