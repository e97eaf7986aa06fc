"""Independent output checks: numpy readers for the documented DT64 and
TTC1 formats, a tensor-train contraction and the error measures.

Nothing here imports ttcompress, so a fault in the program's own
reconstruction or metrics code cannot hide itself.
"""

import base64
import json
import math
import struct

import numpy as np


def dt64_values(raw: bytes) -> np.ndarray:
    """The bytes of a DT64 file as an array of its dims (values are
    column-major)."""
    if raw[:4] != b"DT64":
        raise ValueError("not a DT64 file")
    (d,) = struct.unpack_from("<I", raw, 4)
    dims = struct.unpack_from(f"<{d}Q", raw, 8)
    values = np.frombuffer(raw, dtype="<f8", offset=8 + 8 * d)
    if values.size != math.prod(dims):
        raise ValueError(f"{values.size} values for dims {dims}")
    return values.reshape(dims, order="F")


def read_ttc1(path):
    """A TTC1 archive as ``(cores, metadata)``; core k has shape
    ``(r_{k-1}, n_k, r_k)``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"TTC1":
        raise ValueError(f"{path}: not a TTC1 file")
    _version, d = struct.unpack_from("<II", raw, 4)
    offset = 12
    ranks = struct.unpack_from(f"<{d + 1}Q", raw, offset)
    offset += 8 * (d + 1)
    dims = struct.unpack_from(f"<{d}Q", raw, offset)
    offset += 8 * d
    cores = []
    for k in range(d):
        shape = (ranks[k], dims[k], ranks[k + 1])
        count = math.prod(shape)
        flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        cores.append(flat.reshape(shape, order="F"))
        offset += 8 * count
    (blob_len,) = struct.unpack_from("<I", raw, offset)
    meta = json.loads(raw[offset + 4 : offset + 4 + blob_len])
    return cores, meta


def tt_contract(cores) -> np.ndarray:
    """Dense tensor of a train: entry ``(i_1, ..., i_d)`` is the product of
    the slices ``G_k[:, i_k, :]``."""
    out = np.ones((1,))
    for core in cores:
        out = np.tensordot(out, core, axes=([-1], [0]))
    return out.reshape(out.shape[:-1])


def decode_segment(path) -> np.ndarray:
    """Original-order ``(n_t, n_p, n_c)`` data of a segment archive, from
    the metadata the README documents: the plan's column-major axis
    splits and padding, trailing stack dimensions with per-leaf timestep
    extents, and the particle permutation."""
    cores, meta = read_ttc1(path)
    plan = meta["plan"]
    if plan["interlace"]:
        raise ValueError("interlaced segment plans are not decoded here")
    padded = [math.prod(f) for f in plan["axis_factors"]]
    n_leaves = math.prod(meta["stack_dims"])
    arr = tt_contract(cores).reshape(padded + [n_leaves], order="F")
    for axis, original, _padded, _strategy in plan["pads"]:
        arr = arr.take(np.arange(original), axis=axis - 1)
    leaves = [
        arr[..., leaf][:steps]
        for leaf, steps in enumerate(meta["part_time_extents"])
    ]
    data = np.concatenate(leaves, axis=0)
    if "permutation" not in meta:
        return data
    perm_meta = meta["permutation"]
    perm = np.frombuffer(
        base64.b64decode(perm_meta["u32le_b64"]), dtype="<u4"
    ).reshape(perm_meta["shape"])
    if perm.ndim != 1:
        raise ValueError("per-timestep permutations are not decoded here")
    out = np.empty_like(data)
    out[:, perm, :] = data
    return out


def data_range(x: np.ndarray) -> float:
    return float(x.max() - x.min())


def nrmse(original: np.ndarray, approx: np.ndarray) -> float:
    """Root-mean-square error over the original's value range."""
    err = np.asarray(approx, dtype=np.float64) - original
    return float(np.sqrt(np.mean(err * err)) / data_range(original))


def rel_frob(original: np.ndarray, approx: np.ndarray) -> float:
    return float(np.linalg.norm(approx - original) / np.linalg.norm(original))
