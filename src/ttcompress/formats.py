"""Binary file formats.

DT64 -- raw dense tensor: magic ``DT64``, u32 dimensionality d, then d u64
extents, then ``prod(dims)`` float64 values in column-major order.  All
integers and floats are little-endian; :func:`write_dt64` takes blocks.

TTC1 -- tensor-train archive: magic ``TTC1``, u32 version (=1), u32 d,
(d+1) u64 ranks, d u64 dims, the d cores in order (each flattened
column-major as float64), then a u32 byte length followed by that many
bytes of UTF-8 JSON metadata.
"""

import contextlib
import json
import math
import os
import struct

import numpy as np

from .dense import DenseTensor
from .errors import FormatError
from .tt import TTTensor

DT64_MAGIC = b"DT64"
TTC1_MAGIC = b"TTC1"
TTC1_VERSION = 1


class _Reader:
    """Tracks the byte offset so malformed files are reported precisely."""

    def __init__(self, fh):
        self.fh = fh
        self.offset = 0
        self.size = os.fstat(fh.fileno()).st_size

    def read(self, n: int) -> bytes:
        # checked before reading, so a corrupt header declaring a huge
        # payload cannot trigger the allocation
        left = self.size - self.offset
        if n > left:
            raise FormatError(
                f"truncated file: wanted {n} bytes at byte offset "
                f"{self.offset}, {left} left"
            )
        buf = self.fh.read(n)
        if len(buf) != n:
            raise FormatError(
                f"truncated file: wanted {n} bytes at byte offset "
                f"{self.offset}, got {len(buf)}"
            )
        self.offset += n
        return buf

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def read_f64(self, count: int) -> np.ndarray:
        return np.frombuffer(self.read(8 * count), dtype="<f8").astype(
            np.float64, copy=False
        )


def _write_f64(fh, values: np.ndarray) -> None:
    """Write values as contiguous little-endian float64, copying only when
    they are not already laid out that way."""
    fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def write_dt64(path, dims, blocks) -> None:
    """Write the header of a ``dims`` tensor, then each block's values,
    column-major, as they come (``t.dims, [t.values]`` for a tensor ``t``).
    Written beside ``path``, the file replaces it only once complete: a
    failure, blocks that miss ``prod(dims)`` values among them, keeps it."""
    dims = tuple(int(n) for n in dims)
    part = f"{os.fspath(path)}.{os.getpid()}.part"
    count = 0
    try:
        with open(part, "wb") as fh:
            fh.write(DT64_MAGIC + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
            for block in blocks:
                count += np.size(block)
                _write_f64(fh, np.ravel(block, order="F"))
                del block  # freed before the next one is made
        if count != math.prod(dims):
            raise FormatError(f"{count} values given for dims {dims}")
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def read_dt64(path) -> DenseTensor:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.read(4)
        if magic != DT64_MAGIC:
            raise FormatError(
                f"bad magic {magic!r} at byte offset 0 (expected {DT64_MAGIC!r})"
            )
        (d,) = r.unpack("<I")
        if d < 1:
            raise FormatError(f"dimensionality {d} at byte offset 4")
        dims = r.unpack(f"<{d}Q")
        count = 1
        for n in dims:
            count *= int(n)
        values = r.read_f64(count)
        return DenseTensor(tuple(int(n) for n in dims), values)


def write_ttc1(path, t: TTTensor, metadata: dict) -> None:
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(TTC1_MAGIC)
        fh.write(struct.pack("<I", TTC1_VERSION))
        fh.write(struct.pack("<I", t.ndim))
        fh.write(struct.pack(f"<{t.ndim + 1}Q", *t.ranks))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.dims))
        for core in t.cores:
            _write_f64(fh, core.reshape(-1, order="F"))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def read_ttc1(path):
    """Read an archive; returns ``(tt_tensor, metadata_dict)``."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.read(4)
        if magic != TTC1_MAGIC:
            raise FormatError(
                f"bad magic {magic!r} at byte offset 0 (expected {TTC1_MAGIC!r})"
            )
        (version,) = r.unpack("<I")
        if version != TTC1_VERSION:
            raise FormatError(
                f"unsupported version {version} at byte offset 4"
            )
        (d,) = r.unpack("<I")
        if d < 1:
            raise FormatError(f"dimensionality {d} at byte offset 8")
        ranks = [int(x) for x in r.unpack(f"<{d + 1}Q")]
        dims = [int(x) for x in r.unpack(f"<{d}Q")]
        cores = []
        for k in range(d):
            shape = (ranks[k], dims[k], ranks[k + 1])
            count = shape[0] * shape[1] * shape[2]
            flat = r.read_f64(count)
            cores.append(flat.reshape(shape, order="F"))
        (blob_len,) = r.unpack("<I")
        blob = r.read(blob_len)
        try:
            metadata = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"bad metadata JSON: {exc}") from exc
        return TTTensor(tuple(cores)), metadata
