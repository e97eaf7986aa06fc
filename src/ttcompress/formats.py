"""Binary file formats.

DT64 -- raw dense tensor: magic ``DT64``, u32 dimensionality d, then d u64
extents, then ``prod(dims)`` float64 values in column-major order.  All
integers and floats are little-endian; :func:`write_dt64` takes blocks.

TTC1 -- tensor-train archive: magic ``TTC1``, u32 version (=1), u32 d,
(d+1) u64 ranks, d u64 dims, the d cores in order (each flattened
column-major as float64), then a u32 byte length followed by that many
bytes of UTF-8 JSON metadata.

Both files end with their last declared field: the readers raise
:class:`FormatError` on a short file and on trailing bytes.
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

    def finish(self) -> None:
        """Raise unless the file ends where its last declared field did."""
        if self.offset != self.size:
            raise FormatError(
                f"{self.size - self.offset} trailing bytes at byte offset "
                f"{self.offset}, past the declared payload"
            )

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


@contextlib.contextmanager
def _replacing(path):
    """A file open for writing beside ``path`` that replaces it once the
    block completes; a failure removes it, and ``path`` keeps what it
    held (or stays absent)."""
    part = f"{os.fspath(path)}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def write_dt64(path, dims, blocks) -> None:
    """Write the header of a ``dims`` tensor, then each block's values,
    column-major, as they come (``t.dims, [t.values]`` for a tensor ``t``).
    Written beside ``path``, the file replaces it only once complete: a
    failure, blocks that miss ``prod(dims)`` values among them, keeps it."""
    dims = tuple(int(n) for n in dims)
    count = 0
    with _replacing(path) as fh:
        fh.write(DT64_MAGIC + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
        for block in blocks:
            count += np.size(block)
            _write_f64(fh, np.ravel(block, order="F"))
            del block  # freed before the next one is made
        if count != math.prod(dims):
            raise FormatError(f"{count} values given for dims {dims}")


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
        values = r.read_f64(math.prod(dims))
        r.finish()
        return DenseTensor(tuple(int(n) for n in dims), values)


def write_ttc1(path, t: TTTensor, metadata: dict) -> None:
    """Write an archive beside ``path``; it replaces ``path`` only once
    complete, as in :func:`write_dt64`."""
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with _replacing(path) as fh:
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
            cores.append(r.read_f64(math.prod(shape)).reshape(shape, order="F"))
        (blob_len,) = r.unpack("<I")
        blob = r.read(blob_len)
        r.finish()
        try:
            metadata = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"bad metadata JSON: {exc}") from exc
        return TTTensor(tuple(cores)), metadata
