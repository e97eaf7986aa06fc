import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttcompress import (
    CompressionConfig,
    DenseTensor,
    FormatError,
    TTCompressError,
    TTTensor,
    compress_run,
    load_segment,
    read_dt64,
    read_ttc1,
    save_segment,
    synth_particles,
    tt_svd,
    write_dt64,
    write_ttc1,
)
from ttcompress.cli import main


class TestDT64:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = DenseTensor.from_numpy(rng.standard_normal((3, 4, 5)))
        path = tmp_path / "t.dt64"
        write_dt64(path, t.dims, [t.values])
        back = read_dt64(path)
        assert back.dims == t.dims
        assert np.array_equal(back.values, t.values)

    def test_blocks_written_in_order(self, tmp_path):
        t = DenseTensor.from_numpy(np.arange(24.0).reshape(2, 3, 4))
        path = tmp_path / "t.dt64"
        write_dt64(path, t.dims, [t.values[:6], t.values[6:18].reshape(2, 6, order="F"), t.values[18:]])
        assert np.array_equal(read_dt64(path).values, t.values)

    @pytest.mark.parametrize("sizes", [(5,), (6, 1), ()])
    def test_blocks_must_fill_the_dims(self, tmp_path, sizes):
        path = tmp_path / "t.dt64"
        path.write_bytes(b"kept")
        blocks = [np.zeros(n) for n in sizes]
        with pytest.raises(FormatError, match="values"):
            write_dt64(path, (2, 3), blocks)
        # the file that was there is left as it was, and nothing beside it
        assert path.read_bytes() == b"kept"
        assert os.listdir(tmp_path) == ["t.dt64"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dt64"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_dt64(path)

    def test_truncated_reports_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        t = DenseTensor.from_numpy(rng.standard_normal((4, 4)))
        path = tmp_path / "t.dt64"
        write_dt64(path, t.dims, [t.values])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="byte offset"):
            read_dt64(path)

    def test_oversized_header_is_a_format_error(self, tmp_path):
        # 2^40 x 2^40 entries: the byte count does not even fit an index
        path = tmp_path / "huge.dt64"
        path.write_bytes(b"DT64" + struct.pack("<I2Q", 2, 2**40, 2**40))
        with pytest.raises(FormatError, match="byte offset"):
            read_dt64(path)


class TestTTC1:
    def test_roundtrip_with_metadata(self, tmp_path):
        rng = np.random.default_rng(2)
        t = tt_svd(DenseTensor.from_numpy(rng.uniform(size=(4, 3, 4))), 1e-3)
        meta = {"tolerance": 1e-3, "note": "roundtrip"}
        path = tmp_path / "t.ttc"
        write_ttc1(path, t, meta)
        back, meta_back = read_ttc1(path)
        assert back.dims == t.dims
        assert back.ranks == t.ranks
        for a, b in zip(back.cores, t.cores):
            assert np.array_equal(a, b)
        assert meta_back == meta

    def test_oversized_core_is_a_format_error(self, tmp_path):
        # 52 bytes whose header declares one core of 2^40 entries
        path = tmp_path / "huge.ttc"
        header = b"TTC1" + struct.pack("<II2QQ", 1, 1, 1, 1, 2**40)
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(FormatError, match="byte offset"):
            read_ttc1(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ttc"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_ttc1(path)

    def test_unsupported_version(self, tmp_path):
        rng = np.random.default_rng(3)
        t = tt_svd(DenseTensor.from_numpy(rng.uniform(size=(2, 2))), 0.0)
        path = tmp_path / "t.ttc"
        write_ttc1(path, t, {})
        data = bytearray(path.read_bytes())
        data[4] = 9  # bump the version field
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            read_ttc1(path)

    def test_truncated_core_reports_offset(self, tmp_path):
        rng = np.random.default_rng(4)
        t = tt_svd(DenseTensor.from_numpy(rng.uniform(size=(4, 4))), 0.0)
        path = tmp_path / "t.ttc"
        write_ttc1(path, t, {"k": 1})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError, match="byte offset"):
            read_ttc1(path)

    def test_segment_with_bogus_metadata(self, tmp_path):
        from ttcompress import load_segment, zero_tt

        path = tmp_path / "bogus.ttc"
        write_ttc1(path, zero_tt((2, 2)), {"format": "ttc-segment"})
        with pytest.raises(FormatError, match="metadata"):
            load_segment(path)

    def test_column_major_core_layout(self, tmp_path):
        # one known core: shape (1, 2, 2), values laid out column-major
        core1 = np.arange(4.0).reshape((1, 2, 2), order="F")
        core2 = np.arange(2.0).reshape((2, 1, 1), order="F")
        t = TTTensor((core1, core2))
        path = tmp_path / "layout.ttc"
        write_ttc1(path, t, {})
        raw = path.read_bytes()
        header = 4 + 4 + 4 + 3 * 8 + 2 * 8
        flat = np.frombuffer(raw[header : header + 32], dtype="<f8")
        assert np.array_equal(flat, [0.0, 1.0, 2.0, 3.0])


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of a small merged TTC1 archive and of a small DT64 file,
    with the reader of each, and a directory for their corrupted copies."""
    work = tmp_path_factory.mktemp("corrupt")
    batch = synth_particles(8, 40, "settle", seed=3)
    config = CompressionConfig(tolerance=1e-2, segment_length=8)
    (merged,) = compress_run(batch.time_slice, batch.n_t, config)
    assert merged.stack_dims == (2, 2, 2)
    archive = Path(save_segment(work, merged))
    tensor = work / "t.dt64"
    rng = np.random.default_rng(7)
    t = DenseTensor.from_numpy(rng.uniform(size=(3, 4, 2)))
    write_dt64(tensor, t.dims, [t.values])
    return work, {
        "ttc": (archive.read_bytes(), load_segment),
        "dt64": (tensor.read_bytes(), read_dt64),
    }


class TestCorruptedFiles:
    """Every truncation and single-bit flip either still reads or fails as
    a :class:`TTCompressError`, which ``ttc info`` reports with exit 2;
    appended bytes always fail."""

    @pytest.mark.parametrize("kind", ["ttc", "dt64"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncation_or_bit_flip(self, pristine, kind, data):
        work, files = pristine
        blob, load = files[kind]
        how = data.draw(st.sampled_from(["truncate", "flip", "append"]))
        if how == "truncate":
            broken = blob[: data.draw(st.integers(0, len(blob) - 1))]
        elif how == "flip":
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            broken = bytearray(blob)
            broken[bit // 8] ^= 1 << bit % 8
        else:
            broken = blob + data.draw(st.binary(min_size=1, max_size=16))
        path = work / f"broken.{kind}"
        path.write_bytes(bytes(broken))
        try:
            load(path)
        except TTCompressError:
            pass
        else:
            assert how != "append", "trailing bytes were read"
        assert main(["info", str(path)]) in (0, 2)


class TestTrailingBytes:
    """A file ends with its last declared field: one byte more is a
    :class:`FormatError` that names where the payload ended, and every
    command that reads the file exits 2."""

    @pytest.mark.parametrize("kind", ["ttc", "dt64"])
    def test_reader_rejects_one_appended_byte(self, pristine, kind):
        work, files = pristine
        blob, load = files[kind]
        path = work / f"appended.{kind}"
        path.write_bytes(blob + b"\x00")
        message = f"1 trailing bytes at byte offset {len(blob)}"
        with pytest.raises(FormatError, match=message):
            (read_ttc1 if kind == "ttc" else read_dt64)(path)
        with pytest.raises(FormatError, match=message):
            load(path)

    def test_commands_reject_one_appended_byte(self, pristine, tmp_path, capsys):
        _, files = pristine
        archive, tensor = tmp_path / "a.ttc", tmp_path / "x.dt64"
        archive.write_bytes(files["ttc"][0] + b"\x00")
        tensor.write_bytes(files["dt64"][0] + b"\x00")
        out = tmp_path / "out.dt64"
        assert main(["info", str(archive)]) == 2
        assert main(["reconstruct", str(archive), "-o", str(out)]) == 2
        assert main(["compress", str(tensor), "-o", str(tmp_path / "c")]) == 2
        assert "trailing bytes" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "c" / "manifest.json").exists()
