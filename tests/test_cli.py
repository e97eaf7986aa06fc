import csv
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import ttcompress
from ttcompress import (
    DenseTensor,
    SnapshotBatch,
    load_snapshots,
    read_dt64,
    synth_particles,
    write_dt64,
    write_run,
)
from ttcompress.cli import main


@pytest.fixture
def run_dir(tmp_path):
    batch = synth_particles(64, 40, "ballistic", seed=11)
    path = tmp_path / "run"
    write_run(path, batch)
    return str(path)


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


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
    batch = SnapshotBatch(DenseTensor.from_numpy(data), data[0].copy(), dt)
    write_run(path, batch)
    return str(path)


class TestCompress:
    def test_verified_run_meets_target(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            ["compress", run_dir, "-o", out, "--tolerance", "0.1", "--verify"]
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["metrics"]["nrmse"] <= 0.1
        for record in manifest["outputs"]:
            assert os.path.getsize(record["path"]) == record["bytes"]

    def test_missing_meta_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = str(tmp_path / "out")
        assert main(["compress", str(empty), "-o", out]) == 2
        assert "meta.json" in capsys.readouterr().err

    def test_lossless_mode(self, run_dir, tmp_path):
        out = str(tmp_path / "out")
        code = main(
            [
                "compress",
                run_dir,
                "-o",
                out,
                "--tolerance",
                "0",
                "--tolerance-kind",
                "relfrob",
                "--no-merge",
                "--segment-length",
                "40",
            ]
        )
        assert code == 0
        rec = str(tmp_path / "rec.dt64")
        assert main(["reconstruct", os.path.join(out, "segments"), "-o", rec]) == 0
        original = load_snapshots(run_dir).data
        recon = read_dt64(rec)
        norm = float(np.linalg.norm(original.values))
        assert np.max(np.abs(recon.values - original.values)) <= 1e-10 * norm

    def test_merged_settling_run_meets_target(self, tmp_path):
        # stacked segments of a settling run are linearly dependent; the
        # merge rounding must not drop a direction they need
        run = settling_run(tmp_path / "run", 23, 512, 256)
        out = str(tmp_path / "out")
        code = main(
            ["compress", run, "-o", out, "--tolerance", "1e-2", "--verify"]
        )
        assert code == 0
        assert read_manifest(out)["metrics"]["nrmse"] <= 1e-2

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        args = ["compress", run_dir, "--tolerance", "0.05"]
        assert main(args + ["-o", out1]) == 0
        assert main(args + ["-o", out2]) == 0
        names = sorted(os.listdir(out1))
        for name in names:
            if not name.endswith(".ttc"):
                continue
            with open(os.path.join(out1, name), "rb") as fa, open(
                os.path.join(out2, name), "rb"
            ) as fb:
                assert fa.read() == fb.read()

    def test_rerun_is_byte_identical_across_blas_threads(self, tmp_path):
        run = settling_run(tmp_path / "run", 1, 512, 256)
        src = os.path.dirname(os.path.dirname(ttcompress.__file__))
        thread_vars = (
            "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
        )
        archives = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in thread_vars}
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            )
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = str(tmp_path / f"out_{threads}")
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from ttcompress.cli import main; sys.exit(main())",
                 "compress", run, "-o", out, "--tolerance", "1e-2"],
                env=env, check=True, capture_output=True, timeout=300,
            )
            archives.append({
                name: (tmp_path / out / name).read_bytes()
                for name in ("seg_0_255.ttc", "segments/seg_0_31.ttc")
            })
        assert archives[0] == archives[1]

    def test_oversized_dt64_header_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.dt64"
        path.write_bytes(b"DT64" + struct.pack("<I2Q", 2, 2**40, 2**40))
        assert main(["compress", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "byte offset" in capsys.readouterr().err

    def test_dt64_input(self, tmp_path):
        rng = np.random.default_rng(0)
        t = DenseTensor.from_numpy(rng.uniform(size=(16, 16)))
        src = str(tmp_path / "in.dt64")
        write_dt64(src, t)
        out = str(tmp_path / "out")
        code = main(
            [
                "compress",
                src,
                "-o",
                out,
                "--tolerance",
                "1e-6",
                "--tolerance-kind",
                "relfrob",
                "--verify",
            ]
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["metrics"]["rel_frob"] <= 1e-6


class TestReconstruct:
    def test_region_query(self, run_dir, tmp_path):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out, "--tolerance", "0.05"]) == 0
        archive = os.path.join(out, "seg_0_39.ttc")
        full = str(tmp_path / "full.dt64")
        traj = str(tmp_path / "traj.dt64")
        assert main(["reconstruct", archive, "-o", full]) == 0
        assert (
            main(["reconstruct", archive, "-o", traj, "--region", "1:40,7:7,1:3"])
            == 0
        )
        full_t = read_dt64(full)
        traj_t = read_dt64(traj)
        assert traj_t.dims == (40, 1, 3)
        assert np.allclose(
            traj_t.to_numpy()[:, 0, :], full_t.to_numpy()[:, 6, :], atol=1e-9
        )

    def test_region_matches_full_on_merged_archive(self, tmp_path):
        # four stacked leaves, the last holding 8 real steps of 16
        run = settling_run(tmp_path / "run", 3, 40, 56)
        out = str(tmp_path / "out")
        args = ["compress", run, "-o", out, "--tolerance", "1e-3"]
        assert main(args + ["--segment-length", "16"]) == 0
        archive = os.path.join(out, "seg_0_55.ttc")
        full = str(tmp_path / "full.dt64")
        assert main(["reconstruct", archive, "-o", full]) == 0
        dense = read_dt64(full).to_numpy()
        assert dense.shape == (56, 40, 3)
        scale = np.abs(dense).max()
        for box in ([(1, 56), (9, 9), (1, 3)], [(13, 56), (3, 31), (2, 3)],
                    [(17, 17), (1, 40), (1, 3)], [(14, 50), (1, 40), (3, 3)]):
            part = str(tmp_path / "part.dt64")
            text = ",".join(f"{lo}:{hi}" for lo, hi in box)
            assert main(["reconstruct", archive, "-o", part, "--region", text]) == 0
            got = read_dt64(part).to_numpy()
            want = dense[tuple(slice(lo - 1, hi) for lo, hi in box)]
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * scale

    def test_oversized_archive_header_exits_two(self, tmp_path, capsys):
        # 52 bytes whose header declares one core of 2^40 entries
        archive = tmp_path / "huge.ttc"
        header = b"TTC1" + struct.pack("<II2QQ", 1, 1, 1, 1, 2**40)
        archive.write_bytes(header + b"\x00" * 16)
        assert main(["info", str(archive)]) == 2
        out = str(tmp_path / "x.dt64")
        assert main(["reconstruct", str(archive), "-o", out]) == 2
        assert "internal error" not in capsys.readouterr().err

    def test_region_out_of_bounds_exits_two(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        archive = os.path.join(out, "seg_0_39.ttc")
        code = main(
            [
                "reconstruct",
                archive,
                "-o",
                str(tmp_path / "x.dt64"),
                "--region",
                "1:41,1:64,1:3",
            ]
        )
        assert code == 2

    def test_missing_archive_exits_two(self, tmp_path):
        assert (
            main(
                [
                    "reconstruct",
                    str(tmp_path / "nope.ttc"),
                    "-o",
                    str(tmp_path / "x.dt64"),
                ]
            )
            == 2
        )

    def test_malformed_region_exits_two(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        archive = os.path.join(out, "seg_0_39.ttc")
        code = main(
            [
                "reconstruct",
                archive,
                "-o",
                str(tmp_path / "x.dt64"),
                "--region",
                "a:b,1:2,1:3",
            ]
        )
        assert code == 2
        assert "region" in capsys.readouterr().err


class TestInfo:
    def test_text_and_json(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        archive = os.path.join(out, "seg_0_39.ttc")
        assert main(["info", archive]) == 0
        text = capsys.readouterr().out
        assert "ranks" in text and "compression ratio" in text
        assert main(["info", archive, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranks"][0] == 1
        assert payload["compression_ratio_cores_only"] > 0
        assert payload["compression_ratio_total_archive"] > 0

    def test_truncated_archive_reports_offset(self, run_dir, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        archive = os.path.join(out, "seg_0_39.ttc")
        with open(archive, "rb") as fh:
            data = fh.read()
        broken = str(tmp_path / "broken.ttc")
        with open(broken, "wb") as fh:
            fh.write(data[: len(data) // 3])
        assert main(["info", broken]) == 2
        assert "byte offset" in capsys.readouterr().err


class TestBench:
    def read_rows(self, path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    def test_fig3_small_grid(self, tmp_path):
        out = str(tmp_path / "fig3.csv")
        code = main(
            [
                "bench",
                "fig3",
                "-o",
                out,
                "--d",
                "12",
                "--deltas",
                "1e-1,1e-5",
                "--taus",
                "1e-1,1e-3",
                "--levels",
                "6:12",
            ]
        )
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 2 * 2 * 7
        by_key = {
            (r["delta"], r["tau"], int(r["level"])): float(r["ratio"])
            for r in rows
        }
        for delta in ("0.1", "1e-05"):
            for tau in ("0.1", "0.001"):
                assert by_key[(delta, tau, 12)] >= by_key[(delta, tau, 6)]

    def test_table1_single_cell(self, tmp_path):
        out = str(tmp_path / "table1.csv")
        code = main(
            ["bench", "table1", "-o", out, "--levels", "8", "--taus", "1e-2"]
        )
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 1
        ratio = float(rows[0]["ratio"])
        assert abs(ratio - 1.0e3) / 1.0e3 <= 0.25

    def test_streaming_levels(self, tmp_path):
        out = str(tmp_path / "streaming.csv")
        code = main(
            [
                "bench",
                "streaming",
                "-o",
                out,
                "--segments",
                "4",
                "--segment-length",
                "8",
                "--particles",
                "64",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        rows = self.read_rows(out)
        assert [int(r["level"]) for r in rows] == [0, 1, 2]
        assert [int(r["n_segments"]) for r in rows] == [4, 2, 1]
        assert [int(r["steps_per_segment"]) for r in rows] == [8, 16, 32]
        for row in rows:
            assert float(row["overall_nrmse"]) <= 0.1
