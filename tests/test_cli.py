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
    CompressionConfig,
    DenseTensor,
    SnapshotBatch,
    compress_run,
    load_segment,
    load_snapshots,
    nrmse,
    read_dt64,
    read_ttc1,
    reconstruct_segment,
    reconstruct_segments,
    rel_frob,
    save_segment,
    synth_particles,
    write_dt64,
    write_run,
    write_ttc1,
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


def unmerged_segments(run, out, length=16):
    """Compress ``run`` losslessly into unmerged segments; their directory."""
    args = ["compress", run, "-o", str(out), "--tolerance", "0"]
    args += ["--tolerance-kind", "relfrob", "--no-merge"]
    assert main(args + ["--segment-length", str(length)]) == 0
    return os.path.join(out, "segments")


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

    @pytest.mark.parametrize("seed", range(23, 31))
    def test_spent_budget_meets_target(self, tmp_path, seed):
        # the last merge level spends what the ledger leaves of the budget
        run = settling_run(tmp_path / "run", seed, 512, 256)
        out = str(tmp_path / "out")
        code = main(
            ["compress", run, "-o", out, "--tolerance", "1e-2", "--verify"]
        )
        assert code == 0
        metrics = read_manifest(out)["metrics"]
        assert metrics["nrmse"] <= metrics["certified_nrmse"] <= 1e-2
        assert metrics["rel_frob"] <= metrics["certified_rel_frob"]

    def test_manifest_certifies_without_verify(self, run_dir, tmp_path):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out, "--tolerance", "0.1"]) == 0
        metrics = read_manifest(out)["metrics"]
        assert "nrmse" not in metrics
        assert 0 < metrics["certified_nrmse"] <= 0.1
        seg = load_segment(os.path.join(out, "seg_0_39.ttc"))
        assert metrics["certified_rel_frob"] == pytest.approx(
            seg.error_bound / seg.stats.frobenius_norm, rel=1e-12
        )
        # unmerged segments: their bounds add in squares
        out = str(tmp_path / "flat")
        args = ["compress", run_dir, "-o", out, "--no-merge", "--verify"]
        assert main(args + ["--segment-length", "16"]) == 0
        metrics = read_manifest(out)["metrics"]
        assert metrics["nrmse"] <= metrics["certified_nrmse"] <= 0.1

    @pytest.mark.parametrize("n_seg", [3, 5, 40])
    @pytest.mark.parametrize("arity", [2, 3])
    def test_any_segment_count_merges(self, tmp_path, n_seg, arity):
        # the last segment holds 11 of 16 steps, and short trailing merge
        # groups are filled up to the arity
        run = settling_run(tmp_path / "run", 3, 40, 16 * n_seg - 5)
        out = str(tmp_path / "out")
        args = ["compress", run, "-o", out, "--tolerance", "1e-2", "--verify"]
        args += ["--segment-length", "16", "--merge-arity", str(arity)]
        assert main(args) == 0
        reported = read_manifest(out)["metrics"]["nrmse"]
        archive = os.path.join(out, f"seg_0_{16 * n_seg - 6}.ttc")
        measured = nrmse(
            load_snapshots(run).data, reconstruct_segment(load_segment(archive))
        )
        assert measured <= 1e-2
        assert reported == pytest.approx(measured, rel=1e-9)

    @pytest.mark.parametrize("tolerance", ["0.1", "0"])
    def test_all_zero_run_merges(self, tmp_path, tolerance):
        zeros = np.zeros((40, 8, 3))
        run = str(tmp_path / "run")
        batch = SnapshotBatch(DenseTensor.from_numpy(zeros), zeros[0], 1.0)
        write_run(run, batch)
        out = str(tmp_path / "out")
        args = ["compress", run, "-o", out, "--tolerance", tolerance]
        args += ["--tolerance-kind", "relfrob", "--segment-length", "16"]
        assert main(args + ["--verify"]) == 0
        metrics = read_manifest(out)["metrics"]
        assert metrics["certified_rel_frob"] is None
        seg = load_segment(os.path.join(out, "seg_0_39.ttc"))
        assert seg.error_bound == 0.0
        assert not reconstruct_segment(seg).to_numpy().any()

    def test_cli_matches_in_memory_pipeline(self, tmp_path):
        # three segments, so the merge fills a short group
        batch = synth_particles(40, 40, "settle", seed=4)
        run = str(tmp_path / "run")
        write_run(run, batch)
        out = tmp_path / "cli"
        args = ["compress", run, "-o", str(out), "--tolerance", "1e-2"]
        assert main(args + ["--segment-length", "16"]) == 0
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        levels = compress_run(batch.time_slice, batch.n_t, config)
        mem = tmp_path / "mem"
        for seg in levels[0]:
            save_segment(mem / "segments", seg, config.config_hash())
        save_segment(mem, levels[-1][0], config.config_hash())
        names = ["seg_0_39.ttc"] + [
            f"segments/seg_{a}_{b}.ttc" for a, b in ((0, 15), (16, 31), (32, 39))
        ]
        for name in names:
            assert (out / name).read_bytes() == (mem / name).read_bytes()

    def test_bad_last_step_writes_nothing(self, run_dir, tmp_path, capsys):
        step = os.path.join(run_dir, "step_39.bin")
        with open(step, "rb") as fh:
            data = fh.read()
        with open(step, "wb") as fh:
            fh.write(data[:-8])
        out = tmp_path / "out"
        assert main(["compress", run_dir, "-o", str(out)]) == 2
        assert "timestep 39" in capsys.readouterr().err
        assert not list(out.rglob("*.ttc"))

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
        metrics = read_manifest(out)["metrics"]
        recon = reconstruct_segment(load_segment(os.path.join(out, "seg_0_15.ttc")))
        assert metrics["rel_frob"] <= 1e-6
        assert metrics["rel_frob"] == pytest.approx(rel_frob(t, recon), rel=1e-9)
        # nothing is discarded here; decoding adds float error of ~1e-15
        assert metrics["certified_rel_frob"] == 0.0
        assert metrics["rel_frob"] <= 1e-12
        assert metrics["nrmse"] == pytest.approx(nrmse(t, recon), rel=1e-9)


    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(
        self, run_dir, tmp_path, capsys, tolerance
    ):
        out = str(tmp_path / "out")
        code = main(["compress", run_dir, "-o", out, "--tolerance", tolerance])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "finite" in err

    def test_huge_tolerance_keeps_rank_one(self, tmp_path, capsys):
        # squaring the budget gives inf instead of an OverflowError
        run = settling_run(tmp_path / "run", 3, 64, 64)
        out = str(tmp_path / "out")
        assert main(["compress", run, "-o", out, "--tolerance", "1e300"]) == 0
        assert "error" not in capsys.readouterr().err
        assert set(read_manifest(out)["metrics"]["ranks_final"]) == {1}

    def test_output_path_is_a_file_exits_two(self, run_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["compress", run_dir, "-o", str(taken)]) == 2
        assert "internal error" not in capsys.readouterr().err

    def test_level_applies_to_time_and_particles(self, tmp_path):
        run = settling_run(tmp_path / "run", 5, 64, 64)
        out = tmp_path / "out"
        code = main(
            ["compress", run, "-o", str(out), "--tolerance", "1e-2"]
            + ["--level", "2", "--verify"]
        )
        assert code == 0
        archives = sorted(out.glob("*.ttc")) + sorted(out.glob("segments/*.ttc"))
        assert len(archives) == 3
        for path in archives:
            assert load_segment(path).plan.axis_levels == (2, 2, 1)
        assert read_manifest(out)["metrics"]["nrmse"] <= 1e-2

    def test_level_applies_to_every_dt64_axis(self, tmp_path):
        # 5 and 2 have a single factor, so their level is capped at 1
        rng = np.random.default_rng(4)
        t = DenseTensor.from_numpy(rng.uniform(size=(8, 12, 5, 2)))
        src = str(tmp_path / "in.dt64")
        write_dt64(src, t)
        out = tmp_path / "out"
        code = main(
            ["compress", src, "-o", str(out), "--tolerance", "1e-6"]
            + ["--tolerance-kind", "relfrob", "--level", "2", "--verify"]
        )
        assert code == 0
        seg = load_segment(out / "seg_0_7.ttc")
        assert seg.plan.axis_levels == (2, 2, 1, 1)
        assert read_manifest(out)["metrics"]["rel_frob"] <= 1e-6


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

    def test_segment_directory(self, run_dir, tmp_path):
        seg_dir = unmerged_segments(run_dir, tmp_path / "out")
        full = str(tmp_path / "full.dt64")
        assert main(["reconstruct", seg_dir, "-o", full]) == 0
        original = load_snapshots(run_dir).data.to_numpy()
        got = read_dt64(full).to_numpy()
        assert got.shape == original.shape
        assert np.abs(got - original).max() <= 1e-9

    @pytest.mark.parametrize("fault", ["gap", "overlap", "renamed", "particles"])
    def test_inconsistent_segment_directory_exits_two(
        self, run_dir, tmp_path, capsys, fault
    ):
        seg_dir = unmerged_segments(run_dir, tmp_path / "out")
        middle = os.path.join(seg_dir, "seg_16_31.ttc")
        if fault == "gap":
            os.remove(middle)
        elif fault == "overlap":
            other = unmerged_segments(run_dir, tmp_path / "other", 24)
            os.rename(os.path.join(other, "seg_24_39.ttc"),
                      os.path.join(seg_dir, "seg_24_39.ttc"))
        elif fault == "renamed":
            os.rename(middle, os.path.join(seg_dir, "seg_16_30.ttc"))
        else:
            batch = synth_particles(65, 40, "ballistic", seed=11)
            write_run(tmp_path / "run65", batch)
            other = unmerged_segments(str(tmp_path / "run65"), tmp_path / "other")
            os.replace(os.path.join(other, "seg_16_31.ttc"), middle)
        code = main(["reconstruct", seg_dir, "-o", str(tmp_path / "x.dt64")])
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("part_time_extents", [44, -4]),
            ("time_range", [0.5, 39.5]),
            ("stack_dims", [2.0]),
        ],
    )
    def test_malformed_leaf_bookkeeping_exits_two(
        self, run_dir, tmp_path, capsys, key, value
    ):
        # the edits keep the extents summing to the range's length and the
        # stack shape matching the train
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out, "--segment-length", "20"]) == 0
        tt, meta = read_ttc1(os.path.join(out, "seg_0_39.ttc"))
        assert meta["part_time_extents"] == [20, 20]
        meta[key] = value
        archive = str(tmp_path / "bad.ttc")
        write_ttc1(archive, tt, meta)
        args = ["reconstruct", archive, "-o", str(tmp_path / "x.dt64")]
        assert main(args) == 2
        assert main(args + ["--region", "1:40,1:64,1:3"]) == 2
        assert "internal error" not in capsys.readouterr().err

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


def run_fresh(code, *args):
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    package."""
    src = os.path.dirname(os.path.dirname(ttcompress.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestReadsStayScipyFree:
    """scipy serves only the SVD, so reading an archive never imports it."""

    COMMAND = (
        "import sys; from ttcompress.cli import main; code = main(sys.argv[1:]); "
        "assert 'scipy' not in sys.modules, 'scipy was imported'; sys.exit(code)"
    )

    @pytest.mark.parametrize("command", ["file", "dir", "region", "info"])
    def test_command(self, run_dir, tmp_path, command):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out, "--segment-length", "16"]) == 0
        archive = os.path.join(out, "seg_0_39.ttc")
        dt64 = str(tmp_path / "out.dt64")
        argv = {
            "file": ["reconstruct", archive, "-o", dt64],
            "dir": ["reconstruct", os.path.join(out, "segments"), "-o", dt64],
            "region": ["reconstruct", archive, "-o", dt64, "--region", "2:9,3:40,1:3"],
            "info": ["info", archive, "--json"],
        }[command]
        run_fresh(self.COMMAND, *argv)

    def test_load_segment_and_region(self, run_dir, tmp_path):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        run_fresh(
            "import sys; from ttcompress import load_segment, reconstruct_region; "
            "seg = load_segment(sys.argv[1]); "
            "reconstruct_region(seg, [(1, 40), (5, 9), (2, 3)]); "
            "assert 'scipy' not in sys.modules, 'scipy was imported'",
            os.path.join(out, "seg_0_39.ttc"),
        )


class TestCompressStaysScipyFree:
    """At nRMSE 1e-2 every truncation budget takes the Gram route, wide
    or tall, so compressing and merging a run never imports scipy."""

    def test_merged_settling_run(self, tmp_path):
        run = settling_run(tmp_path / "run", 3, 64, 100)
        out = str(tmp_path / "out")
        run_fresh(
            TestReadsStayScipyFree.COMMAND,
            "compress", run, "-o", out, "--tolerance", "1e-2",
            "--segment-length", "16",
        )
        merged = load_segment(os.path.join(out, "seg_0_99.ttc"))
        assert merged.stack_dims == (2, 2, 2)


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
        seg = load_segment(archive)
        assert payload["error_bound"] == seg.error_bound > 0
        assert payload["certified_rel_frob"] == pytest.approx(
            seg.error_bound / seg.stats.frobenius_norm, rel=1e-12
        )
        assert 0 < payload["certified_nrmse"] <= 0.1
        assert f"error_bound: {seg.error_bound:.4g}" in text

    def test_archive_without_bound(self, run_dir, tmp_path, capsys):
        # archives written before the ledger carry no error_bound key
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        tt, meta = read_ttc1(os.path.join(out, "seg_0_39.ttc"))
        del meta["error_bound"]
        archive = str(tmp_path / "old.ttc")
        write_ttc1(archive, tt, meta)
        rec = str(tmp_path / "rec.dt64")
        assert main(["reconstruct", archive, "-o", rec]) == 0
        assert read_dt64(rec).dims == (40, 64, 3)
        capsys.readouterr()
        assert main(["info", archive]) == 0
        text = capsys.readouterr().out
        assert "error_bound: unknown" in text
        assert "certified_nrmse: unknown" in text
        assert main(["info", archive, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["error_bound"] is None
        assert payload["certified_rel_frob"] is None

    @pytest.mark.parametrize("bound", [-1.0, float("nan"), "0.1"])
    def test_malformed_bound_exits_two(self, run_dir, tmp_path, capsys, bound):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        tt, meta = read_ttc1(os.path.join(out, "seg_0_39.ttc"))
        meta["error_bound"] = bound
        archive = str(tmp_path / "bad.ttc")
        write_ttc1(archive, tt, meta)
        assert main(["info", archive]) == 2
        assert main(["reconstruct", archive, "-o", str(tmp_path / "x.dt64")]) == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("entry_count", "abc"),
            ("entry_count", 0),
            ("entry_count", 7680.0),
            ("x_min", 1e300),
            ("x_max", float("inf")),
            ("frobenius_norm", -1.0),
            ("frobenius_norm", float("nan")),
            ("tolerance_spent", -1.0),
            ("tolerance_spent", float("nan")),
            ("tolerance_spent", "0.1"),
        ],
    )
    def test_malformed_stats_exit_two(
        self, run_dir, tmp_path, capsys, key, value
    ):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        tt, meta = read_ttc1(os.path.join(out, "seg_0_39.ttc"))
        assert meta["stats"]["entry_count"] == 40 * 64 * 3
        if key == "tolerance_spent":
            meta[key] = value
        else:
            meta["stats"][key] = value
        archive = str(tmp_path / "bad.ttc")
        write_ttc1(archive, tt, meta)
        assert main(["info", archive]) == 2
        assert main(["reconstruct", archive, "-o", str(tmp_path / "x.dt64")]) == 2
        assert "internal error" not in capsys.readouterr().err

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


    def test_directory_archive_exits_two(self, tmp_path, capsys):
        assert main(["info", str(tmp_path)]) == 2
        assert "internal error" not in capsys.readouterr().err


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
        batch = synth_particles(64, 32, "settle", 3)
        config = CompressionConfig(tolerance=0.1, segment_length=8)
        levels = compress_run(batch.time_slice, batch.n_t, config)
        for row, level in zip(rows, levels):
            measured = nrmse(batch.data, reconstruct_segments(level))
            assert float(row["overall_nrmse"]) == pytest.approx(measured, rel=1e-12)
            assert measured <= 0.1
