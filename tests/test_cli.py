import base64
import csv
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ttcompress
from ttcompress import lowrank, streaming
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
    reconstruct_region,
    reconstruct_segment,
    reconstruct_segments,
    rel_frob,
    sample_kernel_matrix,
    save_segment,
    synth_particles,
    tensorize_matrix_interlaced,
    tt_full,
    tt_svd,
    write_dt64,
    write_run,
    write_ttc1,
)
from ttcompress import cli as cli_module
from ttcompress.cli import main
from ttcompress.tensorize import invert_plan, matrix_interlace_plan

from conftest import settling_run


@pytest.fixture
def run_dir(tmp_path):
    batch = synth_particles(64, 40, "ballistic", seed=11)
    path = tmp_path / "run"
    write_run(path, batch)
    return str(path)


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def unmerged_segments(run, out, length=16):
    """Compress ``run`` losslessly into unmerged segments; their directory,
    ``out`` itself."""
    args = ["compress", run, "-o", str(out), "--tolerance", "0"]
    args += ["--tolerance-kind", "relfrob", "--no-merge"]
    assert main(args + ["--segment-length", str(length)]) == 0
    return str(out)


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
        assert main(["reconstruct", out, "-o", rec]) == 0
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

    def test_near_precision_certifies_the_target(self, tmp_path):
        # at relfrob 1e-14 the segments' ledger leaves a spare below the
        # float estimates one rounding of the stack would certify, so the
        # stack stays exact and the certificate is the ledger
        run = str(tmp_path / "run")
        write_run(run, synth_particles(128, 257, "settle", seed=0))
        out = str(tmp_path / "out")
        args = ["compress", run, "-o", out, "--tolerance", "1e-14"]
        args += ["--tolerance-kind", "relfrob", "--segment-length", "32"]
        assert main(args + ["--verify"]) == 0
        metrics = read_manifest(out)["metrics"]
        assert metrics["rel_frob"] <= metrics["certified_rel_frob"] <= 1e-14

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
    @pytest.mark.parametrize("seed", [2, 3])
    def test_any_segment_count_merges(self, tmp_path, n_seg, seed):
        # the last segment holds 11 of 16 steps, and every segment is one
        # leaf of the one stack
        run = settling_run(tmp_path / "run", seed, 40, 16 * n_seg - 5)
        out = str(tmp_path / "out")
        args = ["compress", run, "-o", out, "--tolerance", "1e-2", "--verify"]
        args += ["--segment-length", "16"]
        assert main(args) == 0
        reported = read_manifest(out)["metrics"]["nrmse"]
        archive = load_segment(os.path.join(out, f"seg_0_{16 * n_seg - 6}.ttc"))
        assert archive.stack_dims == (n_seg,)
        measured = nrmse(load_snapshots(run).data, reconstruct_segment(archive))
        assert measured <= 1e-2
        assert reported == pytest.approx(measured, rel=1e-9)

    @pytest.mark.parametrize("tolerance", ["0.1", "0"])
    def test_all_zero_run_merges(self, tmp_path, tolerance):
        zeros = np.zeros((40, 8, 3))
        run = str(tmp_path / "run")
        batch = SnapshotBatch(DenseTensor.from_numpy(zeros), 1.0)
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
        # three segments, the last one short
        batch = synth_particles(40, 40, "settle", seed=4)
        run = str(tmp_path / "run")
        write_run(run, batch)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        # the merged archive, and the segments --no-merge stores
        for flags, names in (
            ([], ["seg_0_39.ttc"]),
            (["--no-merge"], [f"seg_{a}_{b}.ttc"
                              for a, b in ((0, 15), (16, 31), (32, 39))]),
        ):
            merge = not flags
            out = tmp_path / f"cli_{merge}"
            args = ["compress", run, "-o", str(out), "--tolerance", "1e-2"]
            assert main(args + ["--segment-length", "16"] + flags) == 0
            mem = tmp_path / f"mem_{merge}"
            parts = compress_run(batch.time_slice, batch.n_t, config, merge)
            for part in parts:
                save_segment(mem, part, config.config_hash())
            assert len(parts) == len(names)
            for name in names:
                assert (out / name).read_bytes() == (mem / name).read_bytes()

    @pytest.mark.parametrize(
        "n_t, flags, archives",
        [
            (40, [], ["seg_0_39.ttc"]),
            (16, [], ["seg_0_15.ttc"]),
            (40, ["--no-merge"], [f"seg_{a}_{b}.ttc"
                                  for a, b in ((0, 15), (16, 31), (32, 39))]),
        ],
        ids=["merged", "one-segment", "no-merge"],
    )
    def test_output_layout(self, tmp_path, n_t, flags, archives):
        # a run stores its merged archive, or its segments under --no-merge,
        # in OUT beside the manifest, which lists exactly what was written
        run = str(tmp_path / "run")
        write_run(run, synth_particles(16, n_t, "settle", seed=2))
        out = tmp_path / "out"
        args = ["compress", run, "-o", str(out), "--segment-length", "16"]
        assert main(args + flags) == 0
        written = sorted(
            p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()
        )
        assert written == sorted(archives + ["manifest.json"])
        outputs = read_manifest(out)["outputs"]
        assert [os.path.relpath(o["path"], out) for o in outputs] == archives
        for record in outputs:
            assert record["bytes"] == os.path.getsize(record["path"])

    @pytest.mark.parametrize(
        "runs, kept",
        [
            (((64, ["--no-merge"]), (32, ["--no-merge"])), ["seg_0_31.ttc"]),
            (((32, []), (64, [])), ["seg_0_63.ttc"]),
            (((64, ["--no-merge"]), (96, [])), ["seg_0_95.ttc"]),
            (((64, []), (96, ["--no-merge"])),
             [f"seg_{a}_{b}.ttc" for a, b in ((0, 31), (32, 63), (64, 95))]),
        ],
        ids=["no-merge", "merged", "segments-then-merged", "merged-then-segments"],
    )
    def test_rerun_leaves_no_stale_archive(self, tmp_path, runs, kept):
        # a second run into the same OUT, merged or not, removes the
        # archives of the first that it did not write, so they are not
        # read back with its own
        out = tmp_path / "out"
        for n_t, flags in runs:
            run = str(tmp_path / f"run{n_t}")
            write_run(run, synth_particles(64, n_t, "settle", seed=2))
            args = ["compress", run, "-o", str(out), "--segment-length", "32"]
            assert main(args + flags) == 0
        assert sorted(os.listdir(out)) == sorted(kept + ["manifest.json"])
        recon = str(tmp_path / "recon.dt64")
        assert main(["reconstruct", str(out), "-o", recon]) == 0
        assert read_dt64(recon).dims == (runs[-1][0], 64, 3)

    def test_no_merge_writes_into_out(self, run_dir, tmp_path):
        # the segments sit beside the manifest, with no segments folder,
        # and OUT reads back as the run
        out = unmerged_segments(run_dir, tmp_path / "out")
        assert sorted(os.listdir(out)) == [
            "manifest.json", "seg_0_15.ttc", "seg_16_31.ttc", "seg_32_39.ttc",
        ]
        recon = str(tmp_path / "recon.dt64")
        assert main(["reconstruct", out, "-o", recon]) == 0
        original = load_snapshots(run_dir).data.to_numpy()
        got = read_dt64(recon).to_numpy()
        assert got.shape == original.shape
        assert np.abs(got - original).max() <= 1e-9

    def test_ranks_final_covers_every_archive(self, run_dir, tmp_path):
        out = unmerged_segments(run_dir, tmp_path / "out")
        manifest = read_manifest(out)
        ranks = [
            list(load_segment(o["path"]).tt.ranks) for o in manifest["outputs"]
        ]
        assert len(ranks) == 3 and ranks[0] != ranks[2]
        assert manifest["metrics"]["ranks_final"] == ranks

    @pytest.mark.parametrize(
        "flags",
        [["--max-factor", "7"], ["--morton-bits", "8"], ["--no-tensorize"]],
        ids=["max-factor", "morton-bits", "no-tensorize"],
    )
    def test_removed_flags_are_unknown(self, run_dir, tmp_path, capsys, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["compress", run_dir, "-o", str(out)] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_keeps_other_files(self, tmp_path):
        out = tmp_path / "out"
        (out / "segments").mkdir(parents=True)
        (out / "segments" / "notes.txt").write_text("kept")
        (out / "seg_0_x.ttc").write_text("not an archive name")
        run = str(tmp_path / "run")
        write_run(run, synth_particles(16, 40, "settle", seed=2))
        args = ["compress", run, "-o", str(out), "--segment-length", "16"]
        assert main(args) == 0
        assert (out / "segments" / "notes.txt").read_text() == "kept"
        assert (out / "seg_0_x.ttc").exists()

    def test_verify_holds_one_leaf_at_a_time(self, tmp_path):
        import tracemalloc

        batch = synth_particles(256, 512, "settle", seed=3)
        run = str(tmp_path / "run")
        write_run(run, batch)
        raw = batch.data.values.nbytes
        del batch
        peaks = []
        for flags in ([], ["--verify"]):
            out = str(tmp_path / f"out{len(flags)}")
            tracemalloc.start()
            try:
                assert main(["compress", run, "-o", out, "--tolerance", "1e-2"]
                            + flags) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the whole run is never decoded at once
        assert peaks[1] < raw
        assert peaks[1] < 2 * peaks[0]

    def test_bad_last_step_writes_nothing(
        self, run_dir, tmp_path, capsys, monkeypatch
    ):
        step = os.path.join(run_dir, "step_39.bin")
        with open(step, "rb") as fh:
            data = fh.read()
        with open(step, "wb") as fh:
            fh.write(data[:-8])

        def no_compress(*args, **kwargs):
            raise AssertionError("compressed before the run was checked")

        monkeypatch.setattr(streaming, "compress_segment", no_compress)
        out = tmp_path / "out"
        assert main(["compress", run_dir, "-o", str(out)]) == 2
        assert "timestep 39" in capsys.readouterr().err
        assert not list(out.rglob("*.ttc"))

    def test_failed_manifest_keeps_the_old_one(
        self, run_dir, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        assert main(["compress", run_dir, "-o", str(out)]) == 0
        before = (out / "manifest.json").read_bytes()
        payload = json.loads(before)
        assert before == json.dumps(payload, sort_keys=True, indent=2).encode()
        # a value JSON cannot encode, sorted after most of the manifest
        monkeypatch.setattr(
            cli_module, "_certified", lambda parts: {"certified_nrmse": object()}
        )
        assert main(["compress", run_dir, "-o", str(out)]) != 0
        assert "not JSON serializable" in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == before
        assert sorted(os.listdir(out)) == ["manifest.json", "seg_0_39.ttc"]

    def test_oversized_run_header_exits_two(self, run_dir, tmp_path, capsys):
        # the step files cannot hold what the header claims: caught from
        # their sizes, before anything is allocated
        meta_path = os.path.join(run_dir, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["n_p"] = 10**12
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        assert main(["compress", run_dir, "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "timestep 0" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "flags",
        [[], ["--no-merge"], ["--tolerance-kind", "relfrob"]],
        ids=["merged", "no-merge", "relfrob"],
    )
    def test_non_finite_step_exits_two(self, tmp_path, capsys, value, flags):
        batch = synth_particles(64, 96, "settle", seed=5)
        arr = batch.data.to_numpy().copy()
        # the first step is named, not the first value in storage order
        arr[70, 9, 2] = arr[80, 0, 0] = value
        run = str(tmp_path / "run")
        write_run(run, SnapshotBatch(DenseTensor.from_numpy(arr), 0.01))
        out = tmp_path / "out"
        args = ["compress", run, "-o", str(out), "--tolerance", "1e-2"]
        assert main(args + flags) == 2
        err = capsys.readouterr().err
        assert "timestep 70: the data holds non-finite values" in err
        assert not list(out.rglob("*.ttc"))

    def test_non_finite_dt64_exits_two(self, tmp_path, capsys):
        values = np.random.default_rng(5).uniform(size=(8, 12, 5))
        values[3, 4, 2] = np.nan
        src = str(tmp_path / "in.dt64")
        t = DenseTensor.from_numpy(values)
        write_dt64(src, t.dims, [t.values])
        out = tmp_path / "out"
        assert main(["compress", src, "-o", str(out)]) == 2
        assert "non-finite values" in capsys.readouterr().err
        assert not list(out.rglob("*.ttc"))

    @pytest.mark.parametrize("kind", ["nrmse", "relfrob"])
    @pytest.mark.parametrize("source", ["dt64", "run", "merged-run"])
    def test_overflowing_norm_exits_two(self, tmp_path, capsys, source, kind):
        # finite values whose squared norm overflows float64: in the one
        # segment, or, for the merged run, only in the pair of 16-step
        # segments; no warning either, since the tests turn warnings into
        # errors
        scale = 6e152 if source == "merged-run" else 1e160
        arr = np.random.default_rng(0).uniform(0.9, 1.0, (32, 8, 3)) * scale
        t = DenseTensor.from_numpy(arr)
        if source == "dt64":
            src = str(tmp_path / "in.dt64")
            write_dt64(src, t.dims, [t.values])
        else:
            src = str(tmp_path / "run")
            write_run(src, SnapshotBatch(t, 0.01))
        out = tmp_path / "out"
        args = ["compress", src, "-o", str(out), "--tolerance-kind", kind]
        assert main(args + ["--segment-length", "16"]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "norm overflows" in err
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
            archive = {}
            for flags, name in (([], "seg_0_255.ttc"),
                                (["--no-merge"], "seg_0_31.ttc")):
                out = str(tmp_path / f"out_{threads}_{len(flags)}")
                subprocess.run(
                    [sys.executable, "-c",
                     "import sys; from ttcompress.cli import main; sys.exit(main())",
                     "compress", run, "-o", out, "--tolerance", "1e-2", *flags],
                    env=env, check=True, capture_output=True, timeout=300,
                )
                archive[name] = (tmp_path / out / name).read_bytes()
            archives.append(archive)
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
        write_dt64(src, t.dims, [t.values])
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
        assert metrics["rel_frob"] == pytest.approx(rel_frob(t, recon), rel=1e-9, abs=0)
        # no singular value is dropped here: the certificate is only the
        # SVD route's rounding estimate, and decoding adds float error of
        # ~1e-15
        assert 0.0 < metrics["certified_rel_frob"] <= 1e-14
        assert metrics["rel_frob"] <= 1e-12
        assert metrics["nrmse"] == pytest.approx(nrmse(t, recon), rel=1e-9, abs=0)


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
        (ranks,) = read_manifest(out)["metrics"]["ranks_final"]
        assert set(ranks) == {1}

    @pytest.mark.parametrize(
        "flag, value", [("--reorder", "timestep"), ("--tolerance-kind", "rmse")]
    )
    def test_unknown_policy_exits_two(self, run_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["compress", run_dir, "-o", str(out), flag, value])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()

    def test_output_path_is_a_file_exits_two(self, run_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["compress", run_dir, "-o", str(taken)]) == 2
        assert "internal error" not in capsys.readouterr().err

    def test_level_applies_to_time_and_particles(self, tmp_path):
        run = settling_run(tmp_path / "run", 5, 64, 64)
        archives = []
        for flags in ([], ["--no-merge"]):
            out = tmp_path / f"out{len(flags)}"
            code = main(
                ["compress", run, "-o", str(out), "--tolerance", "1e-2"]
                + ["--level", "2", "--verify"] + flags
            )
            assert code == 0
            assert read_manifest(out)["metrics"]["nrmse"] <= 1e-2
            archives += sorted(out.rglob("*.ttc"))
        # the merged archive, then the two segments
        assert len(archives) == 3
        for path in archives:
            assert load_segment(path).plan.axis_levels == (2, 2, 1)

    def test_level_one_keeps_axes_whole(self, tmp_path):
        # 1021 particles factor only once padded to 1024; at level 1 the
        # particle axis is one dimension, so padding it would only store
        # replicated rows in every core
        run = settling_run(tmp_path / "run", 4, 1021, 64)
        trains = {}
        for name, flags in [("level-1", ["--level", "1"]), ("default", [])]:
            out = tmp_path / name
            code = main(
                ["compress", run, "-o", str(out), "--tolerance", "1e-2",
                 "--segment-length", "32"] + flags
            )
            assert code == 0
            trains[name] = load_segment(out / "seg_0_63.ttc")
        assert trains["level-1"].tt.dims == (32, 1021, 3, 2)
        assert trains["level-1"].plan.pads == ()
        # the default level still splits the padded particle axis
        (pad,) = trains["default"].plan.pads
        assert (pad.original, pad.padded) == (1021, 1024)

    @pytest.mark.parametrize("level", ["0", "-1"])
    @pytest.mark.parametrize("flags", [["--no-merge"], []])
    def test_bad_level_exits_before_reading(
        self, run_dir, tmp_path, capsys, monkeypatch, level, flags
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("opened the run before the level was checked")

        monkeypatch.setattr(ttcompress.cli, "open_run", no_read)
        out = tmp_path / "out"
        code = main(["compress", run_dir, "-o", str(out), "--level", level] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "level" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, flags, message",
        [
            ("run", ["--segment-length", "0"], "segment length"),
            ("run", ["--tolerance", "nan"], "finite"),
            ("absent", [], "neither a run directory nor a file"),
        ],
        ids=["segment-length", "tolerance", "missing-input"],
    )
    def test_failed_compress_leaves_no_output(
        self, run_dir, tmp_path, capsys, source, flags, message
    ):
        source = run_dir if source == "run" else str(tmp_path / source)
        out = tmp_path / "out"
        assert main(["compress", source, "-o", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--no-merge"], []], ids=["no-merge", "merged"]
    )
    def test_run_without_positions_needs_reorder_none(
        self, tmp_path, capsys, flags
    ):
        # two components hold no positions to order the particles on
        run, out = tmp_path / "run", tmp_path / "out"
        arr = np.random.default_rng(5).uniform(size=(40, 8, 2))
        write_run(run, SnapshotBatch(DenseTensor.from_numpy(arr), 0.01))
        argv = ["compress", str(run), "-o", str(out), "--segment-length", "16"]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "three position" in err
        assert not out.exists()
        assert main(argv + flags + ["--reorder", "none"]) == 0

    def test_level_applies_to_every_dt64_axis(self, tmp_path):
        # 5 and 2 have a single factor, so their level is capped at 1
        rng = np.random.default_rng(4)
        t = DenseTensor.from_numpy(rng.uniform(size=(8, 12, 5, 2)))
        src = str(tmp_path / "in.dt64")
        write_dt64(src, t.dims, [t.values])
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
        assert not (tmp_path / "x.dt64").exists()

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
        assert not (tmp_path / "x.dt64").exists()

    def test_oversized_archive_header_exits_two(self, tmp_path, capsys):
        # 52 bytes whose header declares one core of 2^40 entries
        archive = tmp_path / "huge.ttc"
        header = b"TTC1" + struct.pack("<II2QQ", 1, 1, 1, 1, 2**40)
        archive.write_bytes(header + b"\x00" * 16)
        assert main(["info", str(archive)]) == 2
        out = str(tmp_path / "x.dt64")
        assert main(["reconstruct", str(archive), "-o", out]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not os.path.exists(out)

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

    @pytest.mark.parametrize("cap", ["abc", "", "-1"])
    def test_malformed_memory_cap_exits_two(
        self, run_dir, tmp_path, capsys, monkeypatch, cap
    ):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", cap)
        archive = os.path.join(out, "seg_0_39.ttc")
        code = main(["reconstruct", archive, "-o", str(tmp_path / "x.dt64")])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "QTT_MEMORY_CAP_ENTRIES" in err
        assert not (tmp_path / "x.dt64").exists()

    @pytest.mark.parametrize(
        "fault, code",
        [(OSError("No space left on device"), 2), (MemoryError(), 1),
         (KeyboardInterrupt(), None)],
    )
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_output_untouched(
        self, run_dir, tmp_path, monkeypatch, fault, code, existing
    ):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        target = tmp_path / "x.dt64"
        if existing:
            target.write_bytes(b"an earlier output")
        decode = cli_module.decode_columns

        def failing(segs):
            dims, blocks = decode(segs)

            def faulty():
                yield next(blocks)
                raise fault

            return dims, faulty()

        monkeypatch.setattr(cli_module, "decode_columns", failing)
        monkeypatch.setattr(streaming, "_REGION_BLOCK_VALUES", 40)
        args = ["reconstruct", os.path.join(out, "seg_0_39.ttc"), "-o", str(target)]
        if code is None:
            with pytest.raises(type(fault)):
                main(args)
        else:
            assert main(args) == code
        assert sorted(os.listdir(tmp_path)) == ["out", "run"] + ["x.dt64"] * existing
        if existing:
            assert target.read_bytes() == b"an earlier output"

    def test_streams_below_the_output_size(self, tmp_path, monkeypatch):
        # at 256 steps the whole output is below one block of
        # _REGION_BLOCK_VALUES, so smaller blocks show that memory stays
        # near the plan matrices and one block; 4-step segments keep the
        # plan matrix well below half the output
        run = tmp_path / "run"
        write_run(run, synth_particles(1024, 256, "settle", seed=3))
        out = str(tmp_path / "out")
        args = ["--tolerance", "1e-2", "--segment-length", "4"]
        assert main(["compress", str(run), "-o", out] + args) == 0
        archive = os.path.join(out, "seg_0_255.ttc")
        monkeypatch.setattr(streaming, "_REGION_BLOCK_VALUES", 1 << 14)
        tracemalloc.start()
        try:
            assert main(["reconstruct", archive, "-o", str(tmp_path / "x.dt64")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output_bytes = 1024 * 256 * 3 * 8
        assert peak < output_bytes / 2
        want = reconstruct_segment(load_segment(archive))
        write_dt64(tmp_path / "want.dt64", want.dims, [want.values])
        assert (tmp_path / "x.dt64").read_bytes() == (tmp_path / "want.dt64").read_bytes()

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

    def test_empty_region_exits_two(self, run_dir, tmp_path, capsys):
        # an empty region is a malformed one, not a request for the run
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        target = tmp_path / "x.dt64"
        archive = os.path.join(out, "seg_0_39.ttc")
        assert main(["reconstruct", archive, "-o", str(target), "--region", ""]) == 2
        assert "region" in capsys.readouterr().err
        assert not target.exists()

    def test_empty_region_on_directory_exits_two(self, run_dir, tmp_path, capsys):
        seg_dir = unmerged_segments(run_dir, tmp_path / "out")
        target = tmp_path / "x.dt64"
        assert main(["reconstruct", seg_dir, "-o", str(target), "--region", ""]) == 2
        assert "single archive file" in capsys.readouterr().err
        assert not target.exists()


class TestReadsStayScipyFree:
    """Reading an archive runs with scipy unimportable, and writes what the
    same command writes in this process."""

    @pytest.mark.parametrize("command", ["file", "dir", "region", "info"])
    def test_command(self, numpy_only, tmp_path, capsys, command):
        work, got = numpy_only
        assert got["codes"][command] == 0
        archive = str(work / "out" / "seg_0_99.ttc")
        dt64 = str(tmp_path / "x.dt64")
        argv = {
            "file": ["reconstruct", archive, "-o", dt64],
            "dir": ["reconstruct", str(work / "flat"), "-o", dt64],
            "region": ["reconstruct", archive, "-o", dt64, "--region", "2:9,3:40,1:3"],
            "info": ["info", archive, "--json"],
        }[command]
        assert main(argv) == 0
        if command == "info":
            want = json.loads(capsys.readouterr().out)
            assert json.loads(got["stdout"]["info"]) == want
        else:
            fresh = (work / f"{command}.dt64").read_bytes()
            assert fresh == (tmp_path / "x.dt64").read_bytes()

    def test_load_segment_and_region(self, numpy_only):
        work, _ = numpy_only
        seg = load_segment(str(work / "out" / "seg_0_99.ttc"))
        want = reconstruct_region(seg, [(1, 40), (5, 9), (2, 3)])
        np.testing.assert_array_equal(np.load(work / "region.npy"), want.values)


class TestCompressStaysScipyFree:
    """Compressing runs with scipy unimportable: every truncation budget
    at nRMSE 1e-2 and at relfrob 1e-12."""

    def test_merged_settling_run(self, numpy_only):
        work, got = numpy_only
        assert got["codes"]["merged"] == 0 and got["codes"]["flat"] == 0
        merged = load_segment(str(work / "out" / "seg_0_99.ttc"))
        assert merged.stack_dims == (7,)

    def test_tight_dt64(self, numpy_only):
        work, got = numpy_only
        assert got["codes"]["tight"] == 0
        certified = read_manifest(work / "tight")["metrics"]["certified_rel_frob"]
        assert 0.0 < certified <= 1e-12


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

    def test_archive_has_one_error_account(self, run_dir, tmp_path, capsys):
        # the certified bound is the archive's only error figure; archives
        # that also hold the retired a-priori "tolerance_spent" still read,
        # and certify the same
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out, "--tolerance", "0.05"]) == 0
        archive = os.path.join(out, "seg_0_39.ttc")
        tt, meta = read_ttc1(archive)
        assert "tolerance_spent" not in meta
        old = str(tmp_path / "old.ttc")
        write_ttc1(old, tt, {**meta, "tolerance_spent": 0.0123})
        capsys.readouterr()
        payloads = []
        for path in (archive, old):
            assert main(["info", path, "--json"]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        new, older = payloads
        for key in ("error_bound", "certified_rel_frob", "certified_nrmse"):
            assert new[key] == older[key] is not None
        assert "tolerance_spent" not in new and "tolerance_spent" not in older
        metrics = read_manifest(out)["metrics"]
        assert new["certified_nrmse"] == metrics["certified_nrmse"]
        assert main(["info", old]) == 0
        assert "tolerance_spent" not in capsys.readouterr().out
        rec = str(tmp_path / "rec.dt64")
        assert main(["reconstruct", old, "-o", rec]) == 0
        assert read_dt64(rec).dims == (40, 64, 3)

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
        ],
    )
    def test_malformed_stats_exit_two(
        self, run_dir, tmp_path, capsys, key, value
    ):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        tt, meta = read_ttc1(os.path.join(out, "seg_0_39.ttc"))
        assert meta["stats"]["entry_count"] == 40 * 64 * 3
        meta["stats"][key] = value
        archive = str(tmp_path / "bad.ttc")
        write_ttc1(archive, tt, meta)
        assert main(["info", archive]) == 2
        assert main(["reconstruct", archive, "-o", str(tmp_path / "x.dt64")]) == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make",
        [
            lambda n_t, n_p: np.zeros(n_p),  # a duplicate
            lambda n_t, n_p: np.arange(n_p - 2),  # too short
            lambda n_t, n_p: np.tile(np.arange(n_p), (n_t, 1)),  # one per step
            lambda n_t, n_p: np.arange(8).reshape(2, 2, 2),
        ],
        ids=["duplicate", "short", "2-d", "3-d"],
    )
    def test_malformed_permutation_exits_two(
        self, run_dir, tmp_path, capsys, make
    ):
        out = str(tmp_path / "out")
        assert main(["compress", run_dir, "-o", out]) == 0
        tt, meta = read_ttc1(os.path.join(out, "seg_0_39.ttc"))
        perm = make(40, 64)
        meta["permutation"] = {
            "shape": list(perm.shape),
            "u32le_b64": base64.b64encode(perm.astype("<u4").tobytes()).decode(),
        }
        archive = str(tmp_path / "bad.ttc")
        write_ttc1(archive, tt, meta)
        assert main(["info", archive]) == 2
        assert main(["reconstruct", archive, "-o", str(tmp_path / "x.dt64")]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "does not permute" in err
        assert not (tmp_path / "x.dt64").exists()

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

    @pytest.mark.parametrize(
        "study, flags, header",
        [
            ("fig3", ["--d", "6", "--levels", "3", "--taus", "1e-2"],
             "study,delta,tau,level,ndim,ratio,rel_frob_error"),
            ("table1", ["--d", "4", "--levels", "2", "--taus", "1e-2"],
             "study,level,tau,ndim,ratio,spectral_error,spectral_converged"),
            ("streaming",
             ["--segments", "2", "--segment-length", "4", "--particles", "8"],
             "study,level,steps_per_segment,n_segments,overall_ratio,"
             "overall_ratio_untensorized,overall_nrmse"),
        ],
        ids=["fig3", "table1", "streaming"],
    )
    def test_header_keeps_the_column_order(self, tmp_path, study, flags, header):
        out = tmp_path / "out.csv"
        assert main(["bench", study, "-o", str(out)] + flags) == 0
        assert out.read_text().splitlines()[0] == header

    @pytest.mark.parametrize("study, limit", [("fig3", 24), ("table1", 12)])
    def test_given_d_is_kept(self, tmp_path, capsys, study, limit):
        # --d 0 is given, not absent: the study rejects it rather than
        # running its default
        out = tmp_path / "out.csv"
        assert main(["bench", study, "-o", str(out), "--d", "0"]) == 2
        assert f"d must be in 1..{limit}, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--levels", ""), ("--levels", "8:6"), ("--taus", ""), ("--deltas", ",")],
    )
    def test_empty_list_exits_two(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "table1", "-o", str(out), flag, value])
        assert exc.value.code == 2
        assert "lists no values" in capsys.readouterr().err
        assert not out.exists()

    def test_table1_takes_one_delta(self, tmp_path, capsys):
        # its rows name no delta, so a second one would be dropped unseen
        out = tmp_path / "out.csv"
        argv = ["bench", "table1", "-o", str(out), "--d", "4", "--levels", "2",
                "--taus", "1e-2", "--deltas", "1e-5,1e-1"]
        assert main(argv) == 2
        assert "table1 takes one delta, got 2" in capsys.readouterr().err
        assert not out.exists()

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

    def test_table1_spectral_error_is_exact_at_tight_tau(self, tmp_path):
        # K @ v - R @ v cancels at tau 1e-14; the study iterates on K - R
        out = str(tmp_path / "table1.csv")
        args = ["--d", "8", "--deltas", "1e-5", "--levels", "5", "--taus", "1e-14"]
        assert main(["bench", "table1", "-o", out] + args) == 0
        (row,) = self.read_rows(out)
        kernel = sample_kernel_matrix(1e-5, 8)
        train = tt_svd(tensorize_matrix_interlaced(kernel, 5), 1e-14)
        recon = invert_plan(tt_full(train), matrix_interlace_plan(256, 5))
        exact = np.linalg.norm(kernel.to_numpy() - recon.to_numpy(), 2)
        # relative alone: approx's default absolute 1e-12 exceeds the norm
        assert abs(float(row["spectral_error"]) - exact) <= 5e-3 * exact

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
        # the segments, then the merged run
        assert [int(r["level"]) for r in rows] == [0, 1]
        assert [int(r["n_segments"]) for r in rows] == [4, 1]
        assert [int(r["steps_per_segment"]) for r in rows] == [8, 32]
        batch = synth_particles(64, 32, "settle", 3)
        config = CompressionConfig(tolerance=0.1, segment_length=8)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        assert len(levels) == len(rows)
        flat = []
        compress_run(
            batch.time_slice, batch.n_t,
            CompressionConfig(tolerance=0.1, segment_length=8, level=1),
            on_level=flat.append,
        )
        assert len(flat) == len(rows)
        for row, level, untensorized in zip(rows, levels, flat):
            measured = nrmse(batch.data, reconstruct_segments(level))
            assert float(row["overall_nrmse"]) == pytest.approx(measured, rel=1e-12)
            assert measured <= 0.1
            # each row's untensorized ratio is its own level's
            assert float(row["overall_ratio_untensorized"]) == pytest.approx(
                cli_module._overall_ratio(untensorized), rel=1e-12
            )
