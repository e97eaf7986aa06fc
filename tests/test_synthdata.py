import dataclasses
import math
import os

import mpmath
import numpy as np
import pytest

from ttcompress import (
    CompressionConfig,
    DenseTensor,
    IngestionError,
    SnapshotBatch,
    compress_segment,
    load_snapshots,
    open_run,
    sample_kernel_matrix,
    sample_univariate,
    synth_particles,
    tt_svd,
    write_run,
)


class TestSampleUnivariate:
    def test_first_sample_d1(self):
        f = sample_univariate(0.1, 1)
        # x = 0.25, |x - 0.5| + 0.1 = 0.35
        assert f.get((1,)) == pytest.approx(math.log(1 / 0.35), rel=1e-12)

    def test_flattens_for_large_delta(self):
        f = sample_univariate(1e3, 6)
        vals = f.to_numpy()
        assert np.max(vals) - np.min(vals) < 1e-3
        assert np.allclose(vals, math.log(1 / 1e3), atol=1e-3)

    def test_symmetry(self):
        f = sample_univariate(1e-3, 8).to_numpy()
        assert np.allclose(f, f[::-1], rtol=1e-12)

    def test_against_high_precision(self):
        rng = np.random.default_rng(0)
        d, delta = 12, 1e-5
        f = sample_univariate(delta, d).to_numpy()
        n = 2**d
        with mpmath.workdps(40):
            for i in rng.integers(1, n + 1, size=20):
                x = (mpmath.mpf(int(i)) - mpmath.mpf(1) / 2) / n
                expected = mpmath.log(1 / (abs(x - mpmath.mpf(1) / 2) + mpmath.mpf(delta)))
                assert abs(f[i - 1] - float(expected)) <= 1e-12 * abs(
                    float(expected)
                )


class TestSampleKernelMatrix:
    def test_diagonal_value(self):
        k = sample_kernel_matrix(1e-5, 6)
        diag = np.diag(k.to_numpy())
        assert np.allclose(diag, math.log(1e5), rtol=1e-12)

    def test_symmetric(self):
        k = sample_kernel_matrix(1e-3, 7).to_numpy()
        assert np.array_equal(k, k.T)

    def test_against_high_precision(self):
        rng = np.random.default_rng(1)
        d, delta = 8, 1e-5
        k = sample_kernel_matrix(delta, d).to_numpy()
        n = 2**d
        with mpmath.workdps(40):
            for _ in range(20):
                i, j = rng.integers(1, n + 1, size=2)
                x = (mpmath.mpf(int(i)) - mpmath.mpf(1) / 2) / n
                y = (mpmath.mpf(int(j)) - mpmath.mpf(1) / 2) / n
                expected = float(mpmath.log(1 / (abs(x - y) + mpmath.mpf(delta))))
                assert abs(k[i - 1, j - 1] - expected) <= 1e-12 * abs(expected)


class TestSynthParticles:
    def test_ballistic_time_rank_bound(self):
        batch = synth_particles(64, 32, "ballistic", seed=2)
        train = tt_svd(batch.data, 1e-10)
        # quadratic trajectories: the time unfolding has rank at most 3
        assert train.ranks[1] <= 3

    def test_noise_incompressible(self):
        batch = synth_particles(1024, 32, "noise", seed=3)
        seg = compress_segment(
            batch.data, CompressionConfig(tolerance=1e-3, tolerance_kind="nrmse")
        )
        assert seg.compression_ratio < 5

    def test_deterministic(self):
        for scenario in ("ballistic", "settle", "noise"):
            a = synth_particles(32, 16, scenario, seed=11)
            b = synth_particles(32, 16, scenario, seed=11)
            assert np.array_equal(a.data.to_numpy(), b.data.to_numpy())

    def test_settle_comes_to_rest(self):
        batch = synth_particles(128, 600, "settle", seed=4)
        z = batch.data.to_numpy()[:, :, 2]
        assert z[0].max() > 0.5
        assert np.all(z[-1] < 0.05)

    def test_fields_are_data_and_timestep(self):
        # the positions are the data's first three components, not a field
        assert [f.name for f in dataclasses.fields(SnapshotBatch)] == [
            "data", "timestep_size",
        ]
        batch = synth_particles(16, 8, "settle", seed=5)
        assert batch.data.dims == (8, 16, 3)


class TestRunDirectory:
    def test_single_timestep(self, tmp_path):
        batch = synth_particles(4, 1, "noise", seed=6)
        write_run(tmp_path / "run", batch)
        loaded = load_snapshots(tmp_path / "run")
        assert loaded.data.dims == (1, 4, 3)

    def test_roundtrip_bitwise(self, tmp_path):
        batch = synth_particles(10, 7, "ballistic", seed=7)
        write_run(tmp_path / "run", batch)
        loaded = load_snapshots(tmp_path / "run")
        assert np.array_equal(loaded.data.to_numpy(), batch.data.to_numpy())
        assert loaded.timestep_size == batch.timestep_size

    def test_wrong_particle_count_names_timestep(self, tmp_path):
        batch = synth_particles(5, 4, "noise", seed=8)
        write_run(tmp_path / "run", batch)
        step2 = tmp_path / "run" / "step_2.bin"
        data = step2.read_bytes()
        step2.write_bytes(data[: len(data) - 24])  # drop one particle
        with pytest.raises(IngestionError, match="timestep 2"):
            load_snapshots(tmp_path / "run")

    def test_missing_meta(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        with pytest.raises(IngestionError, match="meta.json"):
            load_snapshots(tmp_path / "empty")

    def test_missing_step_file(self, tmp_path):
        batch = synth_particles(5, 3, "noise", seed=9)
        write_run(tmp_path / "run", batch)
        os.remove(tmp_path / "run" / "step_1.bin")
        with pytest.raises(IngestionError, match="timestep 1"):
            load_snapshots(tmp_path / "run")

    def test_step_ranges_match_the_whole_run(self, tmp_path):
        batch = synth_particles(6, 7, "ballistic", seed=12)
        write_run(tmp_path / "run", batch)
        n_t, read = open_run(tmp_path / "run")
        assert n_t == 7
        for start, stop in ((0, 7), (2, 5), (6, 7)):
            part = read(start, stop)
            want = batch.time_slice(start, stop)
            assert isinstance(part, DenseTensor)
            assert part.dims == want.dims == (stop - start, 6, 3)
            assert np.array_equal(part.values, want.values)
        for start, stop in ((0, 8), (3, 3), (-1, 2)):
            with pytest.raises(IngestionError):
                read(start, stop)

    @pytest.mark.parametrize("n_c", [1, 3, 4])
    def test_ranges_equal_the_step_files(self, tmp_path, n_c):
        rng = np.random.default_rng(n_c)
        n_t, n_p = 11, 5
        arr = rng.standard_normal((n_t, n_p, n_c))
        write_run(
            tmp_path / "run",
            SnapshotBatch(DenseTensor.from_numpy(arr), 1.0),
        )
        _, read = open_run(tmp_path / "run")
        for start, stop in ((0, 11), (1, 4), (3, 10), (7, 8)):
            data = read(start, stop).to_numpy()
            assert data.flags.f_contiguous
            for k in range(start, stop):
                step = tmp_path / "run" / f"step_{k}.bin"
                raw = np.fromfile(step, dtype="<f8")
                want = raw.reshape((n_p, n_c), order="F")
                assert np.array_equal(data[k - start], want)
