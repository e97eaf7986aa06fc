import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttcompress import (
    CapacityError,
    CompressionConfig,
    ConfigError,
    DenseTensor,
    FormatError,
    IndexRangeError,
    MergeError,
    SnapshotBatch,
    StructureError,
    TensorizePlan,
    TTTensor,
    apply_plan,
    combine_stats,
    compose_tolerances,
    compress_run,
    compress_segment,
    compress_tensor,
    load_segment,
    open_run,
    matrix_interlace_plan,
    merge_concat,
    merge_stack,
    merge_tree,
    nrmse,
    nrmse_to_relfrob,
    plan_tau_schedule,
    read_dt64,
    reconstruct_region,
    reconstruct_segment,
    reconstruct_segments,
    read_ttc1,
    rel_frob,
    save_segment,
    stats_of,
    synth_particles,
    tt_full,
    tt_get,
    tt_stack_new,
    tt_svd,
    write_dt64,
    write_run,
    write_ttc1,
)
from ttcompress import streaming
from ttcompress.cli import main
from ttcompress.streaming import CompressedSegment, DataStats, segment_metadata
from ttcompress.tensorize import axis_offsets
from ttcompress.tt import _tt_round


def batch_from_array(arr):
    arr = np.asarray(arr, dtype=np.float64)
    pos = arr[0, :, :3].copy() if arr.shape[2] >= 3 else None
    return SnapshotBatch(
        data=DenseTensor.from_numpy(arr), positions_first=pos, timestep_size=1.0
    )


def relfrob_config(tol, **kwargs):
    kwargs.setdefault("reorder", "none")
    return CompressionConfig(
        tolerance=tol, tolerance_kind="relfrob", **kwargs
    )


def split_time(arr, n_seg, cfg, **kwargs):
    step = arr.shape[0] // n_seg
    return [
        compress_segment(
            batch_from_array(arr[i * step : (i + 1) * step]),
            cfg,
            first_step=i * step,
            **kwargs,
        )
        for i in range(n_seg)
    ]


class TestToleranceConversion:
    def test_direct_evaluation(self):
        stats = stats_of(np.array([1.0, -1.0]))
        # range 2, norm sqrt(2), n 2 -> factor 2
        assert nrmse_to_relfrob(0.01, stats) == pytest.approx(0.02)

    def test_constant_data_sentinel(self):
        stats = stats_of(np.full(10, 3.0))
        assert nrmse_to_relfrob(0.1, stats) is None

    def test_zero_data_sentinel(self):
        stats = stats_of(np.zeros(10))
        assert nrmse_to_relfrob(0.1, stats) is None

    @pytest.mark.parametrize("target", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_target_rejected(self, target):
        with pytest.raises(ConfigError):
            nrmse_to_relfrob(target, stats_of(np.array([1.0, -1.0])))

    def test_compressing_with_derived_tolerance_meets_target(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((8, 16, 3))
        for target in (0.2, 0.05):
            cfg = CompressionConfig(
                tolerance=target, tolerance_kind="nrmse", reorder="none"
            )
            seg = compress_segment(batch_from_array(arr), cfg)
            measured = nrmse(
                DenseTensor.from_numpy(arr), reconstruct_segment(seg)
            )
            assert measured <= target


class TestCompressSegment:
    def test_constant_batch_rank_one(self):
        arr = np.full((32, 1024, 3), 7.5)
        seg = compress_segment(
            batch_from_array(arr),
            CompressionConfig(tolerance=0.1, tolerance_kind="nrmse", reorder="none"),
        )
        assert set(seg.tt.ranks) == {1}
        assert seg.compression_ratio > 1e3
        assert np.allclose(reconstruct_segment(seg).to_numpy(), 7.5)

    def test_noise_ratio_below_five(self):
        batch = synth_particles(512, 32, "noise", seed=1)
        seg = compress_segment(
            batch, CompressionConfig(tolerance=1e-3, tolerance_kind="nrmse")
        )
        assert seg.compression_ratio < 5

    def test_tensorized_beats_flat_on_settle(self):
        batch = synth_particles(1024, 32, "settle", seed=2)
        cfg = CompressionConfig(tolerance=0.1, tolerance_kind="nrmse")
        tens = compress_segment(batch, cfg)
        flat = compress_segment(
            batch, dataclasses.replace(cfg, tensorize=False)
        )
        assert tens.compression_ratio > flat.compression_ratio

    def test_error_guarantee_on_unpadded_region(self):
        rng = np.random.default_rng(3)
        arr = rng.uniform(size=(6, 13, 3))  # both axes need padding
        for tol in (1e-1, 1e-3):
            cfg = relfrob_config(tol)
            seg = compress_segment(batch_from_array(arr), cfg)
            err = rel_frob(
                DenseTensor.from_numpy(arr), reconstruct_segment(seg)
            )
            assert err <= tol

    def test_reorder_roundtrip(self):
        batch = synth_particles(50, 8, "ballistic", seed=4)
        cfg = CompressionConfig(tolerance=0.0, tolerance_kind="relfrob")
        seg = compress_segment(batch, cfg)
        assert seg.permutations is not None
        recon = reconstruct_segment(seg).to_numpy()
        assert np.allclose(
            recon, batch.data.to_numpy(), atol=1e-11 * seg.stats.frobenius_norm
        )

    def test_per_timestep_reorder_roundtrip(self):
        batch = synth_particles(24, 6, "ballistic", seed=5)
        cfg = CompressionConfig(
            tolerance=0.0, tolerance_kind="relfrob", reorder="timestep"
        )
        seg = compress_segment(batch, cfg)
        assert seg.permutations.shape == (6, 24)
        recon = reconstruct_segment(seg).to_numpy()
        assert np.allclose(
            recon, batch.data.to_numpy(), atol=1e-11 * seg.stats.frobenius_norm
        )

    @pytest.mark.parametrize("level", [0, -1, True, 1.5, "2"])
    def test_bad_level_rejected(self, level):
        with pytest.raises(ConfigError, match="level"):
            CompressionConfig(level=level)
        with pytest.raises(ConfigError, match="level"):
            CompressionConfig(level=level, tensorize=False)

    def test_reorder_requires_positions(self):
        arr = np.zeros((4, 4, 2))
        arr[0, 0, 0] = 1.0
        with pytest.raises(ConfigError):
            compress_segment(
                SnapshotBatch(
                    data=DenseTensor.from_numpy(arr),
                    positions_first=None,
                    timestep_size=1.0,
                ),
                CompressionConfig(tolerance=0.1),
            )


def weighted_tolerance(parts):
    """A-priori tolerance of disjoint parts: sqrt(sum (t_i ||X_i||)^2) / ||X||,
    capped at the worst t_i."""
    norms = np.array([p.stats.frobenius_norm for p in parts])
    taus = np.array([p.tolerance_spent for p in parts])
    if not norms.any():
        return taus.max()
    return min(taus.max(), np.linalg.norm(taus * norms) / np.linalg.norm(norms))


class TestMergeStack:
    def test_duplicate_data_collapses(self):
        rng = np.random.default_rng(7)
        block = rng.uniform(size=(8, 16, 3))
        arr = np.concatenate([block, block], axis=0)
        cfg = relfrob_config(1e-8)
        parts = split_time(arr, 2, cfg)
        merged = merge_stack(parts, 1e-10)
        single = parts[0]
        d = single.tt.ndim
        assert merged.tt.ranks[1:d] == single.tt.ranks[1:d]

    def test_tolerance_composition(self):
        assert compose_tolerances(1e-2, [1e-2]) == pytest.approx(0.0201)

    def test_stacking_error_only_from_rounding(self):
        rng = np.random.default_rng(8)
        arr = rng.uniform(size=(8, 8, 2))
        cfg = relfrob_config(1e-2)
        parts = split_time(arr, 2, cfg)
        tau_round = 1e-3
        merged = merge_stack(parts, tau_round)
        stacked_parts = np.concatenate(
            [reconstruct_segment(p).to_numpy() for p in parts], axis=0
        )
        err = rel_frob(
            DenseTensor.from_numpy(stacked_parts),
            reconstruct_segment(merged),
        )
        assert err <= tau_round

    def test_budget_property(self):
        rng = np.random.default_rng(9)
        arr = rng.uniform(size=(8, 8, 8))
        for n_seg in (2, 4, 8):
            for tau in (1e-2, 1e-4):
                for tau_round in (1e-2, 1e-4):
                    cfg = relfrob_config(tau)
                    parts = split_time(arr, n_seg, cfg)
                    merged = merge_stack(parts, tau_round)
                    err = rel_frob(
                        DenseTensor.from_numpy(arr),
                        reconstruct_segment(merged),
                    )
                    assert err <= tau + tau_round + tau * tau_round
                    assert merged.tolerance_spent == pytest.approx(
                        compose_tolerances(tau, [tau_round])
                    )

    @pytest.mark.parametrize("tau_round", [0.0, 1e-3])
    def test_own_range_parts_compose_by_norm(self, tau_round):
        # segments of a settling run at nRMSE 1e-2 against their own
        # ranges: their relative tolerances differ
        batch = synth_particles(32, 64, "settle", seed=5)
        config = CompressionConfig(
            tolerance=1e-2, segment_length=16, reorder="none"
        )
        parts = compress_run(batch.time_slice, 64, config, merge=False)
        taus = [p.tolerance_spent for p in parts]
        assert max(taus) > 1.1 * min(taus)
        merged = merge_stack(parts, tau_round)
        weighted = weighted_tolerance(parts)
        assert merged.tolerance_spent == pytest.approx(
            compose_tolerances(weighted, [tau_round]), rel=1e-12
        )
        assert merged.tolerance_spent < compose_tolerances(max(taus), [tau_round])
        norm = merged.stats.frobenius_norm
        assert abs_error(batch.data.to_numpy(), merged) <= (
            merged.tolerance_spent * norm
        )

    def test_stats_union_exact(self):
        rng = np.random.default_rng(10)
        arr = rng.standard_normal((8, 6, 3))
        parts = split_time(arr, 2, relfrob_config(0.1))
        merged = merge_stack(parts, 0.0)
        direct = stats_of(arr)
        assert merged.stats.x_min == direct.x_min
        assert merged.stats.x_max == direct.x_max
        assert merged.stats.entry_count == direct.entry_count
        assert merged.stats.frobenius_norm == pytest.approx(
            direct.frobenius_norm, rel=1e-12
        )

    def test_non_contiguous_rejected(self):
        rng = np.random.default_rng(11)
        arr = rng.uniform(size=(8, 4, 3))
        parts = split_time(arr, 2, relfrob_config(0.1))
        with pytest.raises(MergeError):
            merge_stack([parts[1], parts[0]], 0.0)

    def test_mismatched_permutations_rejected(self):
        batch_a = synth_particles(16, 8, "ballistic", seed=12)
        batch_b = synth_particles(16, 8, "ballistic", seed=13)
        cfg = CompressionConfig(tolerance=0.1, tolerance_kind="nrmse")
        a = compress_segment(batch_a, cfg, first_step=0)
        b = compress_segment(batch_b, cfg, first_step=8)
        if np.array_equal(a.permutations, b.permutations):
            pytest.skip("random clouds coincidentally share an ordering")
        with pytest.raises(StructureError):
            merge_stack([a, b], 0.0)

    @pytest.mark.parametrize("tau_round", [-1.0, float("nan")])
    def test_bad_rounding_tolerance_rejected(self, tau_round):
        rng = np.random.default_rng(11)
        parts = split_time(rng.uniform(size=(8, 4, 3)), 2, relfrob_config(0.1))
        with pytest.raises(ConfigError):
            merge_stack(parts, tau_round)

    def test_ragged_tail_merge(self):
        rng = np.random.default_rng(14)
        arr = rng.uniform(size=(12, 8, 3))
        cfg = relfrob_config(1e-6)
        first = compress_segment(
            batch_from_array(arr[:8]), cfg, first_step=0, pad_time_to=8
        )
        tail = compress_segment(
            batch_from_array(arr[8:]), cfg, first_step=8, pad_time_to=8
        )
        merged = merge_stack([first, tail], 1e-8)
        assert merged.total_steps == 12
        recon = reconstruct_segment(merged)
        assert recon.dims == (12, 8, 3)
        assert rel_frob(DenseTensor.from_numpy(arr), recon) <= 2e-6


class TestMergeConcat:
    def test_split_tensor_roundtrip(self):
        rng = np.random.default_rng(15)
        arr = rng.uniform(size=(8, 3, 2))
        tau, tau_round = 1e-2, 1e-3
        cfg = relfrob_config(tau, tensorize=False)
        parts = split_time(arr, 2, cfg)
        merged = merge_concat(parts, 1, tau_round)
        err = rel_frob(
            DenseTensor.from_numpy(arr), reconstruct_segment(merged)
        )
        assert err <= compose_tolerances(tau, [tau_round])

    def test_exact_with_zero_rounding(self):
        rng = np.random.default_rng(16)
        arr = rng.uniform(size=(8, 4, 2))
        parts = split_time(arr, 2, relfrob_config(0.0, tensorize=False))
        merged = merge_concat(parts, 1, 0.0)
        for k in range(1, 3):
            assert merged.tt.ranks[k] == sum(p.tt.ranks[k] for p in parts)
        assert np.allclose(
            reconstruct_segment(merged).to_numpy(), arr, atol=1e-12
        )

    def test_budget_across_split_counts(self):
        rng = np.random.default_rng(17)
        arr = rng.uniform(size=(8, 8, 8))
        for n_seg in (2, 4, 8):
            for tau in (1e-2, 1e-4):
                for tau_round in (1e-2, 1e-4):
                    parts = split_time(
                        arr, n_seg, relfrob_config(tau, tensorize=False)
                    )
                    merged = merge_concat(parts, 1, tau_round)
                    err = rel_frob(
                        DenseTensor.from_numpy(arr),
                        reconstruct_segment(merged),
                    )
                    assert err <= tau + tau_round + tau * tau_round

    @pytest.mark.parametrize("tau_round", [-1.0, float("nan")])
    def test_bad_rounding_tolerance_rejected(self, tau_round):
        rng = np.random.default_rng(16)
        arr = rng.uniform(size=(8, 4, 2))
        parts = split_time(arr, 2, relfrob_config(0.1, tensorize=False))
        with pytest.raises(ConfigError):
            merge_concat(parts, 1, tau_round)

    def test_tensorized_axis_rejected(self):
        rng = np.random.default_rng(18)
        arr = rng.uniform(size=(8, 4, 3))
        parts = split_time(arr, 2, relfrob_config(0.1))  # tensorized
        with pytest.raises(MergeError):
            merge_concat(parts, 1, 0.0)


MERGE_SHAPES = [(32, 2, [32, 16, 8, 4, 2, 1]), (3, 2, [3, 2, 1]), (5, 3, [5, 2, 1])]


class TestMergeTree:
    @pytest.mark.parametrize(
        "n_seg, arity, counts", MERGE_SHAPES, ids=["32-of-2", "3-of-2", "5-of-3"]
    )
    def test_level_counts(self, n_seg, arity, counts):
        rng = np.random.default_rng(19)
        arr = rng.uniform(size=(n_seg, 4, 3))
        parts = split_time(arr, n_seg, relfrob_config(1e-3))
        levels = []
        final = merge_tree(parts, arity, 2e-3, levels.append)
        assert [len(lv) for lv in levels] == counts
        assert levels[-1] == [final] and levels[0] == parts
        for level in levels:
            # short trailing groups are filled, so every part stacks alike
            assert len({p.stack_dims for p in level}) == 1
            assert sum(p.total_steps for p in level) == n_seg

    def test_single_segment_identity(self):
        rng = np.random.default_rng(20)
        arr = rng.uniform(size=(4, 4, 3))
        seg = compress_segment(batch_from_array(arr), relfrob_config(1e-3))
        levels = []
        assert merge_tree([seg], 2) is seg
        assert merge_tree([seg], 2, 1e-2, levels.append) is seg
        assert levels == [[seg]]

    @pytest.mark.parametrize(
        "n_seg, arity", [(4, 2), (3, 2), (5, 3)], ids=["4-of-2", "3-of-2", "5-of-3"]
    )
    def test_final_error_within_budget(self, n_seg, arity):
        rng = np.random.default_rng(21)
        arr = rng.uniform(size=(2 * n_seg, 4, 3))
        tau = 1e-2
        parts = split_time(arr, n_seg, relfrob_config(tau))
        final = merge_tree(parts, arity, 3 * tau)
        assert final.total_steps == 2 * n_seg
        err = rel_frob(
            DenseTensor.from_numpy(arr), reconstruct_segment(final)
        )
        assert err <= 3 * tau
        assert final.tolerance_spent <= 3 * tau * (1 + 1e-12)
        assert final.error_bound <= 3 * tau * np.linalg.norm(arr)

    def test_unknown_bound_keeps_the_planned_rounding(self):
        # without a ledger the last level has nothing to spend from
        rng = np.random.default_rng(21)
        arr = rng.uniform(size=(8, 4, 3))
        parts = split_time(arr, 4, relfrob_config(1e-2))
        parts[1] = dataclasses.replace(parts[1], error_bound=None)
        final = merge_tree(parts, 2, 3e-2)
        assert final.error_bound is None
        assert final.tolerance_spent == pytest.approx(3e-2, rel=1e-12)
        err = rel_frob(DenseTensor.from_numpy(arr), reconstruct_segment(final))
        assert err <= 3e-2

    def test_budget_exhaustion_fails_before_work(self, monkeypatch):
        rng = np.random.default_rng(22)
        arr = rng.uniform(size=(8, 4, 3))
        parts = split_time(arr, 4, relfrob_config(1e-2))

        def no_merge(*args):
            raise AssertionError("merged before the budget was checked")

        monkeypatch.setattr(streaming, "merge_stack", no_merge)
        with pytest.raises(ConfigError):
            merge_tree(parts, 2, 5e-3)

    @pytest.mark.parametrize("budget", [-1.0, float("nan"), float("inf")])
    def test_bad_budget_rejected(self, budget):
        rng = np.random.default_rng(23)
        parts = split_time(rng.uniform(size=(8, 4, 3)), 4, relfrob_config(0.0))
        with pytest.raises(ConfigError):
            merge_tree(parts, 2, budget)
        with pytest.raises(ConfigError):
            merge_tree(parts[:1], 2, budget)

    @pytest.mark.parametrize("n_seg, arity", [(4, 2), (3, 2), (5, 3)])
    def test_no_budget_keeps_exact_stacks(self, n_seg, arity):
        rng = np.random.default_rng(24)
        arr = rng.uniform(size=(2 * n_seg, 4, 3))
        parts = split_time(arr, n_seg, relfrob_config(1e-2))
        levels = []
        merge_tree(parts, arity, on_level=levels.append)
        for below, level in zip(levels, levels[1:]):
            groups = list(streaming._groups(below, arity))
            assert len(groups) == len(level)
            for group, part in zip(groups, level):
                exact = tt_stack_new([p.tt for p in group])
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(part.tt.cores, exact.cores)
                )
                # the parts' norm-weighted tolerance, never above the worst
                assert part.tolerance_spent == weighted_tolerance(group)
                assert part.tolerance_spent <= max(
                    p.tolerance_spent for p in group
                )
        assert np.allclose(
            reconstruct_segment(levels[-1][0]).to_numpy(),
            np.concatenate([reconstruct_segment(p).to_numpy() for p in parts]),
            rtol=0,
            atol=1e-12 * np.linalg.norm(arr),
        )


class TestCompressRun:
    def test_memory_follows_the_segment(self, tmp_path):
        import tracemalloc

        batch = synth_particles(1024, 16 * 32, "settle", seed=8)
        write_run(tmp_path / "run", batch)
        raw = batch.data.values.nbytes
        del batch
        n_t, read = open_run(tmp_path / "run")
        config = CompressionConfig(tolerance=0.1, segment_length=32)
        tracemalloc.start()
        try:
            (merged,) = compress_run(read, n_t, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert merged.stack_dims == (2, 2, 2, 2)
        assert peak < raw / 4

    def test_returns_only_the_merged_part(self):
        # the segments and the levels above them are dropped as the merge
        # goes on, and none outlives it
        import tracemalloc

        batch = synth_particles(1024, 512, "settle", seed=3)
        raw = batch.data.values.nbytes
        config = CompressionConfig(tolerance=1e-2, segment_length=32)
        tracemalloc.start()
        try:
            parts = compress_run(batch.time_slice, batch.n_t, config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (merged,) = parts
        assert merged.time_range == (0, 511)
        assert held <= 0.05 * raw
        assert peak < 0.4 * raw

    @pytest.mark.parametrize("merge", [True, False])
    def test_reads_each_step_once(self, merge):
        batch = synth_particles(16, 40, "settle", seed=6)
        reads = []

        def read(start, stop):
            reads.append((start, stop))
            return batch.time_slice(start, stop)

        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        compress_run(read, batch.n_t, config, merge)
        assert reads == [(0, 16), (16, 32), (32, 40)]

    def test_velocity_run_merges(self):
        # velocities of a settling run: the segments where particles still
        # bounce span a wide range against their norm, so their own-range
        # tolerance exceeds half the run's budget, and only the segments'
        # norm-weighted tolerance stays within it
        positions = synth_particles(128, 257, "settle", seed=3).data.to_numpy()
        velocities = np.diff(positions, axis=0) / 0.01
        batch = batch_from_array(velocities)
        config = CompressionConfig(
            tolerance=1e-2, segment_length=32, reorder="none"
        )
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        stats = stats_of(velocities)
        budget = nrmse_to_relfrob(1e-2, stats)
        assert max(s.tolerance_spent for s in levels[0]) > budget / 2
        assert weighted_tolerance(levels[0]) <= budget / 2
        final = levels[-1][0]
        assert final.stack_dims == (2, 2, 2)
        measured = nrmse(batch.data, reconstruct_segment(final))
        scale = (stats.x_max - stats.x_min) * np.sqrt(stats.entry_count)
        assert measured <= final.error_bound / scale <= 1e-2

    def test_timestep_reorder_cannot_merge(self):
        batch = synth_particles(8, 8, "ballistic", seed=9)
        config = CompressionConfig(segment_length=4, reorder="timestep")
        with pytest.raises(ConfigError):
            compress_run(batch.time_slice, 8, config)
        levels = []
        parts = compress_run(
            batch.time_slice, 8, config, merge=False, on_level=levels.append
        )
        assert [s.time_range for s in parts] == [(0, 3), (4, 7)]
        assert levels == [parts]


def abs_error(arr, seg):
    return float(np.linalg.norm(arr - reconstruct_segment(seg).to_numpy()))


# float slack of a measured error: the reconstruction's own rounding
MEASURE_SLACK = 1e-12


class TestLedger:
    """``error_bound`` certifies the error against the part's own data."""

    def test_segments(self):
        batch = synth_particles(64, 12, "settle", seed=31)
        arr = batch.data.to_numpy()
        for cfg in (
            CompressionConfig(tolerance=1e-2),
            relfrob_config(1e-4),
            relfrob_config(0.0),
        ):
            # padded to 16 steps, as the short last segment of a merged run
            seg = compress_segment(batch, cfg, pad_time_to=16)
            norm = np.linalg.norm(arr)
            assert abs_error(arr, seg) <= seg.error_bound + MEASURE_SLACK * norm
            assert seg.error_bound <= seg.tolerance_spent * norm * (1 + 1e-6)
        constant = compress_segment(
            batch_from_array(np.full((4, 8, 3), 2.5)), CompressionConfig()
        )
        assert constant.error_bound == 0.0

    @pytest.mark.parametrize("merge_kind", ["stack", "concat"])
    def test_merges(self, merge_kind):
        # the stacks of acceptance criterion 5
        rng = np.random.default_rng(97)
        x = rng.uniform(size=(8, 8, 8))
        norm = np.linalg.norm(x)
        for n_seg in (2, 4, 8):
            for tau in (1e-2, 1e-4):
                for tau_round in (1e-2, 1e-4):
                    cfg = relfrob_config(tau, tensorize=(merge_kind == "stack"))
                    parts = split_time(x, n_seg, cfg)
                    if merge_kind == "stack":
                        merged = merge_stack(parts, tau_round)
                    else:
                        merged = merge_concat(parts, 1, tau_round)
                    err = abs_error(x, merged)
                    assert err <= merged.error_bound + MEASURE_SLACK * norm
                    # never looser than the a-priori composition
                    assert merged.error_bound <= (
                        merged.tolerance_spent * norm * (1 + 1e-6)
                    )

    def test_unknown_part_bound_propagates(self):
        rng = np.random.default_rng(98)
        parts = split_time(rng.uniform(size=(8, 4, 3)), 2, relfrob_config(1e-2))
        parts[0] = dataclasses.replace(parts[0], error_bound=None)
        assert merge_stack(parts, 1e-3).error_bound is None

    @pytest.mark.parametrize(
        "bound", [-1.0, float("nan"), float("inf"), "0.1", True]
    )
    def test_invalid_bound_rejected(self, bound):
        rng = np.random.default_rng(99)
        seg = split_time(rng.uniform(size=(4, 4, 3)), 1, relfrob_config(1e-2))[0]
        with pytest.raises(StructureError):
            dataclasses.replace(seg, error_bound=bound)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("tolerance_spent", -1.0),
            ("tolerance_spent", float("nan")),
            ("tolerance_spent", "0.1"),
            ("x_min", float("-inf")),
            ("x_min", 2.0),
            ("frobenius_norm", -1.0),
            ("entry_count", 47),
            ("entry_count", 48.0),
            ("entry_count", True),
        ],
    )
    def test_invalid_record_rejected(self, field, value):
        rng = np.random.default_rng(99)
        seg = split_time(rng.uniform(size=(4, 4, 3)), 1, relfrob_config(1e-2))[0]
        assert seg.stats.entry_count == 48 and seg.stats.x_max < 1
        if field == "tolerance_spent":
            change = {field: value}
        else:
            change = {"stats": dataclasses.replace(seg.stats, **{field: value})}
        with pytest.raises(StructureError):
            dataclasses.replace(seg, **change)


def settle_run(n_seg, seed=3):
    """A 40-particle settling run in 16-step segments, the last holding 11."""
    return synth_particles(40, 16 * n_seg - 5, "settle", seed=seed)


class TestSpendLeftover:
    @pytest.mark.parametrize("kind", ["nrmse", "relfrob"])
    @pytest.mark.parametrize("n_seg", [3, 5, 40])
    @pytest.mark.parametrize("arity", [2, 3])
    def test_bound_covers_measured_error(self, kind, n_seg, arity):
        batch = settle_run(n_seg)
        arr = batch.data.to_numpy()
        config = CompressionConfig(
            tolerance=1e-2,
            tolerance_kind=kind,
            segment_length=16,
            merge_arity=arity,
        )
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        stats = stats_of(arr)
        target = config.tolerance
        if kind == "nrmse":
            target = nrmse_to_relfrob(config.tolerance, stats)
        slack = MEASURE_SLACK * stats.frobenius_norm
        for level in levels:
            for part in level:
                if part.total_steps:
                    steps = slice(part.time_range[0], part.time_range[1] + 1)
                    err = abs_error(arr[steps], part)
                    assert err <= part.error_bound + slack
        final = levels[-1][0]
        assert final.error_bound <= target * stats.frobenius_norm
        assert final.tolerance_spent == pytest.approx(
            final.error_bound / final.stats.frobenius_norm, rel=1e-12
        )
        assert final.tolerance_spent <= target

    @pytest.mark.parametrize("kind", ["nrmse", "relfrob"])
    @pytest.mark.parametrize("n_seg, arity", [(5, 2), (8, 2), (5, 3)])
    def test_compress_run_is_one_merge_tree_pass(self, kind, n_seg, arity):
        batch = settle_run(n_seg)
        config = CompressionConfig(
            tolerance=1e-2,
            tolerance_kind=kind,
            segment_length=16,
            merge_arity=arity,
        )
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        budget = config.tolerance
        if kind == "nrmse":
            # the run's statistics, combined from the segments'
            stats = combine_stats(s.stats for s in levels[0])
            budget = nrmse_to_relfrob(config.tolerance, stats)
        again = []
        merge_tree(levels[0], arity, budget, again.append)
        assert [len(lv) for lv in again] == [len(lv) for lv in levels]
        for a_level, b_level in zip(levels, again):
            for a, b in zip(a_level, b_level):
                assert a.tt.ranks == b.tt.ranks
                assert all(
                    np.array_equal(x, y) for x, y in zip(a.tt.cores, b.tt.cores)
                )
                assert a.error_bound == b.error_bound
                assert a.tolerance_spent == b.tolerance_spent

    def test_spends_more_than_the_schedule(self):
        batch = settle_run(8)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        segments = levels[0]
        target = nrmse_to_relfrob(1e-2, stats_of(batch.data.values))
        levels = []
        merge_tree(segments, 2, target, levels.append)
        worst = max(s.tolerance_spent for s in segments)
        schedule = plan_tau_schedule(target, worst, len(levels) - 1)
        # the last level rounded at its planned share instead
        planned = merge_stack(levels[-2], schedule[-1])
        spent = levels[-1][0]
        assert spent.tt.core_entry_count < planned.tt.core_entry_count
        budget = target * spent.stats.frobenius_norm
        assert planned.error_bound < spent.error_bound <= budget
        assert spent.tolerance_spent == pytest.approx(
            spent.error_bound / spent.stats.frobenius_norm, rel=1e-12
        )
        # the levels below the last round at the planned share
        for tau, below, level in zip(schedule, levels, levels[1:-1]):
            for group, part in zip(streaming._groups(below, 2), level):
                again = merge_stack(group, tau)
                assert all(
                    np.array_equal(x, y)
                    for x, y in zip(part.tt.cores, again.tt.cores)
                )

    def test_slack_past_the_budget_falls_back(self, monkeypatch):
        # a ledger inflated past the budget at the last level keeps the
        # planned rounding and its a-priori tolerance
        batch = settle_run(4)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        expected = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=expected.append)
        segments = expected[0]
        honest = streaming._round_orthogonal
        budget = nrmse_to_relfrob(1e-2, stats_of(batch.data.values))
        calls = []

        def inflated(t, tau, abs_budget=0.0):
            calls.append(abs_budget)
            train, lost = honest(t, tau, abs_budget)
            if abs_budget > 0:  # the spending round of the last level
                lost += budget * np.linalg.norm(batch.data.values)
            return train, lost

        monkeypatch.setattr(streaming, "_round_orthogonal", inflated)
        final = merge_tree(segments, 2, budget)
        # two planned merges, the spending round, the planned round
        assert len(calls) == 4 and calls[2] > 0 and calls[3] == 0
        assert final.tt.core_entry_count > expected[-1][0].tt.core_entry_count
        assert final.tolerance_spent <= budget * (1 + 1e-12)


    @pytest.mark.parametrize("tolerance", [0.1, 0.0])
    def test_all_zero_run(self, tolerance):
        # zero data leaves no norm to relate the certified bound to
        batch = batch_from_array(np.zeros((40, 8, 3)))
        config = relfrob_config(tolerance, segment_length=16)
        levels = []
        (final,) = compress_run(
            batch.time_slice, batch.n_t, config, on_level=levels.append
        )
        assert len(levels) == 3 and final.error_bound == 0.0
        # the a-priori composition, as merge_tree checks it
        assert final.tolerance_spent <= tolerance * (1 + 1e-12)
        assert not reconstruct_segment(final).to_numpy().any()


def same_cores(a, b):
    return a.ranks == b.ranks and all(
        np.array_equal(x, y) for x, y in zip(a.cores, b.cores)
    )


class TestMergeStackBudget:
    """``merge_stack(parts, tau, budget)`` on the last group of a merged
    settling run: the one call that spends what the ledger leaves."""

    @pytest.fixture(scope="class")
    def last(self):
        batch = settle_run(8)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        stats = combine_stats(s.stats for s in levels[0])
        budget = nrmse_to_relfrob(1e-2, stats)
        schedule = plan_tau_schedule(
            budget, streaming.combine_tolerances(levels[0]), len(levels) - 1
        )
        (group,) = streaming._groups(levels[-2], 2)
        return group, schedule[-1], budget, levels[-1][0]

    def test_equals_the_merge_tree_part(self, last):
        group, tau, budget, final = last
        part = merge_stack(group, tau, budget)
        assert same_cores(part.tt, final.tt)
        assert part.error_bound == final.error_bound
        assert part.tolerance_spent == final.tolerance_spent
        # the certified bound, below the a-priori composition
        norm = part.stats.frobenius_norm
        assert part.tolerance_spent == part.error_bound / norm
        assert part.tolerance_spent < merge_stack(group, tau).tolerance_spent

    def test_budget_below_the_ledger_rounds_at_tau(self, last):
        group, tau, _, _ = last
        ledger = streaming.combine_error_bounds(group)
        norm = combine_stats(p.stats for p in group).frobenius_norm
        part = merge_stack(group, tau, 0.5 * ledger / norm)
        planned = merge_stack(group, tau)
        assert same_cores(part.tt, planned.tt)
        assert part.error_bound == planned.error_bound
        assert part.tolerance_spent == compose_tolerances(
            streaming.combine_tolerances(group), [tau]
        )

    def test_unknown_bound_rounds_at_tau(self, last):
        group, tau, budget, _ = last
        group = [dataclasses.replace(group[0], error_bound=None)] + group[1:]
        part = merge_stack(group, tau, budget)
        planned = merge_stack(group, tau)
        assert part.error_bound is None
        assert same_cores(part.tt, planned.tt)
        assert part.tolerance_spent == planned.tolerance_spent

    @pytest.mark.parametrize("share", [0.0, 0.5])
    def test_no_spare_keeps_the_exact_stack(self, last, share):
        group, _, _, _ = last
        ledger = streaming.combine_error_bounds(group)
        norm = combine_stats(p.stats for p in group).frobenius_norm
        part = merge_stack(group, 0.0, share * ledger / norm)
        assert same_cores(part.tt, tt_stack_new([p.tt for p in group]))
        assert part.error_bound == ledger
        assert part.tolerance_spent == streaming.combine_tolerances(group)


class TestStackRounding:
    """Rounding a stack of separately orthogonalized parts matches the
    joint sweep of the stacked train."""

    @pytest.fixture(scope="class")
    def cases(self):
        # segments of a settling run padded to 16 steps, a short one with
        # an empty part filling its group, and the merged parts above them
        batch = settle_run(3)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        segs = levels[0]
        return {
            "two": segs[:2],
            "three": segs,
            "padded": [segs[2], streaming._empty_part(segs[2])],
            "two-level": levels[1],
        }

    @pytest.mark.parametrize("case", ["two", "three", "padded", "two-level"])
    @pytest.mark.parametrize("tau", [1e-2, 1e-4])
    def test_matches_joint_sweep(self, cases, case, tau):
        trains = [p.tt for p in cases[case]]
        stacked = tt_stack_new(trains)
        x = tt_full(stacked).values
        norm = np.linalg.norm(x)
        joint, _ = _tt_round(stacked, tau)
        per_part, lost = streaming._round_orthogonal(
            streaming._orthogonal_stack(trains), tau
        )
        assert per_part.ranks == joint.ranks
        y = tt_full(per_part).values
        assert np.linalg.norm(y - tt_full(joint).values) <= 1e-12 * norm
        assert np.linalg.norm(x - y) <= lost

    @pytest.mark.parametrize("case", ["two", "three", "padded", "two-level"])
    def test_zero_tolerance_keeps_cores(self, cases, case):
        parts = cases[case]
        merged = merge_stack(parts, 0.0)
        exact = tt_stack_new([p.tt for p in parts])
        assert all(
            np.array_equal(a, b) for a, b in zip(merged.tt.cores, exact.cores)
        )
        # each part's cores after its first sit unchanged in their
        # diagonal blocks
        for k in range(1, parts[0].tt.ndim):
            r0 = r1 = 0
            for p in parts:
                a, _, b = p.tt.cores[k].shape
                block = merged.tt.cores[k][r0 : r0 + a, :, r1 : r1 + b]
                assert np.array_equal(block, p.tt.cores[k])
                r0, r1 = r0 + a, r1 + b


class TestScheduling:
    def test_equal_factor_schedule(self):
        total, per_seg = 0.1, 0.05
        taus = plan_tau_schedule(total, per_seg, 3)
        assert len(taus) == 3
        assert compose_tolerances(per_seg, taus) == pytest.approx(total, rel=1e-12)

    def test_over_budget_rejected(self):
        with pytest.raises(ConfigError):
            plan_tau_schedule(0.01, 0.02, 2)

    @pytest.mark.parametrize(
        "total, per_segment",
        [(float("nan"), 0.01), (float("inf"), 0.01), (-0.1, 0.0),
         (0.1, float("nan")), (0.1, -0.01)],
    )
    def test_bad_budget_rejected(self, total, per_segment):
        with pytest.raises(ConfigError):
            plan_tau_schedule(total, per_segment, 2)


def entry(seg, t, coords):
    """One entry through a one-entry region; ``t`` counts within the
    segment from 1."""
    box = [(t, t)] + [(int(i), int(i)) for i in coords]
    return float(reconstruct_region(seg, box).values[0])


class TestElementAccess:
    def test_one_entry_region_matches_dense(self):
        batch = synth_particles(20, 8, "ballistic", seed=24)
        cfg = CompressionConfig(tolerance=0.0, tolerance_kind="relfrob")
        seg = compress_segment(batch, cfg, first_step=100)
        dense = reconstruct_segment(seg).to_numpy()
        rng = np.random.default_rng(25)
        for _ in range(30):
            t = int(rng.integers(0, 8))
            p = int(rng.integers(1, 21))
            c = int(rng.integers(1, 4))
            assert entry(seg, t + 1, (p, c)) == pytest.approx(
                dense[t, p - 1, c - 1], rel=1e-10, abs=1e-12
            )

    def test_region_without_materialization(self, monkeypatch):
        batch = synth_particles(16, 8, "ballistic", seed=26)
        cfg = CompressionConfig(tolerance=0.0, tolerance_kind="relfrob")
        seg = compress_segment(batch, cfg)
        dense = reconstruct_segment(seg).to_numpy()
        # a cap too small for the full tensor still allows region queries
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", "10")
        region = reconstruct_region(seg, [(1, 8), (3, 3), (1, 3)])
        assert region.dims == (8, 1, 3)
        assert np.allclose(
            region.to_numpy()[:, 0, :], dense[:, 2, :], atol=1e-10
        )

    def test_one_entry_region_memory_follows_the_extents(self):
        import tracemalloc

        # one segment with a leaf of 64 x 4096 x 3 entries: the offsets
        # cost O(sum of extents), a row table over the leaf 8 bytes each
        batch = synth_particles(4096, 64, "settle", seed=29)
        seg = compress_segment(batch, CompressionConfig(tolerance=1e-2))
        leaf_entries = 64 * 4096 * 3
        want = reconstruct_segment(seg).to_numpy()[40, 1234, 2]
        tracemalloc.start()
        try:
            got = reconstruct_region(seg, [(41, 41), (1235, 1235), (3, 3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.values[0] == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert peak < leaf_entries

    def test_region_on_merged_segment(self):
        rng = np.random.default_rng(27)
        arr = rng.uniform(size=(8, 4, 3))
        parts = split_time(arr, 2, relfrob_config(0.0))
        merged = merge_stack(parts, 0.0)
        region = reconstruct_region(merged, [(3, 6), (1, 4), (2, 2)])
        assert np.allclose(
            region.to_numpy()[:, :, 0], arr[2:6, :, 1], atol=1e-10
        )


def reference_entry(seg, t, coords):
    """Per-entry reference: leaf lookup, permutation scan, mixed-radix
    digits and one slice product per core, as the read path did before it
    was batched.  ``t`` counts within the segment from 1."""
    bounds = np.cumsum((0,) + seg.part_time_extents)
    leaf = int(np.searchsorted(bounds, t - 1, side="right") - 1)
    t_within = t - 1 - int(bounds[leaf])
    coords = list(coords)
    if seg.permutations is not None:
        perms = seg.permutations
        perm = perms if perms.ndim == 1 else perms[t_within]
        coords[0] = int(np.nonzero(perm == coords[0] - 1)[0][0]) + 1
    digits = []
    for ax, i in enumerate([t_within + 1] + coords):
        rem = i - 1
        for extent in seg.plan.axis_split_dims(ax + 1):
            digits.append(rem % extent)
            rem //= extent
    if seg.plan.interlace is not None:
        digits = [digits[p] for p in seg.plan.interlace]
    rem = leaf
    for extent in seg.stack_dims:
        digits.append(rem % extent)
        rem //= extent
    v = np.ones((1, 1))
    for core, i in zip(seg.tt.cores, digits):
        v = v @ core[:, i, :]
    return float(v[0, 0])


def reference_region(seg, region):
    out = np.empty(tuple(hi - lo + 1 for lo, hi in region))
    for local in np.ndindex(out.shape):
        coords = [lo + o for (lo, _), o in zip(region, local)]
        out[local] = reference_entry(seg, coords[0], coords[1:])
    return out


def seg_dims(seg):
    return (seg.total_steps,) + seg.plan.original_dims[1:]


def assert_matches(got, want):
    scale = max(float(np.abs(want).max()), 1.0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * scale


def merged_ragged_segment(reorder="segment", n_seg=4, arity=2):
    # segments of 4 steps, the last holding 2 real steps; four of them
    # stack (2, 2), and other counts fill their last groups with empty parts
    rng = np.random.default_rng(40)
    n_t = 4 * n_seg - 2
    arr = np.cumsum(rng.uniform(size=(n_t, 5, 3)), axis=0)
    cfg = relfrob_config(1e-3, reorder=reorder)
    perm = None
    if reorder == "segment":
        perm = rng.permutation(5)
    parts = [
        compress_segment(
            batch_from_array(arr[start : start + 4]),
            cfg,
            first_step=start,
            permutation_override=perm,
            pad_time_to=4,
        )
        for start in range(0, n_t, 4)
    ]
    return merge_tree(parts, arity, 4e-3)


def interlaced_segment():
    rng = np.random.default_rng(41)
    x = np.add.outer(np.arange(8.0), np.arange(8.0)) + rng.uniform(size=(8, 8))
    data = DenseTensor.from_numpy(x)
    plan = matrix_interlace_plan(8, 2)
    return CompressedSegment(
        tt=tt_svd(apply_plan(data, plan), 1e-2),
        plan=plan,
        permutations=None,
        time_range=(0, 7),
        part_time_extents=(8,),
        stats=stats_of(x),
        tolerance_spent=1e-2,
    )


def single_segment(shape, **cfg_kwargs):
    rng = np.random.default_rng(42)
    arr = np.cumsum(rng.uniform(size=shape), axis=0)
    cfg = relfrob_config(1e-2, **cfg_kwargs)
    return compress_segment(batch_from_array(arr), cfg, first_step=5)


READ_CASES = {
    "reorder-none": lambda: single_segment((8, 6, 3)),
    "reorder-segment": lambda: single_segment((8, 6, 3), reorder="segment"),
    "reorder-timestep": lambda: single_segment((8, 6, 3), reorder="timestep"),
    "padded-particles": lambda: single_segment((6, 7, 3), reorder="segment"),
    "untensorized": lambda: single_segment((8, 6, 3), tensorize=False),
    "merged-ragged": merged_ragged_segment,
    "merged-ragged-none": lambda: merged_ragged_segment("none"),
    "merged-3-arity-2": lambda: merged_ragged_segment(n_seg=3),
    "merged-5-arity-3": lambda: merged_ragged_segment(n_seg=5, arity=3),
    "interlaced": interlaced_segment,
}


@pytest.fixture(params=sorted(READ_CASES))
def read_case(request):
    return READ_CASES[request.param]()


def run_segments(n_p, reorder, lengths=(4, 4, 4, 2)):
    """Consecutive segments of one run, the last one short."""
    rng = np.random.default_rng(46)
    arr = np.cumsum(rng.uniform(size=(sum(lengths), n_p, 3)), axis=0)
    cfg = relfrob_config(1e-3, reorder=reorder)
    perm = rng.permutation(n_p) if reorder == "segment" else None
    starts = np.cumsum((0,) + lengths[:-1])
    return [
        compress_segment(
            batch_from_array(arr[start : start + n]),
            cfg,
            first_step=int(start),
            permutation_override=perm,
            pad_time_to=4,
        )
        for start, n in zip(starts, lengths)
    ]


def merged_levels(n_p):
    """The merge levels of :func:`run_segments` under one ordering."""
    levels = []
    merge_tree(run_segments(n_p, "segment"), 2, 4e-3, levels.append)
    return levels


# the segments that one ``ttc reconstruct`` call turns into one .dt64
RUN_CASES = {
    # two merged parts of a run with 7 particles, padded to 8
    "merged-padded-particles": lambda: merged_levels(7)[1],
    # per-timestep permutations, which stop the run from merging
    "reorder-timestep": lambda: run_segments(5, "timestep"),
    "interlaced": lambda: [interlaced_segment()],
    # one archive whose last leaf holds 2 of 4 steps
    "short-last-leaf": lambda: merged_levels(7)[-1],
}


class TestBatchedReadPath:
    """Regions, entries and full reconstruction against the per-entry
    reference loop."""

    def test_full_reconstruction(self, read_case):
        box = [(1, n) for n in seg_dims(read_case)]
        assert_matches(
            reconstruct_segment(read_case).to_numpy(),
            reference_region(read_case, box),
        )

    def test_regions(self, read_case):
        dims = seg_dims(read_case)
        rng = np.random.default_rng(43)
        boxes = [[(1, n) for n in dims], [(n, n) for n in dims]]
        for _ in range(5):
            box = []
            for n in dims:
                lo, hi = sorted(int(v) for v in rng.integers(1, n + 1, size=2))
                box.append((lo, hi))
            boxes.append(box)
        for box in boxes:
            assert_matches(
                reconstruct_region(read_case, box).to_numpy(),
                reference_region(read_case, box),
            )

    def test_entries(self, read_case):
        dims = seg_dims(read_case)
        rng = np.random.default_rng(44)
        for _ in range(20):
            coords = [int(rng.integers(1, n + 1)) for n in dims]
            got = entry(read_case, coords[0], coords[1:])
            want = reference_entry(read_case, coords[0], coords[1:])
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_out_of_range_entry(self, read_case):
        dims = seg_dims(read_case)
        with pytest.raises(IndexRangeError):
            entry(read_case, 1, [n + 1 for n in dims[1:]])
        with pytest.raises(IndexRangeError):
            entry(read_case, 1, [0] * (len(dims) - 1))

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_reconstruct_command(self, case, tmp_path):
        segs = RUN_CASES[case]()
        paths = [save_segment(tmp_path / "run", seg) for seg in segs]
        archive = paths[0] if len(segs) == 1 else str(tmp_path / "run")
        out = str(tmp_path / "out.dt64")
        assert main(["reconstruct", archive, "-o", out]) == 0
        want = np.concatenate(
            [reference_region(seg, [(1, n) for n in seg_dims(seg)]) for seg in segs]
        )
        assert_matches(read_dt64(out).to_numpy(), want)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_random_boxes_of_merged_segment(self, data):
        seg = merged_ragged_segment()
        box = []
        for n in seg_dims(seg):
            lo = data.draw(st.integers(1, n))
            box.append((lo, data.draw(st.integers(lo, n))))
        assert_matches(
            reconstruct_region(seg, box).to_numpy(), reference_region(seg, box)
        )

    def test_full_reconstruction_respects_cap(self, monkeypatch):
        seg = merged_ragged_segment()
        n_train = int(np.prod(seg.tt.dims))
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", str(n_train))
        assert reconstruct_segment(seg).dims == (14, 5, 3)
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", str(n_train - 1))
        with pytest.raises(CapacityError):
            reconstruct_segment(seg)
        # regions are served from the cores whatever the cap
        box = [(1, 14), (2, 4), (1, 3)]
        assert_matches(
            reconstruct_region(seg, box).to_numpy(), reference_region(seg, box)
        )

    def test_entry_on_per_timestep_permutations(self):
        rng = np.random.default_rng(45)
        arr = rng.uniform(size=(6, 9, 3))
        cfg = relfrob_config(0.0, reorder="timestep")
        seg = compress_segment(batch_from_array(arr), cfg, first_step=10)
        assert seg.permutations.shape == (6, 9)
        for t in range(6):
            for p in range(9):
                got = entry(seg, t + 1, (p + 1, 2))
                assert got == pytest.approx(arr[t, p, 1], abs=1e-12)

    def test_malformed_permutation_is_rejected(self):
        seg = single_segment((8, 6, 3), reorder="segment")
        broken = dataclasses.replace(seg, permutations=np.zeros(6, dtype=np.int64))
        with pytest.raises(StructureError):
            entry(broken, 1, (1, 1))
        with pytest.raises(StructureError):
            reconstruct_segment(broken)



def streamed_run(n_p=12, merge=True, **cfg_kwargs):
    """The parts ``ttc compress`` stores for a 44-step settling run in
    8-step segments: the last segment holds 4 steps, so merged archives
    have empty parts and zero-extent leaves."""
    batch = synth_particles(n_p, 44, "settle", seed=9)
    cfg = CompressionConfig(tolerance=1e-3, segment_length=8, **cfg_kwargs)
    return compress_run(batch.time_slice, batch.n_t, cfg, merge)


def dt64_archive():
    # 12 = 2*2*3, 10 = 2*5 and 6 = 2*3: every axis is split
    arr = np.cumsum(np.random.default_rng(47).uniform(size=(12, 10, 6)), axis=0)
    data = DenseTensor.from_numpy(arr)
    return [compress_tensor(data, CompressionConfig(tolerance=1e-3, reorder="none"))]


# the parts one ``ttc reconstruct`` call writes, as ``ttc compress`` stores them
STORED_RUNS = {
    "merged-short-last": streamed_run,
    "merged-padded-particles": lambda: streamed_run(n_p=7),
    "merge-arity-3": lambda: streamed_run(merge_arity=3),
    "no-merge": lambda: streamed_run(merge=False),
    "timestep-no-merge": lambda: streamed_run(merge=False, reorder="timestep"),
    "dt64-input": dt64_archive,
}


def leaf_by_leaf(segs):
    """The run assembled from :func:`streaming.decode_leaves`."""
    first = segs[0].time_range[0]
    out = np.empty((segs[-1].time_range[1] + 1 - first,) + segs[0].plan.original_dims[1:])
    for step, block in streaming.decode_leaves(segs):
        out[step - first : step - first + len(block)] = block
    return out.reshape(-1, order="F")


class TestDecodeColumns:
    """Full reconstruction in file order, one block of whole time columns
    at a time."""

    @pytest.mark.parametrize("case", sorted(STORED_RUNS))
    @pytest.mark.parametrize("block_values", [1, 50, 1 << 20])
    def test_blocks_are_the_run_in_file_order(self, case, block_values, monkeypatch):
        segs = STORED_RUNS[case]()
        want = reconstruct_segments(segs).values
        monkeypatch.setattr(streaming, "_REGION_BLOCK_VALUES", block_values)
        blocks = list(streaming.decode_columns(segs))
        n_t = sum(s.total_steps for s in segs)
        width = max(1, block_values // n_t)
        assert all(b.ndim == 1 and b.size % n_t == 0 for b in blocks)
        assert all(b.size == n_t * width for b in blocks[:-1])
        got = np.concatenate(blocks)
        # the same bits whatever the block size, and as leaf by leaf
        assert np.array_equal(got, want)
        assert np.array_equal(got, leaf_by_leaf(segs))

    @pytest.mark.parametrize("case", sorted(STORED_RUNS))
    def test_reconstruct_command_writes_the_same_file(self, case, tmp_path, monkeypatch):
        paths = [save_segment(tmp_path / "run", s) for s in STORED_RUNS[case]()]
        archive = paths[0] if len(paths) == 1 else str(tmp_path / "run")
        want = reconstruct_segments([load_segment(p) for p in paths])
        write_dt64(tmp_path / "want.dt64", want.dims, [want.values])
        monkeypatch.setattr(streaming, "_REGION_BLOCK_VALUES", 50)
        assert main(["reconstruct", archive, "-o", str(tmp_path / "got.dt64")]) == 0
        got = (tmp_path / "got.dt64").read_bytes()
        assert got == (tmp_path / "want.dt64").read_bytes()

    def test_run_is_checked_before_any_block(self, monkeypatch):
        segs = streamed_run(merge=False)
        with pytest.raises(MergeError):
            streaming.decode_columns(segs[:1] + segs[2:])
        broken = dataclasses.replace(
            segs[1], permutations=np.zeros_like(segs[1].permutations)
        )
        with pytest.raises(StructureError):
            streaming.decode_columns(segs[:1] + [broken] + segs[2:])
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", "1")
        with pytest.raises(CapacityError):
            streaming.decode_columns(segs)


def long_axis_archive(directory, bits):
    """A stored rank-1 archive of 2 x 2**bits x 1 entries whose particle
    axis is split into ``bits`` binary dimensions: a few hundred bytes
    whatever the declared extent."""
    plan = TensorizePlan(
        original_dims=(2, 2**bits, 1),
        axis_factors=((2,), (2,) * bits, (1,)),
        axis_levels=(1, bits, 1),
        interlace=None,
        pads=(),
    )
    rng = np.random.default_rng(bits)
    cores = tuple(
        rng.uniform(0.5, 1.5, size=(1, n, 1)) for n in plan.tensorized_dims()
    )
    seg = CompressedSegment(
        tt=TTTensor(cores),
        plan=plan,
        permutations=None,
        time_range=(0, 1),
        part_time_extents=(2,),
        stats=DataStats(-1.0, 1.0, 1.0, 2 * 2**bits),
        tolerance_spent=0.0,
    )
    return load_segment(save_segment(directory, seg))


class TestRegionIndexMap:
    """A region maps only the indices it asks for, not the axes' extents."""

    @pytest.mark.parametrize("bits", [21, 40])
    def test_one_entry_of_a_long_axis(self, tmp_path, bits):
        seg = long_axis_archive(tmp_path, bits)
        particle = 2**bits - 3
        tracemalloc.start()
        try:
            got = entry(seg, 2, (particle + 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        digits = [(particle >> k) & 1 for k in range(bits)]
        assert got == tt_get(seg.tt, [2] + [d + 1 for d in digits] + [1])
        assert peak < 1 << 20

    def test_whole_axis_offsets_unchanged(self):
        seg = merged_ragged_segment()
        dims = seg.plan.original_dims
        every = axis_offsets(seg.plan)
        some = [np.array([n - 1, 0]) for n in dims]
        assert [len(o) for o in every] == list(dims)
        for all_of_axis, chosen, index in zip(every, axis_offsets(seg.plan, some), some):
            assert np.array_equal(all_of_axis[index], chosen)


class TestStoreRoundtrip:
    def test_error_bound_roundtrip(self, tmp_path):
        batch = synth_particles(12, 8, "settle", seed=28)
        cfg = CompressionConfig(tolerance=0.05, tolerance_kind="nrmse")
        seg = compress_segment(batch, cfg)
        assert seg.error_bound > 0
        assert load_segment(save_segment(tmp_path, seg)).error_bound == (
            seg.error_bound
        )
        unknown = dataclasses.replace(seg, error_bound=None)
        path = save_segment(tmp_path / "unknown", unknown)
        assert load_segment(path).error_bound is None

    def test_save_load_identity(self, tmp_path):
        batch = synth_particles(12, 8, "settle", seed=28)
        cfg = CompressionConfig(tolerance=0.05, tolerance_kind="nrmse")
        seg = compress_segment(batch, cfg, first_step=16)
        path = save_segment(tmp_path, seg, cfg.config_hash())
        assert path.endswith("seg_16_23.ttc")
        loaded = load_segment(path)
        assert loaded.time_range == seg.time_range
        assert loaded.plan == seg.plan
        assert loaded.stack_dims == seg.stack_dims
        assert loaded.part_time_extents == seg.part_time_extents
        assert loaded.tolerance_spent == seg.tolerance_spent
        assert np.array_equal(loaded.permutations, seg.permutations)
        assert loaded.stats == seg.stats
        for a, b in zip(loaded.tt.cores, seg.tt.cores):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", sorted(STORED_RUNS))
    def test_layout_follows_from_train_and_permutations(self, case, tmp_path):
        policy = {"dt64-input": "none", "timestep-no-merge": "timestep"}
        for seg in STORED_RUNS[case]():
            path = save_segment(tmp_path / case, seg)
            loaded = load_segment(path)
            for part in (seg, loaded):
                meta = segment_metadata(part)
                assert part.stack_dims == tuple(meta["stack_dims"])
                assert part.reorder == meta["reorder"]
                assert part.reorder == policy.get(case, "segment")
                plan_dims = part.plan.tensorized_dims()
                assert part.tt.dims == plan_dims + part.stack_dims
                assert bool(part.stack_dims) == case.startswith("merge")
            assert read_ttc1(path)[1] == segment_metadata(seg)

    @pytest.mark.parametrize("value", [[3], [2, 1], [], [2.0], "2", 2, None])
    def test_stored_stack_dims_must_be_the_trains(self, tmp_path, value):
        # two merged segments stack (2,); any other record of the stack
        # is a format error, not a second account of the layout
        batch = synth_particles(4, 16, "settle", seed=9)
        cfg = CompressionConfig(tolerance=1e-3, segment_length=8)
        (seg,) = compress_run(batch.time_slice, batch.n_t, cfg)
        path = save_segment(tmp_path, seg)
        tt, meta = read_ttc1(path)
        assert meta["stack_dims"] == [2]
        meta["stack_dims"] = value
        write_ttc1(path, tt, meta)
        with pytest.raises(FormatError, match="stack dims|malformed"):
            load_segment(path)

    def test_byte_identical_recompression(self, tmp_path):
        batch = synth_particles(16, 8, "settle", seed=29)
        cfg = CompressionConfig(tolerance=0.1, tolerance_kind="nrmse")
        a = compress_segment(batch, cfg)
        b = compress_segment(batch, cfg)
        pa = save_segment(tmp_path / "a", a, cfg.config_hash())
        pb = save_segment(tmp_path / "b", b, cfg.config_hash())
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


class TestGenericTensor:
    def test_compress_tensor_roundtrip(self):
        rng = np.random.default_rng(30)
        data = DenseTensor.from_numpy(rng.uniform(size=(16, 16)))
        seg = compress_tensor(data, relfrob_config(1e-6, level=4))
        assert rel_frob(data, reconstruct_segment(seg)) <= 1e-6

    def test_combine_stats_direct(self):
        a = DataStats(x_min=-1.0, x_max=2.0, frobenius_norm=3.0, entry_count=10)
        b = DataStats(x_min=0.0, x_max=5.0, frobenius_norm=4.0, entry_count=6)
        c = combine_stats([a, b])
        assert c == DataStats(
            x_min=-1.0, x_max=5.0, frobenius_norm=5.0, entry_count=16
        )
