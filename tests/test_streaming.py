import dataclasses
import json
import tracemalloc
import weakref

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
    TTCompressError,
    TTTensor,
    apply_plan,
    combine_stats,
    compress_run,
    compress_segment,
    compress_tensor,
    invert_plan,
    load_segment,
    open_run,
    matrix_interlace_plan,
    merge_stack,
    merge_tree,
    nrmse,
    nrmse_to_relfrob,
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
    tt_round,
    tt_stack_new,
    tt_svd,
    write_dt64,
    write_run,
    write_ttc1,
    zero_tt,
)
from ttcompress import streaming
from ttcompress.cli import main
from conftest import swirl_positions
from ttcompress.morton import fit_domain, morton_sort
from ttcompress.streaming import (
    CompressedSegment,
    DataStats,
    bisection_order,
    segment_metadata,
)
from ttcompress.tensorize import axis_offsets
from ttcompress.tt import _orthogonalize


def batch_from_array(arr):
    return SnapshotBatch(DenseTensor.from_numpy(arr), 1.0)


def relfrob_config(tol, **kwargs):
    kwargs.setdefault("reorder", "none")
    return CompressionConfig(
        tolerance=tol, tolerance_kind="relfrob", **kwargs
    )


def empty_part(like):
    """An exact all-zero part shaped like ``like`` that covers no steps,
    as archives written before the one-level merge filled their short
    groups with: its leaves have a time extent of 0."""
    end = like.time_range[1]
    return dataclasses.replace(
        like,
        tt=zero_tt(like.tt.dims),
        time_range=(end + 1, end),
        part_time_extents=(0,) * len(like.part_time_extents),
        stats=DataStats(like.stats.x_min, like.stats.x_max, 0.0, 0),
        error_bound=0.0,
    )


def nested_merge(parts, arity, tau=0.0):
    """The layout of archives written before the one-level merge: groups
    of ``arity`` consecutive parts stacked level by level, each group by
    one :func:`merge_stack` under the budget ``tau``, short groups filled with
    :func:`empty_part`, so the stack dims are ``(arity,) * levels``."""
    level = list(parts)
    while len(level) > 1:
        groups = [level[i : i + arity] for i in range(0, len(level), arity)]
        level = [
            merge_stack(g + [empty_part(g[-1])] * (arity - len(g)), tau)
            for g in groups
        ]
    return level[0]


def split_time(arr, n_seg, cfg, **kwargs):
    step = arr.shape[0] // n_seg
    return [
        compress_segment(
            DenseTensor.from_numpy(arr[i * step : (i + 1) * step]),
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
            seg = compress_segment(DenseTensor.from_numpy(arr), cfg)
            measured = nrmse(
                DenseTensor.from_numpy(arr), reconstruct_segment(seg)
            )
            assert measured <= target


class TestCompressSegment:
    def test_constant_batch_rank_one(self):
        arr = np.full((32, 1024, 3), 7.5)
        seg = compress_segment(
            DenseTensor.from_numpy(arr),
            CompressionConfig(tolerance=0.1, tolerance_kind="nrmse", reorder="none"),
        )
        assert set(seg.tt.ranks) == {1}
        assert seg.compression_ratio > 1e3
        assert np.allclose(reconstruct_segment(seg).to_numpy(), 7.5)

    def test_noise_ratio_below_five(self):
        batch = synth_particles(512, 32, "noise", seed=1)
        seg = compress_segment(
            batch.data, CompressionConfig(tolerance=1e-3, tolerance_kind="nrmse")
        )
        assert seg.compression_ratio < 5

    def test_tensorized_beats_flat_on_settle(self):
        batch = synth_particles(1024, 32, "settle", seed=2)
        cfg = CompressionConfig(tolerance=0.1, tolerance_kind="nrmse")
        tens = compress_segment(batch.data, cfg)
        flat = compress_segment(batch.data, dataclasses.replace(cfg, level=1))
        assert tens.compression_ratio > flat.compression_ratio

    def test_error_guarantee_on_unpadded_region(self):
        rng = np.random.default_rng(3)
        arr = rng.uniform(size=(6, 13, 3))  # both axes need padding
        for tol in (1e-1, 1e-3):
            cfg = relfrob_config(tol)
            seg = compress_segment(DenseTensor.from_numpy(arr), cfg)
            err = rel_frob(
                DenseTensor.from_numpy(arr), reconstruct_segment(seg)
            )
            assert err <= tol

    def test_reorder_roundtrip(self):
        batch = synth_particles(50, 8, "ballistic", seed=4)
        cfg = CompressionConfig(tolerance=0.0, tolerance_kind="relfrob")
        seg = compress_segment(batch.data, cfg)
        assert seg.permutations is not None
        recon = reconstruct_segment(seg).to_numpy()
        assert np.allclose(
            recon, batch.data.to_numpy(), atol=1e-11 * seg.stats.frobenius_norm
        )

    @pytest.mark.parametrize("level", [0, -1, True, 1.5, "2"])
    def test_bad_level_rejected(self, level):
        with pytest.raises(ConfigError, match="level"):
            CompressionConfig(level=level)

    @pytest.mark.parametrize(
        "field, value",
        [("segment_length", v) for v in (2.5, 8.0, "8", True, 0)]
        + [("tolerance", v) for v in ("0.1", True, None, -1.0)],
    )
    def test_bad_type_rejected(self, field, value):
        # a ConfigError at construction, not a TypeError now or later
        with pytest.raises(ConfigError, match=field.replace("_", " ")):
            CompressionConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_factor", "morton_bits"])
    def test_removed_settings_are_unknown(self, field):
        # each took one value; MAX_FACTOR is a constant, and the order
        # uses no bits
        with pytest.raises(TypeError, match=field):
            CompressionConfig(**{field: 5})
        assert [f.name for f in dataclasses.fields(CompressionConfig)] == [
            "tolerance", "tolerance_kind", "segment_length", "level", "reorder",
        ]

    @pytest.mark.parametrize(
        "override",
        [np.zeros(64, dtype=int), np.arange(63), np.arange(64).reshape(8, 8)],
        ids=["repeats", "short", "2-d"],
    )
    def test_bad_permutation_override_fails_before_the_svd(
        self, monkeypatch, override
    ):
        calls = []
        svd = streaming._tt_svd
        monkeypatch.setattr(
            streaming, "_tt_svd", lambda *args: calls.append(1) or svd(*args)
        )
        batch = synth_particles(64, 8, "settle", seed=5)
        with pytest.raises(StructureError, match="permute"):
            compress_segment(
                batch.data, CompressionConfig(tolerance=1e-2), permutation_override=override
            )
        assert calls == []

    @pytest.mark.parametrize("dims", [(4, 8), (4, 8, 3, 2)])
    def test_data_must_be_three_dimensional(self, dims):
        data = DenseTensor.from_numpy(np.ones(dims))
        with pytest.raises(TTCompressError, match="3-dimensional"):
            compress_segment(data, CompressionConfig(reorder="none"))

    def test_reorder_requires_positions(self):
        arr = np.zeros((4, 4, 2))
        arr[0, 0, 0] = 1.0
        # two components hold no positions to sort on
        with pytest.raises(ConfigError, match="three position components"):
            compress_segment(
                DenseTensor.from_numpy(arr), CompressionConfig(tolerance=0.1)
            )


def digit_groups(n, factors):
    """Per digit, most significant first: its groups' slot ranges, each
    clipped to ``n``, and the parts each group is cut into."""
    size = int(np.prod(factors))
    for f in reversed(factors):
        part = size // f
        for a in range(0, n, size):
            cuts = [min(a + i * part, n) for i in range(f + 1)]
            yield (a, min(a + size, n)), list(zip(cuts, cuts[1:]))
        size = part


class TestBisectionOrder:
    @pytest.mark.parametrize(
        "n, factors",
        [(13, [3, 5]), (1000, [2, 2, 2, 5, 5, 5]), (4093, [2] * 12)],
    )
    def test_each_digit_is_one_spatial_split(self, n, factors):
        # an uneven, anisotropic cloud of two steps' positions
        rng = np.random.default_rng(n)
        points = rng.standard_normal((n, 6)) ** 3 * [9, 3, 1, 1, 3, 9]
        perm = bisection_order(points, factors)
        assert np.array_equal(np.sort(perm), np.arange(n))
        assert np.array_equal(perm, bisection_order(points.copy(), factors))
        ordered = points[perm]
        for (a, b), parts in digit_groups(n, factors):
            group = ordered[a:b]
            axis = np.argmax(group.max(axis=0) - group.min(axis=0))
            values = [ordered[lo:hi, axis] for lo, hi in parts if lo < hi]
            for left, right in zip(values, values[1:]):
                assert left.max() <= right.min()

    def test_ties_keep_their_order(self):
        rng = np.random.default_rng(4)
        points = rng.integers(0, 3, (200, 3)).astype(float)
        perm = bisection_order(points, [2, 2, 2, 5, 5])
        for row in np.unique(points, axis=0):
            same = perm[(points[perm] == row).all(axis=1)]
            assert np.all(np.diff(same) > 0)
        assert np.array_equal(
            bisection_order(np.ones((64, 3)), [2] * 6), np.arange(64)
        )

    def test_widest_axis_in_raw_units(self):
        # no per-axis scaling: a cloud spread 100 times wider in y than
        # in x is first halved in y
        rng = np.random.default_rng(7)
        points = rng.uniform(size=(64, 3)) * [1.0, 100.0, 0.0]
        perm = bisection_order(points, [2] * 6)
        assert points[perm[:32], 1].max() <= points[perm[32:], 1].min()

    @pytest.mark.parametrize("n_p", [13, 4093])
    def test_unfactorable_counts_order_and_round_trip(self, n_p):
        batch = synth_particles(n_p, 8, "settle", seed=n_p)
        seg = compress_segment(batch.data, CompressionConfig(tolerance=1e-2))
        assert seg.plan.padded_dims()[1] > n_p
        assert np.array_equal(np.sort(seg.permutations), np.arange(n_p))
        measured = nrmse(batch.data, reconstruct_segment(seg))
        assert measured <= 1e-2

    def test_run_without_positions_fails_before_any_segment(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            streaming, "compress_segment", lambda *args: calls.append(args)
        )
        batch = batch_from_array(np.random.default_rng(2).uniform(size=(40, 8, 2)))
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        with pytest.raises(ConfigError, match="three position components"):
            compress_run(batch.time_slice, batch.n_t, config)
        assert calls == []


def morton_merged_run(arr, tol, seg_len):
    """``compress_run``'s merged run of ``arr`` at nRMSE ``tol``, but
    with every segment in the Morton order of the first step."""
    first = arr[0]
    perm = morton_sort(fit_domain(first).apply(first), 16)
    config = CompressionConfig(tolerance=tol / 2, segment_length=seg_len)
    segments = [
        compress_segment(
            DenseTensor.from_numpy(arr[a : a + seg_len]), config, a, perm, seg_len
        )
        for a in range(0, len(arr), seg_len)
    ]
    stats = combine_stats(s.stats for s in segments)
    return merge_tree(segments, nrmse_to_relfrob(tol, stats))


class TestCoherentFieldOrder:
    """On a spatially coherent field the bisection order over the run
    stores more than the Morton order of its first step, at the same
    certified error."""

    @pytest.mark.parametrize("n_p, least", [(4096, 1.2), (512, 0.97)])
    def test_ratio_against_morton(self, n_p, least):
        arr = swirl_positions(3, n_p, 256)
        data = DenseTensor.from_numpy(arr)
        stats = stats_of(arr)
        scale = (stats.x_max - stats.x_min) * np.sqrt(stats.entry_count)
        config = CompressionConfig(tolerance=1e-2, segment_length=32)
        (ours,) = compress_run(SnapshotBatch(data, 0.01).time_slice, 256, config)
        morton = morton_merged_run(arr, 1e-2, 32)
        for merged in (ours, morton):
            measured = nrmse(data, reconstruct_segment(merged))
            assert measured <= merged.error_bound / scale <= 1e-2
        assert ours.compression_ratio >= least * morton.compression_ratio


class TestMergeStack:
    def test_duplicate_data_collapses(self):
        rng = np.random.default_rng(7)
        block = rng.uniform(size=(8, 16, 3))
        arr = np.concatenate([block, block], axis=0)
        cfg = relfrob_config(1e-8)
        parts = split_time(arr, 2, cfg)
        merged = merge_stack(parts, 2e-8)
        single = parts[0]
        d = single.tt.ndim
        assert merged.tt.ranks[1:d] == single.tt.ranks[1:d]

    def test_tolerance_composition(self):
        # parts within t merge within max(t, budget), inside the
        # composition t + t_r + t * t_r at a budget t_r
        rng = np.random.default_rng(8)
        arr = rng.uniform(size=(8, 8, 2))
        norm = np.linalg.norm(arr)
        tau = 1e-2
        parts = split_time(arr, 2, relfrob_config(tau))
        for budget in (1e-3, 1e-2, 5e-2):
            merged = merge_stack(parts, budget)
            assert merged.error_bound <= max(tau, budget) * norm * (1 + 1e-6)
            err = abs_error(arr, merged)
            assert err <= merged.error_bound + MEASURE_SLACK * norm

    def test_stacking_error_only_from_rounding(self):
        rng = np.random.default_rng(8)
        arr = rng.uniform(size=(8, 8, 2))
        cfg = relfrob_config(1e-2)
        parts = split_time(arr, 2, cfg)
        ledger = streaming.combine_error_bounds(parts)
        budget = 2e-2
        merged = merge_stack(parts, budget)
        stacked_parts = np.concatenate(
            [reconstruct_segment(p).to_numpy() for p in parts], axis=0
        )
        lost = merged.error_bound - ledger
        norm = np.linalg.norm(arr)
        assert 0 < lost <= (budget * norm - ledger) * (1 + 1e-9)
        assert abs_error(stacked_parts, merged) <= lost + MEASURE_SLACK * norm

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
                    composed = tau + tau_round + tau * tau_round
                    assert err <= composed
                    assert merged.error_bound <= composed * np.linalg.norm(arr)

    @pytest.mark.parametrize("tau_round", [0.0, 1e-3])
    def test_own_range_parts_compose_by_norm(self, tau_round):
        # segments of a settling run at nRMSE 1e-2 against their own
        # ranges: their relative errors differ, and their absolute bounds
        # add in squares, below the worst relative one over the run
        batch = synth_particles(32, 64, "settle", seed=5)
        config = CompressionConfig(
            tolerance=1e-2, segment_length=16, reorder="none"
        )
        parts = compress_run(batch.time_slice, 64, config, merge=False)
        rel = [p.error_bound / p.stats.frobenius_norm for p in parts]
        assert max(rel) > 1.1 * min(rel)
        merged = merge_stack(parts, tau_round)
        norm = merged.stats.frobenius_norm
        ledger = np.hypot.reduce([p.error_bound for p in parts])
        assert ledger < max(rel) * norm
        assert ledger <= merged.error_bound
        assert merged.error_bound <= max(ledger, tau_round * norm) * (1 + 1e-9)
        assert abs_error(batch.data.to_numpy(), merged) <= merged.error_bound

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
        a = compress_segment(batch_a.data, cfg, first_step=0)
        b = compress_segment(batch_b.data, cfg, first_step=8)
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
            DenseTensor.from_numpy(arr[:8]), cfg, first_step=0, pad_time_to=8
        )
        tail = compress_segment(
            DenseTensor.from_numpy(arr[8:]), cfg, first_step=8, pad_time_to=8
        )
        merged = merge_stack([first, tail], 1e-8)
        assert merged.total_steps == 12
        recon = reconstruct_segment(merged)
        assert recon.dims == (12, 8, 3)
        assert rel_frob(DenseTensor.from_numpy(arr), recon) <= 2e-6


class TestMergeTree:
    """One level: every segment stacked once, the stack rounded once.
    Shapes ``n-of-k`` are ``n`` segments of ``k`` steps."""

    @pytest.mark.parametrize(
        "n_seg, steps", [(32, 2), (3, 2), (5, 3)], ids=["32-of-2", "3-of-2", "5-of-3"]
    )
    def test_level_counts(self, n_seg, steps):
        rng = np.random.default_rng(19)
        arr = rng.uniform(size=(n_seg * steps, 4, 3))
        parts = split_time(arr, n_seg, relfrob_config(1e-3))
        final = merge_tree(parts, 2e-3)
        # one leaf per segment, none empty
        assert final.stack_dims == (n_seg,)
        assert final.part_time_extents == (steps,) * n_seg
        assert final.total_steps == n_seg * steps

    def test_single_segment_identity(self):
        rng = np.random.default_rng(20)
        arr = rng.uniform(size=(4, 4, 3))
        seg = compress_segment(DenseTensor.from_numpy(arr), relfrob_config(1e-3))
        assert merge_tree([seg]) is seg
        assert merge_tree(iter([seg]), 1e-2) is seg
        with pytest.raises(MergeError):
            merge_tree([])

    @pytest.mark.parametrize(
        "n_seg, steps", [(4, 2), (3, 2), (5, 3)], ids=["4-of-2", "3-of-2", "5-of-3"]
    )
    def test_final_error_within_budget(self, n_seg, steps):
        rng = np.random.default_rng(21)
        arr = rng.uniform(size=(n_seg * steps, 4, 3))
        tau = 1e-2
        parts = split_time(arr, n_seg, relfrob_config(tau))
        final = merge_tree(parts, 3 * tau)
        assert final.total_steps == n_seg * steps
        err = rel_frob(
            DenseTensor.from_numpy(arr), reconstruct_segment(final)
        )
        assert err <= 3 * tau
        assert final.error_bound <= 3 * tau * np.linalg.norm(arr)

    def test_unknown_bound_keeps_the_planned_rounding(self):
        # without a ledger the merge has nothing to spend from: the stack
        # stays exact, and its bound unknown
        rng = np.random.default_rng(21)
        arr = rng.uniform(size=(8, 4, 3))
        parts = split_time(arr, 4, relfrob_config(1e-2))
        parts[1] = dataclasses.replace(parts[1], error_bound=None)
        final = merge_tree(parts, 3e-2)
        assert final.error_bound is None
        assert same_cores(final.tt, tt_stack_new([p.tt for p in parts]))
        err = rel_frob(DenseTensor.from_numpy(arr), reconstruct_segment(final))
        assert err <= 1e-2

    @pytest.mark.parametrize("budget", [-1.0, float("nan"), float("inf")])
    def test_bad_budget_rejected(self, budget):
        rng = np.random.default_rng(23)
        parts = split_time(rng.uniform(size=(8, 4, 3)), 4, relfrob_config(0.0))
        with pytest.raises(ConfigError):
            merge_tree(parts, budget)
        with pytest.raises(ConfigError):
            merge_tree(parts[:1], budget)

    @pytest.mark.parametrize("n_seg, steps", [(4, 2), (3, 2), (5, 3)])
    def test_no_budget_keeps_exact_stacks(self, n_seg, steps):
        rng = np.random.default_rng(24)
        arr = rng.uniform(size=(n_seg * steps, 4, 3))
        parts = split_time(arr, n_seg, relfrob_config(1e-2))
        final = merge_tree(parts)
        exact = tt_stack_new([p.tt for p in parts])
        assert all(
            np.array_equal(a, b) for a, b in zip(final.tt.cores, exact.cores)
        )
        # the parts' bounds in root-sum-square, nothing lost
        assert final.error_bound == streaming.combine_error_bounds(parts)
        assert np.allclose(
            reconstruct_segment(final).to_numpy(),
            np.concatenate([reconstruct_segment(p).to_numpy() for p in parts]),
            rtol=0,
            atol=1e-12 * np.linalg.norm(arr),
        )

    def test_rounding_holds_no_original_cores(self, monkeypatch):
        # segments handed over are let go once the merge has taken their
        # trains, so the rounding holds the orthogonalized copies alone
        rng = np.random.default_rng(25)
        parts = split_time(rng.uniform(size=(8, 4, 3)), 4, relfrob_config(1e-2))
        trains = [weakref.ref(p.tt) for p in parts]
        honest = streaming._round_orthogonal
        alive = []

        def watch(*args):
            alive.append(sum(ref() is not None for ref in trains))
            return honest(*args)

        monkeypatch.setattr(streaming, "_round_orthogonal", watch)
        final = merge_tree((parts.pop(0) for _ in range(4)), 3e-2)
        assert alive == [0]
        assert final.stack_dims == (4,)


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
        assert merged.stack_dims == (16,)
        assert peak < raw / 4

    @pytest.mark.parametrize(
        "n_t, merge", [(40, True), (40, False), (16, True)],
        ids=["merged", "no-merge", "one-segment"],
    )
    def test_observer_sees_the_segments_then_the_merged_part(self, n_t, merge):
        batch = batch_from_array(
            np.random.default_rng(27).uniform(size=(n_t, 8, 3))
        )
        config = relfrob_config(1e-2, segment_length=16)
        levels = []
        parts = compress_run(
            batch.time_slice, n_t, config, merge, on_level=levels.append
        )
        segments = levels[0]
        assert [s.time_range for s in segments] == [
            (t, min(t + 16, n_t) - 1) for t in range(0, n_t, 16)
        ]
        assert not any(s.stack_dims for s in segments)
        if len(segments) > 1 and merge:
            assert len(levels) == 2 and levels[1][0] is parts[0]
            assert parts[0].stack_dims == (len(segments),)
        else:
            assert len(levels) == 1
            assert all(a is b for a, b in zip(segments, parts, strict=True))

    def test_returns_only_the_merged_part(self):
        # the segments are dropped as the merge takes them, and none
        # outlives it
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

    @pytest.mark.parametrize(
        "merge, ordering",
        [(True, [(0, 1), (13, 14), (26, 27), (39, 40)]), (False, [])],
        ids=["True", "False"],
    )
    def test_reads_each_step_once(self, merge, ordering):
        # a merged run first reads the steps it orders on, one at a time,
        # spread over the run; then each segment once
        batch = synth_particles(16, 40, "settle", seed=6)
        reads = []

        def read(start, stop):
            reads.append((start, stop))
            return batch.time_slice(start, stop)

        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        compress_run(read, batch.n_t, config, merge)
        assert reads == ordering + [(0, 16), (16, 32), (32, 40)]

    def test_in_memory_run_sorts_every_segment(self):
        # the positions are the data's first three components: a
        # --no-merge segment is ordered on four steps spread over its own
        # steps, and a merged run's segments share the order of four steps
        # spread over the run
        arr = synth_particles(32, 64, "settle", seed=5).data.to_numpy()
        batch = SnapshotBatch(DenseTensor.from_numpy(arr), 0.01)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)

        def order(steps):
            points = np.concatenate([arr[s, :, :3] for s in steps], axis=1)
            return bisection_order(points, [2] * 5)

        parts = compress_run(batch.time_slice, 64, config, merge=False)
        assert [p.time_range for p in parts] == [
            (0, 15), (16, 31), (32, 47), (48, 63),
        ]
        for part in parts:
            a = part.time_range[0]
            want = order([a, a + 5, a + 10, a + 15])
            assert np.array_equal(part.permutations, want)
        assert not all(
            np.array_equal(parts[0].permutations, p.permutations)
            for p in parts[1:]
        )
        levels = []
        compress_run(batch.time_slice, 64, config, on_level=levels.append)
        segments, (merged,) = levels
        want = order([0, 21, 42, 63])
        for part in segments + [merged]:
            assert np.array_equal(part.permutations, want)

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
        own = [nrmse_to_relfrob(5e-3, s.stats) for s in levels[0]]
        assert max(own) > budget / 2
        ledger = streaming.combine_error_bounds(levels[0])
        assert ledger <= budget / 2 * stats.frobenius_norm
        final = levels[-1][0]
        assert final.stack_dims == (8,)
        measured = nrmse(batch.data, reconstruct_segment(final))
        scale = (stats.x_max - stats.x_min) * np.sqrt(stats.entry_count)
        assert measured <= final.error_bound / scale <= 1e-2


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
            seg = compress_segment(batch.data, cfg, pad_time_to=16)
            norm = np.linalg.norm(arr)
            assert abs_error(arr, seg) <= seg.error_bound + MEASURE_SLACK * norm
            # the SVD route's rounding estimate, a few eps * ||X|| per
            # step, is certified even where the tolerance is 0
            tau = cfg.tolerance
            if cfg.tolerance_kind == "nrmse":
                tau = nrmse_to_relfrob(tau, seg.stats)
            assert seg.error_bound <= (tau * (1 + 1e-6) + 1e-13) * norm
        constant = compress_segment(
            DenseTensor.from_numpy(np.full((4, 8, 3), 2.5)), CompressionConfig()
        )
        assert constant.error_bound == 0.0

    @pytest.mark.parametrize("level", [None, 1], ids=["stack", "untensorized"])
    def test_merges(self, level):
        # the stacks of acceptance criterion 5
        rng = np.random.default_rng(97)
        x = rng.uniform(size=(8, 8, 8))
        norm = np.linalg.norm(x)
        for n_seg in (2, 4, 8):
            for tau in (1e-2, 1e-4):
                for tau_round in (1e-2, 1e-4):
                    cfg = relfrob_config(tau, level=level)
                    parts = split_time(x, n_seg, cfg)
                    ledger = streaming.combine_error_bounds(parts)
                    merged = merge_stack(parts, tau_round)
                    err = abs_error(x, merged)
                    assert err <= merged.error_bound + MEASURE_SLACK * norm
                    # the ledger, or the budget when it leaves a spare
                    assert ledger <= merged.error_bound <= (
                        max(ledger, tau_round * norm * (1 + 1e-9))
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
        stats = dataclasses.replace(seg.stats, **{field: value})
        with pytest.raises(StructureError):
            dataclasses.replace(seg, stats=stats)


def settle_run(n_seg, seed=3):
    """A 40-particle settling run in 16-step segments, the last holding 11."""
    return synth_particles(40, 16 * n_seg - 5, "settle", seed=seed)


def energetic_run(seed, n_t=33, amp=3.0):
    """64 particles drifting over ``linspace(0, 1)`` in time with 0.01
    noise, whose last step jumps by ``amp`` times a standard normal: in
    32-step segments the last one is short and its padding copies of that
    step hold far more energy than the data."""
    rng = np.random.default_rng(seed)
    arr = np.linspace(0.0, 1.0, n_t)[:, None, None]
    arr = arr + 0.01 * rng.standard_normal((n_t, 64, 3))
    arr[-1] += amp * rng.standard_normal((64, 3))
    return batch_from_array(arr)


class TestPaddedMerge:
    """Every tolerance is relative to the unpadded data's norm, so a
    short, energetic last segment, whose padding copies dominate the
    stacked train's norm, does not inflate what the merge may discard."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_stack_holds_the_composition(self, seed):
        batch, tau_round = energetic_run(seed, amp=30.0), 3e-2
        config = CompressionConfig(tolerance=5e-3, segment_length=32)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        parts = levels[0]
        assert [p.total_steps for p in parts] == [32, 1]
        merged = merge_stack(parts, tau_round)
        # the rounding spends tau_round of the data's norm, not of the
        # stack's, whose padding copies hold far more
        norm = merged.stats.frobenius_norm
        ledger = streaming.combine_error_bounds(parts)
        assert merged.error_bound <= max(ledger, tau_round * norm * (1 + 1e-9))
        measured = rel_frob(batch.data, reconstruct_segment(merged))
        assert measured <= merged.error_bound / norm + MEASURE_SLACK

    @pytest.mark.parametrize(
        "seed, n_t, amp", [(0, 33, 3.0), (1, 34, 10.0), (2, 40, 30.0)]
    )
    def test_compress_run_meets_the_target(self, seed, n_t, amp):
        batch = energetic_run(seed, n_t, amp)
        config = CompressionConfig(tolerance=1e-2, segment_length=32)
        (merged,) = compress_run(batch.time_slice, batch.n_t, config)
        assert merged.stack_dims == (2,)
        measured = nrmse(batch.data, reconstruct_segment(merged))
        _, certified = streaming.error_measures(merged.error_bound, merged.stats)
        assert measured <= certified <= 1e-2


class TestSpendLeftover:
    @pytest.mark.parametrize("kind", ["nrmse", "relfrob"])
    @pytest.mark.parametrize("n_seg", [3, 5, 40])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_bound_covers_measured_error(self, kind, n_seg, seed):
        batch = settle_run(n_seg, seed)
        arr = batch.data.to_numpy()
        config = CompressionConfig(
            tolerance=1e-2, tolerance_kind=kind, segment_length=16
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

    @pytest.mark.parametrize("kind", ["nrmse", "relfrob"])
    @pytest.mark.parametrize("n_seg, seed", [(5, 2), (8, 2), (5, 3)])
    def test_compress_run_is_one_merge_tree_pass(self, kind, n_seg, seed):
        batch = settle_run(n_seg, seed)
        config = CompressionConfig(
            tolerance=1e-2, tolerance_kind=kind, segment_length=16
        )
        levels = []
        (final,) = compress_run(
            batch.time_slice, batch.n_t, config, on_level=levels.append
        )
        segments = levels[0]
        assert [len(lv) for lv in levels] == [n_seg, 1] and levels[1] == [final]
        budget = config.tolerance
        if kind == "nrmse":
            # the run's statistics, combined from the segments'
            stats = combine_stats(s.stats for s in segments)
            budget = nrmse_to_relfrob(config.tolerance, stats)
        again = merge_tree(segments, budget)
        assert again.stack_dims == (n_seg,)
        assert final.tt.ranks == again.tt.ranks
        assert all(
            np.array_equal(x, y) for x, y in zip(final.tt.cores, again.tt.cores)
        )
        assert final.error_bound == again.error_bound

    def test_spends_more_than_the_schedule(self):
        # the one rounding spends what the ledger leaves of the target: a
        # merge that left half that spare unspent keeps more entries
        batch = settle_run(8)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        segments = levels[0]
        target = nrmse_to_relfrob(1e-2, stats_of(batch.data.values))
        spent = merge_tree(segments, target)
        norm = spent.stats.frobenius_norm
        ledger = streaming.combine_error_bounds(segments)
        half = merge_stack(segments, (ledger + (target * norm - ledger) / 2) / norm)
        assert spent.tt.core_entry_count < half.tt.core_entry_count
        assert ledger < half.error_bound < spent.error_bound <= target * norm

    @pytest.mark.parametrize("tolerance", [0.1, 0.0])
    def test_all_zero_run(self, tolerance):
        # zero data leaves no norm to relate the certified bound to
        batch = batch_from_array(np.zeros((40, 8, 3)))
        config = relfrob_config(tolerance, segment_length=16)
        levels = []
        (final,) = compress_run(
            batch.time_slice, batch.n_t, config, on_level=levels.append
        )
        assert len(levels) == 2 and final.error_bound == 0.0
        assert not reconstruct_segment(final).to_numpy().any()


def same_cores(a, b):
    return a.ranks == b.ranks and all(
        np.array_equal(x, y) for x, y in zip(a.cores, b.cores)
    )


class TestMergeStackBudget:
    """``merge_stack(parts, budget)`` on the segments of a merged settling
    run: the one call that spends what the ledger leaves."""

    @pytest.fixture(scope="class")
    def last(self):
        batch = settle_run(8)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        group = levels[0]
        stats = combine_stats(s.stats for s in group)
        budget = nrmse_to_relfrob(1e-2, stats)
        ledger = streaming.combine_error_bounds(group)
        return group, budget, ledger, stats.frobenius_norm, levels[-1][0]

    def test_equals_the_merge_tree_part(self, last):
        group, budget, ledger, norm, final = last
        part = merge_stack(group, budget)
        assert same_cores(part.tt, final.tt)
        assert part.error_bound == final.error_bound
        # the ledger plus the one rounding's loss, within the budget
        assert ledger < part.error_bound <= budget * norm

    def test_budget_below_the_ledger_rounds_at_tau(self, last, monkeypatch):
        # a budget the ledger already exceeds leaves nothing to round at:
        # the bound stays the ledger, over the budget
        group, _, ledger, norm, _ = last
        calls = []
        monkeypatch.setattr(
            streaming, "_round_orthogonal", lambda *args: calls.append(args)
        )
        part = merge_stack(group, 0.5 * ledger / norm)
        assert calls == []
        assert part.error_bound == ledger

    def test_unknown_bound_rounds_at_tau(self, last):
        # no ledger, nothing to spend from: the exact stack
        group, budget, _, _, _ = last
        group = [dataclasses.replace(group[0], error_bound=None)] + group[1:]
        part = merge_stack(group, budget)
        assert part.error_bound is None
        assert same_cores(part.tt, tt_stack_new([p.tt for p in group]))

    @pytest.mark.parametrize("share", [0.0, 0.5])
    def test_no_spare_keeps_the_exact_stack(self, last, share):
        group, _, ledger, norm, _ = last
        part = merge_stack(group, share * ledger / norm)
        assert same_cores(part.tt, tt_stack_new([p.tt for p in group]))
        assert part.error_bound == ledger

    @pytest.mark.parametrize(
        "n_t, kind, tolerance",
        [(257, "relfrob", 1e-14), (257, "nrmse", 1e-2), (200, "relfrob", 1e-6)],
    )
    def test_rounds_within_the_spare(self, monkeypatch, n_t, kind, tolerance):
        # the ledger of a run at relfrob 1e-14 already exceeds half the
        # target, so no fixed share of the budget is left to round at
        batch = synth_particles(128, n_t, "settle", seed=0)
        config = CompressionConfig(
            tolerance=tolerance, tolerance_kind=kind, segment_length=32
        )
        honest = streaming._round_orthogonal
        budgets = []

        def watch(blocks, budget):
            budgets.append(budget)
            return honest(blocks, budget)

        monkeypatch.setattr(streaming, "_round_orthogonal", watch)
        levels = []
        compress_run(batch.time_slice, n_t, config, on_level=levels.append)
        segments = levels[0]
        stats = combine_stats(s.stats for s in segments)
        target = tolerance
        if kind == "nrmse":
            target = nrmse_to_relfrob(tolerance, stats)
        spare = target * stats.frobenius_norm
        spare -= streaming.combine_error_bounds(segments)
        assert len(budgets) <= 1
        assert all(b <= spare for b in budgets)


class TestStackRounding:
    """Rounding a stack block by block, each part orthogonalized on its
    own, matches :func:`tt_round`'s joint sweep of the stacked train."""

    @pytest.fixture(scope="class")
    def cases(self):
        # segments of a settling run padded to 16 steps, a short one next
        # to an all-zero part that covers no steps, and two parts merged
        # before (the layout of archives written by the nested merge)
        batch = settle_run(3)
        config = CompressionConfig(tolerance=1e-2, segment_length=16)
        levels = []
        compress_run(batch.time_slice, batch.n_t, config, on_level=levels.append)
        segs = levels[0]
        return {
            "two": segs[:2],
            "three": segs,
            "padded": [segs[2], empty_part(segs[2])],
            "two-level": [
                merge_stack(segs[:2], 1e-3),
                merge_stack([segs[2], empty_part(segs[2])], 1e-3),
            ],
        }

    @pytest.mark.parametrize("case", ["two", "three", "padded", "two-level"])
    @pytest.mark.parametrize("tau", [1e-2, 1e-4])
    def test_matches_joint_sweep(self, cases, case, tau):
        trains = [p.tt for p in cases[case]]
        stacked = tt_stack_new(trains)
        x = tt_full(stacked).values
        norm = np.linalg.norm(x)
        joint = tt_round(stacked, tau)
        # tt_round's budget: tau times the norm it measures on its cores
        budget = tau * np.linalg.norm(_orthogonalize(stacked.cores)[0])
        per_part, lost = streaming._round_orthogonal(
            [_orthogonalize(t.cores) for t in trains], budget
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
    """:func:`merge_tree` checks its budget, and a segment record its
    bound, before any merging."""

    @staticmethod
    def segments(bound):
        rng = np.random.default_rng(26)
        parts = split_time(rng.uniform(size=(8, 4, 3)), 4, relfrob_config(0.0))
        return [dataclasses.replace(p, error_bound=bound) for p in parts]

    @pytest.mark.parametrize(
        "total, per_segment",
        [(float("nan"), 0.01), (float("inf"), 0.01), (-0.1, 0.0),
         (0.1, float("nan")), (0.1, -0.01)],
    )
    def test_bad_budget_rejected(self, total, per_segment):
        # a bad budget fails in the merge, a bad segment bound as the
        # segment record is built
        error = ConfigError if per_segment >= 0 else StructureError
        with pytest.raises(error):
            merge_tree(self.segments(per_segment), total)


def entry(seg, t, coords):
    """One entry through a one-entry region; ``t`` counts within the
    segment from 1."""
    box = [(t, t)] + [(int(i), int(i)) for i in coords]
    return float(reconstruct_region(seg, box).values[0])


class TestElementAccess:
    def test_one_entry_region_matches_dense(self):
        batch = synth_particles(20, 8, "ballistic", seed=24)
        cfg = CompressionConfig(tolerance=0.0, tolerance_kind="relfrob")
        seg = compress_segment(batch.data, cfg, first_step=100)
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
        seg = compress_segment(batch.data, cfg)
        dense = reconstruct_segment(seg).to_numpy()
        # a cap too small for the full tensor still allows region queries
        # up to the cap's own size
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", "24")
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
        seg = compress_segment(batch.data, CompressionConfig(tolerance=1e-2))
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


def merged_ragged_segment(reorder="segment", n_seg=4, arity=None):
    # segments of 4 steps, the last holding 2 real steps, stacked (n_seg,);
    # with an arity, in the nested layout of older archives, whose short
    # groups hold empty parts
    rng = np.random.default_rng(40)
    n_t = 4 * n_seg - 2
    arr = np.cumsum(rng.uniform(size=(n_t, 5, 3)), axis=0)
    cfg = relfrob_config(1e-3, reorder=reorder)
    perm = None
    if reorder == "segment":
        perm = rng.permutation(5)
    parts = [
        compress_segment(
            DenseTensor.from_numpy(arr[start : start + 4]),
            cfg,
            first_step=start,
            permutation_override=perm,
            pad_time_to=4,
        )
        for start in range(0, n_t, 4)
    ]
    if arity:
        return nested_merge(parts, arity, 1e-3)
    return merge_tree(parts, 4e-3)


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
    )


def single_segment(shape, **cfg_kwargs):
    rng = np.random.default_rng(42)
    arr = np.cumsum(rng.uniform(size=shape), axis=0)
    cfg = relfrob_config(1e-2, **cfg_kwargs)
    return compress_segment(DenseTensor.from_numpy(arr), cfg, first_step=5)


READ_CASES = {
    "reorder-none": lambda: single_segment((8, 6, 3)),
    "reorder-segment": lambda: single_segment((8, 6, 3), reorder="segment"),
    "padded-particles": lambda: single_segment((6, 7, 3), reorder="segment"),
    "untensorized": lambda: single_segment((8, 6, 3), level=1),
    "merged-ragged": merged_ragged_segment,
    "merged-ragged-none": lambda: merged_ragged_segment("none"),
    "merged-3-arity-2": lambda: merged_ragged_segment(n_seg=3, arity=2),
    "merged-5-arity-3": lambda: merged_ragged_segment(n_seg=5, arity=3),
    "interlaced": interlaced_segment,
}


@pytest.fixture(params=sorted(READ_CASES))
def read_case(request):
    return READ_CASES[request.param]()


def run_segments(n_p, reorder, lengths=(4, 4, 4, 2), pinned=True):
    """Consecutive segments of one run, the last one short.  Under
    ``segment`` ordering they share one random permutation, or, unless
    ``pinned``, each takes the bisection order of its own steps."""
    rng = np.random.default_rng(46)
    arr = np.cumsum(rng.uniform(size=(sum(lengths), n_p, 3)), axis=0)
    cfg = relfrob_config(1e-3, reorder=reorder)
    perm = rng.permutation(n_p) if reorder == "segment" and pinned else None
    starts = np.cumsum((0,) + lengths[:-1])
    return [
        compress_segment(
            DenseTensor.from_numpy(arr[start : start + n]),
            cfg,
            first_step=int(start),
            permutation_override=perm,
            pad_time_to=4,
        )
        for start, n in zip(starts, lengths)
    ]


def merged_halves(n_p):
    """:func:`run_segments` under one ordering, merged two by two."""
    segs = run_segments(n_p, "segment")
    return [merge_stack(segs[:2], 1e-3), merge_stack(segs[2:], 1e-3)]


# the segments that one ``ttc reconstruct`` call turns into one .dt64
RUN_CASES = {
    # two merged parts of a run with 7 particles, padded to 8
    "merged-padded-particles": lambda: merged_halves(7),
    # unmerged segments, each with its own permutation
    "own-permutations": lambda: run_segments(5, "segment", pinned=False),
    "interlaced": lambda: [interlaced_segment()],
    # one archive whose last leaf holds 2 of 4 steps
    "short-last-leaf": lambda: [merge_tree(run_segments(7, "segment"), 4e-3)],
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
        # regions are served from the cores under a cap the train exceeds
        box = [(1, 14), (2, 4), (1, 3)]
        assert_matches(
            reconstruct_region(seg, box).to_numpy(), reference_region(seg, box)
        )

    def test_malformed_permutation_is_rejected(self):
        # a duplicate, too short, one per step, not a whole number: each
        # fails when the record is built, before any read can use it
        seg = single_segment((8, 6, 3), reorder="segment")
        for perm in (
            np.zeros(6, dtype=np.int64),
            np.arange(4),
            np.tile(np.arange(6), (8, 1)),
            np.arange(6.0) + 0.5,
        ):
            with pytest.raises(StructureError, match="does not permute"):
                dataclasses.replace(seg, permutations=perm)



def streamed_run(n_p=12, merge=True, arity=None):
    """The parts ``ttc compress`` stores for a 44-step settling run in
    8-step segments: the last segment holds 4 steps.  With an arity, its
    segments merged in the nested layout of older archives, which have
    empty parts and zero-extent leaves."""
    batch = synth_particles(n_p, 44, "settle", seed=9)
    cfg = CompressionConfig(tolerance=1e-3, segment_length=8)
    if arity is None:
        return compress_run(batch.time_slice, batch.n_t, cfg, merge)
    levels = []
    compress_run(batch.time_slice, batch.n_t, cfg, on_level=levels.append)
    return [nested_merge(levels[0], arity, 1e-4)]


def dt64_archive():
    # 12 = 2*2*3, 10 = 2*5 and 6 = 2*3: every axis is split
    arr = np.cumsum(np.random.default_rng(47).uniform(size=(12, 10, 6)), axis=0)
    data = DenseTensor.from_numpy(arr)
    return [compress_tensor(data, CompressionConfig(tolerance=1e-3, reorder="none"))]


# the parts one ``ttc reconstruct`` call writes, as ``ttc compress`` stores them
STORED_RUNS = {
    "merged-short-last": streamed_run,
    "merged-padded-particles": lambda: streamed_run(n_p=7),
    "merge-arity-3": lambda: streamed_run(arity=3),
    "no-merge": lambda: streamed_run(merge=False),
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
        dims, blocks = streaming.decode_columns(segs)
        n_t = sum(s.total_steps for s in segs)
        assert dims == (n_t,) + segs[0].plan.original_dims[1:]
        blocks = list(blocks)
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
        with pytest.raises(StructureError):
            broken = dataclasses.replace(
                segs[1], permutations=np.zeros_like(segs[1].permutations)
            )
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

    def test_region_output_counts_against_the_cap(self, tmp_path, monkeypatch):
        batch = synth_particles(64, 16, "settle", seed=30)
        seg = compress_segment(batch.data, CompressionConfig(tolerance=1e-2))
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", "100")
        with pytest.raises(CapacityError):
            reconstruct_region(seg, [(1, 16), (1, 64), (1, 3)])
        assert reconstruct_region(seg, [(1, 16), (1, 2), (1, 3)]).dims == (16, 2, 3)

    def test_huge_declared_region_exits_two(self, tmp_path, monkeypatch, capsys):
        # a few hundred bytes that declare 2 x 2**40 x 1 entries
        long_axis_archive(tmp_path, 40)
        archive = str(tmp_path / "seg_0_1.ttc")
        out = tmp_path / "region.dt64"
        monkeypatch.setenv("QTT_MEMORY_CAP_ENTRIES", "100")
        region = f"1:2,1:{2**40},1:1"
        assert main(["reconstruct", archive, "-o", str(out), "--region", region]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "exceeds the cap" in err
        assert not out.exists()

    def test_whole_axis_offsets_unchanged(self):
        seg = merged_ragged_segment()
        dims = seg.plan.original_dims
        every = axis_offsets(seg.plan)
        some = [np.array([n - 1, 0]) for n in dims]
        assert [len(o) for o in every] == list(dims)
        for all_of_axis, chosen, index in zip(every, axis_offsets(seg.plan, some), some):
            assert np.array_equal(all_of_axis[index], chosen)


class TestStoreRoundtrip:
    def test_nested_archive_still_reads(self, tmp_path, capsys):
        # archives written before the one-level merge stack binary levels;
        # every read decodes them as it did
        batch = synth_particles(12, 60, "settle", seed=9)
        cfg = CompressionConfig(tolerance=1e-3, segment_length=8)
        levels = []
        compress_run(batch.time_slice, batch.n_t, cfg, on_level=levels.append)
        seg = nested_merge(levels[0], 2, 1e-4)
        assert seg.stack_dims == (2, 2, 2)
        assert seg.part_time_extents == (8,) * 7 + (4,)
        path = save_segment(tmp_path, seg)
        # the reference: the train's leaves through tt_full, each mapped
        # back to the run by the plan and the particle order
        full = tt_full(seg.tt).values.reshape(seg.tt.dims, order="F")
        leaves = full.reshape(full.shape[: -3] + (-1,), order="F")
        plan_dims = seg.plan.tensorized_dims()
        want = np.empty((60,) + seg.plan.original_dims[1:])
        for leaf, extent in enumerate(seg.part_time_extents):
            block = DenseTensor(plan_dims, leaves[..., leaf].reshape(-1, order="F"))
            sorted_block = invert_plan(block, seg.plan).to_numpy()[:extent]
            want[8 * leaf : 8 * leaf + extent][:, seg.permutations] = sorted_block
        out = tmp_path / "run.dt64"
        assert main(["reconstruct", path, "-o", str(out)]) == 0
        assert_matches(read_dt64(out).to_numpy(), want)
        assert_matches(reconstruct_segment(load_segment(path)).to_numpy(), want)
        box = [(5, 59), (2, 11), (1, 3)]
        got = reconstruct_region(load_segment(path), box).to_numpy()
        assert_matches(got, want[4:59, 1:11, 0:3])
        capsys.readouterr()
        assert main(["info", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stack_dims"] == [2, 2, 2]
        assert payload["train_dims"] == list(seg.tt.dims)

    def test_error_bound_roundtrip(self, tmp_path):
        batch = synth_particles(12, 8, "settle", seed=28)
        cfg = CompressionConfig(tolerance=0.05, tolerance_kind="nrmse")
        seg = compress_segment(batch.data, cfg)
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
        seg = compress_segment(batch.data, cfg, first_step=16)
        path = save_segment(tmp_path, seg, cfg.config_hash())
        assert path.endswith("seg_16_23.ttc")
        # the certified bound is the one error figure stored
        assert "tolerance_spent" not in read_ttc1(path)[1]
        loaded = load_segment(path)
        assert loaded.time_range == seg.time_range
        assert loaded.plan == seg.plan
        assert loaded.stack_dims == seg.stack_dims
        assert loaded.part_time_extents == seg.part_time_extents
        assert np.array_equal(loaded.permutations, seg.permutations)
        assert loaded.stats == seg.stats
        for a, b in zip(loaded.tt.cores, seg.tt.cores):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", sorted(STORED_RUNS))
    def test_layout_follows_from_train_and_permutations(self, case, tmp_path):
        policy = {"dt64-input": "none"}
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

    def test_pad_records_name_the_replicate_padding(self):
        # 13 particles pad to 15, 6 steps to 8 under pad_time_to
        batch = synth_particles(13, 6, "settle", seed=9)
        seg = compress_segment(
            batch.data, CompressionConfig(tolerance=1e-2), pad_time_to=7
        )
        pads = segment_metadata(seg)["plan"]["pads"]
        assert pads == [[1, 6, 8, "replicate"], [2, 13, 15, "replicate"]]

    def test_duplicate_pad_records_are_a_format_error(self, tmp_path, capsys):
        batch = synth_particles(13, 8, "settle", seed=9)
        seg = compress_segment(batch.data, CompressionConfig(tolerance=1e-2))
        path = save_segment(tmp_path, seg)
        tt, meta = read_ttc1(path)
        assert meta["plan"]["pads"] == [[2, 13, 15, "replicate"]]
        # the last record agrees with the factors; the first is extra
        meta["plan"]["pads"].insert(0, [2, 13, 14, "replicate"])
        write_ttc1(path, tt, meta)
        with pytest.raises(FormatError, match="more than one pad record"):
            load_segment(path)
        assert main(["info", path]) == 2
        assert "internal error" not in capsys.readouterr().err

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
        a = compress_segment(batch.data, cfg)
        b = compress_segment(batch.data, cfg)
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
