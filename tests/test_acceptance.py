"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its headline numbers once its
assertions hold, so running ``pytest tests/test_acceptance.py -v -s``
yields a per-criterion report.  Quantitative targets for the structured
kernel study are frozen in EXPECTED_* tables below; all other criteria
check tolerances, invariants and oracles computed in place.
"""

import dataclasses
import math
import time

import numpy as np

from ttcompress import (
    CompressionConfig,
    DenseTensor,
    compress_segment,
    load_segment,
    load_snapshots,
    merge_stack,
    morton_id,
    morton_sort,
    nrmse,
    reconstruct_segment,
    rel_frob,
    sample_kernel_matrix,
    sample_univariate,
    save_segment,
    spectral_norm_estimate,
    synth_particles,
    tensorize_matrix_interlaced,
    tensorize_vector,
    tt_concat_existing,
    tt_full,
    tt_round,
    tt_stack_new,
    tt_svd,
    write_run,
)
from ttcompress.tensorize import invert_plan, matrix_interlace_plan
from ttcompress.tt import TTTensor, compression_ratio

# frozen targets for the interlaced-kernel study (d=10, delta=1e-5):
# compression ratios and spectral reconstruction errors per (level, tau)
EXPECTED_RATIO = {
    (6, 1e-2): 1.6e2, (6, 1e-5): 1.0e2, (6, 1e-8): 7.5e1,
    (6, 1e-11): 6.3e1, (6, 1e-14): 5.4e1,
    (7, 1e-2): 4.9e2, (7, 1e-5): 2.9e2, (7, 1e-8): 2.0e2,
    (7, 1e-11): 1.6e2, (7, 1e-14): 1.3e2,
    (8, 1e-2): 1.0e3, (8, 1e-5): 4.6e2, (8, 1e-8): 3.1e2,
    (8, 1e-11): 2.2e2, (8, 1e-14): 1.7e2,
}
EXPECTED_SPECTRAL = {
    (6, 1e-2): 7.5e-1, (7, 1e-2): 7.7e-1, (8, 1e-2): 9.6e-1,
    (6, 1e-5): 1.1e-3, (7, 1e-5): 1.3e-3, (8, 1e-5): 1.1e-3,
    (6, 1e-8): 9.8e-7, (7, 1e-8): 1.0e-6, (8, 1e-8): 1.0e-6,
    (6, 1e-11): 1.5e-9, (7, 1e-11): 1.5e-9, (8, 1e-11): 1.1e-9,
    (6, 1e-14): 5.9e-12, (7, 1e-14): 6.0e-12, (8, 1e-14): 7.4e-12,
}


def random_tt(rng, dims, rank):
    d = len(dims)
    ranks = [1]
    for k in range(1, d):
        ranks.append(min(rank, math.prod(dims[:k]), math.prod(dims[k:])))
    ranks.append(1)
    return TTTensor(
        tuple(
            rng.standard_normal((ranks[k], dims[k], ranks[k + 1]))
            for k in range(d)
        )
    )


def test_criterion_01_kernel_study_reproduction():
    start = time.perf_counter()
    kernel = sample_kernel_matrix(1e-5, 10)
    dense = kernel.to_numpy()
    worst_ratio_dev = 0.0
    worst_err_factor = 1.0
    for level in (6, 7, 8):
        plan = matrix_interlace_plan(1024, level)
        tensor = tensorize_matrix_interlaced(kernel, level)
        for tau in (1e-2, 1e-5, 1e-8, 1e-11, 1e-14):
            train = tt_svd(tensor, tau)
            ratio = compression_ratio(train)
            diff = dense - invert_plan(tt_full(train), plan).to_numpy()
            est = spectral_norm_estimate(
                lambda v: diff @ v,
                lambda v: diff.T @ v,
                diff.shape,
                tol=1e-3,
                max_iterations=500,
            )
            expected_ratio = EXPECTED_RATIO[(level, tau)]
            expected_err = EXPECTED_SPECTRAL[(level, tau)]
            deviation = abs(ratio - expected_ratio) / expected_ratio
            factor = max(est.value / expected_err, expected_err / est.value)
            worst_ratio_dev = max(worst_ratio_dev, deviation)
            worst_err_factor = max(worst_err_factor, factor)
            assert deviation <= 0.25, (
                f"level {level}, tau {tau:g}: ratio {ratio:.3g} deviates "
                f"{deviation:.0%} from {expected_ratio:.3g}"
            )
            assert factor <= 10.0, (
                f"level {level}, tau {tau:g}: spectral error {est.value:.3g} "
                f"is {factor:.1f}x off {expected_err:.3g}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"kernel study took {elapsed:.1f}s (budget 60s)"
    print(
        f"PASS criterion 1: 15/15 ratios within 25% (worst {worst_ratio_dev:.0%}), "
        f"spectral errors within {worst_err_factor:.1f}x, {elapsed:.1f}s"
    )


def test_criterion_02_level_sweep_trends():
    start = time.perf_counter()
    deltas = (1e-1, 1e-5, 1e-9)
    taus = (1e-1, 1e-2, 1e-3, 1e-4)
    levels = range(10, 21)
    ratios = {}
    for delta in deltas:
        samples = sample_univariate(delta, 20)
        for tau in taus:
            for level in levels:
                train = tt_svd(tensorize_vector(samples, level), tau)
                ratios[(delta, tau, level)] = compression_ratio(train)
    for delta in deltas:
        for tau in taus:
            assert ratios[(delta, tau, 20)] >= ratios[(delta, tau, 10)], (
                f"delta={delta:g}, tau={tau:g}: deeper tensorization lost"
            )
    for tau in taus:
        for sharp, smooth in zip(deltas[1:], deltas[:-1]):
            assert ratios[(sharp, tau, 20)] <= ratios[(smooth, tau, 20)], (
                f"tau={tau:g}: ratio rose as delta fell "
                f"({smooth:g} -> {sharp:g})"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"level sweep took {elapsed:.1f}s (budget 300s)"
    print(
        f"PASS criterion 2: monotone in level and in sharpness over "
        f"{len(ratios)} runs, {elapsed:.1f}s"
    )


def test_criterion_03_decomposition_error_bound():
    rng = np.random.default_rng(2024)
    taus = (1e-1, 1e-3, 1e-6)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(3, 6))
        dims = tuple(int(n) for n in rng.integers(2, 6, size=d))
        x = DenseTensor.from_numpy(rng.uniform(size=dims))
        for tau in taus:
            err = rel_frob(x, tt_full(tt_svd(x, tau)))
            worst = max(worst, err / tau if tau else err)
            assert err <= tau, f"dims {dims}, tau {tau:g}: error {err:.3e}"
    print(
        f"PASS criterion 3: 200 tensors x 3 tolerances, worst error/tau "
        f"= {worst:.3f}"
    )


def test_criterion_04_rounding_bound_and_idempotence():
    rng = np.random.default_rng(338)
    checked = 0
    for trial in range(25):
        d = int(rng.integers(3, 5))
        dims = tuple(int(n) for n in rng.integers(2, 5, size=d))
        a = random_tt(rng, dims, 4)
        b = random_tt(rng, dims, 4)
        if trial % 2 == 0:
            inflated = tt_stack_new([a, b, a])
        else:
            axis = int(rng.integers(1, d + 1))
            inflated = tt_concat_existing(a, b, axis)
        for tau in (1e-2, 1e-5):
            rounded = tt_round(inflated, tau)
            err = rel_frob(tt_full(inflated), tt_full(rounded))
            assert err <= tau, f"rounding error {err:.3e} above {tau:g}"
            again = tt_round(rounded, tau)
            assert again.ranks == rounded.ranks, "second rounding moved ranks"
            assert all(
                r <= s for r, s in zip(rounded.ranks, inflated.ranks)
            ), "rounding increased a rank"
            checked += 1
    print(f"PASS criterion 4: {checked} inflated trains rounded within "
          f"tolerance, idempotent ranks")


def test_criterion_05_streaming_error_budget():
    rng = np.random.default_rng(97)
    x = rng.uniform(size=(8, 8, 8))
    dense = DenseTensor.from_numpy(x)
    trials = 0
    worst = 0.0
    for n_seg in (2, 4, 8):
        step = 8 // n_seg
        for tau in (1e-2, 1e-4):
            for tau_round in (1e-2, 1e-4):
                budget = tau + tau_round + tau * tau_round
                # stacks of tensorized and of untensorized (level 1) segments
                for level in (None, 1):
                    cfg = CompressionConfig(
                        tolerance=tau,
                        tolerance_kind="relfrob",
                        reorder="none",
                        level=level,
                    )
                    parts = [
                        compress_segment(
                            DenseTensor.from_numpy(x[i * step : (i + 1) * step]),
                            cfg,
                            first_step=i * step,
                        )
                        for i in range(n_seg)
                    ]
                    merged = merge_stack(parts, tau_round)
                    err = rel_frob(dense, reconstruct_segment(merged))
                    worst = max(worst, err / budget)
                    trials += 1
                    assert err <= budget, (
                        f"stack (level={level}) x{n_seg} tau={tau:g} "
                        f"round={tau_round:g}: {err:.3e} > {budget:.3e}"
                    )
    print(
        f"PASS criterion 5: {trials} merge trials within "
        f"tau + tau_round + tau*tau_round (worst fraction {worst:.2f})"
    )


def test_criterion_06_combination_primitives_exact():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        dims = tuple(int(n) for n in rng.integers(2, 5, size=3))
        parts = [random_tt(rng, dims, 3) for _ in range(3)]
        dense_parts = [tt_full(p).to_numpy() for p in parts]
        stacked = tt_full(tt_stack_new(parts)).to_numpy()
        reference = np.stack(dense_parts, axis=-1)
        norm = np.linalg.norm(reference)
        dev = np.max(np.abs(stacked - reference))
        worst = max(worst, dev / norm)
        assert dev <= 1e-12 * norm

        axis = int(rng.integers(1, 4))
        cat = tt_full(tt_concat_existing(parts[0], parts[1], axis)).to_numpy()
        reference = np.concatenate(
            [dense_parts[0], dense_parts[1]], axis=axis - 1
        )
        norm = np.linalg.norm(reference)
        dev = np.max(np.abs(cat - reference))
        worst = max(worst, dev / norm)
        assert dev <= 1e-12 * norm
    print(
        f"PASS criterion 6: stack/concat reconstructions exact "
        f"(worst deviation {worst:.2e} of the norm)"
    )


def test_criterion_07_nrmse_targeting():
    batch = synth_particles(4096, 32, "settle", seed=42)
    results = []
    for target in (1e-1, 1e-2):
        cfg = CompressionConfig(tolerance=target, tolerance_kind="nrmse")
        seg = compress_segment(batch.data, cfg)
        measured = nrmse(batch.data, reconstruct_segment(seg))
        assert measured <= target, f"nRMSE {measured:.3e} above {target:g}"
        results.append((target, measured, seg.compression_ratio))
    summary = ", ".join(
        f"target {t:g}: nRMSE {m:.2e} (ratio {r:.0f})" for t, m, r in results
    )
    print(f"PASS criterion 7: {summary}")


def test_criterion_08_tensorization_advantage():
    batch = synth_particles(1024, 512, "settle", seed=7)
    cfg = CompressionConfig(tolerance=1e-1, tolerance_kind="nrmse")
    cfg_flat = dataclasses.replace(cfg, level=1)
    wins = 0
    total = 0
    for start in range(0, 512, 32):
        sub = batch.time_slice(start, start + 32)
        tens = compress_segment(sub, cfg, first_step=start)
        flat = compress_segment(sub, cfg_flat, first_step=start)
        total += 1
        wins += tens.compression_ratio > flat.compression_ratio
    assert wins / total >= 0.9, f"tensorization won only {wins}/{total}"
    print(f"PASS criterion 8: tensorized ratio higher in {wins}/{total} segments")


def test_criterion_09_morton_invariants():
    # worked key
    assert morton_id((0.25, 0.5, 0.75), 2).bits == 29
    # determinism and bijectivity
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 1 - 1e-9, size=(500, 3))
    p1 = morton_sort(pts, 12)
    p2 = morton_sort(pts, 12)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(500))
    # octant prefix property at depths 1..4
    b = 10
    for depth in (1, 2, 3, 4):
        for _ in range(25):
            cell = rng.integers(0, 2**depth, size=3)
            lo = cell / 2**depth
            span = 1.0 / 2**depth
            pa = lo + rng.uniform(0, span * 0.999, 3)
            pb = lo + rng.uniform(0, span * 0.999, 3)
            shift = 3 * (b - depth)
            assert (
                morton_id(tuple(pa), b).bits >> shift
                == morton_id(tuple(pb), b).bits >> shift
            ), f"prefix mismatch at depth {depth}"
    print(
        "PASS criterion 9: worked key 29, deterministic bijective sort, "
        "octant prefixes shared at depths 1-4"
    )


def test_criterion_10_pipeline_roundtrip(tmp_path):
    # 13 particles force replicate padding; Morton reorder is on
    batch = synth_particles(13, 12, "ballistic", seed=99)
    run_dir = tmp_path / "run"
    write_run(run_dir, batch)
    loaded = load_snapshots(run_dir)
    cfg = CompressionConfig(tolerance=0.0, tolerance_kind="relfrob")
    seg = compress_segment(loaded.data, cfg)
    assert seg.plan.pads, "expected the particle axis to be padded"
    path = save_segment(tmp_path, seg, cfg.config_hash())
    restored = reconstruct_segment(load_segment(path))
    norm = float(np.linalg.norm(batch.data.values))
    deviation = float(
        np.max(np.abs(restored.to_numpy() - batch.data.to_numpy()))
    )
    assert deviation <= 1e-10 * norm, f"roundtrip deviates {deviation:.3e}"
    print(
        f"PASS criterion 10: ingest/reorder/pad/tensorize/archive/reload "
        f"roundtrip within {deviation:.2e} (1e-10 * norm = {1e-10 * norm:.2e})"
    )
