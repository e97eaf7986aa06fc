import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttcompress import (
    CompressionConfig,
    ConfigError,
    DataError,
    ShapeError,
    TTCompressError,
    compress_run,
    lowrank,
    rel_frob,
    sample_kernel_matrix,
    spectral_norm_estimate,
    synth_particles,
    tensorize_matrix_interlaced,
    tt,
    tt_full,
)
from ttcompress.lowrank import (
    _jacobi_svd,
    _svd_rounding,
    _tall_triangle,
    _truncated_svd_arrays,
    svd_truncation_rank,
)
from ttcompress.tt import _tt_svd


def matrix_with_spectrum(rng, sigma, cols):
    """Wide ``len(sigma) x cols`` matrix with the given singular values."""
    rows = len(sigma)
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    return (u * sigma) @ v.T


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices handed to the SVD driver."""
    calls = []
    original = lowrank._svd

    def counting(arr):
        calls.append(arr.shape)
        return original(arr)

    monkeypatch.setattr(lowrank, "_svd", counting)
    return calls


@pytest.fixture
def triangle_calls(monkeypatch):
    """Shapes of the tall matrices handed to the blocked QR."""
    calls = []
    original = lowrank._tall_triangle

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(lowrank, "_tall_triangle", counting)
    return calls


@pytest.fixture
def batched(monkeypatch):
    """Numbers of row blocks handed to each stacked QR call."""
    calls = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        if a.ndim == 3:
            calls.append(a.shape[0])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


class TestTruncatedSVD:
    """The truncation the sweeps run: ``M ~ U @ W`` with ``W = U^T M``."""

    def test_tail_energy_rule_on_diagonal(self):
        m = np.diag([3.0, 2.0, 1e-9])
        u, _, discarded = _truncated_svd_arrays(m, 1e-6)
        assert u.shape[1] == 2
        # the dropped tail plus the SVD route's own rounding estimate
        want = 1e-9 + _svd_rounding(3, np.linalg.norm(m))
        assert discarded == pytest.approx(want, rel=1e-6, abs=0)

    def test_identity_exact(self):
        u, w, _ = _truncated_svd_arrays(np.eye(2), 0.0)
        assert u.shape[1] == 2
        # the rows of W are s_i v_i^T, so their norms are the singular values
        assert np.allclose(np.linalg.norm(w, axis=1), [1.0, 1.0])

    def test_zero_matrix_degenerate_floor(self):
        u, w, discarded = _truncated_svd_arrays(np.zeros((3, 2)), 0.5)
        assert u.shape[1] == 1
        assert np.allclose(np.abs(u[:, 0]), [1.0, 0.0, 0.0])
        assert np.array_equal(w, np.zeros((1, 2)))
        assert discarded == 0.0

    def test_error_equals_discarded_energy(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 9))
        norm = np.linalg.norm(m)
        u, w, discarded = _truncated_svd_arrays(m, 0.3 * norm)
        err = np.linalg.norm(m - u @ w)
        assert err == pytest.approx(discarded, abs=1e-10 * norm)

    def test_zero_budget_reconstructs(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 6))
        u, w, _ = _truncated_svd_arrays(m, 0.0)
        assert np.linalg.norm(m - u @ w) <= 1e-10 * np.linalg.norm(m)

    def test_error_within_budget(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.standard_normal((7, 11))
            norm = np.linalg.norm(m)
            delta = rng.uniform(0, 1) * norm
            u, w, _ = _truncated_svd_arrays(m, delta)
            assert np.linalg.norm(m - u @ w) <= delta + 1e-10 * norm

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        u, w, _ = _truncated_svd_arrays(rng.standard_normal((10, 4)), 0.0)
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
        # the rows of W = diag(s) V^T are mutually orthogonal
        gram = w @ w.T
        assert np.allclose(gram, np.diag(np.diag(gram)), atol=1e-10)

    def test_nonincreasing_singular_values(self):
        # at budgets that drop something, on the Gram and the SVD route,
        # the rows of W = U^T M have the kept singular values as norms
        m = matrix_with_spectrum(
            np.random.default_rng(4), 10.0 ** (-1.5 * np.arange(9)), 9
        )
        norm = np.linalg.norm(m)
        for relative in (1e-4, 1e-9):
            _, w, _ = _truncated_svd_arrays(m, relative * norm)
            assert 1 < w.shape[0] < 9
            sv = np.linalg.norm(w, axis=1)
            assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0)
        # a zero budget keeps every row, and the matrix is kept whole
        u, w, discarded = _truncated_svd_arrays(m, 0.0)
        assert np.array_equal(u, np.eye(9)) and w is m and discarded == 0.0

    def test_non_finite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            _truncated_svd_arrays(bad, 0.0)

    @pytest.mark.parametrize("delta", [-1.0, np.nan])
    def test_bad_budget_rejected(self, delta):
        with pytest.raises(ConfigError):
            _truncated_svd_arrays(np.eye(3), delta)

    def test_huge_budget_keeps_rank_one(self):
        # the squared budget is inf, not an OverflowError
        m = np.random.default_rng(5).standard_normal((4, 6))
        u, _, _ = _truncated_svd_arrays(m, 1e300)
        assert u.shape[1] == 1


class TestGramTruncation:
    SPECTRA = {
        "slow": 0.9 ** np.arange(24),
        "geometric": 0.5 ** np.arange(24),
        "fast": 0.1 ** np.arange(12),
        "cliff": np.concatenate([np.linspace(3.0, 1.0, 8), 1e-4 * 0.5 ** np.arange(16)]),
    }

    @staticmethod
    def budget_between(sigma, keep):
        # halfway (geometrically) between the tail energies of ranks keep
        # and keep + 1, so no near-tie decides the rank
        tail = np.sqrt(np.cumsum(sigma[::-1] ** 2)[::-1])
        return float(np.sqrt(tail[keep] * tail[keep - 1]))

    @staticmethod
    def check_within_budget(svd_calls, m, delta, keep):
        norm = float(np.linalg.norm(m))
        assert delta >= lowrank.GRAM_MIN_RELATIVE_BUDGET * norm
        u, w, discarded = _truncated_svd_arrays(m, delta)
        assert svd_calls == []
        err = float(np.linalg.norm(m - u @ w))
        assert err <= delta
        assert discarded == pytest.approx(err, abs=1e-6 * norm)
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12
        gesdd = np.linalg.svd(m, compute_uv=False)
        assert u.shape[1] == svd_truncation_rank(gesdd, delta) == keep

    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    @pytest.mark.parametrize("keep", [1, 3, 6])
    def test_wide_matrix_within_budget(self, svd_calls, spectrum, keep):
        sigma = self.SPECTRA[spectrum]
        rng = np.random.default_rng([keep, len(sigma)])
        m = matrix_with_spectrum(rng, sigma, 3000)
        self.check_within_budget(
            svd_calls, m, self.budget_between(sigma, keep), keep
        )

    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    @pytest.mark.parametrize("keep", [1, 3, 6])
    def test_tall_matrix_within_budget(self, svd_calls, spectrum, keep):
        sigma = self.SPECTRA[spectrum]
        rng = np.random.default_rng([keep, len(sigma), 1])
        m = matrix_with_spectrum(rng, sigma, 3000).T
        self.check_within_budget(
            svd_calls, m, self.budget_between(sigma, keep), keep
        )

    @staticmethod
    def spectrum_500(seed, tall):
        m = matrix_with_spectrum(
            np.random.default_rng(seed), 0.5 ** np.arange(16), 500
        )
        return m.T if tall else m

    @staticmethod
    def check_small_budget_uses_svd(svd_calls, m):
        tall = m.shape[0] > m.shape[1]
        delta = 0.5 * lowrank.GRAM_MIN_RELATIVE_BUDGET * np.linalg.norm(m)
        u, w, _ = _truncated_svd_arrays(m, delta)
        # a wide matrix's SVD sees the triangle of a QR of its long side
        assert svd_calls == [m.shape if tall else (16, 16)]
        assert np.linalg.norm(m - u @ w) <= delta
        return u

    def test_small_budget_uses_svd(self, svd_calls):
        # the rank falls below the rows, so no Gram proves full rank first
        m = matrix_with_spectrum(
            np.random.default_rng(10), 0.1 ** np.arange(16), 500
        )
        u = self.check_small_budget_uses_svd(svd_calls, m)
        assert u.shape[1] < 16

    def test_tall_small_budget_uses_svd(self, svd_calls):
        self.check_small_budget_uses_svd(svd_calls, self.spectrum_500(10, True))

    def test_tall_matrix_uses_gram(self, svd_calls):
        m = self.spectrum_500(11, tall=True)
        delta = 1e-2 * np.linalg.norm(m)
        u, w, _ = _truncated_svd_arrays(m, delta)
        assert svd_calls == []
        assert u.shape == (500, w.shape[0]) and w.shape[1] == 16
        assert np.linalg.norm(m - u @ w) <= delta

    def test_zero_matrix_uses_svd(self, svd_calls):
        u, w, discarded = _truncated_svd_arrays(np.zeros((3, 50)), 0.5)
        assert svd_calls == [(3, 3)]
        assert u.shape == (3, 1) and w.shape == (1, 50)
        assert np.all(w == 0.0) and discarded == 0.0

    def check_over_budget_falls_back(self, svd_calls, monkeypatch, tall):
        m = self.spectrum_500(12, tall)
        eigh = np.linalg.eigh
        # right eigenvalues, wrong eigenvectors: the rank is chosen as
        # usual but the kept directions miss the budget
        monkeypatch.setattr(
            np.linalg, "eigh", lambda g: (eigh(g)[0], np.eye(g.shape[0]))
        )
        delta = 1e-2 * np.linalg.norm(m)
        u, w, _ = _truncated_svd_arrays(m, delta)
        assert svd_calls == [m.shape if tall else (16, 16)]
        assert np.linalg.norm(m - u @ w) <= delta

    def test_result_over_budget_falls_back(self, svd_calls, monkeypatch):
        self.check_over_budget_falls_back(svd_calls, monkeypatch, False)

    def test_tall_result_over_budget_falls_back(self, svd_calls, monkeypatch):
        self.check_over_budget_falls_back(svd_calls, monkeypatch, True)


class TestSVDRoute:
    """Budgets below the Gram route's: one LAPACK SVD, of the triangular
    factor when the matrix is at least twice as wide as it is tall."""

    SIGMA = 0.1 ** np.arange(16)

    @staticmethod
    def matrix(shape):
        """``shape`` has a side of 16, the length of ``SIGMA``."""
        rng = np.random.default_rng(list(shape))
        m = matrix_with_spectrum(rng, TestSVDRoute.SIGMA, max(shape))
        return m if shape[0] <= shape[1] else m.T

    # keep 7 leaves a budget near 3e-7 * ||M||, keep 13 one near
    # 3e-13 * ||M||, where the small singular values sit near gesdd's noise
    @pytest.mark.parametrize("keep", [7, 13])
    @pytest.mark.parametrize(
        "shape, factor",
        [((16, 400), (16, 16)), ((16, 5000), (16, 16)), ((400, 16), (400, 16)),
         ((16, 24), (16, 24)), ((24, 16), (24, 16))],
        ids=["wide", "wide-blocked", "tall", "near-square-wide", "near-square-tall"],
    )
    def test_certified_projection(self, svd_calls, batched, shape, factor, keep):
        m = self.matrix(shape)
        norm = float(np.linalg.norm(m))
        delta = TestGramTruncation.budget_between(self.SIGMA, keep)
        assert delta < lowrank.GRAM_MIN_RELATIVE_BUDGET * norm
        u, w, discarded = _truncated_svd_arrays(m, delta)
        assert svd_calls == [factor]
        # 5000 columns make two row blocks of 2048 and 904 leftover rows
        assert batched == ([2] if shape == (16, 5000) else [])
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-13
        assert np.max(np.abs(w - u.T @ m)) <= 1e-13 * norm
        assert discarded <= delta
        # measuring the error rounds too, by a few eps * ||M||
        err = np.linalg.norm(m - u @ w)
        assert err <= discarded + 4 * lowrank._EPS * norm
        sigma = np.linalg.svd(m, compute_uv=False)
        assert u.shape[1] == svd_truncation_rank(sigma, delta) == keep

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18,
        reason="needs a long double wider than float64 to measure eps-level errors",
    )
    @pytest.mark.parametrize(
        "shape",
        [(2, 2), (6, 2), (500, 2), (16, 400), (8, 9001), (400, 16), (64, 64)],
    )
    def test_rounding_is_certified(self, shape):
        # at a zero budget nothing is dropped: a wide (or square) matrix
        # is kept whole, with no error at all, and a tall one's whole
        # error is rounding; the positive budgets drop the values near
        # 1e-16, where gesdd's small singular values are mostly noise
        rng = np.random.default_rng(list(shape))
        wide = np.longdouble
        for relative, low in [(0.0, -8), (1e-15, -16), (1e-13, -16)]:
            sigma = np.logspace(0, low, min(shape))
            m = matrix_with_spectrum(rng, sigma, max(shape))
            m = m if shape[0] <= shape[1] else m.T
            norm = np.linalg.norm(m)
            delta = relative * norm
            u, w, discarded = _truncated_svd_arrays(m, delta)
            assert (u.shape[1] == min(shape)) == (relative == 0.0)
            err = np.linalg.norm(m.astype(wide) - u.astype(wide) @ w.astype(wide))
            if relative == 0.0 and shape[0] <= shape[1]:
                assert err == discarded == 0.0
            else:
                assert 0.0 < err <= discarded <= delta + 20 * lowrank._EPS * norm


class TestKeptWhole:
    """A wide (or square) matrix whose rank keeps every row is returned
    whole on the Gram and the SVD route: ``U = I``, ``W = M`` and nothing
    discarded.  A tall one still gets an orthonormal basis."""

    # singular values down to 1e-3 of the largest, so every budget of
    # these tests keeps them all
    @staticmethod
    def matrix(shape):
        rows, cols = min(shape), max(shape)
        m = matrix_with_spectrum(
            np.random.default_rng(list(shape)), np.logspace(0, -3, rows), cols
        )
        return m if shape[0] <= shape[1] else m.T

    @pytest.mark.parametrize(
        "relative", [0.0, 1e-12, 1e-5], ids=["zero", "svd", "gram"]
    )
    @pytest.mark.parametrize(
        "shape", [(16, 400), (16, 5000), (16, 24), (9, 9)],
        ids=["wide", "wide-blocked", "near-square", "square"],
    )
    def test_wide_full_rank_is_kept_whole(self, svd_calls, shape, relative):
        m = self.matrix(shape)
        u, w, discarded = _truncated_svd_arrays(m, relative * np.linalg.norm(m))
        assert np.array_equal(u, np.eye(shape[0])) and w is m
        assert discarded == 0.0
        assert np.linalg.norm(m - u @ w) == 0.0
        # on the SVD route, a matrix at least twice as wide as tall proves
        # its full rank from its Gram; the others choose it by their SVD
        gram_route = relative >= lowrank.GRAM_MIN_RELATIVE_BUDGET
        proved = shape[1] >= lowrank._FACTOR_FIRST_ASPECT * shape[0]
        assert (svd_calls == []) == (gram_route or proved)

    @pytest.mark.parametrize(
        "relative", [0.0, 1e-12, 1e-5], ids=["zero", "svd", "gram"]
    )
    @pytest.mark.parametrize(
        "shape", [(400, 16), (24, 16)], ids=["tall", "near-square"]
    )
    def test_tall_full_rank_gets_a_basis(self, shape, relative):
        m = self.matrix(shape)
        norm = float(np.linalg.norm(m))
        u, w, discarded = _truncated_svd_arrays(m, relative * norm)
        assert u.shape == shape and w.shape == (16, 16)
        assert np.max(np.abs(u.T @ u - np.eye(16))) <= 1e-13
        assert 0.0 < discarded
        assert np.linalg.norm(m - u @ w) <= discarded + 4 * lowrank._EPS * norm


class TestFullRankProof:
    """On the SVD route, a matrix at least twice as wide as tall first
    takes the eigenvalues of its Gram ``M M^T``.  Past ``delta^2 + (rows
    + cols) * eps * ||M||^2`` the smallest proves that the rank keeps
    every row, and the matrix is kept whole with no QR and no SVD;
    otherwise the SVD of the triangle chooses the rank as before."""

    @staticmethod
    def matrix(shape, smallest):
        """A matrix whose smallest singular value squared is ``smallest``
        times its norm squared; the others run from 1 to 1e-2."""
        rows, cols = shape
        sigma = np.logspace(0, -2, rows)
        rest = float(np.sum(sigma[:-1] ** 2))
        sigma[-1] = math.sqrt(smallest * rest / (1 - smallest))
        return matrix_with_spectrum(np.random.default_rng(list(shape)), sigma, cols)

    # each offset puts the smallest singular value (squared, at the
    # margin) that far to either side of the edge; 1e-8 is below what
    # gesdd resolves there, so only the route's own SVD is the reference
    @pytest.mark.parametrize("offset", [-1e-3, 1e-3, -1e-8, 1e-8])
    @pytest.mark.parametrize("edge", ["budget", "margin"])
    @pytest.mark.parametrize("relative", [0.0, 1e-12, 1e-9])
    @pytest.mark.parametrize(
        "shape", [(16, 400), (16, 5000)], ids=["wide", "wide-blocked"]
    )
    def test_rank_next_to_the_margin(
        self, svd_calls, triangle_calls, shape, relative, edge, offset
    ):
        rows, cols = shape
        if edge == "budget":
            smallest = (relative * (1 + offset)) ** 2
        else:
            smallest = (relative**2 + (rows + cols) * lowrank._EPS) * (1 + offset)
        m = self.matrix(shape, smallest)
        delta = relative * float(np.linalg.norm(m))
        assert delta < lowrank.GRAM_MIN_RELATIVE_BUDGET * np.linalg.norm(m)
        u, w, discarded = _truncated_svd_arrays(m, delta)
        rank = u.shape[1]
        if svd_calls == []:
            # proved full rank: kept whole, with no QR either
            assert triangle_calls == [] and rank == rows
            assert np.array_equal(u, np.eye(rows)) and w is m and discarded == 0.0
        else:
            assert svd_calls == [(rows, rows)] and triangle_calls == [m.T.shape]
        if edge == "budget":
            # far below the margin, no Gram proves anything
            assert svd_calls == [(rows, rows)]
        triangle = np.linalg.svd(lowrank._tall_triangle(m.T), compute_uv=False)
        assert rank == svd_truncation_rank(triangle, delta)
        if edge == "margin" or abs(offset) == 1e-3:
            gesdd = np.linalg.svd(m, compute_uv=False)
            assert rank == svd_truncation_rank(gesdd, delta)


class TestSketchAfterFailedProof:
    """A wide matrix whose full-rank proof fails is sketched by the range
    finder before the blocked QR when the proof's count of eigenvalues
    past the margin, a lower bound on the rank, is below the sketch's cap
    (a quarter of the rows, and at least ``_RANGE_FIRST_BLOCK``)."""

    SHAPE = (64, 16384)

    @pytest.fixture
    def range_calls(self, monkeypatch):
        """Shapes of the matrices handed to the range finder."""
        calls = []
        original = lowrank._range_truncation

        def counting(arr, delta, norm):
            calls.append(arr.shape)
            return original(arr, delta, norm)

        monkeypatch.setattr(lowrank, "_range_truncation", counting)
        return calls

    def matrix(self, sigma):
        rows, cols = self.SHAPE
        sigma = np.concatenate([sigma, np.zeros(rows - len(sigma))])
        return matrix_with_spectrum(np.random.default_rng(len(sigma)), sigma, cols)

    def test_graded_low_rank_is_sketched(self, range_calls, triangle_calls):
        m = self.matrix(0.1 ** np.arange(12))
        norm = float(np.linalg.norm(m))
        delta = 1e-12 * norm
        u, w, discarded = _truncated_svd_arrays(m, delta)
        assert range_calls == [self.SHAPE]
        # only the projected 16 x 16384 matrix took the blocked QR
        assert m.T.shape not in triangle_calls
        assert triangle_calls == [(self.SHAPE[1], lowrank._RANGE_FIRST_BLOCK)]
        assert u.shape[1] == 12 and discarded <= delta
        assert np.max(np.abs(w - u.T @ m)) <= 1e-12 * norm
        assert np.linalg.norm(m - u @ w) <= discarded + 4 * lowrank._EPS * norm

    def test_full_rank_is_kept_whole(self, range_calls, triangle_calls):
        m = matrix_with_spectrum(
            np.random.default_rng(64), np.logspace(0, -2, 64), self.SHAPE[1]
        )
        u, w, discarded = _truncated_svd_arrays(m, 1e-12 * np.linalg.norm(m))
        assert range_calls == [] and triangle_calls == []
        assert np.array_equal(u, np.eye(64)) and w is m and discarded == 0.0

    def test_high_rank_skips_the_sketch(self, monkeypatch, range_calls):
        # 40 values past the margin: more than a 16-column sketch can hold
        m = self.matrix(np.logspace(0, -3, 40))
        delta = 1e-12 * float(np.linalg.norm(m))
        got = _truncated_svd_arrays(m, delta)
        assert range_calls == [] and got[0].shape[1] == 40
        monkeypatch.setattr(lowrank, "_range_truncation", lambda *args: None)
        want = _truncated_svd_arrays(m, delta)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]


class TestResidualSquared:
    """``||M - Q B||_F^2`` over blocks along ``M``'s contiguous axis, in
    one reused block buffer."""

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_matches_dense_residual(self, order):
        # 4100 columns: the F-ordered matrix takes 9 column blocks, the
        # last of 4 columns, and the C-ordered one 10 row blocks, the last
        # of 1 row
        rng = np.random.default_rng(5)
        m = np.asarray(rng.standard_normal((64, 4100)), order=order)
        q = np.linalg.qr(rng.standard_normal((64, 16)))[0]
        b = q.T @ m
        want = math.fsum(((m - q @ b) ** 2).ravel())
        block = lowrank._TSQR_BLOCK_ENTRIES * m.itemsize
        tracemalloc.start()
        try:
            got = lowrank._residual_squared(m, q, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - want) <= 4 * lowrank._EPS * want
        # one block buffer, not one per block
        assert peak <= 1.25 * block


@pytest.mark.parametrize("relative", [1e-3, 1e-12], ids=["squares", "blockwise"])
def test_range_route_forms_no_full_size_temporary(relative):
    """The range route measures its residual from the norms of ``M`` and
    ``Q^T M`` at Gram budgets and row block by row block below them, so
    its peak stays far below one copy of the matrix."""
    rng = np.random.default_rng(29)
    left = np.linalg.qr(rng.standard_normal((1024, 64)))[0]
    right = np.linalg.qr(rng.standard_normal((1024, 64)))[0]
    m = (left * 0.3 ** np.arange(64)) @ right.T
    delta = relative * float(np.linalg.norm(m))
    tracemalloc.start()
    try:
        u, w, discarded = _truncated_svd_arrays(m, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 4
    assert discarded <= delta
    assert np.linalg.norm(m - u @ w) <= discarded + 4 * lowrank._EPS * np.linalg.norm(m)


def test_settling_run_never_sketches(monkeypatch):
    """Segments and merge of a settling run of 4096 particles keep every
    unfolding's smaller side below ``RANGE_MIN_SIDE``, so they never take
    the range route, and every truncation is certified by the Gram
    route, so none reaches the SVD route, which sketches too."""
    batch = synth_particles(4096, 96, "settle", seed=25)
    sides, sketched, exact = [], [], []
    truncate, sketch = tt._truncated_svd_arrays, lowrank._range_truncation
    svd_route = lowrank._exact_truncation
    monkeypatch.setattr(
        lowrank, "_exact_truncation",
        lambda arr, *args: exact.append(arr.shape) or svd_route(arr, *args),
    )

    def recording(arr, *args):
        sides.append(min(arr.shape))
        return truncate(arr, *args)

    monkeypatch.setattr(tt, "_truncated_svd_arrays", recording)
    monkeypatch.setattr(
        lowrank, "_range_truncation",
        lambda arr, *args: sketched.append(arr.shape) or sketch(arr, *args),
    )
    (merged,) = compress_run(
        batch.time_slice, batch.n_t, CompressionConfig(tolerance=1e-2)
    )
    assert merged.stack_dims == (3,)
    assert sketched == [] and exact == []
    assert max(sides) < lowrank.RANGE_MIN_SIDE


class TestTallTriangle:
    """The blocked QR behind the SVD route's triangle: ``R^T R = A^T A``
    and ``R``'s singular values are one flat QR's, to a few
    ``eps * ||A||``."""

    @staticmethod
    def rows(n):
        """Rows per block for ``n`` columns."""
        return max(4 * n, lowrank._TSQR_BLOCK_ENTRIES // n)

    @staticmethod
    def check(a):
        n = a.shape[1]
        r = _tall_triangle(a)
        assert r.shape == (n, n)
        assert np.array_equal(r, np.triu(r))
        # the Gram's defect measured at most 2.7 eps * ||A||^2 here, and
        # the singular values' at most 1.6 eps * ||A||
        norm = float(np.linalg.norm(a))
        tol = 8 * lowrank._EPS * norm
        assert np.max(np.abs(r.T @ r - a.T @ a), initial=0.0) <= tol * norm
        flat = np.linalg.svd(np.linalg.qr(a, mode="r"), compute_uv=False)
        got = np.linalg.svd(r, compute_uv=False)
        assert np.max(np.abs(got - flat), initial=0.0) <= tol

    @pytest.mark.parametrize(
        "n, blocks, extra",
        [(8, 1, 100), (8, 4, 0), (16, 3, 1000), (1, 2, 0), (1, 5, 7), (64, 2, 63),
         (256, 4, 0)],
        ids=["one-block", "multiple", "remainder", "n1", "n1-remainder",
             "remainder-below-n", "wide-block"],
    )
    def test_matches_flat_qr(self, batched, n, blocks, extra):
        rng = np.random.default_rng([n, blocks, extra])
        m = blocks * self.rows(n) + extra
        self.check(rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8, 0, n))
        assert batched == ([] if blocks < 2 else [blocks])

    def test_zero_columns(self):
        assert _tall_triangle(np.empty((3 * 2**15, 0))).shape == (0, 0)
        assert _tall_triangle(np.empty((5, 0))).shape == (0, 0)

    def test_rank_deficient(self, batched):
        rng = np.random.default_rng(7)
        n = 16
        a = rng.standard_normal((3 * self.rows(n) + 5, 5)) @ rng.standard_normal((5, n))
        a[:, 3] = 0.0
        self.check(a)
        assert batched == [3]
        s = np.linalg.svd(_tall_triangle(a), compute_uv=False)
        assert np.all(s[5:] <= 1e-13 * s[0])

    def test_non_contiguous(self, batched):
        # the sweeps hand over M^T of an F-ordered M, which is C-ordered;
        # strided and F-ordered inputs give a contiguous copy's R
        rng = np.random.default_rng(3)
        n, m = 8, 5 * self.rows(8) + 3
        columns = rng.standard_normal((m, 2 * n))[:, ::2]
        rows = rng.standard_normal((2 * m, n))[::2]
        for a in (columns, rows, np.asfortranarray(columns)):
            self.check(a)
            assert np.array_equal(_tall_triangle(a), _tall_triangle(a.copy()))
        assert batched == [5] * 9


class TestRangeTruncation:
    """Matrices whose smaller side reaches ``RANGE_MIN_SIDE`` are sketched."""

    @staticmethod
    def geometric_700x600():
        rng = np.random.default_rng(18)
        u, _ = np.linalg.qr(rng.standard_normal((700, 600)))
        v, _ = np.linalg.qr(rng.standard_normal((600, 600)))
        return (u * 0.7 ** np.arange(600)) @ v.T

    @pytest.fixture
    def direct_shapes(self, monkeypatch):
        """Shapes of the matrices the Gram and SVD routes truncate."""
        shapes = []
        original = lowrank._direct_truncation

        def recording(arr, delta, norm):
            shapes.append(arr.shape)
            return original(arr, delta, norm)

        monkeypatch.setattr(lowrank, "_direct_truncation", recording)
        return shapes

    @pytest.mark.parametrize("relative", [1e-2, 5e-13], ids=["gram", "svd"])
    def test_certified_and_repeatable(self, svd_calls, direct_shapes, relative):
        m = self.geometric_700x600()
        assert min(m.shape) >= lowrank.RANGE_MIN_SIDE
        norm = float(np.linalg.norm(m))
        delta = relative * norm
        u, w, discarded = _truncated_svd_arrays(m, delta)
        # only the projected matrix reached the direct routes
        assert len(direct_shapes) == 1
        assert min(direct_shapes[0]) < lowrank.RANGE_MIN_SIDE
        assert all(min(shape) < lowrank.RANGE_MIN_SIDE for shape in svd_calls)
        gram_route = relative >= lowrank.GRAM_MIN_RELATIVE_BUDGET
        assert (svd_calls == []) == gram_route
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12
        assert np.max(np.abs(w - u.T @ m)) <= 1e-12 * norm
        slack = min(direct_shapes[0]) * lowrank._EPS * norm**2 if gram_route else 0.0
        assert discarded <= np.sqrt(delta**2 + slack)
        # measuring the error rounds too, by a few eps * ||M||
        err = np.linalg.norm(m - u @ w)
        assert err <= discarded + 4 * lowrank._EPS * norm
        again = _truncated_svd_arrays(m, delta)
        assert np.array_equal(again[0], u) and np.array_equal(again[1], w)
        assert again[2] == discarded

    def test_kernel_unfolding_is_sketched(
        self, svd_calls, direct_shapes, triangle_calls
    ):
        # the shape of the kernel study's level-7 unfolding, of numerical
        # rank 16, at a budget below the Gram route's: the first sketch
        # certifies, and neither the SVD nor the blocked QR sees the
        # whole matrix, only the projected 16 x 4096 one
        m = matrix_with_spectrum(
            np.random.default_rng(21), 0.1 ** np.arange(256), 4096
        )
        assert min(m.shape) == lowrank.RANGE_MIN_SIDE
        norm = float(np.linalg.norm(m))
        delta = 1e-9 * norm
        assert delta < lowrank.GRAM_MIN_RELATIVE_BUDGET * norm
        u, w, discarded = _truncated_svd_arrays(m, delta)
        k = lowrank._RANGE_FIRST_BLOCK
        assert direct_shapes == [(k, 4096)]
        assert triangle_calls == [(4096, k)] and svd_calls == [(k, k)]
        assert u.shape == (256, 10) and discarded <= delta
        assert np.max(np.abs(w - u.T @ m)) <= 1e-12 * norm
        assert np.linalg.norm(m - u @ w) <= discarded + 4 * lowrank._EPS * norm

    def test_full_rank_falls_back_bit_for_bit(self, monkeypatch):
        m = np.random.default_rng(19).standard_normal((600, 600))
        delta = 1e-3 * np.linalg.norm(m)
        got = _truncated_svd_arrays(m, delta)
        monkeypatch.setattr(lowrank, "RANGE_MIN_SIDE", math.inf)
        want = _truncated_svd_arrays(m, delta)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @pytest.mark.parametrize(
        "shape, relative", [((600, 600), 1e-3), ((512, 8192), 1e-2)]
    )
    def test_hopeless_sketching_stops_at_once(
        self, monkeypatch, direct_shapes, shape, relative
    ):
        # a Gaussian matrix's flat spectrum: at the energy its first block
        # captures per column, no sketch up to a quarter of the smaller
        # side leaves delta^2 / 2, so no second sketch is drawn
        m = np.random.default_rng(19).standard_normal(shape)
        norm = float(np.linalg.norm(m))
        delta = relative * norm
        qr = np.linalg.qr
        sketches = []

        def counting(a, *args, **kwargs):
            if not args and not kwargs and a.shape[0] == shape[0]:
                sketches.append(a.shape[1])
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        u, w, discarded = _truncated_svd_arrays(m, delta)
        assert sketches == [lowrank._RANGE_FIRST_BLOCK]
        # the whole matrix went on to the direct route
        assert direct_shapes == [shape]
        slack = min(shape) * lowrank._EPS * norm**2
        assert discarded <= np.sqrt(delta**2 + slack)
        err = np.linalg.norm(m - u @ w)
        assert err <= discarded + 4 * lowrank._EPS * norm


def failing_svd(monkeypatch, failures):
    """Make ``np.linalg.svd`` raise ``LinAlgError`` on its first
    ``failures`` calls (``math.inf``: on every call); returns the shapes
    of the matrices it was handed."""
    svd = np.linalg.svd
    calls = []

    def patched(arr, *args, **kwargs):
        calls.append(arr.shape)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(arr, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", patched)
    return calls


def test_first_svd_pins_the_blas_it_loads(numpy_only):
    """In a fresh interpreter with scipy unimportable and numpy's SVD
    failing, the fallback certifies, and importing the package runs every
    OpenBLAS it loads on one thread."""
    _, got = numpy_only
    assert got["err"] <= got["discarded"] + 4 * lowrank._EPS * got["norm"]
    assert got["threads"] == {name: 1 for name in got["threads"]}


class TestSVDFallback:
    """When ``gesdd`` fails to converge, :func:`lowrank._svd` retries on
    the transpose, then runs a one-sided Jacobi SVD; either keeps the
    SVD route's certificate."""

    @staticmethod
    def graded(shape, zero_cols=0):
        """Singular values ``10^(-1.5 i)``, so that the budgets 1e-8 and
        1e-14 times the norm fall at least a factor 3 from every tail
        energy; ``zero_cols`` trailing zero columns, for which every
        driver returns exact zero singular values."""
        rows, cols = shape
        rank = min(rows, cols - zero_cols)
        rng = np.random.default_rng([rows, cols, zero_cols])
        u, _ = np.linalg.qr(rng.standard_normal((rows, rank)))
        v, _ = np.linalg.qr(rng.standard_normal((cols - zero_cols, rank)))
        m = np.zeros(shape)
        m[:, : cols - zero_cols] = (u * 10.0 ** (-1.5 * np.arange(rank))) @ v.T
        return m

    @pytest.mark.parametrize("failures", [1, math.inf], ids=["transpose", "jacobi"])
    @pytest.mark.parametrize("relative", [0.0, 1e-14, 1e-8])
    @pytest.mark.parametrize(
        "shape, zero_cols",
        [((16, 400), 0), ((400, 16), 0), ((64, 64), 0), ((12, 40), 30),
         ((40, 12), 4)],
        ids=["wide", "tall", "square", "zero-cols-wide", "zero-cols-tall"],
    )
    def test_keeps_rank_and_certificate(
        self, monkeypatch, shape, zero_cols, relative, failures
    ):
        m = self.graded(shape, zero_cols)
        norm = float(np.linalg.norm(m))
        delta = relative * norm
        assert delta < lowrank.GRAM_MIN_RELATIVE_BUDGET * norm
        want = _truncated_svd_arrays(m, delta)[0].shape[1]
        calls = failing_svd(monkeypatch, failures)
        u, w, discarded = _truncated_svd_arrays(m, delta)
        # gesdd was tried on the matrix (or its triangle) and its transpose
        assert len(calls) == 2 and calls[1] == calls[0][::-1]
        assert u.shape[1] == want
        err = float(np.linalg.norm(m - u @ w))
        assert err <= discarded + 4 * lowrank._EPS * norm

    def test_kernel_train_meets_tau(self, monkeypatch):
        # the interlaced kernel study at 64 x 64, every SVD by Jacobi
        # rotations; tau = 1e-14 holds with no allowance
        x = tensorize_matrix_interlaced(sample_kernel_matrix(1e-5, 6), 3)
        tau = 1e-14
        calls = failing_svd(monkeypatch, math.inf)
        train, lost = _tt_svd(x, tau)
        assert calls
        err = rel_frob(x, tt_full(train))
        assert err <= tau
        assert err <= lost / np.linalg.norm(x.values)

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.sets(st.integers(0, 39), max_size=12),
    )
    def test_singular_values_match_gesdd(self, rows, cols, seed, zero_cols):
        rng = np.random.default_rng(seed)
        # columns scaled over eight decades, some of them zero
        m = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-8, 0, cols)
        m[:, [j for j in zero_cols if j < cols]] = 0.0
        u, s, vt = _jacobi_svd(m)
        k = min(rows, cols)
        assert u.shape == (rows, k) and s.shape == (k,) and vt.shape == (k, cols)
        norm = float(np.linalg.norm(m))
        tol = 4 * max(rows, cols) * lowrank._EPS * norm
        assert np.all(np.abs(s - np.linalg.svd(m, compute_uv=False)) <= tol)
        assert np.all(np.diff(s) <= 0)
        # near eps, where a zero column handled wrongly leaves an O(1) gap
        assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-13
        assert np.max(np.abs(vt @ vt.T - np.eye(k))) <= 1e-13
        assert np.linalg.norm(m - (u * s) @ vt) <= tol

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lowrank, "_JACOBI_MAX_SWEEPS", 1)
        m = self.graded((8, 8))
        with pytest.raises(TTCompressError, match="did not converge"):
            _jacobi_svd(m)


class TestSpectralNormEstimate:
    def test_known_spectrum(self):
        a = np.diag([5.0, 1.0])
        est = spectral_norm_estimate(
            lambda v: a @ v, lambda v: a.T @ v, a.shape, tol=1e-6
        )
        assert est.converged
        assert est.value == pytest.approx(5.0, rel=5e-6)

    def test_zero_operator(self):
        a = np.zeros((4, 4))
        est = spectral_norm_estimate(
            lambda v: a @ v, lambda v: a.T @ v, a.shape, tol=1e-3
        )
        assert est.value == 0.0 and est.converged

    def test_against_full_svd(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((50, 50))
        sigma = np.linalg.svd(a, compute_uv=False)[0]
        est = spectral_norm_estimate(
            lambda v: a @ v, lambda v: a.T @ v, a.shape, tol=1e-6, seed=1
        )
        assert est.value == pytest.approx(sigma, rel=1e-6)

    def test_iteration_cap_reports_flag(self):
        a = np.diag([2.0, 1.99999])
        est = spectral_norm_estimate(
            lambda v: a @ v,
            lambda v: a.T @ v,
            a.shape,
            tol=1e-9,
            max_iterations=1,
        )
        assert not est.converged
        assert est.iterations == 1
        assert est.value > 0

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_no_iterations_rejected(self, max_iterations):
        a = np.eye(2)
        with pytest.raises(ConfigError, match="max_iterations"):
            spectral_norm_estimate(
                lambda v: a @ v, lambda v: a.T @ v, a.shape,
                max_iterations=max_iterations,
            )

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_empty_operator_rejected(self, shape):
        a = np.zeros(shape)
        with pytest.raises(ShapeError, match="extents"):
            spectral_norm_estimate(lambda v: a @ v, lambda v: a.T @ v, shape)
