import numpy as np
import pytest
import scipy.linalg

from ttcompress import (
    DataError,
    DenseMatrix,
    lowrank,
    spectral_norm_estimate,
    truncated_svd,
)
from ttcompress.lowrank import _truncated_svd_arrays, svd_truncation_rank


def random_matrix(rng, m, n):
    return DenseMatrix.from_numpy(rng.standard_normal((m, n)))


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

    def counting(arr, accurate=False):
        calls.append(arr.shape)
        return original(arr, accurate=accurate)

    monkeypatch.setattr(lowrank, "_svd", counting)
    return calls


class TestTruncatedSVD:
    def test_tail_energy_rule_on_diagonal(self):
        m = DenseMatrix.from_numpy(np.diag([3.0, 2.0, 1e-9]))
        res = truncated_svd(m, 1e-6)
        assert res.rank == 2
        assert res.discarded_energy == pytest.approx(1e-9, rel=1e-6)

    def test_identity_exact(self):
        res = truncated_svd(DenseMatrix.from_numpy(np.eye(2)), 0.0)
        assert res.rank == 2
        assert np.allclose(res.singular_values, [1.0, 1.0])

    def test_zero_matrix_degenerate_floor(self):
        res = truncated_svd(DenseMatrix.from_numpy(np.zeros((3, 2))), 0.5)
        assert res.rank == 1
        assert np.allclose(res.singular_values, [0.0])
        assert np.allclose(np.abs(res.U.to_numpy()[:, 0]), [1.0, 0.0, 0.0])
        assert np.allclose(np.abs(res.V.to_numpy()[:, 0]), [1.0, 0.0])

    def test_error_equals_discarded_energy(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 12, 9)
        norm = np.linalg.norm(m.to_numpy())
        res = truncated_svd(m, 0.3 * norm)
        err = np.linalg.norm(m.to_numpy() - res.reconstruct())
        assert err == pytest.approx(res.discarded_energy, abs=1e-10 * norm)

    def test_zero_budget_reconstructs(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 8, 6)
        res = truncated_svd(m, 0.0)
        norm = np.linalg.norm(m.to_numpy())
        assert np.linalg.norm(m.to_numpy() - res.reconstruct()) <= 1e-10 * norm

    def test_error_within_budget(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_matrix(rng, 7, 11)
            norm = np.linalg.norm(m.to_numpy())
            delta = rng.uniform(0, 1) * norm
            res = truncated_svd(m, delta)
            err = np.linalg.norm(m.to_numpy() - res.reconstruct())
            assert err <= delta + 1e-10 * norm

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        res = truncated_svd(random_matrix(rng, 10, 4), 0.0)
        u = res.U.to_numpy()
        v = res.V.to_numpy()
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-10)

    def test_nonincreasing_singular_values(self):
        rng = np.random.default_rng(4)
        res = truncated_svd(random_matrix(rng, 9, 9), 0.0)
        sv = res.singular_values
        assert np.all(sv[:-1] >= sv[1:]) and np.all(sv >= 0)

    def test_non_finite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            truncated_svd(DenseMatrix.from_numpy(bad), 0.0)


class TestGramTruncation:
    SPECTRA = {
        "slow": 0.9 ** np.arange(24),
        "geometric": 0.5 ** np.arange(24),
        "fast": 0.1 ** np.arange(12),
        "cliff": np.concatenate([np.linspace(3.0, 1.0, 8), 1e-4 * 0.5 ** np.arange(16)]),
    }

    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    @pytest.mark.parametrize("keep", [1, 3, 6])
    def test_wide_matrix_within_budget(self, svd_calls, spectrum, keep):
        sigma = self.SPECTRA[spectrum]
        rng = np.random.default_rng([keep, len(sigma)])
        m = matrix_with_spectrum(rng, sigma, 3000)
        # budget halfway (geometrically) between the tail energies of
        # ranks keep and keep + 1, so no near-tie decides the rank
        tail = np.sqrt(np.cumsum(sigma[::-1] ** 2)[::-1])
        delta = float(np.sqrt(tail[keep] * tail[keep - 1]))
        norm = float(np.linalg.norm(m))
        assert delta >= lowrank.GRAM_MIN_RELATIVE_BUDGET * norm
        u, w, discarded = _truncated_svd_arrays(m, delta)
        assert svd_calls == []
        err = float(np.linalg.norm(m - u @ w))
        assert err <= delta
        assert discarded == pytest.approx(err, abs=1e-6 * norm)
        gram = u.T @ u
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12
        gesdd = scipy.linalg.svd(m, compute_uv=False, lapack_driver="gesdd")
        assert u.shape[1] == svd_truncation_rank(gesdd, delta) == keep

    def test_small_budget_uses_svd(self, svd_calls):
        rng = np.random.default_rng(10)
        m = matrix_with_spectrum(rng, 0.5 ** np.arange(16), 500)
        delta = 0.5 * lowrank.GRAM_MIN_RELATIVE_BUDGET * np.linalg.norm(m)
        u, w, _ = _truncated_svd_arrays(m, delta)
        assert svd_calls == [m.shape]
        assert np.linalg.norm(m - u @ w) <= delta

    def test_tall_matrix_uses_svd(self, svd_calls):
        rng = np.random.default_rng(11)
        m = matrix_with_spectrum(rng, 0.5 ** np.arange(16), 500).T
        delta = 1e-2 * np.linalg.norm(m)
        u, w, _ = _truncated_svd_arrays(m, delta)
        assert svd_calls == [m.shape]
        assert np.linalg.norm(m - u @ w) <= delta

    def test_zero_matrix_uses_svd(self, svd_calls):
        u, w, discarded = _truncated_svd_arrays(np.zeros((3, 50)), 0.5)
        assert svd_calls == [(3, 50)]
        assert u.shape == (3, 1) and w.shape == (1, 50)
        assert np.all(w == 0.0) and discarded == 0.0

    def test_result_over_budget_falls_back(self, svd_calls, monkeypatch):
        rng = np.random.default_rng(12)
        m = matrix_with_spectrum(rng, 0.5 ** np.arange(16), 500)
        eigh = np.linalg.eigh
        # right eigenvalues, wrong eigenvectors: the rank is chosen as
        # usual but the kept directions miss the budget
        monkeypatch.setattr(
            np.linalg, "eigh", lambda g: (eigh(g)[0], np.eye(g.shape[0]))
        )
        delta = 1e-2 * np.linalg.norm(m)
        u, w, _ = _truncated_svd_arrays(m, delta)
        assert svd_calls == [m.shape]
        assert np.linalg.norm(m - u @ w) <= delta

    def test_public_truncated_svd_is_exact(self, svd_calls):
        rng = np.random.default_rng(13)
        m = matrix_with_spectrum(rng, 0.5 ** np.arange(16), 500)
        res = truncated_svd(m, 1e-2 * np.linalg.norm(m))
        assert svd_calls == [m.shape]
        v = res.V.to_numpy()
        assert np.allclose(v.T @ v, np.eye(res.rank), atol=1e-12)


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
