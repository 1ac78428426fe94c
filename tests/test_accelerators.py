import math

import numpy as np
import pytest

from wristband.accelerators import (
    EIGENVALUE_CLAMP,
    moment_summary,
    moment_w2_loss,
    moment_w2_value,
    radial_w2_loss,
    symmetric_eigen,
)
from wristband.errors import ContractViolation
from wristband.pairwise import KernelConfig, pairwise_repulsion_loss
from wristband.parity import finite_difference_check
from wristband.wristband_map import wristband_forward


class TestSymmetricEigen:
    def test_identity(self):
        vals, vecs = symmetric_eigen(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.T, np.eye(4), atol=1e-12)

    def test_diagonal(self):
        vals, vecs = symmetric_eigen(np.diag([4.0, 1.0]))
        assert np.allclose(vals, [4.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(8, 8))
            m = 0.5 * (m + m.T)
            vals, vecs = symmetric_eigen(m)
            recon = vecs @ np.diag(vals) @ vecs.T
            rel = np.linalg.norm(recon - m) / np.linalg.norm(m)
            assert rel <= 1e-9
            assert np.all(np.diff(vals) <= 1e-12)  # descending
            assert np.max(np.abs(vecs.T @ vecs - np.eye(8))) <= 1e-10

    def test_contract_violations(self):
        with pytest.raises(ContractViolation):
            symmetric_eigen(np.ones((3, 2)))
        with pytest.raises(ContractViolation):
            symmetric_eigen(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        m = np.array([[1.0, 2.0], [2.1, 1.0]])
        with pytest.raises(ContractViolation):
            symmetric_eigen(m)


class TestRadialW2:
    def test_exact_grid_is_zero(self):
        n, d = 64, 3
        rng = np.random.default_rng(1)
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        wb = wristband_forward(np.ones((1, d)))
        wb = type(wb)(u=u, t=(np.arange(n) + 0.5) / n, s=np.ones(n),
                      norm_floored=np.zeros(n, dtype=bool))
        assert radial_w2_loss(wb).value == 0.0

    def test_hand_value_n2(self):
        wb = wristband_forward(np.ones((1, 2)))
        wb = type(wb)(u=np.eye(2), t=np.array([0.0, 1.0]), s=np.ones(2),
                      norm_floored=np.zeros(2, dtype=bool))
        assert radial_w2_loss(wb).value == pytest.approx(0.0625, abs=1e-15)

    def test_null_mean_matches_order_statistics_oracle(self):
        # Exact expectation under t ~ Unif[0,1]:
        # E = (1/N) sum_i [Var U_(i) + (E U_(i) - g_i)^2] with
        # E U_(i) = i/(N+1), Var U_(i) = i (N+1-i) / ((N+1)^2 (N+2)).
        n = 256
        i = np.arange(1, n + 1)
        var = i * (n + 1 - i) / ((n + 1.0) ** 2 * (n + 2.0))
        bias = i / (n + 1.0) - (i - 0.5) / n
        exact = float(np.mean(var + bias * bias))
        rng = np.random.default_rng(2)
        sims = []
        for _ in range(400):
            t = np.sort(rng.random(n))
            sims.append(np.mean((t - (i - 0.5) / n) ** 2))
        se = np.std(sims, ddof=1) / math.sqrt(len(sims))
        assert abs(np.mean(sims) - exact) < 4.0 * se
        # and the closed-form large-N behaviour is 1/(6N) + O(1/N^2)
        assert exact == pytest.approx(1.0 / (6.0 * n), rel=0.02)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        wb = wristband_forward(x)
        v1 = radial_w2_loss(wb).value
        perm = rng.permutation(40)
        v2 = radial_w2_loss(wristband_forward(x[perm])).value
        assert v2 == pytest.approx(v1, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24, 4))
        report = finite_difference_check(lambda b: radial_w2_loss(wristband_forward(b)), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999


class TestMomentW2:
    def test_exactly_standardized_batch_is_zero(self):
        rng = np.random.default_rng(4)
        from wristband.generators import whiten

        x = whiten(rng.normal(size=(100, 5)))
        assert moment_w2_loss(x).value == pytest.approx(0.0, abs=1e-20)

    def test_collapsed_batch_hand_value(self):
        # All points identical at mu = e_1: covariance zero, every
        # eigenvalue clamps, value = ||mu||^2 + d (sqrt(clamp) - 1)^2.
        d = 4
        x = np.tile(np.eye(d)[0], (10, 1))
        expected = 1.0 + d * (math.sqrt(EIGENVALUE_CLAMP) - 1.0) ** 2
        out = moment_w2_loss(x)
        assert out.value == pytest.approx(expected, rel=1e-12)
        assert np.all(np.isfinite(out.grad))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert moment_w2_loss(x @ q.T).value == pytest.approx(moment_w2_loss(x).value, rel=1e-10)

    def test_zero_iff_standard_moments(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 3)) + 0.5
        assert moment_w2_loss(x).value > 1e-3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(32, 5))
        report = finite_difference_check(lambda b: moment_w2_loss(b), x)
        assert report.rel_l2_error <= 1e-4
        assert report.cosine >= 0.99999

    def test_near_degenerate_gradient_finite(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(20, 1))
        x = np.hstack([base, base * 1.0000001, rng.normal(size=(20, 1)) * 1e-7])
        out = moment_w2_loss(x)
        assert np.all(np.isfinite(out.grad))

    def test_summary_contracts(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        ms = moment_summary(x)
        assert np.allclose(ms.cov, ms.cov.T, atol=1e-12)
        assert np.all(np.diff(ms.eigvals) <= 1e-12)
        with pytest.raises(ContractViolation):
            moment_w2_loss(x[:1])

    @pytest.mark.parametrize("batch, error", [
        (np.ones(4), ContractViolation),
        (np.ones((1, 3)), ContractViolation),  # one row has no covariance
        (np.ones((5, 1)), ContractViolation),
        (np.array([[1.0, 2.0], [np.nan, 0.0], [0.0, 1.0]]), ContractViolation),
    ])
    def test_public_entries_validate_the_batch(self, batch, error):
        for fn in (moment_summary, moment_w2_value, moment_w2_loss):
            with pytest.raises(error):
                fn(batch)

    def test_value_only_path_matches_loss(self):
        x = np.random.default_rng(9).normal(size=(40, 3))
        assert moment_w2_value(x) == moment_w2_loss(x).value


class TestSaturatedRadius:
    """A point far out in the tail maps to t = 1.0, where dt/dx underflows."""

    @staticmethod
    def batch_with_point_at(norm):
        x = np.random.default_rng(0).normal(size=(64, 8))
        x[5] *= norm / np.linalg.norm(x[5])
        return x

    def test_only_the_moment_term_pulls_it_back(self):
        x = self.batch_with_point_at(34.0)  # s = 1156, chi2_8 density 1.5e-244
        wb = wristband_forward(x)
        assert wb.t[5] == 1.0
        assert np.max(np.abs(radial_w2_loss(wb).grad[5])) <= 1e-240
        rep = pairwise_repulsion_loss(x, KernelConfig.direct_benchmark()).grad
        assert np.all(np.isfinite(rep))
        norms = np.linalg.norm(rep, axis=1)
        assert 0.0 < norms[5] <= 1e-6 * np.median(norms)
        # A descent step on the moment term shrinks the point's norm.
        assert moment_w2_loss(x).grad[5] @ x[5] > 1.0

    def test_radial_gradient_is_exactly_zero_once_the_density_underflows(self):
        x = self.batch_with_point_at(40.0)
        wb = wristband_forward(x)
        assert wb.t[5] == 1.0
        assert np.all(radial_w2_loss(wb).grad[5] == 0.0)
