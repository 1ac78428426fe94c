import math

import numpy as np
import pytest
from scipy import stats

from wristband.errors import ContractViolation
from wristband.generators import (
    PARITY_KINDS,
    RngStream,
    gaussian_batch,
    parity_batch,
    rac_batch,
    whiten,
    x_batch,
)
from wristband.wristband_map import wristband_forward


class TestRngStream:
    def test_same_seed_label_reproduces(self):
        a = RngStream(42, "x").normals(1000)
        b = RngStream(42, "x").normals(1000)
        assert np.array_equal(a, b)

    def test_labels_decorrelate(self):
        a = RngStream(42, "x").normals(1000)
        b = RngStream(42, "y").normals(1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_child_streams(self):
        root = RngStream(7, "root")
        a = root.child("a").uniform(10)
        b = root.child("b").uniform(10)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, RngStream(7, "root/a").uniform(10))

    def test_normals_are_standard(self):
        z = RngStream(1, "moments").normals(200_000)
        assert abs(z.mean()) < 4.0 / math.sqrt(len(z))
        assert abs(z.std() - 1.0) < 0.01
        # normality sanity via excess kurtosis
        assert abs(stats.kurtosis(z)) < 0.05

    def test_indices_uniform(self):
        idx = RngStream(2, "idx").indices(60_000, 7)
        counts = np.bincount(idx, minlength=7)
        assert np.all(counts > 60_000 / 7 * 0.9)
        assert idx.max() == 6 and idx.min() == 0


class TestGaussianBatch:
    def test_moments(self):
        x = gaussian_batch(50_000, 6, RngStream(3, "g"))
        assert np.max(np.abs(x.mean(axis=0))) < 4.0 / math.sqrt(50_000)
        cov = x.T @ x / 50_000
        se = math.sqrt(2.0 / 50_000)
        assert np.max(np.abs(np.diag(cov) - 1.0)) < 5.0 * se
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 5.0 / math.sqrt(50_000)

    def test_first_row_frozen(self):
        x = gaussian_batch(4, 3, RngStream(123, "frozen"))
        y = gaussian_batch(4, 3, RngStream(123, "frozen"))
        assert np.array_equal(x, y)


class TestXBatch:
    def test_one_hot_rows(self):
        x = x_batch(2000, 5, RngStream(4, "x"))
        nonzero = np.count_nonzero(x, axis=1)
        assert np.all(nonzero == 1)

    def test_support_bound(self):
        d = 6
        x = x_batch(5000, d, RngStream(5, "x"))
        assert np.max(np.abs(x)) <= math.sqrt(3.0 * d)

    def test_identity_covariance(self):
        d, n = 4, 200_000
        x = x_batch(n, d, RngStream(6, "x"))
        second = (x * x).sum(axis=0) / n
        # Var of one coordinate's squared value: coordinate active w.p.
        # 1/d with value^2 ~ 3d * U^2; se estimated from the sample.
        se = np.std(x * x, axis=0, ddof=1) / math.sqrt(n)
        assert np.max(np.abs(second - 1.0) / se) < 5.0


class TestRacBatch:
    def test_radial_marginal_preserved_exactly(self):
        n, d = 3000, 8
        stream = RngStream(7, "rac")
        raw = stream.normal_matrix(n, d)
        radial = stream.normal_matrix(n, d)
        chi_draws = np.sort(np.linalg.norm(radial, axis=1))
        x = rac_batch(n, d, RngStream(7, "rac"))
        assert np.allclose(np.sort(np.linalg.norm(x, axis=1)), chi_draws, atol=1e-12)

    def test_rankwise_comonotone(self):
        x = rac_batch(1000, 6, RngStream(8, "rac"))
        norms = np.linalg.norm(x, axis=1)
        u = x / norms[:, None]
        usq = u * u
        score = -np.sum(usq * np.log(usq + 1e-12), axis=1)
        rho = stats.spearmanr(norms, score).statistic
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_t_marginal_uniform_but_dependent(self):
        n, d = 4096, 10
        x = rac_batch(n, d, RngStream(9, "rac"))
        wb = wristband_forward(x)
        ts = np.sort(wb.t)
        ks = max(
            np.max(np.abs(ts - np.arange(1, n + 1) / n)),
            np.max(np.abs(ts - np.arange(n) / n)),
        )
        assert ks < 1.63 / math.sqrt(n)  # marginal passes
        usq = wb.u**2
        score = -np.sum(usq * np.log(usq + 1e-12), axis=1)
        assert stats.spearmanr(wb.t, score).statistic > 0.9  # joint fails


class TestParityBatches:
    @pytest.mark.parametrize("kind", PARITY_KINDS)
    def test_reproducible(self, kind):
        a = parity_batch(kind, 200, 8, RngStream(1, "p"))
        b = parity_batch(kind, 200, 8, RngStream(1, "p"))
        assert np.array_equal(a, b)

    def test_student_t_whitened(self):
        x = parity_batch("student_t", 500, 6, RngStream(2, "p"))
        cov = (x - x.mean(0)).T @ (x - x.mean(0)) / 500
        assert np.max(np.abs(cov - np.eye(6))) < 1e-6
        assert np.max(np.abs(x.mean(axis=0))) < 1e-12

    def test_ring_whitened_and_shaped(self):
        x = parity_batch("ring", 800, 8, RngStream(3, "p"))
        cov = (x - x.mean(0)).T @ (x - x.mean(0)) / 800
        assert np.max(np.abs(cov - np.eye(8))) < 1e-6

    def test_two_mode_bimodal_first_coordinate(self):
        x = parity_batch("two_mode", 2000, 4, RngStream(4, "p"))
        first = x[:, 0]
        # Mode-count heuristic: the centre is a density dip between the
        # two means at +-2.
        centre = np.mean(np.abs(first) < 0.5)
        shoulders = np.mean((np.abs(first) > 1.5) & (np.abs(first) < 2.5))
        assert shoulders > 2.0 * centre

    def test_mixture5_standardized(self):
        x = parity_batch("mixture5", 1000, 5, RngStream(5, "p"))
        assert np.max(np.abs(x.mean(axis=0))) < 1e-12
        assert np.max(np.abs(x.std(axis=0) - 1.0)) < 1e-12

    def test_rank_precondition(self):
        with pytest.raises(ContractViolation):
            parity_batch("student_t", 9, 5, RngStream(6, "p"))

    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            parity_batch("spiral", 100, 4, RngStream(7, "p"))


class TestWhiten:
    def test_idempotent_on_white_batch(self):
        rng = np.random.default_rng(10)
        x = whiten(rng.normal(size=(300, 4)))
        y = whiten(x)
        assert np.max(np.abs(y - x)) < 1e-8

    def test_anisotropic_becomes_white(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 5)) @ np.diag([5.0, 2.0, 1.0, 0.3, 0.1]) + 3.0
        y = whiten(x)
        cov = y.T @ y / 400
        assert np.max(np.abs(cov - np.eye(5))) < 1e-10
        assert np.max(np.abs(y.mean(axis=0))) <= 1e-15

    def test_rank_deficient_rejected(self):
        x = np.ones((50, 3))
        with pytest.raises(ContractViolation):
            whiten(x)
