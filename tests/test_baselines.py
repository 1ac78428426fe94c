import math

import numpy as np
import pytest

from wristband.baselines import (
    MMD_BANDWIDTH_MULTIPLIERS,
    mmd_loss,
    sample_projections,
    sliced_w2_loss,
)
from wristband.errors import ContractViolation
from wristband.generators import RngStream, gaussian_batch
from wristband.parity import finite_difference_check
from wristband.specfun import gaussian_quantile_grid


class TestMMD:
    def test_null_value_small(self):
        # V-statistic bias is O(1/N); estimate the null scale by
        # Monte-Carlo and require the big-batch value to sit below
        # five times it.
        n, d = 4000, 4
        x = gaussian_batch(n, d, RngStream(0, "mmd"))
        value = mmd_loss(x).value
        null_scale = []
        for k in range(8):
            null_scale.append(mmd_loss(gaussian_batch(n, d, RngStream(1, f"m/{k}"))).value)
        assert value < 5.0 * np.mean(null_scale)
        assert value < 0.01

    def test_far_batch_closed_form(self):
        # Every point at 10 e_1: the empirical term is 1 per bandwidth,
        # the cross term is tiny, the target term is the closed form.
        n, d = 64, 3
        x = np.tile(10.0 * np.eye(d)[0], (n, 1))
        value = mmd_loss(x).value
        expected = 0.0
        for m in MMD_BANDWIDTH_MULTIPLIERS:
            s2 = d * m * m
            cross = (s2 / (s2 + 1.0)) ** (d / 2.0) * math.exp(-100.0 / (2.0 * (s2 + 1.0)))
            expected += 1.0 - 2.0 * cross + (s2 / (s2 + 2.0)) ** (d / 2.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_up_to_bias(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=(50, 3)) * rng.uniform(0.5, 2.0)
            assert mmd_loss(x).value > -1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 4))
        report = finite_difference_check(lambda b: mmd_loss(b), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999


class TestSlicedW2:
    def test_exact_quantiles_give_zero(self):
        n, d = 32, 3
        q = gaussian_quantile_grid(n)
        x = np.zeros((n, d))
        x[:, 0] = q
        theta = np.zeros((1, d))
        theta[0, 0] = 1.0
        assert sliced_w2_loss(x, theta).value == 0.0

    def test_hand_value_two_points(self):
        # Points +-a on the projection axis: residuals are a - z_{0.75}
        # at both ranks.
        a = 2.0
        x = np.array([[a, 0.0], [-a, 0.0]])
        theta = np.array([[1.0, 0.0]])
        z75 = gaussian_quantile_grid(2)[1]
        expected = 2.0 * (a - z75) ** 2 / 2.0
        assert sliced_w2_loss(x, theta).value == pytest.approx(expected, rel=1e-12)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        theta = sample_projections(4, 16, RngStream(4, "proj"))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a = sliced_w2_loss(x, theta).value
        b = sliced_w2_loss(x @ q.T, theta @ q.T).value
        assert b == pytest.approx(a, rel=1e-12)

    def test_projection_stream_determinism(self):
        x = gaussian_batch(64, 5, RngStream(5, "s"))
        a = sliced_w2_loss(x, 32, RngStream(6, "proj"))
        b = sliced_w2_loss(x, 32, RngStream(6, "proj"))
        assert a.value == b.value
        assert np.array_equal(a.grad, b.grad)

    def test_large_gaussian_batch_small_value(self):
        x = gaussian_batch(8000, 3, RngStream(7, "null"))
        out = sliced_w2_loss(x, 64, RngStream(8, "proj"))
        assert out.value < 0.01

    def test_projections_must_be_nonempty(self):
        x = gaussian_batch(16, 3, RngStream(9, "empty"))
        for projections in (0, -1, np.empty((0, 3))):
            with pytest.raises(ContractViolation, match="projection"):
                sliced_w2_loss(x, projections, RngStream(10, "proj"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fd_frozen_projections(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24, 4))
        theta = sample_projections(4, 24, RngStream(seed, "fdproj"))
        report = finite_difference_check(lambda b: sliced_w2_loss(b, theta), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999
