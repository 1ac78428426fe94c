from dataclasses import replace

import numpy as np
import pytest

from wristband.errors import ContractViolation
from wristband.generators import RngStream, parity_batch
from wristband.pairwise import KernelConfig, pairwise_repulsion_loss
from wristband.parity import (
    finite_difference_check,
    gradient_cosine,
    parity_suite,
    timing_sweep,
)
from wristband.spectral import spectral_loss


CFG = KernelConfig(beta=8.0, alpha=1.0)


class TestFiniteDifference:
    def test_rejects_large_batches(self):
        with pytest.raises(ContractViolation):
            finite_difference_check(lambda b: pairwise_repulsion_loss(b, CFG),
                                    np.ones((65, 3)))

    def test_perfect_gradient_scores_clean(self):
        # Quadratic loss with known gradient.
        from wristband.pairwise import LossValueGrad

        def quad(b):
            return LossValueGrad(value=float(np.sum(b * b)), grad=2.0 * b)

        rng = np.random.default_rng(0)
        report = finite_difference_check(quad, rng.normal(size=(8, 3)))
        assert report.rel_l2_error < 1e-9
        assert report.cosine > 0.9999999

    def test_zero_gradients_have_defined_cosines(self):
        # Two zero gradients agree (cosine 1); a zero gradient against a
        # nonzero one does not (cosine 0).
        from wristband.pairwise import LossValueGrad

        x = np.ones((4, 3))
        flat = finite_difference_check(lambda b: LossValueGrad(0.0, np.zeros_like(b)), x)
        claims_flat = finite_difference_check(
            lambda b: LossValueGrad(float(np.sum(b * b)), np.zeros_like(b)), x)
        assert (flat.cosine, claims_flat.cosine) == (1.0, 0.0)


class TestGradientCosine:
    def test_identical_points_parallel_gradients(self):
        x = np.tile([1.0, 2.0, 2.0, 0.5], (16, 1))
        pv, sv, cos = gradient_cosine(x, replace(CFG, modes=3))
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_spectral_value_reads_modes_from_config(self):
        x = parity_batch("two_mode", 64, 4, RngStream(2, "modes"))
        for k in (2, 9):
            cfg = replace(CFG, modes=k)
            assert gradient_cosine(x, cfg)[1] == spectral_loss(x, cfg).value

    def test_cosine_increases_with_modes(self):
        # More radial modes means less truncation: the cosine trend over
        # K in {2, 3, 6, 12} must be upward on fixed batches.
        rng_stream = RngStream(5, "trend")
        x = parity_batch("mixture5", 256, 8, rng_stream)
        cosines = [gradient_cosine(x, replace(CFG, modes=k))[2] for k in (2, 3, 6, 12)]
        assert cosines[-1] > cosines[0]
        assert all(b >= a - 5e-3 for a, b in zip(cosines, cosines[1:]))

    def test_structured_batch_high_cosine(self):
        # Parity is meaningful on structured batches at the harness's
        # angular scale, where the gradient is dominated by the low
        # modes both paths share.  (On null batches both gradients are
        # near-noise and decorrelate, and at large angular coupling the
        # discarded degrees >= 2 dominate.)
        x = parity_batch("two_mode", 512, 8, RngStream(6, "vals"))
        pv, sv, cos = gradient_cosine(x, KernelConfig(beta=8.0, alpha=0.15, modes=6))
        assert cos > 0.95


class TestParitySuite:
    def test_small_suite_structure(self):
        out = parity_suite(d=8, n=128, modes=3, seeds=[0, 1], cfg=CFG)
        assert out["d"] == 8 and out["n"] == 128
        assert len(out["rows"]) == 8  # 4 kinds x 2 seeds
        assert -1.0 <= out["min_cosine"] <= out["mean_cosine"] <= 1.0
        assert out["value_correlation"] <= 1.0


class TestTimingSweep:
    def test_rows_and_fields(self):
        rows = timing_sweep([4], [64, 128], modes=3, repetitions=2, cfg=CFG)
        assert len(rows) == 2
        for row in rows:
            assert row["pairwise_ms"] > 0.0
            assert row["spectral_ms"] > 0.0
            assert row["speedup"] == pytest.approx(
                row["pairwise_ms"] / row["spectral_ms"], rel=1e-12
            )

    def test_repetitions_contract(self):
        with pytest.raises(ContractViolation):
            timing_sweep([4], [32], modes=3, repetitions=0, cfg=CFG)
