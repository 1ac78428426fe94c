import tracemalloc

import numpy as np
import pytest

from wristband.accelerators import _radial_value_grad_t, moment_w2_loss, radial_w2_loss
from wristband.calibration import (
    CalibrationTable,
    _standardized_step,
    _step_buffers,
    _validate_for_table,
    calibrate_null,
    standardized_wristband_loss,
)
from wristband.errors import ContractViolation, FormatError, UnsupportedDimension
from wristband.generators import RngStream, gaussian_batch, x_batch
from wristband.pairwise import (
    DEFAULT_TILE,
    KernelConfig,
    _pairwise_value_cotangents,
    pairwise_repulsion_loss,
)
from wristband.parity import finite_difference_check
from wristband.spectral import spectral_loss
from wristband.wristband_map import _backward, wristband_backward, wristband_forward


CFG = KernelConfig(beta=8.0, alpha=1.0)


@pytest.fixture(scope="module")
def small_table():
    return calibrate_null(64, 4, CFG, reps=128, seed=11)


def test_determinism_bit_identical(small_table):
    again = calibrate_null(64, 4, CFG, reps=128, seed=11)
    assert small_table == again
    assert small_table.to_json() == again.to_json()


def test_json_roundtrip_bit_exact(small_table):
    back = CalibrationTable.from_json(small_table.to_json())
    assert back == small_table


def test_json_rejects_bad_version(small_table):
    import json

    doc = json.loads(small_table.to_json())
    doc["format_version"] = 2
    with pytest.raises(FormatError):
        CalibrationTable.from_json(json.dumps(doc))


def test_spectral_path_table():
    table = calibrate_null(64, 4, CFG, reps=64, seed=3, loss_path="spectral")
    assert table.loss_path == "spectral"
    batch = gaussian_batch(64, 4, RngStream(5, "t"))
    out = standardized_wristband_loss(batch, table)
    assert np.isfinite(out.value)


def test_null_self_consistency_small():
    table = calibrate_null(64, 4, CFG, reps=512, seed=1)
    vals = []
    for k in range(256):
        batch = gaussian_batch(64, 4, RngStream(77, f"fresh/{k}"))
        vals.append(standardized_wristband_loss(batch, table).value)
    vals = np.asarray(vals)
    assert abs(vals.mean()) < 0.2
    assert 0.8 < vals.std(ddof=1) < 1.25


def test_structured_batch_scores_high():
    n, d = 256, 2
    cfg = KernelConfig.direct_benchmark()
    table = calibrate_null(n, d, cfg, reps=256, seed=2)
    raw = x_batch(n, d, RngStream(9, "x"))
    out = standardized_wristband_loss(raw, table)
    assert out.value > 3.0


def test_weights_linearity(small_table):
    from dataclasses import replace

    cfg_rep_only = replace(CFG, weights=(1.0, 0.0, 0.0))
    table = calibrate_null(64, 4, cfg_rep_only, reps=128, seed=11)
    batch = gaussian_batch(64, 4, RngStream(13, "w"))
    out = standardized_wristband_loss(batch, table)
    # With weights (1, 0, 0) the statistic is the standardized repulsion
    # alone (up to its own numerator std).
    rep = pairwise_repulsion_loss(batch, cfg_rep_only).value
    expected = (rep - table.mu_rep) / (table.sd_rep * table.sd_numerator)
    assert out.value == pytest.approx(expected, rel=1e-12)


def _recomposed(x, table):
    """The statistic and its gradient from the public component functions."""
    cfg = table.cfg
    rep = (pairwise_repulsion_loss if table.loss_path == "pairwise" else spectral_loss)(x, cfg)
    rad = radial_w2_loss(wristband_forward(x))
    mom = moment_w2_loss(x)
    w_rep, w_rad, w_mom = cfg.weights
    s = (
        w_rep * (rep.value - table.mu_rep) / table.sd_rep
        + w_rad * (rad.value - table.mu_rad) / table.sd_rad
        + w_mom * (mom.value - table.mu_mom) / table.sd_mom
    )
    grad = (
        (w_rep / (table.sd_rep * table.sd_numerator)) * rep.grad
        + (w_rad / (table.sd_rad * table.sd_numerator)) * rad.grad
        + (w_mom / (table.sd_mom * table.sd_numerator)) * mom.grad
    )
    return s / table.sd_numerator, grad


@pytest.mark.parametrize("loss_path", ["pairwise", "spectral"])
def test_single_forward_matches_component_functions(loss_path):
    n, d = 96, 4
    table = calibrate_null(n, d, CFG, reps=32, seed=7, loss_path=loss_path)
    gauss = gaussian_batch(n, d, RngStream(8, "recompose"))
    floored = gauss.copy()
    floored[5] = 1e-14  # norm below NORM_FLOOR
    assert wristband_forward(floored).norm_floored[5]
    for x in (gauss, floored, x_batch(n, d, RngStream(9, "recompose"))):
        out = standardized_wristband_loss(x, table)
        value, grad = _recomposed(x, table)
        assert out.value == value
        assert np.max(np.abs(out.grad - grad)) <= 1e-12 * np.max(np.abs(grad))


@pytest.mark.parametrize("reduction", ["global", "per_point"])
def test_pairwise_gradient_is_the_written_out_combination(reduction):
    # The cotangents are weighted in place inside the standardized loss;
    # on the pairwise path that must give the same bytes as weighting them
    # outside and pulling back once.
    n, d = 77, 5
    cfg = KernelConfig(beta=8.0, alpha=1.0, reduction=reduction)
    table = calibrate_null(n, d, cfg, reps=16, seed=12)
    x = x_batch(n, d, RngStream(13, "in-place"))
    wb = wristband_forward(x)
    _, gu, gt = _pairwise_value_cotangents(wb, cfg, DEFAULT_TILE)
    _, rt = _radial_value_grad_t(wb.t)
    mom = moment_w2_loss(x)
    w_rep, w_rad, w_mom = cfg.weights
    c_rep = w_rep / (table.sd_rep * table.sd_numerator)
    c_rad = w_rad / (table.sd_rad * table.sd_numerator)
    c_mom = w_mom / (table.sd_mom * table.sd_numerator)
    expected = _backward(x, wb, c_rep * gu, c_rep * gt + c_rad * rt) + c_mom * mom.grad
    assert standardized_wristband_loss(x, table).grad.tobytes() == expected.tobytes()


def test_gradient_fd(small_table):
    rng = np.random.default_rng(20)
    table = calibrate_null(24, 4, CFG, reps=64, seed=4)
    x = rng.normal(size=(24, 4))
    report = finite_difference_check(lambda b: standardized_wristband_loss(b, table), x)
    assert report.rel_l2_error <= 1e-5
    assert report.cosine >= 0.99999


def test_shape_and_path_contracts(small_table):
    with pytest.raises(ContractViolation):
        standardized_wristband_loss(np.ones((32, 4)), small_table)
    with pytest.raises(ContractViolation):
        calibrate_null(16, 3, CFG, reps=1, seed=0)
    with pytest.raises(ContractViolation):
        calibrate_null(16, 3, CFG, reps=8, seed=0, loss_path="fourier")
    with pytest.raises(ContractViolation):
        calibrate_null(1, 3, CFG, reps=8, seed=0)  # one point has no covariance


def test_standardized_loss_validates_the_batch(small_table):
    for bad in (np.ones(64 * 4), np.full((64, 4), np.nan), np.ones((1, 4))):
        with pytest.raises(ContractViolation):
            standardized_wristband_loss(bad, small_table)
    with pytest.raises(UnsupportedDimension):
        standardized_wristband_loss(np.ones((64, 1)), small_table)


class TestBufferedStep:
    """The optimizer's step writes into caller-owned buffers; public calls never alias."""

    def test_returned_gradient_survives_a_later_call(self):
        cfg = KernelConfig(beta=8.0, alpha=0.5)
        for path in ("pairwise", "spectral"):
            table = calibrate_null(48, 4, cfg, reps=8, seed=30, loss_path=path)
            x1 = x_batch(48, 4, RngStream(31, "first"))
            x2 = gaussian_batch(48, 4, RngStream(32, "second"))
            before = x1.copy()
            g1 = standardized_wristband_loss(x1, table).grad
            kept = g1.copy()
            standardized_wristband_loss(x2, table)
            assert g1.tobytes() == kept.tobytes()
            assert x1.tobytes() == before.tobytes()

    def test_public_pieces_leave_their_arguments_alone(self):
        x = x_batch(40, 5, RngStream(33, "args"))
        x[2] = 0.0  # a floored point
        wb = wristband_forward(x)
        grad_u = np.random.default_rng(34).normal(size=x.shape)
        grad_t = np.random.default_rng(35).normal(size=40)
        saved = [a.copy() for a in (x, grad_u, grad_t, wb.u, wb.t)]
        wristband_backward(x, wb, grad_u, grad_t)
        moment_w2_loss(x)
        for a, b in zip((x, grad_u, grad_t, wb.u, wb.t), saved):
            assert a.tobytes() == b.tobytes()

    def test_steady_state_step_allocates_no_batch_sized_array(self):
        # At the benchmark's d = 64, every N x d result of a spectral step
        # goes to the buffers: the step's traced peak stays below the size
        # of one N x d float64 array (an allocating step reaches several).
        n, d = 1024, 64
        cfg = KernelConfig(beta=8.0, alpha=0.5)
        table = calibrate_null(n, d, cfg, reps=4, seed=38, loss_path="spectral")
        x = gaussian_batch(n, d, RngStream(39, "peak"))
        buffers = _step_buffers(x.shape)
        _standardized_step(_validate_for_table(x, table), table, buffers)  # warm caches
        tracemalloc.start()
        try:
            _standardized_step(_validate_for_table(x, table), table, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * d
