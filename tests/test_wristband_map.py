import math

import numpy as np
import pytest

from wristband import wristband_map
from wristband.errors import ContractViolation
from wristband.pairwise import KernelConfig, _pairwise_value_grad, pairwise_repulsion_loss
from wristband.specfun import chi2_cdf
from wristband.spectral import _spectral_value_grad, spectral_loss
from wristband.wristband_map import (
    NORM_FLOOR,
    validate_point_batch,
    wristband_backward,
    wristband_forward,
)


def test_forward_closed_form_d2():
    wb = wristband_forward(np.array([[3.0, 4.0]]))
    assert np.allclose(wb.u[0], [0.6, 0.8], atol=1e-15)
    # d=2 CDF is 1 - exp(-s/2) with s = 25.
    assert wb.t[0] == pytest.approx(1.0 - math.exp(-12.5), abs=1e-14)
    assert not wb.norm_floored[0]


def test_forward_zero_point_is_floored():
    x = np.zeros((1, 5))
    wb = wristband_forward(x)
    assert wb.norm_floored[0]
    assert np.allclose(wb.u[0], np.eye(5)[0])
    assert wb.s[0] == NORM_FLOOR**2
    assert wb.t[0] == pytest.approx(chi2_cdf(5, NORM_FLOOR**2), abs=1e-18)


def test_forward_invariants_random():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 7))
    wb = wristband_forward(x)
    norms = np.linalg.norm(wb.u, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert np.all((wb.t >= 0.0) & (wb.t <= 1.0))
    assert np.all(wb.s >= NORM_FLOOR**2)


def test_scale_covariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(64, 4))
    c = 2.7
    wb1 = wristband_forward(x)
    wb2 = wristband_forward(c * x)
    assert np.allclose(wb1.u, wb2.u, atol=1e-14)
    expected = np.array([chi2_cdf(4, c * c * s) for s in wb1.s])
    assert np.allclose(wb2.t, expected, atol=1e-13)


def test_pushforward_of_gaussian_is_product_uniform():
    # Monte-Carlo check of the pushforward law at d = 8: a standard
    # normal batch maps to the uniform product measure.
    rng = np.random.default_rng(2)
    n, d = 100_000, 8
    x = rng.normal(size=(n, d))
    wb = wristband_forward(x)

    # t ~ Unif[0, 1] by Kolmogorov-Smirnov at the 1% level.
    ts = np.sort(wb.t)
    ks = max(
        np.max(np.abs(ts - np.arange(1, n + 1) / n)),
        np.max(np.abs(ts - np.arange(n) / n)),
    )
    assert ks < 1.63 / math.sqrt(n)

    # u moments: mean 0, second moments delta_pq / d.
    assert np.max(np.abs(wb.u.mean(axis=0))) < 4.0 / math.sqrt(n * d)
    second = wb.u.T @ wb.u / n
    se_diag = np.std(wb.u**2, axis=0, ddof=1) / math.sqrt(n)
    assert np.max(np.abs(np.diag(second) - 1.0 / d) / se_diag) < 5.0
    off = second - np.diag(np.diag(second))
    # s.e. of an off-diagonal entry of the second-moment matrix
    se_off = np.std(wb.u[:, 0] * wb.u[:, 1], ddof=1) / math.sqrt(n)
    assert np.max(np.abs(off)) < 5.0 * se_off

    # corr(t, u_p) vanishes.
    tc = wb.t - wb.t.mean()
    uc = wb.u - wb.u.mean(axis=0)
    corr = (tc @ uc) / (n * wb.t.std() * wb.u.std(axis=0))
    assert np.max(np.abs(corr)) < 4.0 / math.sqrt(n)


def test_backward_zero_cotangents():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 3))
    wb = wristband_forward(x)
    g = wristband_backward(x, wb, np.zeros_like(x), np.zeros(10))
    assert np.all(g == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 4))
    wb = wristband_forward(x)
    grad_u = rng.normal(size=x.shape)
    grad_t = rng.normal(size=x.shape[0])
    analytic = wristband_backward(x, wb, grad_u, grad_t)

    def scalar_fn(xp):
        wbp = wristband_forward(xp)
        return float(np.sum(wbp.u * grad_u) + np.dot(wbp.t, grad_t))

    fd = np.empty_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            h = 1e-6 * (1.0 + abs(x[i, j]))
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            fd[i, j] = (scalar_fn(xp) - scalar_fn(xm)) / (2.0 * h)
    assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-6


def test_backward_floored_points_get_zero_gradient():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0]])
    wb = wristband_forward(x)
    g = wristband_backward(x, wb, np.ones_like(x), np.ones(2))
    assert np.all(g[0] == 0.0)
    assert np.any(g[1] != 0.0)


def test_shape_contracts():
    x = np.ones((4, 3))
    wb = wristband_forward(x)
    with pytest.raises(ContractViolation):
        wristband_backward(x, wb, np.ones((3, 3)), np.ones(4))
    with pytest.raises(ContractViolation):
        wristband_backward(x, wb, np.ones((4, 3)), np.ones(5))
    with pytest.raises(ContractViolation):
        wristband_forward(np.ones((4, 1)))
    with pytest.raises(ContractViolation):
        wristband_forward(np.array([[1.0, np.nan]]))


BAD_BATCHES = [
    (np.ones(4), ContractViolation),  # 1-D
    (np.ones((2, 2, 2)), ContractViolation),  # 3-D
    (np.empty((0, 3)), ContractViolation),  # no rows
    (np.ones((4, 1)), ContractViolation),  # d = 1
    (np.array([[1.0, np.nan], [1.0, 2.0]]), ContractViolation),
    (np.array([[1.0, 2.0], [np.inf, 2.0]]), ContractViolation),
]


@pytest.mark.parametrize("batch, error", BAD_BATCHES)
def test_public_entries_validate_the_batch(batch, error):
    with pytest.raises(error):
        wristband_forward(batch)
    good = np.ones((2, 2))
    wb = wristband_forward(good)
    with pytest.raises(error):
        wristband_backward(batch, wb, np.ones_like(good), np.ones(2))


@pytest.mark.parametrize("loss, value_grad", [
    (pairwise_repulsion_loss, _pairwise_value_grad),
    (spectral_loss, _spectral_value_grad),
], ids=["pairwise", "spectral"])
def test_public_losses_validate_once(loss, value_grad, monkeypatch):
    # Each public loss validates its batch once and gives the bytes of its
    # private pass, which writes the gradient on the batch, run by hand
    # into a fresh array.
    x = np.random.default_rng(3).normal(size=(80, 5))[::2]  # strided rows
    cfg = KernelConfig(beta=8.0, alpha=0.8)
    wb = wristband_forward(x)
    want = np.empty(x.shape)
    value = value_grad(validate_point_batch(x), wb, cfg, 1.0, np.zeros(x.shape[0]),
                       np.zeros(x.shape[1]), want)

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return validate_point_batch(*args, **kwargs)

    monkeypatch.setattr(wristband_map, "validate_point_batch", counting)
    got = loss(x, cfg)
    assert len(calls) == 1
    assert got.value == value
    assert got.grad.tobytes() == want.tobytes()
