"""Invariance and finite-difference properties of the batch losses over random shapes.

Each loss of a batch x is a function of the point cloud alone, so for a
rotation Q and a permutation P the value must be unchanged within
rounding and the gradient must co-rotate (grad(x Q^T) = grad(x) Q^T) or
co-permute (grad(x[P]) = grad(x)[P]).  Covered: the spectral repulsion,
the radial and moment accelerators, and the standardized statistic on
both repulsion paths.  Batches mix radii over a few decades.  The
rotation cases may repeat points.  The permutation cases do not, since
the radial penalty breaks exact ties in t by index, but they may hold
points at the origin, which the map pins to e_1 and so exempts from
rotation; their gradient rows are zero.  Examples are derandomized, so
the suite sees the same cases on every run.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristband.accelerators import (
    moment_w2_loss,
    moment_w2_value,
    radial_w2_loss,
    radial_w2_value_from_wristband,
)
from wristband.calibration import CalibrationTable, calibrate_null, standardized_wristband_loss
from wristband.pairwise import KernelConfig, pairwise_value_from_wristband
from wristband.parity import finite_difference_check
from wristband.specfun import chi2_pdf_array
from wristband.spectral import spectral_loss, spectral_value_from_wristband
from wristband.wristband_map import NORM_FLOOR, wristband_forward

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

LOSSES = ("spectral", "radial", "moment", "standardized_pairwise", "standardized_spectral")


@st.composite
def batches(draw, zeros=False):
    """An (N, d) batch with row scales over a few decades, and either some
    duplicate rows or (zeros=True) up to two rows at the origin."""
    n = draw(st.integers(2, 64))
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) * np.exp(0.5 * rng.normal(size=(n, 1)))
    if zeros:
        x[draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    else:
        dups = draw(st.integers(0, n // 2))
        x[n - dups:] = x[:dups]
    return x


configs = st.builds(
    KernelConfig,
    beta=st.floats(1.0, 256.0),
    alpha=st.floats(0.25, 1.5),
    reduction=st.sampled_from(["global", "per_point"]),
    modes=st.integers(1, 8),
)


def table_for(x, cfg, path):
    """A table of unit null statistics: the statistic is then w . (rep, rad, mom)."""
    n, d = x.shape
    return CalibrationTable(n=n, dim=d, cfg=cfg, reps=2, mu_rep=0.0, mu_rad=0.0, mu_mom=0.0,
                            sd_rep=1.0, sd_rad=1.0, sd_mom=1.0, sd_numerator=1.0, seed=0,
                            loss_path=path)


def for_loss(name, cfg):
    """The drawn config as the loss `name` takes it: the spectral path has global reduction only."""
    return replace(cfg, reduction="global") if name.endswith("spectral") else cfg


def loss_and_scale(name, x, cfg):
    """(value, gradient, scale), scale bounding the magnitude of the value's terms."""
    cfg = for_loss(name, cfg)
    if name == "spectral":
        lvg = spectral_loss(x, cfg)
        return lvg.value, lvg.grad, abs(lvg.value)
    if name == "radial":
        lvg = radial_w2_loss(wristband_forward(x))
        return lvg.value, lvg.grad, lvg.value
    if name == "moment":
        lvg = moment_w2_loss(x)
        return lvg.value, lvg.grad, lvg.value
    path = name.removeprefix("standardized_")
    lvg = standardized_wristband_loss(x, table_for(x, cfg, path))
    wb = wristband_forward(x)
    rep = (pairwise_value_from_wristband if path == "pairwise" else spectral_value_from_wristband)(wb, cfg)
    w_rep, w_rad, w_mom = cfg.weights
    scale = (abs(w_rep * rep) + w_rad * radial_w2_value_from_wristband(wb)
             + w_mom * moment_w2_value(x))
    return lvg.value, lvg.grad, scale


def assert_same_loss(got, want):
    """Values equal within rounding of their terms; gradients within 1e-9 of their max norm.

    The moment gradient divides by the roots of the covariance
    eigenvalues (clamped at 1e-9), so on the small, ill-conditioned or
    rank-deficient batches drawn here it carries the rounding of the
    covariance amplified up to about 1e5: over 1,500 random examples the
    largest relative change of a gradient was 1.8e-10, and of a value
    4.4e-14.
    """
    value, grad, scale = want
    value2, grad2, _ = got
    assert abs(value2 - value) <= 1e-12 * scale + 1e-300
    err = np.max(np.abs(grad2 - grad))
    assert err <= 1e-9 * np.max(np.abs(grad)) + 1e-300, err


@pytest.mark.parametrize("name", LOSSES)
@PROPERTY_SETTINGS
@given(data=st.data(), cfg=configs, seed=st.integers(0, 2**32 - 1))
def test_rotation_invariance(name, data, cfg, seed):
    x = data.draw(batches())
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(x.shape[1],) * 2))
    value, grad, scale = loss_and_scale(name, x, cfg)
    assert_same_loss(loss_and_scale(name, x @ q.T, cfg), (value, grad @ q.T, scale))


@pytest.mark.parametrize("name", LOSSES)
@PROPERTY_SETTINGS
@given(data=st.data(), cfg=configs, seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(name, data, cfg, seed):
    x = data.draw(batches(zeros=True))
    perm = np.random.default_rng(seed).permutation(x.shape[0])
    value, grad, scale = loss_and_scale(name, x, cfg)
    assert_same_loss(loss_and_scale(name, x[perm], cfg), (value, grad[perm], scale))


def radial_gradient_reference(x):
    """2 f(s) g_t x written out, f the chi-squared density and g_t the order-statistics
    cotangent 2 (t_(i) - (i - 1/2)/N) / N routed back through the stable sort;
    rows of points at the origin are zero."""
    n, d = x.shape
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    s = np.maximum(norms * norms, NORM_FLOOR**2)
    t = wristband_forward(x).t
    order = np.argsort(t, kind="stable")
    g_t = np.empty(n)
    g_t[order] = 2.0 * (t[order] - (np.arange(n) + 0.5) / n) / n
    grad = (2.0 * g_t * chi2_pdf_array(d, s))[:, None] * x
    grad[norms < NORM_FLOOR] = 0.0
    return grad


@PROPERTY_SETTINGS
@given(x=batches(zeros=True))
def test_radial_gradient_matches_written_out_formula(x):
    # radial_w2_loss pulls back through the points u sqrt(s) that the
    # wristband batch encodes, which differ from x by a few ulps per entry.
    got = radial_w2_loss(wristband_forward(x)).grad
    np.testing.assert_allclose(got, radial_gradient_reference(x), rtol=1e-14, atol=0.0)


@st.composite
def fd_batches(draw):
    """Batches of N = d + 2..24 distinct points in d = 2..6, radii over a few decades.

    Distinct points keep the radial penalty's sort order fixed under the
    difference steps, and N > d keeps the covariance of full rank.
    """
    d = draw(st.integers(2, 6))
    n = draw(st.integers(d + 2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, d)) * np.exp(0.5 * rng.normal(size=(n, 1)))


def fd_loss(name, cfg, x):
    """The loss of `name` as a function of the batch; a standardized loss
    reads a 4-rep null table of the batch's shape and the config."""
    cfg = for_loss(name, cfg)
    if name == "spectral":
        return lambda b: spectral_loss(b, cfg)
    n, d = x.shape
    table = calibrate_null(n, d, cfg, reps=4, seed=0, loss_path=name.removeprefix("standardized_"))
    return lambda b: standardized_wristband_loss(b, table)


@pytest.mark.parametrize("name", ["spectral", "standardized_pairwise", "standardized_spectral"])
@PROPERTY_SETTINGS
@given(data=st.data(), cfg=configs)
def test_gradient_fd_random_batches(name, data, cfg):
    """The analytic gradient against central differences, under the bars of the fixed-batch FD tests."""
    x = data.draw(fd_batches())
    report = finite_difference_check(fd_loss(name, cfg, x), x)
    assert report.rel_l2_error <= 1e-5
    assert report.cosine >= 0.99999
