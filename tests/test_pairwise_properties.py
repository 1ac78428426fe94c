"""Property tests of the pairwise layer over random shapes, bandwidths and tiles.

Batches are drawn on the wristband directly: unit directions u and
radial quantiles t, with optional duplicated points and a saturated
point at t = 1.0 (where the third image coincides with the point).
Examples are derandomized, so the suite sees the same cases on every run.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wristband import pairwise
from wristband.pairwise import (
    ALPHA_UNIFORM_STD,
    KernelConfig,
    _basis,
    _cotangents,
    _kernel_blocks,
    _rows,
    _sweep,
    angular_kernel,
    pairwise_repulsion_loss,
    pairwise_value_from_wristband,
    radial_image_kernel,
)
from wristband.parity import finite_difference_check
from wristband.wristband_map import WristbandBatch

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def wristband_batches(draw):
    n = draw(st.integers(1, 200))
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = rng.random(n)
    dups = draw(st.integers(0, n // 2))
    u[n - dups:] = u[:dups]
    t[n - dups:] = t[:dups]
    if draw(st.booleans()):
        t[draw(st.integers(0, n - 1))] = 1.0
    return WristbandBatch(u=u, t=t, s=np.ones(n), norm_floored=np.zeros(n, dtype=bool))


configs = st.builds(
    KernelConfig,
    beta=st.floats(1.0, 1024.0),
    alpha=st.floats(0.25, 1.5),
    reduction=st.sampled_from(["global", "per_point"]),
)
tiles = st.integers(1, 256)


def direct_value(wb: WristbandBatch, cfg: KernelConfig) -> float:
    """The loss from the full N x N double sum of angular_kernel * radial_image_kernel.

    The diagonal keeps only the two reflected self-images, evaluated in
    closed form, so the real self-interaction is excluded exactly.
    """
    n, t = wb.n, wb.t
    k = angular_kernel(wb.u[:, None, :], wb.u[None, :, :], cfg) * radial_image_kernel(
        t[:, None], t[None, :], cfg.beta
    )
    np.fill_diagonal(k, np.exp(-4.0 * cfg.beta * t**2) + np.exp(-4.0 * cfg.beta * (1.0 - t) ** 2))
    return float(loss_of_rows(np.sum(k, axis=1), cfg))


def loss_of_rows(rows, cfg: KernelConfig):
    """The loss of kernel row sums as each reduction defines it; complex rows pass through."""
    n = rows.shape[0]
    if cfg.reduction == "global":
        return np.log(np.sum(rows) / (3.0 * n * n - n) + cfg.eps) / cfg.beta
    return np.mean(np.log(rows / (3.0 * n - 1.0) + cfg.eps)) / cfg.beta


def row_weights(rows, cfg: KernelConfig) -> np.ndarray:
    """The reduction's row weights w_i = dL/d(row sum i), by a complex step on `loss_of_rows`.

    The step's imaginary part carries the derivative without cancellation,
    so the weights are exact to rounding, taken from the loss's definition
    rather than written out.
    """
    h, n = 1e-100, rows.shape[0]
    return np.array([loss_of_rows(rows + 1j * h * (np.arange(n) == i), cfg).imag / h for i in range(n)])


def row_sums(wb: WristbandBatch, cfg: KernelConfig, tile: int) -> np.ndarray:
    """The tiled kernel row sums without the real self-interactions, as the per-point value reads them."""
    basis = _basis(wb, cfg, tile)
    return _rows(_sweep(basis)[0], basis)


def assert_cotangents_close(got, want):
    """Cotangents agree to rtol 1e-10 above an absolute floor of 1e-13.

    A cotangent row is -2 beta (y_i r_i - sum_j M_ij img_j) times the
    reduction's weights, and under either reduction the weighted row
    mass is at most about 2, so its rounding error is a few eps * |y|
    whatever its size: near-duplicate points give cotangents that are
    small differences of large terms, and only the floor bounds them.
    """
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles)
def test_matches_direct_double_sum(wb, cfg, tile):
    ref = direct_value(wb, cfg)
    value = pairwise_value_from_wristband(wb, cfg, tile)
    assert abs(value - ref) <= 1e-12 * abs(ref)
    assert _cotangents(wb, cfg, tile)[0] == value


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs.map(lambda c: replace(c, reduction="global")),
       tile=tiles)
def test_global_value_is_the_row_sum_total(wb, cfg, tile):
    """The global pass sums block row sums, mirrored blocks twice: the same total as the rows'."""
    n = wb.n
    ref = math.log(np.sum(row_sums(wb, cfg, tile)) / (3.0 * n * n - n) + cfg.eps) / cfg.beta
    value = pairwise_value_from_wristband(wb, cfg, tile)
    assert abs(value - ref) <= 1e-13 * abs(ref)


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles, other=tiles)
def test_tile_size_invariance(wb, cfg, tile, other):
    value, grad_u, grad_t = _cotangents(wb, cfg, tile)
    value2, grad_u2, grad_t2 = _cotangents(wb, cfg, other)
    assert abs(value2 - value) <= 1e-13 * abs(value)
    assert_cotangents_close((grad_u2, grad_t2), (grad_u, grad_t))


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles, seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(wb, cfg, tile, seed):
    perm = np.random.default_rng(seed).permutation(wb.n)
    permuted = WristbandBatch(u=wb.u[perm], t=wb.t[perm], s=wb.s[perm],
                              norm_floored=wb.norm_floored[perm])
    value, grad_u, grad_t = _cotangents(wb, cfg, tile)
    value2, grad_u2, grad_t2 = _cotangents(permuted, cfg, tile)
    assert abs(value2 - value) <= 1e-13 * abs(value)
    assert_cotangents_close((grad_u2, grad_t2), (grad_u[perm], grad_t[perm]))


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles, seed=st.integers(0, 2**32 - 1))
def test_rotation_invariance(wb, cfg, tile, seed):
    d = wb.dim
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    rotated = WristbandBatch(u=wb.u @ q.T, t=wb.t, s=wb.s, norm_floored=wb.norm_floored)
    value, grad_u, grad_t = _cotangents(wb, cfg, tile)
    value2, grad_u2, grad_t2 = _cotangents(rotated, cfg, tile)
    assert abs(value2 - value) <= 1e-12 * abs(value)
    assert_cotangents_close((grad_u2, grad_t2), (grad_u @ q.T, grad_t))


def dense_weighted_pass(wb: WristbandBatch, cfg: KernelConfig, w: np.ndarray):
    """grad_k = sum_j (w_k + w_j) dK(k, j)/d(first slot) and the weighted row sums, densely.

    Each image term is differentiated explicitly on the N x N grid; the
    real self-interaction is left out, the reflected self-images kept.
    """
    y = np.column_stack([cfg.alpha * wb.u, wb.t])
    pair_w = w[:, None] + w[None, :]
    rows, g = np.zeros(wb.n), np.zeros_like(y)
    for m, t_img in enumerate((wb.t, -wb.t, 2.0 - wb.t)):
        diff = y[:, None, :] - np.column_stack([cfg.alpha * wb.u, t_img])[None, :, :]
        k = np.exp(-cfg.beta * np.sum(diff * diff, axis=2))
        if m == 0:
            np.fill_diagonal(k, 0.0)
        k *= pair_w
        rows += k.sum(axis=1)
        g -= 2.0 * cfg.beta * np.einsum("ij,ijk->ik", k, diff)
    return cfg.alpha * g[:, :-1], g[:, -1], rows


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles)
def test_weighted_pass_matches_dense_oracle(wb, cfg, tile):
    """The cotangents of either reduction, against the dense double sum under its row weights.

    The oracle's weights are `row_weights` of the pass's own row sums, so
    the check is on the pair-weighted sums.  Under either reduction the
    weighted row mass stays below 2 / beta <= 2, the regime
    `assert_cotangents_close` is derived for.
    """
    _, grad_u, grad_t = _cotangents(wb, cfg, tile)
    ref_u, ref_t, _ = dense_weighted_pass(wb, cfg, row_weights(row_sums(wb, cfg, tile), cfg))
    assert_cotangents_close((grad_u, grad_t), (ref_u, ref_t))


@PROPERTY_SETTINGS
@given(n=st.integers(1, 300), tile=tiles)
def test_tile_pairs_cover_each_pair_once(n, tile):
    """Blocks are at most tile x bases tile; a tile's ordered pairs and each cross-tile pair come once.

    cover[i, j] counts the blocks whose rows hold i and whose columns
    hold j's bases: a diagonal pair counts both orders, an off-diagonal
    pair one order that the caller mirrors.
    """
    rng = np.random.default_rng(n)
    u = rng.normal(size=(n, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    wb = WristbandBatch(u=u, t=rng.random(n), s=np.ones(n), norm_floored=np.zeros(n, dtype=bool))
    basis = _basis(wb, KernelConfig(beta=1.0), tile)
    cover = np.zeros((n, n), dtype=int)
    for lo, hi, clo, chi, e in _kernel_blocks(basis):
        assert e.shape == (hi - lo, basis.bases * (chi - clo))
        assert e.shape[0] <= tile and e.shape[1] <= basis.bases * tile
        cover[lo:hi, clo:chi] += 1
    same_tile = np.arange(n)[:, None] // tile == np.arange(n)[None, :] // tile
    assert np.all(cover[same_tile] == 1)
    assert np.all((cover + cover.T)[~same_tile] == 1)


@st.composite
def boundary_batches(draw):
    """wristband_batches with points at t = 0 and t = 1, each duplicated when n >= 4."""
    wb = draw(wristband_batches())
    n, u, t = wb.n, wb.u.copy(), wb.t.copy()
    t[0], t[n - 1] = 0.0, 1.0
    if n >= 4:
        u[1], t[1] = u[0], 0.0
        u[n - 2], t[n - 2] = u[n - 1], 1.0
    return WristbandBatch(u=u, t=t, s=wb.s, norm_floored=wb.norm_floored)


@st.composite
def straddling_configs(draw):
    """Configs with beta (4 alpha^2 + 3) within 15% of the two-base bound, on either side."""
    alpha = draw(st.floats(0.25, 1.5))
    beta = draw(st.floats(0.85, 1.15)) * pairwise._TWO_BASE_LIMIT / (4.0 * alpha**2 + 3.0)
    return KernelConfig(beta=beta, alpha=alpha, reduction=draw(st.sampled_from(["global", "per_point"])))


def basis_results(wb, cfg, tile):
    """Value, unit row sums and cotangents of one basis, after checking its exact equality."""
    value = pairwise_value_from_wristband(wb, cfg, tile)
    cotangents = _cotangents(wb, cfg, tile)
    assert cotangents[0] == value
    return value, row_sums(wb, cfg, tile), cotangents[1:]


@PROPERTY_SETTINGS
@given(wb=boundary_batches(), cfg=straddling_configs(), tile=st.integers(8, 256))
def test_two_bases_match_three_images(wb, cfg, tile):
    """Across the basis bound, the chosen basis and the three-image basis both match the oracles.

    Below the bound the chosen basis is the two-base form, so this pins
    it against the three images up to the bound; the tolerances are
    those of test_matches_direct_double_sum and
    test_weighted_pass_matches_dense_oracle, and a row sum's relative
    bound is a few eps beta (|y|^2 + |y^(m)|^2) <= a few eps beta
    (2 alpha^2 + 5), the error of a Gram-form exponent.  Tiles start at
    8: smaller ones only multiply the blocks of every pass, and the tile
    tests above cover them.
    """
    chosen = basis_results(wb, cfg, tile)
    with mock.patch.object(pairwise, "_TWO_BASE_LIMIT", 0.0):
        assert _basis(wb, cfg, tile).bases == 3
        three = basis_results(wb, cfg, tile)
    ref = direct_value(wb, cfg)
    ref_rows = dense_weighted_pass(wb, cfg, np.full(wb.n, 0.5))[2]
    rtol = 8.0 * np.finfo(np.float64).eps * cfg.beta * (cfg.alpha**2 + 4.0)
    for value, rows, cotangents in (chosen, three):
        assert abs(value - ref) <= 1e-12 * abs(ref)
        assert np.all(np.abs(rows - ref_rows) <= rtol * ref_rows + 1e-300)
        assert_cotangents_close(cotangents, dense_weighted_pass(wb, cfg, row_weights(rows, cfg))[:2])
    assert_cotangents_close(chosen[2], three[2])


@pytest.mark.parametrize("cfg, bases", [
    (KernelConfig(), 2),
    (KernelConfig(beta=8.0, alpha=ALPHA_UNIFORM_STD), 2),
    (KernelConfig.direct_benchmark(), 2),
    (KernelConfig(beta=1024.0), 3),
])
def test_basis_choice(cfg, bases):
    """Two exponentials per pair at the canonical and benchmark settings; three only past the bound."""
    rng = np.random.default_rng(0)
    u = rng.normal(size=(5, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    wb = WristbandBatch(u=u, t=rng.random(5), s=np.ones(5), norm_floored=np.zeros(5, dtype=bool))
    basis = _basis(wb, cfg, 2)
    assert basis.bases == bases
    assert all(e.shape[1] == bases * (chi - clo) for _, _, clo, chi, e in _kernel_blocks(basis))



@st.composite
def fd_batches(draw):
    """Raw batches of N <= 24 points in d = 2..6, with points near the origin and duplicated points.

    Up to two points are pulled to a norm in [0.03, 0.1], far above
    NORM_FLOOR, where the direction turns by 1/|x| per unit step; then
    up to half the batch duplicates its leading points, near-origin ones
    included.
    """
    n = draw(st.integers(2, 24))
    d = draw(st.integers(2, 6))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    near = draw(st.integers(0, 2))
    if near:
        x[:near] *= 10.0 ** draw(st.floats(-1.5, -1.0)) / np.linalg.norm(x[:near], axis=1, keepdims=True)
    dups = draw(st.integers(0, n // 2))
    x[n - dups:] = x[:dups]
    return x


@st.composite
def basis_side_configs(draw):
    """Configs with beta (4 alpha^2 + 3) at 0.5-0.95 or 1.05-1.5 times the two-base bound, both reductions."""
    alpha = draw(st.floats(0.25, 1.0))
    factor = draw(st.sampled_from([st.floats(0.5, 0.95), st.floats(1.05, 1.5)]).flatmap(lambda f: f))
    beta = factor * pairwise._TWO_BASE_LIMIT / (4.0 * alpha**2 + 3.0)
    return KernelConfig(beta=beta, alpha=alpha, reduction=draw(st.sampled_from(["global", "per_point"])))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(x=fd_batches(), cfg=basis_side_configs())
def test_gradient_fd_random_batches(x, cfg):
    """The analytic gradient against central differences, under the bars of test_gradient_fd.

    At beta of 50-330 the step is 1e-6 (1 + |x|): a kernel entry's
    Gram-form exponent errs by about eps beta |y|^2, which the quotient
    divides by the step, and the near-origin truncation error grows like
    (step beta alpha^2 / |x|)^2; the default 1e-5 loses to the latter.
    A batch whose kernel mass sits on pairs that exert no force (a
    duplicate's partner, a self-image at t = 0 or 1/2) has a gradient
    below what the quotient resolves at that step, so examples whose
    largest entry is below 1e-3 are rejected.
    """
    assume(np.max(np.abs(pairwise_repulsion_loss(x, cfg).grad)) >= 1e-3)
    report = finite_difference_check(lambda b: pairwise_repulsion_loss(b, cfg), x, h_scale=1e-6)
    assert report.rel_l2_error <= 1e-5
    assert report.cosine >= 0.99999
