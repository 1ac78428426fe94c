"""Property tests of the pairwise layer over random shapes, bandwidths and tiles.

Batches are drawn on the wristband directly: unit directions u and
radial quantiles t, with optional duplicated points and a saturated
point at t = 1.0 (where the third image coincides with the point).
Examples are derandomized, so the suite sees the same cases on every run.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wristband.pairwise import (
    KernelConfig,
    _accumulate_grads,
    _kernel_blocks,
    _pairwise_value_cotangents,
    _row_sums,
    angular_kernel,
    pairwise_value_from_wristband,
    radial_image_kernel,
)
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
    if cfg.reduction == "global":
        return math.log(np.sum(k) / (3.0 * n * n - n) + cfg.eps) / cfg.beta
    return float(np.mean(np.log(np.sum(k, axis=1) / (3.0 * n - 1.0) + cfg.eps))) / cfg.beta


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
    assert _pairwise_value_cotangents(wb, cfg, tile)[0] == value


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs.map(lambda c: replace(c, reduction="global")),
       tile=tiles)
def test_global_value_is_the_row_sum_total(wb, cfg, tile):
    """The global pass sums block row sums, mirrored blocks twice: the same total as the rows'."""
    n = wb.n
    ref = math.log(np.sum(_row_sums(wb, cfg, tile)) / (3.0 * n * n - n) + cfg.eps) / cfg.beta
    value = pairwise_value_from_wristband(wb, cfg, tile)
    assert abs(value - ref) <= 1e-13 * abs(ref)


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles, other=tiles)
def test_tile_size_invariance(wb, cfg, tile, other):
    value, grad_u, grad_t = _pairwise_value_cotangents(wb, cfg, tile)
    value2, grad_u2, grad_t2 = _pairwise_value_cotangents(wb, cfg, other)
    assert abs(value2 - value) <= 1e-13 * abs(value)
    assert_cotangents_close((grad_u2, grad_t2), (grad_u, grad_t))


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles, seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(wb, cfg, tile, seed):
    perm = np.random.default_rng(seed).permutation(wb.n)
    permuted = WristbandBatch(u=wb.u[perm], t=wb.t[perm], s=wb.s[perm],
                              norm_floored=wb.norm_floored[perm])
    value, grad_u, grad_t = _pairwise_value_cotangents(wb, cfg, tile)
    value2, grad_u2, grad_t2 = _pairwise_value_cotangents(permuted, cfg, tile)
    assert abs(value2 - value) <= 1e-13 * abs(value)
    assert_cotangents_close((grad_u2, grad_t2), (grad_u[perm], grad_t[perm]))


@PROPERTY_SETTINGS
@given(wb=wristband_batches(), cfg=configs, tile=tiles, seed=st.integers(0, 2**32 - 1))
def test_rotation_invariance(wb, cfg, tile, seed):
    d = wb.dim
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    rotated = WristbandBatch(u=wb.u @ q.T, t=wb.t, s=wb.s, norm_floored=wb.norm_floored)
    value, grad_u, grad_t = _pairwise_value_cotangents(wb, cfg, tile)
    value2, grad_u2, grad_t2 = _pairwise_value_cotangents(rotated, cfg, tile)
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
@given(wb=wristband_batches(), cfg=configs, tile=tiles, seed=st.integers(0, 2**32 - 1))
def test_weighted_pass_matches_dense_oracle(wb, cfg, tile, seed):
    """The per-point pass with arbitrary row weights, against the dense double sum.

    Weights are scaled so the weighted row mass stays below about 2, the
    regime `assert_cotangents_close` is derived for.  A kernel entry's
    exponent comes from a Gram-form product, which errs by a few
    eps beta (|y|^2 + |y^(m)|^2) <= a few eps beta (2 alpha^2 + 5): that
    is the relative bound on a row sum, above the subnormal range.
    """
    w = np.random.default_rng(seed).uniform(0.1, 1.0, wb.n) / (3.0 * wb.n)
    grad_u, grad_t, rows = _accumulate_grads(wb, cfg, w, tile)
    ref_u, ref_t, ref_rows = dense_weighted_pass(wb, cfg, w)
    rtol = 8.0 * np.finfo(np.float64).eps * cfg.beta * (cfg.alpha**2 + 4.0)
    assert np.all(np.abs(rows - ref_rows) <= rtol * ref_rows + 1e-300)
    assert_cotangents_close((grad_u, grad_t), (ref_u, ref_t))


@PROPERTY_SETTINGS
@given(n=st.integers(1, 300), tile=tiles)
def test_tile_pairs_cover_each_pair_once(n, tile):
    """Blocks are at most tile x 3 tile; a tile's ordered pairs and each cross-tile pair come once.

    cover[i, j] counts the blocks whose rows hold i and whose columns
    hold j's images: a diagonal pair counts both orders, an off-diagonal
    pair one order that the caller mirrors.
    """
    y = np.random.default_rng(n).random((n, 2))
    cover = np.zeros((n, n), dtype=int)
    for lo, hi, clo, chi, e in _kernel_blocks(y, np.repeat(y, 3, axis=0), 1.0, tile):
        assert e.shape == (hi - lo, 3 * (chi - clo))
        assert e.shape[0] <= tile and e.shape[1] <= 3 * tile
        cover[lo:hi, clo:chi] += 1
    same_tile = np.arange(n)[:, None] // tile == np.arange(n)[None, :] // tile
    assert np.all(cover[same_tile] == 1)
    assert np.all((cover + cover.T)[~same_tile] == 1)
