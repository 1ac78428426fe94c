import inspect
import json
import math
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from wristband import pairwise
from wristband.errors import ContractViolation
from wristband.pairwise import (
    ALPHA_UNIFORM_STD,
    DEFAULT_TILE,
    KernelConfig,
    _basis,
    _cotangents,
    _pairwise_value_grad,
    angular_kernel,
    pairwise_repulsion_loss,
    pairwise_value_from_wristband,
    radial_image_kernel,
    radial_neumann_kernel,
)
from wristband.parity import finite_difference_check
from wristband.spectral import _spectral_value_grad
from wristband.wristband_map import WristbandBatch, _backward, wristband_backward, wristband_forward

from test_pairwise_properties import dense_weighted_pass, row_sums, row_weights


def unit_rows(rng, n, d):
    u = rng.normal(size=(n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


class TestKernels:
    def test_angular_identity_point(self):
        cfg = KernelConfig(beta=8.0, alpha=0.8)
        u = np.array([0.6, 0.8])
        assert angular_kernel(u, u, cfg) == 1.0

    def test_angular_antipodal(self):
        cfg = KernelConfig(beta=8.0, alpha=0.8)
        u = np.array([1.0, 0.0])
        assert angular_kernel(u, -u, cfg) == pytest.approx(math.exp(-8.0 * 0.64 * 4.0), rel=1e-14)

    def test_angular_two_forms_agree(self):
        cfg = KernelConfig(beta=5.0, alpha=1.3)
        rng = np.random.default_rng(0)
        u = unit_rows(rng, 1000, 6)
        v = unit_rows(rng, 1000, 6)
        lhs = angular_kernel(u, v, cfg)
        c = 2.0 * cfg.beta * cfg.alpha**2
        rhs = math.exp(-c) * np.exp(c * np.einsum("ij,ij->i", u, v))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_angular_bounds(self):
        cfg = KernelConfig()
        rng = np.random.default_rng(1)
        u = unit_rows(rng, 500, 4)
        v = unit_rows(rng, 500, 4)
        k = angular_kernel(u, v, cfg)
        assert np.all(k > 0.0) and np.all(k <= 1.0)

    def test_radial_image_hand_values(self):
        assert radial_image_kernel(0.0, 0.0, 8.0) == pytest.approx(2.0 + math.exp(-32.0), rel=1e-15)
        assert radial_image_kernel(0.5, 0.5, 8.0) == pytest.approx(1.0 + 2.0 * math.exp(-8.0), rel=1e-15)

    def test_radial_symmetry(self):
        rng = np.random.default_rng(2)
        t1 = rng.random(1000)
        t2 = rng.random(1000)
        assert np.array_equal(radial_image_kernel(t1, t2, 8.0), radial_image_kernel(t2, t1, 8.0))

    def test_kernel_pointwise_bounds(self):
        rng = np.random.default_rng(3)
        t1 = rng.random(2000)
        t2 = rng.random(2000)
        k = radial_image_kernel(t1, t2, 8.0)
        assert np.all(k > 0.0) and np.all(k <= 3.0)
        diag = radial_image_kernel(t1, t1, 8.0)
        assert np.all(diag >= 1.0)

    def test_neumann_truncation_bound_beta8(self):
        t = np.linspace(0.0, 1.0, 200)
        gap = np.abs(
            radial_image_kernel(t[:, None], t[None, :], 8.0)
            - radial_neumann_kernel(t[:, None], t[None, :], 8.0, images=10)
        )
        # The next omitted image contributes at most exp(-beta) per term.
        assert np.max(gap) <= 3.4e-4 * 1.2
        assert np.max(gap) > 1e-5  # the bound is tight, not vacuous

    def test_neumann_self_converged(self):
        rng = np.random.default_rng(4)
        t1, t2 = rng.random(50), rng.random(50)
        a = radial_neumann_kernel(t1, t2, 4.0, images=10)
        b = radial_neumann_kernel(t1, t2, 4.0, images=20)
        assert np.max(np.abs(a - b)) < 1e-14

    def test_neumann_matches_cosine_series(self):
        # Poisson-summation cross-check fixing the normalization: the
        # series with a0 = sqrt(pi/beta) equals the image sum as-is.
        from wristband.spectral import radial_cosine_coeffs

        for beta in (4.0, 8.0, 64.0):
            a = radial_cosine_coeffs(beta, 64)
            t = np.linspace(0.0, 1.0, 60)
            basis = np.cos(np.pi * np.outer(t, np.arange(64)))
            series = (basis * a) @ basis.T
            ref = radial_neumann_kernel(t[:, None], t[None, :], beta, images=10)
            assert np.max(np.abs(series - ref)) < 1e-10


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            KernelConfig(beta=0.0)
        with pytest.raises(ContractViolation):
            KernelConfig(alpha=-1.0)
        with pytest.raises(ContractViolation):
            KernelConfig(eps=0.0)
        with pytest.raises(ContractViolation):
            KernelConfig(reduction="rowwise")
        with pytest.raises(ContractViolation):
            KernelConfig(weights=(1.0, -0.1, 1.0))
        for modes in (0, 2.5, 6.0, True, "6", None):
            with pytest.raises(ContractViolation, match="modes"):
                KernelConfig(modes=modes)
        assert KernelConfig(modes=np.int64(3)).modes == 3
        # A boolean or a string is not a real, so it could not be written back.
        for field, value in (("beta", True), ("alpha", False), ("eps", True), ("beta", np.True_),
                             ("beta", "8.0"), ("alpha", "0.5"), ("eps", None),
                             ("weights", (1.0, True, 1.0)), ("weights", (1.0, 0.1, "1.0")),
                             ("weights", (None, 0.1, 1.0)), ("beta", 10**400),
                             ("weights", (1.0, 0.1, 10**400)), ("weights", None)):
            with pytest.raises(ContractViolation, match=field):
                KernelConfig(**{field: value})

    def test_reals_are_stored_as_python_floats(self):
        cfg = KernelConfig(beta=np.float64(8.0), alpha=np.float32(0.5), eps=1, weights=(1, np.float32(0.5), 0))
        for v in (cfg.beta, cfg.alpha, cfg.eps, *cfg.weights):
            assert type(v) is float
        doc = json.loads(json.dumps(asdict(cfg)))
        assert doc["beta"] == 8.0 and doc["alpha"] == 0.5 and doc["weights"] == [1.0, 0.5, 0.0]
        assert KernelConfig.from_dict(doc) == cfg

    def test_roundtrip_dict(self):
        cfg = KernelConfig(beta=64.0, alpha=0.8, reduction="per_point", weights=(1, 0.25, 2))
        assert KernelConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_direct_benchmark_defaults(self):
        assert KernelConfig.direct_benchmark() == KernelConfig(beta=64.0, alpha=0.8)


class TestRepulsionLoss:
    def test_single_point_hand_value(self):
        # One point at t = 0.5: both retained reflected self-images
        # contribute exp(-beta), denominator 3 - 1 = 2.
        x = np.array([[0.0, 0.0]])
        # pick the radius so that t = 0.5 exactly: s = chi2 quantile(0.5; d=2)
        s_med = 2.0 * math.log(2.0)
        x = np.array([[math.sqrt(s_med), 0.0]])
        cfg = KernelConfig(beta=8.0, alpha=1.0, eps=1e-300)
        out = pairwise_repulsion_loss(x, cfg)
        assert out.value == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_lone_boundary_point_row_sum_is_exact(self, t):
        # The real self-interaction is left out, not subtracted, and the
        # reflected self-images take their closed forms: at a boundary
        # one image sits on the point, so the row sum is 1 + exp(-4 beta),
        # in the two-base form (direct benchmark) and in the three images.
        u = np.array([[0.6, 0.8]])
        wb = WristbandBatch(u=u, t=np.array([t]), s=np.ones(1), norm_floored=np.zeros(1, dtype=bool))
        for cfg in (KernelConfig.direct_benchmark(), KernelConfig(beta=1024.0, alpha=0.8)):
            assert row_sums(wb, cfg, DEFAULT_TILE)[0] == 1.0

    def test_two_identical_points_hand_value(self):
        # u1 = u2, t1 = t2 = t: kernel matrix is constant
        # k = 1 + e^{-4 beta t^2} + e^{-4 beta (t-1)^2} per entry.
        beta = 4.0
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        wb = wristband_forward(x)
        t = wb.t[0]
        k = 1.0 + math.exp(-4.0 * beta * t * t) + math.exp(-4.0 * beta * (t - 1.0) ** 2)
        expected = math.log((4.0 * k - 2.0) / 10.0 + 1e-12) / beta
        cfg = KernelConfig(beta=beta, alpha=1.0)
        assert pairwise_repulsion_loss(x, cfg).value == pytest.approx(expected, rel=1e-12)

    def test_value_matches_direct_double_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        cfg = KernelConfig(beta=8.0, alpha=0.8)
        wb = wristband_forward(x)
        gram_ang = np.exp(
            -cfg.beta * cfg.alpha**2
            * np.sum((wb.u[:, None, :] - wb.u[None, :, :]) ** 2, axis=2)
        )
        kimg = radial_image_kernel(wb.t[:, None], wb.t[None, :], cfg.beta)
        n = 40
        expected = math.log((np.sum(gram_ang * kimg) - n) / (3 * n * n - n) + cfg.eps) / cfg.beta
        assert pairwise_value_from_wristband(wb, cfg) == pytest.approx(expected, rel=1e-12)
        assert pairwise_repulsion_loss(x, cfg).value == pytest.approx(expected, rel=1e-12)

    def test_per_point_matches_rowwise_formula(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 4))
        cfg = KernelConfig(beta=8.0, alpha=1.0, reduction="per_point")
        wb = wristband_forward(x)
        gram_ang = np.exp(
            -cfg.beta * cfg.alpha**2
            * np.sum((wb.u[:, None, :] - wb.u[None, :, :]) ** 2, axis=2)
        )
        kimg = radial_image_kernel(wb.t[:, None], wb.t[None, :], cfg.beta)
        rows = np.sum(gram_ang * kimg, axis=1)
        expected = np.mean(np.log((rows - 1.0) / (3 * 30 - 1) + cfg.eps)) / cfg.beta
        assert pairwise_repulsion_loss(x, cfg).value == pytest.approx(expected, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        cfg = KernelConfig(beta=8.0, alpha=0.8)
        a = pairwise_repulsion_loss(x, cfg)
        b = pairwise_repulsion_loss(x @ q.T, cfg)
        assert b.value == pytest.approx(a.value, abs=1e-10)
        # gradient transforms covariantly
        assert np.allclose(b.grad, a.grad @ q.T, atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 3))
        perm = rng.permutation(50)
        cfg = KernelConfig(beta=8.0, alpha=1.0, reduction="per_point")
        a = pairwise_repulsion_loss(x, cfg)
        b = pairwise_repulsion_loss(x[perm], cfg)
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert np.allclose(b.grad, a.grad[perm], atol=1e-12)

    def test_tile_size_does_not_change_value(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(70, 4))
        cfg = KernelConfig(beta=8.0, alpha=1.0)
        ref = pairwise_repulsion_loss(x, cfg, tile=70)
        for tile in (7, 16, 33):
            out = pairwise_repulsion_loss(x, cfg, tile=tile)
            assert out.value == pytest.approx(ref.value, rel=1e-13)
            assert np.allclose(out.grad, ref.grad, atol=1e-13)

    @pytest.mark.parametrize("reduction", ["global", "per_point"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradient_fd(self, reduction, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24, 5))
        cfg = KernelConfig(beta=8.0, alpha=ALPHA_UNIFORM_STD, reduction=reduction)
        report = finite_difference_check(lambda b: pairwise_repulsion_loss(b, cfg), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fd_per_point_beta64(self, seed):
        # At beta=64 most rows hold little more than their reflected
        # self-images; the per-point mass of such a row must not be the
        # rounding residue of subtracting the real self-term.  (Global
        # reduction at beta=64: TestFusedGlobalPass.)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24, 5))
        cfg = replace(KernelConfig.direct_benchmark(), reduction="per_point")
        report = finite_difference_check(lambda b: pairwise_repulsion_loss(b, cfg), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractViolation):
            pairwise_repulsion_loss(np.empty((0, 3)), KernelConfig())

    @pytest.mark.parametrize("tile", [0, -1, 2.5, "128"])
    def test_tile_must_be_a_positive_integer(self, tile):
        # A negative tile would walk no tile pairs and silently give
        # zero row sums, i.e. the value log(eps) / beta.
        x = np.random.default_rng(10).normal(size=(20, 3))
        wb = wristband_forward(x)
        for cfg in (KernelConfig(), KernelConfig(reduction="per_point")):
            with pytest.raises(ContractViolation):
                pairwise_repulsion_loss(x, cfg, tile)
            with pytest.raises(ContractViolation):
                pairwise_value_from_wristband(wb, cfg, tile)
            with pytest.raises(ContractViolation):
                _cotangents(wb, cfg, tile)

    def test_value_pass_memory_is_bounded_by_one_tile_pair(self):
        # Live N-sized float64 arrays of the value pass: y (N x (d+1)),
        # its images (3N x (d+1)), the augmented rows (N x (d+3)) and
        # columns (3N x (d+3)), the self-exponents (N x 3) and the row
        # sums (N), 8 N (8 d + 20) bytes; the kernel block adds
        # 3 tile^2 float64.  Twice the former leaves room for the
        # temporaries that build them; a row-tile block alone
        # (tile x 3N) would be 6.3 MB here.  Both reductions: the global
        # pass keeps the kernel total, the per-point pass the row sums.
        n, d = 2048, 8
        wb = wristband_forward(np.random.default_rng(11).normal(size=(n, d)))
        bound = 2 * 8 * n * (8 * d + 20) + 8 * 3 * DEFAULT_TILE**2
        for reduction in ("global", "per_point"):
            tracemalloc.start()
            try:
                pairwise_value_from_wristband(wb, KernelConfig(reduction=reduction))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, reduction

    @pytest.mark.parametrize("reduction", ["global", "per_point"])
    def test_cotangents_own_their_memory(self, reduction):
        # A view into the tile pass's N x (d + 1) gradient array would keep
        # that array alive through the gradient pass's pullback.  Global
        # reduction runs the unit-weight pass, per-point the weighted one.
        wb = wristband_forward(np.random.default_rng(12).normal(size=(40, 5)))
        cfg = KernelConfig(beta=8.0, alpha=1.0, reduction=reduction)
        _, grad_u, grad_t = _cotangents(wb, cfg, 16)
        assert grad_u.base is None and grad_t.base is None

    @pytest.mark.parametrize("reduction, reads", [("global", ["rows"]), ("per_point", ["rows", None])],
                             ids=["global", "per_point"])
    def test_cotangents_build_one_basis(self, reduction, reads):
        # Per-point reduction sweeps twice on one basis: the row sums, then
        # the weighted products, which reuse those sums and take none of their own.
        wb = wristband_forward(np.random.default_rng(13).normal(size=(40, 5)))
        cfg = KernelConfig(beta=8.0, alpha=1.0, reduction=reduction)
        with mock.patch.object(pairwise, "_basis", wraps=pairwise._basis) as basis, \
                mock.patch.object(pairwise, "_sweep", wraps=pairwise._sweep) as sweep:
            _cotangents(wb, cfg, 16)
        assert basis.call_count == 1
        assert [c.kwargs.get("read", "rows") for c in sweep.call_args_list] == reads


class TestFusedGlobalPass:
    """Global reduction takes value and gradient from one unit-weight tile pass."""

    @pytest.mark.parametrize("tile", [7, 16, 128])
    def test_value_equals_value_only_path_exactly(self, tile):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(150, 5))  # 150 is not a multiple of any tile
        wb = wristband_forward(x)
        for cfg in (KernelConfig(beta=8.0, alpha=ALPHA_UNIFORM_STD), KernelConfig.direct_benchmark()):
            for reduction in ("global", "per_point"):
                c = KernelConfig(beta=cfg.beta, alpha=cfg.alpha, reduction=reduction)
                assert (pairwise_repulsion_loss(x, c, tile).value
                        == pairwise_value_from_wristband(wb, c, tile))

    @pytest.mark.parametrize("tile", [16, 128])
    def test_global_gradient_matches_constant_weight_pass(self, tile):
        rng = np.random.default_rng(31)
        n = 150
        x = rng.normal(size=(n, 6))
        cfg = KernelConfig.direct_benchmark()
        wb = wristband_forward(x)
        # The global loss's row weights are one constant, dL/d(kernel total).
        w = row_weights(row_sums(wb, cfg, tile), cfg)
        assert np.all(w == w[0])
        ref_u, ref_t, _ = dense_weighted_pass(wb, cfg, w)
        ref = wristband_backward(x, wb, ref_u, ref_t)
        grad = pairwise_repulsion_loss(x, cfg, tile).grad
        assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fd_direct_benchmark(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24, 5))
        cfg = KernelConfig.direct_benchmark()  # beta=64, alpha=0.8, global
        report = finite_difference_check(lambda b: pairwise_repulsion_loss(b, cfg), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999


class TestValueGradPass:
    """The pairwise gradient pass writes on the batch, under the spectral pass's contract."""

    def test_signature_is_the_spectral_pass(self):
        # The spectral pass's parameters, then the tile size with its default.
        sig = inspect.signature(_pairwise_value_grad)
        *params, tile = sig.parameters.values()
        assert tile.name == "tile" and tile.default == DEFAULT_TILE
        assert sig.replace(parameters=params) == inspect.signature(_spectral_value_grad)

    @pytest.mark.parametrize("reduction", ["global", "per_point"])
    @pytest.mark.parametrize("beta, bases", [(8.0, 2), (200.0, 3)])
    def test_scaled_cotangents(self, reduction, beta, bases):
        # Modelled on the spectral pass's test.  With an extra t-cotangent
        # and a row, the pass must give the bytes of the map adjoint of the
        # reduction-weighted cotangents, scaled, the extra t-cotangent then
        # added, plus the row; with out = wb.u as well.  Its value is the
        # value-only path's, and its own part scales linearly.  Beta 200
        # is past the two-base bound; row 3 is floored and gets the row alone.
        n, d = 150, 5
        x = np.random.default_rng(40).normal(size=(n, d))
        x[3] = 0.0
        cfg = KernelConfig(beta=beta, alpha=1.0, reduction=reduction)
        wb = wristband_forward(x)
        assert _basis(wb, cfg, DEFAULT_TILE).bases == bases
        value, grad_u, grad_t = _cotangents(wb, cfg, DEFAULT_TILE)
        assert value == pairwise_value_from_wristband(wb, cfg)
        extra_t, row = np.random.default_rng(41).normal(size=n), np.arange(float(d))
        zero_t, zero_row = np.zeros(n), np.zeros(d)
        unit = np.empty_like(x)
        assert _pairwise_value_grad(x, wb, cfg, 1.0, zero_t, zero_row, unit) == value
        for scale in (1.0, 0.37, 3.1e-3, 17.0):
            want = _backward(x, wb, grad_u * scale, grad_t * scale + extra_t)
            want += row
            grad = np.empty_like(x)
            assert _pairwise_value_grad(x, wb, cfg, scale, extra_t, row, grad) == value
            assert grad.tobytes() == want.tobytes()
            assert np.array_equal(grad[3], row)
            aliased = wristband_forward(x)
            assert _pairwise_value_grad(x, aliased, cfg, scale, extra_t, row, aliased.u) == value
            assert aliased.u.tobytes() == want.tobytes()
            _pairwise_value_grad(x, wb, cfg, scale, zero_t, zero_row, grad)
            assert np.max(np.abs(grad - scale * unit)) <= 1e-15 * np.max(np.abs(scale * unit))
