import math

import numpy as np
import pytest

from wristband.calibration import calibrate_null
from wristband.errors import ContractViolation
from wristband.pairwise import KernelConfig
from wristband.parity import finite_difference_check
from wristband.specfun import chi2_pdf_array, scaled_bessel_i
from wristband.spectral import (
    _spectral_value_grad,
    _summarize,
    angular_eigenvalues,
    radial_cosine_coeffs,
    spectral_coefficients,
    spectral_energy,
    spectral_loss,
    spectral_summary,
    spectral_value_from_wristband,
)
from wristband.wristband_map import WristbandBatch, wristband_forward


class TestAngularEigenvalues:
    def test_small_c_limit(self):
        # As c -> 0 the kernel approaches the constant 1: only the
        # degree-0 mode survives with eigenvalue 1.
        lam0, lam1 = angular_eigenvalues(4, beta=1e-9, alpha=1.0)
        assert lam0 == pytest.approx(1.0, abs=1e-7)
        assert lam1 < 1e-7

    def test_ordering(self):
        for d in (3, 8, 64, 256):
            for beta, alpha in ((8.0, 1.0), (64.0, 0.8), (4.0, 0.2887)):
                lam0, lam1 = angular_eigenvalues(d, beta, alpha)
                assert lam0 > lam1 > 0.0

    def test_monte_carlo_funk_hecke(self):
        # Mercer-coefficient Monte-Carlo oracle: for u = e_1,
        # lam0 = E[k(x)] and lam1 = E[k(x) * x] with x = <e_1, u'>.
        rng = np.random.default_rng(10)
        d, beta, alpha = 8, 8.0, 1.0
        c = 2.0 * beta * alpha**2
        g = rng.normal(size=(400_000, d))
        x = g[:, 0] / np.linalg.norm(g, axis=1)
        k = np.exp(-c * (1.0 - x))
        lam0, lam1 = angular_eigenvalues(d, beta, alpha)
        for est, ref in ((k, lam0), (k * x, lam1)):
            se = est.std(ddof=1) / math.sqrt(len(est))
            assert abs(est.mean() - ref) < 3.0 * se

    def test_unsupported_dimension(self):
        with pytest.raises(ContractViolation):
            angular_eigenvalues(1, 8.0, 1.0)

    def test_circle_eigenvalues_are_scaled_bessel(self):
        # At d = 2 (nu = 0) lambda_l = e^{-c} I_l(c), and the zonal series
        # lambda_0 + 2 sum_l lambda_l cos(l theta) is the angular kernel.
        beta, alpha = 8.0, 1.0
        c = 2.0 * beta * alpha**2
        lam0, lam1 = angular_eigenvalues(2, beta, alpha)
        assert lam0 == pytest.approx(scaled_bessel_i(0, c), rel=1e-15)
        assert lam1 == pytest.approx(scaled_bessel_i(1, c), rel=1e-15)
        theta = 0.7
        series = scaled_bessel_i(0, c) + 2.0 * sum(
            scaled_bessel_i(ell, c) * math.cos(ell * theta) for ell in range(1, 80))
        assert series == pytest.approx(math.exp(-c * (1.0 - math.cos(theta))), rel=1e-14)

    def test_underflowing_eigenvalue_refused(self):
        # At beta = 8 and the canonical alpha the degree-1 eigenvalue's
        # scaled Bessel factor underflows from d = 313; the loss would then
        # divide by zero and return NaN, so the dimension is refused.
        cfg = KernelConfig(beta=8.0, alpha=math.sqrt(1.0 / 12.0))
        lam0, lam1 = angular_eigenvalues(312, cfg.beta, cfg.alpha)
        assert lam0 > lam1 > 0.0
        x = np.random.default_rng(17).normal(size=(6, 312))
        assert math.isfinite(spectral_loss(x, cfg).value)
        with pytest.raises(ContractViolation, match=r"d=313, beta=8\.0, alpha=0\.288"):
            angular_eigenvalues(313, cfg.beta, cfg.alpha)
        with pytest.raises(ContractViolation):
            spectral_loss(np.random.default_rng(17).normal(size=(6, 313)), cfg)


class TestRadialCoeffs:
    def test_beta_pi_normalization(self):
        a = radial_cosine_coeffs(math.pi, 4)
        assert a[0] == pytest.approx(1.0, rel=1e-15)

    def test_hand_value_k1(self):
        a = radial_cosine_coeffs(8.0, 2)
        expected = 2.0 * math.sqrt(math.pi / 8.0) * math.exp(-math.pi**2 / 32.0)
        assert a[1] == pytest.approx(expected, rel=1e-15)

    def test_strictly_decreasing_from_k1(self):
        a = radial_cosine_coeffs(8.0, 32)
        assert np.all(np.diff(a[1:]) < 0.0)

    def test_domain(self):
        with pytest.raises(ContractViolation):
            radial_cosine_coeffs(-1.0, 4)
        with pytest.raises(ContractViolation):
            radial_cosine_coeffs(8.0, 0)


class TestSummary:
    def test_constant_mode_is_exactly_one(self):
        rng = np.random.default_rng(11)
        wb = wristband_forward(rng.normal(size=(37, 5)))
        s = spectral_summary(wb, 6)
        assert s.c0[0] == 1.0

    def test_single_point_half(self):
        x = np.array([[math.sqrt(2.0 * math.log(2.0)), 0.0]])  # t = 0.5 at d = 2
        wb = wristband_forward(x)
        s = spectral_summary(wb, 2)
        assert s.c0[1] == pytest.approx(0.0, abs=1e-14)

    def test_uniform_grid_kills_higher_modes(self):
        # Discrete cosine orthogonality: t on the midpoint grid zeroes
        # c0[k] for 1 <= k <= K-1 < N.
        n, modes, d = 32, 8, 4
        rng = np.random.default_rng(12)
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        t = (np.arange(n) + 0.5) / n
        wb_like = type(wristband_forward(np.ones((1, d))))(
            u=u, t=t, s=np.ones(n), norm_floored=np.zeros(n, dtype=bool)
        )
        s = spectral_summary(wb_like, modes)
        assert np.max(np.abs(s.c0[1:])) < 1e-14

    def test_bounds(self):
        rng = np.random.default_rng(13)
        wb = wristband_forward(rng.normal(size=(100, 6)))
        s = spectral_summary(wb, 10)
        assert np.all(np.abs(s.c0) <= 1.0 + 1e-15)
        assert np.all(np.linalg.norm(s.c1, axis=1) <= math.sqrt(6) + 1e-12)


class TestSpectralLoss:
    def test_lower_bound(self):
        # The constant mode contributes exactly lambda0 * a0, so the
        # argument of the log is >= 1.
        rng = np.random.default_rng(14)
        cfg = KernelConfig(beta=8.0, alpha=1.0, modes=6)
        for _ in range(20):
            x = rng.normal(size=(40, 5))
            out = spectral_loss(x, cfg)
            assert out.value >= math.log(1.0 + cfg.eps) / cfg.beta - 1e-15

    def test_v_statistic_identity(self):
        # Brute-force truncated-kernel double sum (self-pairs included).
        rng = np.random.default_rng(15)
        for d in (2, 3, 8):
            cfg = KernelConfig(beta=8.0, alpha=1.0, modes=5)
            x = rng.normal(size=(32, d))
            wb = wristband_forward(x)
            coeffs = spectral_coefficients(d, cfg)
            summary = spectral_summary(wb, cfg.modes)
            energy = spectral_energy(summary, coeffs)

            n = 32
            brute = 0.0
            for i in range(n):
                for j in range(n):
                    for k in range(cfg.modes):
                        ck = math.cos(k * math.pi * wb.t[i]) * math.cos(k * math.pi * wb.t[j])
                        phi0 = coeffs.lambda0 * coeffs.a[k] * ck
                        phi1 = (
                            coeffs.lambda1
                            * coeffs.a[k]
                            * d
                            * float(wb.u[i] @ wb.u[j])
                            * ck
                        )
                        brute += phi0 + phi1
            brute /= n * n
            assert energy == pytest.approx(brute, abs=1e-10 * max(1.0, abs(brute)))

    def test_rotation_and_permutation_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(50, 6))
        cfg = KernelConfig(beta=8.0, alpha=0.8, modes=4)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = spectral_loss(x, cfg)
        b = spectral_loss(x @ q.T, cfg)
        assert b.value == pytest.approx(a.value, abs=1e-10)
        perm = rng.permutation(50)
        c = spectral_loss(x[perm], cfg)
        assert c.value == pytest.approx(a.value, rel=1e-12)
        assert np.allclose(c.grad, a.grad[perm], atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradient_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 4))
        cfg = KernelConfig(beta=8.0, alpha=1.0, modes=6)
        report = finite_difference_check(lambda b: spectral_loss(b, cfg), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fd_circle(self, seed):
        # d = 2: the directions live on the circle, where nu = 0.
        x = np.random.default_rng(seed).normal(size=(20, 2))
        cfg = KernelConfig(beta=8.0, alpha=1.0, modes=6)
        report = finite_difference_check(lambda b: spectral_loss(b, cfg), x)
        assert report.rel_l2_error <= 1e-5
        assert report.cosine >= 0.99999

    def test_value_equals_value_only_path_exactly(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(150, 5))
        wb = wristband_forward(x)
        for cfg in (KernelConfig(beta=8.0, alpha=math.sqrt(1.0 / 12.0)), KernelConfig.direct_benchmark()):
            assert spectral_loss(x, cfg).value == spectral_value_from_wristband(wb, cfg)

    def test_mode_recurrence_matches_direct_trigonometry(self):
        n, modes = 257, 64
        t = np.concatenate([[0.0, 1.0], np.random.default_rng(31).uniform(size=n - 2)])
        u = np.zeros((n, 3))
        u[:, 0] = 1.0
        wb = WristbandBatch(u=u, t=t, s=np.ones(n), norm_floored=np.zeros(n, dtype=bool))
        _, cosmat, sinmat = _summarize(wb, modes)
        angles = np.pi * np.arange(modes)[:, None] * t[None, :]
        assert np.max(np.abs(cosmat - np.cos(angles))) <= 1e-13
        assert np.max(np.abs(sinmat - np.sin(angles))) <= 1e-13

    def test_scaled_cotangents(self):
        # The spectral pass folds `scale` into its K x d factor and its
        # t-cotangent and writes the pulled-back gradient directly, with an
        # extra t-cotangent and a row added.  It must give the same bytes as
        # the map adjoint written out with a rank-K direction cotangent
        # C^T F, and its own part must scale linearly.  Row 3 is floored (its
        # norm is below NORM_FLOOR but not 0) and gets the row alone.
        x = np.random.default_rng(32).standard_t(4, size=(300, 6))
        x[3] *= 1e-14
        wb = wristband_forward(x)
        cfg = KernelConfig(beta=8.0, alpha=math.sqrt(1.0 / 12.0), modes=6)
        extra_t, row = np.random.default_rng(33).normal(size=300), np.arange(6.0)
        zero_t, zero_row = np.zeros(300), np.zeros(6)
        value, unit = written_out_spectral(x, wb, cfg, 1.0, zero_t, zero_row)
        for scale in (1.0, 0.37, 3.1e-3, 17.0):
            want = written_out_spectral(x, wb, cfg, scale, extra_t, row)[1]
            grad = np.empty_like(x)
            assert _spectral_value_grad(x, wb, cfg, scale, extra_t, row, grad) == value
            assert grad.tobytes() == want.tobytes()
            assert np.array_equal(grad[3], row)
            assert _spectral_value_grad(x, wb, cfg, scale, zero_t, zero_row, grad) == value
            assert np.max(np.abs(grad - scale * unit)) <= 1e-15 * np.max(np.abs(scale * unit))

    def test_d2_refused(self):
        # The spectral path runs from d = 2; d = 1 has no sphere to expand on.
        with pytest.raises(ContractViolation):
            spectral_loss(np.ones((8, 1)), KernelConfig())

    def test_per_point_reduction_refused(self):
        # The spectral energy is one V-statistic with no per-point row sums,
        # so a per-point config would only be mislabeled.
        cfg = KernelConfig(beta=8.0, alpha=1.0, reduction="per_point")
        x = np.random.default_rng(34).normal(size=(16, 4))
        for call in (lambda: spectral_loss(x, cfg),
                     lambda: spectral_value_from_wristband(wristband_forward(x), cfg),
                     lambda: calibrate_null(16, 4, cfg, 4, seed=1, loss_path="spectral")):
            with pytest.raises(ContractViolation, match="global reduction only"):
                call()

    def test_monotone_spectrum(self):
        coeffs = spectral_coefficients(8, KernelConfig(beta=8.0, alpha=1.0, modes=12))
        assert coeffs.lambda0 > coeffs.lambda1 > 0.0
        assert coeffs.a[0] == pytest.approx(math.sqrt(math.pi / 8.0), rel=1e-15)
        assert np.all(np.diff(coeffs.a[1:]) < 0.0)

    def test_coefficients_cached_per_dim_and_config(self, monkeypatch):
        import wristband.spectral as spectral

        calls = []

        def counting(nu, c):
            calls.append(nu)
            return scaled_bessel_i(nu, c)

        monkeypatch.setattr(spectral, "scaled_bessel_i", counting)
        cfg = KernelConfig(beta=5.5, alpha=0.7, modes=7)  # used by no other test
        first = spectral_coefficients(9, cfg)
        assert len(calls) == 2
        second = spectral_coefficients(9, KernelConfig(beta=5.5, alpha=0.7, modes=7))
        assert len(calls) == 2
        assert (second.lambda0, second.lambda1) == (first.lambda0, first.lambda1)
        assert np.array_equal(second.a, first.a)
        assert not second.a.flags.writeable


def written_out_spectral(x, wb, cfg, scale, extra_t, row):
    """Value and scale times the spectral gradient, plus the pullback of
    extra_t and the row added, as the map adjoint

        g_x = x (2 f(s) g_t - (u . g_u) / s) + [C diag(1/|x|); 1]^T [F; row]

    with the direction cotangent g_u = C^T F (C the K x N cosine modes,
    F_k = f_k c1_k) and u . g_u = sum_k cos_k f_k <c1_k, u>.  A floored
    point's coefficient and 1/|x| are 0, so it receives the row alone."""
    n, d = x.shape
    coeffs = spectral_coefficients(d, cfg)
    summary, cosmat, sinmat = _summarize(wb, cfg.modes)
    c0, c1 = summary.c0, summary.c1
    energy = spectral_energy(summary, coeffs)
    floor = coeffs.lambda0 * coeffs.a[0]
    pref = scale / (cfg.beta * (energy / floor + cfg.eps) * floor)
    k_pi = np.pi * np.arange(cfg.modes, dtype=np.float64)
    proj = wb.u @ c1.T
    dedt = ((coeffs.lambda0 * coeffs.a * c0 * k_pi) @ sinmat
            + math.sqrt(d) * np.einsum("ik,k,ki->i", proj, coeffs.lambda1 * coeffs.a * k_pi, sinmat))
    g_t = (-2.0 * pref / n) * dedt + extra_t
    f = (2.0 * math.sqrt(d) * coeffs.lambda1 * pref / n) * coeffs.a
    coef = 2.0 * g_t * chi2_pdf_array(d, wb.s) - np.einsum("ik,k,ki->i", proj, f, cosmat) / wb.s
    coef[wb.norm_floored] = 0.0
    inv_norm = np.where(wb.norm_floored, 0.0, 1.0 / np.sqrt(wb.s))
    modes = np.vstack([cosmat * inv_norm, np.ones(n)])
    grad = x * coef[:, None]
    grad += modes.T @ np.vstack([f[:, None] * c1, row])
    return spectral_value_from_wristband(wb, cfg), grad
