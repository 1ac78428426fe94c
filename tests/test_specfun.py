"""Special-function accuracy against independent oracles.

Expected values marked as frozen were computed once with mpmath at 40
digits (scripts inline in comments); the chi-squared CDF sweep evaluates
mpmath directly.  The implementation never sees mpmath.
"""

import math
from statistics import NormalDist

import mpmath
import numpy as np
import pytest

from wristband.errors import ContractViolation
from wristband.specfun import (
    chi2_cdf,
    chi2_cdf_array,
    chi2_pdf,
    chi2_pdf_array,
    gaussian_quantile_grid,
    log_gamma,
    scaled_bessel_i,
)
from wristband.wristband_map import NORM_FLOOR


class TestLogGamma:
    def test_gamma_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_factorial_oracle(self):
        # Gamma(10) = 9!
        fact = 1
        for k in range(1, 10):
            fact *= k
        assert log_gamma(10.0) == pytest.approx(math.log(fact), rel=1e-13)

    def test_accuracy_grid(self):
        # mpmath.loggamma at 40 digits, frozen.
        frozen = {
            1e-3: 6.907178885383853399,
            0.1: 2.252712651734205960,
            2.5: 0.2846828704729191596,
            123.4: 469.3360974421905549,
            1e6: 12815504.569147610555,
        }
        for a, ref in frozen.items():
            err = abs(log_gamma(a) - ref) / max(abs(ref), 1.0)
            assert err < 1e-12, (a, err)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ContractViolation):
                log_gamma(bad)


class TestRegLowerGamma:
    # The regularized lower incomplete gamma P(a, x) survives as the
    # chi-squared CDF: P(a, x) = F_{2a}(2x), evaluated by chi2_cdf_array.

    def test_limit_to_one(self):
        # P(2, 200) = 1 - 201 e^-200 rounds to 1.
        assert chi2_cdf_array(4, 400.0) == pytest.approx(1.0, abs=1e-14)

    def test_series_oracle_value(self):
        # mpmath.gammainc(2.5, 0, 2.5, regularized=True) at 40 digits.
        assert chi2_cdf_array(5, 5.0) == pytest.approx(0.5841198130044920797, abs=1e-13)

    def test_transition_region_oracle(self):
        # mpmath.gammainc(128, 0, 127, regularized=True) at 40 digits.
        assert chi2_cdf_array(256, 254.0) == pytest.approx(0.4764234594249467426, abs=1e-13)


class TestChi2:
    def test_cdf_closed_form_d2(self):
        # d=2: F(s) = 1 - exp(-s/2)
        assert chi2_cdf(2, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_cdf_at_zero(self):
        assert chi2_cdf(4, 0.0) == 0.0

    def test_cdf_median_region_d10(self):
        # Simpson quadrature oracle of the chi-squared(10) density on [0, 10],
        # frozen: 0.5595067149347875.
        assert chi2_cdf(10, 10.0) == pytest.approx(0.5595067149347875, abs=1e-12)

    def test_cdf_monotone_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            d = int(rng.integers(1, 80))
            s1, s2 = sorted(rng.uniform(0.0, 4.0 * d, size=2))
            assert chi2_cdf(d, s1) <= chi2_cdf(d, s2) + 1e-15

    def test_pdf_closed_form_d2(self):
        assert chi2_pdf(2, 0.5) == pytest.approx(math.exp(-0.25) / 2.0, rel=1e-13)

    def test_pdf_closed_form_d1(self):
        assert chi2_pdf(1, 1.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-13
        )

    def test_pdf_matches_cdf_finite_differences(self):
        # Central differences are well conditioned only where the density
        # is not vanishingly small; probe the bulk of each distribution.
        h = 1e-6
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 50:
            d = int(rng.integers(1, 40))
            s = float(rng.uniform(0.3 * d, 1.5 * d))
            if chi2_pdf(d, s) < 1e-4:
                continue
            fd = (chi2_cdf(d, s + h) - chi2_cdf(d, s - h)) / (2.0 * h)
            assert chi2_pdf(d, s) == pytest.approx(fd, rel=1e-6)
            checked += 1

    def test_pdf_integrates_to_cdf(self):
        # Simpson quadrature of the density reproduces the CDF to 1e-8.
        # The density is singular at 0 for d = 1 and finite for d = 2, so
        # those start away from the origin and compare CDF differences.
        # d = 3 has a sqrt cusp at the origin, so it also starts offset.
        cases = [(1, 1.0, 4.0), (2, 1e-12, 5.0), (3, 0.5, 7.5), (8, 1e-12, 20.0), (25, 1e-12, 62.5)]
        for d, lower, upper in cases:
            m = 40001
            grid = np.linspace(lower, upper, m)
            vals = chi2_pdf_array(d, grid)
            h = grid[1] - grid[0]
            simpson = (h / 3.0) * (
                vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()
            )
            target = chi2_cdf(d, upper) - chi2_cdf(d, lower)
            assert simpson == pytest.approx(target, abs=1e-8), d

    def test_cdf_array_matches_mpmath_over_the_map_range(self):
        # The map evaluates F at squared norms floored at NORM_FLOOR**2, so
        # sweep from there to 10 d, plus chi-squared draws at each d.
        rng = np.random.default_rng(5)
        with mpmath.workdps(40):
            for d in (2, 3, 5, 8, 10, 16, 64, 128, 512):
                s = np.concatenate(
                    [np.geomspace(NORM_FLOOR**2, 10.0 * d, 40), rng.chisquare(d, size=20)]
                )
                ref = [
                    float(mpmath.gammainc(mpmath.mpf(d) / 2, 0, mpmath.mpf(x) / 2, regularized=True))
                    for x in s
                ]
                err = np.max(np.abs(chi2_cdf_array(d, s) - np.array(ref)))
                assert err <= 1e-12, (d, err)

    def test_cdf_domain(self):
        for bad in (math.nan, math.inf, -math.inf, -1e-300, -1.0):
            with pytest.raises(ContractViolation):
                chi2_cdf_array(4, np.array([1.0, bad]))
        for d in (0, -1):
            with pytest.raises(ContractViolation):
                chi2_cdf_array(d, np.array([1.0]))

    def test_pdf_domain(self):
        with pytest.raises(ContractViolation):
            chi2_pdf(3, 0.0)
        for d in (1, 2, 3):
            for bad in (0.0, -1.0):
                with pytest.raises(ContractViolation):
                    chi2_pdf_array(d, np.array([1.0, bad]))

    def test_array_paths_match_scalars(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 8, 64):
            s = rng.uniform(0.0, 5.0 * d, size=200)
            cdf = chi2_cdf_array(d, s)
            for i in (0, 17, 199):
                assert cdf[i] == pytest.approx(chi2_cdf(d, float(s[i])), abs=1e-15)
            sp = np.maximum(s, 1e-9)
            pdf = chi2_pdf_array(d, sp)
            assert pdf[5] == pytest.approx(chi2_pdf(d, float(sp[5])), rel=1e-14)


class TestScaledBesselI:
    def test_at_zero(self):
        assert scaled_bessel_i(0.0, 0.0) == 1.0
        assert scaled_bessel_i(1.0, 0.0) == 0.0

    def test_series_oracle_nu0_c1(self):
        # exp(-1) * I_0(1); I_0(1) from the power series sum over
        # (1/2)^{2m} / (m!)^2, frozen at 40 digits.
        assert scaled_bessel_i(0.0, 1.0) == pytest.approx(
            0.4657596075936404365, rel=1e-12
        )

    def test_frozen_grid(self):
        # mpmath: besseli(nu, c) * exp(-c), 40 digits, frozen.
        frozen = {
            (0.5, 4.0): 0.1994042250878339,
            (3.0, 16.0): 0.075255758377294705,
            (3.5, 81.92): 0.04094631034766749,
            (31.0, 1.3333333333333333): 1.1301094082456879e-40,
            (63.5, 100.0): 1.1812685630124056e-10,
            (127.0, 1000.0): 3.9952348884380187e-06,
            (0.0, 10000.0): 0.0039894726746047321,
        }
        for (nu, c), ref in frozen.items():
            got = scaled_bessel_i(nu, c)
            assert got == pytest.approx(ref, rel=1e-10), (nu, c)

    def test_positive_and_decreasing_in_order(self):
        for c in (0.5, 8.0, 50.0, 300.0):
            values = [scaled_bessel_i(nu, c) for nu in (0.0, 1.0, 2.5, 6.0)]
            assert all(v > 0.0 for v in values)
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_three_term_recurrence(self):
        # I_{nu-1}(c) - I_{nu+1}(c) = (2 nu / c) I_nu(c), scaled form.
        rng = np.random.default_rng(4)
        for _ in range(100):
            nu = float(rng.uniform(1.0, 20.0))
            c = float(rng.uniform(0.1, 200.0))
            lo = scaled_bessel_i(nu - 1.0, c)
            mid = scaled_bessel_i(nu, c)
            hi = scaled_bessel_i(nu + 1.0, c)
            lhs = lo - hi
            rhs = (2.0 * nu / c) * mid
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-300)

    def test_domain_errors(self):
        for nu, c in ((-0.5, 1.0), (1.0, -1.0), (math.inf, 1.0), (1.0, math.inf), (0.0, math.nan)):
            with pytest.raises(ContractViolation):
                scaled_bessel_i(nu, c)


class TestGaussianQuantileGrid:
    def test_median(self):
        # An odd grid has p = 1/2 at its middle.
        assert gaussian_quantile_grid(37)[18] == 0.0

    def test_upper_quantile(self):
        # The last midpoint of a 20-point grid is p = 0.975.
        assert gaussian_quantile_grid(20)[19] == pytest.approx(1.959963984540054, abs=1e-9)

    def test_accuracy_sweep(self):
        # |Phi(q_i) - p_i| <= 1e-10 with Phi from the error function, over
        # grid sizes that reach p = 1/(2n) ~ 8e-6 in both tails.
        for n in (1, 2, 3, 37, 512, 4096, 65536):
            p = (np.arange(n) + 0.5) / n
            q = gaussian_quantile_grid(n)
            phi = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in q])
            assert np.max(np.abs(phi - p)) <= 1e-10, n

    def test_matches_an_independent_quantile_and_caches(self):
        g1 = gaussian_quantile_grid(37)
        g2 = gaussian_quantile_grid(37)
        assert g1 is g2
        assert not g1.flags.writeable
        assert g1[5] == pytest.approx(NormalDist().inv_cdf((5 + 0.5) / 37), abs=1e-15)
