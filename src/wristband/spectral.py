"""Spectral Neumann path: the O(NdK) approximation of the reflected repulsion.

The infinite-image radial kernel is exactly a cosine series on [0, 1]
(Poisson summation), and the chordal angular kernel is a zonal kernel
on the sphere whose Mercer eigenvalues come from the Funk-Hecke
theorem in terms of the scaled modified Bessel function.  Truncating
to angular degrees {0, 1} and K radial cosine modes turns the kernel
energy into a function of K + K*d batch summary statistics, computed
in a single pass.

The spectral energy is the plain V-statistic (self-pairs included),
which is what makes the single-pass evaluation possible; it therefore
differs from the pairwise loss by the self-interaction handling and
the mode truncation, and the two are reconciled empirically by the
parity harness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .errors import ContractViolation, _integer, _real
from .pairwise import KernelConfig, LossValueGrad
from .specfun import log_gamma, scaled_bessel_i
from .wristband_map import WristbandBatch, _radial_pullback, wristband_forward

__all__ = [
    "SpectralCoeffs",
    "SpectralSummary",
    "angular_eigenvalues",
    "radial_cosine_coeffs",
    "spectral_coefficients",
    "spectral_summary",
    "spectral_energy",
    "spectral_loss",
    "spectral_value_from_wristband",
]


@dataclass(frozen=True)
class SpectralCoeffs:
    """Angular eigenvalues (degrees 0 and 1) and radial cosine coefficients."""

    lambda0: float
    lambda1: float
    a: np.ndarray


@dataclass(frozen=True)
class SpectralSummary:
    """Batch summary statistics: c0[k] scalar and c1[k] in R^d per cosine mode."""

    c0: np.ndarray
    c1: np.ndarray


def angular_eigenvalues(d: int, beta: float, alpha: float) -> tuple[float, float]:
    """Funk-Hecke eigenvalues (degrees 0 and 1) of the chordal Gaussian kernel.

    lambda_l = Gamma(nu + 1) (2/c)^nu e^{-c} I_{nu+l}(c), nu = (d - 2)/2,
    joined in log space so large d does not overflow the Gamma/power
    prefactor.  At d = 2 (the circle) it is e^{-c} I_l(c).  The
    scaled Bessel factor underflows to 0 once nu is large against c
    (d >= 313 at beta = 8 and alpha = sqrt(1/12)); the loss would then
    divide by a zero eigenvalue, so that is refused.
    """
    d = _integer("d", d, 2)
    beta, alpha = _real("beta", beta), _real("alpha", alpha)
    c = 2.0 * beta * alpha * alpha
    if not (c > 0.0 and math.isfinite(c)):
        raise ContractViolation(f"need 2*beta*alpha^2 > 0, got {c}")
    nu = 0.5 * (d - 2)
    log_pref = log_gamma(nu + 1.0) + nu * math.log(2.0 / c)
    lams = []
    for ell in (0, 1):
        ib = scaled_bessel_i(nu + ell, c)
        lam = math.exp(log_pref + math.log(ib)) if ib > 0.0 else 0.0
        if lam == 0.0:
            raise ContractViolation(
                f"the degree-{ell} angular eigenvalue underflows at d={d}, "
                f"beta={beta!r}, alpha={alpha!r}"
            )
        lams.append(lam)
    return lams[0], lams[1]


def radial_cosine_coeffs(beta: float, modes: int) -> np.ndarray:
    """Cosine-series coefficients of the infinite-image radial kernel.

    a_0 = sqrt(pi/beta) and a_k = 2 sqrt(pi/beta) exp(-pi^2 k^2 / (4 beta))
    for k >= 1, in the unnormalized basis cos(k pi t).  The factor 2 is
    the conversion from the orthonormal basis sqrt(2) cos(k pi t).
    """
    beta, modes = _real("beta", beta, 0.0, True), _integer("modes", modes, 1)
    k = np.arange(modes, dtype=np.float64)
    a = 2.0 * math.sqrt(math.pi / beta) * np.exp(-(math.pi**2) * k * k / (4.0 * beta))
    a[0] = math.sqrt(math.pi / beta)
    return a


@functools.lru_cache(maxsize=64)
def spectral_coefficients(d: int, cfg: KernelConfig) -> SpectralCoeffs:
    """All coefficients the spectral loss needs for a given dimension and config.

    Cached per (d, cfg), so the returned `a` array is read-only.  Every
    spectral value and gradient reads its config here, so this is where
    a per-point config is refused: the spectral energy is one global
    V-statistic with no per-point row sums to reduce.
    """
    if cfg.reduction != "global":
        raise ContractViolation(f"the spectral path has global reduction only, got {cfg.reduction!r}")
    lam0, lam1 = angular_eigenvalues(d, cfg.beta, cfg.alpha)
    a = radial_cosine_coeffs(cfg.beta, cfg.modes)
    a.flags.writeable = False
    return SpectralCoeffs(lambda0=lam0, lambda1=lam1, a=a)


def _summarize(wb: WristbandBatch, modes: int):
    """The summary plus the (K, N) mode values cos(k pi t_i) and sin(k pi t_i).

    Modes k >= 2 come from cos(pi t) and sin(pi t) by angle addition, so
    a summary costs 2N transcendental calls instead of 2KN; the rounding
    error grows about linearly in k (below 1e-13 absolute at K = 64).
    """
    modes = _integer("modes", modes, 1)
    n, d = wb.u.shape
    cosmat = np.empty((modes, n))
    sinmat = np.empty((modes, n))
    cosmat[0], sinmat[0] = 1.0, 0.0
    if modes > 1:
        theta = np.pi * wb.t
        c, s = np.cos(theta), np.sin(theta)
        cosmat[1], sinmat[1] = c, s
        for k in range(2, modes):
            cosmat[k] = cosmat[k - 1] * c - sinmat[k - 1] * s
            sinmat[k] = sinmat[k - 1] * c + cosmat[k - 1] * s
    c0 = cosmat.mean(axis=1)
    c1 = (math.sqrt(d) / n) * (cosmat @ wb.u)  # (K, d)
    return SpectralSummary(c0=c0, c1=c1), cosmat, sinmat


def spectral_summary(wb: WristbandBatch, modes: int) -> SpectralSummary:
    """Single-pass batch summaries c0[k] = mean cos(k pi t_i) and
    c1[k] = (sqrt(d)/N) sum_i u_i cos(k pi t_i)."""
    return _summarize(wb, modes)[0]


def spectral_energy(summary: SpectralSummary, coeffs: SpectralCoeffs) -> float:
    """Truncated kernel energy from the summary statistics."""
    e0 = float(np.dot(coeffs.a, summary.c0 * summary.c0))
    e1 = float(np.dot(coeffs.a, np.einsum("kd,kd->k", summary.c1, summary.c1)))
    return coeffs.lambda0 * e0 + coeffs.lambda1 * e1


def spectral_value_from_wristband(wb: WristbandBatch, cfg: KernelConfig) -> float:
    """Loss value only (no gradient); the cheap path used during calibration."""
    coeffs = spectral_coefficients(wb.dim, cfg)
    return _value(spectral_energy(spectral_summary(wb, cfg.modes), coeffs), coeffs, cfg)


def _value(energy: float, coeffs: SpectralCoeffs, cfg: KernelConfig) -> float:
    """log(E / (lambda0 a0) + eps) / beta."""
    return math.log(energy / (coeffs.lambda0 * coeffs.a[0]) + cfg.eps) / cfg.beta


def _spectral_value_grad(x: np.ndarray, wb: WristbandBatch, cfg: KernelConfig, scale: float,
                         grad_t: np.ndarray, row: np.ndarray, out: np.ndarray) -> float:
    """Loss value; writes `scale` times its gradient w.r.t. the points x to `out`.

    x is the validated batch that wb maps.  The pullback of the extra
    t-cotangent `grad_t` (N,) is added to the gradient, and the d-vector
    `row` to every row of it.  out is a C-contiguous (N, d) array that
    does not overlap x; it may be wb.u itself, which is then overwritten
    once read.

    The energy sees the directions only through the K summaries c1, so
    their cotangent is rank K: g_u = C^T F, C the (K, N) cosine modes and
    F = f * c1 a (K, d) factor.  The map adjoint is taken as

        g_x = x (2 f(s) g_t - (u . g_u) / s) + (C diag(1/|x|))^T F + 1 row^T,

    with u . g_u = sum_k cos(k pi t_i) f_k <c1_k, u_i> from the (N, K)
    projections that g_t needs anyway.  The first term is the map's
    `_radial_pullback`, which writes it to out and returns |x|; the other
    two are one BLAS product with beta = 1 of the stacked (K + 1, N) and
    (K + 1, d) matrices, so no N x d cotangent is formed.  A floored
    point's |x| is inf, so its 1/|x| is 0 and, with the zero row the
    pullback writes, it receives `row` alone.  The value comes from the
    same summary, energy and log as `spectral_value_from_wristband`, so
    the two agree exactly.
    """
    n, d = wb.u.shape
    coeffs = spectral_coefficients(d, cfg)
    summary, cosmat, sinmat = _summarize(wb, cfg.modes)
    c0, c1 = summary.c0, summary.c1
    kvec = np.arange(cfg.modes, dtype=np.float64)
    energy = spectral_energy(summary, coeffs)
    floor = coeffs.lambda0 * coeffs.a[0]
    value = _value(energy, coeffs, cfg)

    pref = scale / (cfg.beta * (energy / floor + cfg.eps) * floor)
    # dE/dt_i routes through both c0 and c1; dE/du_i only through c1.
    q0 = coeffs.lambda0 * coeffs.a * c0 * (np.pi * kvec)  # (K,)
    proj = wb.u @ c1.T  # (N, K): <c1_k, u_i>
    q1 = coeffs.lambda1 * coeffs.a * (np.pi * kvec)  # (K,)
    dedt = q0 @ sinmat + math.sqrt(d) * np.einsum("ik,k,ki->i", proj, q1, sinmat)
    g_t = (-2.0 * pref / n) * dedt
    g_t += grad_t
    f = (2.0 * math.sqrt(d) * coeffs.lambda1 * pref / n) * coeffs.a  # (K,)
    norm = _radial_pullback(x, wb, g_t, np.einsum("ik,k,ki->i", proj, f, cosmat), out)

    left, right = np.empty((cfg.modes + 1, n)), np.empty((cfg.modes + 1, d))
    np.multiply(cosmat, 1.0 / norm, out=left[:-1])
    np.multiply(f[:, None], c1, out=right[:-1])
    left[-1], right[-1] = 1.0, row
    dgemm(1.0, right.T, left.T, beta=1.0, c=out.T, overwrite_c=True, trans_b=True)
    return value


def spectral_loss(batch, cfg: KernelConfig) -> LossValueGrad:
    """Spectral repulsion log(E / (lambda0 a0) + eps) / beta with its gradient.

    lambda0 * a0 is the population value of the retained constant mode,
    so the argument of the log is >= 1 and the loss is bounded below by
    log(1 + eps) / beta.
    """
    wb = wristband_forward(batch)
    x = np.asarray(batch, dtype=np.float64)  # validated by wristband_forward
    n, d = x.shape
    # The gradient overwrites the directions, which only this call holds.
    value = _spectral_value_grad(x, wb, cfg, 1.0, np.zeros(n), np.zeros(d), wb.u)
    return LossValueGrad(value=value, grad=wb.u)
