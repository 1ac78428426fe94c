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

from .errors import DomainError, UnsupportedDimension
from .pairwise import KernelConfig, LossValueGrad
from .specfun import log_gamma, scaled_bessel_i
from .wristband_map import WristbandBatch, _backward, wristband_forward

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
    """Angular eigenvalues (degrees 0 and 1) and radial cosine coefficients.

    nu = (d - 2) / 2 is the sphere parameter and c = 2 beta alpha^2 the
    Bessel argument of the angular eigenvalue formula.
    """

    lambda0: float
    lambda1: float
    a: np.ndarray
    nu: float
    c: float


@dataclass(frozen=True)
class SpectralSummary:
    """Batch summary statistics: c0[k] scalar and c1[k] in R^d per cosine mode."""

    c0: np.ndarray
    c1: np.ndarray


def angular_eigenvalues(d: int, beta: float, alpha: float) -> tuple[float, float]:
    """Funk-Hecke eigenvalues (degrees 0 and 1) of the chordal Gaussian kernel.

    lambda_l = Gamma(nu + 1) (2/c)^nu e^{-c} I_{nu+l}(c), joined in log
    space so large d does not overflow the Gamma/power prefactor.
    """
    if d < 3:
        raise UnsupportedDimension(f"the spectral path requires d >= 3, got {d}")
    c = 2.0 * beta * alpha * alpha
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError(f"need 2*beta*alpha^2 > 0, got {c}")
    nu = 0.5 * (d - 2)
    log_pref = log_gamma(nu + 1.0) + nu * math.log(2.0 / c)
    lams = []
    for ell in (0, 1):
        ib = scaled_bessel_i(nu + ell, c)
        lams.append(math.exp(log_pref + math.log(ib)) if ib > 0.0 else 0.0)
    return lams[0], lams[1]


def radial_cosine_coeffs(beta: float, modes: int) -> np.ndarray:
    """Cosine-series coefficients of the infinite-image radial kernel.

    a_0 = sqrt(pi/beta) and a_k = 2 sqrt(pi/beta) exp(-pi^2 k^2 / (4 beta))
    for k >= 1, in the unnormalized basis cos(k pi t).  The factor 2 is
    the conversion from the orthonormal basis sqrt(2) cos(k pi t).
    """
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if modes < 1:
        raise DomainError(f"modes must be >= 1, got {modes}")
    k = np.arange(modes, dtype=np.float64)
    a = 2.0 * math.sqrt(math.pi / beta) * np.exp(-(math.pi**2) * k * k / (4.0 * beta))
    a[0] = math.sqrt(math.pi / beta)
    return a


@functools.lru_cache(maxsize=64)
def spectral_coefficients(d: int, cfg: KernelConfig) -> SpectralCoeffs:
    """All coefficients the spectral loss needs for a given dimension and config.

    Cached per (d, cfg), so the returned `a` array is read-only.
    """
    lam0, lam1 = angular_eigenvalues(d, cfg.beta, cfg.alpha)
    a = radial_cosine_coeffs(cfg.beta, cfg.modes)
    a.flags.writeable = False
    return SpectralCoeffs(
        lambda0=lam0, lambda1=lam1, a=a, nu=0.5 * (d - 2), c=2.0 * cfg.beta * cfg.alpha**2
    )


def _summarize(wb: WristbandBatch, modes: int):
    """The summary plus the (K, N) mode values cos(k pi t_i) and sin(k pi t_i).

    Modes k >= 2 come from cos(pi t) and sin(pi t) by angle addition, so
    a summary costs 2N transcendental calls instead of 2KN; the rounding
    error grows about linearly in k (below 1e-13 absolute at K = 64).
    """
    if modes < 1:
        raise DomainError(f"modes must be >= 1, got {modes}")
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


def spectral_value_from_wristband(
    wb: WristbandBatch, coeffs: SpectralCoeffs, cfg: KernelConfig
) -> float:
    """Loss value only (no gradient); the cheap path used during calibration."""
    return _value(spectral_energy(spectral_summary(wb, cfg.modes), coeffs), coeffs, cfg)


def _value(energy: float, coeffs: SpectralCoeffs, cfg: KernelConfig) -> float:
    """log(E / (lambda0 a0) + eps) / beta."""
    return math.log(energy / (coeffs.lambda0 * coeffs.a[0]) + cfg.eps) / cfg.beta


def _spectral_value_cotangents(wb: WristbandBatch, cfg: KernelConfig, scale: float = 1.0,
                               out: np.ndarray | None = None):
    """Loss value and its cotangents (grad_u, grad_t) on the wristband coordinates.

    The cotangents come multiplied by `scale`, which is folded into the
    K x d factor of the one N x K @ K x d product; that product is
    written to `out` (not overlapping wb.u) when it is given.  The value
    comes from the same summary, energy and log as
    `spectral_value_from_wristband`, so the two agree exactly.
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
    grad_t = (-2.0 * pref / n) * dedt
    factor = (2.0 * math.sqrt(d) * coeffs.lambda1 * pref / n) * coeffs.a[:, None] * c1
    return value, np.matmul(cosmat.T, factor, out=out), grad_t


def spectral_loss(batch, cfg: KernelConfig) -> LossValueGrad:
    """Spectral repulsion log(E / (lambda0 a0) + eps) / beta with its gradient.

    lambda0 * a0 is the population value of the retained constant mode,
    so the argument of the log is >= 1 and the loss is bounded below by
    log(1 + eps) / beta.
    """
    wb = wristband_forward(batch)
    value, grad_u, grad_t = _spectral_value_cotangents(wb, cfg)
    x = np.asarray(batch, dtype=np.float64)  # validated by wristband_forward
    return LossValueGrad(value=value, grad=_backward(x, wb, grad_u, grad_t))
