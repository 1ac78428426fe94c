"""Optional accelerator terms: radial Wasserstein and moment penalties.

Both vanish at the Gaussian target and are added only to speed up
finite-sample optimization; the repulsion term alone carries the
population guarantee.  The moment penalty is the closed-form squared
2-Wasserstein distance between the batch's fitted Gaussian and the
standard normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .pairwise import LossValueGrad
from .wristband_map import WristbandBatch, radial_pullback, validate_point_batch

__all__ = [
    "EIGENVALUE_CLAMP",
    "MomentSummary",
    "symmetric_eigen",
    "moment_summary",
    "radial_w2_value_from_wristband",
    "radial_w2_loss",
    "moment_w2_loss",
    "moment_w2_value",
]

# Rank-deficient batches appear routinely early in optimization; the
# clamp keeps sqrt and the gradient finite while preserving the descent
# direction (it still pushes collapsed eigenvalues up toward 1).
EIGENVALUE_CLAMP = 1e-9


@dataclass(frozen=True)
class MomentSummary:
    """Batch mean, biased covariance, and its eigendecomposition (descending)."""

    mean: np.ndarray
    cov: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray


def symmetric_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending.

    The input is symmetrized internally; asymmetry beyond 1e-10 (relative
    to the largest entry) is rejected as a contract violation.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractViolation("matrix contains non-finite entries")
    scale = max(float(np.max(np.abs(m))), 1.0)
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise ContractViolation("matrix is not symmetric within 1e-10")
    sym = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals, kind="stable")[::-1]
    return vals[order], vecs[:, order]


def moment_summary(batch) -> MomentSummary:
    """First and second moments of the batch with the covariance spectrum."""
    return _moment_summary(validate_point_batch(batch, min_n=2))


def _moment_summary(x: np.ndarray) -> MomentSummary:
    """`moment_summary` of a batch validated with at least two rows."""
    return _centered_moment_summary(x)[0]


def _centered_moment_summary(x: np.ndarray, out: np.ndarray | None = None
                             ) -> tuple[MomentSummary, np.ndarray]:
    """`_moment_summary` and the centered batch x - mean it was built from.

    The centered batch is written to `out` (not overlapping x) when it
    is given, else to a fresh array.
    """
    mean = x.mean(axis=0)
    centered = np.subtract(x, mean, out=out)
    cov = centered.T @ centered / x.shape[0]
    vals, vecs = symmetric_eigen(cov)
    return MomentSummary(mean=mean, cov=cov, eigvals=vals, eigvecs=vecs), centered


def _radial_value_grad_t(t: np.ndarray) -> tuple[float, np.ndarray]:
    n = t.shape[0]
    order = np.argsort(t, kind="stable")
    target = (np.arange(n) + 0.5) / n
    resid = t[order] - target
    value = float(np.dot(resid, resid)) / n
    grad_t = np.empty_like(t)
    grad_t[order] = 2.0 * resid / n
    return value, grad_t


def radial_w2_value_from_wristband(wb: WristbandBatch) -> float:
    """Value of the squared 1-D Wasserstein distance of {t_i} to Unif[0,1]."""
    return _radial_value_grad_t(wb.t)[0]


def radial_w2_loss(wb: WristbandBatch) -> LossValueGrad:
    """Order-statistics penalty (1/N) sum (t_(i) - (i - 1/2)/N)^2 with gradient.

    The gradient is routed through the stable sort permutation (ties
    broken by index) and then chained through the radial quantile map
    back to the raw points.
    """
    value, grad_t = _radial_value_grad_t(wb.t)
    x = wb.u * np.sqrt(wb.s)[:, None]
    return LossValueGrad(value=value, grad=radial_pullback(wb, grad_t, x))


def _moment_value(ms: MomentSummary) -> tuple[float, np.ndarray]:
    """Moment penalty of a summary, and the clamped eigenvalue roots behind it."""
    root = np.sqrt(np.maximum(ms.eigvals, EIGENVALUE_CLAMP))
    return float(np.dot(ms.mean, ms.mean) + np.sum((root - 1.0) ** 2)), root


def moment_w2_value(batch) -> float:
    """Value-only path of the moment penalty."""
    return _moment_value(moment_summary(batch))[0]


def moment_w2_loss(batch) -> LossValueGrad:
    """||mean||^2 + sum_i (sqrt(lambda_i) - 1)^2 with its gradient.

    The eigenvalue term is a spectral function of the covariance, so its
    matrix derivative is V diag(1 - lambda^{-1/2}) V^T; no eigenvector
    derivative is needed, and repeated eigenvalues are unproblematic.
    """
    return _moment_w2_loss(validate_point_batch(batch, min_n=2))


def _moment_w2_loss(x: np.ndarray, centered: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> LossValueGrad:
    """`moment_w2_loss` of a batch validated with at least two rows.

    `centered` receives the scaled centered batch, a temporary the caller
    may reuse once this returns, and `out` the gradient; each is a fresh
    N x d array when not given.  Neither may overlap x or the other.
    """
    n = x.shape[0]
    ms, centered = _centered_moment_summary(x, out=centered)
    value, root = _moment_value(ms)

    # ((2/n) (x - mean)) G + (2/n) mean, scaling the summary's centered batch
    # in place.
    g_spec = ms.eigvecs @ ((1.0 - 1.0 / root)[:, None] * ms.eigvecs.T)
    centered *= 2.0 / n
    grad = np.matmul(centered, g_spec, out=out)
    grad += (2.0 / n) * ms.mean
    return LossValueGrad(value=value, grad=grad)
