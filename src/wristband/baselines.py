"""Comparison losses: multiscale Gaussian MMD to N(0, I) and sliced W2.

Both use deterministic closed-form targets rather than resampled
Gaussian batches: the MMD cross and target-target terms have exact
Gaussian-integral expressions, and the sliced loss matches sorted
projections against fixed standard normal quantiles.  This removes
target sampling noise from the training signal.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, _integer
from .generators import RngStream
from .pairwise import LossValueGrad
from .specfun import gaussian_quantile_grid
from .wristband_map import validate_point_batch

__all__ = ["MMD_BANDWIDTH_MULTIPLIERS", "mmd_loss", "sliced_w2_loss", "sample_projections"]

MMD_BANDWIDTH_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


def mmd_loss(batch) -> LossValueGrad:
    """Squared MMD to N(0, I_d), summed over bandwidths sigma = sqrt(d) * m,
    m in MMD_BANDWIDTH_MULTIPLIERS.

    The empirical term is the V-statistic; the cross term uses
    E_{y~N}[k(x, y)] = (s^2/(s^2+1))^{d/2} exp(-||x||^2 / (2(s^2+1)))
    and the constant target-target term is (s^2/(s^2+2))^{d/2}.
    """
    x = validate_point_batch(batch, min_n=2)
    n, d = x.shape
    sq_norms = np.einsum("ij,ij->i", x, x)
    gram = x @ x.T
    dists = sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram
    np.maximum(dists, 0.0, out=dists)

    value = 0.0
    grad = np.zeros_like(x)
    for mult in MMD_BANDWIDTH_MULTIPLIERS:
        s2 = d * mult * mult
        k = np.exp(-dists / (2.0 * s2))
        cross = (s2 / (s2 + 1.0)) ** (0.5 * d) * np.exp(-sq_norms / (2.0 * (s2 + 1.0)))
        tt = (s2 / (s2 + 2.0)) ** (0.5 * d)
        value += float(k.sum()) / (n * n) - 2.0 * float(cross.sum()) / n + tt

        rowsum = k.sum(axis=1)
        grad += (-2.0 / (n * n * s2)) * (x * rowsum[:, None] - k @ x)
        grad += (2.0 / (n * (s2 + 1.0))) * cross[:, None] * x
    return LossValueGrad(value=value, grad=grad)


def sample_projections(d: int, count: int, stream: RngStream) -> np.ndarray:
    """count random unit directions in R^d from the given stream."""
    dirs = stream.normal_matrix(_integer("projection count", count, 1), _integer("d", d, 1))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def sliced_w2_loss(batch, projections) -> LossValueGrad:
    """Mean 1-D squared W2 between projected values and Gaussian quantiles.

    `projections` is a (P, d) array of unit directions (`sample_projections`
    draws them).  The gradient is routed through the per-projection sort
    permutations (stable, ties by index).
    """
    x = validate_point_batch(batch, min_n=2)
    n, d = x.shape
    theta = np.asarray(projections, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[1] != d or theta.shape[0] < 1:
        raise ContractViolation(f"projections must be (P, {d}) with P >= 1, got {theta.shape}")
    p = theta.shape[0]

    v = x @ theta.T  # (N, P)
    order = np.argsort(v, axis=0, kind="stable")
    quantiles = gaussian_quantile_grid(n)
    resid = np.take_along_axis(v, order, axis=0) - quantiles[:, None]
    value = float(np.einsum("ip,ip->", resid, resid)) / (n * p)

    grad_v = np.empty_like(v)
    np.put_along_axis(grad_v, order, 2.0 * resid / (n * p), axis=0)
    return LossValueGrad(value=value, grad=grad_v @ theta)
