"""Three-image reflected repulsion on the wristband, with analytic gradients.

The kernel factorizes into a chordal Gaussian on the sphere and a
reflected Gaussian on [0, 1]:

    k_ang(u, u') = exp(-beta * alpha^2 * ||u - u'||^2)
    k_img(t, t') = exp(-beta (t-t')^2) + exp(-beta (t+t')^2)
                 + exp(-beta (t+t'-2)^2)

The two extra radial terms are the mirror images of t' across the
interval boundaries; they restore the kernel mass a uniform target
would otherwise leak outside [0, 1].  The loss is the log of the
kernel sum with the N real self-interactions (each exactly 1) removed;
the reflected self-images are retained on purpose, as the finite-batch
boundary correction.

The O(N^2) accumulation is tiled: each row tile evaluates its full
within-tile square plus the strictly-right cross block, and cross-block
contributions are mirrored into both row and column accumulators, so
every off-diagonal pair is evaluated exactly once.  Tile traversal
order is fixed, so results are deterministic for a given tile size;
the tile size is an explicit argument with a fixed default and is part
of the reproducibility contract.

Value and gradient take one pass over the kernel tiles under global
reduction and two under per-point reduction.  The gradient is a
pair-weighted sum with weights w_i + w_j.  Under global reduction the
weights are one constant that depends on the kernel sum only, so the
pass runs with unit pair weights, takes the row sums from the kernel
block it already forms, and rescales the gradient once at the end.
Under per-point reduction w_i depends on row i's kernel sum, so the
row sums need a pass of their own before the gradient pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .wristband_map import WristbandBatch, wristband_backward, wristband_forward

__all__ = [
    "ALPHA_UNIFORM_STD",
    "DEFAULT_TILE",
    "KernelConfig",
    "LossValueGrad",
    "angular_kernel",
    "radial_image_kernel",
    "radial_neumann_kernel",
    "pairwise_repulsion_loss",
    "pairwise_value_from_wristband",
]

# Standard deviation of Unif[0,1]; the angular scale that matches the
# chordal kernel to the radial coordinate's spread.  This is the alpha
# behind the canonical beta=8 calibration constants.
ALPHA_UNIFORM_STD = math.sqrt(1.0 / 12.0)

DEFAULT_TILE = 128


@dataclass(frozen=True)
class KernelConfig:
    """Kernel bandwidths, weights, and reduction mode for the wristband losses.

    beta sets the interaction range (large beta = sharp, short-range);
    alpha balances the angular scale against the radial one.  weights
    order is (w_rep, w_rad, w_mom).  modes is the number of radial
    cosine modes retained on the spectral path.
    """

    beta: float = 8.0
    alpha: float = 1.0
    eps: float = 1e-12
    reduction: str = "global"
    weights: tuple[float, float, float] = (1.0, 0.1, 1.0)
    modes: int = 6

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise DomainError(f"eps must be positive and finite, got {self.eps}")
        if self.reduction not in ("global", "per_point"):
            raise DomainError(f"reduction must be 'global' or 'per_point', got {self.reduction!r}")
        if len(self.weights) != 3 or any(w < 0.0 or not math.isfinite(w) for w in self.weights):
            raise DomainError(f"weights must be three nonnegative reals, got {self.weights}")
        if self.modes < 1:
            raise DomainError(f"modes must be >= 1, got {self.modes}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @classmethod
    def direct_benchmark(cls, **overrides) -> "KernelConfig":
        """Defaults for direct point-cloud optimization runs."""
        cfg = cls(beta=64.0, alpha=0.8, reduction="global")
        return replace(cfg, **overrides) if overrides else cfg

    def to_dict(self) -> dict:
        return {
            "beta": repr(self.beta),
            "alpha": repr(self.alpha),
            "eps": repr(self.eps),
            "reduction": self.reduction,
            "weights": [repr(w) for w in self.weights],
            "modes": self.modes,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KernelConfig":
        return cls(
            beta=float(obj["beta"]),
            alpha=float(obj["alpha"]),
            eps=float(obj["eps"]),
            reduction=obj["reduction"],
            weights=tuple(float(w) for w in obj["weights"]),
            modes=int(obj["modes"]),
        )


@dataclass(frozen=True)
class LossValueGrad:
    """A scalar loss value and its gradient w.r.t. the raw (N, d) points."""

    value: float
    grad: np.ndarray


def angular_kernel(u, u2, cfg: KernelConfig):
    """Chordal Gaussian between unit vectors: exp(-beta alpha^2 ||u - u2||^2)."""
    u = np.asarray(u, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    diff = u - u2
    sq = np.sum(diff * diff, axis=-1)
    return np.exp(-cfg.beta * cfg.alpha**2 * sq)


def radial_image_kernel(t, t2, beta: float):
    """Three-image reflected kernel on [0, 1]: real point plus its mirrors at 0 and 1."""
    t = np.asarray(t, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    return (
        np.exp(-beta * (t - t2) ** 2)
        + np.exp(-beta * (t + t2) ** 2)
        + np.exp(-beta * (t + t2 - 2.0) ** 2)
    )


def radial_neumann_kernel(t, t2, beta: float, images: int = 10):
    """Reflected radial kernel with images m in [-images, images] in both sums.

    This is the truncation oracle for :func:`radial_image_kernel`; at
    moderate beta a handful of images already reproduces the infinite
    reflection to machine precision.
    """
    if images < 1:
        raise DomainError(f"images must be >= 1, got {images}")
    t = np.asarray(t, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    total = np.zeros(np.broadcast(t, t2).shape)
    for m in range(-images, images + 1):
        total = total + np.exp(-beta * (t - t2 - 2.0 * m) ** 2)
        total = total + np.exp(-beta * (t + t2 - 2.0 * m) ** 2)
    return total


def _exp_blocks(u_rows, t_rows, u_cols, t_cols, cfg: KernelConfig):
    """Kernel factor blocks for a row tile against a column range.

    Returns (z, td, ts) where z[0] is the angular factor, z[1..3] the
    three radial image factors, and td/ts the signed coordinate sums the
    gradient needs.  All four exponentials go through one np.exp call.
    """
    gram = u_rows @ u_cols.T
    z = np.empty((4,) + gram.shape)
    td = np.subtract(t_rows[:, None], t_cols[None, :])
    ts = np.add(t_rows[:, None], t_cols[None, :])
    np.multiply(td, td, out=z[1])
    np.multiply(ts, ts, out=z[2])
    np.multiply(ts - 2.0, ts - 2.0, out=z[3])
    z[1:] *= -cfg.beta
    np.subtract(gram, 1.0, out=z[0])
    z[0] *= 2.0 * cfg.beta * cfg.alpha**2
    np.exp(z, out=z)
    return z, td, ts


def _row_sums(wb: WristbandBatch, cfg: KernelConfig, tile: int) -> np.ndarray:
    """Row sums of the full kernel matrix, each off-diagonal pair computed once."""
    n = wb.n
    rows = np.zeros(n)
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        z, _, _ = _exp_blocks(wb.u[lo:hi], wb.t[lo:hi], wb.u[lo:hi], wb.t[lo:hi], cfg)
        rows[lo:hi] += np.sum(z[0] * (z[1] + z[2] + z[3]), axis=1)
        if hi < n:
            z, _, _ = _exp_blocks(wb.u[lo:hi], wb.t[lo:hi], wb.u[hi:], wb.t[hi:], cfg)
            k = z[0] * (z[1] + z[2] + z[3])
            rows[lo:hi] += k.sum(axis=1)
            rows[hi:] += k.sum(axis=0)
    return rows


def _reduce(rows: np.ndarray, cfg: KernelConfig):
    """Loss value and normalized kernel mass from the kernel row sums.

    The mass is a scalar under global reduction and one entry per row
    under per-point reduction; the real self-interactions are removed.
    """
    n = rows.shape[0]
    if cfg.reduction == "global":
        a = (float(np.sum(rows)) - n) / (3.0 * n * n - n)
        return math.log(a + cfg.eps) / cfg.beta, a
    a_i = (rows - 1.0) / (3.0 * n - 1.0)
    return float(np.mean(np.log(a_i + cfg.eps))) / cfg.beta, a_i


def pairwise_value_from_wristband(wb: WristbandBatch, cfg: KernelConfig,
                                  tile: int = DEFAULT_TILE) -> float:
    """Loss value only (no gradient); the cheap path used during calibration."""
    return _reduce(_row_sums(wb, cfg, tile), cfg)[0]


def _accumulate_grads(wb: WristbandBatch, cfg: KernelConfig, w: np.ndarray | None, tile: int):
    """Gradients of sum_ij w-weighted kernel w.r.t. (u, t), and weighted row sums.

    Uses the identity grad_k = sum_j (w_k + w_j) dK(k, j)/d(first slot),
    which is exact including the diagonal terms (the retained reflected
    self-images move with t_k at twice the one-sided rate, and the
    weight sum doubles at j = k).

    w=None means unit pair weights (w_k + w_j = 1).  The weighted
    block m is then exactly the kernel block, so the returned row sums
    sum_j (w_k + w_j) K(k, j) are the kernel row sums, bit-identical to
    `_row_sums`: the same products, summed in the same order.  Global
    reduction uses this to get value and gradient from one pass.
    Per-point reduction needs the row sums to form w, so it calls
    `_row_sums` first and this pass second.
    """
    n = wb.n
    c_ang = 2.0 * cfg.beta * cfg.alpha**2
    grad_u = np.zeros_like(wb.u)
    grad_t = np.zeros_like(wb.t)
    rows = np.zeros(n)

    def block_contrib(sl_rows, sl_cols, mirror: bool):
        z, td, ts = _exp_blocks(wb.u[sl_rows], wb.t[sl_rows], wb.u[sl_cols], wb.t[sl_cols], cfg)
        if w is None:
            w0 = z[0]
        else:
            w0 = w[sl_rows][:, None] + w[sl_cols][None, :]
            w0 *= z[0]  # weighted angular factor, reused by every term below
        # Antisymmetric (first image) and symmetric (reflected images)
        # parts of the radial derivative, pre-weighted.
        td *= z[1]
        td *= w0
        ts2 = ts - 2.0
        ts *= z[2]
        ts2 *= z[3]
        ts += ts2
        ts *= w0
        grad_t[sl_rows] += -2.0 * cfg.beta * (np.sum(ts, axis=1) + np.sum(td, axis=1))
        if mirror:
            grad_t[sl_cols] += -2.0 * cfg.beta * (np.sum(ts, axis=0) - np.sum(td, axis=0))
        # Angular part: m = (w_i + w_j) k_ang k_img.
        z[1] += z[2]
        z[1] += z[3]
        m = z[1]
        m *= w0
        row_m = m.sum(axis=1)
        rows[sl_rows] += row_m
        grad_u[sl_rows] += -c_ang * (wb.u[sl_rows] * row_m[:, None] - m @ wb.u[sl_cols])
        if mirror:
            col_m = m.sum(axis=0)
            rows[sl_cols] += col_m
            grad_u[sl_cols] += -c_ang * (wb.u[sl_cols] * col_m[:, None] - m.T @ wb.u[sl_rows])

    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        block_contrib(slice(lo, hi), slice(lo, hi), mirror=False)
        if hi < n:
            block_contrib(slice(lo, hi), slice(hi, n), mirror=True)
    return grad_u, grad_t, rows


def _pairwise_value_cotangents(wb: WristbandBatch, cfg: KernelConfig, tile: int):
    """Loss value and its cotangents (grad_u, grad_t) on the wristband coordinates.

    Row weights w_i give grad = sum_j (w_i + w_j) dK(i, j).  Global
    reduction has the constant w = 1 / (beta (a + eps) (3N^2 - N)), so
    one unit-weight pass gives the row sums and a gradient that is
    rescaled by 2w once at the end.
    """
    n = wb.n
    if cfg.reduction == "global":
        grad_u, grad_t, rows = _accumulate_grads(wb, cfg, None, tile)
        value, a = _reduce(rows, cfg)
        scale = 2.0 / (cfg.beta * (a + cfg.eps) * (3.0 * n * n - n))
        grad_u *= scale
        grad_t *= scale
        return value, grad_u, grad_t
    value, a_i = _reduce(_row_sums(wb, cfg, tile), cfg)
    w = 1.0 / (n * cfg.beta * (a_i + cfg.eps) * (3.0 * n - 1.0))
    grad_u, grad_t, _ = _accumulate_grads(wb, cfg, w, tile)
    return value, grad_u, grad_t


def pairwise_repulsion_loss(batch, cfg: KernelConfig, tile: int = DEFAULT_TILE) -> LossValueGrad:
    """Reflected-kernel repulsion with its gradient w.r.t. the raw points.

    Global reduction:    log((sum_ij K - N) / (3N^2 - N) + eps) / beta.
    Per-point reduction: the row-wise analogue averaged over rows, with
    the same real-self-interaction subtraction (one per row).
    """
    wb = wristband_forward(batch)
    value, grad_u, grad_t = _pairwise_value_cotangents(wb, cfg, tile)
    return LossValueGrad(value=value, grad=wristband_backward(batch, wb, grad_u, grad_t))
