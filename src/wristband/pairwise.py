"""Three-image reflected repulsion on the wristband, with analytic gradients.

The kernel factorizes into a chordal Gaussian on the sphere and a
reflected Gaussian on [0, 1]:

    k_ang(u, u') = exp(-beta * alpha^2 * ||u - u'||^2)
    k_img(t, t') = exp(-beta (t-t')^2) + exp(-beta (t+t')^2)
                 + exp(-beta (t+t'-2)^2)

The two extra radial terms are the mirror images of t' across the
interval boundaries; they restore the kernel mass a uniform target
would otherwise leak outside [0, 1].  The loss is the log of the
kernel sum without the N real self-interactions (each exactly 1); the
reflected self-images are retained on purpose, as the finite-batch
boundary correction.

In augmented coordinates y = (alpha u, t) the product is one Gaussian
with image sources: k_ang k_img = sum_m exp(-beta ||y - y'^(m)||^2),
y'^(m) = (alpha u', t'), (alpha u', -t'), (alpha u', 2 - t').  The
three images of each point are stored interleaved, so the images of
points clo:chi are one contiguous slice; one matrix product of rows
[2 beta y, -beta |y|^2, 1] with columns [y^(m), 1, -beta |y^(m)|^2]
gives a block's exponent and one exp its kernel.  The gradient is two
more matrix products on that block.  The self-interactions do not come
from the product: the real one is set to -inf before the exp, so it is
excluded exactly instead of subtracted from a rounded sum, and the
reflected ones get their closed forms.

The O(N^2) accumulation walks tile pairs (I, J >= I), row tile outer
and column tile inner from the diagonal.  A block is the rows of tile I
against the three images of the points of tile J, at most tile x 3 tile
entries whatever N is, so it stays in cache through the exp, the sums
and the gradient products.  A diagonal pair holds the within-tile square
and the self-image fix-ups; an off-diagonal pair is evaluated once and
mirrored into both row and column accumulators, so every off-diagonal
pair of points is evaluated exactly once.  Tile traversal order is
fixed, so results are deterministic for a given tile size; the tile
size (an integer >= 1) is an explicit argument with a fixed default and
is part of the reproducibility contract.

The gradient is a pair-weighted sum with weights w_i + w_j.  Under
global reduction the weights are one constant set by the kernel sum,
so one unit-weight pass yields the row sums and a gradient rescaled
once at the end.  Under per-point reduction w_i depends on row i's
sum, so the row sums take a pass of their own first; the weighted
pass then applies w_i + w_j as a row and a column rescaling of the
kernel block, not as a block-sized weight matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, DomainError
from .wristband_map import WristbandBatch, _backward, wristband_forward

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


def _images(wb: WristbandBatch, cfg: KernelConfig):
    """Augmented coordinates y_j = (alpha u_j, t_j) and their images, img[3j + m - 1] = y_j^(m)."""
    y = np.column_stack([cfg.alpha * wb.u, wb.t])
    img = np.repeat(y, 3, axis=0)
    img[1::3, -1] = -wb.t
    img[2::3, -1] = 2.0 - wb.t
    return y, img


def _kernel_blocks(y: np.ndarray, img: np.ndarray, beta: float, tile: int):
    """Yield (lo, hi, clo, chi, e), e[i - lo, 3(j - clo) + m - 1] = exp(-beta ||y_i - y_j^(m)||^2).

    Rows are i in lo:hi, columns the three images of the points j in
    clo:chi, for tile pairs clo >= lo: row tile outer, column tile inner
    from the diagonal.  A diagonal pair (clo == lo) is the within-tile
    square with the self-interactions set; an off-diagonal pair is
    evaluated once and mirrored by the caller.  The blocks share one
    tile x 3 tile buffer, so each is valid only until the next is yielded.
    """
    if isinstance(tile, bool) or not isinstance(tile, numbers.Integral) or tile < 1:
        raise ContractViolation(f"tile must be an integer >= 1, got {tile!r}")
    n, t = y.shape[0], y[:, -1]
    aug_rows = np.column_stack([2.0 * beta * y, -beta * np.einsum("ij,ij->i", y, y), np.ones(n)])
    aug_cols = np.column_stack([img, np.ones(3 * n), -beta * np.einsum("ij,ij->i", img, img)])
    self_exp = np.column_stack([np.full(n, -np.inf), -4 * beta * t**2, -4 * beta * (1 - t) ** 2])
    buf = np.empty(3 * min(tile, n) ** 2)
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        for clo in range(lo, n, tile):
            chi = min(clo + tile, n)
            e = buf[:(hi - lo) * 3 * (chi - clo)].reshape(hi - lo, -1)
            np.matmul(aug_rows[lo:hi], aug_cols[3 * clo:3 * chi].T, out=e)
            if clo == lo:
                k = np.arange(hi - lo)
                e.reshape(hi - lo, -1, 3)[k, k] = self_exp[lo:hi]
            np.exp(e, out=e)
            yield lo, hi, clo, chi, e


def _add_block_sums(rows: np.ndarray, lo: int, hi: int, clo: int, chi: int,
                    m: np.ndarray) -> np.ndarray | None:
    """Add block m's row sums, and off the diagonal its mirrored column sums, to rows.

    Returns the column sums of an off-diagonal block, None for a diagonal one.
    """
    rows[lo:hi] += m.sum(axis=1)
    if clo == lo:
        return None
    c = m.sum(axis=0)
    rows[clo:chi] += c.reshape(-1, 3).sum(axis=1)
    return c


def _row_sums(wb: WristbandBatch, cfg: KernelConfig, tile: int) -> np.ndarray:
    """Kernel row sums without the real self-interactions, each off-diagonal pair computed once."""
    y, img = _images(wb, cfg)
    rows = np.zeros(wb.n)
    for lo, hi, clo, chi, e in _kernel_blocks(y, img, cfg.beta, tile):
        _add_block_sums(rows, lo, hi, clo, chi, e)
    return rows


def _reduce(rows: np.ndarray, cfg: KernelConfig):
    """Loss value and normalized kernel mass (per row under per-point reduction) from row sums."""
    n = rows.shape[0]
    if cfg.reduction == "global":
        a = float(np.sum(rows)) / (3.0 * n * n - n)
        return math.log(a + cfg.eps) / cfg.beta, a
    a_i = rows / (3.0 * n - 1.0)
    return float(np.mean(np.log(a_i + cfg.eps))) / cfg.beta, a_i


def pairwise_value_from_wristband(wb: WristbandBatch, cfg: KernelConfig,
                                  tile: int = DEFAULT_TILE) -> float:
    """Loss value only (no gradient); the cheap path used during calibration."""
    return _reduce(_row_sums(wb, cfg, tile), cfg)[0]


def _accumulate_grads(wb: WristbandBatch, cfg: KernelConfig, w: np.ndarray | None, tile: int,
                      out: np.ndarray | None = None):
    """Gradients of sum_ij w-weighted kernel w.r.t. (u, t), and weighted row sums.

    The u gradient is written to `out` (N x d, not overlapping wb.u) when
    it is given.

    Uses grad_k = sum_j (w_k + w_j) dK(k, j)/d(first slot), exact also on
    the diagonal (a reflected self-image moves with t_k at twice the
    one-sided rate, and the weight sum doubles at j = k).  With M the
    weighted block and r, c its row and column sums, the derivative in y
    is -2 beta (y_i r_i - (M @ img)_i) for a row and -2 beta sum_m P_m
    (img_j c_j - M.T @ y) for a mirrored column, P_m flipping the
    t sign of the reflected images.

    w=None means unit pair weights: M is the kernel block, and the row
    sums are bit-identical to `_row_sums` (same block, same
    `_add_block_sums`), so global reduction gets value and gradient from
    this one pass.  Per-point reduction runs `_row_sums` first for w.

    With weights, M = diag(w) K + K diag(w3), w3 the weights repeated
    per image, is never formed: the same two products on the kernel
    block K, taken against [img, 1] and [y, 1] with weighted copies
    appended, give M @ img and the row sums as w_i (K [img, 1])_i +
    (K [w3 img, w3])_i, and the column side likewise.
    """
    n, d = wb.n, wb.dim
    y, img = _images(wb, cfg)
    rows = np.zeros(n)
    row_side = np.zeros_like(y)  # M @ img
    col_side = np.zeros_like(img)  # M.T @ y over the mirrored off-diagonal blocks
    col_img3 = np.zeros(n)  # mirrored column sums of the third image
    if w is not None:
        w3 = np.repeat(w, 3)
        img1 = np.column_stack([img, np.ones(3 * n)])
        y1 = np.column_stack([y, np.ones(n)])
        row_rhs = np.hstack([img1, w3[:, None] * img1])
        col_rhs = np.hstack([y1, w[:, None] * y1])
    for lo, hi, clo, chi, m in _kernel_blocks(y, img, cfg.beta, tile):
        mirrored = clo != lo
        if w is None:
            c = _add_block_sums(rows, lo, hi, clo, chi, m)
            row_side[lo:hi] += m @ img[3 * clo:3 * chi]
            if mirrored:
                col_side[3 * clo:3 * chi] += m.T @ y[lo:hi]
        else:
            r = m @ row_rhs[3 * clo:3 * chi]
            r = w[lo:hi, None] * r[:, :d + 2] + r[:, d + 2:]  # [M @ img, row sums]
            row_side[lo:hi] += r[:, :-1]
            rows[lo:hi] += r[:, -1]
            if mirrored:
                k = m.T @ col_rhs[lo:hi]
                k = w3[3 * clo:3 * chi, None] * k[:, :d + 2] + k[:, d + 2:]  # [M.T @ y, column sums]
                col_side[3 * clo:3 * chi] += k[:, :-1]
                c = k[:, -1]
                rows[clo:chi] += c.reshape(-1, 3).sum(axis=1)
        if mirrored:
            col_img3[clo:chi] += c[2::3]
    # P_m img_j^(m) is y_j, y_j and y_j - 2 e_t, so the img_j c_j terms
    # fold into y_j rows_j plus a t-only correction.
    col_side[:, d] *= np.tile([1.0, -1.0, -1.0], n)
    g = y * rows[:, None] - row_side - col_side[0::3] - col_side[1::3] - col_side[2::3]
    g[:, d] -= 2.0 * col_img3
    g *= -2.0 * cfg.beta
    return np.multiply(cfg.alpha, g[:, :d], out=out), g[:, d], rows


def _pairwise_value_cotangents(wb: WristbandBatch, cfg: KernelConfig, tile: int,
                               scale: float = 1.0, out: np.ndarray | None = None):
    """Loss value and its cotangents (grad_u, grad_t) on the wristband coordinates.

    Row weights w_i give grad = sum_j (w_i + w_j) dK(i, j).  Global
    reduction has the constant w = 1 / (beta (a + eps) (3N^2 - N)), so
    one unit-weight pass gives the row sums and a gradient that is
    rescaled by 2w once at the end.  The cotangents come multiplied by
    `scale`, applied as a separate in-place multiply.  grad_u is written
    to `out` (not overlapping wb.u) when it is given.
    """
    n = wb.n
    if cfg.reduction == "global":
        grad_u, grad_t, rows = _accumulate_grads(wb, cfg, None, tile, out)
        value, a = _reduce(rows, cfg)
        w2 = 2.0 / (cfg.beta * (a + cfg.eps) * (3.0 * n * n - n))
        grad_u *= w2
        grad_t *= w2
    else:
        value, a_i = _reduce(_row_sums(wb, cfg, tile), cfg)
        w = 1.0 / (n * cfg.beta * (a_i + cfg.eps) * (3.0 * n - 1.0))
        grad_u, grad_t, _ = _accumulate_grads(wb, cfg, w, tile, out)
    if scale != 1.0:
        grad_u *= scale
        grad_t *= scale
    return value, grad_u, grad_t


def pairwise_repulsion_loss(batch, cfg: KernelConfig, tile: int = DEFAULT_TILE) -> LossValueGrad:
    """Reflected-kernel repulsion with its gradient w.r.t. the raw points.

    Global reduction:    log(sum_ij K / (3N^2 - N) + eps) / beta, with
    the N real self-interactions left out of the sum.
    Per-point reduction: the row-wise analogue averaged over rows,
    log(sum_j K_ij / (3N - 1) + eps) / beta, with the same exclusion.
    """
    wb = wristband_forward(batch)
    value, grad_u, grad_t = _pairwise_value_cotangents(wb, cfg, tile)
    x = np.asarray(batch, dtype=np.float64)  # validated by wristband_forward
    return LossValueGrad(value=value, grad=_backward(x, wb, grad_u, grad_t))
