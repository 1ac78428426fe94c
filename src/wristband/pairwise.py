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
y'^(m) = (alpha u', t'), (alpha u', -t'), (alpha u', 2 - t').  The two
reflections differ only by a separable factor.  With r = t + t' - 1,
(t + t')^2 = r^2 + 1 + 2r and (t + t' - 2)^2 = r^2 + 1 - 2r, so

    K_2 = p K_0 p',   K_3 = q K_0 q',   p = exp(-2 beta (t - 1/2)),  q = 1/p,

where K_0 = exp(-beta (||y - ybar'||^2 + 1)) is the kernel against the
point mirrored at t = 1/2, ybar' = (alpha u', 1 - t').  A pass therefore
evaluates two bases, the real points and their mirrors at 1/2: two
exponentials per pair instead of three.  The reflections enter only
through p and q, which ride in narrow products; they belong to the
point, so the passes accumulate unscaled per-term sums (sum_j K_0 p_j
for the image at 0) and apply p_i and q_i once at the end.  This needs
every K_0 entry, every p and q and every K_0 p term to be a normal
double, which holds while beta (4 alpha^2 + 3) < -ln(tiny) ~ 708.4:
at beta = 8 for alpha < 4.6, and at the direct benchmark (356).  Above
that bound the same code runs the three-image basis, the images
themselves with unit factors, the only form representable there.  The
configuration picks the basis; there is no option.

One matrix product of rows [2 beta y, -beta |y|^2, 1] with columns
[z, 1, -beta (|z|^2 + c)] (z a base point, c = 1 for the mirror at 1/2
and 0 otherwise) gives a block's exponent over all its bases, and one
exp its kernel.  The gradient takes one narrow product per base and
side on that block.  The self-interactions do not come from the
product: every base's diagonal is set to -inf before the exp, so the
real one is excluded exactly instead of subtracted from a rounded sum,
and the reflected ones, exp(-4 beta t^2) + exp(-4 beta (1 - t)^2), are
added with their cotangents in closed form.

Every pass is one walk, `_sweep`, over tile pairs (I, J >= I), row
tile outer and column tile inner from the diagonal.  A block is the
rows of tile I against the bases of the points of tile J, at most
tile x 2 tile entries (tile x 3 tile in the three-image basis) whatever
N is, so it stays in cache through the exp, the sums and the products.
A diagonal pair holds the within-tile square; an off-diagonal pair is
evaluated once, so every off-diagonal pair of points is evaluated
exactly once.  Per block the walk takes the unscaled per-term row sums
in one narrow product and adds them to the row sums and, an
off-diagonal block twice, to the kernel total (the kernel is
symmetric).  A pass may ask for two things more: the mirrored column
sums of an off-diagonal block, which make the row sums true row sums
(per-point values, row weights, the gradient), and one product per
base and side against source columns (the gradient).  The global value
reads the total and takes neither.  Both passes read their value
through one `_reduce` of the same row-sum vectors, added in the same
order, so they agree on it to the bit.  Tile traversal order is fixed,
so results are deterministic for a given tile size; the tile size (an
integer >= 1) is an explicit argument with a fixed default and is part
of the reproducibility contract.

The gradient is a pair-weighted sum with weights w_i + w_j, the row
weights w_i = dL/d(row sum i) that `_reduce` returns with the value.
Under global reduction they are one constant set by the kernel total,
so one unit-weight pass yields the total and a gradient rescaled once
at the end.  Under per-point reduction w_i depends on row i's sum, so
the row sums take a pass of their own first; the weighted pass then
carries w in its source columns, reuses the first pass's row sums
instead of taking column sums, and combines w_i (K s)_i + (K (w s))_i
once after the walk, never forming a block-sized weight matrix.  Both
reductions build one basis, and `_cotangents` is the one place that
composes value, weights and cotangents.  The gradient pass ends on the
batch: it pulls those (u, t) cotangents back through the map's adjoint
`_backward`, under the signature of the spectral pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, DomainError
from .io import _json_real
from .wristband_map import WristbandBatch, _backward, wristband_forward

__all__ = [
    "ALPHA_UNIFORM_STD",
    "DEFAULT_TILE",
    "KernelConfig",
    "LossValueGrad",
    "REDUCTIONS",
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

REDUCTIONS = ("global", "per_point")

# The two-base form needs beta (4 alpha^2 + 3) below this, -ln of the
# smallest normal double: then every mirror kernel entry, every p and q
# and every K_0 p term is a normal double.
_TWO_BASE_LIMIT = -math.log(np.finfo(np.float64).tiny)


def _is_real(value) -> bool:
    """A real number that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """An integer that is not a boolean."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        # Stored as Python floats, so a table's JSON holds what `from_dict` reads back.
        for name in ("beta", "alpha", "eps"):
            v = getattr(self, name)
            if not (_is_real(v) and v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.reduction not in REDUCTIONS:
            raise DomainError(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")
        if len(self.weights) != 3 or not all(_is_real(w) and w >= 0.0 and math.isfinite(w)
                                             for w in self.weights):
            raise DomainError(f"weights must be three nonnegative reals, got {self.weights!r}")
        if not _is_integer(self.modes) or self.modes < 1:
            raise DomainError(f"modes must be an integer >= 1, got {self.modes!r}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @classmethod
    def direct_benchmark(cls, **overrides) -> "KernelConfig":
        """Defaults for direct point-cloud optimization runs."""
        cfg = cls(beta=64.0, alpha=0.8, reduction="global")
        return replace(cfg, **overrides) if overrides else cfg

    @classmethod
    def from_dict(cls, obj: dict) -> "KernelConfig":
        if not isinstance(obj["weights"], list):
            raise TypeError(f"weights must be a list, got {obj['weights']!r}")
        return cls(
            beta=_json_real(obj["beta"]),
            alpha=_json_real(obj["alpha"]),
            eps=_json_real(obj["eps"]),
            reduction=obj["reduction"],
            weights=tuple(_json_real(w) for w in obj["weights"]),
            modes=obj["modes"],
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


@dataclass(frozen=True)
class _Basis:
    """The column sources of the kernel blocks and the per-point factors of the three terms.

    Term c (the real point, its image at 0, its image at 1) is
    scale[i, c] B_b(i, j) scale[j, c] with b = base_of[c], B_b the kernel
    against base b.  `cols` and `sum_w` are tile-major: the rows of tile
    J are its points in base 0, then in base 1, and so on, so a block's
    columns are one contiguous slice.  Row (b, j) of `sum_w` holds
    scale[j, c] in the columns c of base b's terms and 0 elsewhere, so a
    block times its `sum_w` slice gives the unscaled per-term row sums.
    """

    tile: int
    terms: tuple[slice, ...]  # the terms of each base, a contiguous range
    base_of: np.ndarray  # (3,) base of each term
    rows: np.ndarray  # N x (d + 3): [2 beta y, -beta |y|^2, 1]
    cols: np.ndarray  # bases * N x (d + 3): [z, 1, -beta (|z|^2 + c)]
    sum_w: np.ndarray  # bases * N x 3
    scale: np.ndarray  # N x 3
    self_images: np.ndarray  # 2 x N: exp(-4 beta t^2), exp(-4 beta (1 - t)^2)

    @property
    def bases(self) -> int:
        return len(self.terms)


def _tile_major(a: np.ndarray, tile: int) -> np.ndarray:
    """Stack a (bases, N, k) array tile by tile: each tile's points in base 0, then base 1, ..."""
    nb, n, k = a.shape
    full = n - n % tile
    head = a[:, :full].reshape(nb, -1, tile, k).swapaxes(0, 1).reshape(-1, k)
    return np.concatenate([head, a[:, full:].reshape(-1, k)])


def _basis(wb: WristbandBatch, cfg: KernelConfig, tile: int) -> _Basis:
    """The two-base (real, mirror at 1/2) or three-image basis of a batch, for tiles of `tile`."""
    if not _is_integer(tile) or tile < 1:
        raise ContractViolation(f"tile must be an integer >= 1, got {tile!r}")
    (n, d), t, beta = wb.u.shape, wb.t, cfg.beta
    au = cfg.alpha * wb.u
    au2 = np.einsum("ij,ij->i", au, au)
    if beta * (4.0 * cfg.alpha**2 + 3.0) < _TWO_BASE_LIMIT:
        terms, zt, c = (slice(0, 1), slice(1, 3)), np.stack([t, 1.0 - t]), np.array([0.0, 1.0])
        h = beta * (2.0 * t - 1.0)
        scale = np.column_stack([np.ones(n), np.exp(-h), np.exp(h)])
    else:
        terms, zt, c = (slice(0, 1), slice(1, 2), slice(2, 3)), np.stack([t, -t, 2.0 - t]), np.zeros(3)
        scale = np.ones((n, 3))
    base_of = np.concatenate([np.full(ts.stop - ts.start, b) for b, ts in enumerate(terms)])
    # Per base and point: the column [z, 1, -beta (|z|^2 + c)] and the sum weights.
    a = np.empty((len(terms), n, d + 6))
    a[:, :, :d] = au
    a[:, :, d] = zt
    a[:, :, d + 1] = 1.0
    a[:, :, d + 2] = -beta * (au2 + zt * zt + c[:, None])
    np.multiply(scale, base_of == np.arange(len(terms))[:, None, None], out=a[:, :, d + 3:])
    a = _tile_major(a, int(tile))
    return _Basis(
        tile=int(tile),
        terms=terms,
        base_of=base_of,
        rows=np.column_stack([2.0 * beta * au, 2.0 * beta * t, -beta * (au2 + t * t), np.ones(n)]),
        cols=a[:, :d + 3],
        sum_w=a[:, d + 3:],
        scale=scale,
        self_images=np.exp(-4.0 * beta * np.stack([t, 1.0 - t]) ** 2),
    )


def _kernel_blocks(basis: _Basis):
    """Yield (lo, hi, clo, chi, e), e[i - lo, b (chi - clo) + j - clo] = B_b(i, j).

    Rows are i in lo:hi, columns the bases of the points j in clo:chi,
    for tile pairs clo >= lo: row tile outer, column tile inner from the
    diagonal.  A diagonal pair (clo == lo) is the within-tile square with
    every base's self-interaction set to 0; an off-diagonal pair is
    evaluated once and mirrored by `_sweep`.  The blocks share one
    tile x bases tile buffer, so each is valid only until the next is yielded.
    """
    n, nb, tile = basis.rows.shape[0], basis.bases, basis.tile
    buf = np.empty(nb * min(tile, n) ** 2)
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        for clo in range(lo, n, tile):
            chi = min(clo + tile, n)
            e = buf[:(hi - lo) * nb * (chi - clo)].reshape(hi - lo, -1)
            np.matmul(basis.rows[lo:hi], basis.cols[nb * clo:nb * chi].T, out=e)
            if clo == lo:
                k = np.arange(hi - lo)
                e.reshape(hi - lo, nb, -1)[k, :, k] = -np.inf
            np.exp(e, out=e)
            yield lo, hi, clo, chi, e


def _rows(sums: np.ndarray, basis: _Basis) -> np.ndarray:
    """Row sums from unscaled N x 3 per-term sums: scaled by the point's factors, self-images added."""
    return np.einsum("ij,ij->i", sums, basis.scale) + (basis.self_images[0] + basis.self_images[1])


def _sweep(basis: _Basis, src: tuple | list = (), mirror: bool = True):
    """The one walk over the kernel blocks: (sums, total, acc), unscaled per-term N x 3 sums.

    Per block, the row sums are one product with the block's `sum_w`
    slice, the only such call, so every pass adds the same vectors in
    the same order.  They go to `sums`, and to `total` with an
    off-diagonal block counted twice (in place, exact): total's sum is
    the kernel total, though its row i is not row i's sum.  With
    `mirror`, an off-diagonal block's column sums go to `sums` too, one
    product of the rows' factors with the block, of which each term
    keeps its own base's columns; `sums` then holds true row sums.  For
    each base b with a source array src[b], acc[b] receives the base's
    block times src[b], one product per side of the pair.
    """
    n, nb = basis.rows.shape[0], basis.bases
    sums, total = np.zeros((n, 3)), np.zeros((n, 3))
    acc = [np.zeros_like(s) for s in src]
    for lo, hi, clo, chi, e in _kernel_blocks(basis):
        r = e @ basis.sum_w[nb * clo:nb * chi]
        sums[lo:hi] += r
        if clo != lo:
            r *= 2.0
        total[lo:hi] += r
        if mirror and clo != lo:
            c = basis.scale[lo:hi].T @ e
            sums[clo:chi] += c.reshape(3, nb, -1)[np.arange(3), basis.base_of].T
        nj = chi - clo
        for b, (s, a) in enumerate(zip(src, acc)):
            kb = e[:, b * nj:(b + 1) * nj]
            a[lo:hi] += kb @ s[clo:chi]
            if clo != lo:
                a[clo:chi] += kb.T @ s[lo:hi]
    return sums, total, acc


def _reduce(basis: _Basis, cfg: KernelConfig, sums: np.ndarray, total: np.ndarray):
    """Loss value and row weights w_i = dL/d(row sum i) from a sweep's `sums` and `total`.

    Global reduction reads only the kernel total, so the sweep's total
    serves, and its weight is one number; per-point reduction reads the
    true row sums, so its sweep must take the column sums.
    """
    n = basis.rows.shape[0]
    if cfg.reduction == "global":
        a = float(np.sum(_rows(total, basis))) / (3.0 * n * n - n)
        return math.log(a + cfg.eps) / cfg.beta, 1.0 / (cfg.beta * (a + cfg.eps) * (3.0 * n * n - n))
    a_i = _rows(sums, basis) / (3.0 * n - 1.0)
    value = float(np.mean(np.log(a_i + cfg.eps))) / cfg.beta
    return value, 1.0 / (n * cfg.beta * (a_i + cfg.eps) * (3.0 * n - 1.0))


def pairwise_value_from_wristband(wb: WristbandBatch, cfg: KernelConfig,
                                  tile: int = DEFAULT_TILE) -> float:
    """Loss value only (no gradient); the cheap path used during calibration.

    Global reduction reads the kernel total alone, so its sweep takes no column sums.
    """
    basis = _basis(wb, cfg, tile)
    return _reduce(basis, cfg, *_sweep(basis, mirror=cfg.reduction == "per_point")[:2])[0]


def _cotangents(wb: WristbandBatch, cfg: KernelConfig, tile: int):
    """Loss value and its cotangents (grad_u, grad_t), weighted as the reduction asks.

    Both cotangents own their memory (the t cotangent is a copy of its
    column), so the N x (d + 1) working array is freed on return.

    Row weights w_i give grad_k = sum_j (w_k + w_j) dK(k, j)/d(first
    slot).  Term c of the kernel is the Gaussian
    exp(-beta ||y_i - y_j^(c)||^2) whatever basis evaluates it, so with
    M_c its weighted entries and r_c, c_c their row and column sums the
    derivative in y is -2 beta sum_c (y_i r_c,i - sum_j M_c(i, j) y_j^(c))
    for a row and -2 beta sum_c P_c (y_j^(c) c_c,j - sum_i M_c(i, j) y_i)
    for a mirrored column, P_c flipping the t sign of the reflected
    images.  P_c y^(c) is y, y and y - 2 e_t, and y^(3) = y^(2) + 2 e_t,
    so both sides take their products against the same sources: y for
    the real term and s_c y^(2) for a reflected one, s_c its factors,
    and the e_t parts fold into the third term's mass.  Each base takes
    one product per side against the sources of its terms; the factors
    of the point whose sums they are apply once at the end.  The
    self-images' cotangents are added in closed form (pair weight 2 w_k).

    Global reduction: one unit-weight sweep gives the kernel total, the
    true row sums and the products, and both cotangents are rescaled by
    2w once at the end.  Per-point reduction: the row-sum sweep gives the
    value and w; the weighted sweep's sources gain the w-weighted factors
    and sources, [s, w factors, w s], and it takes no column sums, since
    after it w_i (K s)_i + (K (w s))_i gives the gradient products and
    w_i r_i + (K (w factors))_i the weighted sums from the first sweep's r.
    """
    n, d = wb.n, wb.dim
    basis = _basis(wb, cfg, tile)
    y = np.column_stack([cfg.alpha * wb.u, wb.t])
    y2 = y * np.append(np.ones(d), -1.0)
    src = [np.hstack([basis.scale[:, c:c + 1] * (y2 if c else y) for c in range(ts.start, ts.stop)])
           for ts in basis.terms]
    per_point = cfg.reduction == "per_point"
    sums, total, grads = _sweep(basis, () if per_point else src)
    value, w = _reduce(basis, cfg, sums, total)
    pair_w = 1.0
    if per_point:
        src = [np.hstack([s, w[:, None] * basis.scale[:, ts], w[:, None] * s])
               for s, ts in zip(src, basis.terms)]
        grads = _sweep(basis, src, mirror=False)[2]
        pair_w = 2.0 * w
        for b, ts in enumerate(basis.terms):
            a, k = grads[b], (ts.stop - ts.start) * (d + 1)
            sums[:, ts] *= w[:, None]
            sums[:, ts] += a[:, k:-k]
            grads[b] = w[:, None] * a[:, :k] + a[:, -k:]
    mass = sums * basis.scale
    g = y * mass.sum(axis=1)[:, None]
    for gb, ts in zip(grads, basis.terms):
        g -= np.einsum("ikj,ik->ij", gb.reshape(n, -1, d + 1), basis.scale[:, ts])
    e2, e3 = basis.self_images
    g[:, d] -= 2.0 * mass[:, 2]
    g[:, d] += 2.0 * pair_w * (wb.t * e2 - (1.0 - wb.t) * e3)
    g *= -2.0 * cfg.beta
    grad_u, grad_t = cfg.alpha * g[:, :d], g[:, d].copy()
    if not per_point:
        grad_u *= 2.0 * w
        grad_t *= 2.0 * w
    return value, grad_u, grad_t


def _pairwise_value_grad(x: np.ndarray, wb: WristbandBatch, cfg: KernelConfig, scale: float,
                         grad_t: np.ndarray, row: np.ndarray, out: np.ndarray) -> float:
    """`_value_grad` at DEFAULT_TILE: the signature of `spectral._spectral_value_grad`."""
    return _value_grad(x, wb, cfg, scale, grad_t, row, out, DEFAULT_TILE)


def _value_grad(x: np.ndarray, wb: WristbandBatch, cfg: KernelConfig, scale: float,
                grad_t: np.ndarray, row: np.ndarray, out: np.ndarray, tile: int) -> float:
    """Loss value; writes `scale` times its gradient w.r.t. the points x to `out`.

    The contract of `spectral._spectral_value_grad`: x is the validated
    batch that wb maps; the pullback of the extra t-cotangent `grad_t`
    (N,) and the d-vector `row` are added; out is C-contiguous (N, d),
    does not overlap x, and may be wb.u, which is overwritten once read.
    The map adjoint `_backward` pulls the scaled `_cotangents` back into out.
    """
    value, g_u, g_t = _cotangents(wb, cfg, tile)
    g_u *= scale
    g_t *= scale
    g_t += grad_t
    _backward(x, wb, g_u, g_t, out=out)
    out += row
    return value


def pairwise_repulsion_loss(batch, cfg: KernelConfig, tile: int = DEFAULT_TILE) -> LossValueGrad:
    """Reflected-kernel repulsion with its gradient w.r.t. the raw points.

    Global reduction:    log(sum_ij K / (3N^2 - N) + eps) / beta, with
    the N real self-interactions left out of the sum.
    Per-point reduction: the row-wise analogue averaged over rows,
    log(sum_j K_ij / (3N - 1) + eps) / beta, with the same exclusion.
    """
    wb = wristband_forward(batch)
    x = np.asarray(batch, dtype=np.float64)  # validated by wristband_forward
    n, d = x.shape
    # The gradient overwrites the directions, which only this call holds.
    value = _value_grad(x, wb, cfg, 1.0, np.zeros(n), np.zeros(d), wb.u, tile)
    return LossValueGrad(value=value, grad=wb.u)
