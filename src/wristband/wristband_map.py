"""The wristband map: x -> (x/||x||, F_chi2_d(||x||^2)), forward and adjoint.

A point batch is an (N, d) float64 array, one embedding per row.  The
forward map produces unit directions u on the sphere and radial
quantiles t in [0, 1]; a standard-normal batch is carried to the
uniform product law on S^{d-1} x [0, 1].

The map is undefined at x = 0, so norms below ``NORM_FLOOR`` are
clamped: the direction is pinned to e_1 (deterministic, reproducible),
the squared norm is floored, the point is flagged, and its gradient is
zeroed in the adjoint.

Far in the tail the radius saturates: t rounds to exactly 1.0 (d=8 at
norm 34, where the chi-squared density is 1.5e-244; the density
underflows to 0 from norm ~39).  dt/dx is then negligible or exactly
0, so losses that act through t (radial W2, the radial part of the
repulsion) exert no radial force on the point; only a term on the raw
points, such as the moment penalty, pulls it back.

The public functions validate their batch; the private `_forward` and
`_backward` take one that `validate_point_batch` already returned, so
an objective validates once per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, UnsupportedDimension
from .specfun import chi2_cdf_array, chi2_pdf_array

__all__ = [
    "NORM_FLOOR",
    "WristbandBatch",
    "validate_point_batch",
    "wristband_forward",
    "wristband_backward",
    "radial_pullback",
]

NORM_FLOOR = 1e-12


def validate_point_batch(x, min_n: int = 1, min_d: int = 2) -> np.ndarray:
    """Validate and return a point batch as a C-contiguous (N, d) float64 array."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ContractViolation(f"point batch must be 2-D (N, d), got shape {x.shape}")
    n, d = x.shape
    if n < min_n:
        raise ContractViolation(f"point batch needs at least {min_n} rows, got {n}")
    if d < min_d:
        raise UnsupportedDimension(f"point batch needs dimension >= {min_d}, got {d}")
    if not np.all(np.isfinite(x)):
        raise ContractViolation("point batch contains non-finite entries")
    return x


@dataclass(frozen=True)
class WristbandBatch:
    """Per-point wristband coordinates with the caches gradient chaining needs.

    u:            (N, d) unit directions
    t:            (N,) radial quantiles in [0, 1]
    s:            (N,) squared norms, floored at NORM_FLOOR**2
    norm_floored: (N,) True where the original norm fell below NORM_FLOOR
    """

    u: np.ndarray
    t: np.ndarray
    s: np.ndarray
    norm_floored: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def dim(self) -> int:
        return self.u.shape[1]


def wristband_forward(batch) -> WristbandBatch:
    """Map a point batch to wristband coordinates (u, t)."""
    return _forward(validate_point_batch(batch))


def _forward(x: np.ndarray, u: np.ndarray | None = None) -> WristbandBatch:
    """`wristband_forward` of a batch that `validate_point_batch` returned.

    The directions are written to `u` (an (N, d) float64 array that does
    not overlap x) when it is given, else to a fresh array.
    """
    d = x.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    floored = norms < NORM_FLOOR
    safe = np.maximum(norms, NORM_FLOOR)
    u = np.divide(x, safe[:, None], out=u)
    if np.any(floored):
        u[floored] = 0.0
        u[floored, 0] = 1.0
    s = np.maximum(norms * norms, NORM_FLOOR * NORM_FLOOR)
    t = chi2_cdf_array(d, s)
    return WristbandBatch(u=u, t=t, s=s, norm_floored=floored)


def wristband_backward(batch, wb: WristbandBatch, grad_u, grad_t) -> np.ndarray:
    """Pull cotangents (grad_u, grad_t) back to a gradient w.r.t. the raw points.

    dt/dx = chi2_pdf(d, s) * 2x and du/dx = (I - u u^T) / ||x||; floored
    points receive an exactly zero gradient.
    """
    x = validate_point_batch(batch)
    n, d = x.shape
    grad_u = np.asarray(grad_u, dtype=np.float64)
    grad_t = np.asarray(grad_t, dtype=np.float64)
    if wb.u.shape != (n, d):
        raise ContractViolation("wristband batch does not match the point batch shape")
    if grad_u.shape != (n, d) or grad_t.shape != (n,):
        raise ContractViolation(
            f"cotangent shapes {grad_u.shape}, {grad_t.shape} do not match batch ({n}, {d})"
        )
    return _backward(x, wb, grad_u, grad_t)


def _backward(x: np.ndarray, wb: WristbandBatch, grad_u, grad_t,
              out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """`wristband_backward` of a validated batch with cotangents of matching shapes.

    The gradient is written to `out`, which may be grad_u itself (the
    cotangent is then overwritten), and `scratch` holds the N x d
    temporaries; either is a fresh array when not given.  `scratch` may
    be wb.u itself, which is then overwritten, but must not overlap x,
    grad_u or out.
    """
    norms = np.sqrt(wb.s)
    # Direction part: project grad_u onto the tangent space, divide by the norm.
    radial = np.einsum("ij,ij->i", wb.u, grad_u)
    tmp = np.multiply(radial[:, None], wb.u, out=scratch)
    gx = np.subtract(grad_u, tmp, out=out)
    gx /= norms[:, None]
    gx += _radial_pullback(wb, grad_t, x, out=tmp)
    if np.any(wb.norm_floored):
        gx[wb.norm_floored] = 0.0
    return gx


def radial_pullback(wb: WristbandBatch, grad_t, x) -> np.ndarray:
    """Pull a t-cotangent back through the chi-squared CDF to the raw points.

    dt/dx = chi2_pdf(d, s) * 2x, with x the raw batch (or u * sqrt(s));
    rows of floored points are exactly zero.
    """
    return _radial_pullback(wb, grad_t, x)


def _radial_pullback(wb: WristbandBatch, grad_t, x, out: np.ndarray | None = None) -> np.ndarray:
    """`radial_pullback` written to `out` (not overlapping x) when it is given."""
    gx = np.multiply((grad_t * chi2_pdf_array(wb.dim, wb.s) * 2.0)[:, None], x, out=out)
    if np.any(wb.norm_floored):
        gx[wb.norm_floored] = 0.0
    return gx
