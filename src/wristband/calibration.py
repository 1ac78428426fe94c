"""Monte-Carlo null calibration and the standardized wristband statistic.

At construction time we draw M batches from N(0, I_d), record the mean
and standard deviation of each loss component under that null, and also
the standard deviation of the weighted standardized numerator

    S = w_rep * (L_rep - mu_rep)/s_rep + w_rad * (...) + w_mom * (...)

itself.  Dividing S by that last number yields a statistic with mean
approximately 0 and standard deviation approximately 1 under the null,
accounting for correlations among the components rather than assuming
independence.

A table remembers which repulsion path (pairwise or spectral) it
calibrated; scoring through the other path is refused because the two
have different null means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accelerators import (
    _moment_summary,
    _moment_value,
    _moment_w2_loss,
    _radial_value_grad_t,
    radial_w2_value_from_wristband,
)
from .errors import CalibrationError, ContractViolation
from .generators import RngStream, gaussian_batch
from .pairwise import (
    DEFAULT_TILE,
    KernelConfig,
    LossValueGrad,
    _pairwise_value_cotangents,
    pairwise_value_from_wristband,
)
from .spectral import (
    _spectral_value_cotangents,
    spectral_coefficients,
    spectral_value_from_wristband,
)
from .wristband_map import _backward, _forward, validate_point_batch, wristband_forward

__all__ = ["CalibrationTable", "calibrate_null", "standardized_wristband_loss"]

LOSS_PATHS = ("pairwise", "spectral")


@dataclass(frozen=True)
class CalibrationTable:
    """Null statistics for one (batch size, dimension, config, path) setting."""

    n: int
    dim: int
    cfg: KernelConfig
    reps: int
    mu_rep: float
    mu_rad: float
    mu_mom: float
    sd_rep: float
    sd_rad: float
    sd_mom: float
    sd_numerator: float
    seed: int
    loss_path: str

    def to_json(self) -> str:
        """Versioned JSON with floats as full-precision decimal strings."""
        from .calibration_io import table_to_json

        return table_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationTable":
        from .calibration_io import table_from_json

        return table_from_json(text)


def calibrate_null(
    n: int, dim: int, cfg: KernelConfig, reps: int, seed: int, loss_path: str = "pairwise"
) -> CalibrationTable:
    """Estimate null component statistics over `reps` i.i.d. Gaussian batches.

    Deterministic: identical (seed, arguments) produce bit-identical
    tables.  Batches are drawn from labeled child streams and reduced in
    rep-index order.
    """
    if reps < 2:
        raise ContractViolation(f"calibration needs reps >= 2, got {reps}")
    if n < 2:
        raise ContractViolation(f"calibration needs batches of n >= 2 points, got {n}")
    if loss_path not in LOSS_PATHS:
        raise ContractViolation(f"loss_path must be one of {LOSS_PATHS}, got {loss_path!r}")
    coeffs = spectral_coefficients(dim, cfg) if loss_path == "spectral" else None
    root = RngStream(seed, "calibration")
    vals = np.empty((reps, 3))
    for m in range(reps):
        batch = gaussian_batch(n, dim, root.child(f"rep{m:06d}"))
        wb = wristband_forward(batch)
        if loss_path == "pairwise":
            vals[m, 0] = pairwise_value_from_wristband(wb, cfg)
        else:
            vals[m, 0] = spectral_value_from_wristband(wb, coeffs, cfg)
        vals[m, 1] = radial_w2_value_from_wristband(wb)
        vals[m, 2] = _moment_value(_moment_summary(batch))[0]

    mu = vals.mean(axis=0)
    sd = vals.std(axis=0, ddof=1)
    if np.any(sd <= 0.0) or not np.all(np.isfinite(sd)) or not np.all(np.isfinite(mu)):
        raise CalibrationError(
            f"degenerate component statistics: mu={mu.tolist()}, sd={sd.tolist()}"
        )
    w = np.asarray(cfg.weights)
    numerator = (vals - mu) / sd @ w
    sd_s = float(numerator.std(ddof=1))
    if sd_s <= 0.0 or not math.isfinite(sd_s):
        raise CalibrationError(f"degenerate numerator std {sd_s}")
    return CalibrationTable(
        n=n,
        dim=dim,
        cfg=cfg,
        reps=reps,
        mu_rep=float(mu[0]),
        mu_rad=float(mu[1]),
        mu_mom=float(mu[2]),
        sd_rep=float(sd[0]),
        sd_rad=float(sd[1]),
        sd_mom=float(sd[2]),
        sd_numerator=sd_s,
        seed=int(seed),
        loss_path=loss_path,
    )


def standardized_wristband_loss(batch, table: CalibrationTable) -> LossValueGrad:
    """The calibrated statistic S / sd_numerator with its gradient.

    The gradient is the fixed linear combination of the component
    gradients with coefficients w_* / (sd_* * sd_numerator).  The batch
    is validated and mapped once; the repulsion and radial terms combine
    their cotangents on (u, t) and share one pullback to the raw points.
    """
    x = validate_point_batch(batch, min_n=2)
    if x.shape != (table.n, table.dim):
        raise ContractViolation(
            f"batch shape {x.shape} does not match the calibration table "
            f"({table.n}, {table.dim})"
        )
    if table.loss_path not in LOSS_PATHS:
        raise ContractViolation(f"table has unknown loss_path {table.loss_path!r}")
    cfg = table.cfg
    w_rep, w_rad, w_mom = cfg.weights
    c_rep = w_rep / (table.sd_rep * table.sd_numerator)
    c_rad = w_rad / (table.sd_rad * table.sd_numerator)
    c_mom = w_mom / (table.sd_mom * table.sd_numerator)
    wb = _forward(x)
    if table.loss_path == "pairwise":
        rep_value, grad_u, grad_t = _pairwise_value_cotangents(wb, cfg, DEFAULT_TILE, c_rep)
    else:
        rep_value, grad_u, grad_t = _spectral_value_cotangents(wb, cfg, c_rep)
    rad_value, rad_grad_t = _radial_value_grad_t(wb.t)
    mom = _moment_w2_loss(x)

    s = (
        w_rep * (rep_value - table.mu_rep) / table.sd_rep
        + w_rad * (rad_value - table.mu_rad) / table.sd_rad
        + w_mom * (mom.value - table.mu_mom) / table.sd_mom
    )
    rad_grad_t *= c_rad
    grad_t += rad_grad_t
    grad = _backward(x, wb, grad_u, grad_t)
    grad += np.multiply(mom.grad, c_mom, out=mom.grad)
    return LossValueGrad(value=s / table.sd_numerator, grad=grad)
