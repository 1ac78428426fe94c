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

A table checks its fields when it is built, loaded or replaced.  Tables
serialize to versioned JSON with floats as full-precision decimal
strings (shortest round-trip repr), so a save/load cycle reproduces the
table bit for bit; unknown versions are rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .accelerators import (
    _centered_moment_summary,
    _moment_gradient_matrix,
    _moment_value,
    _radial_value_grad_t,
    radial_w2_value_from_wristband,
)
from .errors import CalibrationError, ContractViolation, FormatError
from .generators import RngStream, gaussian_batch
from .io import _json_real, jsonify
from .pairwise import (
    KernelConfig,
    LossValueGrad,
    _is_integer,
    _is_real,
    _pairwise_value_grad,
    pairwise_value_from_wristband,
)
from .spectral import _spectral_value_grad, spectral_value_from_wristband
from .wristband_map import _forward, validate_point_batch, wristband_forward

__all__ = ["LOSS_PATHS", "CalibrationTable", "calibrate_null", "standardized_wristband_loss"]

LOSS_PATHS = ("pairwise", "spectral")

FORMAT_VERSION = 1

_FLOAT_FIELDS = ("mu_rep", "mu_rad", "mu_mom", "sd_rep", "sd_rad", "sd_mom", "sd_numerator")


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

    def __post_init__(self):
        # Runs on construction, `from_json` and `dataclasses.replace`.  The constants
        # are stored as Python floats, so `to_json` writes what `from_json` reads back.
        for name in ("n", "dim", "reps"):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= 2):
                raise ContractViolation(
                    f"calibration table {name} must be an integer >= 2, got {value!r}"
                )
        if not _is_integer(self.seed):
            raise ContractViolation(f"calibration table seed must be an integer, got {self.seed!r}")
        if not isinstance(self.cfg, KernelConfig):
            raise ContractViolation(f"calibration table cfg must be a KernelConfig, got {self.cfg!r}")
        if self.loss_path not in LOSS_PATHS:
            raise ContractViolation(f"loss_path must be one of {LOSS_PATHS}, got {self.loss_path!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value)
                    and (value > 0.0 or name.startswith("mu_"))):
                raise ContractViolation(
                    f"calibration table {name} must be a finite real, and > 0 for an sd, got {value!r}"
                )
            object.__setattr__(self, name, float(value))

    def to_json(self) -> str:
        """Versioned JSON with floats as full-precision decimal strings."""
        doc = {"format_version": FORMAT_VERSION, **jsonify(asdict(self))}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CalibrationTable":
        """The table `to_json` wrote; any malformed document is a `FormatError`."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"calibration table is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"calibration table must be a JSON object, got {type(doc).__name__}")
        version = doc.get("format_version")
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported calibration table format_version {version!r}")
        try:
            return cls(
                n=doc["n"],
                dim=doc["dim"],
                cfg=KernelConfig.from_dict(doc["cfg"]),
                reps=doc["reps"],
                seed=doc["seed"],
                loss_path=doc["loss_path"],
                **{name: _json_real(doc[name]) for name in _FLOAT_FIELDS},
            )
        # OverflowError: an integer constant beyond the range of a double.
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(
                f"calibration table is missing or has malformed fields: {exc}"
            ) from exc


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
    rep_value = {"pairwise": pairwise_value_from_wristband,
                 "spectral": spectral_value_from_wristband}[loss_path]
    root = RngStream(seed, "calibration")
    vals = np.empty((reps, 3))
    for m in range(reps):
        batch = gaussian_batch(n, dim, root.child(f"rep{m:06d}"))
        wb = wristband_forward(batch)
        vals[m, 0] = rep_value(wb, cfg)
        vals[m, 1] = radial_w2_value_from_wristband(wb)
        vals[m, 2] = _moment_value(_centered_moment_summary(batch)[0])[0]

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
    return CalibrationTable(n=n, dim=dim, cfg=cfg, reps=reps, seed=int(seed), loss_path=loss_path,
                            **dict(zip(_FLOAT_FIELDS, (*mu, *sd, sd_s))))


def standardized_wristband_loss(batch, table: CalibrationTable) -> LossValueGrad:
    """The calibrated statistic S / sd_numerator with its gradient.

    The gradient is the fixed linear combination of the component
    gradients with coefficients w_* / (sd_* * sd_numerator).  The batch
    is validated and mapped once.  The gradient is a fresh array; the
    batch is not written to.
    """
    x = _validate_for_table(batch, table)
    return _standardized_step(x, table, _step_buffers(x.shape))


def _validate_for_table(batch, table: CalibrationTable) -> np.ndarray:
    """The validated batch, checked against the table's shape."""
    x = validate_point_batch(batch, min_n=2)
    if x.shape != (table.n, table.dim):
        raise ContractViolation(
            f"batch shape {x.shape} does not match the calibration table "
            f"({table.n}, {table.dim})"
        )
    return x


def _step_buffers(shape) -> tuple[np.ndarray, ...]:
    """Two fresh (N, d) arrays: the working set of one `_standardized_step`."""
    return np.empty(shape), np.empty(shape)


def _standardized_step(x: np.ndarray, table: CalibrationTable,
                       buffers: tuple[np.ndarray, ...]) -> LossValueGrad:
    """`standardized_wristband_loss` of a batch `_validate_for_table` returned.

    buffers = (u, grad) are two C-contiguous (N, d) float64 arrays that
    the caller owns and that overlap neither each other nor x.  The
    gradient ends in `grad` and is returned as that array itself, valid
    only until the buffers are passed in again.

    Both paths run one sequence.  u takes the centered batch, and grad
    the map's directions until the table's repulsion pass has read
    them.  The pass writes the repulsion gradient to grad, with the
    radial t-cotangent pulled back in it and the moment term's mean row
    added.  With G = V diag(1 - lambda^{-1/2}) V^T and scale = c_mom (2/n),
    the moment gradient is (x - mean) (scale G) + scale mean; its product
    is added last by one BLAS call with beta = 1 on the transposed views.
    """
    u, grad = buffers
    cfg = table.cfg
    w_rep, w_rad, w_mom = cfg.weights
    c_rep = w_rep / (table.sd_rep * table.sd_numerator)
    c_rad = w_rad / (table.sd_rad * table.sd_numerator)
    c_mom = w_mom / (table.sd_mom * table.sd_numerator)
    scale = c_mom * 2.0 / x.shape[0]
    rep_pass = {"pairwise": _pairwise_value_grad, "spectral": _spectral_value_grad}[table.loss_path]
    ms, centered = _centered_moment_summary(x, out=u)
    wb = _forward(x, grad)
    rad_value, rad_grad_t = _radial_value_grad_t(wb.t)
    rad_grad_t *= c_rad
    rep_value = rep_pass(x, wb, cfg, c_rep, rad_grad_t, scale * ms.mean, grad)
    mom_value, root = _moment_value(ms)
    dgemm(1.0, _moment_gradient_matrix(ms, root, scale).T, centered.T,
          beta=1.0, c=grad.T, overwrite_c=True)

    s = (
        w_rep * (rep_value - table.mu_rep) / table.sd_rep
        + w_rad * (rad_value - table.mu_rad) / table.sd_rad
        + w_mom * (mom_value - table.mu_mom) / table.sd_mom
    )
    return LossValueGrad(value=s / table.sd_numerator, grad=grad)
