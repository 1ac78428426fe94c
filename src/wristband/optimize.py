"""Direct point-cloud Gaussianization: the batch itself is the parameter.

The N x d matrix is treated as free variables and a selected batch loss
is minimized with Adam.  Everything is seeded, so a (seed, config) pair
reproduces the trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import mmd_loss, sample_projections, sliced_w2_loss
from .calibration import (
    LOSS_PATHS,
    CalibrationTable,
    _standardized_step,
    _step_buffers,
    _validate_for_table,
)
from .errors import ContractViolation, OptimizationFailure, _integer, _real
from .generators import RngStream
from .pairwise import KernelConfig, LossValueGrad
from .wristband_map import validate_point_batch

__all__ = ["LOSS_KINDS", "SCHEDULES", "AdamState", "OptimizeConfig", "adam_step",
           "optimize_point_cloud"]

LOSS_KINDS = ("wristband_pairwise", "wristband_spectral", "mmd", "sliced_w2")
SCHEDULES = ("constant", "cosine")

# Adam's decay rates and denominator offset (the usual defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per block of the in-place Adam update: 256 KiB per array, so a
# block of x, g, m, v and the two scratch buffers stays in L2 cache.
ADAM_BLOCK = 32768


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), step=0)


@dataclass(frozen=True)
class OptimizeConfig:
    loss: str = "wristband_pairwise"
    steps: int = 2000
    lr: float = 0.05
    schedule: str = "constant"
    seed: int = 0
    log_stride: int = 10
    sliced_projections: int = 128

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ContractViolation(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        for name, minimum in (("steps", 1), ("seed", None), ("log_stride", 1),
                              ("sliced_projections", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        object.__setattr__(self, "lr", _real("lr", self.lr, 0.0, True))
        if self.schedule not in SCHEDULES:
            raise ContractViolation(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")


def adam_step(params, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new_params, new_state).

    lr is read as `OptimizeConfig.lr` is: a finite real > 0.
    """
    lr = _real("lr", lr, 0.0, True)
    params = np.array(params, dtype=np.float64, order="C")
    grads = np.asarray(grads, dtype=np.float64)
    if not (params.shape == grads.shape == state.m.shape == state.v.shape):
        raise ContractViolation(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"state m {state.m.shape}, v {state.v.shape}"
        )
    if state.step < 0:
        raise ContractViolation(f"Adam step counter must be >= 0, got {state.step}")
    m = np.array(state.m, dtype=np.float64, order="C")
    v = np.array(state.v, dtype=np.float64, order="C")
    _adam_update(params, grads, m, v, state.step + 1, lr)
    return params, AdamState(m=m, v=v, step=state.step + 1)


def _adam_update(x, g, m, v, t: int, lr: float):
    """Adam step t applied in place to the C-contiguous arrays x, m and v.

    Works through blocks of ADAM_BLOCK elements with two scratch buffers,
    in the elementwise operation order of

        m = b1 m + (1 - b1) g;   v = b2 v + (1 - b2) g g
        x = x - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    with b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, so the result is
    bit-identical to that whole-array formula.
    """
    x, m, v = x.reshape(-1), m.reshape(-1), v.reshape(-1)
    g = g.reshape(-1)
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    buf = np.empty(min(ADAM_BLOCK, x.size))
    den = np.empty_like(buf)
    for lo in range(0, x.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, x.size)
        xb, gb, mb, vb = x[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        tmp, dn = buf[: hi - lo], den[: hi - lo]
        mb *= ADAM_BETA1
        np.multiply(gb, 1.0 - ADAM_BETA1, out=tmp)
        mb += tmp
        vb *= ADAM_BETA2
        np.multiply(gb, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= gb
        vb += tmp
        np.divide(mb, c1, out=tmp)
        tmp *= lr
        np.divide(vb, c2, out=dn)
        np.sqrt(dn, out=dn)
        dn += ADAM_EPS
        tmp /= dn
        xb -= tmp


def _make_loss_fn(opt_cfg: OptimizeConfig, kernel_cfg: KernelConfig,
                  table: CalibrationTable | None, shape):
    path = opt_cfg.loss.removeprefix("wristband_")  # a wristband loss names its table's path
    if path in LOSS_PATHS:
        if table is None:
            raise ContractViolation(f"loss {opt_cfg.loss!r} requires a calibration table")
        if table.loss_path != path:
            raise ContractViolation(
                f"calibration table was built for the {table.loss_path!r} path, "
                f"but the optimizer requested {path!r}"
            )
        if kernel_cfg != table.cfg:
            raise ContractViolation(
                f"kernel config {kernel_cfg} does not match the calibration table's {table.cfg}"
            )

        buffers = _step_buffers(shape)

        def loss_fn(x, step):
            return _standardized_step(_validate_for_table(x, table), table, buffers)

        return loss_fn
    if table is not None:
        raise ContractViolation(f"loss {opt_cfg.loss!r} takes no calibration table")
    if opt_cfg.loss == "mmd":
        def loss_fn(x, step):
            return mmd_loss(x)

        return loss_fn
    # sliced_w2: fresh seeded projections each step.
    root = RngStream(opt_cfg.seed, "sliced_w2/projections")

    def loss_fn(x, step):
        theta = sample_projections(x.shape[1], opt_cfg.sliced_projections,
                                   root.child(f"step{step:06d}"))
        return sliced_w2_loss(x, theta)

    return loss_fn


def optimize_point_cloud(initial, opt_cfg: OptimizeConfig, kernel_cfg: KernelConfig,
                         table: CalibrationTable | None = None):
    """Minimize the selected loss over the free points.

    The wristband losses take their kernel from the calibration table,
    and `kernel_cfg` must equal `table.cfg`; the baseline losses (mmd,
    sliced_w2) do not read it and refuse a table.

    Returns (final_batch, trajectory), where trajectory is a list of
    (step, loss_value) pairs sampled every `log_stride` steps plus the
    final step.  A non-finite loss aborts with an `OptimizationFailure` at
    that step, and so does a refusal of the batch from step 1 on, when the
    batch is the optimizer's own and the run has diverged; at step 0 the
    refusal is the caller's `ContractViolation`.

    The call owns its N x d working set: the batch it updates, Adam's m
    and v and, on the wristband losses, the two buffers of
    `_standardized_step`, all allocated once here and reused by every
    step.  A step's gradient lives in those buffers and is valid only
    until the next step; the returned batch is the call's own array.
    """
    x = validate_point_batch(initial).copy()
    loss_fn = _make_loss_fn(opt_cfg, kernel_cfg, table, x.shape)
    m, v = np.zeros_like(x), np.zeros_like(x)
    trajectory: list[tuple[int, float]] = []

    for step in range(opt_cfg.steps):
        try:
            lvg: LossValueGrad = loss_fn(x, step)
        except ContractViolation as exc:
            if step == 0:
                raise
            raise OptimizationFailure(f"batch refused at step {step}: {exc}", step) from exc
        if not math.isfinite(lvg.value) or not np.all(np.isfinite(lvg.grad)):
            raise OptimizationFailure(
                f"non-finite loss or gradient at step {step} (loss={lvg.value!r})", step
            )
        if step % opt_cfg.log_stride == 0 or step == opt_cfg.steps - 1:
            trajectory.append((step, lvg.value))
        lr = opt_cfg.lr
        if opt_cfg.schedule == "cosine":
            lr = opt_cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / opt_cfg.steps))
        _adam_update(x, lvg.grad, m, v, step + 1, lr)
    return x, trajectory
