"""Direct point-cloud Gaussianization: the batch itself is the parameter.

The N x d matrix is treated as free variables and a selected batch loss
is minimized with Adam (or plain SGD).  Everything is seeded, so a
(seed, config) pair reproduces the trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import mmd_loss, sliced_w2_loss
from .calibration import (
    CalibrationTable,
    _standardized_step,
    _step_buffers,
    _validate_for_table,
)
from .errors import ContractViolation, OptimizationFailure
from .generators import RngStream
from .pairwise import KernelConfig, LossValueGrad
from .wristband_map import validate_point_batch

__all__ = ["LOSS_KINDS", "AdamState", "OptimizeConfig", "adam_step", "optimize_point_cloud"]

LOSS_KINDS = ("wristband_pairwise", "wristband_spectral", "mmd", "sliced_w2")

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
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    schedule: str = "constant"
    seed: int = 0
    log_stride: int = 10
    sliced_projections: int = 128
    freeze_projections: bool = False

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ContractViolation(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.steps < 1:
            raise ContractViolation(f"steps must be >= 1, got {self.steps}")
        if not (self.lr > 0.0 and math.isfinite(self.lr)):
            raise ContractViolation(f"lr must be positive, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ContractViolation(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ContractViolation(f"schedule must be 'constant' or 'cosine', got {self.schedule!r}")
        if self.log_stride < 1:
            raise ContractViolation(f"log_stride must be >= 1, got {self.log_stride}")
        # beta = 1 would divide the bias correction by 1 - beta^t = 0.
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ContractViolation(f"{name} must be in [0, 1), got {beta}")
        if not (self.adam_eps > 0.0 and math.isfinite(self.adam_eps)):
            raise ContractViolation(f"adam_eps must be positive and finite, got {self.adam_eps}")
        if self.sliced_projections < 1:
            raise ContractViolation(
                f"sliced_projections must be >= 1, got {self.sliced_projections}"
            )


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update; returns (new_params, new_state)."""
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
    _adam_update(params, grads, m, v, state.step + 1, lr, beta1, beta2, eps)
    return params, AdamState(m=m, v=v, step=state.step + 1)


def _adam_update(x, g, m, v, t: int, lr: float, beta1: float, beta2: float, eps: float):
    """Adam step t applied in place to the C-contiguous arrays x, m and v.

    Works through blocks of ADAM_BLOCK elements with two scratch buffers,
    in the elementwise operation order of

        m = beta1 m + (1 - beta1) g;   v = beta2 v + (1 - beta2) g g
        x = x - lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)

    so the result is bit-identical to that whole-array formula.
    """
    x, m, v = x.reshape(-1), m.reshape(-1), v.reshape(-1)
    g = g.reshape(-1)
    c1, c2 = 1.0 - beta1**t, 1.0 - beta2**t
    buf = np.empty(min(ADAM_BLOCK, x.size))
    den = np.empty_like(buf)
    for lo in range(0, x.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, x.size)
        xb, gb, mb, vb = x[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        tmp, dn = buf[: hi - lo], den[: hi - lo]
        mb *= beta1
        np.multiply(gb, 1.0 - beta1, out=tmp)
        mb += tmp
        vb *= beta2
        np.multiply(gb, 1.0 - beta2, out=tmp)
        tmp *= gb
        vb += tmp
        np.divide(mb, c1, out=tmp)
        tmp *= lr
        np.divide(vb, c2, out=dn)
        np.sqrt(dn, out=dn)
        dn += eps
        tmp /= dn
        xb -= tmp


def _make_loss_fn(opt_cfg: OptimizeConfig, table: CalibrationTable | None, shape):
    if opt_cfg.loss in ("wristband_pairwise", "wristband_spectral"):
        if table is None:
            raise ContractViolation(f"loss {opt_cfg.loss!r} requires a calibration table")
        expected = "pairwise" if opt_cfg.loss == "wristband_pairwise" else "spectral"
        if table.loss_path != expected:
            raise ContractViolation(
                f"calibration table was built for the {table.loss_path!r} path, "
                f"but the optimizer requested {expected!r}"
            )

        buffers = _step_buffers(shape)

        def loss_fn(x, step):
            return _standardized_step(_validate_for_table(x, table), table, buffers)

        return loss_fn
    if opt_cfg.loss == "mmd":
        def loss_fn(x, step):
            return mmd_loss(x)

        return loss_fn
    # sliced_w2: fresh seeded projections each step unless frozen.
    root = RngStream(opt_cfg.seed, "sliced_w2/projections")

    def loss_fn(x, step):
        label = "frozen" if opt_cfg.freeze_projections else f"step{step:06d}"
        return sliced_w2_loss(x, opt_cfg.sliced_projections, root.child(label))

    return loss_fn


def optimize_point_cloud(initial, opt_cfg: OptimizeConfig, kernel_cfg: KernelConfig,
                         table: CalibrationTable | None = None):
    """Minimize the selected loss over the free points.

    The wristband losses take their kernel from the calibration table,
    and `kernel_cfg` must equal `table.cfg`; the baseline losses (mmd,
    sliced_w2) do not read it.

    Returns (final_batch, trajectory), where trajectory is a list of
    (step, loss_value) pairs sampled every `log_stride` steps plus the
    final step.  A non-finite loss aborts with the failing step index.

    The call owns its N x d working set: the batch it updates, Adam's m
    and v and, on the wristband losses, the three buffers of
    `_standardized_step`, all allocated once here and reused by every
    step.  A step's gradient lives in those buffers and is valid only
    until the next step; the returned batch is the call's own array.
    """
    x = validate_point_batch(initial).copy()
    loss_fn = _make_loss_fn(opt_cfg, table, x.shape)
    if opt_cfg.loss.startswith("wristband") and kernel_cfg != table.cfg:
        raise ContractViolation(
            f"kernel config {kernel_cfg} does not match the calibration table's {table.cfg}"
        )
    m, v = np.zeros_like(x), np.zeros_like(x)
    trajectory: list[tuple[int, float]] = []

    for step in range(opt_cfg.steps):
        lvg: LossValueGrad = loss_fn(x, step)
        if not math.isfinite(lvg.value) or not np.all(np.isfinite(lvg.grad)):
            raise OptimizationFailure(
                f"non-finite loss or gradient at step {step} (loss={lvg.value!r})", step
            )
        if step % opt_cfg.log_stride == 0 or step == opt_cfg.steps - 1:
            trajectory.append((step, lvg.value))
        lr = opt_cfg.lr
        if opt_cfg.schedule == "cosine":
            lr = opt_cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / opt_cfg.steps))
        if opt_cfg.optimizer == "adam":
            _adam_update(x, lvg.grad, m, v, step + 1, lr,
                         opt_cfg.beta1, opt_cfg.beta2, opt_cfg.adam_eps)
        else:
            x = x - lr * lvg.grad
    return x, trajectory
