"""Spectral-vs-pairwise parity, timing scaling, and the FD gradient harness."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, _integer
from .generators import PARITY_KINDS, RngStream, parity_batch
from .pairwise import KernelConfig, pairwise_repulsion_loss
from .spectral import spectral_loss
from .wristband_map import validate_point_batch

__all__ = [
    "FDReport",
    "finite_difference_check",
    "gradient_cosine",
    "parity_suite",
    "timing_sweep",
]

# A timed cell runs for at least this long: a fast call gets hundreds of
# repetitions, not a few that one pre-emption of the process can move.
MIN_CELL_SECONDS = 0.2

# Untimed calls per path and cell before timing starts (first-call costs).
WARMUP_CALLS = 1


@dataclass(frozen=True)
class FDReport:
    """Agreement between an analytic gradient and central finite differences."""

    rel_l2_error: float
    cosine: float
    max_abs_diff: float


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a.ravel(), b.ravel())) / (na * nb)


def finite_difference_check(loss_fn, batch, h_scale: float = 1e-5) -> FDReport:
    """Central differences per coordinate with step h = h_scale * (1 + |x|).

    loss_fn maps a batch to a LossValueGrad.  Intended for small batches
    (N <= 64); the cost is 2 N d loss evaluations.
    """
    x = validate_point_batch(batch)
    if x.shape[0] > 64:
        raise ContractViolation(f"FD check is restricted to N <= 64, got N={x.shape[0]}")
    analytic = loss_fn(x).grad
    fd = np.empty_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            h = h_scale * (1.0 + abs(x[i, j]))
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            fd[i, j] = (loss_fn(xp).value - loss_fn(xm).value) / (2.0 * h)
    diff = analytic - fd
    denom = float(np.linalg.norm(fd))
    rel = float(np.linalg.norm(diff)) / denom if denom > 0.0 else float(np.linalg.norm(diff))
    return FDReport(
        rel_l2_error=rel,
        cosine=_cosine(analytic, fd),
        max_abs_diff=float(np.max(np.abs(diff))),
    )


def gradient_cosine(batch, cfg: KernelConfig) -> tuple[float, float, float]:
    """Loss values of both repulsion paths and the cosine of their gradients.

    Returns (pairwise_value, spectral_value, cosine of the flattened
    input gradients), with the spectral path truncated to `cfg.modes`
    radial cosine modes.
    """
    pw = pairwise_repulsion_loss(batch, cfg)
    sp = spectral_loss(batch, cfg)
    return pw.value, sp.value, _cosine(pw.grad, sp.grad)


def parity_suite(d: int, n: int, modes: int, seeds, cfg: KernelConfig) -> dict:
    """Gradient parity over the structured generators x seeds at one (d, n).

    Reports mean/min gradient cosine and the Pearson correlation between
    the two paths' loss values across all evaluated batches.
    """
    rows = []
    for kind in PARITY_KINDS:
        for seed in seeds:
            stream = RngStream(seed, f"parity/{kind}/d{d}/n{n}")
            batch = parity_batch(kind, n, d, stream)
            pv, sv, cos = gradient_cosine(batch, replace(cfg, modes=modes))
            rows.append({"kind": kind, "seed": seed, "pairwise_value": pv,
                         "spectral_value": sv, "cosine": cos})
    cosines = np.array([r["cosine"] for r in rows])
    pv = np.array([r["pairwise_value"] for r in rows])
    sv = np.array([r["spectral_value"] for r in rows])
    value_corr = float(np.corrcoef(pv, sv)[0, 1])
    return {
        "d": d,
        "n": n,
        "modes": modes,
        "mean_cosine": float(cosines.mean()),
        "min_cosine": float(cosines.min()),
        "value_correlation": value_corr,
        "rows": rows,
    }


def timing_sweep(dims, batch_sizes, modes: int, repetitions: int, cfg: KernelConfig,
                 seed: int = 0) -> list[dict]:
    """Median forward+backward wall time per (d, N, path) with warm-up.

    One Gaussian batch per cell; WARMUP_CALLS untimed calls precede the
    timed ones for each path.  A path's cell is timed until it has
    `repetitions` calls and has run for MIN_CELL_SECONDS.
    """
    repetitions = _integer("repetitions", repetitions, 1)
    results = []
    for d in dims:
        sp_cfg = replace(cfg, modes=modes)
        for n in batch_sizes:
            stream = RngStream(seed, f"timing/d{d}/n{n}")
            batch = stream.normal_matrix(n, d)
            times = {"pairwise": [], "spectral": []}
            for name, fn in (
                ("pairwise", lambda b: pairwise_repulsion_loss(b, cfg)),
                ("spectral", lambda b: spectral_loss(b, sp_cfg)),
            ):
                for _ in range(WARMUP_CALLS):
                    fn(batch)
                start = time.perf_counter()
                while len(times[name]) < repetitions or time.perf_counter() - start < MIN_CELL_SECONDS:
                    t0 = time.perf_counter()
                    fn(batch)
                    times[name].append(time.perf_counter() - t0)
            pw_ms = float(np.median(times["pairwise"])) * 1e3
            sp_ms = float(np.median(times["spectral"])) * 1e3
            results.append({
                "d": d,
                "n": n,
                "modes": modes,
                "pairwise_ms": pw_ms,
                "spectral_ms": sp_ms,
                "speedup": pw_ms / sp_ms if sp_ms > 0 else math.inf,
            })
    return results
