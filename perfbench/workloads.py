"""The four workloads, each driving wristband only through its public API.

Every workload is a closed loop with one caller.  Work is issued in
fixed-size chunks; a chunk is one call into the package and gives one
latency sample (its wall time divided by the ops in it).  Chunk k works on
cycle position k % CYCLE, and its outputs are checked against the values
stored in expected.json for that workload, input set and position.

`--seed` selects one of INPUT_SETS stored input sets (seed % INPUT_SETS),
so every run, whatever its seed, is checked against stored results.
"""

from __future__ import annotations

import math

# Chunks before a workload returns to its first input.
CYCLE = 8

# Distinct input sets with stored expected outputs.
INPUT_SETS = 32

# Outputs must match the stored values to this relative tolerance.  Later
# changes may move gradients by ~1e-13 relative (one fused kernel pass,
# scipy special functions), so bit-equality would reject them.
RTOL = 1e-6

# Calibration reps behind the table the optimize workloads score against.
TABLE_REPS = 16

LR = 0.05


def table_constants(table) -> dict[str, float]:
    return {
        key: getattr(table, key)
        for key in ("mu_rep", "mu_rad", "mu_mom", "sd_rep", "sd_rad", "sd_mom", "sd_numerator")
    }


class OptimizeWorkload:
    """Adam steps through optimize_point_cloud; an op is one optimizer step.

    Each chunk continues from the previous chunk's batch; position 0 of
    every cycle restarts from the initial batch.
    """

    def __init__(self, name, n, dim, loss, cfg, start, steps):
        self.name = name
        self.n, self.dim, self.loss = n, dim, loss
        self.make_cfg, self.start = cfg, start
        self.ops_per_chunk = steps

    def describe(self) -> str:
        return (f"{self.loss} N={self.n} d={self.dim} {self.cfg}, "
                f"{self.ops_per_chunk} Adam steps per chunk, table of {TABLE_REPS} reps")

    def setup(self, wb, input_seed: int) -> dict[str, float]:
        self.wb = wb
        self.cfg = self.make_cfg(wb)
        stream = wb.RngStream(input_seed, f"perfbench/{self.name}")
        self.initial = self.start(wb, self.n, self.dim, stream.child("start"))
        path = "pairwise" if self.loss == "wristband_pairwise" else "spectral"
        self.table = wb.calibrate_null(self.n, self.dim, self.cfg, TABLE_REPS, input_seed, path)
        self.opt = wb.OptimizeConfig(loss=self.loss, steps=self.ops_per_chunk, lr=LR,
                                     seed=input_seed, log_stride=self.ops_per_chunk)
        self.x = self.initial
        return table_constants(self.table)

    def run_chunk(self, k: int) -> dict[str, float]:
        if k % CYCLE == 0:
            self.x = self.initial
        self.x, trajectory = self.wb.optimize_point_cloud(self.x, self.opt, self.cfg, self.table)
        rms = math.sqrt(float((self.x * self.x).mean()))
        return {"final_loss": trajectory[-1][1], "batch_rms": rms}


class CalibrateWorkload:
    """Reps through calibrate_null; an op is one calibration rep.

    Chunk k calibrates with its own derived seed, one per cycle position.
    """

    def __init__(self, name, n, dim, cfg, reps):
        self.name = name
        self.n, self.dim, self.make_cfg = n, dim, cfg
        self.ops_per_chunk = reps

    def describe(self) -> str:
        return f"pairwise path N={self.n} d={self.dim} {self.cfg}, {self.ops_per_chunk} reps per chunk"

    def setup(self, wb, input_seed: int) -> dict[str, float]:
        self.wb = wb
        self.cfg = self.make_cfg(wb)
        self.input_seed = input_seed
        return {}

    def run_chunk(self, k: int) -> dict[str, float]:
        seed = 1000 * self.input_seed + k % CYCLE
        table = self.wb.calibrate_null(self.n, self.dim, self.cfg, self.ops_per_chunk, seed, "pairwise")
        return table_constants(table)


class ScoreWorkload:
    """A barycentric reference plus a z-score; an op is one exact W2 solve.

    A chunk is (num_batches - 1) reference merges plus (null_batches + 1)
    distances.  The reference is built inside the chunk because a user
    pays for it on every score run.
    """

    def __init__(self, name, n, dim, num_batches, null_batches):
        self.name = name
        self.n, self.dim = n, dim
        self.num_batches, self.null_batches = num_batches, null_batches
        self.ops_per_chunk = (num_batches - 1) + (null_batches + 1)

    def describe(self) -> str:
        return (f"N={self.n} d={self.dim}, reference of {self.num_batches} batches, "
                f"{self.null_batches} null batches, rac candidate")

    def setup(self, wb, input_seed: int) -> dict[str, float]:
        self.wb = wb
        self.stream = wb.RngStream(input_seed, f"perfbench/{self.name}")
        self.candidate = wb.rac_batch(self.n, self.dim, self.stream.child("candidate"))
        return {}

    def run_chunk(self, k: int) -> dict[str, float]:
        c = k % CYCLE
        ref = self.wb.barycentric_reference(self.n, self.dim, self.num_batches,
                                            self.stream.child(f"reference{c}"))
        z = self.wb.barycentric_z_score(self.candidate, ref, self.null_batches,
                                        self.stream.child(f"nulls{c}"))
        return {"z": z}


def make(name: str):
    """A fresh workload object for `name`."""
    if name == "optimize_pairwise":
        return OptimizeWorkload(name, 1024, 8, "wristband_pairwise",
                                cfg=lambda wb: wb.KernelConfig.direct_benchmark(),
                                start=lambda wb, n, d, s: wb.rac_batch(n, d, s), steps=3)
    if name == "optimize_spectral":
        return OptimizeWorkload(name, 4096, 64, "wristband_spectral",
                                cfg=lambda wb: wb.KernelConfig(beta=8.0, alpha=wb.ALPHA_UNIFORM_STD, modes=6),
                                start=lambda wb, n, d, s: wb.parity_batch("student_t", n, d, s), steps=3)
    if name == "calibrate_pairwise":
        return CalibrateWorkload(name, 1024, 8, reps=4, cfg=lambda wb: wb.KernelConfig(
            beta=8.0, alpha=wb.ALPHA_UNIFORM_STD, reduction="global"))
    if name == "score":
        return ScoreWorkload(name, 512, 10, num_batches=2, null_batches=2)
    raise KeyError(name)


NAMES = ("optimize_pairwise", "optimize_spectral", "calibrate_pairwise", "score")


def mismatches(got: dict[str, float], want: dict[str, float]) -> list[str]:
    """Human-readable differences between outputs and their stored values.

    Standardized losses and z-scores are in units of a null standard
    deviation and may cross zero, so they are compared against a scale of
    at least 1; every other output is compared relatively.
    """
    out = []
    if set(got) != set(want):
        return [f"outputs {sorted(got)} != stored {sorted(want)}"]
    for key, value in got.items():
        if not math.isfinite(value):
            out.append(f"{key}={value!r} is not finite")
            continue
        scale = max(abs(want[key]), 1.0) if key in ("final_loss", "z") else abs(want[key])
        if abs(value - want[key]) > RTOL * scale:
            out.append(f"{key}={value!r} != stored {want[key]!r}")
    return out
