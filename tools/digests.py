"""Print one `name sha256` line per reproducible output of the package.

The outputs cover calibration tables for the pairwise path under both
reductions and for the spectral path (global reduction, its only one);
pairwise values and gradients at tiles 7, 16 and 128, in the two-base and
three-image bases, at d = 3, 10 and 64; a standardized step on each path;
an optimize on every loss: a 40-step wristband-pairwise run at the
direct-benchmark setting (512 x 10) and a 20-step sliced-w2 run (64 x 5,
fresh projections each step) under the constant schedule, and under the
cosine schedule a 20-step mmd run (64 x 5) and 10-step wristband-spectral
and per-point wristband-pairwise runs from a heavy-tailed 512 x 8 start
against the cached tables; and a barycentric reference with a z-score.

The output opens with `#` lines that state the facts which decide the
bits: the numpy and scipy versions and, for each OpenBLAS copy loaded,
its version, the core its dynamic dispatch chose and its thread count.
`tools/digests_golden.txt` is this output under one BLAS thread, and
`tests/test_digests.py` checks the package against it:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tools/digests.py > tools/digests_golden.txt

`python tools/digests.py NAME...` prints only the named outputs.  A
digest hashes the shape and float64 bytes of every array and number
and the UTF-8 bytes of every string of an output.  A calibration table
is hashed by its field values (its seven constants, its counts, seed
and path, and its config's fields), not by its JSON text, so the digest
does not move when only the file encoding does.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import sys
from collections.abc import Callable
from dataclasses import astuple, replace

import numpy as np
import scipy
import scipy.linalg  # loads scipy's OpenBLAS copy, so that the header names it

from wristband.calibration import calibrate_null, standardized_wristband_loss
from wristband.evaluation import barycentric_reference, barycentric_z_score
from wristband.generators import RngStream, gaussian_batch, parity_batch, rac_batch, x_batch
from wristband.optimize import OptimizeConfig, optimize_point_cloud
from wristband.pairwise import (
    ALPHA_UNIFORM_STD,
    KernelConfig,
    pairwise_repulsion_loss,
    pairwise_value_from_wristband,
)
from wristband.wristband_map import wristband_forward

# Two-base (beta (4 alpha^2 + 3) = 356) and three-image (1400) kernels.
BASES = {"two_base": KernelConfig.direct_benchmark(), "three_image": KernelConfig(beta=200.0)}
CALIBRATION = KernelConfig(beta=8.0, alpha=ALPHA_UNIFORM_STD)
PAIRWISE_N = 300  # two full tiles of 128 and a short last one


def _leaves(value):
    """The non-tuple values of a nested tuple, depth first."""
    if isinstance(value, tuple):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _sha(*parts) -> str:
    """The digest of the parts; a tuple (a dataclass's `astuple`) is hashed leaf by leaf."""
    h = hashlib.sha256()
    for part in _leaves(parts):
        if isinstance(part, str):
            h.update(part.encode())
        else:
            a = np.ascontiguousarray(part, dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


@functools.cache
def _table(loss_path: str, reduction: str):
    return calibrate_null(512, 8, replace(CALIBRATION, reduction=reduction), 16, 1, loss_path)


def _calibration(loss_path: str, reduction: str) -> str:
    return _sha(astuple(_table(loss_path, reduction)))


def _pairwise(kind: str, basis: str, d: int, tile: int, reduction: str) -> str:
    cfg = replace(BASES[basis], reduction=reduction)
    batch = gaussian_batch(PAIRWISE_N, d, RngStream(d, "digests/pairwise"))
    if kind == "value":
        return _sha(pairwise_value_from_wristband(wristband_forward(batch), cfg, tile))
    lvg = pairwise_repulsion_loss(batch, cfg, tile)
    return _sha(lvg.value, lvg.grad)


def _standardized(loss_path: str) -> str:
    batch = gaussian_batch(512, 8, RngStream(2, "digests/standardized"))
    lvg = standardized_wristband_loss(batch, _table(loss_path, "global"))
    return _sha(lvg.value, lvg.grad)


def _optimize() -> str:
    cfg = KernelConfig.direct_benchmark()
    table = calibrate_null(512, 10, cfg, 1024, 3)
    raw = rac_batch(512, 10, RngStream(21, "racbench").child("raw"))
    opt = OptimizeConfig(loss="wristband_pairwise", steps=40, lr=0.05, seed=5, log_stride=10)
    final, trajectory = optimize_point_cloud(raw, opt, cfg, table)
    return _sha(astuple(table), final, np.array(trajectory))


def _optimize_sliced_w2() -> str:
    raw = x_batch(64, 5, RngStream(23, "digests/sliced_w2"))
    opt = OptimizeConfig(loss="sliced_w2", steps=20, lr=0.05, seed=7, log_stride=5,
                         sliced_projections=16)
    final, trajectory = optimize_point_cloud(raw, opt, KernelConfig())
    return _sha(final, np.array(trajectory))


def _optimize_mmd() -> str:
    raw = x_batch(64, 5, RngStream(25, "digests/mmd"))
    opt = OptimizeConfig(loss="mmd", steps=20, lr=0.05, schedule="cosine", seed=9, log_stride=5)
    final, trajectory = optimize_point_cloud(raw, opt, KernelConfig())
    return _sha(final, np.array(trajectory))


def _optimize_wristband(loss_path: str, reduction: str) -> str:
    table = _table(loss_path, reduction)
    raw = parity_batch("student_t", 512, 8, RngStream(27, "digests/wristband"))
    opt = OptimizeConfig(loss=f"wristband_{loss_path}", steps=10, lr=0.05, schedule="cosine",
                         seed=9, log_stride=5)
    final, trajectory = optimize_point_cloud(raw, opt, table.cfg, table)
    return _sha(final, np.array(trajectory))


def _barycentric() -> str:
    stream = RngStream(21, "digests/barycentric")
    ref = barycentric_reference(256, 10, 4, stream.child("ref"))
    z = barycentric_z_score(rac_batch(256, 10, stream.child("raw")), ref, 4, stream.child("nulls"))
    return _sha(ref, z)


def _openblas_call(lib, name: str):
    """The OpenBLAS function `name` under whichever symbol prefix this build uses."""
    for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}", f"openblas_{name}64_",
                   f"openblas_{name}"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            return fn
    raise LookupError(f"no OpenBLAS {name} symbol")


def header() -> list[str]:
    """The `#` lines of the facts that decide the bits of this process's outputs."""
    lines = [f"# numpy {np.__version__}", f"# scipy {scipy.__version__}"]
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        config, core, threads = (_openblas_call(lib, name) for name in
                                 ("get_config", "get_corename", "get_num_threads"))
        config.restype = core.restype = ctypes.c_char_p
        version = config().decode().split()[1]
        lines.append(f"# openblas {version} core {core().decode()} threads {threads()}")
    return lines


def entries() -> dict[str, Callable[[], str]]:
    """Every output's name and the function that computes its digest."""
    out: dict[str, Callable[[], str]] = {}
    for path, reduction in (("pairwise", "global"), ("pairwise", "per_point"), ("spectral", "global")):
        out[f"calibration.{path}.{reduction}"] = functools.partial(_calibration, path, reduction)
    for kind in ("value", "loss"):
        for basis in BASES:
            for d in (3, 10, 64):
                for tile in (7, 16, 128):
                    for reduction in ("global", "per_point"):
                        name = f"pairwise.{kind}.{basis}.d{d}.tile{tile}.{reduction}"
                        out[name] = functools.partial(_pairwise, kind, basis, d, tile, reduction)
    for path in ("pairwise", "spectral"):
        out[f"standardized.{path}"] = functools.partial(_standardized, path)
    out["optimize.direct_benchmark.512x10.steps40"] = _optimize
    out["optimize.sliced_w2.64x5.steps20"] = _optimize_sliced_w2
    out["optimize.mmd.64x5.steps20.cosine"] = _optimize_mmd
    for path, reduction in (("spectral", "global"), ("pairwise", "per_point")):
        out[f"optimize.wristband_{path}.{reduction}.512x8.steps10.cosine"] = functools.partial(
            _optimize_wristband, path, reduction)
    out["evaluation.barycentric"] = _barycentric
    return out


def main(argv: list[str]) -> int:
    table = entries()
    unknown = [name for name in argv if name not in table]
    if unknown:
        print(f"unknown outputs: {' '.join(unknown)}", file=sys.stderr)
        return 2
    print("\n".join(header()), flush=True)
    for name in argv or table:
        print(f"{name} {table[name]()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
