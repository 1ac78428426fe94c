"""Command-line surface tying the library into reproducible runs.

Subcommands: gen, calibrate, optimize, score, parity, selftest.  Each
``_cmd_*`` does its work and returns its exit code, metrics and any extra
timing data; `_run` times it and, given --report, writes a report that
embeds the full argv, configuration and seeds.  ``wristband --replay
report.json`` re-executes a recorded run into a temporary directory and
checks that the metrics match.

Exit codes: 0 success, 1 numeric/convergence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .calibration import (
    _FLOAT_FIELDS,
    LOSS_PATHS,
    CalibrationTable,
    calibrate_null,
    standardized_wristband_loss,
)
from .errors import WristbandError
from .evaluation import barycentric_reference, barycentric_z_score
from .generators import (
    PARITY_CONSTANTS,
    PARITY_KINDS,
    RngStream,
    gaussian_batch,
    parity_batch,
    rac_batch,
    x_batch,
)
from .io import build_report, read_batch, read_report, report_floats, write_batch, write_report
from .optimize import LOSS_KINDS, SCHEDULES, OptimizeConfig, optimize_point_cloud
from .pairwise import DEFAULT_TILE, REDUCTIONS, KernelConfig, pairwise_repulsion_loss
from .parity import finite_difference_check, parity_suite, timing_sweep
from .spectral import spectral_loss
from .specfun import chi2_cdf


def _cli_name(name: str) -> str:
    """The command-line spelling of a library name: '_' becomes '-'."""
    return name.replace("_", "-")


def _library_name(name: str) -> str:
    """The library name of a command-line spelling: '-' becomes '_'."""
    return name.replace("-", "_")


_CLI_PARITY_KINDS = tuple(_cli_name(k) for k in PARITY_KINDS)
GEN_KINDS = ("gaussian", "x", "rac") + _CLI_PARITY_KINDS


def _generate(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    stream = RngStream(seed, f"gen/{kind}")
    if kind == "gaussian":
        return gaussian_batch(n, d, stream)
    if kind == "x":
        return x_batch(n, d, stream)
    if kind == "rac":
        return rac_batch(n, d, stream)
    return parity_batch(_library_name(kind), n, d, stream)


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("weights must be w_rep,w_rad,w_mom")
    return tuple(parts)


def _parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def _cmd_gen(args) -> tuple[int, dict, dict]:
    batch = _generate(args.kind, args.n, args.d, args.seed)
    write_batch(args.out, batch)
    norms = np.linalg.norm(batch, axis=1)
    metrics = {
        "n": args.n,
        "d": args.d,
        "kind": args.kind,
        "mean_norm": float(norms.mean()),
        "max_abs": float(np.max(np.abs(batch))),
    }
    if args.kind in _CLI_PARITY_KINDS:
        metrics["generator_constants"] = dict(PARITY_CONSTANTS)
    print(f"gen: wrote {args.n}x{args.d} {args.kind} batch to {args.out}")
    return 0, metrics, {}


def _cmd_calibrate(args) -> tuple[int, dict, dict]:
    cfg = KernelConfig(**{f.name: getattr(args, f.name) for f in fields(KernelConfig)})
    table = calibrate_null(args.n, args.d, cfg, args.reps, args.seed, args.loss_path)
    with open(args.out, "w") as fh:
        fh.write(table.to_json())
    metrics = {
        **{name: getattr(table, name) for name in _FLOAT_FIELDS},
        "loss_path": table.loss_path,
        "reduction": cfg.reduction,
    }
    print(
        f"calibrate: n={args.n} d={args.d} reps={args.reps} path={args.loss_path} "
        f"mu_rep={table.mu_rep:.6f} -> {args.out}"
    )
    return 0, metrics, {}


def _cmd_optimize(args) -> tuple[int, dict, dict]:
    start = (args.kind, args.n, args.d)
    if args.infile is not None and start == (None, None, None):
        initial = read_batch(args.infile)
    elif args.infile is None and None not in start:
        initial = _generate(args.kind, args.n, args.d, args.seed)
    else:
        raise WristbandError("optimize needs either --in or --kind with --n and --d, not both")
    loss = _library_name(args.loss)

    table = None
    kernel_cfg = KernelConfig()
    if loss.startswith("wristband"):
        if not args.calib:
            raise WristbandError(f"loss {args.loss} requires --calib TABLE")
        with open(args.calib) as fh:
            table = CalibrationTable.from_json(fh.read())
        kernel_cfg = table.cfg
    elif args.calib is not None:
        raise WristbandError(f"loss {args.loss} takes no --calib")

    opt_cfg = OptimizeConfig(
        loss=loss,
        steps=args.steps,
        lr=args.lr,
        schedule=args.schedule,
        seed=args.seed,
        log_stride=args.log_stride,
        sliced_projections=args.projections,
    )
    final, trajectory = optimize_point_cloud(initial, opt_cfg, kernel_cfg, table)
    write_batch(args.out, final)
    metrics = {
        "initial_loss": trajectory[0][1],
        "final_loss": trajectory[-1][1],
        "steps": args.steps,
        "trajectory": [[s, v] for s, v in trajectory],
    }
    print(
        f"optimize: {args.loss} for {args.steps} steps, "
        f"loss {trajectory[0][1]:.4f} -> {trajectory[-1][1]:.4f}, wrote {args.out}"
    )
    return 0, metrics, {}


def _cmd_score(args) -> tuple[int, dict, dict]:
    candidate = read_batch(args.infile)
    n, d = candidate.shape
    stream = RngStream(args.seed, "score")
    ref = barycentric_reference(n, d, args.ref_batches, stream.child("reference"))
    z = barycentric_z_score(candidate, ref, args.null_batches, stream.child("nulls"))
    metrics = {
        "z": z,
        "n": n,
        "d": d,
        "ref_batches": args.ref_batches,
        "null_batches": args.null_batches,
        "w2_convention": "distance",
        "reference_provenance": ref.provenance(),
    }
    print(f"score: barycentric-W2 z = {z:.4f} (n={n}, d={d})")
    return 0, metrics, {}


def _cmd_parity(args) -> tuple[int, dict, dict]:
    cfg = KernelConfig(beta=args.beta, alpha=args.alpha)
    seeds = list(range(args.reps))
    rows = []
    for d in args.dims:
        for n in args.ns:
            suite = parity_suite(d, n, args.modes, seeds, cfg)
            rows.append({k: suite[k] for k in
                         ("d", "n", "modes", "mean_cosine", "min_cosine", "value_correlation")})
            print(
                f"parity: d={d} n={n} K={args.modes} mean_cos={suite['mean_cosine']:.4f} "
                f"min_cos={suite['min_cosine']:.4f} value_corr={suite['value_correlation']:.6f}"
            )
    timing_rows = timing_sweep(args.dims, args.ns, args.modes, args.timing_reps, cfg,
                               seed=args.seed)
    for row in timing_rows:
        print(
            f"timing: d={row['d']} n={row['n']} pairwise={row['pairwise_ms']:.2f}ms "
            f"spectral={row['spectral_ms']:.2f}ms speedup={row['speedup']:.2f}x"
        )
    metrics = {"parity": rows, "generator_constants": dict(PARITY_CONSTANTS)}
    return 0, metrics, {"timing_rows": timing_rows}


def _selftest_checks():
    rng = np.random.default_rng(7)
    cfg = KernelConfig(beta=8.0, alpha=1.0)

    def chi2_monotone():
        values = [chi2_cdf(5, s) for s in np.linspace(0.0, 30.0, 200)]
        return all(b >= a for a, b in zip(values, values[1:]))

    def gradients():
        x = rng.normal(size=(12, 4))
        rep = finite_difference_check(lambda b: pairwise_repulsion_loss(b, cfg), x)
        sp = finite_difference_check(lambda b: spectral_loss(b, cfg), x)
        return rep.rel_l2_error <= 1e-5 and sp.rel_l2_error <= 1e-5

    def batch_roundtrip():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "roundtrip.wbpc")
            batch = rng.normal(size=(17, 3))
            write_batch(path, batch)
            back = read_batch(path)
            return np.array_equal(batch, back)

    def calibration_determinism():
        t1 = calibrate_null(32, 3, cfg, 8, seed=5)
        t2 = calibrate_null(32, 3, cfg, 8, seed=5)
        if t1.to_json() != t2.to_json():
            return False
        lw = standardized_wristband_loss(gaussian_batch(32, 3, RngStream(9, "selftest")), t1)
        return math.isfinite(lw.value)

    return [
        ("chi2_cdf_monotone", chi2_monotone),
        ("loss_gradients_fd", gradients),
        ("batch_file_roundtrip", batch_roundtrip),
        ("calibration_determinism", calibration_determinism),
    ]


def _cmd_selftest(args) -> tuple[int, dict, dict]:
    results = {}
    for name, check in _selftest_checks():
        try:
            results[name] = "PASS" if check() else "FAIL"
        except Exception as exc:  # a crash is a failure, not an abort
            results[name] = "ERROR"
            print(f"selftest {name}: ERROR ({exc})")
        else:
            print(f"selftest {name}: {results[name]}")
    failures = sum(r != "PASS" for r in results.values())
    if failures:
        print(f"selftest: {failures} check(s) failed")
    else:
        print("selftest: all checks passed")
    return int(failures > 0), results, {}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wristband",
        description="Wristband Gaussianization losses, calibration, and evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    kernel, opt = KernelConfig(), OptimizeConfig()

    def add_common(p):
        p.add_argument("--report", default=None, help="write a JSON run report here")

    p = sub.add_parser("gen", help="generate a benchmark batch")
    p.add_argument("--kind", choices=GEN_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("calibrate", help="Monte-Carlo null calibration table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--beta", type=float, default=kernel.beta)
    p.add_argument("--alpha", type=float, default=kernel.alpha)
    p.add_argument("--eps", type=float, default=kernel.eps)
    p.add_argument("--reduction", choices=REDUCTIONS, default=kernel.reduction)
    p.add_argument("--weights", type=_parse_weights, default=kernel.weights,
                   help="w_rep,w_rad,w_mom")
    p.add_argument("--modes", type=int, default=kernel.modes)
    p.add_argument("--reps", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss-path", dest="loss_path", choices=LOSS_PATHS, default=LOSS_PATHS[0])
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("optimize", help="direct point-cloud optimization")
    p.add_argument("--loss", choices=tuple(_cli_name(k) for k in LOSS_KINDS), required=True)
    p.add_argument("--steps", type=int, default=opt.steps)
    p.add_argument("--lr", type=float, default=opt.lr)
    p.add_argument("--calib", default=None, help="calibration table (wristband losses)")
    p.add_argument("--in", dest="infile", default=None, help="initial batch file")
    p.add_argument("--kind", choices=GEN_KINDS, default=None,
                   help="generate the initial batch instead of --in")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, default=opt.seed)
    p.add_argument("--schedule", choices=SCHEDULES, default=opt.schedule)
    p.add_argument("--log-stride", dest="log_stride", type=int, default=opt.log_stride)
    p.add_argument("--projections", type=int, default=opt.sliced_projections)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("score", help="calibrated barycentric-W2 z-score")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ref-batches", dest="ref_batches", type=int, default=64)
    p.add_argument("--null-batches", dest="null_batches", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("parity", help="spectral-vs-pairwise parity and timing")
    p.add_argument("--dims", type=_parse_int_list, default=[16, 64])
    p.add_argument("--ns", type=_parse_int_list, default=[1024])
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--reps", type=int, default=5, help="seeds per generator")
    p.add_argument("--timing-reps", dest="timing_reps", type=int, default=3)
    p.add_argument("--beta", type=float, default=kernel.beta)
    # Default angular scale for parity runs: small enough that the
    # l <= 1 truncation retains the angular signal at K = 3.
    p.add_argument("--alpha", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def _replay(path: str) -> int:
    """Rerun a report's argv with its output files redirected to a temporary directory."""
    original = read_report(path)
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "replay-report.json")
        code = _run(original["argv"], out_dir=tmp, report=report_path)
        if code != 0:
            print(f"replay: rerun exited with {code}")
            return 1
        fresh = read_report(report_path)
        old_metrics = report_floats(original["metrics"])
        new_metrics = report_floats(fresh["metrics"])
        if _metrics_match(old_metrics, new_metrics):
            print("replay: metrics match")
            return 0
        print("replay: METRICS MISMATCH")
        return 1


def _metrics_match(a, b, rel=1e-9) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_metrics_match(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_metrics_match(x, y, rel) for x, y in zip(a, b))
    return a == b


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    argv = list(argv)
    if argv[:1] == ["--replay"]:
        if len(argv) != 2:
            print("usage: wristband --replay REPORT.json", file=sys.stderr)
            return 2
        try:
            return _replay(argv[1])
        except (WristbandError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return _run(argv)


def _run(argv, out_dir: str | None = None, report: str | None = None) -> int:
    """Parse, run and time one subcommand, then write its report; returns the exit code.

    The report echoes every parsed argument but `func` as its config, and
    `--seed` as its seeds.  `out_dir` moves the parsed --out to its base
    name in that directory and `report` replaces --report.  Both act on
    the parsed arguments, so they hold however argv spelled the flags
    (`--out PATH`, `--out=PATH`).
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    if out_dir is not None and getattr(args, "out", None) is not None:
        args.out = os.path.join(out_dir, os.path.basename(args.out))
    if report is not None:
        args.report = report
    t0 = time.perf_counter()
    try:
        code, metrics, timing = args.func(args)
        timing["wall_time_s"] = time.perf_counter() - t0
        if args.report:
            config = {k: v for k, v in vars(args).items() if k != "func"}
            config["pairwise_tile"] = DEFAULT_TILE
            seeds = {"seed": args.seed} if "seed" in config else {}
            write_report(args.report, build_report(args.subcommand, argv, config, seeds, metrics,
                                                   timing, os.cpu_count() or 1))
            print(f"report written to {args.report}")
        return code
    except (WristbandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
