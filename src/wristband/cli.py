"""Command-line surface tying the library into reproducible runs.

Subcommands: gen, calibrate, optimize, score, parity, selftest.  Each
``_cmd_*`` does its work and returns its exit code, metrics and any extra
timing data; `_run` times it and, given --report, writes a report: the
argv, the working directory as ``cwd``, the parsed flags once as
``config``, the metrics, the SHA-256 of the file --out wrote under
``outputs``, and wall-clock data under ``timing``.  A report holds each
fact once: metrics are only what the run computed or read from an input
file, never a flag (that is ``config``) or a code constant.  Everything
but ``timing`` is reproducible against the checkout that wrote the
report (``tool_version`` is only the package version string), and
``wristband --replay report.json`` checks all of it: it re-executes the
recorded argv in the recorded ``cwd``, with its output files moved into
a temporary directory, and compares the canonical JSON text of every
other key, so every double and every output byte must match.

Exit codes: 0 success; 1 when the library refused an input, a file was
malformed or unreadable, or the run failed, and when a replay does not
match; 2 for a usage error, which argparse reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
from .errors import FormatError, WristbandError
from .evaluation import barycentric_reference, barycentric_z_score
from .generators import (
    PARITY_KINDS,
    RngStream,
    gaussian_batch,
    parity_batch,
    rac_batch,
    x_batch,
)
from .io import REPORT_FORMAT_VERSION, read_batch, read_report, write_batch, write_report
from .optimize import LOSS_KINDS, SCHEDULES, OptimizeConfig, optimize_point_cloud
from .pairwise import REDUCTIONS, KernelConfig, pairwise_repulsion_loss
from .parity import finite_difference_check, parity_suite, timing_sweep
from .spectral import spectral_loss
from .specfun import chi2_cdf


def _cli_name(name: str) -> str:
    """The command-line spelling of a library name: '_' becomes '-'."""
    return name.replace("_", "-")


def _library_name(name: str) -> str:
    """The library name of a command-line spelling: '-' becomes '_'."""
    return name.replace("-", "_")


GEN_KINDS = ("gaussian", "x", "rac") + tuple(_cli_name(k) for k in PARITY_KINDS)


def _generate(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    stream = RngStream(seed, f"gen/{kind}")
    if kind == "gaussian":
        return gaussian_batch(n, d, stream)
    if kind == "x":
        return x_batch(n, d, stream)
    if kind == "rac":
        return rac_batch(n, d, stream)
    return parity_batch(_library_name(kind), n, d, stream)


def _parse_list(text: str, convert=int, form="comma-separated integers", count=0) -> list:
    """A comma-separated flag value, or an ArgumentTypeError naming `form`.

    argparse prints that error's message after the flag; for any other
    error it would print this function's name.
    """
    parts = text.split(",")
    try:
        if count in (0, len(parts)):
            return [convert(p) for p in parts]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")


def _cmd_gen(args) -> tuple[int, dict, dict]:
    batch = _generate(args.kind, args.n, args.d, args.seed)
    write_batch(args.out, batch)
    norms = np.linalg.norm(batch, axis=1)
    metrics = {"mean_norm": float(norms.mean()), "max_abs": float(np.max(np.abs(batch)))}
    print(f"gen: wrote {args.n}x{args.d} {args.kind} batch to {args.out}")
    return 0, metrics, {}


def _cmd_calibrate(args) -> tuple[int, dict, dict]:
    cfg = KernelConfig(**{**{f.name: getattr(args, f.name) for f in fields(KernelConfig)},
                          "reduction": _library_name(args.reduction)})
    table = calibrate_null(args.n, args.d, cfg, args.reps, args.seed, args.loss_path)
    with open(args.out, "w") as fh:
        fh.write(table.to_json())
    metrics = {name: getattr(table, name) for name in _FLOAT_FIELDS}
    print(
        f"calibrate: n={args.n} d={args.d} reps={args.reps} path={args.loss_path} "
        f"mu_rep={table.mu_rep:.6f} -> {args.out}"
    )
    return 0, metrics, {}


def _start_problem(args) -> str | None:
    """What is wrong with optimize's start flags, or None if the start is --in alone or
    --kind with --n and --d."""
    flags = {"--kind": args.kind, "--n": args.n, "--d": args.d}
    given = [flag for flag, value in flags.items() if value is not None]
    if args.infile is not None and given:
        return f"optimize: --in takes no {', '.join(given)}"
    if args.infile is None and len(given) < len(flags):
        missing = ", ".join(flag for flag in flags if flag not in given)
        return f"optimize: give --in, or --kind with --n and --d (missing {missing})"
    return None


def _cmd_optimize(args) -> tuple[int, dict, dict]:
    if args.infile is not None:
        initial = read_batch(args.infile)
    else:
        initial = _generate(args.kind, args.n, args.d, args.seed)
    table = None
    if args.calib is not None:
        with open(args.calib, "rb") as fh:
            table = CalibrationTable.from_json(fh.read())
    kernel_cfg = KernelConfig() if table is None else table.cfg
    opt_cfg = OptimizeConfig(
        loss=_library_name(args.loss),
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
    metrics = {"z": z, "n": n, "d": d}
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
                         ("d", "n", "mean_cosine", "min_cosine", "value_correlation")})
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
    return 0, {"parity": rows}, {"timing_rows": timing_rows}


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
    parser.add_argument("--replay", metavar="REPORT", default=None,
                        help="rerun the run a report records and check every key but timing")
    sub = parser.add_subparsers(dest="subcommand")

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
    p.add_argument("--reduction", choices=tuple(_cli_name(r) for r in REDUCTIONS),
                   default=_cli_name(kernel.reduction))
    p.add_argument("--weights", default=kernel.weights, help="w_rep,w_rad,w_mom",
                   type=lambda v: _parse_list(v, float, "three reals w_rep,w_rad,w_mom", 3))
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
    p.add_argument("--dims", type=_parse_list, default=[16, 64])
    p.add_argument("--ns", type=_parse_list, default=[1024])
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
    """Rerun a report's argv in its recorded cwd with its output files redirected to a
    temporary directory, then compare every key of the two reports but `timing`."""
    original = read_report(path)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "replay-report.json")
        os.chdir(original["cwd"])
        try:
            code = _run(original["argv"], out_dir=tmp, report=report_path)
        finally:
            os.chdir(home)
        if code != 0:
            print(f"replay: rerun exited with {code}")
            return 1
        fresh = read_report(report_path)
    # Compared as canonical text, not with `==`, so a NaN matches itself.
    recorded, rerun = ({k: json.dumps(v, sort_keys=True) for k, v in r.items() if k != "timing"}
                       for r in (original, fresh))
    differ = sorted(k for k in recorded.keys() | rerun.keys() if recorded.get(k) != rerun.get(k))
    if differ:
        print(f"replay: MISMATCH in {', '.join(differ)}")
        return 1
    print("replay: report matches")
    return 0


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    return _run(list(argv))


def _run(argv, out_dir: str | None = None, report: str | None = None) -> int:
    """Parse argv, then replay the report it names, or run, time and report its subcommand;
    returns the exit code.

    The report echoes every parsed argument but `func` and `replay` once,
    as its config, and records the working directory that the run's
    relative paths name as `cwd`.  `out_dir` moves the parsed --out to its
    base name in that directory and `report` replaces --report.  Both act on
    the parsed arguments after the echo is taken, so a replay's config
    equals the recorded one, however argv spelled the flags (`--out
    PATH`, `--out=PATH`).  Only a replay's rerun sets them, and a rerun
    runs a subcommand, never a second replay.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.subcommand is None) == (args.replay is None):
            parser.error("give either a subcommand or --replay REPORT")
        if args.subcommand == "optimize" and (problem := _start_problem(args)):
            parser.error(problem)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        if args.replay is not None:
            if report is not None:
                raise FormatError("a report's argv must run a subcommand, not --replay")
            return _replay(args.replay)
        config = {k: v for k, v in vars(args).items() if k not in ("func", "replay")}
        if out_dir is not None and getattr(args, "out", None) is not None:
            args.out = os.path.join(out_dir, os.path.basename(args.out))
        if report is not None:
            args.report = report
        t0 = time.perf_counter()
        code, metrics, timing = args.func(args)
        timing["wall_time_s"] = time.perf_counter() - t0
        if args.report:
            outputs = {}
            if getattr(args, "out", None) is not None:
                with open(args.out, "rb") as fh:
                    outputs["out"] = hashlib.sha256(fh.read()).hexdigest()
            write_report(args.report, {
                "format_version": REPORT_FORMAT_VERSION,
                "tool": "wristband",
                "tool_version": __version__,
                "argv": list(argv),
                "cwd": os.getcwd(),
                "config": config,
                "metrics": metrics,
                "outputs": outputs,
                "timing": timing,
            })
            print(f"report written to {args.report}")
        return code
    except (WristbandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
