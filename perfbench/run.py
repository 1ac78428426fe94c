"""Benchmark of the wristband package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: optimize_pairwise, optimize_spectral, calibrate_pairwise, score
(see perfbench/README.md).  Each runs in its own worker process, started
with the BLAS thread count pinned.  `--trace 0` reports the end-to-end
metrics, with latency and throughput in units of a machine-speed probe
(probe.py); `--trace 1` runs a separate traced run and reports per-layer
metrics.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without that line, if the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is repeated in this many processes per run, and setup_s is their median.
SETUP_RUNS = 5

# Every run must end within this many seconds.
RUN_LIMIT_S = 175.0


def run_worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(machine.blas_env())
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--spawned-at", repr(time.monotonic()),
    ]
    # subprocess.run kills and waits for the worker if the timeout expires.
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def chunk_totals(chunks, ops_per_chunk):
    attempted = len(chunks) * ops_per_chunk
    failed = sum(ops_per_chunk for c in chunks if not c["ok"])
    return attempted, failed


def per_op_ms(chunks, ops_per_chunk):
    return [c["ns"] / 1e6 / ops_per_chunk for c in chunks]


def per_op_probes(chunks, ops_per_chunk):
    """Per-op latency in units of the probe run around each chunk."""
    return [c["ns"] / c["probe_ns"] / ops_per_chunk for c in chunks]


def end_to_end(main: dict, setups: list[float]) -> dict:
    """The declared end-to-end metrics.

    Chunk times are divided by the probe run around each chunk (probe.py),
    which cancels most of the speed drift of a shared machine; the wall-clock
    figures are printed alongside by `wall_clock`.
    """
    chunks, ops = main["chunks"], main["ops_per_chunk"]
    rel = per_op_probes(chunks, ops)
    return {
        "ops_per_probe": {"value": len(rel) / sum(rel), "unit": "1/probe"},
        "op_p50_probes": {"value": stats.percentile(rel, 50), "unit": "probes"},
        "op_p90_probes": {"value": stats.percentile(rel, 90), "unit": "probes"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }


def wall_clock(main: dict) -> dict:
    """Wall-clock latency and throughput as measured, and the probe's own time."""
    chunks, ops = main["chunks"], main["ops_per_chunk"]
    lat = per_op_ms(chunks, ops)
    attempted, failed = chunk_totals(chunks, ops)
    return {
        "ops_per_s": {"value": attempted / (sum(c["ns"] for c in chunks) / 1e9), "unit": "1/s"},
        "op_p50_ms": {"value": stats.percentile(lat, 50), "unit": "ms"},
        "op_p90_ms": {"value": stats.percentile(lat, 90), "unit": "ms"},
        "probe_ms": {"value": statistics.median(c["probe_ns"] for c in chunks) / 1e6, "unit": "ms"},
        "op_fail_ratio": {"value": failed / attempted, "unit": "ratio"},
    }


def per_layer(main: dict) -> dict:
    """Per-op layer metrics from the traced half of a trace-mode run."""
    ops = main["ops_per_chunk"]
    traced = [c for c in main["chunks"] if c["traced"]]
    untraced = [c for c in main["chunks"] if not c["traced"]]
    traced_ops = len(traced) * ops
    ids = {c["k"] for c in traced}
    by_name = tracing.self_times([s for s in main["spans"] if s[5] in ids])

    metrics = {}
    total_self_ns = 0
    for name in tracing.SPAN_NAMES:
        calls, self_ns = by_name.get(name, (0, 0))
        total_self_ns += self_ns
        metrics[f"{name}.calls"] = {"value": calls / traced_ops, "unit": "1/op"}
        metrics[f"{name}.self_ms"] = {"value": self_ns / 1e6 / traced_ops, "unit": "ms/op"}
    for module in tracing.LAYERS:
        metrics[f"{module}.errors"] = {"value": main["errors"].get(module, 0) / traced_ops, "unit": "1/op"}
    wall_ns = sum(c["ns"] for c in traced)
    metrics["unattributed_ms"] = {"value": (wall_ns - total_self_ns) / 1e6 / traced_ops, "unit": "ms/op"}
    metrics["trace_overhead"] = {
        "value": stats.percentile(per_op_probes(traced, ops), 50)
        / stats.percentile(per_op_probes(untraced, ops), 50),
        "unit": "ratio",
    }
    # Computed, not counted: self time of the pairwise layer over the N(N+1)/2
    # pairs each pairwise call evaluates.
    pairwise = [by_name.get(f"pairwise.{fn}", (0, 0)) for fn in tracing.LAYERS["pairwise"]]
    pair_calls = sum(calls for calls, _ in pairwise)
    pair_ns = sum(ns for _, ns in pairwise)
    n = main["n"]
    metrics["pairwise.ns_per_pair"] = {
        "value": pair_ns / (pair_calls * n * (n + 1) / 2) if pair_calls else 0.0,
        "unit": "ns/pair",
    }
    return metrics


def print_report(runs: list[dict], metrics: dict, extra: dict, setups: list[float]):
    main = runs[-1]
    f = main["facts"]
    print(f"machine: nproc={f['nproc']} cpu={f['cpu_model']!r} python={f['python']} "
          f"numpy={f['numpy']} scipy={f['scipy']} blas={f['blas_vendor']} "
          f"blas_threads_set={f['blas_threads_set']} in_use={f['blas_threads_in_use']}")
    print(f"workload {main['workload']}: {main['describe']}; input set {main['input_seed']}")
    n = len(main["chunks"])
    tail = stats.tail_permille(n)
    tail_note = (f"{n} samples; highest percentile with >=10 beyond: "
                 + (f"p{tail / 10:g}" if tail else "none (fewer than 100 samples)"))
    attempted, failed = chunk_totals(main["chunks"], main["ops_per_chunk"])
    notes = {
        "op_p50_probes": f"median of {n} chunk samples",
        "op_p50_ms": f"median of {n} chunk samples",
        "op_p90_probes": tail_note,
        "op_p90_ms": tail_note,
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "op_fail_ratio": f"{failed}/{attempted} ops",
        "pairwise.ns_per_pair": "computed",
    }
    for title, group in (("metrics", metrics), ("wall clock, as measured", extra)):
        print(f"{title}:")
        for name, m in group.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    for problem in (p for r in runs for p in r["setup_problems"]):
        print(f"  set-up check failed: {problem}")
    for c in main["chunks"]:
        if not c["ok"]:
            print(f"  chunk {c['k']} failed: {c['error']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "wristband" / "__init__.py").is_file():
        print(f"no wristband sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            runs = [run_worker(args, "trace", deadline)]
        else:
            runs = [run_worker(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
            runs.append(run_worker(args, "measure", deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    main_run = runs[-1]
    setups = [r["setup_s"] for r in runs]
    metrics = per_layer(main_run) if args.trace else end_to_end(main_run, setups)
    attempted, failed = chunk_totals(main_run["chunks"], main_run["ops_per_chunk"])
    correct = failed == 0 and not any(r["setup_problems"] for r in runs)
    print_report(runs, metrics, wall_clock(main_run), setups)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
