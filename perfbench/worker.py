"""One workload in its own process: set up, warm up, then time chunks.

Started by run.py with the BLAS thread variables and PYTHONPATH=<root>/src
already in its environment.  Prints one JSON object to stdout when it ends;
in trace mode that object carries every span recorded during the run.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode measure|setup|trace --spawned-at MONOTONIC_SECONDS
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import machine
import workloads
from probe import probe_ns

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# The timed loop runs for --seconds and at least MIN_CHUNKS chunks (so a
# p90 has ten samples beyond it), but never longer than MAX_TIMED_S.
MIN_CHUNKS = 100
MAX_TIMED_S = 120.0


def import_program():
    """Import wristband from this checkout's src/, never from anywhere else."""
    import wristband

    src = (ROOT / "src").resolve()
    where = Path(wristband.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"wristband was imported from {where}, not from {src}")
    return wristband


def load_expected(name: str, input_seed: int) -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)[name][str(input_seed)]


def timed_loop(wl, expected, seconds, trace=None):
    """Run chunks 1, 2, ... and return one record per chunk.

    A probe runs before the first chunk and after every chunk; each
    record carries the mean of the two probes around its chunk.

    With `trace` = (tracer, installation), even chunks run traced and
    odd chunks untraced, so both halves see the same conditions.
    """
    records = []
    t_start = time.monotonic()
    probe_before = probe_ns()
    k = 1
    while True:
        elapsed = time.monotonic() - t_start
        if elapsed >= MAX_TIMED_S or (elapsed >= seconds and len(records) >= MIN_CHUNKS):
            break
        traced = trace is not None and k % 2 == 0
        if trace is not None:
            tracer, installation = trace
            tracer.op_id = k
            if traced:
                installation.enable()
            else:
                installation.disable()
        error = None
        t0 = time.perf_counter_ns()
        try:
            got = wl.run_chunk(k)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            got, error = None, f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - t0
        probe_after = probe_ns()
        if got is not None:
            wrong = workloads.mismatches(got, expected["chunks"][k % workloads.CYCLE])
            error = "; ".join(wrong) or None
        records.append({"k": k, "ns": ns, "probe_ns": (probe_before + probe_after) / 2,
                        "ok": error is None, "traced": traced, "error": error})
        probe_before = probe_after
        k += 1
    if trace is not None:
        trace[1].disable()
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("measure", "setup", "trace"))
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    wb = import_program()
    wl = workloads.make(args.workload)
    input_seed = args.seed % workloads.INPUT_SETS
    expected = load_expected(args.workload, input_seed)

    problems = workloads.mismatches(wl.setup(wb, input_seed), expected["setup"])
    try:
        problems += workloads.mismatches(wl.run_chunk(0), expected["chunks"][0])
    except Exception as exc:  # reported as a failed check, like any chunk
        problems.append(f"warm-up chunk: {type(exc).__name__}: {exc}")
    setup_s = time.monotonic() - args.spawned_at
    out = {
        "workload": args.workload,
        "describe": wl.describe(),
        "input_seed": input_seed,
        "ops_per_chunk": wl.ops_per_chunk,
        "n": wl.n,
        "setup_s": setup_s,
        "setup_problems": problems,
        "facts": machine.facts(),
    }
    if args.mode != "setup":
        trace = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            trace = (tracer, tracing.install(tracer, wb, wb.WristbandError))
        out["chunks"] = timed_loop(wl, expected, args.seconds, trace)
        if trace is not None:
            out["spans"] = tracer.spans
            out["errors"] = dict(tracer.errors)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
