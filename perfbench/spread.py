"""Run one workload over several seeds and report each metric's quartile spread.

    python3 perfbench/spread.py --workload score --seeds 0-9 [--seconds 20]

Prints, per end-to-end metric, the ten values, their median and
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  Runs
are sequential, so they do not contend with each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in BENCHMARK["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect ({result['failed']} failed)", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)

    for m in BENCHMARK["end_to_end"]:
        vals = values[m["name"]]
        share = stats.iqr_share(vals) if len(vals) > 1 else float("nan")
        print(f"{args.workload:<20} {m['name']:<12} median {statistics.median(vals):>10.5g} {m['unit']:<4} "
              f"IQR/median {share:.4f}  bound {m['bound']}  bound/3 {m['bound'] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
