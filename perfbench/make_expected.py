"""Regenerate expected.json: the outputs every benchmark run is checked against.

For each workload and input set this records the set-up outputs and the
outputs of the CYCLE chunk positions.  Rerun it only for a change that is
meant to move results by more than workloads.RTOL, and say so in that change:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import machine

os.environ.update(machine.blas_env())
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from worker import EXPECTED, import_program  # noqa: E402


def record(wb, name: str, input_seed: int) -> dict:
    wl = workloads.make(name)
    setup = wl.setup(wb, input_seed)
    return {"setup": setup, "chunks": [wl.run_chunk(k) for k in range(workloads.CYCLE)]}


def main() -> int:
    wb = import_program()
    table = {
        name: {str(s): record(wb, name, s) for s in range(workloads.INPUT_SETS)}
        for name in workloads.NAMES
    }
    tmp = EXPECTED.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, EXPECTED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
