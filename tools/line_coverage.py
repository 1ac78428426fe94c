"""Print the lines of the package source that a pytest run never executes.

A standard-library line tracer.  `sys.settrace` records every line event
in a file of the package while pytest runs in this process.  A module's
executable lines are the line numbers in the line tables of its code
objects: the module's own, and every class body's and function's inside
it, compiled from the file.  An executable line with no event is unrun.
The report lists each module's executable and unrun line counts and the
unrun lines as ranges; a range spans no executable line that ran.  It
is a report, not a gate: the exit code is pytest's.

Run from the repository root, with pytest's own arguments:

    PYTHONPATH=src python tools/line_coverage.py tests --ignore=tests/test_acceptance.py -q

The package traced is the `wristband` that this interpreter would import.
Tracing slows the package's Python lines several times; NumPy and BLAS
calls run at full speed.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """The line numbers that the compiled code of one Python source text can run."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        # None marks bytecode with no line; 0 marks a module's entry, never a line event.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(run, directory: Path):
    """(run(), {file: lines run}) for the files under `directory`, while `run()` ran."""
    root = str(directory.resolve())
    ran: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, str | None] = {}  # code filename -> resolved file, or None outside

    def path_of(filename: str) -> str | None:
        if filename not in inside:  # "<stdin>" and "<frozen ...>" name no file
            path = Path(filename).resolve()
            inside[filename] = str(path) if path.is_relative_to(root) and path.is_file() else None
        return inside[filename]

    def on_call(frame, event, arg):
        path = path_of(frame.f_code.co_filename)
        if path is None:
            return None
        lines = ran[path]

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return result, ran


def line_ranges(unrun: set[int], executable: set[int]) -> str:
    """The unrun lines as "a-b" ranges over the sorted executable lines."""
    spans: list[list[int]] = []
    follows = False  # whether the previous executable line was unrun
    for line in sorted(executable):
        if line in unrun:
            if follows:
                spans[-1][1] = line
            else:
                spans.append([line, line])
        follows = line in unrun
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(directory: Path, ran: dict[str, set[int]]) -> list[str]:
    """One line per module of `directory`, then a total line."""
    rows, totals = [], [0, 0]
    for path in sorted(directory.resolve().rglob("*.py")):
        executable = executable_lines(path.read_text(encoding="utf-8"), str(path))
        unrun = executable - ran.get(str(path), set())
        totals[0] += len(executable)
        totals[1] += len(unrun)
        rows.append(f"{len(executable):6d} {len(unrun):5d}  {path.name}  "
                    f"{line_ranges(unrun, executable)}".rstrip())
    rows.append(f"{totals[0]:6d} {totals[1]:5d}  total: executable lines, unrun lines")
    return rows


def main(argv: list[str]) -> int:
    spec = importlib.util.find_spec("wristband")  # found, not imported: imports are traced
    if spec is None or spec.origin is None:
        print("line_coverage: wristband is not importable; run with PYTHONPATH=src",
              file=sys.stderr)
        return 2
    package = Path(spec.origin).parent
    code, ran = traced(lambda: pytest.main(argv), package)
    print("\n".join(report(package, ran)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
