"""tools/digests.py repeats each digest, and matches its golden file under one BLAS thread."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "digests.py"
GOLDEN = ROOT / "tools" / "digests_golden.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _split(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines()
    return [l for l in lines if l.startswith("#")], [l for l in lines if not l.startswith("#")]


def test_an_output_digests_the_same_twice():
    entry = _tool().entries()["pairwise.loss.two_base.d3.tile16.per_point"]
    first = entry()
    assert len(first) == 64 and int(first, 16) >= 0
    assert entry() == first


def test_one_thread_digests_match_the_golden_file():
    """Every output's bytes are those the golden file records.

    The tool runs under one BLAS thread, importing the package from
    `src`.  The rule when the `#` header differs (another numpy, scipy or
    OpenBLAS version, another core chosen by OpenBLAS's dynamic dispatch,
    another thread count): the test skips and names the differing lines,
    because other kernels may round differently and a digest mismatch
    would then say nothing about the code.  A change that means to move
    bytes regenerates the file with the command in the tool's docstring.
    """
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(TOOL)], cwd=ROOT, env=env, capture_output=True,
                         text=True, check=True)
    header, digests = _split(run.stdout)
    golden_header, golden_digests = _split(GOLDEN.read_text())
    if header != golden_header:
        pytest.skip(f"bit-deciding facts differ from the golden file's: {header} != {golden_header}")
    moved = [line.split()[0] for line, old in zip(digests, golden_digests) if line != old]
    assert digests == golden_digests, f"outputs moved: {moved}"
