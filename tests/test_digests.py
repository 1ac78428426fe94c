"""tools/digests.py gives one output the same digest on every run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_output_digests_the_same_twice():
    entry = _tool().entries()["pairwise.loss.two_base.d3.tile16.per_point"]
    first = entry()
    assert len(first) == 64 and int(first, 16) >= 0
    assert entry() == first
