"""tools/line_coverage.py reports the executable lines that a traced run never executed."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"

SAMPLE = '''"""Module docstring."""


def sign(x):
    """Function docstring."""
    if x < 0:
        return -1
    return 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_executable_lines_skip_blanks_and_function_docstrings():
    # The module docstring is a store at line 1; the def, the if and both returns run.
    assert _tool().executable_lines(SAMPLE) == {1, 4, 6, 7, 8}


def test_line_ranges_span_only_unrun_executable_lines():
    # Line 4 is not executable, so 3 and 5 form one range; 7 ran and splits 5 from 9.
    assert _tool().line_ranges({2, 3, 5, 9}, {1, 2, 3, 5, 7, 9}) == "2-5, 9"
    assert _tool().line_ranges(set(), {1, 2}) == ""


def test_a_traced_import_and_call_leave_the_untaken_branch_unrun(tmp_path):
    tool = _tool()
    package = tmp_path / "package"
    package.mkdir()
    (package / "sample.py").write_text(SAMPLE)
    (tmp_path / "outside.py").write_text("VALUE = 1\n")

    def run():
        loaded = []
        for path in (package / "sample.py", tmp_path / "outside.py"):
            spec = importlib.util.spec_from_file_location(path.stem, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            loaded.append(module)
        return loaded[0].sign(2)

    result, ran = tool.traced(run, package)
    assert result == 1
    assert set(ran) == {str((package / "sample.py").resolve())}  # files outside are not traced
    assert tool.report(package, ran) == [
        "     5     1  sample.py  7",
        "     5     1  total: executable lines, unrun lines",
    ]
