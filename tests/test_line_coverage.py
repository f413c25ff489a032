"""The line accounting of ``tools/line_coverage.py``."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)

SOURCE = '''\
def used(x):
    if x:
        return 1
    return 2


def unused():
    return 3
'''


def test_unrun_lines_of_two_functions():
    code = compile(SOURCE, "<two functions>", "exec")
    lines = line_coverage.executable_lines(code)
    assert lines == {1, 2, 3, 4, 7, 8}
    tracer = line_coverage.LineTracer(["<two functions>", "<other>"])
    namespace = {}
    previous = sys.gettrace()
    tracer.install()
    try:
        exec(code, namespace)
        namespace["used"](1)
    finally:
        sys.settrace(previous)
    assert lines - tracer.hits["<two functions>"] == {4, 8}
    assert tracer.hits["<other>"] == set()
    assert line_coverage.line_ranges({4, 8, 9, 10, 12}) == "4, 8-10, 12"
