"""List the lines of ``src/treetrace`` that no tier-1 test runs.

Usage, from any directory (no options):

    python3 tools/line_coverage.py

It runs the tier-1 suite in this process with ``pytest.main`` under a
``sys.settrace`` line tracer and prints, per module of the package, the
executable lines that no test ran.  A module's executable lines are those
that ``co_lines()`` of its compiled code, and of every code object nested
in it, gives an instruction.  Hypothesis replaces the tracer while it runs
a test, so the tracer is put back at every test's setup and call.  Lines
that only a subprocess runs (the tests that start ``python -m treetrace``
or another interpreter) are not seen and are listed as unexecuted.
Standard library only, besides pytest, which runs the suite; the full run
takes a minute or two.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treetrace"


def executable_lines(code: types.CodeType) -> set:
    """The source lines of ``code`` and of the code objects nested in it
    that hold an instruction (line 0, a module's start, aside)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


class LineTracer:
    """Records, per file of ``paths``, the lines run while installed."""

    def __init__(self, paths):
        self.hits = {path: set() for path in paths}
        self._local = {path: self._local_tracer(lines)
                       for path, lines in self.hits.items()}

    @staticmethod
    def _local_tracer(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def _call(self, frame, event, arg):
        # A frame of a traced file: its first line, then each line it runs.
        local = self._local.get(frame.f_code.co_filename)
        if local is not None:
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def install(self):
        sys.settrace(self._call)


def line_ranges(lines) -> str:
    """Sorted line numbers as ``3, 7-9, 12``."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


class _Retrace:
    """pytest plugin: put the tracer back before each test's setup and call."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    def pytest_runtest_setup(self, item):
        self.tracer.install()

    def pytest_runtest_call(self, item):
        self.tracer.install()


def main() -> int:
    # Import the package by its absolute path, so that the files the tracer
    # looks for are the code objects' co_filename.
    sys.path.insert(0, str(ROOT / "src"))
    files = sorted(PACKAGE.glob("*.py"))
    tracer = LineTracer([str(path) for path in files])
    tracer.install()
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--rootdir", str(ROOT), str(ROOT)], plugins=[_Retrace(tracer)])
    finally:
        sys.settrace(None)
    print("\nLines of src/treetrace that no test ran in this process "
          "(tests run in a subprocess are not seen):")
    for path in files:
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        lines = executable_lines(code)
        missed = lines - tracer.hits[str(path)]
        print("%-16s %3d of %3d unexecuted%s"
              % (path.name, len(missed), len(lines),
                 ": " + line_ranges(missed) if missed else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
