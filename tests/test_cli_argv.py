"""The recording wrapper of ``tools/cli_argv.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_argv.py"
_spec = importlib.util.spec_from_file_location("cli_argv", TOOL)
cli_argv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_argv)


def test_the_wrapper_records_each_argv_once_and_returns_mains_value():
    calls = []

    def main(argv=None):
        calls.append(argv)
        return len(calls)

    argvs = {}
    wrapped = cli_argv.recording(main, argvs)
    assert wrapped(["report", "--genus", "5"]) == 1
    assert wrapped(["-h"]) == 2
    assert wrapped(["report", "--genus", "5"]) == 3
    assert list(argvs) == [("report", "--genus", "5"), ("-h",)]
    assert calls == [["report", "--genus", "5"], ["-h"],
                     ["report", "--genus", "5"]]
    assert wrapped.__wrapped__ is main
