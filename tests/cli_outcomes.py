"""How ``treetrace.cli`` reads a command line, with the standard library
only, so that a Python without pytest runs it too:

    PYTHONPATH=src python tests/cli_outcomes.py < command-lines.json

reads a JSON list of command lines and prints, as JSON, the outcome of
each under ``treetrace.cli._parse_args`` (``parsed_outcome``).
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from treetrace.cli import _UsageError, _parse_args


def parse_outcome(parse, argv):
    """("help",), (2, message) or ("ok", the parsed values)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return "ok", vars(parse(argv))
        except SystemExit as stop:
            if stop.code == 0:
                return ("help",)
            return stop.code, err.getvalue().splitlines()[-1].split(
                "error: ", 1)[1]
        except _UsageError as refused:
            return 2, str(refused)


def parsed_outcome(argv):
    """``parse_outcome`` of ``_parse_args``, the handler left out."""
    got = parse_outcome(_parse_args, argv)
    if got[0] == "ok":
        got[1].pop("func")
    return got


if __name__ == "__main__":
    print(json.dumps([parsed_outcome(argv) for argv in json.load(sys.stdin)]))
