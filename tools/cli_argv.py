"""Record the command lines the tier-1 suite passes to ``treetrace.cli.main``.

Usage, from any directory:

    python3 tools/cli_argv.py OUT.json

It runs the tier-1 suite in this process with ``pytest.main`` (Hypothesis
seed 0) under a plugin that, at ``pytest_configure``, replaces
``treetrace.cli.main`` by a recording wrapper.  The test modules are
imported after that, so their ``from treetrace.cli import main`` binds the
wrapper.  OUT.json gets a JSON list of each distinct argv list once, in
first-call order.  Pytest's ``--basetemp`` is OUT.json with the suffix
``.tmp``; pytest empties it first and it is kept afterwards, so the knot
documents that tests write still exist, as the tests left them, when the
list is replayed.  Replay the list on each tree and compare the two
outputs byte for byte:

    PYTHONPATH=<tree>/src python tests/cli_outcomes.py run < OUT.json

Only calls in this process are recorded: the tests that run
``python -m treetrace`` or another Python call ``main`` in a subprocess,
which the wrapper does not see.  Standard library only, besides pytest,
which runs the suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def recording(main, argvs: dict):
    """``main`` wrapped to add each argv list it is called with, as a tuple,
    to the keys of ``argvs`` (a dict keeps first-call order)."""
    def wrapper(argv=None):
        argvs.setdefault(tuple(sys.argv[1:] if argv is None else argv))
        return main(argv)

    wrapper.__wrapped__ = main
    return wrapper


class _Record:
    """pytest plugin: wrap ``treetrace.cli.main`` before any test module
    is imported."""

    def __init__(self, argvs: dict):
        self.argvs = argvs

    def pytest_configure(self, config):
        import treetrace.cli

        treetrace.cli.main = recording(treetrace.cli.main, self.argvs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    out = parser.parse_args().out.resolve()
    sys.path.insert(0, str(ROOT / "src"))
    argvs = {}
    status = pytest.main(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--hypothesis-seed=0", "--basetemp", str(out.with_suffix(".tmp")),
         "--rootdir", str(ROOT), str(ROOT)], plugins=[_Record(argvs)])
    out.write_text(json.dumps([list(argv) for argv in argvs]) + "\n",
                   encoding="utf-8")
    print("%d distinct command lines written to %s" % (len(argvs), out))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
