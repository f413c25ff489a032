"""The module sizes printed by ``tools/source_size.py``."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "source_size.py"
_spec = importlib.util.spec_from_file_location("source_size", TOOL)
source_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_size)


def test_printed_sizes_are_the_newline_and_ast_walk_counts(capsys):
    want = []
    for path in sorted((ROOT / "src" / "treetrace").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        want.append((path.stem, len(text.splitlines()),
                     len(list(ast.walk(ast.parse(text))))))
    assert [name for name, _, _ in want][:2] == ["__init__", "__main__"]
    source_size.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines == (["%s %d %d" % row for row in want]
                     + ["total %d %d" % (sum(r[1] for r in want),
                                         sum(r[2] for r in want))])
