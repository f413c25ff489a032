"""Print the size of each module of ``src/treetrace``.

Usage, from any directory (no options):

    python3 tools/source_size.py

For each module of the package, in file-name order, it prints one line
``name lines nodes``, then ``total lines nodes``.  ``lines`` is the number
of newline characters in the file and ``nodes`` the number of nodes that
``ast.walk`` visits in its parsed tree.  Standard library only.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treetrace"


def module_sizes(package: Path = PACKAGE) -> list:
    """(name, lines, nodes) of each module of ``package``, by file name."""
    sizes = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        nodes = sum(1 for _ in ast.walk(ast.parse(source, str(path))))
        sizes.append((path.stem, source.count("\n"), nodes))
    return sizes


def main():
    sizes = module_sizes()
    for name, lines, nodes in sizes:
        print(name, lines, nodes)
    print("total", sum(s[1] for s in sizes), sum(s[2] for s in sizes))


if __name__ == "__main__":
    main()
