"""The README's examples run as tests, so they cannot drift: the library
example as a doctest, the command-line examples through ``cli.main`` and
the knot document through ``load_knot_document``."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from treetrace.cli import load_knot_document, main
from treetrace.surgery import TREFOIL

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language):
    """The first ``language`` code block after the ``heading`` line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## %s\n" % heading):]
    return re.search(r"```%s\n(.*?)```" % language, section, re.S).group(1)


# "treetrace <args>  # <output lines joined by ', '>", except the example
# that reads a knot document the repository does not hold.
CLI_EXAMPLES = [
    line.split("#", 1) for line in readme_block("Command line", "sh")
    .splitlines()
    if line.startswith("treetrace ") and "#" in line
    and "my_knot.json" not in line
]


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_has_the_command_line_examples():
    assert len(CLI_EXAMPLES) == 4


@pytest.mark.parametrize("command, output", CLI_EXAMPLES,
                         ids=[command.split()[1] for command, _ in CLI_EXAMPLES])
def test_readme_command_line_example(command, output, capsys):
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr()
    assert ", ".join(printed.out.splitlines()) == output.strip()
    assert printed.err == ""


def test_readme_knot_document_is_the_trefoil(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(readme_block("Command line", "json"), encoding="utf-8")
    assert load_knot_document(str(path)) == TREFOIL
