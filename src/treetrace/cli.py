"""Command-line surface: replication report, cocycle values, surgery, traces.

Exit codes: 0 on success (for ``report``: every check passed), 1 when a
report check fails, 2 on usage, parse, or validation errors, each printed
as one line on stderr.  All numbers are printed as exact rationals ``p/q``
(or ``p``), never as decimals.

The command line is read against the table ``_COMMANDS`` by the rules and
with the messages of Python 3.11's argparse (later releases changed parts
of their handling of ``--`` and of single-dash options), without importing
argparse (whose import and first message lookup, which loads ``gettext``
and ``locale``, took longer than a whole ``report``); ``-h/--help`` prints
help built from the table.

This module holds the parser, the help and ``report``.  The calculator
commands (``cocycle``, ``surgery``, ``coinvariants``, ``trace``) live in
``commands``, which is imported the first time one of them runs, so that a
``report`` process compiles none of their code.  A report compiles no
regex: option numbers are read by ``str`` checks, and each pattern is
compiled at its first use (``grammar._compiled``).
"""

from __future__ import annotations

import sys
from functools import cache as _cache
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import NamedTuple

from .forms import cocycle_values
from .grammar import ParseError
from .surgery import (
    BUILTIN_KNOTS,
    POINCARE,
    casson_surgery,
    jones_h_derivative,
    lambda2_surgery,
    solve_alpha_r,
    surgery_cocycle_value,
    vanishing_combo,
)
from .symplectic import DEFAULT_GENUS
from .trees import tau2_bscc_twist


class CheckResult(NamedTuple):
    name: str
    expected: str
    computed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


class ReplicationReport:
    def __init__(self, genus: int):
        self.genus = genus
        self.checks = []

    def add(self, name: str, expected, computed):
        self.checks.append(CheckResult(name, str(expected), str(computed)))

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "overall_pass": self.overall_pass,
            "checks": [
                {"name": c.name, "expected": c.expected,
                 "computed": c.computed, "pass": c.passed}
                for c in self.checks
            ],
        }


# Paper values on each built-in knot's bounding twist: Q, J, B = 3J + 3/4 Q
# and the cocycle C = 36 lambda^2 + B, which the surgery difference
# lambda2(1/2) - 2 lambda2(1/1) must equal.
_TWIST_VALUES = {
    "trefoil": {"q": 48, "j": 12, "b": 72, "c": 108},
    "figure-eight": {"q": 80, "j": 12, "b": 96, "c": 132},
}


def build_report(genus: int = DEFAULT_GENUS) -> ReplicationReport:
    """Run every built-in replication check at the given genus."""
    if genus < DEFAULT_GENUS:
        raise ValueError("report needs genus >= %d" % DEFAULT_GENUS)
    report = ReplicationReport(genus)

    # One row j*r1 + q*r2 = B per knot, B taken from the surgery side.
    equations, rows = [], []
    for name, knot in BUILTIN_KNOTS.items():
        want = _TWIST_VALUES[name]
        slug = name.replace("-", "_")
        lam = knot.conway.coeff(2)  # = det V, as ``KnotRecord`` checked
        tau = tau2_bscc_twist(*knot.bscc_basis, genus)
        q, j, b, c = cocycle_values(lam, tau, lam, tau)
        surgery = surgery_cocycle_value(knot)
        # The surgery side less the Casson part c - b of the cocycle.
        tree_part = surgery - (c - b)
        report.add("q_%s" % slug, want["q"], q)
        report.add("j_%s" % slug, want["j"], j)
        report.add("b_%s" % slug, want["b"], b)
        report.add("cocycle_%s" % slug, want["c"], c)
        report.add("surgery_difference_%s" % slug, want["c"], surgery)
        report.add("cross_route_%s" % slug, tree_part, b)
        equations.append((
            "coefficient_equation_%s" % slug,
            "%s*r1 + %s*r2 = %s" % (want["j"], want["q"], want["b"]),
            "%s*r1 + %s*r2 = %s" % (j, q, tree_part)))
        rows.append((j, q, tree_part))

    for check in equations:
        report.add(*check)
    # Cramer's rule; the rows hold Fractions, so r1 and r2 stay exact.
    (j1, q1, b1), (j2, q2, b2) = rows
    det = j1 * q2 - j2 * q1
    coefficients = "not unique"
    if det:
        coefficients = "(%s, %s)" % ((b1 * q2 - b2 * q1) / det,
                                     (j1 * b2 - j2 * b1) / det)
    report.add("cocycle_coefficients", "(3, 3/4)", coefficients)
    report.add("alpha_r", "(18, -3)", "(%s, %s)" % solve_alpha_r())

    trefoil, eight = BUILTIN_KNOTS["trefoil"], BUILTIN_KNOTS["figure-eight"]
    report.add("c4_trefoil", 0, trefoil.conway.coeff(4))
    report.add("c4_figure_eight", 0, eight.conway.coeff(4))
    report.add("v2_trefoil", -6, jones_h_derivative(trefoil.jones, 2))
    report.add("v2_figure_eight", 6, jones_h_derivative(eight.jones, 2))
    report.add("casson_trefoil_surgery", 1, casson_surgery(trefoil, 1))
    report.add("casson_figure_eight_surgery", -1, casson_surgery(eight, 1))
    report.add("lambda2_trefoil_surgery", POINCARE.lam2,
               lambda2_surgery(trefoil, 1))
    report.add("poincare_obstruction", 24, vanishing_combo(POINCARE))
    return report


# ``json.dumps(..., indent=2)``'s text, without its pure-Python encoder.
_CHECK_JSON = ('    {\n      "name": %s,\n      "expected": %s,\n'
               '      "computed": %s,\n      "pass": %s\n    }')


def _emit_report(report: ReplicationReport, fmt: str) -> int:
    if fmt == "json":
        rows = ",\n".join(_CHECK_JSON % (
            _quote(c.name), _quote(c.expected), _quote(c.computed),
            "true" if c.passed else "false") for c in report.checks)
        print('{\n  "genus": %d,\n  "overall_pass": %s,\n  "checks": %s\n}'
              % (report.genus, "true" if report.overall_pass else "false",
                 "[\n%s\n  ]" % rows if rows else "[]"))
    else:
        lines = ["PASS %s: %s" % (c.name, c.computed) if c.passed
                 else "FAIL %s: expected %s, computed %s"
                 % (c.name, c.expected, c.computed) for c in report.checks]
        lines.append("overall: %s"
                     % ("PASS" if report.overall_pass else "FAIL"))
        print("\n".join(lines))
    return 0 if report.overall_pass else 1


def _cmd_report(args) -> int:
    return _emit_report(build_report(args.genus), args.format)


@_cache
def _handler(command: str):
    # The calculator commands' handlers live in ``commands`` (module doc).
    if command == "report":
        return _cmd_report
    from . import commands
    return getattr(commands, "_cmd_" + command)


class _UsageError(Exception):
    """A command line that ``_COMMANDS`` does not accept."""


def _integer(text: str) -> int:
    """An integer option value: an optional sign, then ASCII digits (int()
    alone also reads '١', '1_0' and surrounding whitespace)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise _UsageError("invalid int value: %r" % text)


def _negative_number(token: str) -> bool:
    """Whether argparse reads ``token`` as a negative number: '-', then
    decimal digits with at most one '.' that digits follow, then at most
    one line break (its pattern ``^-\\d+$|^-\\d*\\.\\d+$``)."""
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if not dot:                     # '-5' reads as '-.5' does
        whole, fraction = "", whole
    return (token[:1] == "-" and fraction.isdecimal()
            and (not whole or whole.isdecimal()))


def _choice(*choices):
    """A converter that accepts exactly the strings ``choices``."""
    def convert(text: str) -> str:
        if text in choices:
            return text
        raise _UsageError("invalid choice: %r (choose from %s)"
                          % (text, ", ".join(map(repr, choices))))
    return convert


# The command line, read by argparse's rules.  Each command: help,
# positionals as (dest, converter, help) and options as (flag, converter,
# default, help); an option's dest is its flag without dashes, "-" as "_".
_GENUS = ("--genus", _integer, DEFAULT_GENUS,
          "surface genus (default %d)" % DEFAULT_GENUS)
_FORMAT = ("--format", _choice("text", "json"), "text", "text or json")
_SPEC = "knot name or twist(x; y) spec"
_LAMBDA = ("Casson value for a twist-spec %s argument (default: c2 of its "
           "basis; a built-in knot accepts only its own)")
_COMMANDS = {
    "report": ("run all replication checks; exit 0 iff all pass",
               (), (_GENUS, _FORMAT)),
    "cocycle": ("Q, J and full cocycle of two twists or knots",
                (("x", str, _SPEC), ("y", str, _SPEC)),
                (_GENUS, ("--lambda-x", str, None, _LAMBDA % "first"),
                 ("--lambda-y", str, None, _LAMBDA % "second"), _FORMAT)),
    "surgery": ("invariants of the sphere from 1/n surgery on a knot",
                (("knot", str, "built-in knot name or JSON document path"),
                 ("n", _integer, "surgery coefficient 1/n")),
                (_FORMAT,)),
    "coinvariants": ("reduce a tensor to chord generators",
                     (("tensor", str, "tensor expression like a1*b1*a2*b2"),),
                     (_GENUS,)),
    "trace": ("Lagrangian trace of a tree",
              (("tree", str, "tree expression T(x1, x2; x3, x4)"),),
              (("--side", _choice("A", "B"), "A", "A or B"), _GENUS)),
}
_HELP = ("-h", "--help")
# Per command: its flags (with -h/--help), and its dests with defaults.
_TABLES = {command: (
    dict.fromkeys(_HELP) | {option[0]: option for option in options},
    dict.fromkeys(dest for dest, _, _ in positionals) | {
        f[2:].replace("-", "_"): default for f, _, default, _ in options})
    for command, (_, positionals, options) in _COMMANDS.items()}


def _help(command, explicit):
    """Print the help of ``command`` (None: of the program) and exit 0."""
    if explicit is not None:
        raise _UsageError("argument -h/--help: ignored explicit argument %r"
                          % explicit)
    if command is None:
        usage = "[-h] command ..."
        about = ("Exact symplectic tree-algebra and surgery-invariant "
                 "calculator.")
        rows = [(name, spec[0]) for name, spec in _COMMANDS.items()]
    else:
        about, positionals, options = _COMMANDS[command]
        usage = " ".join((command, "[-h] [options]",
                          *(dest for dest, _, _ in positionals)))
        rows = [(dest, text) for dest, _, text in positionals] + [
            (flag + " " + flag[2:].upper(), text)
            for flag, _, _, text in options]
    print("usage: treetrace %s\n\n%s\n" % (usage, about))
    for row in rows + [("-h, --help", "show this help and exit")]:
        print("  %-22s%s" % row)
    raise SystemExit(0)


def _option(token: str, flags):
    """argparse's reading of a token before "--": None for a positional,
    else (flag, the value joined to it or None), flag None if unknown."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, explicit = token.partition("=")
    if token in flags:
        name, explicit = token, None
    elif not (eq and name in flags):
        if token[1] != "-":         # -h is the one short flag
            name, explicit = token[:2], token[2:]
            matches = [name] if name == "-h" else []
        else:                       # a unique prefix of a long flag
            matches = [flag for flag in flags if flag.startswith(name)]
            explicit = explicit if eq else None
        if len(matches) > 1:
            raise _UsageError("ambiguous option: %s could match %s"
                              % (token, ", ".join(matches)))
        if not matches:
            return None if _negative_number(token) or " " in token else (
                None, None)
        name = matches[0]
    if name == "-h" and explicit:   # argparse reads -hh as -h twice
        explicit = explicit.lstrip("h") or None
    return name, explicit


def _parse_args(argv: list) -> SimpleNamespace:
    """Parse a command line by argparse's rules, or raise ``_UsageError``
    with its message; ``-h/--help`` prints help and raises SystemExit(0).

    Options may come before or after positionals, the last of a repeated
    option counts, and every token after the first "--" is a positional.
    """
    extras, k = [], 0
    while k < len(argv) and argv[k] != "--":
        kind = _option(argv[k], _HELP)
        if kind is None:
            break
        if kind[0]:
            _help(None, kind[1])
        extras.append(argv[k])
        k += 1
    # The command is the first positional, or a "--" that has one after it.
    if argv[k:] in ([], ["--"]):
        raise _UsageError("the following arguments are required: command")
    command, argv = argv[k], argv[k + 1:]
    if command not in _COMMANDS:
        raise _UsageError("argument command: invalid choice: %r (choose from "
                          "%s)" % (command, ", ".join(map(repr, _COMMANDS))))
    positionals = _COMMANDS[command][1]
    flags, defaults = _TABLES[command]
    cut = argv.index("--") if "--" in argv else len(argv)
    # Per token: None a positional, "-" the first "--", else _option's pair.
    kinds = [_option(token, flags) for token in argv[:cut]] + ["-"] + [
        None] * len(argv)
    values = dict(defaults)
    pending = list(positionals)
    taken, lead = None, False   # the last token a positional took
    i = 0
    while i < len(argv):
        token, kind = argv[i], kinds[i]
        i += 1
        if kind == "-":
            # The first "--" goes with the positional that took the token
            # before it, else with the next one (with none left to take a
            # token, that is a missing-positional error).
            lead = taken != i - 2 and len(pending) > 0
            if not (lead or taken == i - 2):
                extras.append(token)
            continue
        if kind is None:
            if not pending:
                extras.append(token)
                continue
            dest, convert, _ = pending.pop(0)
            # A later "--" alone is no value: argparse drops it.
            name, text = dest, None if token == "--" and not lead else token
            taken, lead = i - 1, False
        else:
            name, text = kind
            if name is None:
                extras.append(token)
                continue
            if name in _HELP:
                _help(command, text)
            if text is None:
                if i == len(argv) or kinds[i] is not None:
                    raise _UsageError("argument %s: expected one argument"
                                      % name)
                text = argv[i]
                i += 1
            dest, convert = name[2:].replace("-", "_"), flags[name][1]
            text = None if text == "--" else text
        # A None text stays [name] until the end, as argparse's empty list,
        # so that a repeated option can still replace it.
        try:
            values[dest] = [name] if text is None else convert(text)
        except _UsageError as err:
            raise _UsageError("argument %s: %s" % (name, err)) from None
    if pending:
        raise _UsageError("the following arguments are required: %s"
                          % ", ".join(dest for dest, _, _ in pending))
    if extras:
        raise _UsageError("unrecognized arguments: %s" % " ".join(extras))
    for value in values.values():
        if type(value) is list:
            raise _UsageError("argument %s: expected one argument" % value[0])
    return SimpleNamespace(command=command, func=_handler(command), **values)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as err:
        # One line, even where a token holds a line break.
        print("error:", *str(err).splitlines(), file=sys.stderr)
        raise SystemExit(2) from None
    try:
        return args.func(args)
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
