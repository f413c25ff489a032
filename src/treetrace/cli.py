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
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import NamedTuple

from .exact import _fraction, canonical
from .forms import _cocycle_sum, cocycle_values, trace_a, trace_b
from .grammar import (
    ParseError,
    format_tensor,
    parse_hvec,
    parse_tensor,
    parse_tree,
    parse_twist,
)
from .surgery import (
    BUILTIN_KNOTS,
    KnotRecord,
    LaurentPoly,
    POINCARE,
    SphereInvariants,
    _seifert_matrix,
    _twist_forms,
    casson_surgery,
    d2_value,
    jones_h_derivative,
    lambda2_surgery,
    solve_alpha_r,
    surgery_cocycle_value,
    vanishing_combo,
)
from .symplectic import DEFAULT_GENUS, coinvariant_reduce, max_index
from .trees import _check_basis, tau2_bscc_twist, tree_expand


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
        lam, basis, _ = _twist_basis(name, genus)
        tau = tau2_bscc_twist(*basis, genus)
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
        for check in report.checks:
            if check.passed:
                print("PASS %s: %s" % (check.name, check.computed))
            else:
                print("FAIL %s: expected %s, computed %s"
                      % (check.name, check.expected, check.computed))
        print("overall: %s" % ("PASS" if report.overall_pass else "FAIL"))
    return 0 if report.overall_pass else 1


def _cmd_report(args) -> int:
    return _emit_report(build_report(args.genus), args.format)


def _print_values(values: dict, fmt: str) -> int:
    """Print named exact values as ``key = value`` lines or a JSON object."""
    if fmt == "json":
        print("{\n%s\n}" % ",\n".join(
            "  %s: %s" % (_quote(k), _quote(str(v)))
            for k, v in values.items()) if values else "{}")
    else:
        for key, value in values.items():
            print("%s = %s" % (key, value))
    return 0


# Option numbers in ASCII, as the grammar reads them: int() and Fraction()
# alone also read '١', '1_0' and surrounding whitespace, and Fraction()
# reads exponents, so '1e999999999' would build a billion-digit integer.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


class _UsageError(Exception):
    """A command line that ``_COMMANDS`` does not accept."""


def _integer(text: str) -> int:
    """An integer option value: an optional sign, then digits."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise _UsageError("invalid int value: %r" % text)


def _choice(*choices):
    """A converter that accepts exactly the strings ``choices``."""
    def convert(text: str) -> str:
        if text in choices:
            return text
        raise _UsageError("invalid choice: %r (choose from %s)"
                          % (text, ", ".join(map(repr, choices))))
    return convert


def _rational(option: str, text: str):
    """An exact rational option value such as ``-5``, ``3/4`` or ``0.5``;
    an int when it is integral (``4/2``, ``2.0``), else a Fraction."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
        if _RATIONAL.fullmatch(text):
            return canonical(Fraction(text))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("%s expects an exact rational like 3/4, got %r"
                     % (option, text))


# A word that the twist grammar refuses at its first character (it does not
# begin "twist"), so meant as the name of a knot.
_KNOT_NAME = re.compile(r"(?!twist)[A-Za-z0-9][A-Za-z0-9_-]*")


def _unknown_knot(text: str, other: str) -> ValueError:
    return ValueError("unknown knot %r: neither a built-in knot (%s) nor %s"
                      % (text, ", ".join(BUILTIN_KNOTS), other))


def _twist_basis(text: str, genus: int, option=None, lam_text=None):
    """Resolve a knot name or twist(x; y) spec to (Casson value, basis
    (x, y), its checked Seifert matrix), its indices at most ``genus``.

    The Casson value is the c2 of the basis, unless ``option`` gives one; a
    built-in knot's c2 is its own, so there ``option`` may only repeat it.
    """
    lam = None if lam_text is None else _rational(option, lam_text)
    knot = BUILTIN_KNOTS.get(text)
    if knot is None and _KNOT_NAME.fullmatch(text):
        raise _unknown_knot(text, "a twist(x; y) spec")
    x, y = parse_twist(text) if knot is None else knot.bscc_basis
    c2, v = _seifert_matrix(x, y)
    if lam is None:
        lam = c2
    elif knot is not None and lam != c2:
        raise ValueError("%s %s contradicts the Casson value %s of the "
                         "built-in knot %r" % (option, lam, c2, text))
    # ``tau2_bscc_twist``'s check; the grammar makes no other bad label.
    _check_basis(x, y, genus)
    return lam, (x, y), v


def _cmd_cocycle(args) -> int:
    # Q and J by ``surgery.twist_forms``'s closed form, from the Seifert
    # matrices that ``_twist_basis`` read and checked: no tree image.
    if args.genus < 1:
        raise ValueError("cocycle needs genus >= 1, got genus %d" % args.genus)
    lam_x, basis_x, v_x = _twist_basis(args.x, args.genus,
                                       "--lambda-x", args.lambda_x)
    lam_y, basis_y, v_y = _twist_basis(args.y, args.genus,
                                       "--lambda-y", args.lambda_y)
    q, j = _twist_forms(basis_x, v_x, basis_y, v_y)
    c = _cocycle_sum(lam_x, lam_y, q, 2 * j)[1]
    return _print_values({"Q": q, "J": j, "C": _fraction(c, 4)}, args.format)


def _polynomial(doc: dict, key: str) -> LaurentPoly:
    """A knot document's ``key`` entry: a list of [exponent, coefficient]
    pairs of JSON integers."""
    pairs = doc.get(key)
    if not (isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(type(n) is int for n in pair) for pair in pairs)):
        raise ValueError("knot document: %r must be a list of "
                         "[exponent, coefficient] integer pairs" % key)
    return LaurentPoly(pairs)


def load_knot_document(path: str) -> KnotRecord:
    """Read a knot document: JSON with name, conway/jones pair lists, and an
    optional pair of basis strings for a bounding curve.  A document of the
    wrong shape, or whose polynomials do not fit a knot, is a ValueError;
    so is one that cannot be read, unless it does not exist
    (FileNotFoundError)."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise
    except OSError as err:
        raise ValueError("cannot read knot document %r: %s"
                         % (path, err.strerror)) from None
    except UnicodeDecodeError:
        raise ValueError("knot document %r is not UTF-8 text" % path) from None
    except RecursionError:
        raise ValueError("knot document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("knot document must be a JSON object")
    if not isinstance(doc.get("name"), str):
        raise ValueError("knot document: 'name' must be a string")
    basis = doc.get("bscc_basis")
    if basis is not None:
        if not (isinstance(basis, list) and len(basis) == 2
                and all(isinstance(text, str) for text in basis)):
            raise ValueError("knot document: 'bscc_basis' must be a list "
                             "of two vector strings")
        basis = tuple(map(parse_hvec, basis))
    return KnotRecord(
        name=doc["name"],
        conway=_polynomial(doc, "conway"),
        jones=_polynomial(doc, "jones"),
        bscc_basis=basis,
    )


def _cmd_surgery(args) -> int:
    knot = BUILTIN_KNOTS.get(args.knot)
    if knot is None:
        try:
            knot = load_knot_document(args.knot)
        except FileNotFoundError:
            raise _unknown_knot(args.knot, "an existing knot document") from None
    sphere = SphereInvariants(casson_surgery(knot, args.n),
                              lambda2_surgery(knot, args.n))
    return _print_values({
        "lambda": sphere.lam,
        "lambda2": sphere.lam2,
        "d2": d2_value(sphere),
        "vanishing_combo": vanishing_combo(sphere),
    }, args.format)


def _cmd_coinvariants(args) -> int:
    tensor = parse_tensor(args.tensor)
    reduced = coinvariant_reduce(tensor, args.genus)
    print(format_tensor(reduced))
    return 0


def _cmd_trace(args) -> int:
    if args.genus < 1:
        raise ValueError("trace needs genus >= 1, got genus %d" % args.genus)
    t = parse_tree(args.tree)
    top = max(max_index(x) for x in t)
    if top > args.genus:
        raise ValueError("tree uses index %d beyond genus %d" % (top, args.genus))
    expanded = tree_expand(t)
    traced = trace_a(expanded) if args.side == "A" else trace_b(expanded)
    print(format_tensor(traced))
    return 0


# The command line, read by argparse's rules.  Each command: handler, help,
# positionals as (dest, converter, help) and options as (flag, converter,
# default, help); an option's dest is its flag without dashes, "-" as "_".
_GENUS = ("--genus", _integer, DEFAULT_GENUS,
          "surface genus (default %d)" % DEFAULT_GENUS)
_FORMAT = ("--format", _choice("text", "json"), "text", "text or json")
_SPEC = "knot name or twist(x; y) spec"
_LAMBDA = ("Casson value for a twist-spec %s argument (default: c2 of its "
           "basis; a built-in knot accepts only its own)")
_COMMANDS = {
    "report": (_cmd_report, "run all replication checks; exit 0 iff all pass",
               (), (_GENUS, _FORMAT)),
    "cocycle": (_cmd_cocycle, "Q, J and full cocycle of two twists or knots",
                (("x", str, _SPEC), ("y", str, _SPEC)),
                (_GENUS, ("--lambda-x", str, None, _LAMBDA % "first"),
                 ("--lambda-y", str, None, _LAMBDA % "second"), _FORMAT)),
    "surgery": (_cmd_surgery,
                "invariants of the sphere from 1/n surgery on a knot",
                (("knot", str, "built-in knot name or JSON document path"),
                 ("n", _integer, "surgery coefficient 1/n")),
                (_FORMAT,)),
    "coinvariants": (_cmd_coinvariants, "reduce a tensor to chord generators",
                     (("tensor", str, "tensor expression like a1*b1*a2*b2"),),
                     (_GENUS,)),
    "trace": (_cmd_trace, "Lagrangian trace of a tree",
              (("tree", str, "tree expression T(x1, x2; x3, x4)"),),
              (("--side", _choice("A", "B"), "A", "A or B"), _GENUS)),
}
_HELP = ("-h", "--help")
# Per command: its flags (with -h/--help), and its dests with defaults.
_TABLES = {command: (
    dict.fromkeys(_HELP) | {option[0]: option for option in options},
    dict.fromkeys(dest for dest, _, _ in positionals) | {
        f[2:].replace("-", "_"): default for f, _, default, _ in options})
    for command, (_, _, positionals, options) in _COMMANDS.items()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _help(command, explicit):
    """Print the help of ``command`` (None: of the program) and exit 0."""
    if explicit is not None:
        raise _UsageError("argument -h/--help: ignored explicit argument %r"
                          % explicit)
    if command is None:
        usage = "[-h] command ..."
        about = ("Exact symplectic tree-algebra and surgery-invariant "
                 "calculator.")
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, about, positionals, options = _COMMANDS[command]
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
            return None if _NEGATIVE_NUMBER(token) or " " in token else (
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
    handler, _, positionals, _ = _COMMANDS[command]
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
    return SimpleNamespace(command=command, func=handler, **values)


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
