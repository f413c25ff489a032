"""Command-line surface: replication report, cocycle values, surgery, traces.

Exit codes: 0 on success (for ``report``: every check passed), 1 when a
report check fails, 2 on usage, parse, or validation errors.  All numbers
are printed as exact rationals ``p/q`` (or ``p``), never as decimals.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .forms import cocycle_values, trace_a, trace_b
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
    bounding_casson,
    casson_surgery,
    d2_value,
    jones_h_derivative,
    lambda2_surgery,
    solve_alpha_r,
    surgery_cocycle_value,
    vanishing_combo,
)
from .symplectic import DEFAULT_GENUS, coinvariant_reduce, max_index
from .trees import tau2_bscc_twist, tree_expand


@dataclass
class CheckResult:
    name: str
    expected: str
    computed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass
class ReplicationReport:
    genus: int
    checks: list = field(default_factory=list)

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
        lam, tau = _twist_argument(name, genus)
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

    report.add("c4_trefoil", 0, BUILTIN_KNOTS["trefoil"].conway.coefficient(4))
    report.add("c4_figure_eight", 0,
               BUILTIN_KNOTS["figure-eight"].conway.coefficient(4))
    report.add("v2_trefoil", -6,
               jones_h_derivative(BUILTIN_KNOTS["trefoil"].jones, 2))
    report.add("v2_figure_eight", 6,
               jones_h_derivative(BUILTIN_KNOTS["figure-eight"].jones, 2))
    report.add("casson_trefoil_surgery", 1,
               casson_surgery(BUILTIN_KNOTS["trefoil"], 1))
    report.add("casson_figure_eight_surgery", -1,
               casson_surgery(BUILTIN_KNOTS["figure-eight"], 1))
    report.add("lambda2_trefoil_surgery", POINCARE.lam2,
               lambda2_surgery(BUILTIN_KNOTS["trefoil"], 1))
    report.add("poincare_obstruction", 24, vanishing_combo(POINCARE))
    return report


def _emit_report(report: ReplicationReport, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2))
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
        print(json.dumps({k: str(v) for k, v in values.items()}, indent=2))
    else:
        for key, value in values.items():
            print("%s = %s" % (key, value))
    return 0


# Option numbers in ASCII, as the grammar reads them: int() and Fraction()
# alone also read '١', '1_0' and surrounding whitespace, and Fraction()
# reads exponents, so '1e999999999' would build a billion-digit integer.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def _integer(text: str) -> int:
    """An integer option value: an optional sign, then digits."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _rational(option: str, text: str) -> Fraction:
    """An exact rational option value such as ``-5``, ``3/4`` or ``0.5``."""
    try:
        if _RATIONAL.fullmatch(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("%s expects an exact rational like 3/4, got %r"
                     % (option, text))


def _twist_argument(text: str, genus: int, option=None, lam_text=None):
    """Resolve a knot name or twist(x; y) spec to its basis (x, y), and
    that to (Casson value, tree image).

    The Casson value is the c2 of the basis, unless ``option`` gives one; a
    built-in knot's c2 is its own, so there ``option`` may only repeat it.
    """
    lam = None if lam_text is None else _rational(option, lam_text)
    knot = BUILTIN_KNOTS.get(text)
    x, y = parse_twist(text) if knot is None else knot.bscc_basis
    c2 = bounding_casson(x, y)
    if lam is None:
        lam = c2
    elif knot is not None and lam != c2:
        raise ValueError("%s %s contradicts the Casson value %s of the "
                         "built-in knot %r" % (option, lam, c2, text))
    return lam, tau2_bscc_twist(x, y, genus)


def _cmd_cocycle(args) -> int:
    lam_x, tau_x = _twist_argument(args.x, args.genus,
                                   "--lambda-x", args.lambda_x)
    lam_y, tau_y = _twist_argument(args.y, args.genus,
                                   "--lambda-y", args.lambda_y)
    q, j, _, c = cocycle_values(lam_x, tau_x, lam_y, tau_y)
    return _print_values({"Q": q, "J": j, "C": c}, args.format)


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
    wrong shape, or whose polynomials do not fit a knot, is a ValueError."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
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
    if args.knot in BUILTIN_KNOTS:
        knot = BUILTIN_KNOTS[args.knot]
    else:
        knot = load_knot_document(args.knot)
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
    t = parse_tree(args.tree)
    top = max(max_index(x) for x in t)
    if top > args.genus:
        raise ValueError("tree uses index %d beyond genus %d" % (top, args.genus))
    expanded = tree_expand(t)
    traced = trace_a(expanded) if args.side == "A" else trace_b(expanded)
    print(format_tensor(traced))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetrace",
        description="Exact symplectic tree-algebra and surgery-invariant calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="run all replication checks; exit 0 iff all pass")
    p_report.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.set_defaults(func=_cmd_report)

    p_cocycle = sub.add_parser(
        "cocycle", help="Q, J and full cocycle of two twists or knots")
    p_cocycle.add_argument("x", help="knot name or twist(x; y) spec")
    p_cocycle.add_argument("y", help="knot name or twist(x; y) spec")
    p_cocycle.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_cocycle.add_argument("--lambda-x",
                           help="Casson value for a twist-spec first "
                                "argument (default: c2 of its basis; a "
                                "built-in knot accepts only its own)")
    p_cocycle.add_argument("--lambda-y",
                           help="Casson value for a twist-spec second "
                                "argument (default: c2 of its basis; a "
                                "built-in knot accepts only its own)")
    p_cocycle.add_argument("--format", choices=("text", "json"), default="text")
    p_cocycle.set_defaults(func=_cmd_cocycle)

    p_surgery = sub.add_parser(
        "surgery", help="invariants of the sphere from 1/n surgery on a knot")
    p_surgery.add_argument("knot", help="built-in knot name or JSON document path")
    p_surgery.add_argument("n", type=_integer)
    p_surgery.add_argument("--format", choices=("text", "json"), default="text")
    p_surgery.set_defaults(func=_cmd_surgery)

    p_coinv = sub.add_parser(
        "coinvariants", help="reduce a tensor to chord generators")
    p_coinv.add_argument("tensor", help="tensor expression like a1*b1*a2*b2")
    p_coinv.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_coinv.set_defaults(func=_cmd_coinvariants)

    p_trace = sub.add_parser(
        "trace", help="Lagrangian trace of a tree")
    p_trace.add_argument("tree", help="tree expression T(x1, x2; x3, x4)")
    p_trace.add_argument("--side", choices=("A", "B"), default="A")
    p_trace.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
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
