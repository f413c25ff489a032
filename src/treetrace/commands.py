"""The calculator commands of the command line: ``cocycle``, ``surgery``,
``coinvariants`` and ``trace``, and the knot-document reader.

``cli`` imports this module the first time it runs one of these commands,
so a ``report`` compiles none of it.  Nothing here imports ``cli``:
``python -m treetrace.cli`` runs that module as ``__main__``, and a second
copy would bring its own exception classes.

Each command renders its whole output before it writes any of it, so a
result that cannot be printed leaves stdout empty.  The option and
knot-name patterns are compiled at their first use (``grammar._compiled``),
and ``trace`` expands through ``trees.tree_expand``, which refuses a tree
whose expansion would pair more than 10^6 terms before building any of it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .exact import _fraction, canonical
from .forms import _cocycle_sum, trace_a, trace_b
from .grammar import (
    ParseError,
    _compiled,
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
    SphereInvariants,
    _seifert_matrix,
    _twist_forms,
    casson_surgery,
    d2_value,
    lambda2_surgery,
    vanishing_combo,
)
from .symplectic import _check_labels, coinvariant_reduce
from .trees import tree_expand


def _print(render, *args) -> int:
    """Write the text ``render(*args)`` and a newline, or nothing: the only
    ValueError a renderer raises is an int longer than ``str()`` converts,
    which becomes one line that names the limit."""
    try:
        text = render(*args)
    except ValueError:
        raise ValueError("a result has more than %d digits, the limit of "
                         "int-to-text conversion"
                         % sys.get_int_max_str_digits()) from None
    print(text)
    return 0


def _values_text(values: dict, fmt: str) -> str:
    # Named exact values as ``key = value`` lines or a JSON object.
    if fmt == "json":
        return "{\n%s\n}" % ",\n".join(
            "  %s: %s" % (_quote(k), _quote(str(v)))
            for k, v in values.items()) if values else "{}"
    return "\n".join("%s = %s" % item for item in values.items())


# An option number in ASCII, as the grammar reads them: Fraction() alone
# also reads '١', '1_0', surrounding whitespace and exponents, so
# '1e999999999' would build a billion-digit integer.  And a word that the
# twist grammar refuses at its first character (it does not begin
# "twist"), so meant as the name of a knot.  Each is compiled by
# ``grammar._compiled`` at its first use.
_RATIONAL = r"[+-]?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)"
_KNOT_NAME = r"(?!twist)[A-Za-z0-9][A-Za-z0-9_-]*"
# The longest knot document read, in characters; a knot needs a few hundred.
_DOCUMENT_CHARS = 1 << 20


def _rational(option: str, text: str):
    """An exact rational option value such as ``-5``, ``3/4`` or ``0.5``;
    an int when it is integral (``4/2``, ``2.0``), else a Fraction."""
    try:
        if _compiled(_RATIONAL).fullmatch(text):
            if "/" in text or "." in text:
                return canonical(Fraction(text))
            return int(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("%s expects an exact rational like 3/4, got %r"
                     % (option, text))


def _unknown_knot(text: str, other: str) -> ValueError:
    return ValueError("unknown knot %r: neither a built-in knot (%s) nor %s"
                      % (text, ", ".join(BUILTIN_KNOTS), other))


def _twist_basis(text: str, genus: int, option, lam_text):
    """Resolve a knot name or twist(x; y) spec to (Casson value, basis
    (x, y), its checked Seifert matrix), its indices at most ``genus``.

    The Casson value is the c2 of the basis, unless ``option`` gives one; a
    built-in knot's c2 is its own, so there ``option`` may only repeat it.
    """
    lam = None if lam_text is None else _rational(option, lam_text)
    knot = BUILTIN_KNOTS.get(text)
    if knot is None and _compiled(_KNOT_NAME).fullmatch(text):
        raise _unknown_knot(text, "a twist(x; y) spec")
    x, y = parse_twist(text) if knot is None else knot.bscc_basis
    c2, v = _seifert_matrix(x, y)
    if lam is None:
        lam = c2
    elif knot is not None and lam != c2:
        raise ValueError("%s %s contradicts the Casson value %s of the "
                         "built-in knot %r" % (option, lam, c2, text))
    # ``tau2_bscc_twist``'s check; the grammar makes no other bad label.
    _check_labels((*x._terms, *y._terms), genus)
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
    return _print(_values_text, {"Q": q, "J": j, "C": _fraction(c, 4)},
                  args.format)


def _polynomial(path: str, doc: dict, key: str) -> LaurentPoly:
    """The ``key`` entry of the knot document at ``path``: a list of
    [exponent, coefficient] pairs of JSON integers."""
    pairs = doc.get(key)
    if not (isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(type(n) is int for n in pair) for pair in pairs)):
        raise ValueError("knot document %r: %r must be a list of "
                         "[exponent, coefficient] integer pairs" % (path, key))
    return LaurentPoly(pairs)


def load_knot_document(path: str) -> KnotRecord:
    """Read a knot document: JSON with name, conway/jones pair lists, and an
    optional pair of basis strings for a bounding curve.  A document that
    cannot be read, parsed or held in ``_DOCUMENT_CHARS`` characters, or is
    of the wrong shape, is a ValueError that names it, unless it does not
    exist (FileNotFoundError); one whose polynomials do not fit a knot is a
    ValueError that names the knot."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read(_DOCUMENT_CHARS + 1)
    except FileNotFoundError:
        raise
    except OSError as err:
        raise ValueError("cannot read knot document %r: %s"
                         % (path, err.strerror)) from None
    except UnicodeDecodeError:
        raise ValueError("knot document %r is not UTF-8 text" % path) from None
    if len(text) > _DOCUMENT_CHARS:
        raise ValueError("knot document %r is longer than %d characters"
                         % (path, _DOCUMENT_CHARS))
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("knot document %r is nested too deeply"
                         % path) from None
    except json.JSONDecodeError as err:
        raise ValueError("knot document %r is not JSON: %s"
                         % (path, err)) from None
    except ValueError:
        # Not a syntax error (JSONDecodeError) but int()'s limit on digits.
        raise ValueError("knot document %r has an integer of more than %d "
                         "digits, the limit of text-to-int conversion"
                         % (path, sys.get_int_max_str_digits())) from None
    if not isinstance(doc, dict):
        raise ValueError("knot document %r: must be a JSON object" % path)
    if not isinstance(doc.get("name"), str):
        raise ValueError("knot document %r: 'name' must be a string" % path)
    basis = doc.get("bscc_basis")
    if basis is not None:
        if not (isinstance(basis, list) and len(basis) == 2
                and all(isinstance(text, str) for text in basis)):
            raise ValueError("knot document %r: 'bscc_basis' must be a "
                             "list of two vector strings" % path)
        parsed = []
        for k, text in enumerate(basis):
            try:
                parsed.append(parse_hvec(text))
            except ParseError as err:
                raise ValueError("knot document %r: bscc_basis[%d]: %s"
                                 % (path, k, err)) from None
        basis = tuple(parsed)
    return KnotRecord(
        name=doc["name"],
        conway=_polynomial(path, doc, "conway"),
        jones=_polynomial(path, doc, "jones"),
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
    return _print(_values_text, {
        "lambda": sphere.lam,
        "lambda2": sphere.lam2,
        "d2": d2_value(sphere),
        "vanishing_combo": vanishing_combo(sphere),
    }, args.format)


def _cmd_coinvariants(args) -> int:
    tensor = parse_tensor(args.tensor)
    return _print(format_tensor, coinvariant_reduce(tensor, args.genus))


def _cmd_trace(args) -> int:
    if args.genus < 1:
        raise ValueError("trace needs genus >= 1, got genus %d" % args.genus)
    t = parse_tree(args.tree)
    _check_labels([k for leg in t for k in leg._terms], args.genus, "tree")
    trace = trace_a if args.side == "A" else trace_b
    return _print(format_tensor, trace(tree_expand(t)))
