"""Text grammar for vectors, trees, twists, and basic tensors.

    HVec   := [sign] term (('+'|'-') term)*
    term   := [coeff '*']? label
    label  := ('a'|'b') digits          (no space between letter and digits)
    coeff  := int ['/' int]
    Tree   := 'T(' HVec ',' HVec ';' HVec ',' HVec ')'
    Twist  := 'twist(' HVec ';' HVec ')'
    Tensor := [sign] factors (('+'|'-') factors)*,  factors := factor ('*' factor)*

A parsed vector's coefficients are summed per key, then made ``int`` when
integral (``2/2*a1``, ``2*1/2*a1*b1``, ``1/2*a1 + 1/2*a1``) and left a
``Fraction`` otherwise (``exact.canonical``).

A vector is scanned a term at a time: one compiled pattern matches a whole
HVec term (its sign, an optional ``p[/q]*`` coefficient and its label) in
one call, and a second one a tensor factor the same way.  Every part of
both patterns is optional, so a match never fails; a part the grammar
needs that came out missing or empty is the parse error, at the offset
where that part starts.  A term with no sign before it ends the vector.
Each pattern is compiled at its first use, through ``_compiled``, so an
import compiles neither and a parse only the one it scans with.

Digits are ASCII ``0``-``9`` only, and whitespace is ASCII only, so
everything before a parse failure is ASCII.  Parse failures raise
``ParseError`` carrying the byte offset of the first offending character.
``format_hvec`` prints the canonical form that ``parse_hvec`` maps back to
the same vector.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache as _cache

from .exact import FreeVec, _fraction, canonical
from .symplectic import BasisLabel
from .trees import HTree


class ParseError(ValueError):
    """Syntax error with the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


# ASCII classes only: in a str pattern \d and \s also match other scripts'
# digits and spaces.  So a scan stops at the first non-ASCII character,
# everything before a ParseError's offset is ASCII, and the offset counts
# bytes as well as characters.
_SPACE = " \t\n\r\f\v"
# One HVec term and one tensor factor (module doc); a denominator group is
# '' after a '/' with no digits, None without the '/'.
_TERM_PATTERN = (
    r"[ \t\n\r\f\v]*([+-]?)[ \t\n\r\f\v]*"           # 1 sign
    r"(?:([0-9]+)[ \t\n\r\f\v]*"                     # 2 p
    r"(?:/[ \t\n\r\f\v]*([0-9]*)[ \t\n\r\f\v]*)?"    # 3 q
    r"(\*?)[ \t\n\r\f\v]*)?"                         # 4 '*'
    r"([ab]?)([0-9]*)")                              # 5 letter, 6 index
_FACTOR_PATTERN = (
    r"[ \t\n\r\f\v]*([+-]?)[ \t\n\r\f\v]*"           # 1 sign
    r"(?:([0-9]+)[ \t\n\r\f\v]*"                     # 2 p
    r"(?:/[ \t\n\r\f\v]*([0-9]*))?"                  # 3 q
    r"|([ab]?)([0-9]*))"                             # 4 letter, 5 index
    r"[ \t\n\r\f\v]*(\*?)")                          # 6 '*'

_compiled = _cache(re.compile)  # a pattern compiled at its first use, kept


def _integer(m, group: int) -> int:
    # The digits of a scanned group, which must not be empty.
    digits = m.group(group)
    if not digits:
        raise ParseError("expected an integer", m.start(group))
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError("integer too long", m.start(group)) from None


def _coefficient(m, group: int) -> int | Fraction:
    # p, or p/q when group + 1 (q) matched.
    num = _integer(m, group)
    if m.group(group + 1) is None:
        return num
    den = _integer(m, group + 1)
    if not den:
        raise ParseError("zero denominator", m.start(group + 1))
    return _fraction(num, den)


def _label(m, group: int) -> BasisLabel:
    # The letter in ``group`` and the index in group + 1.
    letter = m.group(group)
    if not letter:
        raise ParseError("expected a basis label like a1 or b2",
                         m.start(group))
    index = _integer(m, group + 1)
    if index < 1:
        raise ParseError("basis index must be at least 1", m.end(group + 1))
    return BasisLabel(index, letter)


def _vector(terms: list) -> FreeVec:
    # The (key, coefficient) terms summed per key, each sum made canonical.
    return FreeVec._raw({k: canonical(c) for k, c in FreeVec(terms).items()})


def _hvec(text: str, pos: int):
    # The HVec at ``pos``, and the offset of what follows it and its spaces.
    match = _compiled(_TERM_PATTERN).match
    terms = []
    m = match(text, pos)
    while True:
        sign, num, _, star, _, _ = m.groups()
        end = m.end()
        coeff = 1 if num is None else _coefficient(m, 2)
        if num is None or star:
            terms.append((_label(m, 5), -coeff if sign == "-" else coeff))
        elif coeff:
            raise ParseError("expected '*'", m.start(4))
        else:
            end = m.start(4)            # a bare 0: the zero vector
        m = match(text, end)
        if not m.group(1):              # no sign: no further term
            return _vector(terms), m.start(1)


def _tensor(text: str, pos: int):
    # As ``_hvec``, for a tensor: each term a '*' product of factors.
    match = _compiled(_FACTOR_PATTERN).match
    terms = []
    m = match(text, pos)
    while True:
        negative, coeff, slots = m.group(1) == "-", 1, []
        while True:
            if m.group(2) is None:
                slots.append(_label(m, 4))
            else:
                coeff *= _coefficient(m, 2)
            if not m.group(6):
                break
            m = match(text, m.end())
            if m.group(1):
                raise ParseError("expected a basis label like a1 or b2",
                                 m.start(1))
        if slots:
            terms.append((tuple(slots), -coeff if negative else coeff))
        elif coeff:
            raise ParseError("tensor term has no basis labels", m.end())
        m = match(text, m.end())
        if not m.group(1):
            return _vector(terms), m.start(1)


def _take(text: str, pos: int, token: str) -> int:
    # The offset after ``token``, which must come next but for spaces.
    start = len(text) - len(text[pos:].lstrip(_SPACE))
    if not text.startswith(token, start):
        raise ParseError("expected %r" % token, start)
    return start + len(token)


def _end(text: str, scanned: tuple):
    # The value of a (value, offset) scan of ``text``, which only spaces
    # may follow.
    value, pos = scanned
    rest = text[pos:].lstrip(_SPACE)
    if rest:
        raise ParseError("unexpected trailing input", len(text) - len(rest))
    return value


def parse_hvec(text: str) -> FreeVec:
    """Parse a vector of H like ``"a2 - b1 + b2"`` or ``"3*a1 - 1/2*b4"``."""
    return _end(text, _hvec(text, 0))


def _call(text: str, head: str, separators) -> list:
    # ``head(v0 s0 v1 s1 ... vn)`` with HVec arguments, the last separator
    # ')'.
    args, pos = [], _take(text, _take(text, 0, head), "(")
    for sep in separators:
        vec, pos = _hvec(text, pos)
        args.append(vec)
        pos = _take(text, pos, sep)
    return _end(text, (args, pos))


def parse_tree(text: str) -> HTree:
    """Parse ``T(x1, x2; x3, x4)`` with HVec entries."""
    return HTree(*_call(text, "T", ",;,)"))


def parse_twist(text: str):
    """Parse ``twist(x; y)``: the subsurface basis of a genus-1 bounding curve."""
    return tuple(_call(text, "twist", ";)"))


def parse_tensor(text: str) -> FreeVec:
    """Parse a tensor combination like ``"a1*b1*a2*b2"`` or ``"2*a1*a1*b1*b1"``."""
    return _end(text, _tensor(text, 0))


def _coeff_prefix(coeff, body: str) -> str:
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s*%s" % (coeff, body)


def _format(vec: FreeVec, key_text) -> str:
    # Sorted terms joined as "x - y + z", each key printed by ``key_text``.
    if not vec:
        return "0"
    out = []
    for i, (key, coeff) in enumerate(vec.sorted_items()):
        body = key_text(key)
        if i == 0:
            out.append(_coeff_prefix(coeff, body))
        elif coeff < 0:
            out.append(" - " + _coeff_prefix(-coeff, body))
        else:
            out.append(" + " + _coeff_prefix(coeff, body))
    return "".join(out)


def format_hvec(vec: FreeVec) -> str:
    """Canonical text form; ``parse_hvec`` is a left inverse of this."""
    return _format(vec, str)


def format_tree(t: HTree) -> str:
    return "T(%s, %s; %s, %s)" % tuple(format_hvec(x) for x in t)


def format_s2l2(vec: FreeVec) -> str:
    """Print an S^2(Lambda^2 H) vector, e.g. ``"2*(b1^b2)(b1^b2)"``."""
    return _format(vec, lambda key: "(%s^%s)(%s^%s)" % key)


def format_tensor(vec: FreeVec) -> str:
    """Print a tensor combination, e.g. ``"a1*b1*a2*b2 + a1*b2*a2*b1"``, or
    an S^2(H) vector, whose keys are label pairs, e.g. ``"b1*b2 - b2*b2"``."""
    return _format(vec, lambda key: "*".join(map(str, key)))
