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

Digits are ASCII ``0``-``9`` only, and whitespace is ASCII only, so
everything before a parse failure is ASCII.  Parse failures raise
``ParseError`` carrying the byte offset of the first offending character.
``format_hvec`` prints the canonical form that ``parse_hvec`` maps back to
the same vector.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import FreeVec, canonical
from .symplectic import BasisLabel
from .trees import HTree


class ParseError(ValueError):
    """Syntax error with the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() also accepts '²' and other scripts' digits.
    return "0" <= ch <= "9"


# ASCII whitespace only, so every character before a ParseError's offset is
# ASCII and the offset counts bytes as well as characters.
_SPACE = " \t\n\r\f\v"


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _SPACE:
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError("expected %r" % token, self.pos)
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        return self.digits()

    def digits(self) -> int:
        # An integer starting right here, with no whitespace before it.
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("integer too long", start) from None

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)


def _label(cur: _Cursor) -> BasisLabel:
    ch = cur.peek()
    if ch not in ("a", "b"):
        raise ParseError("expected a basis label like a1 or b2", cur.pos)
    cur.pos += 1
    index = cur.digits()
    if index < 1:
        raise ParseError("basis index must be at least 1", cur.pos)
    return BasisLabel(index, ch)


def _coefficient(cur: _Cursor):
    num = cur.integer()
    if cur.try_take("/"):
        cur.skip_ws()
        start = cur.pos
        den = cur.integer()
        if not den:
            raise ParseError("zero denominator", start)
        return Fraction(num, den)
    return num


def _signed_terms(cur: _Cursor, term_parser):
    # Yields (sign, term) across a +/- separated list.
    sign = -1 if cur.try_take("-") else 1
    if sign == 1:
        cur.try_take("+")
    yield sign, term_parser(cur)
    while True:
        if cur.try_take("+"):
            yield 1, term_parser(cur)
        elif cur.try_take("-"):
            yield -1, term_parser(cur)
        else:
            return


def _hvec_term(cur: _Cursor):
    if _is_digit(cur.peek()):
        coeff = _coefficient(cur)
        if cur.try_take("*"):
            return coeff, _label(cur)
        if coeff == 0:
            return coeff, None          # a bare 0: the zero vector
        raise ParseError("expected '*'", cur.pos)
    return 1, _label(cur)


def _signed_sum(cur: _Cursor, term_parser) -> FreeVec:
    # The +/- separated terms summed per key, each sum made canonical.
    terms = []
    for sign, (coeff, key) in _signed_terms(cur, term_parser):
        if key is not None:
            terms.append((key, sign * coeff))
    return FreeVec._raw({k: canonical(c) for k, c in FreeVec(terms).items()})


def parse_hvec(text: str) -> FreeVec:
    """Parse a vector of H like ``"a2 - b1 + b2"`` or ``"3*a1 - 1/2*b4"``."""
    cur = _Cursor(text)
    vec = _signed_sum(cur, _hvec_term)
    cur.end()
    return vec


def _call(text: str, head: str, separators) -> list:
    # ``head(v0 s0 v1 s1 ... vn)`` with HVec arguments between separators.
    cur = _Cursor(text)
    cur.take(head)
    cur.take("(")
    args = [_signed_sum(cur, _hvec_term)]
    for sep in separators:
        cur.take(sep)
        args.append(_signed_sum(cur, _hvec_term))
    cur.take(")")
    cur.end()
    return args


def parse_tree(text: str) -> HTree:
    """Parse ``T(x1, x2; x3, x4)`` with HVec entries."""
    return HTree(*_call(text, "T", (",", ";", ",")))


def parse_twist(text: str):
    """Parse ``twist(x; y)``: the subsurface basis of a genus-1 bounding curve."""
    return tuple(_call(text, "twist", (";",)))


def _tensor_term(cur: _Cursor):
    coeff = 1
    slots = []
    seen_number = False
    while True:
        if _is_digit(cur.peek()):
            coeff *= _coefficient(cur)
            seen_number = True
        else:
            slots.append(_label(cur))
        if not cur.try_take("*"):
            break
    if not slots:
        if seen_number and coeff == 0:
            return coeff, None          # a bare 0: the zero tensor
        raise ParseError("tensor term has no basis labels", cur.pos)
    return coeff, tuple(slots)


def parse_tensor(text: str) -> FreeVec:
    """Parse a tensor combination like ``"a1*b1*a2*b2"`` or ``"2*a1*a1*b1*b1"``."""
    cur = _Cursor(text)
    vec = _signed_sum(cur, _tensor_term)
    cur.end()
    return vec


def _coeff_prefix(coeff, body: str) -> str:
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s*%s" % (coeff, body)


def _format(vec: FreeVec, key_text) -> str:
    # Sorted terms joined as "x - y + z", each key printed by ``key_text``.
    if vec.is_zero():
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
    return _format(vec, lambda key: "(%s^%s)(%s^%s)" % (*key[0], *key[1]))


def format_tensor(vec: FreeVec) -> str:
    """Print a tensor combination, e.g. ``"a1*b1*a2*b2 + a1*b2*a2*b1"``, or
    an S^2(H) vector, whose keys are label pairs, e.g. ``"b1*b2 - b2*b2"``."""
    return _format(vec, lambda key: "*".join(map(str, key)))
