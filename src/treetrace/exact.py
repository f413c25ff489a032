"""Exact free vectors over the rationals.

Everything downstream is built on ``FreeVec``, a sparse linear combination
of arbitrary ordered basis keys with exact rational coefficients (ints or
Fractions); ``scalar`` is the one rule that admits a value as exact, and
``canonical`` the one that makes an integral one an ``int``.  There is no
floating point anywhere.

Every ``Fraction`` the package builds from exact numbers comes from
``_fraction``, ``Fraction`` behind a bounded memo (256 entries, least
recently used dropped first).  Results repeat: a Gram block of twists with
disjoint supports gives Q = J = 0 and the same C again and again, and
CPython builds a ``Fraction`` in pure Python.  Sharing one instance is
sound because a ``Fraction`` never changes, so types, values and printed
text are those of a fresh one; a zero denominator still raises
``ZeroDivisionError`` and stores nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache as _lru_cache


_fraction = _lru_cache(maxsize=256)(Fraction)


def scalar(value):
    """``value`` as an exact scalar: an int or Fraction as it is; anything
    else, a float above all, is a TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError("%s coefficients are not exact ints or Fractions"
                    % type(value).__name__)


def canonical(value):
    """An exact ``value`` as an ``int`` when its denominator is 1, else the
    Fraction itself."""
    return value.numerator if value.denominator == 1 else value


class FreeVec:
    """Finite linear combination of basis keys with nonzero exact coefficients.

    Keys may be any hashable, totally ordered values (tuples of tuples in
    practice).  Zero coefficients are never stored, so two values are equal
    iff they hold identical key -> coefficient associations.  Instances are
    immutable; all operators return fresh vectors.  ``cached`` keeps values
    derived from one vector with it; the memo slot stays unset until then,
    and equality, ``repr`` and arithmetic ignore it.
    """

    __slots__ = ("_terms", "_memo")

    def __init__(self, terms=None):
        data = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                data[key] = data.get(key, 0) + scalar(coeff)
        self._terms = {k: c for k, c in data.items() if c}

    @classmethod
    def single(cls, key, coeff=1) -> "FreeVec":
        """The vector ``coeff * key``."""
        return cls({key: coeff})

    @classmethod
    def _raw(cls, data: dict) -> "FreeVec":
        # Internal: adopt a dict that is already zero-free.
        v = cls.__new__(cls)
        v._terms = data
        return v

    def cached(self, fn, arg=None):
        """``fn(self)``, or ``fn(self, arg)`` when ``arg`` is given, computed
        at most once per vector and ``arg``.

        Sound because a vector never changes after construction; a vector
        made by arithmetic starts without a memo.  The values of an ``fn``
        that takes an ``arg`` are kept in one dict by ``arg``, so a lookup
        builds no key; such an ``fn`` is never cached without one.
        """
        try:
            memo = self._memo
        except AttributeError:
            memo = self._memo = {}
        try:
            return memo[fn] if arg is None else memo[fn][arg]
        except KeyError:
            if arg is None:
                value = memo[fn] = fn(self)
            else:
                value = memo.setdefault(fn, {})[arg] = fn(self, arg)
            return value

    def coeff(self, key):
        """Coefficient of ``key`` (an exact number; 0 when absent)."""
        return self._terms.get(key, 0)

    def items(self):
        return list(self._terms.items())

    def sorted_items(self):
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    # Arithmetic keeps the left operand's class, so a subclass's sums,
    # negations and multiples are of that subclass.
    def __add__(self, other):
        if not isinstance(other, FreeVec):
            return NotImplemented
        return type(self)((*self._terms.items(), *other._terms.items()))

    def __sub__(self, other):
        if not isinstance(other, FreeVec):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, value):
        value = scalar(value)
        if not value:
            return self._raw({})
        return self._raw({k: c * value for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FreeVec):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        parts = ["%s*%r" % (c, k) for k, c in self.sorted_items()]
        return "%s(%s)" % (type(self).__name__, " + ".join(parts) or 0)

