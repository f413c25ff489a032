"""Exact rational arithmetic and exact linear solving.

Everything downstream is built on two primitives: ``FreeVec``, a sparse
linear combination of arbitrary ordered basis keys with rational
coefficients, and ``solve_linear``, Gaussian elimination over the rationals
for a system with a unique solution.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = Fraction


def scalar(value) -> Fraction:
    """Coerce an int, a string like ``"3/4"``, or a Fraction to a Scalar."""
    if isinstance(value, float):
        raise TypeError("float values are not exact")
    return Fraction(value)


class LinearSystemError(ValueError):
    """Base class for failures of exact linear solving."""


class InconsistentSystem(LinearSystemError):
    """The system admits no exact solution."""


class UnderdeterminedSystem(LinearSystemError):
    """The system has more than one exact solution."""


class FreeVec:
    """Finite linear combination of basis keys with nonzero Scalar coefficients.

    Keys may be any hashable, totally ordered values (tuples of tuples in
    practice).  Zero coefficients are never stored, so two values are equal
    iff they hold identical key -> coefficient associations.  Instances are
    immutable; all operators return fresh vectors.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                # ints are kept as-is (exact and cheap); anything else is
                # coerced to Fraction.  Floats are refused outright.
                if not isinstance(coeff, (int, Fraction)):
                    if isinstance(coeff, float):
                        raise TypeError("float coefficients are not exact")
                    coeff = Fraction(coeff)
                if not coeff:
                    continue
                acc = data.get(key, 0) + coeff
                if acc:
                    data[key] = acc
                else:
                    del data[key]
        self._terms = data

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

    def coeff(self, key):
        """Coefficient of ``key`` (an exact number; 0 when absent)."""
        return self._terms.get(key, 0)

    def items(self):
        return list(self._terms.items())

    def sorted_items(self):
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(sorted(self._terms))

    def __add__(self, other):
        if not isinstance(other, FreeVec):
            return NotImplemented
        data = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = data.get(key, 0) + coeff
            if acc:
                data[key] = acc
            else:
                del data[key]
        return FreeVec._raw(data)

    def __sub__(self, other):
        if not isinstance(other, FreeVec):
            return NotImplemented
        data = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = data.get(key, 0) - coeff
            if acc:
                data[key] = acc
            else:
                del data[key]
        return FreeVec._raw(data)

    def __neg__(self):
        return FreeVec._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, value):
        if not isinstance(value, (int, Fraction)):
            if isinstance(value, float):
                raise TypeError("float coefficients are not exact")
            value = Fraction(value)
        if not value:
            return FreeVec._raw({})
        return FreeVec._raw({k: c * value for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FreeVec):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def map_keys(self, fn) -> "FreeVec":
        """Relabel every key through ``fn``, merging collisions."""
        return FreeVec((fn(k), c) for k, c in self._terms.items())

    def __repr__(self):
        if not self._terms:
            return "FreeVec(0)"
        parts = ["%s*%r" % (c, k) for k, c in self.sorted_items()]
        return "FreeVec(%s)" % " + ".join(parts)


def solve_linear(matrix, rhs) -> list:
    """Solve ``matrix . x = rhs`` exactly.

    ``matrix`` is a rectangular list of coefficient rows, ``rhs`` a list of
    the same length.  Returns the unique solution as a list of Scalars, or
    raises ``InconsistentSystem`` / ``UnderdeterminedSystem``.
    """
    m = len(matrix)
    if m == 0:
        raise UnderdeterminedSystem("empty system")
    n = len(matrix[0])
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix rows have unequal lengths")
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")

    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)]

    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if rows[i][n]:
            raise InconsistentSystem("no exact solution")
    if len(pivot_cols) < n:
        raise UnderdeterminedSystem("solution is not unique")

    x = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        x[col] = rows[i][n]
    return x
