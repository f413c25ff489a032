"""Knot polynomial arithmetic and surgery formulas for the two invariants.

A knot enters as its Conway and Jones polynomials (exact integer Laurent
polynomials); 1/n surgery on it produces a homology sphere whose Casson
invariant is -n/6 times the second h-derivative of the Jones polynomial at
t = exp(-h), and whose second invariant is

    n/2 v2 - n/3 v3 + n^2 (v2 + 5/3 v2^2 - 60 c4),

with c4 the z^4 Conway coefficient.  On top of that sit the connected-sum
and orientation-reversal rules, the derived invariant d2 = lambda2 -
18 lambda^2, and the combination lambda2 + 3 lambda - 18 lambda^2 that
obstructs deep Heegaard gluings; its value on the Poincare sphere is 24.

The n-th power of a twist on a genus-1 bounding curve realizes 1/n surgery
on the corresponding knot, which ties the tree-side bilinear forms to the
surgery side.  An integral basis (x, y) of the subsurface the curve bounds
gives the knot's Seifert matrix V = [L(e_i, e_j)] of the Seifert form L
(``symplectic.seifert_form``) and its Casson value c2 = det V =
``bounding_casson(x, y)``; ``surgery_cocycle_value`` gives the surgery
side of the cocycle on the twist, which the report matches with the
tree-side value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import NamedTuple, Optional

from .exact import FreeVec
from .symplectic import a, b, seifert_form


class LaurentPoly:
    """Integer Laurent polynomial, stored exponent -> nonzero coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs is not None:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for exp, coeff in items:
                # Integers only: a float, string or Fraction is a TypeError.
                exp = index(exp)
                coeff = index(coeff)
                acc = data.get(exp, 0) + coeff
                if acc:
                    data[exp] = acc
                else:
                    data.pop(exp, None)
        self._coeffs = data

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def terms(self):
        return sorted(self._coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        if not self._coeffs:
            return "LaurentPoly(0)"
        return "LaurentPoly(%s)" % (self.terms(),)


def jones_h_derivative(p: LaurentPoly, i: int) -> int:
    """i-th derivative of p(exp(-h)) at h = 0: sum of c_n (-n)^i."""
    if i < 0:
        raise ValueError("derivative order must be nonnegative")
    return sum(c * (-n) ** i for n, c in p.terms())


class SphereInvariants(NamedTuple):
    """The pair (Casson lambda, second invariant lambda2) of a homology sphere."""

    lam: Fraction
    lam2: Fraction


def bounding_casson(x: FreeVec, y: FreeVec) -> int:
    """Conway c2, and so the 1/1-surgery Casson value, of the knot cut off
    by a genus-1 bounding curve with integral basis (x, y): the determinant
    of its Seifert matrix V = [L(e_i, e_j)], whose omega(x, y) = V_01 -
    V_10 must be 1 or -1."""
    if any(c.denominator != 1 for u in (x, y) for _, c in u.items()):
        raise ValueError("bounding-curve basis needs integer coefficients")
    (v00, v01), (v10, v11) = [[seifert_form(u, v) for v in (x, y)]
                              for u in (x, y)]
    w = v01 - v10
    if abs(w) != 1:
        raise ValueError("bounding-curve basis needs omega(x, y) = 1 or -1, "
                         "got %s" % w)
    return int(v00 * v11 - v01 * v10)


@dataclass(frozen=True)
class KnotRecord:
    """A knot's polynomial data plus, optionally, the homology classes of a
    symplectic basis of the genus-1 subsurface its curve bounds."""

    name: str
    conway: LaurentPoly
    jones: LaurentPoly
    bscc_basis: Optional[tuple] = None

    def __post_init__(self):
        if jones_h_derivative(self.jones, 0) != 1:
            raise ValueError(
                "Jones polynomial of %r is not 1 at t = 1" % self.name)
        if any(e < 0 or e % 2 for e, _ in self.conway.terms()):
            raise ValueError("Conway polynomial of %r has a negative or odd "
                             "power of z" % self.name)
        if self.conway.coefficient(0) != 1:
            raise ValueError("Conway polynomial of %r has c0 != 1"
                             % self.name)
        if jones_h_derivative(self.jones, 1) != 0:
            raise ValueError("Jones polynomial of %r has V'(1) != 0"
                             % self.name)
        c2 = self.conway.coefficient(2)
        if jones_h_derivative(self.jones, 2) != -6 * c2:
            raise ValueError("Jones polynomial of %r has v2 != -6*c2 = %d"
                             % (self.name, -6 * c2))
        if self.bscc_basis is None:
            return
        basis_c2 = bounding_casson(*self.bscc_basis)
        if self.conway != LaurentPoly({0: 1, 2: basis_c2}):
            raise ValueError(
                "bounding-curve basis of %r gives c2 = %d and no Conway term "
                "above z^2, but its Conway polynomial is %s"
                % (self.name, basis_c2,
                   [list(term) for term in self.conway.terms()]))


TREFOIL = KnotRecord(
    name="trefoil",
    conway=LaurentPoly({2: 1, 0: 1}),
    jones=LaurentPoly({1: 1, 3: 1, 4: -1}),
    bscc_basis=(FreeVec({a(1): 1, b(1): 1}),
                FreeVec({a(2): 1, b(1): -1, b(2): 1})),
)

FIGURE_EIGHT = KnotRecord(
    name="figure-eight",
    conway=LaurentPoly({0: 1, 2: -1}),
    jones=LaurentPoly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1}),
    bscc_basis=(FreeVec({a(1): 1, b(1): 1}),
                FreeVec({a(2): 1, b(1): 1, b(2): -1})),
)

BUILTIN_KNOTS = {k.name: k for k in (TREFOIL, FIGURE_EIGHT)}

POINCARE = SphereInvariants(Fraction(1), Fraction(39))


def casson_surgery(knot: KnotRecord, n: int) -> Fraction:
    """Casson invariant of the sphere from 1/n surgery: -n/6 times v2."""
    return Fraction(-n, 6) * jones_h_derivative(knot.jones, 2)


def lambda2_surgery(knot: KnotRecord, n: int) -> Fraction:
    """Second invariant of the sphere from 1/n surgery on the knot."""
    v2 = jones_h_derivative(knot.jones, 2)
    v3 = jones_h_derivative(knot.jones, 3)
    c4 = knot.conway.coefficient(4)
    quadratic = v2 + Fraction(5, 3) * v2 * v2 - 60 * c4
    return Fraction(n, 2) * v2 - Fraction(n, 3) * v3 + n * n * quadratic


def connected_sum(m1: SphereInvariants, m2: SphereInvariants) -> SphereInvariants:
    """Invariants of a connected sum: lambda adds, lambda2 picks up 36*lam*lam."""
    return SphereInvariants(
        m1.lam + m2.lam,
        m1.lam2 + m2.lam2 + 36 * m1.lam * m2.lam)


def reverse_orientation(m: SphereInvariants) -> SphereInvariants:
    """Orientation reversal negates lambda and shifts lambda2 by 6*lambda."""
    return SphereInvariants(-m.lam, m.lam2 + 6 * m.lam)


def d2_value(m: SphereInvariants) -> Fraction:
    """The homomorphism-on-deeper-layers part: lambda2 - 18 lambda^2."""
    return m.lam2 - 18 * m.lam * m.lam


def vanishing_combo(m: SphereInvariants) -> Fraction:
    """lambda2 + 3 lambda - 18 lambda^2; zero on spheres glued from deep twists."""
    return m.lam2 + 3 * m.lam - 18 * m.lam * m.lam


def solve_alpha_r() -> tuple:
    """Coefficients (alpha, r) making lambda2 = r*lambda + alpha*lambda^2 on deep gluings.

    Both rules move lambda2 by an amount that depends on lambda alone.
    Doubling a sphere with Casson value t adds 36*t^2 to twice its lambda2,
    which the ansatz needs to be 2*alpha*t^2; reversal adds 6*t, which it
    needs to be -2*r*t.  So both coefficients can be read off the rules at
    m = (lambda 1, lambda2 0).
    """
    m = SphereInvariants(Fraction(1), Fraction(0))
    return connected_sum(m, m).lam2 / 2, -reverse_orientation(m).lam2 / 2


def surgery_cocycle_value(knot: KnotRecord) -> Fraction:
    """Self-cocycle of the twist measured on the surgery side.

    The square of the twist is 1/2 surgery, so the cocycle evaluates to
    lambda2(1/2 surgery) - 2*lambda2(1/1 surgery).
    """
    return lambda2_surgery(knot, 2) - 2 * lambda2_surgery(knot, 1)
