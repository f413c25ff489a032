"""Knot polynomial arithmetic and surgery formulas for the two invariants.

A knot enters as its Conway and Jones polynomials (exact integer Laurent
polynomials); 1/n surgery on it produces a homology sphere whose Casson
invariant is -n/6 times the second h-derivative of the Jones polynomial at
t = exp(-h), and whose second invariant, computed as one integer over 6, is

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

The tree forms of two such twists need no tree image either.  For bases
p = (x_p, y_p) and q = (x_q, y_q) with Seifert matrices V_p and V_q, let
N = [L(q_k, p_i)] (row k, column i) and adj the 2x2 adjugate [[d, -b],
[-c, a]] of [[a, b], [c, d]].  Then ``twist_forms`` gives

    Q(tau_p, tau_q) = 16 tr(adj(V_p + V_p^T) N^T adj(V_q) N),
    J(tau_p, tau_q) = 12 det(N)^2,

from 12 Seifert-form values, at a cost that does not grow with the genus:
every block of the g x g block-trace form of Q and J has rank 2 and
collapses to these 2x2 products.  Disjoint supports give N = 0, so Q = J
= 0 and the cocycle is 36 lambda_p lambda_q.  The ``cocycle`` command
computes these 12 values and no more: it reads and checks each basis's
Seifert matrix once, for its Casson value, and the closed form takes the
two matrices from there.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import NamedTuple, Optional

from .exact import FreeVec, _fraction
from .symplectic import a, b, seifert_form


class LaurentPoly(FreeVec):
    """Integer Laurent polynomial: a ``FreeVec`` over integer exponents
    whose coefficients are integers."""

    __slots__ = ()

    def __init__(self, coeffs=None):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        # Integers only: a float, string or Fraction is a TypeError.
        super().__init__([(index(exp), index(coeff)) for exp, coeff in items])

    def __mul__(self, value):
        # Integer multiples only, as in the constructor.
        return super().__mul__(index(value))

    __rmul__ = __mul__


def jones_h_derivative(p: LaurentPoly, i: int) -> int:
    """i-th derivative of p(exp(-h)) at h = 0: sum of c_n (-n)^i."""
    if i < 0:
        raise ValueError("derivative order must be nonnegative")
    return sum(c * (-n) ** i for n, c in p.sorted_items())


class SphereInvariants(NamedTuple):
    """The pair (Casson lambda, second invariant lambda2) of a homology sphere."""

    lam: Fraction
    lam2: Fraction


def _seifert_matrix(x: FreeVec, y: FreeVec,
                    what: str = "bounding-curve basis") -> tuple:
    # (det V, V) for the Seifert matrix V = [L(e_i, e_j)] of a genus-1
    # bounding-curve basis (x, y), given by its entries (V_00, V_01, V_10,
    # V_11); the basis must be integral with omega(x, y) = V_01 - V_10
    # equal to 1 or -1.  ``what`` names the basis in an error.
    for u in (x, y):
        for c in u._terms.values():
            if c.denominator != 1:
                raise ValueError("%s needs integer coefficients" % what)
    v00, v01 = seifert_form(x, x), seifert_form(x, y)
    v10, v11 = seifert_form(y, x), seifert_form(y, y)
    w = v01 - v10
    if abs(w) != 1:
        raise ValueError("%s needs omega(x, y) = 1 or -1, got %s"
                         % (what, w))
    return int(v00 * v11 - v01 * v10), (v00, v01, v10, v11)


def bounding_casson(x: FreeVec, y: FreeVec) -> int:
    """Conway c2, and so the 1/1-surgery Casson value, of the knot cut off
    by a genus-1 bounding curve with integral basis (x, y): the determinant
    of its Seifert matrix V = [L(e_i, e_j)], whose omega(x, y) = V_01 -
    V_10 must be 1 or -1."""
    return _seifert_matrix(x, y)[0]


def twist_forms(p: tuple, q: tuple) -> tuple:
    """(Q, J) of the twist images tau_p and tau_q of two genus-1
    bounding-curve bases p = (x_p, y_p) and q = (x_q, y_q), as ints, from
    12 Seifert-form values and at the cost of no tree image (module doc).

    Each basis is checked as by ``bounding_casson``; Q(tau_p, tau_q) =
    ``q_form(tau_p, tau_q)`` and J = ``j_form(tau_p, tau_q)``.
    """
    return _twist_forms(p, _seifert_matrix(*p)[1], q, _seifert_matrix(*q)[1])


def _twist_forms(p: tuple, v_p: tuple, q: tuple, v_q: tuple) -> tuple:
    # ``twist_forms`` of bases p and q whose Seifert matrices V_p and V_q
    # ``_seifert_matrix`` has read and checked: 4 more Seifert-form values.
    (xp, yp), (xq, yq) = p, q
    v00, v01, v10, v11 = v_p
    u00, u01, u10, u11 = v_q
    # The columns (n00, n10) and (n01, n11) of N = [L(q_k, p_i)].
    n00, n01 = seifert_form(xq, xp), seifert_form(xq, yp)
    n10, n11 = seifert_form(yq, xp), seifert_form(yq, yp)
    # M = N^T adj(V_q) N: its diagonal and the sum m01 of its off-diagonal
    # entries, which is all that the symmetric adj(V_p + V_p^T) reads.
    t = u01 + u10
    m00 = u11 * n00 * n00 - t * n00 * n10 + u00 * n10 * n10
    m11 = u11 * n01 * n01 - t * n01 * n11 + u00 * n11 * n11
    m01 = (2 * u11 * n00 * n01 - t * (n00 * n11 + n10 * n01)
           + 2 * u00 * n10 * n11)
    det = n00 * n11 - n01 * n10
    return (int(16 * (2 * v11 * m00 + 2 * v00 * m11 - (v01 + v10) * m01)),
            int(12 * det * det))


class _KnotFields(NamedTuple):
    name: str
    conway: LaurentPoly
    jones: LaurentPoly
    bscc_basis: Optional[tuple] = None


class KnotRecord(_KnotFields):
    """A knot's polynomial data plus, optionally, the homology classes of a
    symplectic basis of the genus-1 subsurface its curve bounds.  Immutable,
    and checked whenever one is built."""

    __slots__ = ()

    def __new__(cls, name, conway, jones, bscc_basis=None):
        self = super().__new__(cls, name, conway, jones, bscc_basis)
        if jones_h_derivative(self.jones, 0) != 1:
            raise ValueError(
                "Jones polynomial of %r is not 1 at t = 1" % self.name)
        if any(e < 0 or e % 2 for e, _ in self.conway.sorted_items()):
            raise ValueError("Conway polynomial of %r has a negative or odd "
                             "power of z" % self.name)
        if self.conway.coeff(0) != 1:
            raise ValueError("Conway polynomial of %r has c0 != 1"
                             % self.name)
        if jones_h_derivative(self.jones, 1) != 0:
            raise ValueError("Jones polynomial of %r has V'(1) != 0"
                             % self.name)
        c2 = self.conway.coeff(2)
        if jones_h_derivative(self.jones, 2) != -6 * c2:
            raise ValueError("Jones polynomial of %r has v2 != -6*c2 = %d"
                             % (self.name, -6 * c2))
        if self.bscc_basis is None:
            return self
        basis_c2 = _seifert_matrix(
            *self.bscc_basis, "bounding-curve basis of %r" % self.name)[0]
        if self.conway != LaurentPoly({0: 1, 2: basis_c2}):
            raise ValueError(
                "bounding-curve basis of %r gives c2 = %d and no Conway term "
                "above z^2, but its Conway polynomial is %s"
                % (self.name, basis_c2,
                   [list(term) for term in self.conway.sorted_items()]))
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make (and so _replace) skips __new__.
        return cls(*iterable)


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

POINCARE = SphereInvariants(_fraction(1), _fraction(39))


def casson_surgery(knot: KnotRecord, n: int) -> Fraction:
    """Casson invariant of the sphere from 1/n surgery: -n/6 times v2."""
    return _fraction(-n * jones_h_derivative(knot.jones, 2), 6)


def _six_lambda2(knot: KnotRecord, n: int) -> int:
    v2 = jones_h_derivative(knot.jones, 2)
    v3 = jones_h_derivative(knot.jones, 3)
    return (3 * n * v2 - 2 * n * v3
            + n * n * (6 * v2 + 10 * v2 * v2 - 360 * knot.conway.coeff(4)))


def lambda2_surgery(knot: KnotRecord, n: int) -> Fraction:
    """Second invariant of the sphere from 1/n surgery on the knot."""
    return _fraction(_six_lambda2(knot, n), 6)


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
    m = SphereInvariants(_fraction(1), _fraction(0))
    return connected_sum(m, m).lam2 / 2, -reverse_orientation(m).lam2 / 2


def surgery_cocycle_value(knot: KnotRecord) -> Fraction:
    """Self-cocycle of the twist measured on the surgery side.

    The square of the twist is 1/2 surgery, so the cocycle evaluates to
    lambda2(1/2 surgery) - 2*lambda2(1/1 surgery).
    """
    return _fraction(_six_lambda2(knot, 2) - 2 * _six_lambda2(knot, 1), 6)
