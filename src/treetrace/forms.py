"""Bidegree projections, Lagrangian traces, and the bilinear forms on trees.

The tree space splits by the number of A-labels versus B-labels among the
four slots of each term; ``project_bidegree`` picks one piece.  A vector
is split once: its five pieces and the contractions of its (1,3) and (3,1)
pieces are kept with it (``FreeVec.cached``), and every form reads them
from there.  The trace ``trace_a`` to S^2(B) is the contraction of the
(1,3) piece and zero on the other pieces with an A-label; ``trace_b`` to
S^2(A) is minus the contraction of the (3,1) piece.  Their kernels cut out
the subspaces W0 inside bidegrees (1,3) and (3,1).

Two rational-valued pairings act on these pieces: the perfect pairing
``eta_s`` on S^2(H), applied to the contractions ``contract_cs``, and the
tree inner product ``nabla``.  omega(u, v) is nonzero only when v is the
omega-partner u' of u (same index, other family), and omega(u, u') is +1
for u in A, -1 for u in B.  So neither pairing evaluates omega: each term
of x looks up in y's term dict the layouts of its partners that can pair
with it and adds their coefficients with a sign, whatever the key layout.
For the slot labels of two terms let M_kl = omega(x_k, y_l), with 2x2
minors m_ij on rows 0, 1 and n_kl on rows 2, 3: the S^2(Lambda^2 H) pairing
is D = m_01 n_23 + m_23 n_01, the Lambda^4 H pairing of the four-slot
wedges is the determinant of M, and 2 nabla is 3 D less that determinant.
The wedge of lambda4(q) is 3 q, and D pairs lambda4(q) with y as q with
the wedge of y, so nabla vanishes on the embedded Lambda^4 H from either
side.  The totals stay ints (Fractions only for Fraction coefficients)
until one Fraction is made per value.
Restricting to complementary bidegrees gives the forms ``q_form`` ((1,3)
against (3,1)) and ``j_form`` ((0,4) against (4,0)); the tree part of the
degree-two cocycle is 3*J + (3/4)*Q, and the full cocycle adds 36 times
the product of Casson values.  ``cocycle`` pairs each piece once and
divides by 4 once; ``cocycle_values`` gives Q, J, B and C of one pair of
arguments from the same single pairing of each piece.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import FreeVec, scalar
from .symplectic import FAMILY_A, FAMILY_B, BasisLabel, label_omega
from .trees import key_labels

def key_bidegree(key) -> tuple:
    """(number of A-labels, number of B-labels) among the four slots."""
    (w, x), (y, z) = key
    s = ((w.family == FAMILY_A) + (x.family == FAMILY_A)
         + (y.family == FAMILY_A) + (z.family == FAMILY_A))
    return s, 4 - s


# Where ``_split`` keeps the contractions of the (1,3) and (3,1) pieces.
_C13, _C31 = 5, 6


def _split(v: FreeVec) -> tuple:
    # One pass over the terms, bucketed by their number of A-labels: the
    # bidegree (s, 4 - s) piece at index s, then the two contractions.
    buckets = ({}, {}, {}, {}, {})
    for key, coeff in v.items():
        buckets[key_bidegree(key)[0]][key] = coeff
    pieces = tuple(FreeVec._raw(data) for data in buckets)
    return pieces + (contract_cs(pieces[1]), contract_cs(pieces[3]))


def project_bidegree(v: FreeVec, s: int, t: int) -> FreeVec:
    """The component of ``v`` with exactly s A-labels and t B-labels per term."""
    if s < 0 or t < 0 or s + t != 4:
        raise ValueError("bidegree must be nonnegative with s + t = 4")
    return v.cached(_split)[s]


def _refuse_pure(piece: FreeVec, family: str):
    # A trace is undefined on a term with no label of ``family``; name the
    # least such term, so equal vectors fail alike.
    if piece:
        raise ValueError("term (%s^%s)(%s^%s) has no %s-label; trace "
                         "undefined there"
                         % (key_labels(min(piece._terms)) + (family,)))


def trace_a(v: FreeVec) -> FreeVec:
    """Trace to S^2(B): on a tree with head a in A, omega(a,e) d c - omega(a,d) e c
    after projecting the remaining labels to B.  That is the contraction of
    the (1,3) piece; the (2,2), (3,1) and (4,0) pieces trace to zero, and a
    (0,4) term, which has no A-label, raises ValueError."""
    split = v.cached(_split)
    _refuse_pure(split[0], FAMILY_A)
    return split[_C13]


def trace_b(v: FreeVec) -> FreeVec:
    """Mirror trace to S^2(A): minus the contraction of the (3,1) piece, zero
    on the (0,4), (1,3) and (2,2) pieces; a (4,0) term raises ValueError."""
    split = v.cached(_split)
    _refuse_pure(split[4], FAMILY_B)
    return -split[_C31]


def w0_member(v: FreeVec, side: str) -> bool:
    """Kernel-of-trace test inside bidegree (1,3) for side "A", (3,1) for "B"."""
    if side == "A":
        s, image = 1, _C13
    elif side == "B":
        s, image = 3, _C31
    else:
        raise ValueError("side must be 'A' or 'B'")
    split = v.cached(_split)
    if len(split[s]) != len(v):
        raise ValueError("vector is not homogeneous of bidegree %r"
                         % ((s, 4 - s),))
    return not split[image]


def contract_cs(v: FreeVec) -> FreeVec:
    """Contraction to S^2(H) via the symmetric pairing, term by term.

    (a^b)(c^d) goes to w(a,d) bc - w(a,c) bd - w(b,d) ac + w(b,c) ad with w
    = |omega| the symmetric A-B pairing; the embedded Lambda^4 H is killed.
    """
    data = {}
    for key, coeff in v.items():
        la, lb, lc, ld = key_labels(key)
        for u, w, keep1, keep2, sign in (
                (la, ld, lb, lc, 1),
                (la, lc, lb, ld, -1),
                (lb, ld, la, lc, -1),
                (lb, lc, la, ld, 1)):
            if label_omega(u, w):
                pair = (keep1, keep2) if keep1 <= keep2 else (keep2, keep1)
                data[pair] = data.get(pair, 0) + coeff * sign
    return FreeVec._raw({k: c for k, c in data.items() if c})


def _partner(u: BasisLabel) -> BasisLabel:
    # The one basis label omega pairs with u: same index, other family.
    return BasisLabel(u.index, FAMILY_B if u.family == FAMILY_A else FAMILY_A)


def _eta_total(x: FreeVec, y: FreeVec):
    # eta_s(x, y) as an int (a Fraction when a coefficient is one).  A term
    # (u, v) of x pairs to omega(u, u') omega(v, v') = +-1 with each of the
    # keys (u', v') and (v', u') of y (one key, counted twice, when u = v).
    ydata = y._terms
    if not x._terms or not ydata:
        return 0
    get = ydata.get
    total = 0
    for (u, v), cx in x._terms.items():
        pu, pv = _partner(u), _partner(v)
        cy = get((pu, pv), 0) + get((pv, pu), 0)
        if cy:
            total += cx * cy if u.family == v.family else -cx * cy
    return total


def _nabla_total(x: FreeVec, y: FreeVec):
    # Twice nabla: 2 (m01 n23 + m23 n01) + m02 n13 + m13 n02 - m03 n12
    # - m12 n03 per term pair.  M is (-1)^(number of B-labels of x) times
    # the 0/1 matrix placing x's partners in y's slots, so m_ij n_kl is
    # that sign times the signed sum, over the four orders (p, q) of x's
    # first leg and (r, t) of its second, of [y_i y_j y_k y_l = p q r t]:
    # the coefficient in y of the key with those labels in those slots.
    ydata = y._terms
    if not x._terms or not ydata:
        return 0
    get = ydata.get
    total = 0
    for kx, cx in x._terms.items():
        (x0, x1), (x2, x3) = kx
        p0, p1, p2, p3 = _partner(x0), _partner(x1), _partner(x2), _partner(x3)
        acc = 0
        for p, q, r, t, sign in ((p0, p1, p2, p3, 1), (p1, p0, p2, p3, -1),
                                 (p0, p1, p3, p2, -1), (p1, p0, p3, p2, 1)):
            pq, rt = (p, q), (r, t)
            pr, rp, qt, tq = (p, r), (r, p), (q, t), (t, q)
            acc += sign * (2 * (get((pq, rt), 0) + get((rt, pq), 0))
                           + get((pr, qt), 0) + get((rp, tq), 0)
                           - get((pr, tq), 0) - get((rp, qt), 0))
        if acc:
            total += -cx * acc if key_bidegree(kx)[1] % 2 else cx * acc
    return total


def eta_s(x: FreeVec, y: FreeVec) -> Fraction:
    """Perfect pairing on S^2(H): (ab, cd) -> w(a,c)w(b,d) + w(a,d)w(b,c).

    Only cd = a'b' or b'a', with ' the omega-partner, pairs nonzero with ab."""
    return Fraction(_eta_total(x, y))


def nabla(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree inner product: 3 times the S^2(Lambda^2 H) pairing less the
    Lambda^4 H pairing of the four-slot wedges, halved, so zero on
    lambda4(q) (module doc)."""
    return Fraction(_nabla_total(x, y), 2)


def q_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Contraction pairing of the (1,3) part of x against the (3,1) part of y."""
    return eta_s(x.cached(_split)[_C13], y.cached(_split)[_C31])


def j_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree inner product of the (0,4) part of x against the (4,0) part of y."""
    return nabla(x.cached(_split)[0], y.cached(_split)[4])


def _cocycle_totals(lam_x, x: FreeVec, lam_y, y: FreeVec) -> tuple:
    # Q, 2*J, 4*B and 4*C of two (Casson value, tree image) pairs, each piece
    # paired once; ints unless a coefficient or a Casson value is a Fraction.
    # B = 3*J + (3/4)*Q = (6*N + 3*E) / 4 with N = 2*J and E = Q, and
    # C = 36*lam_x*lam_y + B, with Casson values made exact by ``scalar``.
    lam = 144 * scalar(lam_x) * scalar(lam_y)
    sx, sy = x.cached(_split), y.cached(_split)
    e = _eta_total(sx[_C13], sy[_C31])
    n = _nabla_total(sx[0], sy[4])
    b = 6 * n + 3 * e
    return e, n, b, lam + b


def cocycle(lam_x: Fraction, x: FreeVec, lam_y: Fraction, y: FreeVec) -> Fraction:
    """Full cocycle 36*lam_x*lam_y + 3*J + (3/4)*Q on (Casson value, tree
    image) pairs; ``cocycle(0, x, 0, y)`` is its tree part B.  Casson values
    must be exact: a float raises TypeError."""
    return Fraction(_cocycle_totals(lam_x, x, lam_y, y)[3], 4)


def cocycle_values(lam_x: Fraction, x: FreeVec, lam_y: Fraction,
                   y: FreeVec) -> tuple:
    """(Q, J, B, C) of two (Casson value, tree image) pairs at once, pairing
    each piece once: the values of ``q_form``, ``j_form``, the tree part
    3*J + (3/4)*Q of the cocycle and ``cocycle`` on the same arguments."""
    e, n, b, c = _cocycle_totals(lam_x, x, lam_y, y)
    return Fraction(e), Fraction(n, 2), Fraction(b, 4), Fraction(c, 4)
