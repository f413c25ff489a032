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
tree inner product ``nabla``.  For terms with slot labels x_k and y_l, let
M_kl = omega(x_k, y_l), with 2x2 minors m_ij on rows 0, 1 and n_kl on rows
2, 3: D = m_01 n_23 + m_23 n_01 is their S^2(Lambda^2 H) pairing, det M the
Lambda^4 H pairing of their four-slot wedges, and 2 nabla = 3 D - det M.
The wedge of lambda4(q) is 3 q, and D pairs lambda4(q) with y as q with the
wedge of y, so nabla vanishes on the embedded Lambda^4 H from either side.
Both pairings sum over every pair of terms; the totals stay ints (Fractions
only for Fraction coefficients) until one Fraction is made per value.
Restricting to complementary bidegrees gives the forms ``q_form`` ((1,3)
against (3,1)) and ``j_form`` ((0,4) against (4,0)); the tree part of the
degree-two cocycle is 3*J + (3/4)*Q, and the full cocycle adds 36 times
the product of Casson values.  ``b_form`` and ``cocycle`` pair each piece
once and divide by 4 once; ``cocycle_values`` gives Q, J, B and C of one
pair of arguments from the same single pairing of each piece.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import FreeVec, scalar
from .symplectic import FAMILY_A, FAMILY_B, label_omega, label_omega_bar
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
    # first such term.
    if piece:
        raise ValueError("term (%s^%s)(%s^%s) has no %s-label; trace "
                         "undefined there"
                         % (key_labels(piece.items()[0][0]) + (family,)))


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
    if side == FAMILY_A.upper() or side == FAMILY_A:
        s, image = 1, _C13
    elif side == FAMILY_B.upper() or side == FAMILY_B:
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
    the symmetric A-B pairing; the embedded Lambda^4 H is killed.
    """
    data = {}
    for key, coeff in v.items():
        la, lb, lc, ld = key_labels(key)
        for u, w, keep1, keep2, sign in (
                (la, ld, lb, lc, 1),
                (la, lc, lb, ld, -1),
                (lb, ld, la, lc, -1),
                (lb, lc, la, ld, 1)):
            val = label_omega_bar(u, w)
            if val:
                pair = (keep1, keep2) if keep1 <= keep2 else (keep2, keep1)
                data[pair] = data.get(pair, 0) + coeff * sign * val
    return FreeVec._raw({k: c for k, c in data.items() if c})


def _eta_total(x: FreeVec, y: FreeVec):
    # eta_s(x, y) as an int (a Fraction when a coefficient is one).
    total = 0
    yterms = list(y.items())
    for (u, v), cx in x.items():
        for (w, z), cy in yterms:
            val = (label_omega(u, w) * label_omega(v, z)
                   + label_omega(u, z) * label_omega(v, w))
            if val:
                total += cx * cy * val
    return total


def _nabla_total(x: FreeVec, y: FreeVec):
    # Twice nabla: 3 D - det M per term pair; m_ij n_kl weighs 3 [ij = 01 or
    # 23] minus its sign in det M expanded along rows 0, 1.  A zero row adds 0.
    w = label_omega
    total = 0
    yterms = [(key_labels(k), c) for k, c in y.items()]
    for kx, cx in x.items():
        x0, x1, x2, x3 = key_labels(kx)
        for (y0, y1, y2, y3), cy in yterms:
            r0 = (w(x0, y0), w(x0, y1), w(x0, y2), w(x0, y3))
            if r0 == (0, 0, 0, 0):
                continue
            r1 = (w(x1, y0), w(x1, y1), w(x1, y2), w(x1, y3))
            if r1 == (0, 0, 0, 0):
                continue
            r2 = (w(x2, y0), w(x2, y1), w(x2, y2), w(x2, y3))
            r3 = (w(x3, y0), w(x3, y1), w(x3, y2), w(x3, y3))
            acc = 0
            for (i, j), (k, l), weight in (
                    ((0, 1), (2, 3), 2), ((2, 3), (0, 1), 2),
                    ((0, 2), (1, 3), 1), ((1, 3), (0, 2), 1),
                    ((0, 3), (1, 2), -1), ((1, 2), (0, 3), -1)):
                m = r0[i] * r1[j] - r0[j] * r1[i]
                if m:
                    acc += weight * m * (r2[k] * r3[l] - r2[l] * r3[k])
            if acc:
                total += cx * cy * acc
    return total


def eta_s(x: FreeVec, y: FreeVec) -> Fraction:
    """Perfect pairing on S^2(H): (ab, cd) -> w(a,c)w(b,d) + w(a,d)w(b,c)."""
    return Fraction(_eta_total(x, y))


def nabla(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree inner product, 2 nabla = 3 <,>_{S^2 Lambda^2 H} - det M per term
    pair: zero on lambda4(q), whose four-slot wedge is 3 q (module doc)."""
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


def b_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree part of the degree-two cocycle: 3*J + (3/4)*Q."""
    return Fraction(_cocycle_totals(0, x, 0, y)[2], 4)


def cocycle(lam_x: Fraction, x: FreeVec, lam_y: Fraction, y: FreeVec) -> Fraction:
    """Full cocycle 36*lam_x*lam_y + 3*J + (3/4)*Q on (Casson value, tree
    image) pairs.  Casson values must be exact: a float raises TypeError."""
    return Fraction(_cocycle_totals(lam_x, x, lam_y, y)[3], 4)


def cocycle_values(lam_x: Fraction, x: FreeVec, lam_y: Fraction,
                   y: FreeVec) -> tuple:
    """(Q, J, B, C) of two (Casson value, tree image) pairs at once, pairing
    each piece once: the values of ``q_form``, ``j_form``, ``b_form`` and
    ``cocycle`` on the same arguments."""
    e, n, b, c = _cocycle_totals(lam_x, x, lam_y, y)
    return Fraction(e), Fraction(n, 2), Fraction(b, 4), Fraction(c, 4)
