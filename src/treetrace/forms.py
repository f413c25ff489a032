"""Bidegree projections, Lagrangian traces, and the bilinear forms on trees.

The tree space splits by the number of A-labels versus B-labels among the
four slots of each term; ``project_bidegree`` picks one piece.  A vector
is split once: its five pieces and the contractions of its (1,3) and (3,1)
pieces are kept with it (``FreeVec.cached``), and every form reads them
from there.  An empty piece, and the contraction of an empty piece, is
the one shared empty vector ``_EMPTY``, built once, as a vector never
changes; no pairing reads an image of it.  The trace ``trace_a`` to
S^2(B) is the contraction of the (1,3) piece and zero on the other pieces
with an A-label; ``trace_b`` to S^2(A) is minus the contraction of the
(3,1) piece.  Their kernels cut out the subspaces W0 inside bidegrees
(1,3) and (3,1).

Two rational-valued pairings act on these pieces: the perfect pairing
``eta_s`` on S^2(H), applied to the contractions ``contract_cs``, and the
tree inner product ``nabla``.  omega(u, v) is nonzero only when v is the
omega-partner u' of u (same index, other family), and omega(u, u') =
eps(u) is +1 for u in A, -1 for u in B.  So a pairing is a dot product of
one image of each argument, built once per piece and kept with it by the
builder of its side (``_PAIR`` and ``_TREE``, each a (left, right) pair).
The left argument gives its partner image x* (every label replaced by its
partner, times the product of eps over the labels, wedges and legs
sorted), the right one its canonical form y° (wedges and legs sorted, a
square key doubled), and eta_s(x, y) = <x*, y°>.  For the slot labels of
two tree terms let M_kl = omega(x_k, y_l), with 2x2 minors m_ij on rows
0, 1 and n_kl on rows 2, 3: the S^2(Lambda^2 H) pairing is D = m_01 n_23
+ m_23 n_01 = <x*, y°>, the Lambda^4 H pairing of the four-slot wedges W
(the labels sorted with the sign of the permutation) is det M =
<W(x*), W(y)>, and 2 nabla = 3 D - det M.  A tree's image holds both
parts, under keys that never meet: N(y) = y° ⊕ W(y) on the right and
N*(x) = 3 x* ⊕ -W(x*) on the left, so 2 nabla(x, y) = <N*(x), N(y)>.
The wedge of lambda4(q) is 3 q, and D pairs lambda4(q) with y as q with
the wedge of y, so nabla vanishes on the embedded Lambda^4 H from either
side.  A Gram block of m vectors costs m image builds and m^2 dot
products.  The totals stay ints (Fractions only for Fraction
coefficients) until one Fraction is made per value, by the memo
``exact._fraction``.
Restricting to complementary bidegrees gives the forms ``q_form`` ((1,3)
against (3,1)) and ``j_form`` ((0,4) against (4,0)); the tree part of the
degree-two cocycle is 3*J + (3/4)*Q, and the full cocycle adds 36 times
the product of Casson values.  ``cocycle`` pairs each piece once and
divides by 4 once; ``cocycle_values`` gives Q, J, B and C of one pair of
arguments from the same single pairing of each piece.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial as _partial

from .exact import FreeVec, _fraction, scalar
from .symplectic import FAMILY_A, FAMILY_B


# Where ``_split`` keeps the contractions of the (1,3) and (3,1) pieces.
_C13, _C31 = 5, 6

# Every empty piece and contraction ``_split`` gives: one vector, shared.
_EMPTY = FreeVec._raw({})


def _split(v: FreeVec) -> tuple:
    # One pass over the terms, bucketed by their number of A-labels: the
    # bidegree (s, 4 - s) piece at index s, then the two contractions; an
    # empty one is ``_EMPTY``.
    buckets = ({}, {}, {}, {}, {})
    for key, coeff in v._terms.items():
        w, x, y, z = key
        buckets[4 - (w & 1) - (x & 1) - (y & 1) - (z & 1)][key] = coeff
    pieces = tuple([FreeVec._raw(data) if data else _EMPTY
                    for data in buckets])
    p13, p31 = pieces[1], pieces[3]
    return pieces + (contract_cs(p13) if p13._terms else _EMPTY,
                     contract_cs(p31) if p31._terms else _EMPTY)


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
                         % (*min(piece._terms), family))


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
    for (la, lb, lc, ld), coeff in v._terms.items():
        pa, pb = la ^ 1, lb ^ 1
        # |omega|(u, w) is 1 when w is u's partner and 0 otherwise.
        for p, w, keep1, keep2, sign in (
                (pa, ld, lb, lc, 1),
                (pa, lc, lb, ld, -1),
                (pb, ld, la, lc, -1),
                (pb, lc, la, ld, 1)):
            if p == w:
                pair = (keep1, keep2) if keep1 <= keep2 else (keep2, keep1)
                data[pair] = data.get(pair, 0) + coeff * sign
    return FreeVec._raw({k: c for k, c in data.items() if c})


# The images the pairings read, each a dict built in one pass over a piece
# and kept with it (``FreeVec.cached``), one per side: ``flip`` 1 for the
# left argument, 0 for the right.  Each side has its own builder, a
# ``partial`` in ``_PAIR`` or ``_TREE``, which is its memo key, and
# ``_pairing`` reads the left one on x and the right one on y.  An empty
# piece (``_EMPTY``) gets no image.  A key of an image holds the
# codes of its labels as plain ints, ``label ^ flip``: the left side reads
# the partners' codes, code ^ 1, with the sign of the product of
# omega(u, u'), -1 when an odd number of labels lie in B; only the right
# side doubles a square.  An image may hold zero
# entries where terms cancel, which the dot product does not mind.


def _pair_image(v: FreeVec, flip: int) -> dict:
    # S^2(H): the canonical form y° (flip 0) or the partner image x*
    # (flip 1), the pair sorted.
    data = {}
    for (u, w), c in v._terms.items():
        u, w = u ^ flip, w ^ flip
        if flip & (u ^ w):
            c = -c
        if u < w:
            key = u, w
        elif w < u:
            key = w, u
        else:
            key, c = (u, w), c if flip else 2 * c
        data[key] = data.get(key, 0) + c
    return data


def _tree_image(v: FreeVec, flip: int) -> dict:
    # N(y) = y° ⊕ W(y) (flip 0) or N*(x) = 3 x* ⊕ -W(x*) (flip 1): the
    # S^2(Lambda^2 H) key (w, x, y, z), wedges and legs sorted, and the
    # four-slot wedge, its labels sorted with the sign of the permutation,
    # under a key tagged (w, x, y, z, 0) so that the two parts never meet.
    # A wedge of two equal labels is zero, and so is a four-slot wedge with
    # a repeated label.
    part, square, wedge = (3, 3, -1) if flip else (1, 2, 1)
    data = {}
    for (w, x, y, z), c in v._terms.items():
        w, x, y, z = w ^ flip, x ^ flip, y ^ flip, z ^ flip
        if flip & (w ^ x ^ y ^ z):
            c = -c
        if x < w:
            w, x, c = x, w, -c
        elif x == w:
            continue
        if z < y:
            y, z, c = z, y, -c
        elif z == y:
            continue
        if y < w or y == w and z < x:
            w, x, y, z = y, z, w, x
        key = w, x, y, z
        data[key] = (data.get(key, 0)
                     + (square if w == y and x == z else part) * c)
        # The wedge: w is least, as w < x and w <= y < z, so two
        # comparisons merge the rest (a square repeats w).
        if z < x:
            x, z, c = z, x, -c
        if y < x:
            x, y, c = y, x, -c
        if w == x or x == y or y == z:
            continue
        key = w, x, y, z, 0
        data[key] = data.get(key, 0) + wedge * c
    return data


# The (left, right) image builders of eta_s and of 2 nabla.
_PAIR = _partial(_pair_image, flip=1), _partial(_pair_image, flip=0)
_TREE = _partial(_tree_image, flip=1), _partial(_tree_image, flip=0)


def _pairing(images, x: FreeVec, y: FreeVec):
    # <left(x), right(y)> for ``images`` = (left, right): eta_s with
    # ``_PAIR``, 2 nabla with ``_TREE`` (module doc); an int unless a
    # coefficient is a Fraction.
    if not x._terms or not y._terms:
        return 0
    x, y = x.cached(images[0]), y.cached(images[1])
    if len(y) < len(x):
        x, y = y, x
    get = y.get
    total = 0
    for key, c in x.items():
        d = get(key)
        if d:
            total += c * d
    return total


def eta_s(x: FreeVec, y: FreeVec) -> Fraction:
    """Perfect pairing on S^2(H): (ab, cd) -> w(a,c)w(b,d) + w(a,d)w(b,c).

    Only cd = a'b' or b'a', with ' the omega-partner, pairs nonzero with ab."""
    return _fraction(_pairing(_PAIR, x, y))


def nabla(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree inner product: 3 times the S^2(Lambda^2 H) pairing less the
    Lambda^4 H pairing of the four-slot wedges, halved, so zero on
    lambda4(q) (module doc)."""
    return _fraction(_pairing(_TREE, x, y), 2)


def q_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Contraction pairing of the (1,3) part of x against the (3,1) part of y."""
    return eta_s(x.cached(_split)[_C13], y.cached(_split)[_C31])


def j_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree inner product of the (0,4) part of x against the (4,0) part of y."""
    return nabla(x.cached(_split)[0], y.cached(_split)[4])


def _cocycle_sum(lam_x, lam_y, e, n) -> tuple:
    # 4*B and 4*C from E = Q, N = 2*J and two Casson values, made exact by
    # ``scalar``: B = 3*J + (3/4)*Q = (6*N + 3*E) / 4 and C = 36*lam_x*lam_y
    # + B; ints unless a value is a Fraction.
    lam = 144 * scalar(lam_x) * scalar(lam_y)
    b = 6 * n + 3 * e
    return b, lam + b


def _cocycle_totals(lam_x, x: FreeVec, lam_y, y: FreeVec) -> tuple:
    # Q, 2*J, 4*B and 4*C of two (Casson value, tree image) pairs, each piece
    # paired once.
    sx, sy = x.cached(_split), y.cached(_split)
    e = _pairing(_PAIR, sx[_C13], sy[_C31])
    n = _pairing(_TREE, sx[0], sy[4])
    return (e, n) + _cocycle_sum(lam_x, lam_y, e, n)


def cocycle(lam_x: Fraction, x: FreeVec, lam_y: Fraction, y: FreeVec) -> Fraction:
    """Full cocycle 36*lam_x*lam_y + 3*J + (3/4)*Q on (Casson value, tree
    image) pairs; ``cocycle(0, x, 0, y)`` is its tree part B.  Casson values
    must be exact: a float raises TypeError."""
    return _fraction(_cocycle_totals(lam_x, x, lam_y, y)[3], 4)


def cocycle_values(lam_x: Fraction, x: FreeVec, lam_y: Fraction,
                   y: FreeVec) -> tuple:
    """(Q, J, B, C) of two (Casson value, tree image) pairs at once, pairing
    each piece once: the values of ``q_form``, ``j_form``, the tree part
    3*J + (3/4)*Q of the cocycle and ``cocycle`` on the same arguments."""
    e, n, b, c = _cocycle_totals(lam_x, x, lam_y, y)
    return _fraction(e), _fraction(n, 2), _fraction(b, 4), _fraction(c, 4)
