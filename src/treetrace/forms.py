"""Bidegree projections, Lagrangian traces, and the bilinear forms on trees.

The tree space splits by the number of A-labels versus B-labels among the
four slots of each term; ``project_bidegree`` picks one piece.  A vector
is split once: its five pieces and the contractions of its (1,3) and (3,1)
pieces are kept with it (``FreeVec.cached``), and every form reads them
from there.  On pieces with an A-label the trace ``trace_a`` lands in
S^2(B) (and ``trace_b`` mirrors it); their kernels cut out the subspaces W0
inside bidegrees (1,3) and (3,1).

Two rational-valued pairings are assembled from the contraction
``contract_cs`` and the perfect pairing ``eta_s`` on S^2(H): ``upsilon``
contracts both arguments and pairs the results, while ``nabla`` is the
inner product computed by a signed sum over gluings of the two trees.
Restricting to complementary bidegrees gives the forms ``q_form`` ((1,3)
against (3,1)) and ``j_form`` ((0,4) against (4,0)); the tree part of the
degree-two cocycle is 3*J + (3/4)*Q, and the full cocycle adds 36 times
the product of Casson values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import FreeVec
from .symplectic import FAMILY_A, FAMILY_B, label_omega, label_omega_bar
from .trees import key_labels

# Permutations sending slot s to position 0 using the two tree symmetries
# (sign for a swap within a leg, none for the leg swap).
_FRONT = {
    0: ((0, 1, 2, 3), 1),
    1: ((1, 0, 2, 3), -1),
    2: ((2, 3, 0, 1), 1),
    3: ((3, 2, 0, 1), -1),
}

_V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_C2 = (((0, 1, 2, 3), 1), ((0, 1, 3, 2), -1))


def key_bidegree(key) -> tuple:
    """(number of A-labels, number of B-labels) among the four slots."""
    (w, x), (y, z) = key
    s = ((w.family == FAMILY_A) + (x.family == FAMILY_A)
         + (y.family == FAMILY_A) + (z.family == FAMILY_A))
    return s, 4 - s


class _Split(NamedTuple):
    pieces: tuple           # the bidegree (s, 4 - s) piece at index s
    contract_13: FreeVec    # contract_cs of the (1,3) piece
    contract_31: FreeVec    # contract_cs of the (3,1) piece


def _split(v: FreeVec) -> _Split:
    # One pass over the terms, bucketed by their number of A-labels.
    buckets = ({}, {}, {}, {}, {})
    for key, coeff in v.items():
        buckets[key_bidegree(key)[0]][key] = coeff
    pieces = tuple(FreeVec._raw(data) for data in buckets)
    return _Split(pieces, contract_cs(pieces[1]), contract_cs(pieces[3]))


def project_bidegree(v: FreeVec, s: int, t: int) -> FreeVec:
    """The component of ``v`` with exactly s A-labels and t B-labels per term."""
    if s < 0 or t < 0 or s + t != 4:
        raise ValueError("bidegree must be nonnegative with s + t = 4")
    return v.cached(_split).pieces[s]


def _trace(v: FreeVec, family: str) -> FreeVec:
    # Move the first slot of the requested family to position 1 (tracking
    # the AS sign), then contract it against the opposite family.
    other = FAMILY_B if family == FAMILY_A else FAMILY_A
    terms = []
    for key, coeff in v.items():
        labels = key_labels(key)
        slot = next((k for k, lbl in enumerate(labels) if lbl.family == family),
                    None)
        if slot is None:
            raise ValueError("term (%s^%s)(%s^%s) has no %s-label; trace "
                             "undefined there" % (labels + (family,)))
        perm, sign = _FRONT[slot]
        head, c_, d_, e_ = (labels[p] for p in perm)
        total = coeff * sign
        if c_.family == other:
            w = label_omega(head, e_)
            if w and d_.family == other:
                pair = (d_, c_) if d_ <= c_ else (c_, d_)
                terms.append((pair, total * w))
            w = label_omega(head, d_)
            if w and e_.family == other:
                pair = (e_, c_) if e_ <= c_ else (c_, e_)
                terms.append((pair, -total * w))
    return FreeVec(terms)


def trace_a(v: FreeVec) -> FreeVec:
    """Trace to S^2(B): on a tree with head a in A, omega(a,e) d c - omega(a,d) e c
    after projecting the remaining labels to B.  Defined wherever every term
    carries an A-label."""
    return _trace(v, FAMILY_A)


def trace_b(v: FreeVec) -> FreeVec:
    """Mirror trace to S^2(A), defined wherever every term carries a B-label."""
    return _trace(v, FAMILY_B)


def w0_member(v: FreeVec, side: str) -> bool:
    """Kernel-of-trace test inside bidegree (1,3) for side "A", (3,1) for "B"."""
    if side == FAMILY_A.upper() or side == FAMILY_A:
        wanted, tracer = (1, 3), trace_a
    elif side == FAMILY_B.upper() or side == FAMILY_B:
        wanted, tracer = (3, 1), trace_b
    else:
        raise ValueError("side must be 'A' or 'B'")
    for key, _ in v.items():
        if key_bidegree(key) != wanted:
            raise ValueError("vector is not homogeneous of bidegree %r" % (wanted,))
    return tracer(v).is_zero()


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


def eta_s(x: FreeVec, y: FreeVec) -> Fraction:
    """Perfect pairing on S^2(H): (ab, cd) -> w(a,c)w(b,d) + w(a,d)w(b,c)."""
    total = 0
    for (u, v), cx in x.items():
        for (w, z), cy in y.items():
            val = (label_omega(u, w) * label_omega(v, z)
                   + label_omega(u, z) * label_omega(v, w))
            if val:
                total += cx * cy * val
    return Fraction(total)


def upsilon(x: FreeVec, y: FreeVec) -> Fraction:
    """Pair the contractions of both arguments: eta_s(C x, C y)."""
    return eta_s(contract_cs(x), contract_cs(y))


def nabla_pair(xs: tuple, ys: tuple) -> Fraction:
    """Inner product of two basic trees given as 4-tuples of slot labels.

    Signed sum over the Klein four-group on the right slots and the swap of
    the left tree's second leg; the two half-weight terms realize the fused
    gluing pattern.
    """
    return Fraction(_nabla_pair2(xs, ys), 2)


def _nabla_pair2(xs: tuple, ys: tuple) -> int:
    # Twice nabla_pair, an integer.
    acc = 0
    for sigma in _V4:
        y0 = ys[sigma[0]]
        w0 = label_omega(xs[0], y0)
        if not w0:
            continue
        y1, y2, y3 = ys[sigma[1]], ys[sigma[2]], ys[sigma[3]]
        for tau, sgn in _C2:
            xt2, xt3 = xs[tau[2]], xs[tau[3]]
            t1 = (label_omega(xs[1], y1)
                  * label_omega(xt2, y2) * label_omega(xt3, y3))
            t2 = (label_omega(xs[1], y2)
                  * label_omega(xt2, y3) * label_omega(xt3, y1))
            t3 = (label_omega(xs[1], y3)
                  * label_omega(xt2, y2) * label_omega(xt3, y1))
            acc += sgn * w0 * (2 * t1 - t2 + t3)
    return acc


def nabla(x: FreeVec, y: FreeVec) -> Fraction:
    """Bilinear extension of the tree inner product to expanded vectors."""
    ys = [(key_labels(ky), cy) for ky, cy in y.items()]
    total = 0
    for kx, cx in x.items():
        xs = key_labels(kx)
        for labels, cy in ys:
            val = _nabla_pair2(xs, labels)
            if val:
                total += cx * cy * val
    return Fraction(total, 2)


def q_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Contraction pairing of the (1,3) part of x against the (3,1) part of y."""
    return eta_s(x.cached(_split).contract_13, y.cached(_split).contract_31)


def j_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree inner product of the (0,4) part of x against the (4,0) part of y."""
    return nabla(x.cached(_split).pieces[0], y.cached(_split).pieces[4])


def b_form(x: FreeVec, y: FreeVec) -> Fraction:
    """Tree part of the degree-two cocycle: 3*J + (3/4)*Q."""
    return 3 * j_form(x, y) + Fraction(3, 4) * q_form(x, y)


def cocycle(lam_x: Fraction, x: FreeVec, lam_y: Fraction, y: FreeVec) -> Fraction:
    """Full cocycle 36*lam_x*lam_y + B on (Casson value, tree image) pairs."""
    return 36 * Fraction(lam_x) * Fraction(lam_y) + b_form(x, y)
