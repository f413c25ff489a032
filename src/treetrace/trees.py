"""H-shaped trees, the symmetric square of Lambda^2 H, and the tree space.

An H-tree T(x1, x2; x3, x4) expands to the element (x1 ^ x2)(x3 ^ x4) of
S^2(Lambda^2 H).  The degree-two tree space is the quotient of S^2(Lambda^2 H)
by the image of Lambda^4 H under

    w ^ x ^ y ^ z  |->  (w^x)(y^z) - (w^y)(x^z) + (w^z)(x^y),

and is represented here by canonical normal forms.  Under the label order
a1 < b1 < a2 < b2 < ... no two embedded 4-tuples w < x < y < z share a key,
so the normal form rewrites each key (w, x, y, z) with x < y by

    (w^x)(y^z)  ->  (w^y)(x^z) - (w^z)(x^y)

and keeps every other key: one rewrite per term, at any genus.  So
``a2_normalize`` takes no genus; ``tau2_bscc_twist``, the image of the twist
on a genus-1 bounding curve, is where a basis is checked against one.

Wedge keys store their two labels sorted (sign absorbed into the
coefficient).  A key of S^2(Lambda^2 H) is the flat tuple (w, x, y, z) of
its four slot labels with w < x, y < z and (w, x) <= (y, z), so the AS and
leg-swap symmetries are structural.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import FreeVec
from .symplectic import DEFAULT_GENUS, BasisLabel, hvec


class HTree(NamedTuple):
    """H-shaped tree with left leg (x1, x2) and right leg (x3, x4)."""

    x1: FreeVec
    x2: FreeVec
    x3: FreeVec
    x4: FreeVec


def tree(x1, x2, x3, x4) -> HTree:
    """Build an H-tree; bare basis labels are promoted to vectors of H."""
    return HTree(hvec(x1), hvec(x2), hvec(x3), hvec(x4))


def wedge_expand(u: FreeVec, v: FreeVec) -> FreeVec:
    """Bilinear expansion of u ^ v over sorted wedge keys."""
    data = {}
    terms = v._terms.items()
    for ku, cu in u._terms.items():
        for kv, cv in terms:
            if ku < kv:
                key, coeff = (ku, kv), cu * cv
            elif kv < ku:
                key, coeff = (kv, ku), -cu * cv
            else:
                continue
            data[key] = data.get(key, 0) + coeff
    return FreeVec._raw({k: c for k, c in data.items() if c})


def sym_product(left: FreeVec, right: FreeVec) -> FreeVec:
    """Commutative product of two Lambda^2 vectors over sorted wedge pairs."""
    data = {}
    terms = right._terms.items()
    for kl, cl in left._terms.items():
        for kr, cr in terms:
            key = kl + kr if kl <= kr else kr + kl
            data[key] = data.get(key, 0) + cl * cr
    return FreeVec._raw({k: c for k, c in data.items() if c})


def _products(product, *pairs):
    # ``product(u, v)`` of each pair, none built if one would pair more
    # than 10^6 terms of u and v (0.92 * 10^6 took 1.2 s and 120 MB).
    if max(len(u) * len(v) for u, v in pairs) > 1_000_000:
        raise ValueError("tree has more than 10^6 = 1000000 term pairs to "
                         "expand")
    return [product(u, v) for u, v in pairs]


def tree_expand(t: HTree) -> FreeVec:
    """Expansion of the tree into S^2(Lambda^2 H); a wedge or product of more
    than 10^6 term pairs is a ValueError before it is built."""
    return _products(sym_product, _products(wedge_expand, t[:2], t[2:]))[0]


def lambda4_embed(w, x, y, z) -> FreeVec:
    """Alternating image of w ^ x ^ y ^ z inside S^2(Lambda^2 H)."""
    return (tree_expand(tree(w, x, y, z))
            - tree_expand(tree(w, y, x, z))
            + tree_expand(tree(w, z, x, y)))


def a2_normalize(v: FreeVec) -> FreeVec:
    """Canonical representative of ``v`` modulo the embedded Lambda^4 H, the
    same at every genus that holds the indices of ``v``; two vectors are
    equal in the tree space iff their normal forms are equal."""
    data = {}
    for key, coeff in v.items():
        w, x, y, z = key
        if x < y:
            data[w, y, x, z] = data.get((w, y, x, z), 0) + coeff
            data[w, z, x, y] = data.get((w, z, x, y), 0) - coeff
        else:
            data[key] = data.get(key, 0) + coeff
    return FreeVec._raw({k: c for k, c in data.items() if c})


def tau2_square(w: FreeVec) -> FreeVec:
    """A2 normal form of 2 * w.w for ``w`` in Lambda^2 H over sorted wedge
    keys, in one pass.

    The square is 2c^2 on k + k (the two tuples joined) for each term c k
    of ``w`` and 4c c' on k + k' for each pair of its keys k < k'; a key
    (p, q, r, t) with q < r is rewritten as it is made, as ``a2_normalize``
    would rewrite it.
    """
    items = w.sorted_items()
    data = {}
    get = data.get
    for i, (left, c) in enumerate(items):
        data[left + left] = 2 * c * c
        p, q = left
        c4 = 4 * c
        for right, d in items[i + 1:]:
            d *= c4
            r, t = right
            if q < r:
                key = p, r, q, t
                data[key] = get(key, 0) + d
                key = p, t, q, r
                data[key] = get(key, 0) - d
            else:
                key = left + right
                data[key] = get(key, 0) + d
    return FreeVec._raw({k: c for k, c in data.items() if c})


def _check_basis(x: FreeVec, y: FreeVec, genus: int):
    # Every label of a twist basis is a_i or b_i with 1 <= i <= genus.  The
    # loop is the fast path; a failure is named from the sorted labels, so
    # equal vectors fail alike.
    for label in (*x._terms, *y._terms):
        if not (isinstance(label, BasisLabel) and 1 <= label >> 1 <= genus):
            break
    else:
        return
    labels = x.support() + y.support()
    for label in labels:
        if not (isinstance(label, BasisLabel) and label >> 1 >= 1):
            raise ValueError("twist uses %s, not a basis label a_i or b_i "
                             "with 1 <= i <= %d" % (label, genus))
    raise ValueError("twist uses index %d beyond genus %d"
                     % (max(labels) >> 1, genus))


def tau2_bscc_twist(x, y, genus: int = DEFAULT_GENUS) -> FreeVec:
    """Image of the Dehn twist on a genus-1 bounding curve with subsurface basis (x, y).

    The twist maps to twice the tree with both legs (x, y), that is
    ``tau2_square`` of the one wedge x ^ y.  A label of x or y other than
    a_i or b_i with 1 <= i <= ``genus`` is a ValueError.
    """
    x, y = hvec(x), hvec(y)
    _check_basis(x, y, genus)
    return tau2_square(wedge_expand(x, y))
