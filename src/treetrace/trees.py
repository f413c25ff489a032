"""H-shaped trees, the symmetric square of Lambda^2 H, and the tree space.

An H-tree T(x1, x2; x3, x4) expands to the element (x1 ^ x2)(x3 ^ x4) of
S^2(Lambda^2 H).  The degree-two tree space is the quotient of S^2(Lambda^2 H)
by the image of Lambda^4 H under

    w ^ x ^ y ^ z  |->  (w^x)(y^z) - (w^y)(x^z) + (w^z)(x^y),

and is represented here by canonical normal forms.  Under the label order
a1 < b1 < a2 < b2 < ... no two embedded 4-tuples w < x < y < z share a key,
so the normal form rewrites each key ((w,x),(y,z)) with x < y by

    (w^x)(y^z)  ->  (w^y)(x^z) - (w^z)(x^y)

and keeps every other key: one rewrite per term, at any genus.  So
``a2_normalize`` takes no genus; ``tau2_bscc_twist``, the image of the twist
on a genus-1 bounding curve, is where a basis is checked against one.

Wedge keys store their two labels sorted (sign absorbed into the
coefficient) and symmetric-product keys store their two wedges sorted, so
the AS and leg-swap symmetries are structural.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import FreeVec
from .symplectic import DEFAULT_GENUS, hvec, max_index


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
    terms = []
    for ku, cu in u.items():
        for kv, cv in v.items():
            if ku == kv:
                continue
            if ku < kv:
                terms.append(((ku, kv), cu * cv))
            else:
                terms.append(((kv, ku), -cu * cv))
    return FreeVec(terms)


def sym_product(left: FreeVec, right: FreeVec) -> FreeVec:
    """Commutative product of two Lambda^2 vectors over sorted wedge pairs."""
    terms = []
    for kl, cl in left.items():
        for kr, cr in right.items():
            key = (kl, kr) if kl <= kr else (kr, kl)
            terms.append((key, cl * cr))
    return FreeVec(terms)


def tree_expand(t: HTree) -> FreeVec:
    """Expansion of the tree into S^2(Lambda^2 H)."""
    return sym_product(wedge_expand(t.x1, t.x2), wedge_expand(t.x3, t.x4))


def lambda4_embed(w, x, y, z) -> FreeVec:
    """Alternating image of w ^ x ^ y ^ z inside S^2(Lambda^2 H)."""
    w, x, y, z = hvec(w), hvec(x), hvec(y), hvec(z)
    return (tree_expand(HTree(w, x, y, z))
            - tree_expand(HTree(w, y, x, z))
            + tree_expand(HTree(w, z, x, y)))


def key_labels(key) -> tuple:
    """The four slot labels of a wedge-pair key, in stored order."""
    return key[0] + key[1]


def a2_normalize(v: FreeVec) -> FreeVec:
    """Canonical representative of ``v`` modulo the embedded Lambda^4 H, the
    same at every genus that holds the indices of ``v``."""
    data = {}
    for key, coeff in v.items():
        (w, x), (y, z) = key
        if x < y:
            data[(w, y), (x, z)] = data.get(((w, y), (x, z)), 0) + coeff
            data[(w, z), (x, y)] = data.get(((w, z), (x, y)), 0) - coeff
        else:
            data[key] = data.get(key, 0) + coeff
    return FreeVec._raw({k: c for k, c in data.items() if c})


def a2_equal(x: FreeVec, y: FreeVec) -> bool:
    """Equality in the tree space, i.e. modulo Lambda^4 H."""
    return a2_normalize(x - y).is_zero()


def tau2_bscc_twist(x, y, genus: int = DEFAULT_GENUS) -> FreeVec:
    """Image of the Dehn twist on a genus-1 bounding curve with subsurface basis (x, y).

    The twist maps to twice the tree with both legs (x, y), that is twice
    the square of the one wedge x ^ y; the result is returned in A2 normal
    form.  A basis index beyond ``genus`` is a ValueError.
    """
    x, y = hvec(x), hvec(y)
    top = max(max_index(x), max_index(y))
    if top > genus:
        raise ValueError("twist uses index %d beyond genus %d" % (top, genus))
    w = wedge_expand(x, y)
    return a2_normalize(2 * sym_product(w, w))

