"""The symplectic module H = A + B and its GL-coinvariant reduction.

``H`` carries the standard symplectic basis a_1, b_1, ..., a_g, b_g: the
a_i span the Lagrangian A, the b_i span B.  Two pairings live on the basis
labels: the antisymmetric intersection form ``label_omega`` with
omega(a_i, b_j) = delta_ij, and the symmetric pairing ``label_omega_bar``
with omega_bar(a_i, b_j) = delta_ij and both Lagrangians isotropic.  On H
the Seifert form ``seifert_form``, L(u, v) = sum_k u_{a_k} v_{b_k}, gives
the intersection form as ``omega`` = L - L^T.

GL_g(Z) acts on A by a matrix G and on B by its inverse transpose; the
action on tensor powers is factor-wise.  ``coinvariant_reduce`` rewrites a
tensor as a combination of balanced "chord" tensors, the generators of the
coinvariant quotient of an even tensor power, in closed form: a basic
tensor with p_i slots a_i and p_i slots b_i for every index i is the sum of
the prod p_i! chords of its matchings (a bijection from the a_i slots to
the b_i slots for each i), each with coefficient 1; an unbalanced basic
tensor is 0.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from typing import NamedTuple, Union

from .exact import FreeVec

DEFAULT_GENUS = 5

FAMILY_A = "a"
FAMILY_B = "b"


class BasisLabel(NamedTuple):
    """One symplectic basis vector: a_index or b_index."""

    index: int
    family: str

    def __str__(self):
        return "%s%d" % (self.family, self.index)


def a(i: int) -> BasisLabel:
    return BasisLabel(i, FAMILY_A)


def b(i: int) -> BasisLabel:
    return BasisLabel(i, FAMILY_B)


def basis_labels(genus: int) -> list:
    """All labels a_1 < b_1 < a_2 < ... < b_genus in the global key order."""
    out = []
    for i in range(1, genus + 1):
        out.append(a(i))
        out.append(b(i))
    return out


def hvec(label_or_vec) -> FreeVec:
    """Coerce a bare label to the corresponding basis vector of H."""
    if isinstance(label_or_vec, FreeVec):
        return label_or_vec
    if not isinstance(label_or_vec, BasisLabel):
        raise TypeError("expected a BasisLabel or a FreeVec over labels")
    return FreeVec.single(label_or_vec)


def label_omega(u: BasisLabel, v: BasisLabel) -> int:
    """Intersection pairing on basis labels: omega(a_i, b_i) = 1, antisymmetric."""
    if u.index != v.index or u.family == v.family:
        return 0
    return 1 if u.family == FAMILY_A else -1


def label_omega_bar(u: BasisLabel, v: BasisLabel) -> int:
    """Symmetric pairing on basis labels: a_i and b_i pair to 1, A and B isotropic."""
    if u.index != v.index or u.family == v.family:
        return 0
    return 1


def seifert_form(u: FreeVec, v: FreeVec):
    """Seifert form L(u, v) = sum_k u_{a_k} v_{b_k} on H, exact."""
    return sum(c * v.coeff(b(k.index))
               for k, c in u.items() if k.family == FAMILY_A)


def omega(u: FreeVec, v: FreeVec):
    """Bilinear extension of the intersection form to H: L(u, v) - L(v, u)."""
    return seifert_form(u, v) - seifert_form(v, u)


def max_index(u: FreeVec) -> int:
    """Largest basis index appearing in an H vector (0 for the zero vector)."""
    return max((k.index for k, _ in u.items()), default=0)


# ---------------------------------------------------------------------------
# GL_g(Z) generators and their diagonal action
# ---------------------------------------------------------------------------


class Transposition(NamedTuple):
    """Index swap i <-> j on both families."""

    i: int
    j: int


class SignFlip(NamedTuple):
    """Negation of a_j and b_j."""

    j: int


class Elementary(NamedTuple):
    """Elementary matrix sending a_j to a_j + sign*a_i, hence b_i to b_i - sign*b_j."""

    i: int
    j: int
    sign: int


GLGenerator = Union[Transposition, SignFlip, Elementary]


def generator_label_image(gen: GLGenerator, label: BasisLabel):
    """Image of one basis label under a generator, as (label, int coeff) pairs."""
    if isinstance(gen, Transposition):
        if label.index == gen.i:
            return [(BasisLabel(gen.j, label.family), 1)]
        if label.index == gen.j:
            return [(BasisLabel(gen.i, label.family), 1)]
        return [(label, 1)]
    if isinstance(gen, SignFlip):
        if label.index == gen.j:
            return [(label, -1)]
        return [(label, 1)]
    if isinstance(gen, Elementary):
        if gen.sign not in (1, -1):
            raise ValueError("elementary generator sign must be +1 or -1")
        if gen.i == gen.j:
            raise ValueError("elementary generator needs distinct indices")
        if label.family == FAMILY_A and label.index == gen.j:
            return [(label, 1), (a(gen.i), gen.sign)]
        if label.family == FAMILY_B and label.index == gen.i:
            return [(label, 1), (b(gen.j), -gen.sign)]
        return [(label, 1)]
    raise TypeError("not a GL generator: %r" % (gen,))


def _tensor_images(gen: GLGenerator, tensor: tuple):
    # Factor-wise expansion of gen . (basic tensor); integer coefficients.
    expanded = [((), 1)]
    for label in tensor:
        images = generator_label_image(gen, label)
        expanded = [(prefix + (lbl,), c * ic)
                    for prefix, c in expanded
                    for lbl, ic in images]
    return expanded


def gl_generator_action(gen: GLGenerator, t) -> FreeVec:
    """Diagonal action of a generator on a tensor-power vector.

    ``t`` is a FreeVec over basic tensors (tuples of labels) or a bare tuple.
    """
    out = {}
    for tensor, coeff in [(t, 1)] if isinstance(t, tuple) else t.items():
        # Images of different tensors can cancel, so drop zero sums.
        for image, ic in _tensor_images(gen, tensor):
            acc = out.get(image, 0) + coeff * ic
            if acc:
                out[image] = acc
            else:
                del out[image]
    return FreeVec._raw(out)


# ---------------------------------------------------------------------------
# Coinvariant reduction to chord generators
# ---------------------------------------------------------------------------


def _matchings(tensor: tuple, genus: int):
    """Yield every matching of one basic tensor; none if it is unbalanced.

    A matching pairs, for every index i, the p_i slots holding a_i with the
    p_i slots holding b_i, so a balanced tensor has prod p_i! of them.  Each
    is given as its pairs (first slot, a_i slot, b_i slot), sorted.
    """
    a_slots, b_slots = {}, {}
    for slot, (index, family) in enumerate(tensor):
        if not 0 < index <= genus:
            raise ValueError("tensor uses indices outside genus %d" % genus)
        slots = a_slots if family == FAMILY_A else b_slots
        slots.setdefault(index, []).append(slot)
    if len(a_slots) != len(b_slots):
        return
    choices = []
    for index, tops in a_slots.items():
        bottoms = b_slots.get(index)
        if bottoms is None or len(bottoms) != len(tops):
            return
        choices.append([[(s if s < t else t, s, t) for s, t in zip(tops, perm)]
                        for perm in permutations(bottoms)])
    for parts in product(*choices):
        yield sorted(chain.from_iterable(parts))


def coinvariant_reduce(t, genus: int) -> FreeVec:
    """Class of a degree-2n tensor in the GL-coinvariants, over chord tensors.

    Requires 1 <= n < genus and all indices within the genus.  A basic
    tensor with an unbalanced index (different numbers of a_i and b_i)
    dies; a balanced one is the sum of one chord per matching, each with
    coefficient 1: the k-th pair of the matching, by first slot, becomes
    a_k and b_k.  So the output is supported on balanced chord tensors in
    which every index pair appears once, renamed ascending by first
    occurrence, and distinct matchings give distinct chords.
    """
    items = [(t, 1)] if isinstance(t, tuple) else t.items()
    degrees = {len(tensor) for tensor, _ in items}
    if len(degrees) > 1:
        raise ValueError("tensor combination mixes degrees %s" % sorted(degrees))
    out = {}
    if not items:
        return FreeVec._raw(out)
    degree = degrees.pop()
    if degree % 2 != 0:
        raise ValueError("tensor degree must be even, got %d" % degree)
    n = degree // 2
    if not 1 <= n < genus:
        raise ValueError(
            "degree %d needs 1 <= degree/2 < genus, got genus %d"
            % (degree, genus))
    labels = None  # chord labels by family and number, built on first use
    chord = [None] * degree
    for tensor, coeff in items:
        for pairs in _matchings(tensor, genus):
            if labels is None:
                numbers = range(1, n + 1)
                labels = ([BasisLabel(k, FAMILY_A) for k in numbers],
                          [BasisLabel(k, FAMILY_B) for k in numbers])
            for (_, a_slot, b_slot), a_label, b_label in zip(pairs, *labels):
                chord[a_slot] = a_label
                chord[b_slot] = b_label
            key = tuple(chord)
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
    return FreeVec._raw(out)
