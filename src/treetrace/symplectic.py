"""The symplectic module H = A + B and its GL-coinvariant reduction.

``H`` carries the standard symplectic basis a_1, b_1, ..., a_g, b_g: the
a_i span the Lagrangian A, the b_i span B.  One pairing lives on the basis
labels: the antisymmetric intersection form ``label_omega`` with
omega(a_i, b_j) = delta_ij and both Lagrangians isotropic.  On H the
Seifert form ``seifert_form``, L(u, v) = sum_k u_{a_k} v_{b_k}, gives
the intersection form as ``omega`` = L - L^T.  omega pairs a label only
with its partner (same index, other family); the pairings look partners up
in one private table, filled on the first sight of each label.

GL_g(Z) acts on A by a matrix G and on B by its inverse transpose; the
action on tensor powers is factor-wise.  ``coinvariant_reduce`` rewrites a
tensor as a combination of balanced "chord" tensors, the generators of the
coinvariant quotient of an even tensor power, in closed form: a basic
tensor with p_i slots a_i and p_i slots b_i for every index i is the sum of
the prod p_i! chords of its matchings (a bijection from the a_i slots to
the b_i slots for each i), each with coefficient 1; an unbalanced basic
tensor is 0.

The chords of a small basic tensor (degree/2 <= 5) are kept in a bounded
process-wide memo keyed on the exact tensor: at most 32 tensors of at most
5! = 120 chords each.  It hits when a GL orbit check reduces t and then
g.t: a ``SignFlip`` image is +-t itself, and the one balanced term of an
``Elementary`` image that adds an unused index is t again.  A
``Transposition`` image renames indices, so it is a different tensor and
misses.
"""

from __future__ import annotations

from functools import cache, lru_cache as _lru_cache
from itertools import product
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


class _PartnerTable(dict):
    # label -> (its omega-partner, its code); an entry is made on the first
    # lookup of its label, so there are two per index in use.
    def __missing__(self, u):
        if u.family == FAMILY_A:
            entry = self[u] = (BasisLabel(u.index, FAMILY_B), 2 * u.index)
        else:
            entry = self[u] = (BasisLabel(u.index, FAMILY_A), 2 * u.index + 1)
        return entry


# The one table of omega-partners.  omega(u, v) is nonzero only for v the
# partner u' of u (same index, other family), where it is +1 for u = a_i
# and -1 for u = b_i.  The code of a_i is 2i and that of b_i is 2i + 1: an
# int in the key order of the labels, whose parity is the family and whose
# partner's code is ``code ^ 1``.
_PARTNERS = _PartnerTable()


def label_omega(u: BasisLabel, v: BasisLabel) -> int:
    """Intersection pairing on basis labels: omega(a_i, b_i) = 1, antisymmetric."""
    if u.index != v.index or u.family == v.family:
        return 0
    return 1 if u.family == FAMILY_A else -1


def seifert_form(u: FreeVec, v: FreeVec):
    """Seifert form L(u, v) = sum_k u_{a_k} v_{b_k} on H, exact."""
    partners, get = _PARTNERS, v._terms.get
    total = 0
    for k, c in u._terms.items():
        if k.family == FAMILY_A:
            total += c * get(partners[k][0], 0)
    return total


def omega(u: FreeVec, v: FreeVec):
    """Bilinear extension of the intersection form to H: L(u, v) - L(v, u)."""
    return seifert_form(u, v) - seifert_form(v, u)


def max_index(u: FreeVec) -> int:
    """Largest basis index appearing in an H vector (0 for the zero vector)."""
    return max((k.index for k in u._terms), default=0)


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


def _check_generator(gen: GLGenerator):
    if isinstance(gen, SignFlip):
        if gen.j < 1:
            raise ValueError("generator %r uses an index below 1" % (gen,))
        return
    if not isinstance(gen, (Transposition, Elementary)):
        raise TypeError("not a GL generator: %r" % (gen,))
    i, j = gen.i, gen.j
    if i < 1 or j < 1:
        raise ValueError("generator %r uses an index below 1" % (gen,))
    if i == j:
        raise ValueError("generator %r needs distinct indices" % (gen,))
    if isinstance(gen, Elementary) and gen.sign not in (1, -1):
        raise ValueError("elementary generator sign must be +1 or -1")


def _label_image(gen: GLGenerator, label: BasisLabel) -> list:
    # Image of one label under a checked generator.
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
    if label.family == FAMILY_A and label.index == gen.j:
        return [(label, 1), (a(gen.i), gen.sign)]
    if label.family == FAMILY_B and label.index == gen.i:
        return [(label, 1), (b(gen.j), -gen.sign)]
    return [(label, 1)]


def generator_label_image(gen: GLGenerator, label: BasisLabel) -> list:
    """Image of one basis label under a generator, as (label, int coeff) pairs."""
    _check_generator(gen)
    return _label_image(gen, label)


def gl_generator_action(gen: GLGenerator, t) -> FreeVec:
    """Diagonal action of a generator on a tensor-power vector.

    ``t`` is a FreeVec over basic tensors (tuples of labels) or a bare tuple.
    The generator is checked once, before any term, and each distinct
    label's image is computed once per call.
    """
    _check_generator(gen)
    images = {}
    out = {}
    for tensor, coeff in [(t, 1)] if isinstance(t, tuple) else t.items():
        factors = []
        for label in tensor:
            factor = images.get(label)
            if factor is None:
                factor = images[label] = _label_image(gen, label)
            factors.append(factor)
        # Factor-wise expansion; images of different tensors can cancel.
        for choice in product(*factors):
            image = tuple([lbl for lbl, _ in choice])
            acc = coeff
            for _, ic in choice:
                acc *= ic
            acc += out.get(image, 0)
            if acc:
                out[image] = acc
            else:
                del out[image]
    return FreeVec._raw(out)


# ---------------------------------------------------------------------------
# Coinvariant reduction to chord generators
# ---------------------------------------------------------------------------


@cache
def _chord_labels(n: int) -> dict:
    # Per family: (own, other) labels of pairs 1..n, at positions 0..n-1.
    # Kept per degree, since a reduction would otherwise spend as long
    # making these labels as pairing the slots of a small tensor.
    a_labels = tuple(a(k) for k in range(1, n + 1))
    b_labels = tuple(b(k) for k in range(1, n + 1))
    return {FAMILY_A: (a_labels, b_labels), FAMILY_B: (b_labels, a_labels)}


def _chords(tensor: tuple) -> list:
    """The chords of a balanced basic tensor, one per matching.

    Slots are paired from left to right: the first unpaired slot opens pair
    k, labelled a_k or b_k by its own family, and is closed in turn at each
    later unpaired slot of the same index and the other family; the last
    pair is forced.  So each leaf is one matching, already numbered by
    first slot.
    """
    labels = _chord_labels(len(tensor) // 2)
    chord = [None] * len(tensor)
    last = len(tensor) // 2 - 1
    slots = {}
    for slot, label in enumerate(tensor):
        slots.setdefault(label, []).append(slot)
    twins = [slots[index, FAMILY_B if family == FAMILY_A else FAMILY_A]
             for index, family in tensor]
    out = []

    def pair(slot, k):
        slot = chord.index(None, slot)
        # The family is read by position, as the balance count reads it, so
        # a plain (index, family) pair reduces as its equal label does,
        # memoized or not.
        own, other = labels[tensor[slot][1]]
        chord[slot] = own[k]
        if k == last:
            partner = chord.index(None, slot)
            chord[partner] = other[k]
            out.append(tuple(chord))
            chord[partner] = None
        else:
            for partner in twins[slot]:
                if partner > slot and chord[partner] is None:
                    chord[partner] = other[k]
                    pair(slot + 1, k + 1)
                    chord[partner] = None
        chord[slot] = None

    try:
        pair(0, 0)
    except RecursionError:
        raise ValueError("tensor of degree %d has too many slot pairs to "
                         "reduce" % len(tensor)) from None
    return out


# Largest n = degree/2 whose tensors' chords are memoized: at most 5! = 120
# chords an entry, so at most 32 * 120 chords in the memo.
_MEMO_PAIRS = 5


@_lru_cache(maxsize=32)
def _tensor_chords(tensor: tuple) -> tuple:
    # The chords of a recently reduced small tensor, kept so that reducing
    # it again (as a GL orbit check does) pairs no slot.
    return tuple(_chords(tensor))


def coinvariant_reduce(t, genus: int) -> FreeVec:
    """Class of a degree-2n tensor in the GL-coinvariants, over chord tensors.

    Requires 1 <= n < genus and all indices within the genus.  A basic
    tensor with an unbalanced index (different numbers of a_i and b_i)
    dies; a balanced one is the sum of one chord per matching, each with
    coefficient 1: the k-th pair of the matching, by first slot, becomes
    a_k and b_k.  So the output is supported on balanced chord tensors in
    which every index pair appears once, renamed ascending by first
    occurrence, and distinct matchings give distinct chords.

    The chords of a balanced tensor of degree at most 10 come from a memo
    of the last 32 such tensors, keyed on the exact tensor, so reducing t
    and then its ``SignFlip`` or ``Elementary`` image (whose balanced term
    is t again) enumerates t's matchings once; a ``Transposition`` image
    is another tensor and misses.  The degree, genus and balance checks
    run on every call and every term before the memo is read.
    """
    if genus < 2:
        raise ValueError("coinvariants need genus >= 2, got genus %d" % genus)
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
    chords = _tensor_chords if n <= _MEMO_PAIRS else _chords
    for tensor, coeff in items:
        balance = {}  # index -> count of a_index minus count of b_index
        for index, family in tensor:
            if not 0 < index <= genus:
                raise ValueError("tensor uses indices outside genus %d" % genus)
            balance[index] = balance.get(index, 0) + (
                1 if family == FAMILY_A else -1)
        if any(balance.values()):
            continue
        if not out:
            # Distinct matchings give distinct chords.
            out = dict.fromkeys(chords(tensor), coeff)
            continue
        for key in chords(tensor):
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
    return FreeVec._raw(out)
