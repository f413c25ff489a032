"""The symplectic module H = A + B and its GL-coinvariant reduction.

``H`` carries the standard symplectic basis a_1, b_1, ..., a_g, b_g: the
a_i span the Lagrangian A, the b_i span B.  One pairing lives on the basis
labels: the antisymmetric intersection form ``label_omega`` with
omega(a_i, b_j) = delta_ij and both Lagrangians isotropic.  On H the
Seifert form ``seifert_form``, L(u, v) = sum_k u_{a_k} v_{b_k}, gives
the intersection form as ``omega`` = L - L^T.  A label is its int code
2i + f, f = 0 for a and 1 for b, and omega pairs it only with its partner
(same index, other family), whose code is ``label ^ 1``.

GL_g(Z) acts on A by a matrix G and on B by its inverse transpose; the
action on tensor powers is factor-wise.  ``coinvariant_reduce`` rewrites a
tensor as a combination of balanced "chord" tensors, the generators of the
coinvariant quotient of an even tensor power, in closed form: a basic
tensor with p_i slots a_i and p_i slots b_i for every index i is the sum of
the prod p_i! chords of its matchings (a bijection from the a_i slots to
the b_i slots for each i), each with coefficient 1; an unbalanced basic
tensor is 0.

The chords of a basic tensor depend only on its slot pattern: each slot
coded 2r + f, with r the rank of its index by first occurrence and f = 0
for a, 1 for b.  Those of a small pattern (degree/2 <= 5) are kept in a
bounded process-wide memo: at most 32 patterns of at most 5! = 120 chords
each.  It hits when a GL orbit check reduces t and then g.t: a
``SignFlip`` image is +-t itself, a ``Transposition`` image renames
indices and keeps the pattern, and the one balanced term of an
``Elementary`` image that adds an unused index is t again.
"""

from __future__ import annotations

from functools import cache, lru_cache as _lru_cache
from itertools import product
from math import factorial as _factorial, prod as _prod
from operator import index as _index
from typing import NamedTuple, Union

from .exact import FreeVec

DEFAULT_GENUS = 5

FAMILY_A = "a"
FAMILY_B = "b"


class BasisLabel(int):
    """One symplectic basis vector a_index or b_index, as its int code
    2*index + f, f = 0 for a and 1 for b: the family bit is ``label & 1``,
    the index ``label >> 1`` and the omega-partner's code ``label ^ 1``.

    ``BasisLabel(index, family)`` refuses a family other than "a" or "b"
    and an index below 1 (ValueError), and an index that is not an int
    (TypeError), so every label names a basis vector.  ``str`` (a1),
    ``repr`` and the order a1 < b1 < a2 < ... are those of an (index,
    family) pair.  As an int, a label equals and hashes as its code
    (``a(1) == 2``), ``%d`` prints the code and ``exact.scalar`` admits a
    label as a coefficient.
    """

    __slots__ = ()

    def __new__(cls, index: int, family: str):
        if family != FAMILY_A and family != FAMILY_B:
            raise ValueError("basis label family must be 'a' or 'b', got %r"
                             % (family,))
        index = _index(index)
        if index < 1:
            raise ValueError("basis label index must be at least 1, got %d"
                             % index)
        return int.__new__(cls, 2 * index + (family == FAMILY_B))

    @property
    def index(self) -> int:
        return self >> 1

    @property
    def family(self) -> str:
        return FAMILY_B if self & 1 else FAMILY_A

    def __getnewargs__(self):
        return self >> 1, self.family

    def __str__(self):
        return "%s%d" % (self.family, self >> 1)

    def __repr__(self):
        return "BasisLabel(index=%r, family=%r)" % (self >> 1, self.family)


def a(i: int) -> BasisLabel:
    return BasisLabel(i, FAMILY_A)


def b(i: int) -> BasisLabel:
    return BasisLabel(i, FAMILY_B)


def basis_labels(genus: int) -> list:
    """All labels a_1 < b_1 < a_2 < ... < b_genus, in sorted key order."""
    out = []
    for i in range(1, genus + 1):
        out.append(a(i))
        out.append(b(i))
    return out


def hvec(label_or_vec) -> FreeVec:
    """Coerce a bare label to the corresponding basis vector of H; anything
    else but a FreeVec is a TypeError."""
    if isinstance(label_or_vec, FreeVec):
        return label_or_vec
    _check_label(label_or_vec)
    return FreeVec.single(label_or_vec)


def _check_label(label):
    # The one refusal of a key that is not a label.
    if not isinstance(label, BasisLabel):
        raise TypeError("label of type %s is not a BasisLabel"
                        % type(label).__name__)


def _check_labels(labels, genus: int, what: str = "twist"):
    # Every key of ``labels`` is a label (so its index is at least 1) with
    # index at most ``genus``.  The loop is the fast path; a failure refuses
    # the first key that is not a label, else names the largest index.
    for label in labels:
        if not (isinstance(label, BasisLabel) and label >> 1 <= genus):
            break
    else:
        return
    for label in labels:
        _check_label(label)
    raise ValueError("%s uses index %d beyond genus %d"
                     % (what, max(labels) >> 1, genus))


def label_omega(u: BasisLabel, v: BasisLabel) -> int:
    """Intersection pairing on basis labels: omega(a_i, b_i) = 1,
    antisymmetric; an argument not a ``BasisLabel`` is a TypeError."""
    _check_label(u)
    _check_label(v)
    return 0 if u ^ v != 1 else -1 if u & 1 else 1


def seifert_form(u: FreeVec, v: FreeVec):
    """Seifert form L(u, v) = sum_k u_{a_k} v_{b_k} on H, exact."""
    get = v._terms.get
    total = 0
    for k, c in u._terms.items():
        if not k & 1:
            total += c * get(k ^ 1, 0)
    return total


def omega(u: FreeVec, v: FreeVec):
    """Bilinear extension of the intersection form to H: L(u, v) - L(v, u)."""
    return seifert_form(u, v) - seifert_form(v, u)


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
    index = label >> 1
    if isinstance(gen, Transposition):
        if index == gen.i or index == gen.j:
            return [((a, b)[label & 1](gen.i + gen.j - index), 1)]
        return [(label, 1)]
    if isinstance(gen, SignFlip):
        return [(label, -1 if index == gen.j else 1)]
    if not label & 1 and index == gen.j:
        return [(label, 1), (a(gen.i), gen.sign)]
    if label & 1 and index == gen.i:
        return [(label, 1), (b(gen.j), -gen.sign)]
    return [(label, 1)]


def gl_generator_action(gen: GLGenerator, t) -> FreeVec:
    """Diagonal action of a generator on a tensor-power vector.

    ``t`` is a FreeVec over basic tensors (tuples of labels) or a bare tuple.
    The generator is checked once, before any term, and each distinct
    label's image is made once per call; a slot that is not a
    ``BasisLabel`` is a TypeError.
    """
    _check_generator(gen)
    images = {}
    out = {}
    for tensor, coeff in [(t, 1)] if isinstance(t, tuple) else t.items():
        factors = []
        for label in tensor:
            if not isinstance(label, BasisLabel):
                _check_label(label)
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
def _chord_labels(n: int) -> tuple:
    # Per family bit: (own, other) labels of pairs 1..n, at positions
    # 0..n-1.  Kept per degree, since a reduction would otherwise spend as
    # long making these labels as pairing the slots of a small tensor.
    a_labels = tuple(a(k) for k in range(1, n + 1))
    b_labels = tuple(b(k) for k in range(1, n + 1))
    return (a_labels, b_labels), (b_labels, a_labels)


def _chords(pattern: tuple) -> dict:
    """The chords of a balanced slot pattern, one per matching, as the
    dict {chord: 1}.

    Slots are paired from left to right: the first unpaired slot opens
    pair k, labelled a_k or b_k by its family ``code & 1``, and is closed
    in turn at each later unpaired twin (code ``code ^ 1``); the last pair
    is forced.  So each leaf is one matching, already numbered by first
    slot.
    """
    labels = _chord_labels(len(pattern) // 2)
    chord = [None] * len(pattern)
    last = len(pattern) // 2 - 1
    slots = [[] for _ in pattern]  # code -> its slots; codes < len(pattern)
    for slot, code in enumerate(pattern):
        slots[code].append(slot)
    twins = [slots[code ^ 1] for code in pattern]
    out = {}

    def pair(slot, k):
        slot = chord.index(None, slot)
        own, other = labels[pattern[slot] & 1]
        chord[slot] = own[k]
        if k == last:
            partner = chord.index(None, slot)
            chord[partner] = other[k]
            out[tuple(chord)] = 1
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
                         "reduce" % len(pattern)) from None
    return out


# Largest n = degree/2 whose patterns' chords are memoized: at most 5! = 120
# chords an entry, so at most 32 * 120 chords in the memo.
_MEMO_PAIRS = 5
_MAX_CHORDS = 362880  # 9!, the most chords one reduction may build


@_lru_cache(maxsize=32)
def _pattern_chords(pattern: tuple) -> dict:
    # The chords of a recently reduced small pattern, kept so that reducing
    # any tensor of that pattern again (as a GL orbit check does) pairs no
    # slot.  Callers copy the dict before they change it.
    return _chords(pattern)


def coinvariant_reduce(t, genus: int) -> FreeVec:
    """Class of a degree-2n tensor in the GL-coinvariants, over chord tensors.

    Requires 1 <= n < genus, every slot a ``BasisLabel`` (else a
    TypeError) and every index at most the genus.  A basic tensor with an
    unbalanced index (different numbers of a_i and b_i) dies; a balanced
    one is the sum of one chord per matching, each with coefficient 1: the
    k-th pair of the matching, by first slot, becomes a_k and b_k.  So the
    output is supported on balanced chord tensors in which every index pair
    appears once, renamed ascending by first occurrence, and distinct
    matchings give distinct chords.  A tensor of more than 9! = 362 880
    chords is refused before any is built: reducing a1^9 b1^9 (9! chords,
    genus 10) takes about 1 s and 110 MB of peak RSS (Python 3.11, 2 shared
    vCPUs), 10! ten times that, and so is a combination whose terms have
    more than 9! in all.

    The chords of a balanced tensor of degree at most 10 come from a memo
    of the last 32 slot patterns, so reducing t and then any image with its
    pattern (+-t, a ``Transposition`` image, the balanced term of an
    ``Elementary`` image) enumerates t's matchings once.  The degree,
    genus, slot type, balance and chord-count checks run on every call and
    every term before the memo is read.
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
    # Every term is checked before any chord is read from the memo or built.
    balanced = []
    chords = 0
    for tensor, coeff in items:
        ranks = {}   # index -> 2 * its rank by first occurrence
        counts = []  # code -> its number of slots
        pattern = []
        for label in tensor:
            if not isinstance(label, BasisLabel):
                _check_label(label)
            index = label >> 1
            code = ranks.get(index)
            if code is None:
                if index > genus:
                    raise ValueError(
                        "tensor uses indices outside genus %d" % genus)
                code = ranks[index] = len(counts)
                counts += 0, 0
            code += label & 1
            counts[code] += 1
            pattern.append(code)
        if counts[::2] != counts[1::2]:
            continue
        # prod p_i! chords, p_i the a-slots of an index.
        chords += _prod(map(_factorial, counts[::2]))
        balanced.append((tuple(pattern), coeff))
    if chords > _MAX_CHORDS:
        raise ValueError("tensor of degree %d has more than 9! = 362880 "
                         "chords to enumerate" % degree)
    chords_of = _pattern_chords if n <= _MEMO_PAIRS else _chords
    for pattern, coeff in balanced:
        found = chords_of(pattern)
        if not out:
            # Distinct matchings give distinct chords.  A memo entry is
            # copied, with its hashes; a Fraction 1 stays a Fraction.
            if coeff == 1 and type(coeff) is int:
                out = dict(found) if chords_of is _pattern_chords else found
            else:
                out = dict.fromkeys(found, coeff)
            continue
        for key in found:
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
    return FreeVec._raw(out)
