import copy
import pickle
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    _partner,
    all_generators,
    gl_hvec_action,
    omega_written_out,
    rand_basic_tensor,
    rand_hvec,
    split_coinvariant_reduce,
)
from treetrace import symplectic
from treetrace.exact import FreeVec
from treetrace.symplectic import (
    _check_labels,
    _pattern_chords,
    FAMILY_A,
    BasisLabel,
    Elementary,
    SignFlip,
    Transposition,
    a,
    b,
    basis_labels,
    coinvariant_reduce,
    gl_generator_action,
    hvec,
    label_omega,
    omega,
    seifert_form,
)


def test_label_order_matches_global_key_order():
    assert basis_labels(2) == sorted(basis_labels(2))
    assert a(1) < b(1) < a(2) < b(2)


def test_omega_on_basis():
    assert omega(hvec(a(1)), hvec(b(1))) == 1
    assert omega(hvec(b(1)), hvec(a(1))) == -1
    assert omega(hvec(a(1)), hvec(a(1))) == 0
    assert omega(hvec(a(1)), hvec(b(2))) == 0


def test_partner_table_pairs_each_label_with_its_partner():
    labels = basis_labels(7)
    for i in range(1, 8):
        assert a(i) ^ 1 == b(i) and b(i) ^ 1 == a(i)
    for u in labels:
        # ``label_omega`` takes labels only, so the partner is built as one.
        partner = _partner(u)
        assert u ^ 1 == partner
        assert label_omega(u, partner) == (1 if u.family == FAMILY_A else -1)
        # omega pairs u with its partner and nothing else.
        assert [v for v in labels if label_omega(u, v)] == [partner]
    # Codes follow the key order of the labels.
    assert [int(u) for u in labels] == list(range(2, 16))


INDICES = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                    st.integers(10 ** 30, 10 ** 40),
                    st.integers(-10 ** 40, -10 ** 30))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(INDICES, st.sampled_from("ab")), min_size=1,
                max_size=8))
def test_labels_keep_the_contract_of_index_family_pairs(pairs):
    # An index below 1 names no basis vector: such a label is refused when
    # it is built, and every other pair keeps the contract.
    for i, f in pairs:
        if i < 1:
            with pytest.raises(ValueError, match="^basis label index must "
                               "be at least 1, got %d$" % i):
                BasisLabel(i, f)
    pairs = [(i, f) for i, f in pairs if i >= 1]
    labels = [BasisLabel(i, f) for i, f in pairs]
    assert sorted(labels) == [BasisLabel(i, f) for i, f in sorted(pairs)]
    for label, (i, f) in zip(labels, pairs):
        assert isinstance(label, int)
        assert (label.index, label.family) == (i, f)
        assert str(label) == "%s%d" % (f, i)
        assert repr(label) == "BasisLabel(index=%r, family=%r)" % (i, f)
        assert label ^ 1 == _partner(label)
        for other in labels + [_partner(label)]:
            assert label_omega(label, other) == omega_written_out(label, other)
        for twin in (copy.copy(label), copy.deepcopy(label),
                     pickle.loads(pickle.dumps(label))):
            assert type(twin) is BasisLabel and twin == label
            assert (twin.index, twin.family) == (i, f)
        for family in ("c", "A"):
            with pytest.raises(ValueError, match="family must be 'a' or 'b'"):
                BasisLabel(i, family)
    # An index that is not an int is refused, not rounded into another label.
    for index in (1.5, 2.0, "1", Fraction(3, 1)):
        with pytest.raises(TypeError):
            BasisLabel(index, "a")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_seifert_form_is_the_sum_over_indices(data):
    genus = data.draw(st.integers(1, 5))
    coeff = st.sampled_from((-3, -1, 2, Fraction(1, 2), Fraction(-5, 3)))
    vector = st.dictionaries(st.sampled_from(basis_labels(genus)),
                             coeff).map(FreeVec)
    u, v = data.draw(vector), data.draw(vector)
    want = sum(u.coeff(a(k)) * v.coeff(b(k)) for k in range(1, genus + 1))
    assert seifert_form(u, v) == want
    assert omega(u, v) == want - sum(v.coeff(a(k)) * u.coeff(b(k))
                                     for k in range(1, genus + 1))


def test_hvec_takes_only_labels_and_vectors():
    assert hvec(a(3)) == FreeVec.single(a(3))
    for value in (3, "a3", (3, "a")):
        with pytest.raises(TypeError):
            hvec(value)


def test_check_labels_names_the_largest_index_beyond_the_genus():
    _check_labels((), 1)
    _check_labels(FreeVec([(a(4), 1), (a(4), -1)])._terms, 1)
    _check_labels([b(3), a(1), a(3)], 3, "tree")
    with pytest.raises(ValueError) as err:
        _check_labels([b(7), a(2), a(9)], 5)
    assert str(err.value) == "twist uses index 9 beyond genus 5"
    with pytest.raises(ValueError) as err:
        _check_labels([a(2), b(4)], 3, "tree")
    assert str(err.value) == "tree uses index 4 beyond genus 3"
    # A non-label is refused as one, also after a label beyond the genus.
    for labels in ([a(9), 3], [3, a(1)], [a(1), (1, "a")]):
        with pytest.raises(TypeError, match="is not a BasisLabel"):
            _check_labels(labels, 5)
    rng = random.Random(2002)
    for _ in range(100):
        keys = rand_hvec(rng, 9, max_terms=4)._terms
        top = max((k.index for k in keys), default=0)
        _check_labels(keys, top)
        if keys:
            with pytest.raises(ValueError, match="index %d " % top):
                _check_labels(keys, top - 1)


def test_omega_bilinear_expansion():
    u = FreeVec({a(1): 1, b(1): 1})
    v = FreeVec({a(2): 1, b(1): -1, b(2): 1})
    assert omega(u, v) == -1


def test_pairing_symmetries_randomized():
    rng = random.Random(2001)
    for _ in range(150):
        u = rand_hvec(rng, 4)
        v = rand_hvec(rng, 4)
        assert omega(u, v) == -omega(v, u)


def test_sign_flip_action():
    t = FreeVec.single((a(1), b(2)))
    assert gl_generator_action(SignFlip(1), t) == -1 * t
    assert gl_generator_action(SignFlip(3), t) == t


def test_elementary_action_on_a_side():
    got = gl_generator_action(Elementary(1, 5, 1), (a(5), a(1)))
    want = FreeVec({(a(5), a(1)): 1, (a(1), a(1)): 1})
    assert got == want


def test_elementary_action_on_both_sides():
    # a5 -> a5 - a1 together with b1 -> b1 + b5.
    got = gl_generator_action(Elementary(1, 5, -1), (a(5), b(1)))
    want = FreeVec({
        (a(5), b(1)): 1, (a(5), b(5)): 1,
        (a(1), b(1)): -1, (a(1), b(5)): -1,
    })
    assert got == want


def test_transposition_action():
    got = gl_generator_action(Transposition(1, 2), (a(1), b(2)))
    assert got == FreeVec.single((a(2), b(1)))


def test_generator_action_refuses_a_slot_that_is_not_a_label():
    # As ``hvec``: a plain pair or a bare int code is a TypeError, also
    # after a label of the same code.
    for t in ((a(1), (1, "b")), (a(1), 3), (b(1), 3, a(1))):
        with pytest.raises(TypeError, match="^label of type "
                           "(tuple|int) is not a BasisLabel$"):
            gl_generator_action(SignFlip(1), t)


@pytest.mark.parametrize("label", [3, (1, "b"), "b1"],
                         ids=["int", "pair", "str"])
def test_label_functions_refuse_a_key_that_is_not_a_label(label):
    # Checked before any bit is read: a bare int code would otherwise pass
    # as the label it codes, and a pair would fail on ``>>``.
    message = "^label of type %s is not a BasisLabel$" % type(label).__name__
    with pytest.raises(TypeError, match=message):
        gl_generator_action(SignFlip(1), (label,))
    for u, v in ((label, b(1)), (a(1), label), (label, label)):
        with pytest.raises(TypeError, match=message):
            label_omega(u, v)


def test_generator_is_checked_before_any_term():
    # Even with no label to act on, a bad generator is refused.
    with pytest.raises(ValueError):
        gl_generator_action(Elementary(1, 2, 3), ())
    with pytest.raises(ValueError):
        gl_generator_action(Elementary(1, 1, 1), FreeVec())
    with pytest.raises(TypeError):
        gl_generator_action((1, 2), FreeVec())


@pytest.mark.parametrize("gen", [
    Transposition(1, 0), Transposition(0, 2), Transposition(2, 2),
    SignFlip(0), SignFlip(-4), Elementary(0, 1, 1), Elementary(1, -2, -1),
    Elementary(2, 2, 1)])
def test_generator_with_an_index_below_one_or_a_repeated_index_is_refused(gen):
    with pytest.raises(ValueError):
        gl_generator_action(gen, (a(1), b(1)))
    with pytest.raises(ValueError):
        gl_generator_action(gen, FreeVec())
    with pytest.raises(ValueError):
        gl_generator_action(gen, (a(2),))


def test_generator_action_is_linear():
    rng = random.Random(2003)
    gens = all_generators(4)
    for _ in range(100):
        gen = rng.choice(gens)
        s = FreeVec([(rand_basic_tensor(rng, 4), rng.randint(-3, 3))
                     for _ in range(2)])
        t = FreeVec([(rand_basic_tensor(rng, 4), rng.randint(-3, 3))
                     for _ in range(2)])
        c = rng.randint(-3, 3)
        assert (gl_generator_action(gen, s + c * t)
                == gl_generator_action(gen, s) + c * gl_generator_action(gen, t))


def test_generator_inverses_compose_to_identity():
    rng = random.Random(2004)
    pairs = [
        (Elementary(1, 3, 1), Elementary(1, 3, -1)),
        (Elementary(2, 1, -1), Elementary(2, 1, 1)),
        (Transposition(1, 2), Transposition(1, 2)),
        (SignFlip(2), SignFlip(2)),
    ]
    for _ in range(50):
        t = FreeVec.single(rand_basic_tensor(rng, 3))
        for g1, g2 in pairs:
            assert gl_generator_action(g2, gl_generator_action(g1, t)) == t


def test_gl_hvec_action_matches_tensor_action_on_length_one():
    rng = random.Random(2005)
    for gen in all_generators(3):
        u = rand_hvec(rng, 3)
        via_tensor = gl_generator_action(gen, FreeVec(((lbl,), c) for lbl, c in u.items()))
        via_hvec = gl_hvec_action(gen, u)
        assert via_tensor == FreeVec(((lbl,), c) for lbl, c in via_hvec.items())


def test_chord_tensor_reduces_to_itself():
    chord = (a(1), b(1), a(2), b(2))
    assert coinvariant_reduce(chord, 5) == FreeVec.single(chord)


def test_unbalanced_tensor_reduces_to_zero():
    assert not coinvariant_reduce((a(1), a(1), b(2), b(2)), 5)
    assert not coinvariant_reduce((a(1), b(1), a(2), b(3)), 5)
    assert not coinvariant_reduce((a(1), b(1), b(2), b(2)), 5)


def test_repeated_pair_splits_into_two_chords():
    reduced = coinvariant_reduce((a(1), a(1), b(1), b(1)), 5)
    assert reduced == FreeVec({
        (a(1), a(2), b(1), b(2)): 1,
        (a(1), a(2), b(2), b(1)): 1,
    })
    # Total mass two on a single slot-sorted chord pattern.
    assert sum(c for _, c in reduced.items()) == 2
    assert {tuple(sorted(key)) for key, _ in reduced.items()} \
        == {(a(1), b(1), a(2), b(2))}


def test_degree_eight_chord_is_already_reduced():
    chord = (a(1), b(1), a(2), b(2), a(3), b(3), a(4), b(4))
    assert coinvariant_reduce(chord, 5) == FreeVec.single(chord)


def test_reduce_output_is_always_balanced_chords():
    rng = random.Random(2006)
    for _ in range(150):
        tensor = rand_basic_tensor(rng, 4)
        for chord, _ in coinvariant_reduce(tensor, 5).items():
            counts = {}
            for lbl in chord:
                pq = counts.setdefault(lbl.index, [0, 0])
                pq[0 if lbl.family == "a" else 1] += 1
            assert all(p == 1 and q == 1 for p, q in counts.values())


def test_reduce_constant_on_generator_orbits_randomized():
    rng = random.Random(2007)
    for genus in (4, 5):
        gens = all_generators(genus)
        for _ in range(100):
            tensor = rand_basic_tensor(rng, genus)
            base = coinvariant_reduce(tensor, genus)
            gen = rng.choice(gens)
            moved = coinvariant_reduce(gl_generator_action(gen, tensor), genus)
            assert moved == base


@st.composite
def index_shapes(draw, n):
    """Multiplicities p_i (each 1..4, summing to n) on distinct indices."""
    shape = []
    while sum(shape) < n:
        shape.append(draw(st.integers(1, min(4, n - sum(shape)))))
    return shape


@st.composite
def basic_tensors(draw, genus, n, balanced):
    """A degree-2n basic tensor in shuffled slot order; an unbalanced one
    has one slot moved to the other family or to another index."""
    shape = draw(index_shapes(n))
    indices = draw(st.permutations(range(1, genus + 1)))[:len(shape)]
    slots = [BasisLabel(i, f) for i, p in zip(indices, shape)
             for f in "ab" for _ in range(p)]
    if not balanced:
        k = draw(st.integers(0, 2 * n - 1))
        index, family = slots[k].index, slots[k].family
        moved = draw(st.sampled_from(
            [BasisLabel(index, "b" if family == "a" else "a")]
            + [BasisLabel(i, family) for i in range(1, genus + 1)
               if i != index]))
        slots[k] = moved
    return tuple(draw(st.permutations(slots))), dict(zip(indices, shape))


COEFFS = st.builds(Fraction, st.sampled_from([c for c in range(-9, 10) if c]),
                   st.integers(1, 4))


@st.composite
def tensor_combinations(draw):
    """A genus in 6..8 and a rational combination of balanced and
    unbalanced basic tensors of one degree in 2..10."""
    genus = draw(st.integers(6, 8))
    n = draw(st.integers(1, 5))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        tensor, _ = draw(basic_tensors(genus, n, draw(st.booleans())))
        terms.append((tensor, draw(COEFFS)))
    return genus, FreeVec(terms)


@settings(max_examples=200, deadline=None)
@given(tensor_combinations())
def test_reduce_matches_split_oracle(case):
    genus, v = case
    assert coinvariant_reduce(v, genus) == split_coinvariant_reduce(v)


@st.composite
def balanced_tensors(draw):
    genus = draw(st.integers(6, 8))
    tensor, shape = draw(basic_tensors(genus, draw(st.integers(1, 5)), True))
    return genus, tensor, shape


@settings(max_examples=100, deadline=None)
@given(balanced_tensors())
def test_balanced_tensor_reduces_to_one_chord_per_matching(case):
    genus, tensor, shape = case
    reduced = coinvariant_reduce(tensor, genus)
    assert reduced == split_coinvariant_reduce(FreeVec.single(tensor))
    assert {c for _, c in reduced.items()} == {1}
    assert len(reduced.items()) == prod(factorial(p) for p in shape.values())


def test_reduce_precondition_errors():
    with pytest.raises(ValueError):
        coinvariant_reduce((a(1), b(1), a(2)), 5)        # odd degree
    with pytest.raises(ValueError):
        coinvariant_reduce((a(1), b(1), a(2), b(2)), 2)  # degree/2 not < genus
    with pytest.raises(ValueError):
        coinvariant_reduce((a(6), b(6), a(1), b(1)), 5)  # index beyond genus


def test_reduce_checks_the_genus_before_the_balance():
    # Unbalanced, so it would die; the index beyond the genus still counts.
    with pytest.raises(ValueError, match="outside genus 5"):
        coinvariant_reduce((a(1), a(1), b(9), b(2)), 5)
    with pytest.raises(ValueError, match="outside genus 5"):
        coinvariant_reduce(FreeVec({(a(1), b(1), a(2), a(3)): 1,
                                    (a(1), a(1), b(9), b(2)): 1}), 5)


def test_reduce_refuses_a_genus_below_two_even_for_zero():
    for t, genus in ((FreeVec(), -3), (FreeVec(), 1), ((a(1), b(1)), 1)):
        with pytest.raises(ValueError, match="genus >= 2"):
            coinvariant_reduce(t, genus)


def _shuffled(rng, slots):
    slots = list(slots)
    rng.shuffle(slots)
    return tuple(slots)


def test_multiplicity_five_and_its_elementary_image_match_split_oracle():
    rng = random.Random(2008)
    genus = 6
    for _ in range(3):
        index, free = rng.sample(range(1, genus + 1), 2)
        tensor = _shuffled(rng, [a(index)] * 5 + [b(index)] * 5)
        reduced = coinvariant_reduce(tensor, genus)
        assert len(reduced) == 120
        assert {c for _, c in reduced.items()} == {1}
        assert reduced == split_coinvariant_reduce(FreeVec.single(tensor))
        # a_index -> a_index +- a_free on five slots: 32 image terms, and
        # only the one without a_free is balanced.
        image = gl_generator_action(
            Elementary(free, index, rng.choice((1, -1))), tensor)
        assert len(image) == 32
        assert coinvariant_reduce(image, genus) == reduced
        assert split_coinvariant_reduce(image) == reduced


def test_fraction_combination_cancelling_across_terms_matches_oracle():
    rng = random.Random(2009)
    genus = 6
    five = _shuffled(rng, [a(2)] * 5 + [b(2)] * 5)
    swapped = gl_generator_action(Transposition(2, 5), five)
    mixed = _shuffled(rng, [a(1)] * 3 + [b(1)] * 3 + [a(4), b(4)] * 2)
    v = (Fraction(3, 4) * FreeVec.single(five) - Fraction(3, 4) * swapped
         + Fraction(-2, 7) * FreeVec.single(mixed))
    assert len(v) == 3
    reduced = coinvariant_reduce(v, genus)
    assert reduced == split_coinvariant_reduce(v)
    assert reduced == Fraction(-2, 7) * coinvariant_reduce(mixed, genus)
    assert len(reduced) == 12
    assert not coinvariant_reduce(
        v - Fraction(-2, 7) * FreeVec.single(mixed), genus)


def test_reduce_rejects_mixed_degrees():
    mixed = FreeVec({(a(1), b(1)): 1, (a(1), b(1), a(2), b(2)): 1})
    with pytest.raises(ValueError):
        coinvariant_reduce(mixed, 5)


def test_transposition_decomposes_into_elementaries_and_a_flip():
    # Multiplicativity over composition: the signed-swap product of
    # elementary generators followed by a sign flip equals the transposition.
    from itertools import product as iproduct
    i, j = 1, 2
    sequence = [Elementary(i, j, 1), Elementary(j, i, -1),
                Elementary(i, j, 1), SignFlip(j)]
    for tensor in iproduct(basis_labels(3), repeat=2):
        moved = FreeVec.single(tensor)
        for gen in sequence:
            moved = gl_generator_action(gen, moved)
        assert moved == gl_generator_action(Transposition(i, j), tensor)


# ---------------------------------------------------------------------------
# The memo of small tensors' chords
# ---------------------------------------------------------------------------


@st.composite
def orbit_cases(draw):
    """A tensor combination and its images under one to three generators."""
    genus, v = draw(tensor_combinations())
    gens = draw(st.lists(st.sampled_from(all_generators(genus)),
                         min_size=1, max_size=3))
    return genus, [v] + [gl_generator_action(gen, v) for gen in gens]


@settings(max_examples=150, deadline=None)
@given(orbit_cases(), st.randoms())
def test_chord_memo_is_transparent(case, rng):
    genus, vectors = case
    wants = [split_coinvariant_reduce(v) for v in vectors]
    for v, want in zip(vectors, wants):
        _pattern_chords.cache_clear()
        assert coinvariant_reduce(v, genus) == want
    # Warm: every vector twice, in a shuffled order.
    order = list(range(len(vectors))) * 2
    rng.shuffle(order)
    for k in order:
        assert coinvariant_reduce(vectors[k], genus) == wants[k]
    assert _pattern_chords.cache_info().currsize <= 32


def _pattern(tensor):
    """Each slot coded 2r + f: r ranks its index by first occurrence, f is 0
    for a and 1 for b."""
    ranks = {}
    return tuple(2 * ranks.setdefault(label.index, len(ranks))
                 + (label.family == "b") for label in tensor)


def test_orbit_check_enumerates_the_tensors_chords_once(monkeypatch):
    calls = []
    chords = symplectic._chords

    def counted(pattern):
        calls.append(pattern)
        return chords(pattern)

    monkeypatch.setattr(symplectic, "_chords", counted)
    _pattern_chords.cache_clear()
    genus = 6
    t = (a(2), b(2), a(2), a(3), b(2), b(3), a(2), b(2), a(3), b(3))
    reduced = coinvariant_reduce(t, genus)
    assert len(reduced) == 12
    # A sign flip gives +-t; a transposition renames index 2 and keeps the
    # slot pattern; an elementary matrix that brings in the unused index 6
    # leaves t as the one balanced term of its image.
    for gen in (SignFlip(2), SignFlip(5), Transposition(2, 4),
                Elementary(6, 2, 1), Elementary(3, 6, -1)):
        assert coinvariant_reduce(gl_generator_action(gen, t), genus) \
            == reduced
    assert calls == [(0, 1, 0, 2, 1, 3, 0, 1, 2, 3)] == [_pattern(t)]
    info = _pattern_chords.cache_info()
    assert (info.hits, info.misses) == (5, 1)


def _balanced(rng, shape):
    indices = rng.sample(range(1, 7), len(shape))
    return _shuffled(rng, [lbl for i, p in zip(indices, shape)
                           for lbl in [a(i)] * p + [b(i)] * p])


def test_chord_memo_holds_at_most_32_tensors():
    rng = random.Random(2010)
    _pattern_chords.cache_clear()
    seen = set()
    while len(seen) < 48:
        n = rng.randint(1, 5)
        shape = []
        while sum(shape) < n:
            shape.append(rng.randint(1, n - sum(shape)))
        tensor = _balanced(rng, shape)
        seen.add(_pattern(tensor))
        coinvariant_reduce(tensor, 6)
        assert _pattern_chords.cache_info().currsize <= 32
    assert _pattern_chords.cache_info().currsize == 32
    # The largest entry: five slot pairs on one index, 5! chords.
    assert len(_pattern_chords(_pattern(_balanced(rng, [5])))) == 120


def test_degree_twelve_is_reduced_without_the_memo():
    rng = random.Random(2011)
    _pattern_chords.cache_clear()
    tensor = _balanced(rng, [6])
    reduced = coinvariant_reduce(tensor, 7)
    assert len(reduced) == 720
    assert reduced == split_coinvariant_reduce(FreeVec.single(tensor))
    info = _pattern_chords.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_too_deep_tensor_is_refused_on_every_call():
    deep = tuple(lbl for i in range(1, 1101) for lbl in (a(i), b(i)))
    for _ in range(2):
        with pytest.raises(ValueError, match="too many slot pairs"):
            coinvariant_reduce(deep, 1101)


def test_memoized_tensor_is_still_checked_against_the_genus():
    _pattern_chords.cache_clear()
    t = (a(3), b(3))
    assert coinvariant_reduce(t, 4) == FreeVec.single((a(1), b(1)))
    assert _pattern_chords.cache_info().currsize == 1
    with pytest.raises(ValueError, match="outside genus 2"):
        coinvariant_reduce(t, 2)


def test_plain_index_family_pairs_reduce_alike_cold_and_warm():
    # A plain (index, family) pair or a bare int code is not a label: it is
    # refused cold and warm, with the memo neither read nor filled.
    labels = (a(2), b(2), a(2), b(2))
    want = FreeVec({(a(1), b(1), a(2), b(2)): 1, (a(1), b(2), a(2), b(1)): 1})
    for plain in (((2, "a"), (2, "b"), (2, "a"), (2, "b")),
                  (4, 5, 4, 5), labels[:3] + (5,)):
        for warm in (False, True):
            _pattern_chords.cache_clear()
            if warm:
                assert coinvariant_reduce(labels, 4) == want
            with pytest.raises(TypeError, match="^label of type "
                               "(tuple|int) is not a BasisLabel$"):
                coinvariant_reduce(plain, 4)
            info = _pattern_chords.cache_info()
            assert (info.hits, info.misses) == (0, int(warm))


@st.composite
def renamed_combinations(draw):
    """A tensor combination and its image under an injective renaming of
    the indices within the genus."""
    genus, v = draw(tensor_combinations())
    names = dict(zip(range(1, genus + 1),
                     draw(st.permutations(range(1, genus + 1)))))
    renamed = FreeVec((tuple(BasisLabel(names[label.index], label.family)
                             for label in tensor), c)
                      for tensor, c in v.items())
    return genus, v, renamed


@settings(max_examples=150, deadline=None)
@given(renamed_combinations())
def test_renamed_indices_reduce_to_the_same_items_in_order(case):
    genus, v, renamed = case
    want = split_coinvariant_reduce(v)
    assert split_coinvariant_reduce(renamed) == want
    cold = []
    for w in (v, renamed):
        _pattern_chords.cache_clear()
        cold.append(list(coinvariant_reduce(w, genus).items()))
    assert cold[0] == cold[1]
    assert FreeVec(cold[0]) == want
    # Warm: the renamed combination is read from v's memo entries.
    _pattern_chords.cache_clear()
    for w in (v, renamed, v):
        assert list(coinvariant_reduce(w, genus).items()) == cold[0]


def test_memo_entries_stay_intact_after_scaled_or_cancelling_sums():
    genus = 6
    t = (a(2), b(2), a(2), a(3), b(2), b(3), a(2), b(2), a(3), b(3))
    renamed = (a(4), b(4), a(4), a(1), b(4), b(1), a(4), b(4), a(1), b(1))
    other = (a(1), b(2), a(2), b(1), a(3), b(3), a(5), b(5), a(6), b(6))
    want = split_coinvariant_reduce(FreeVec.single(t))
    assert len(want) == 12
    combinations = [
        (FreeVec.single(t, 2), 2 * want),
        (FreeVec({t: 1, renamed: -1}), FreeVec()),
        (FreeVec({t: 1, other: 1}), want + split_coinvariant_reduce(
            FreeVec.single(other))),
        (FreeVec({renamed: 1, t: 1}), 2 * want),
        (FreeVec({t: Fraction(1, 3), renamed: Fraction(2, 3)}), want),
    ]
    for v, reduced in combinations:
        for cold in (True, False):
            if cold:
                _pattern_chords.cache_clear()
            coinvariant_reduce(t, genus)
            assert coinvariant_reduce(v, genus) == reduced
            # t alone still has every chord once, with coefficient 1.
            alone = coinvariant_reduce(t, genus)
            assert alone == want
            assert {c for _, c in alone.items()} == {1}
            assert all(type(c) is int for _, c in alone.items())
            assert _pattern_chords(_pattern(t)) == dict.fromkeys(want.support(), 1)


def test_labels_other_than_a_and_b_are_refused():
    # No label of another family can be built, and a slot that is not a
    # label (a plain pair, a bare int, a string) is refused.
    for family in ("c", "B", "x"):
        with pytest.raises(ValueError, match="family must be 'a' or 'b'"):
            BasisLabel(1, family)
    cases = [(((1, "c"), (1, "c")), "tuple"), ((a(1), 3), "int"),
             (("c1", b(1)), "str"), (((2, "a"), (2, "x")), "tuple"),
             (FreeVec({(a(1), b(1)): 1, (a(2), (2, "B")): 1}), "tuple")]
    for t, kind in cases:
        _pattern_chords.cache_clear()
        coinvariant_reduce((a(1), b(1)), 3)
        with pytest.raises(TypeError, match="^label of type %s is not a "
                           "BasisLabel$" % kind):
            coinvariant_reduce(t, 3)
        # Every slot is checked before the memo is read, also in a sum
        # whose good first term's pattern the memo holds.
        info = _pattern_chords.cache_info()
        assert (info.hits, info.misses) == (0, 1)


@pytest.mark.parametrize("good, bad, error", [
    ((a(1), b(1), a(2), b(2)), (a(1), b(1), a(2), (2, "b")), TypeError),
    ((a(1), b(1), a(2), b(2)), (a(1), b(1), a(4), b(4)), ValueError),
    ((a(1), b(1)) * 6, (a(1), b(1)) * 5 + (a(2), 5), TypeError),
    ((a(1), b(1)) * 6, (a(1), b(1)) * 5 + (a(8), b(8)), ValueError),
], ids=["label-degree-4", "index-degree-4", "label-degree-12",
        "index-degree-12"])
def test_a_bad_later_term_is_refused_before_any_chord(good, bad, error,
                                                      monkeypatch):
    # The first term is balanced and good; the second is refused (a slot
    # that is not a label is a TypeError, an index beyond the genus a
    # ValueError), and neither the memo nor the kernel has been read by
    # then.
    genus = 3 if len(good) == 4 else 7
    calls = []
    monkeypatch.setattr(symplectic, "_chords", calls.append)
    _pattern_chords.cache_clear()
    v = FreeVec({good: 1, bad: 1})
    assert [tensor for tensor, _ in v.items()] == [good, bad]
    with pytest.raises(error, match="is not a BasisLabel$|outside genus"):
        coinvariant_reduce(v, genus)
    assert calls == []
    info = _pattern_chords.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_tensors_of_more_than_nine_factorial_chords_are_refused(monkeypatch):
    calls = []
    monkeypatch.setattr(symplectic, "_chords", calls.append)
    _pattern_chords.cache_clear()
    ten = _shuffled(random.Random(2012), [a(3)] * 10 + [b(3)] * 10)
    for t in (ten, FreeVec({ten: 1, (a(1), b(1)) * 10: 1})):
        with pytest.raises(ValueError, match=r"more than 9! = 362880 chords"):
            coinvariant_reduce(t, 11)
    assert calls == []
    assert _pattern_chords.cache_info().currsize == 0


def test_combinations_of_more_than_nine_factorial_chords_are_refused(
        monkeypatch):
    # Two orderings of a1^9 b1^9 have 9! chords each, 2 * 9! together: the
    # call is refused before either is enumerated.
    calls = []
    monkeypatch.setattr(symplectic, "_chords", calls.append)
    rng = random.Random(2015)
    nine = [a(1)] * 9 + [b(1)] * 9
    first = _shuffled(rng, nine)
    second = next(t for t in iter(lambda: _shuffled(rng, nine), None)
                  if t != first)
    with pytest.raises(ValueError, match=r"^tensor of degree 18 has more "
                       r"than 9! = 362880 chords to enumerate$"):
        coinvariant_reduce(FreeVec({first: 1, second: -2}), 10)
    assert calls == []


def test_combination_cap_adds_the_chords_of_every_term(monkeypatch):
    # Two distinct degree-14 terms, 7! chords each, are reduced as the sum
    # of their reductions; with the cap lowered to 2 * 7! they still are,
    # and one below that they are not, though each alone fits.
    rng = random.Random(2016)
    seven = [a(2)] * 7 + [b(2)] * 7
    first = _shuffled(rng, seven)
    second = next(t for t in iter(lambda: _shuffled(rng, seven), None)
                  if t != first)
    pair = FreeVec({first: 1, second: 3})
    reduced = coinvariant_reduce(pair, 8)
    assert reduced and reduced == (coinvariant_reduce(first, 8)
                                   + 3 * coinvariant_reduce(second, 8))
    monkeypatch.setattr(symplectic, "_MAX_CHORDS", 2 * 5040)
    assert coinvariant_reduce(pair, 8) == reduced
    monkeypatch.setattr(symplectic, "_MAX_CHORDS", 2 * 5040 - 1)
    assert len(coinvariant_reduce(first, 8)) == 5040
    with pytest.raises(ValueError, match="more than 9! = 362880 chords"):
        coinvariant_reduce(pair, 8)
    # The same rule below degree 12, where chords come from the memo: two
    # degree-4 terms of 2! chords each fit a cap of 4, not one of 3.
    small = FreeVec({(a(1), a(1), b(1), b(1)): 1, (a(2), a(2), b(2), b(2)): 1})
    monkeypatch.setattr(symplectic, "_MAX_CHORDS", 4)
    reduced = coinvariant_reduce(small, 3)
    assert len(reduced) == 2 and set(reduced._terms.values()) == {2}
    monkeypatch.setattr(symplectic, "_MAX_CHORDS", 3)
    _pattern_chords.cache_clear()
    assert len(coinvariant_reduce((a(1), a(1), b(1), b(1)), 3)) == 2
    with pytest.raises(ValueError, match="^tensor of degree 4 has more than "
                       "9! = 362880 chords to enumerate$"):
        coinvariant_reduce(small, 3)
    info = _pattern_chords.cache_info()
    assert (info.hits, info.misses) == (0, 1)


def test_chord_cap_is_inclusive(monkeypatch):
    # With the cap lowered to 5!, a degree-12 tensor of 5! * 1! chords is
    # reduced and one of 5! * 2! chords is not.
    monkeypatch.setattr(symplectic, "_MAX_CHORDS", 120)
    rng = random.Random(2013)
    fits = _balanced(rng, [5, 1])
    assert len(coinvariant_reduce(fits, 7)) == 120
    with pytest.raises(ValueError, match="more than 9!"):
        coinvariant_reduce(_balanced(rng, [5, 2]), 8)


def test_two_indices_of_five_pairs_still_reduce():
    rng = random.Random(2014)
    t = _shuffled(rng, [a(2)] * 5 + [b(2)] * 5 + [a(7)] * 5 + [b(7)] * 5)
    _pattern_chords.cache_clear()
    reduced = coinvariant_reduce(t, 11)
    assert len(reduced) == 14400
    assert {c for _, c in reduced.items()} == {1}
    assert reduced == split_coinvariant_reduce(FreeVec.single(t))
    assert _pattern_chords.cache_info().currsize == 0
