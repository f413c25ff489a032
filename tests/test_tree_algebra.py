import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    expand,
    gl_s2l2_action,
    gl_tree_action,
    rand_hvec,
    rand_tree,
    span_a2_normalize,
    tau2_two_wedges,
    tree_combinations,
)
from treetrace import trees
from treetrace.exact import FreeVec
from treetrace.grammar import format_s2l2
from treetrace.symplectic import BasisLabel, a, b, basis_labels, hvec
from treetrace.trees import (
    HTree,
    a2_normalize,
    lambda4_embed,
    sym_product,
    tau2_bscc_twist,
    tau2_square,
    tree_expand,
    wedge_expand,
)


def test_expand_single_tree():
    got = expand(a(1), b(1), a(2), b(2))
    assert got == FreeVec.single((a(1), b(1), a(2), b(2)))


def test_expand_repeated_wedge_label_is_zero():
    assert not expand(a(1), a(1), a(2), b(2))


def test_expand_antisymmetry_within_a_leg():
    assert expand(b(1), a(1), a(2), b(2)) == -expand(a(1), b(1), a(2), b(2))
    assert expand(a(1), b(1), b(2), a(2)) == -expand(a(1), b(1), a(2), b(2))


def test_expand_leg_swap_is_identity():
    rng = random.Random(3001)
    for _ in range(100):
        x1, x2, x3, x4 = (rand_hvec(rng, 4) for _ in range(4))
        assert tree_expand(HTree(x1, x2, x3, x4)) \
            == tree_expand(HTree(x3, x4, x1, x2))


def test_expand_multilinear_in_each_slot():
    rng = random.Random(3002)
    for slot in range(4):
        for _ in range(30):
            vecs = [rand_hvec(rng, 4) for _ in range(4)]
            u, v = rand_hvec(rng, 4), rand_hvec(rng, 4)
            c = rng.randint(-3, 3)
            combined = list(vecs)
            combined[slot] = u + c * v
            left = list(vecs)
            left[slot] = u
            right = list(vecs)
            right[slot] = v
            assert tree_expand(HTree(*combined)) \
                == tree_expand(HTree(*left)) + c * tree_expand(HTree(*right))


def _labels(first, last):
    """a_first + b_first + ... + a_last + b_last."""
    return FreeVec({lbl: 1 for i in range(first, last + 1)
                    for lbl in (a(i), b(i))})


def _refusing(what):
    def refused(*args):
        raise AssertionError("tree_expand built " + what)
    return refused


def test_expand_refuses_a_wedge_of_more_than_a_million_term_pairs(
        monkeypatch):
    # 1000 * 1002 pairs in the left leg: neither wedge is built.
    monkeypatch.setattr(trees, "wedge_expand", _refusing("a wedge"))
    wide = _labels(1, 500)
    for t in (HTree(wide, _labels(1, 501), hvec(a(1)), hvec(b(1))),
              HTree(hvec(a(1)), hvec(b(1)), _labels(1, 501), wide)):
        with pytest.raises(ValueError, match=r"^tree has more than 10\^6 = "
                           r"1000000 term pairs to expand$"):
            tree_expand(t)


def test_expand_refuses_a_product_of_more_than_a_million_term_pairs(
        monkeypatch):
    # Wedges of 1000 and 1001 terms, each built, and no product of them.
    wedges = []

    def counted(u, v):
        wedges.append(wedge_expand(u, v))
        return wedges[-1]
    monkeypatch.setattr(trees, "wedge_expand", counted)
    monkeypatch.setattr(trees, "sym_product", _refusing("a product"))
    t = HTree(hvec(a(1)), _labels(2, 501), hvec(b(1)),
              _labels(2, 501) + hvec(a(502)))
    with pytest.raises(ValueError, match="more than 10\\^6"):
        tree_expand(t)
    assert [len(w) for w in wedges] == [1000, 1001]


def test_expand_of_exactly_a_million_term_pairs_builds_the_product(
        monkeypatch):
    # The real product takes about a second here; its result is not needed.
    sizes, built = [], FreeVec()

    def product(left, right):
        sizes.append((len(left), len(right)))
        return built
    monkeypatch.setattr(trees, "sym_product", product)
    t = HTree(hvec(a(1)), _labels(2, 501), hvec(b(1)), _labels(2, 501))
    assert tree_expand(t) is built
    assert sizes == [(1000, 1000)]


def test_lambda4_embedding_formula():
    got = lambda4_embed(a(1), b(1), a(2), b(2))
    want = (expand(a(1), b(1), a(2), b(2))
            - expand(a(1), a(2), b(1), b(2))
            + expand(a(1), b(2), b(1), a(2)))
    assert got == want


def test_lambda4_alternating():
    assert not lambda4_embed(a(1), a(1), a(2), b(2))
    assert not lambda4_embed(a(1), b(1), b(1), b(2))
    base = lambda4_embed(a(1), b(1), a(2), b(2))
    assert lambda4_embed(b(1), a(1), a(2), b(2)) == -base
    assert lambda4_embed(a(1), b(1), b(2), a(2)) == -base
    assert lambda4_embed(a(2), b(1), a(1), b(2)) == -base


def test_normalize_kills_embedded_four_forms():
    assert not a2_normalize(lambda4_embed(a(1), b(1), a(2), b(2)))


def test_normalize_ihx_instance():
    combination = (expand(a(2), b(2), b(3), b(4))
                   - expand(b(2), b(3), b(4), a(2))
                   + expand(b(2), b(4), b(3), a(2)))
    assert not a2_normalize(combination)


def test_ihx_equals_lambda4_membership_for_basis_tuples():
    for quad in combinations(basis_labels(4), 4):
        w, x, y, z = quad
        combination = (expand(w, x, y, z)
                       - expand(w, y, x, z)
                       + expand(w, z, x, y))
        assert not a2_normalize(combination)


def test_normalize_idempotent():
    rng = random.Random(3003)
    for _ in range(50):
        v = tree_expand(rand_tree(rng, 4))
        nf = a2_normalize(v)
        assert a2_normalize(nf) == nf


@settings(max_examples=200, deadline=None)
@given(tree_combinations())
def test_normalize_matches_span_oracle(case):
    genus, v = case
    assert a2_normalize(v) == span_a2_normalize(v, genus)


def test_twist_rejects_indices_beyond_genus():
    with pytest.raises(ValueError, match="^twist uses index 5 beyond genus 4$"):
        tau2_bscc_twist(a(5), b(5), 4)


@pytest.mark.parametrize("x, y, name", [
    (a(0), b(0), "a0"),
    (a(-2), b(-2), "a-2"),
    ((1, "c"), b(1), "c1"),
    (FreeVec({a(1): 1, b(0): 2}), b(1), "b0"),
    (b(1), (2, "c"), "c2"),
], ids=["x0-y0-a0", "x1-y1-a-2", "x2-y2-c1", "x3-y3-b0", "x4-y4-c2"])
def test_twist_rejects_labels_outside_the_basis(x, y, name):
    # Only a_i and b_i with 1 <= i <= genus make a twist basis, as in the
    # grammar and the GL generators; these once gave a tree image.  A label
    # of another family, given here as its (index, family) pair, is refused
    # when it is built.
    for pair in (x, y):
        if isinstance(pair, tuple):
            with pytest.raises(ValueError, match="^basis label family must "
                               "be 'a' or 'b', got 'c'$"):
                BasisLabel(*pair)
            assert "%s%d" % pair[::-1] == name
            return
    with pytest.raises(ValueError, match="^twist uses %s, not a basis label "
                       "a_i or b_i with 1 <= i <= 5$" % name):
        tau2_bscc_twist(x, y, 5)


def test_normalize_stable_under_genus_increase():
    # The normal form takes no genus; it is the span residual at genus 5
    # and at genus 6 alike.
    rng = random.Random(3004)
    for _ in range(40):
        v = tree_expand(rand_tree(rng, 4))
        assert a2_normalize(v) == span_a2_normalize(v, 5) \
            == span_a2_normalize(v, 6)


def test_a2_equal_ignores_four_forms():
    rng = random.Random(3005)
    for _ in range(50):
        v = tree_expand(rand_tree(rng, 3))
        shifted = v + lambda4_embed(a(1), b(1), a(2), b(2))
        assert a2_normalize(v) == a2_normalize(shifted)


def test_a2_equal_symmetric_product_commutes():
    left = expand(a(1), b(1), a(2), b(2))
    right = expand(a(2), b(2), a(1), b(1))
    assert left == right
    assert a2_normalize(left) == a2_normalize(right)


def test_a2_equal_distinguishes_negation():
    v = expand(a(1), b(1), a(2), b(2))
    assert a2_normalize(v) != a2_normalize(-v)


def test_a2_equal_is_an_equivalence_on_samples():
    rng = random.Random(3006)
    for _ in range(25):
        x = tree_expand(rand_tree(rng, 3))
        y = x + lambda4_embed(a(1), b(1), a(2), b(3))
        z = y + lambda4_embed(a(1), b(2), a(3), b(3))
        nx, ny, nz = a2_normalize(x), a2_normalize(y), a2_normalize(z)
        assert nx == nx
        assert nx == ny and ny == nx
        assert nx == ny and ny == nz and nx == nz


def test_twist_image_of_degenerate_basis_is_zero():
    assert not tau2_bscc_twist(hvec(a(1)), hvec(a(1)), 5)


@st.composite
def lambda2_vectors(draw):
    """A vector of Lambda^2 H at genus 1-6 from up to ten wedge-key terms
    with int or Fraction coefficients; a key may be drawn again, also with
    the opposite coefficient, so terms can cancel down to the zero vector."""
    genus = draw(st.integers(1, 6))
    key = st.sampled_from(list(combinations(basis_labels(genus), 2)))
    numerator = st.sampled_from([n for n in range(-4, 5) if n])
    coeff = st.one_of(numerator,
                      st.builds(Fraction, numerator, st.integers(1, 3)))
    terms = draw(st.lists(st.tuples(key, coeff), max_size=10))
    cancel = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    return FreeVec(terms + [(k, -c) for k, c in cancel])


@settings(max_examples=100, deadline=None)
@given(lambda2_vectors())
@example(FreeVec())
def test_one_pass_square_is_the_normal_form_of_twice_the_square(w):
    got = tau2_square(w)
    assert got == a2_normalize(2 * sym_product(w, w))
    assert a2_normalize(got) == got


def test_twist_image_on_standard_pair():
    got = tau2_bscc_twist(a(1), b(1), 5)
    assert got == 2 * expand(a(1), b(1), a(1), b(1))


def test_twist_image_pure_b_part_of_trefoil_curve():
    x = FreeVec({a(1): 1, b(1): 1})
    y = FreeVec({a(2): 1, b(1): -1, b(2): 1})
    tau = tau2_bscc_twist(x, y, 5)
    pure_b = FreeVec((key, c) for key, c in tau.items()
                     if all(lbl.family == "b" for lbl in key))
    assert pure_b == 2 * expand(b(1), b(2), b(1), b(2))


def test_gl_tree_action_matches_keywise_action():
    rng = random.Random(3007)
    from helpers import all_generators
    gens = all_generators(3)
    for _ in range(60):
        t = rand_tree(rng, 3)
        gen = rng.choice(gens)
        assert tree_expand(gl_tree_action(gen, t)) \
            == gl_s2l2_action(gen, tree_expand(t))


@settings(max_examples=80, deadline=None)
@given(genus=st.integers(3, 8), data=st.data())
def test_one_wedge_twist_image_matches_the_two_wedge_tree(genus, data):
    # Int and Fraction coefficients, labels repeating between x and y.
    label = st.sampled_from(basis_labels(genus))
    numerator = st.sampled_from([n for n in range(-4, 5) if n])
    coeff = st.one_of(numerator,
                      st.builds(Fraction, numerator, st.integers(1, 3)))
    x, y = (FreeVec(data.draw(st.dictionaries(label, coeff, min_size=1,
                                              max_size=4)))
            for _ in range(2))
    assert tau2_bscc_twist(x, y, genus) == tau2_two_wedges(x, y)


@st.composite
def tree_key_outputs(draw):
    """(name, vector) for each tree-space output of one draw at genus 1..4:
    the expansion of a random tree, its A2 normal form, an embedded
    Lambda^4 tuple, and the square and twist image of a random wedge."""
    genus = draw(st.integers(1, 4))
    label = st.sampled_from(basis_labels(genus))
    hvec_ = st.dictionaries(label, st.sampled_from((-2, -1, 1, 3)),
                            min_size=1, max_size=3).map(FreeVec)
    expanded = tree_expand(HTree(*(draw(hvec_) for _ in range(4))))
    x, y = draw(hvec_), draw(hvec_)
    return [("tree_expand", expanded),
            ("a2_normalize", a2_normalize(expanded)),
            ("lambda4_embed", lambda4_embed(*(draw(label) for _ in range(4)))),
            ("tau2_square", tau2_square(wedge_expand(x, y))),
            ("tau2_bscc_twist", tau2_bscc_twist(x, y, genus))]


@settings(max_examples=100, deadline=None)
@given(tree_key_outputs())
def test_tree_keys_are_four_sorted_labels(outputs):
    # A key of S^2(Lambda^2 H) is the flat tuple (w, x, y, z) of its slot
    # labels: w < x, y < z and (w, x) <= (y, z); a normal form also has
    # x >= y.  ``format_s2l2`` prints it as (w^x)(y^z).
    normal = {"a2_normalize", "tau2_square", "tau2_bscc_twist"}
    for name, v in outputs:
        for key in v._terms:
            assert type(key) is tuple and len(key) == 4, (name, key)
            assert all(type(lbl) is BasisLabel for lbl in key), (name, key)
            w, x, y, z = key
            assert w < x and y < z and (w, x) <= (y, z), (name, key)
            if name in normal:
                assert x >= y, (name, key)
            assert format_s2l2(FreeVec.single(key)) == \
                "(%s^%s)(%s^%s)" % tuple(map(str, key))
