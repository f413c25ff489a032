import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FRONT,
    SpanBasis,
    _eta_total,
    _nabla_total,
    all_generators,
    eta_all_pairs,
    expand,
    filter_project_bidegree,
    gl_tree_action,
    nabla_all_pairs,
    nabla_pair,
    rand_label,
    rand_tree,
    slotwise_trace,
    tree_combinations,
    upsilon,
)
from treetrace.exact import FreeVec, _fraction
from treetrace.forms import (
    _EMPTY,
    _PAIR,
    _TREE,
    _split,
    cocycle,
    cocycle_values,
    contract_cs,
    eta_s,
    j_form,
    nabla,
    project_bidegree,
    q_form,
    trace_a,
    trace_b,
    w0_member,
)
from treetrace.surgery import (
    FIGURE_EIGHT,
    TREFOIL,
    casson_surgery,
    lambda2_surgery,
    surgery_cocycle_value,
)
from treetrace.symplectic import (FAMILY_A, FAMILY_B, BasisLabel, a, b,
                                  basis_labels)
from treetrace.trees import (
    a2_normalize,
    lambda4_embed,
    tau2_bscc_twist,
    tree_expand,
)

RNG_TREE_GENUS = 4


def s2h(u, v):
    return FreeVec.single((u, v) if u <= v else (v, u))


def tau_trefoil(genus=5):
    return tau2_bscc_twist(*TREFOIL.bscc_basis, genus=genus)


def tau_eight(genus=5):
    return tau2_bscc_twist(*FIGURE_EIGHT.bscc_basis, genus=genus)


# ---------------------------------------------------------------------------
# bidegree projections
# ---------------------------------------------------------------------------


def test_projection_rejects_bad_bidegree():
    with pytest.raises(ValueError):
        project_bidegree(FreeVec(), 2, 3)
    with pytest.raises(ValueError):
        project_bidegree(FreeVec(), 5, -1)


def test_projections_of_trefoil_twist_match_displayed_trees():
    tau = tau_trefoil()
    y = FreeVec({b(1): -1, b(2): 1})
    assert project_bidegree(tau, 1, 3) == \
        4 * (expand(a(1), y, b(1), b(2)) + expand(b(1), a(2), b(1), b(2)))
    assert project_bidegree(tau, 4, 0) == 2 * expand(a(1), a(2), a(1), a(2))
    assert project_bidegree(tau, 0, 4) == 2 * expand(b(1), b(2), b(1), b(2))
    assert project_bidegree(tau, 3, 1) == \
        4 * (expand(b(1), a(2), a(1), a(2)) + expand(a(1), y, a(1), a(2)))


def test_projections_of_figure_eight_twist_match_displayed_trees():
    tau = tau_eight()
    y = FreeVec({b(1): 1, b(2): -1})
    assert project_bidegree(tau, 1, 3) == \
        -4 * (expand(a(1), y, b(1), b(2)) + expand(b(1), a(2), b(1), b(2)))
    assert project_bidegree(tau, 3, 1) == \
        4 * (expand(b(1), a(2), a(1), a(2)) + expand(a(1), y, a(1), a(2)))
    assert project_bidegree(tau, 0, 4) == 2 * expand(b(1), b(2), b(1), b(2))
    assert project_bidegree(tau, 4, 0) == 2 * expand(a(1), a(2), a(1), a(2))


def test_projection_of_pure_a_part_to_b_bidegree_is_zero():
    v = expand(a(1), a(2), a(3), a(4))
    assert not project_bidegree(v, 0, 4)


def test_projections_decompose_identity():
    rng = random.Random(4001)
    for _ in range(60):
        v = tree_expand(rand_tree(rng, RNG_TREE_GENUS))
        total = FreeVec()
        for s in range(5):
            total = total + project_bidegree(v, s, 4 - s)
        assert total == v


# ---------------------------------------------------------------------------
# traces and W0
# ---------------------------------------------------------------------------


def test_trace_a_values():
    assert not trace_a(expand(a(2), b(2), b(3), b(4)))
    assert trace_a(expand(b(2), b(3), b(4), a(2))) == s2h(b(3), b(4))
    assert trace_a(expand(a(1), b(1), b(1), b(2))) == -s2h(b(1), b(2))


def test_trace_b_values():
    assert trace_b(expand(a(1), a(3), a(4), b(1))) == -s2h(a(3), a(4))
    # Direct evaluation of the mirrored formula: omega(b1, a1) = -1 makes
    # this come out positive; the contraction cross-check below agrees.
    assert trace_b(expand(b(1), a(1), a(1), a(2))) == s2h(a(1), a(2))
    assert not trace_b(expand(b(2), a(2), a(3), a(4)))


def test_trace_b_agrees_with_negated_contraction():
    assert trace_b(expand(b(1), a(1), a(1), a(2))) \
        == -contract_cs(expand(b(1), a(1), a(1), a(2)))


def test_trace_requires_a_label():
    with pytest.raises(ValueError):
        trace_a(expand(b(1), b(2), b(3), b(4)))
    with pytest.raises(ValueError):
        trace_b(expand(a(1), a(2), a(3), a(4)))


def test_trace_error_names_the_least_pure_term_of_equal_vectors():
    # Equal vectors built in different insertion orders fail alike.
    k1 = (b(1), b(2), b(1), b(2))
    k2 = (b(1), b(3), b(2), b(3))
    first, second = FreeVec({k1: 1, k2: 1}), FreeVec({k2: 1, k1: 1})
    assert first == second
    message = "term (b1^b2)(b1^b2) has no a-label; trace undefined there"
    for v in (first, second):
        with pytest.raises(ValueError) as err:
            trace_a(v)
        assert str(err.value) == message


def test_trace_independent_of_which_slot_is_normalized():
    # Oracle: re-derive the trace with the one A-slot of a (1,3) tree moved
    # first, wherever the draw put it.
    def oracle(labels, slot):
        from treetrace.symplectic import label_omega
        perm, sign = FRONT[slot]
        head, c_, d_, e_ = (labels[p] for p in perm)
        out = FreeVec()
        if c_.family == "b":
            w = label_omega(head, e_)
            if w and d_.family == "b":
                out = out + sign * w * s2h(d_, c_)
            w = label_omega(head, d_)
            if w and e_.family == "b":
                out = out - sign * w * s2h(e_, c_)
        return out

    rng = random.Random(4002)
    nonzero_slots = []
    checked = 0
    while checked < 120:
        labels = tuple(rand_label(rng, 3) for _ in range(4))
        slots = [k for k, lbl in enumerate(labels) if lbl.family == "a"]
        if len(slots) != 1:
            continue
        reference = oracle(labels, slots[0])
        vec = expand(*labels)
        assert slotwise_trace(vec, "a") == trace_a(vec) == reference
        if reference:
            nonzero_slots.append(slots[0])
        checked += 1
    # Non-zero traces, with the A-label in every slot.
    assert len(nonzero_slots) >= 50
    assert set(nonzero_slots) == {0, 1, 2, 3}


def _trace_outcome(fn, *args):
    # The trace, or the message of the ValueError it raises.
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(tree_combinations(genera=(3, 4, 5, 6, 7, 8)), st.data())
def test_traces_match_the_slotwise_oracle(case, data):
    # Mixed-bidegree combinations, sometimes with a term that has no label
    # of the traced family appended after the others: the package's cached
    # contractions and the slot-by-slot oracle agree, or raise the same
    # message naming the same least such term.
    genus, v = case
    labels = basis_labels(genus)
    for family, tracer in ((FAMILY_A, trace_a), (FAMILY_B, trace_b)):
        vec = v
        if data.draw(st.booleans()):
            pure = [lbl for lbl in labels if lbl.family != family]
            slots = data.draw(st.tuples(*[st.sampled_from(pure)] * 4))
            vec = v + data.draw(st.sampled_from((1, -2, Fraction(3, 4)))) \
                * expand(*slots)
        assert _trace_outcome(tracer, vec) \
            == _trace_outcome(slotwise_trace, vec, family)


def test_w0_membership():
    assert w0_member(expand(a(2), b(2), b(3), b(4)), "A")
    assert not w0_member(expand(b(2), b(3), b(4), a(2)), "A")
    assert w0_member(FreeVec(), "A")
    assert not w0_member(expand(a(1), a(3), a(4), b(1)), "B")


def test_w0_rejects_wrong_bidegree():
    with pytest.raises(ValueError):
        w0_member(expand(a(1), b(1), a(2), b(2)), "A")
    with pytest.raises(ValueError):
        w0_member(expand(a(1), b(1), b(2), b(3)), "B")


def test_w0_side_is_a_or_b():
    # Only the documented sides: a lower-case family letter is refused too.
    v = expand(a(2), b(2), b(3), b(4))
    for side in ("x", "a", "b", ""):
        with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
            w0_member(v, side)


# ---------------------------------------------------------------------------
# contraction and pairings
# ---------------------------------------------------------------------------


def test_contraction_kills_embedded_four_forms():
    for genus in (2, 3, 4):
        for quad in combinations(basis_labels(genus), 4):
            assert not contract_cs(lambda4_embed(*quad))


def test_contraction_of_twist_projections():
    tau = tau_trefoil()
    got13 = contract_cs(project_bidegree(tau, 1, 3))
    want13 = 4 * (s2h(b(1), b(2)) - s2h(b(2), b(2)) - s2h(b(1), b(1)))
    assert got13 == want13
    got31 = contract_cs(project_bidegree(tau, 3, 1))
    want31 = 4 * (-s2h(a(2), a(2)) - s2h(a(1), a(2)) - s2h(a(1), a(1)))
    assert got31 == want31


def test_eta_values():
    assert eta_s(s2h(b(3), b(4)), s2h(a(3), a(4))) == 1
    assert eta_s(s2h(b(2), b(2)), s2h(a(2), a(2))) == 2
    assert eta_s(s2h(b(1), b(2)), s2h(a(3), a(4))) == 0


def test_eta_symmetric_randomized():
    rng = random.Random(4003)
    labels = basis_labels(3)
    for _ in range(120):
        x = FreeVec([(tuple(sorted((rng.choice(labels), rng.choice(labels)))),
                      rng.randint(-3, 3)) for _ in range(3)])
        y = FreeVec([(tuple(sorted((rng.choice(labels), rng.choice(labels)))),
                      rng.randint(-3, 3)) for _ in range(3)])
        assert eta_s(x, y) == eta_s(y, x)


def test_eta_gram_matrix_nonsingular_at_genus_two():
    labels = basis_labels(2)
    pairs = [tuple(sorted((u, v)))
             for i, u in enumerate(labels) for v in labels[i:]]
    pairs = sorted(set(pairs))
    assert len(pairs) == 10
    rows = []
    for p in pairs:
        row = FreeVec((j, eta_s(FreeVec.single(p), FreeVec.single(q)))
                      for j, q in enumerate(pairs))
        rows.append(row)
    assert SpanBasis(rows).rank == 10


def test_upsilon_on_generator_pair():
    left = expand(b(2), b(3), b(4), a(2))
    right = expand(a(1), a(3), a(4), b(1))
    assert upsilon(left, right) == 1


def test_upsilon_on_trefoil_projections():
    tau = tau_trefoil()
    assert upsilon(project_bidegree(tau, 1, 3), project_bidegree(tau, 3, 1)) == 48


def test_upsilon_disjoint_index_sets():
    assert upsilon(expand(a(1), b(1), a(2), b(2)),
                   expand(a(3), b(3), a(4), b(4))) == 0


# ---------------------------------------------------------------------------
# the tree inner product
# ---------------------------------------------------------------------------


def test_nabla_on_generator_pair():
    assert nabla(expand(b(1), b(2), b(3), b(4)),
                 expand(a(1), a(2), a(3), a(4))) == 1


def test_nabla_on_repeated_pair():
    assert nabla(expand(b(2), b(1), b(2), b(1)),
                 expand(a(2), a(1), a(2), a(1))) == 3


def test_nabla_annihilates_four_form_against_tree():
    assert nabla(lambda4_embed(a(1), b(1), a(2), b(2)),
                 expand(a(1), b(1), a(2), b(2))) == 0
    # The three embedded terms contribute 1, 1/2, 1/2 with signs.
    k1 = expand(a(1), b(1), a(2), b(2))
    k2 = expand(a(1), a(2), b(1), b(2))
    k3 = expand(a(1), b(2), b(1), a(2))
    y = expand(a(1), b(1), a(2), b(2))
    assert nabla(k1, y) == 1
    assert nabla(k2, y) == Fraction(1, 2)
    assert nabla(k3, y) == -Fraction(1, 2)


def test_nabla_annihilates_four_forms_both_sides():
    rng = random.Random(4004)
    quads = list(combinations(basis_labels(4), 4))
    for _ in range(100):
        quad = rng.choice(quads)
        t = tree_expand(rand_tree(rng, 4))
        assert nabla(lambda4_embed(*quad), t) == 0
        assert nabla(t, lambda4_embed(*quad)) == 0


def test_nabla_pair_respects_tree_symmetries():
    rng = random.Random(4005)
    perms = [((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1),
             ((1, 0, 3, 2), 1), ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1),
             ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1)]
    labels = basis_labels(4)

    for _ in range(120):
        xs = tuple(rng.choice(labels) for _ in range(4))
        ys = tuple(rng.choice(labels) for _ in range(4))
        base = nabla_pair(xs, ys)
        # The package's nabla on one-term vectors keyed by the raw labels.
        x, y = FreeVec.single(xs), FreeVec.single(ys)
        assert nabla(x, y) == base
        for perm, sign in perms:
            pxs, pys = tuple(xs[p] for p in perm), tuple(ys[p] for p in perm)
            assert nabla_pair(pxs, ys) == sign * base
            assert nabla_pair(xs, pys) == sign * base
            assert nabla(FreeVec.single(pxs), y) == sign * base
            assert nabla(x, FreeVec.single(pys)) == sign * base


@st.composite
def nabla_operand_pairs(draw):
    """Two vectors at one genus in 2..6, each a raw ``tree_expand``
    combination, its A2 normal form, or a bidegree piece of a twist image;
    two twist pieces have complementary bidegrees, which nabla can pair."""
    genus = draw(st.integers(2, 6))
    label = st.sampled_from(basis_labels(genus))
    hvec = st.dictionaries(label, st.sampled_from((-2, -1, 1, 2)),
                           min_size=1, max_size=3).map(FreeVec)
    s = draw(st.integers(0, 4))

    def operand(s):
        kind = draw(st.sampled_from(("raw", "normal", "twist")))
        if kind == "twist":
            tau = tau2_bscc_twist(draw(hvec), draw(hvec), genus)
            return project_bidegree(tau, s, 4 - s)
        v = draw(tree_combinations(genera=(genus,)))[1]
        return a2_normalize(v) if kind == "normal" else v

    return operand(s), operand(4 - s)


@settings(max_examples=100, deadline=None)
@given(nabla_operand_pairs())
def test_nabla_on_combinations_matches_gluing_oracle(pair):
    # The package pairs minors of the slot-pairing matrix; the oracle sums
    # gluings of two basic trees, term pair by term pair.
    x, y = pair
    assert nabla(x, y) == nabla_all_pairs(x, y)


@st.composite
def raw_key_pairs(draw, slots):
    """(x, y): vectors over raw keys of ``slots`` = 4 labels (tree keys
    (x0, x1, x2, x3)) or 2 labels (S^2(H) keys (u, v)) at genus 1..3,
    laid out as drawn, so wedges come unsorted or swapped and labels
    repeat.  Each term of x may come with other layouts of its labels in x,
    y holds its omega-partners in several layouts of one multiset, and y's
    own random terms have partners that x may lack."""
    genus = draw(st.integers(1, 3))
    label = st.sampled_from(basis_labels(genus))
    layout = st.permutations(range(slots))
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))

    def partner(u):
        return BasisLabel(u.index, "b" if u.family == "a" else "a")

    xs = draw(st.lists(st.tuples(*[label] * slots), min_size=1, max_size=3))
    ys = draw(st.lists(st.tuples(*[label] * slots), max_size=2))
    for labels in list(xs):
        xs += [tuple(labels[k] for k in perm)
               for perm in draw(st.lists(layout, max_size=2))]
        partners = tuple(map(partner, labels))
        ys += [tuple(partners[k] for k in perm)
               for perm in draw(st.lists(layout, max_size=3))]

    def vector(keys):
        return FreeVec((labels, draw(coeff)) for labels in keys)

    return vector(xs), vector(ys)


@settings(max_examples=100, deadline=None)
@given(raw_key_pairs(4))
def test_nabla_finds_partners_in_any_key_layout(pair):
    # nabla looks up the layouts of each x term's omega-partners in y; the
    # oracle visits every term pair, whatever the layout of either key.
    x, y = pair
    assert nabla(x, y) == nabla_all_pairs(x, y)


@settings(max_examples=100, deadline=None)
@given(raw_key_pairs(2))
def test_eta_s_finds_partners_in_any_key_layout(pair):
    x, y = pair
    assert eta_s(x, y) == eta_all_pairs(x, y)


# ---------------------------------------------------------------------------
# the desymmetrized forms and the cocycle
# ---------------------------------------------------------------------------


def test_q_form_values_on_twists():
    assert q_form(tau_trefoil(), tau_trefoil()) == 48
    assert q_form(tau_eight(), tau_eight()) == 80


def test_q_form_kills_pure_b_left_argument():
    v = expand(b(1), b(2), b(3), b(4))
    assert q_form(v, tau_trefoil()) == 0


def test_j_form_values():
    assert j_form(tau_trefoil(), tau_trefoil()) == 12
    assert j_form(tau_eight(), tau_eight()) == 12
    assert j_form(expand(b(1), b(2), b(3), b(4)),
                  expand(a(1), a(2), a(3), a(4))) == 1


def test_generator_pairs_split_the_two_forms():
    b4 = expand(b(1), b(2), b(3), b(4))
    a4 = expand(a(1), a(2), a(3), a(4))
    ab3 = expand(b(2), b(3), b(4), a(2))
    a3b = expand(a(1), a(3), a(4), b(1))
    assert (q_form(b4, a4), j_form(b4, a4)) == (0, 1)
    assert (q_form(ab3, a3b), j_form(ab3, a3b)) == (1, 0)


def test_b_form_values():
    assert cocycle(0, tau_trefoil(), 0, tau_trefoil()) == 72
    assert cocycle(0, tau_eight(), 0, tau_eight()) == 96


def test_b_form_vanishes_on_disjoint_supports():
    x = tau2_bscc_twist(a(1), b(1), 5)
    y = tau2_bscc_twist(a(3), b(3), 5)
    assert q_form(x, y) == 0
    assert j_form(x, y) == 0
    assert cocycle(0, x, 0, y) == 0


def test_cocycle_values():
    lam_k = Fraction(1)
    lam_l = Fraction(-1)
    assert cocycle(lam_k, tau_trefoil(), lam_k, tau_trefoil()) == 108
    assert cocycle(lam_l, tau_eight(), lam_l, tau_eight()) == 132


def test_cocycle_reduces_to_casson_part_on_disjoint_supports():
    x = tau2_bscc_twist(a(1), b(1), 5)
    y = tau2_bscc_twist(a(3), b(3), 5)
    assert cocycle(Fraction(2), x, Fraction(-5), y) == 36 * 2 * -5


def test_cocycle_zero_when_both_parts_vanish():
    assert cocycle(Fraction(3), FreeVec(), Fraction(0), FreeVec()) == 0


def test_cocycle_refuses_float_casson_values():
    for lam_x, lam_y in ((0.5, 2), (1, 2.0)):
        with pytest.raises(TypeError, match="float coefficients are not exact"):
            cocycle(lam_x, FreeVec(), lam_y, FreeVec())
        with pytest.raises(TypeError, match="float coefficients are not exact"):
            cocycle_values(lam_x, FreeVec(), lam_y, FreeVec())
    assert cocycle(Fraction(1, 2), FreeVec(), 2, FreeVec()) == 36


# Every exact result the package builds, as a call on fixed arguments: the
# trefoil and figure-eight images, a disjoint twist, and a multiple by 1/3 so
# that the totals are Fractions too.
_X, _Y = tau_trefoil(), tau_eight()
_DISJOINT = tau2_bscc_twist(a(4), b(4), 5)
_THIRD = Fraction(1, 3) * _X
_EXACT_RESULTS = {
    "eta_s": lambda: eta_s(contract_cs(_X), contract_cs(_Y)),
    "eta_s_fraction": lambda: eta_s(contract_cs(_THIRD), contract_cs(_X)),
    "nabla": lambda: nabla(_X, _Y),
    "nabla_fraction": lambda: nabla(_THIRD, _Y),
    "q_form": lambda: q_form(_X, _X),
    "j_form": lambda: j_form(_Y, _Y),
    "q_form_disjoint": lambda: q_form(_X, _DISJOINT),
    "cocycle": lambda: cocycle(1, _X, 1, _X),
    "cocycle_empty": lambda: cocycle(1, FreeVec(), 2, FreeVec()),
    "cocycle_fraction": lambda: cocycle(Fraction(2, 3), _THIRD, -1, _Y),
    **{"cocycle_values_%s" % name: (
        lambda k=k: cocycle_values(Fraction(2, 3), _THIRD, -1, _Y)[k])
       for k, name in enumerate("QJBC")},
    "casson_surgery": lambda: casson_surgery(TREFOIL, 3),
    "lambda2_surgery": lambda: lambda2_surgery(FIGURE_EIGHT, -2),
    "surgery_cocycle_value": lambda: surgery_cocycle_value(TREFOIL),
}


@pytest.mark.parametrize("name", sorted(_EXACT_RESULTS))
def test_exact_results_are_fractions_cold_and_warm(name):
    call = _EXACT_RESULTS[name]
    _fraction.cache_clear()
    cold = call()
    hits = _fraction.cache_info().hits
    warm = call()
    assert type(cold) is type(warm) is Fraction
    assert cold == warm
    # The warm call is served by the memo.
    assert _fraction.cache_info().hits > hits


def test_forms_invariant_under_gl_generators():
    rng = random.Random(4006)
    for genus in (4, 5):
        for gen in all_generators(genus):
            x = rand_tree(rng, genus)
            y = rand_tree(rng, genus)
            ex, ey = tree_expand(x), tree_expand(y)
            gx = tree_expand(gl_tree_action(gen, x))
            gy = tree_expand(gl_tree_action(gen, y))
            assert q_form(gx, gy) == q_form(ex, ey)
            assert j_form(gx, gy) == j_form(ex, ey)


def test_form_values_stable_in_genus():
    for knot_tau in (tau2_bscc_twist(*TREFOIL.bscc_basis, genus=5),
                     tau2_bscc_twist(*TREFOIL.bscc_basis, genus=6)):
        assert q_form(knot_tau, knot_tau) == 48
        assert j_form(knot_tau, knot_tau) == 12


def test_q_form_vanishes_on_trace_kernel_left_arguments():
    # Build the kernel of the trace on the (1,3) piece at genus 4, then pair
    # random kernel elements against random right arguments.
    labels = basis_labels(4)
    wedges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    keys = []
    for i, w1 in enumerate(wedges):
        for w2 in wedges[i:]:
            if sum(label & 1 for label in w1 + w2) == 3:
                keys.append(w1 + w2)
    vectors = [FreeVec.single(key) for key in keys]
    span = SpanBasis()
    kernel = []
    for vec in vectors:
        image = trace_a(vec)
        coeffs, residual = span.reduce(image)
        if not residual:
            combo = vec
            for c, prev in zip(coeffs, vectors):
                combo = combo - c * prev
            if combo:
                kernel.append(combo)
        span.add(image)
    assert kernel
    rng = random.Random(4007)
    for _ in range(100):
        x = FreeVec()
        for _ in range(3):
            x = x + rng.randint(-4, 4) * rng.choice(kernel)
        assert w0_member(x, "A")
        y = tree_expand(rand_tree(rng, 4))
        assert q_form(x, y) == 0


def test_j_form_vanishes_without_pure_b_part():
    rng = random.Random(4008)
    for _ in range(100):
        v = tree_expand(rand_tree(rng, 4))
        x = v - project_bidegree(v, 0, 4)
        assert not project_bidegree(x, 0, 4)
        y = tree_expand(rand_tree(rng, 4))
        assert j_form(x, y) == 0


@settings(max_examples=60, deadline=None)
@given(tree_combinations(genera=(5, 6, 7, 8)), tree_combinations(genera=(5, 6, 7, 8)))
def test_forms_match_filter_projection_oracle(case_x, case_y):
    (_, x), (_, y) = case_x, case_y
    P = filter_project_bidegree
    q, j = q_form(x, y), j_form(x, y)
    assert q == upsilon(P(x, 1, 3), P(y, 3, 1))
    assert j == nabla(P(x, 0, 4), P(y, 4, 0))
    assert cocycle(0, x, 0, y) == 3 * j + Fraction(3, 4) * q
    assert cocycle(Fraction(2, 3), x, -3, y) == -72 + 3 * j + Fraction(3, 4) * q
    assert cocycle_values(Fraction(2, 3), x, -3, y) == (
        q, j, cocycle(0, x, 0, y), cocycle(Fraction(2, 3), x, -3, y))
    for s in range(5):
        assert project_bidegree(x, s, 4 - s) == P(x, s, 4 - s)
    values = [q, j, cocycle(0, x, 0, y), cocycle(1, x, 2, y)]
    values += cocycle_values(1, x, 2, y)
    # Vectors derived from x start without x's split; x keeps its own.
    for other in (x + y, -x, 2 * x):
        values += [q_form(other, y), j_form(other, y),
                   q_form(y, other), j_form(y, other)]
    assert (q_form(x, y), j_form(x, y)) == (q, j)
    assert q_form(-x, y) == -q and j_form(-x, y) == -j
    assert q_form(2 * x, y) == 2 * q and j_form(2 * x, y) == 2 * j
    assert q_form(x + y, y) == q + q_form(y, y)
    values += [upsilon(x, y), nabla(x, y), eta_s(contract_cs(x), contract_cs(y))]
    assert all(type(value) is Fraction for value in values)


# ---------------------------------------------------------------------------
# pairings as dot products of cached images, against the partner-layout loops
# ---------------------------------------------------------------------------

COEFFS = (-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def layout_vectors(draw, slots):
    """(x, y) over raw keys of ``slots`` = 4 labels (tree keys) or 2 labels
    (S^2(H) keys) at genus 1..3, either possibly empty: keys laid out as
    drawn (unsorted wedges, swapped legs, repeated labels), Fraction
    coefficients among the ints, and y holding some of x's keys with every
    label replaced by its omega-partner, in any order, so that pairs hit."""
    genus = draw(st.integers(1, 3))
    label = st.sampled_from(basis_labels(genus))
    coeff = st.sampled_from(COEFFS)
    xs = draw(st.lists(st.tuples(*[label] * slots), max_size=6))
    ys = draw(st.lists(st.tuples(*[label] * slots), max_size=4))
    for labels in xs:
        if draw(st.booleans()):
            perm = draw(st.permutations(range(slots)))
            ys.append(tuple(BasisLabel(labels[k].index, "b" if labels[k].family
                                       == "a" else "a") for k in perm))

    def vector(keys):
        return FreeVec((labels, draw(coeff)) for labels in keys)

    return vector(xs), vector(ys)


@settings(max_examples=150, deadline=None)
@given(layout_vectors(2))
def test_eta_s_equals_the_partner_layout_loop(pair):
    x, y = pair
    for u, v in (pair, pair[::-1]):
        assert eta_s(u, v) == Fraction(_eta_total(u, v))
    assert eta_s(x, y) == eta_s(y, x)


@settings(max_examples=150, deadline=None)
@given(layout_vectors(4))
def test_nabla_equals_the_partner_layout_loop(pair):
    for u, v in (pair, pair[::-1]):
        assert nabla(u, v) == Fraction(_nabla_total(u, v), 2)


def assert_forms_equal_the_loops(x, y, lam_x, lam_y):
    """q_form, j_form and cocycle_values of (x, y) against the loops on the
    same pieces."""
    q = Fraction(_eta_total(contract_cs(project_bidegree(x, 1, 3)),
                            contract_cs(project_bidegree(y, 3, 1))))
    j = Fraction(_nabla_total(project_bidegree(x, 0, 4),
                              project_bidegree(y, 4, 0)), 2)
    assert (q_form(x, y), j_form(x, y)) == (q, j)
    tree_part = 3 * j + Fraction(3, 4) * q
    assert cocycle_values(lam_x, x, lam_y, y) == (
        q, j, tree_part, 36 * lam_x * lam_y + tree_part)


@settings(max_examples=150, deadline=None)
@given(layout_vectors(4), st.sampled_from(COEFFS), st.sampled_from(COEFFS))
def test_tree_forms_equal_the_partner_layout_loops(pair, lam_x, lam_y):
    for u, v in (pair, pair[::-1]):
        assert_forms_equal_the_loops(u, v, lam_x, lam_y)


def test_images_stay_with_the_paired_vector_only():
    x = project_bidegree(tau_trefoil(), 0, 4)
    y = project_bidegree(tau_trefoil(), 4, 0)
    plain = FreeVec(x.items())
    assert x._memo is None
    value = nabla(x, y)
    # One image on each side, kept by its side's builder: N*(x) on x, N(y)
    # on y.
    assert list(x._memo) == [_TREE[0]] and list(y._memo) == [_TREE[1]]
    assert nabla(x, y) == value == nabla(plain, y)
    # Equality and repr read the terms only.
    assert x == plain and repr(x) == repr(plain)
    # A vector made by arithmetic starts without the images.
    for derived in (x + FreeVec(), x - y, -x, 2 * x, x * Fraction(1, 3)):
        assert derived._memo is None
    assert nabla(-x, y) == -value and nabla(2 * x, y) == 2 * value


def test_dense_gram_block_equals_the_loops():
    # Four genus-4 twist images whose bases use every a_i and b_i, so each
    # bidegree piece is large; every ordered pair, each vector split once.
    rng = random.Random(23)
    labels = basis_labels(4)

    def dense():
        return FreeVec({u: rng.choice((-2, -1, 1, 2)) for u in labels})

    taus = [tau2_bscc_twist(dense(), dense(), 4) for _ in range(4)]
    assert all(len(project_bidegree(t, s, 4 - s)) >= 10
               for t in taus for s in range(5))
    for i, x in enumerate(taus):
        for j, y in enumerate(taus):
            assert_forms_equal_the_loops(x, y, i - 1, Fraction(j, 2))
    # The split is kept with each vector, and each piece keeps the one
    # image of its side, under that side's builder: N*(x) (``_TREE[0]``)
    # on (0,4), N(x) (``_TREE[1]``) on (4,0).
    assert all(list(t._memo) == [_split] for t in taus)
    assert all(list(t.cached(_split)[s]._memo) == [builder]
               for t in taus for s, builder in ((0, _TREE[0]), (4, _TREE[1])))


# ---------------------------------------------------------------------------
# the shared empty piece
# ---------------------------------------------------------------------------


@st.composite
def vectors_with_empty_pieces(draw):
    """A genus in 2..5 and a combination of expanded basic trees drawn per
    bidegree, each bidegree present or not, so that some pieces of the
    split are empty; the slots of a tree come in any order."""
    genus = draw(st.integers(2, 5))
    labels = basis_labels(genus)
    by_family = {family: st.sampled_from([u for u in labels
                                          if u.family == family])
                 for family in (FAMILY_A, FAMILY_B)}
    coeff = st.sampled_from((-2, -1, 1, 3, Fraction(1, 2)))
    v = FreeVec()
    for s in draw(st.sets(st.integers(0, 4))):
        for _ in range(draw(st.integers(1, 3))):
            slots = [draw(by_family[FAMILY_A]) for _ in range(s)]
            slots += [draw(by_family[FAMILY_B]) for _ in range(4 - s)]
            slots = draw(st.permutations(slots))
            v = v + draw(coeff) * expand(*slots)
    return v


def _holds_nothing(value) -> bool:
    # A memo value of an empty vector: an empty vector or image, or the
    # split of one, a tuple of empty vectors.
    if isinstance(value, tuple):
        return all(not part for part in value)
    return not value


@settings(max_examples=100, deadline=None)
@given(vectors_with_empty_pieces(), vectors_with_empty_pieces(),
       st.sampled_from(COEFFS), st.sampled_from(COEFFS))
def test_shared_empty_piece_stays_empty(x, y, lam_x, lam_y):
    # Every empty piece and contraction is the one ``_EMPTY``; the forms on
    # vectors with empty pieces equal the oracles, and none of them leaves
    # a term or a nonempty memo value on the shared vector.
    P = filter_project_bidegree
    for v in (x, y):
        for s in range(5):
            piece = project_bidegree(v, s, 4 - s)
            assert piece == P(v, s, 4 - s)
            assert (piece is _EMPTY) == (not piece)
            # A piece, empty or not, splits again into itself and empties.
            assert project_bidegree(piece, s, 4 - s) == piece
            assert nabla(piece, piece) == nabla_all_pairs(piece, piece)
        for family, tracer in ((FAMILY_A, trace_a), (FAMILY_B, trace_b)):
            assert _trace_outcome(tracer, v) \
                == _trace_outcome(slotwise_trace, v, family)
        for s, side, family in ((1, "A", FAMILY_A), (3, "B", FAMILY_B)):
            assert w0_member(project_bidegree(v, s, 4 - s), side) \
                == (not slotwise_trace(P(v, s, 4 - s), family))
    q = eta_all_pairs(slotwise_trace(P(x, 1, 3), FAMILY_A),
                      -slotwise_trace(P(y, 3, 1), FAMILY_B))
    j = nabla_all_pairs(P(x, 0, 4), P(y, 4, 0))
    assert (q_form(x, y), j_form(x, y)) == (q, j)
    tree_part = 3 * j + Fraction(3, 4) * q
    assert cocycle_values(lam_x, x, lam_y, y) == (
        q, j, tree_part, 36 * lam_x * lam_y + tree_part)
    assert not _EMPTY and _EMPTY == FreeVec()
    assert all(map(_holds_nothing, (_EMPTY._memo or {}).values()))
