"""Acceptance suite: every replication criterion at zero tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all); every comparison is exact rational equality.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from helpers import (
    SpanBasis,
    all_generators,
    basic_trees_of_bidegree,
    expand,
    gl_tree_action,
    jones_series_derivative,
    rand_hvec,
    rand_tree,
    slotwise_trace,
    span_a2_normalize,
)
from treetrace.cli import build_report
from treetrace.exact import FreeVec
from treetrace.forms import (
    cocycle,
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
    BUILTIN_KNOTS,
    FIGURE_EIGHT,
    LaurentPoly,
    POINCARE,
    SphereInvariants,
    TREFOIL,
    bounding_casson,
    casson_surgery,
    connected_sum,
    d2_value,
    jones_h_derivative,
    lambda2_surgery,
    reverse_orientation,
    solve_alpha_r,
    surgery_cocycle_value,
    vanishing_combo,
)
from treetrace.symplectic import (
    a,
    b,
    basis_labels,
    coinvariant_reduce,
    gl_generator_action,
)
from treetrace.trees import (
    HTree,
    a2_normalize,
    lambda4_embed,
    tau2_bscc_twist,
    tree_expand,
)


def run_criterion(name, checks):
    try:
        checks()
    except AssertionError:
        print("FAIL criterion %s" % name)
        raise
    print("PASS criterion %s" % name)


def test_criterion_1_cocycle_coefficient_system():
    def checks():
        rows = []
        for knot, want in ((TREFOIL, (12, 48, 72)),
                           (FIGURE_EIGHT, (12, 80, 96))):
            tau = tau2_bscc_twist(*knot.bscc_basis, genus=5)
            lam = casson_surgery(knot, 1)
            row = (j_form(tau, tau), q_form(tau, tau),
                   surgery_cocycle_value(knot) - 36 * lam * lam)
            assert row == want
            assert 3 * row[0] + Fraction(3, 4) * row[1] == row[2]
            rows.append(row)
        # Independent rows: (3, 3/4) is the only solution.
        (j1, q1, _), (j2, q2, _) = rows
        assert j1 * q2 - j2 * q1 != 0
        for genus in (5, 6):
            computed = {c.name: c.computed
                        for c in build_report(genus).checks}
            assert computed["coefficient_equation_trefoil"] \
                == "12*r1 + 48*r2 = 72"
            assert computed["coefficient_equation_figure_eight"] \
                == "12*r1 + 80*r2 = 96"
            assert computed["cocycle_coefficients"] == "(3, 3/4)"

    run_criterion("1 (coefficient system and solution)", checks)


def test_criterion_2_form_values_on_twists():
    def checks():
        lam_k = bounding_casson(*TREFOIL.bscc_basis)
        tau_k = tau2_bscc_twist(*TREFOIL.bscc_basis, 5)
        lam_l = bounding_casson(*FIGURE_EIGHT.bscc_basis)
        tau_l = tau2_bscc_twist(*FIGURE_EIGHT.bscc_basis, 5)
        assert (q_form(tau_k, tau_k), j_form(tau_k, tau_k),
                cocycle(0, tau_k, 0, tau_k)) == (48, 12, 72)
        assert (q_form(tau_l, tau_l), j_form(tau_l, tau_l),
                cocycle(0, tau_l, 0, tau_l)) == (80, 12, 96)
        assert lam_k == 1 and lam_l == -1

    run_criterion("2 (Q, J, B on the two twists)", checks)


def test_criterion_3_cross_route_equality():
    def checks():
        for knot, want in ((TREFOIL, 108), (FIGURE_EIGHT, 132)):
            lam = bounding_casson(*knot.bscc_basis)
            tau = tau2_bscc_twist(*knot.bscc_basis, 5)
            form_side = 36 * lam * lam + cocycle(0, tau, 0, tau)
            surgery_side = lambda2_surgery(knot, 2) - 2 * lambda2_surgery(knot, 1)
            assert form_side == surgery_side == want
            assert cocycle(lam, tau, lam, tau) == want

    run_criterion("3 (form route equals surgery route)", checks)


def test_criterion_4_knot_side_scalars():
    def checks():
        assert TREFOIL.conway.coeff(4) == 0
        assert FIGURE_EIGHT.conway.coeff(4) == 0
        assert jones_h_derivative(TREFOIL.jones, 2) == -6
        assert jones_h_derivative(FIGURE_EIGHT.jones, 2) == 6
        assert casson_surgery(TREFOIL, 1) == 1
        assert casson_surgery(FIGURE_EIGHT, 1) == -1
        assert lambda2_surgery(TREFOIL, 1) == 39 == POINCARE.lam2

    run_criterion("4 (knot-side scalars)", checks)


def test_criterion_5_poincare_obstruction():
    def checks():
        assert vanishing_combo(SphereInvariants(Fraction(1), Fraction(39))) == 24

    run_criterion("5 (obstruction value 24)", checks)


def test_criterion_6_alpha_r():
    def checks():
        assert solve_alpha_r() == (18, -3)

    run_criterion("6 (alpha and r)", checks)


def test_criterion_7_projection_regressions():
    def checks():
        tau_k = tau2_bscc_twist(*TREFOIL.bscc_basis, genus=5)
        y_k = FreeVec({b(1): -1, b(2): 1})
        assert project_bidegree(tau_k, 0, 4) == 2 * expand(b(1), b(2), b(1), b(2))
        assert project_bidegree(tau_k, 4, 0) == 2 * expand(a(1), a(2), a(1), a(2))
        assert project_bidegree(tau_k, 1, 3) == \
            4 * (expand(a(1), y_k, b(1), b(2)) + expand(b(1), a(2), b(1), b(2)))
        assert project_bidegree(tau_k, 3, 1) == \
            4 * (expand(b(1), a(2), a(1), a(2)) + expand(a(1), y_k, a(1), a(2)))

        tau_l = tau2_bscc_twist(*FIGURE_EIGHT.bscc_basis, genus=5)
        y_l = FreeVec({b(1): 1, b(2): -1})
        assert project_bidegree(tau_l, 0, 4) == 2 * expand(b(1), b(2), b(1), b(2))
        assert project_bidegree(tau_l, 4, 0) == 2 * expand(a(1), a(2), a(1), a(2))
        assert project_bidegree(tau_l, 1, 3) == \
            -4 * (expand(a(1), y_l, b(1), b(2)) + expand(b(1), a(2), b(1), b(2)))
        assert project_bidegree(tau_l, 3, 1) == \
            4 * (expand(b(1), a(2), a(1), a(2)) + expand(a(1), y_l, a(1), a(2)))

    run_criterion("7 (bidegree projections term by term)", checks)


# ---------------------------------------------------------------------------
# criterion 8: the property suites
# ---------------------------------------------------------------------------


def _suite_tree_multilinearity_and_as():
    rng = random.Random(8001)
    for _ in range(100):
        vecs = [rand_hvec(rng, 4) for _ in range(4)]
        u, v = rand_hvec(rng, 4), rand_hvec(rng, 4)
        c = rng.randint(-3, 3)
        slot = rng.randrange(4)
        combined, left, right = list(vecs), list(vecs), list(vecs)
        combined[slot] = u + c * v
        left[slot], right[slot] = u, v
        assert tree_expand(HTree(*combined)) \
            == tree_expand(HTree(*left)) + c * tree_expand(HTree(*right))
        x1, x2, x3, x4 = vecs
        base = tree_expand(HTree(x1, x2, x3, x4))
        assert tree_expand(HTree(x2, x1, x3, x4)) == -base
        assert tree_expand(HTree(x1, x2, x4, x3)) == -base
        assert tree_expand(HTree(x3, x4, x1, x2)) == base


def _suite_ihx_is_lambda4_membership():
    for w, x, y, z in combinations(basis_labels(4), 4):
        combination = (expand(w, x, y, z)
                       - expand(w, y, x, z)
                       + expand(w, z, x, y))
        assert not a2_normalize(combination)


def _suite_contraction_kills_lambda4():
    for genus in (2, 3, 4):
        for quad in combinations(basis_labels(genus), 4):
            assert not contract_cs(lambda4_embed(*quad))


def _suite_nabla_kills_lambda4_both_sides():
    rng = random.Random(8002)
    quads = list(combinations(basis_labels(4), 4))
    fixed = [expand(a(1), b(1), a(2), b(2)),
             expand(b(1), b(2), b(3), b(4)),
             expand(a(1), a(2), a(3), a(4))]
    for quad in quads:
        four_form = lambda4_embed(*quad)
        for t in fixed:
            assert nabla(four_form, t) == 0
            assert nabla(t, four_form) == 0
    for _ in range(100):
        quad = rng.choice(quads)
        t = tree_expand(rand_tree(rng, 4))
        assert nabla(lambda4_embed(*quad), t) == 0
        assert nabla(t, lambda4_embed(*quad)) == 0


def _suite_eta_symmetry_and_gram():
    rng = random.Random(8003)
    labels = basis_labels(3)
    for _ in range(100):
        x = FreeVec([(tuple(sorted((rng.choice(labels), rng.choice(labels)))),
                      rng.randint(-3, 3)) for _ in range(3)])
        y = FreeVec([(tuple(sorted((rng.choice(labels), rng.choice(labels)))),
                      rng.randint(-3, 3)) for _ in range(3)])
        assert eta_s(x, y) == eta_s(y, x)
    labels2 = basis_labels(2)
    pairs = sorted({tuple(sorted((u, v)))
                    for u in labels2 for v in labels2})
    assert len(pairs) == 10
    gram_rows = [FreeVec((j, eta_s(FreeVec.single(p), FreeVec.single(q)))
                         for j, q in enumerate(pairs)) for p in pairs]
    assert SpanBasis(gram_rows).rank == 10


def _suite_gl_invariance_of_forms():
    rng = random.Random(8004)
    cases = 0
    for genus in (4, 5):
        for gen in all_generators(genus):
            for _ in range(2):
                x, y = rand_tree(rng, genus), rand_tree(rng, genus)
                ex, ey = tree_expand(x), tree_expand(y)
                gx = tree_expand(gl_tree_action(gen, x))
                gy = tree_expand(gl_tree_action(gen, y))
                assert q_form(gx, gy) == q_form(ex, ey)
                assert j_form(gx, gy) == j_form(ex, ey)
                cases += 1
    assert cases >= 100


def _suite_trace_contraction_agreement():
    for labels in basic_trees_of_bidegree(4, 1):
        vec = expand(*labels)
        assert contract_cs(vec) == slotwise_trace(vec, "a") == trace_a(vec)
    for labels in basic_trees_of_bidegree(4, 3):
        vec = expand(*labels)
        assert contract_cs(vec) == -slotwise_trace(vec, "b") == -trace_b(vec)


def _suite_q_vanishes_on_trace_kernel():
    labels = basis_labels(4)
    wedges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    keys = [w1 + w2
            for i, w1 in enumerate(wedges) for w2 in wedges[i:]
            if sum(label & 1 for label in w1 + w2) == 3]
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
    rng = random.Random(8005)
    for _ in range(100):
        x = FreeVec()
        for _ in range(3):
            x = x + rng.randint(-4, 4) * rng.choice(kernel)
        assert w0_member(x, "A")
        y = tree_expand(rand_tree(rng, 4))
        assert q_form(x, y) == 0
        no_b4 = y - project_bidegree(y, 0, 4)
        assert j_form(no_b4, tree_expand(rand_tree(rng, 4))) == 0


def _suite_coinvariant_orbit_invariance():
    labels = basis_labels(4)
    gens = all_generators(4)
    for tensor in product(labels, repeat=4):
        base = coinvariant_reduce(tensor, 4)
        for gen in gens:
            assert coinvariant_reduce(gl_generator_action(gen, tensor), 4) == base


def _suite_disjoint_support_vanishing():
    rng = random.Random(8006)
    for _ in range(100):
        x = tree_expand(HTree(*(rand_hvec(rng, 2) for _ in range(4))))
        shift = {1: 3, 2: 4}
        y = tree_expand(HTree(*(
            FreeVec((type(l)(shift[l.index], l.family), c)
                    for l, c in rand_hvec(rng, 2).items())
            for _ in range(4))))
        assert q_form(x, y) == 0
        assert j_form(x, y) == 0
        lam_x, lam_y = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        assert cocycle(lam_x, x, lam_y, y) == 36 * lam_x * lam_y


def _suite_genus_stability():
    for knot in (TREFOIL, FIGURE_EIGHT):
        tau5 = tau2_bscc_twist(*knot.bscc_basis, genus=5)
        tau6 = tau2_bscc_twist(*knot.bscc_basis, genus=6)
        assert tau5 == tau6
        assert q_form(tau5, tau5) == q_form(tau6, tau6)
        assert j_form(tau5, tau5) == j_form(tau6, tau6)
        assert cocycle(0, tau5, 0, tau5) == cocycle(0, tau6, 0, tau6)
    rng = random.Random(8007)
    for _ in range(20):
        v = tree_expand(rand_tree(rng, 3))
        n5, n6 = span_a2_normalize(v, 5), span_a2_normalize(v, 6)
        assert a2_normalize(v) == n5 == n6
        assert q_form(n5, n5) == q_form(n6, n6)


def _suite_sphere_calculus():
    rng = random.Random(8008)
    for _ in range(100):
        m1 = SphereInvariants(Fraction(rng.randint(-9, 9)),
                              Fraction(rng.randint(-99, 99)))
        m2 = SphereInvariants(Fraction(rng.randint(-9, 9)),
                              Fraction(rng.randint(-99, 99)))
        assert d2_value(connected_sum(m1, m2)) == d2_value(m1) + d2_value(m2)
        assert reverse_orientation(reverse_orientation(m1)) == m1


def _suite_jones_derivative_oracle():
    rng = random.Random(8009)
    for knot in BUILTIN_KNOTS.values():
        for i in range(5):
            assert jones_h_derivative(knot.jones, i) \
                == jones_series_derivative(knot.jones, i)
    for _ in range(100):
        poly = LaurentPoly((rng.randint(-4, 4), rng.randint(-5, 5))
                           for _ in range(4))
        for i in range(5):
            assert jones_h_derivative(poly, i) \
                == jones_series_derivative(poly, i)


def test_criterion_8_property_suites():
    def checks():
        _suite_tree_multilinearity_and_as()
        _suite_ihx_is_lambda4_membership()
        _suite_contraction_kills_lambda4()
        _suite_nabla_kills_lambda4_both_sides()
        _suite_eta_symmetry_and_gram()
        _suite_gl_invariance_of_forms()
        _suite_trace_contraction_agreement()
        _suite_q_vanishes_on_trace_kernel()
        _suite_coinvariant_orbit_invariance()
        _suite_disjoint_support_vanishing()
        _suite_genus_stability()
        _suite_sphere_calculus()
        _suite_jones_derivative_oracle()

    run_criterion("8 (property suites)", checks)
