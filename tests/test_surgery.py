import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import block_q_j, jones_series_derivative, seifert_q_j
from treetrace.cli import build_report
from treetrace.exact import FreeVec
from treetrace.forms import b_form, j_form, q_form
from treetrace.surgery import (
    BUILTIN_KNOTS,
    FIGURE_EIGHT,
    KnotRecord,
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
    seifert_form,
    solve_alpha_r,
    surgery_cocycle_value,
    vanishing_combo,
)
from treetrace.symplectic import a, b, omega
from treetrace.trees import (a2_normalize, sym_product, tau2_bscc_twist,
                              tau2_square, wedge_expand)


def sphere(lam, lam2):
    return SphereInvariants(Fraction(lam), Fraction(lam2))


def test_laurent_poly_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 2, -1: 1})
    assert p.terms() == [(-1, 1), (1, 2)]
    assert p.coefficient(3) == 0
    assert jones_h_derivative(p, 0) == 3


def test_laurent_poly_refuses_non_integers():
    # {2: 1.5, 0.9: 1} used to become {0: 1, 2: 1} through int().
    for coeffs in ({2: 1.5, 0.9: 1}, {2: 1.5}, {0.9: 1}, {"2": 1},
                   {2: "1"}, {Fraction(1, 2): 1}, {2: Fraction(3)}):
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)


def test_knot_normalization_enforced():
    with pytest.raises(ValueError):
        KnotRecord(name="bogus", conway=LaurentPoly({0: 1}),
                   jones=LaurentPoly({1: 2}))


def test_knot_record_is_immutable_and_compares_by_fields():
    with pytest.raises(AttributeError):
        TREFOIL.name = "x"
    with pytest.raises(AttributeError):
        TREFOIL.bscc_basis = None
    fields = dict(name=TREFOIL.name, conway=TREFOIL.conway,
                  jones=TREFOIL.jones, bscc_basis=TREFOIL.bscc_basis)
    assert KnotRecord(**fields) == KnotRecord(**fields) == TREFOIL
    assert KnotRecord(name="unknot", conway=LaurentPoly({0: 1}),
                      jones=LaurentPoly({0: 1})).bscc_basis is None
    # Replacing a field builds a new record, with the same checks.
    with pytest.raises(ValueError, match="c0 != 1"):
        TREFOIL._replace(conway=LaurentPoly({0: 2, 2: 1}))


def test_builtin_jones_polynomials_are_normalized():
    for knot in BUILTIN_KNOTS.values():
        assert jones_h_derivative(knot.jones, 0) == 1


def test_conway_coefficients():
    assert TREFOIL.conway.coefficient(4) == 0
    assert FIGURE_EIGHT.conway.coefficient(4) == 0
    assert LaurentPoly({4: 1, 2: 1, 0: 1}).coefficient(4) == 1
    assert TREFOIL.conway.coefficient(2) == 1


def test_jones_h_derivatives():
    assert jones_h_derivative(TREFOIL.jones, 2) == -6
    assert jones_h_derivative(FIGURE_EIGHT.jones, 2) == 6
    assert jones_h_derivative(TREFOIL.jones, 3) == 36
    assert jones_h_derivative(FIGURE_EIGHT.jones, 3) == 0
    assert jones_h_derivative(TREFOIL.jones, 0) == 1
    assert jones_h_derivative(TREFOIL.jones, 1) == 0


def test_jones_h_derivative_matches_series_oracle():
    for knot in BUILTIN_KNOTS.values():
        for i in range(5):
            assert jones_h_derivative(knot.jones, i) \
                == jones_series_derivative(knot.jones, i)
    rng = random.Random(5001)
    for _ in range(100):
        poly = LaurentPoly((rng.randint(-4, 4), rng.randint(-5, 5))
                           for _ in range(4))
        for i in range(5):
            assert jones_h_derivative(poly, i) \
                == jones_series_derivative(poly, i)


def test_casson_surgery_values():
    assert casson_surgery(TREFOIL, 1) == 1
    assert casson_surgery(FIGURE_EIGHT, 1) == -1
    assert casson_surgery(TREFOIL, 2) == 2
    assert casson_surgery(TREFOIL, 0) == 0


def test_casson_surgery_linear_in_n():
    for knot in BUILTIN_KNOTS.values():
        base = casson_surgery(knot, 1)
        for n in range(-3, 4):
            assert casson_surgery(knot, n) == n * base


def test_lambda2_surgery_values():
    assert lambda2_surgery(TREFOIL, 1) == 39
    assert lambda2_surgery(TREFOIL, 1) == POINCARE.lam2
    assert surgery_cocycle_value(TREFOIL) == 108
    assert surgery_cocycle_value(FIGURE_EIGHT) == 132
    assert lambda2_surgery(FIGURE_EIGHT, 1) == 69
    assert lambda2_surgery(TREFOIL, 0) == 0


def test_lambda2_surgery_is_the_displayed_quadratic():
    for knot in BUILTIN_KNOTS.values():
        v2 = jones_h_derivative(knot.jones, 2)
        v3 = jones_h_derivative(knot.jones, 3)
        c4 = knot.conway.coefficient(4)
        linear = Fraction(v2, 2) - Fraction(v3, 3)
        quad = v2 + Fraction(5, 3) * v2 * v2 - 60 * c4
        for n in range(-3, 4):
            assert lambda2_surgery(knot, n) == linear * n + quad * n * n


def test_connected_sum_of_poincare_spheres():
    assert connected_sum(POINCARE, POINCARE) == sphere(2, 114)


def test_connected_sum_identity():
    m = sphere(Fraction(7, 3), -5)
    assert connected_sum(m, sphere(0, 0)) == m


def test_d2_additive_under_connected_sum_randomized():
    rng = random.Random(5002)
    for _ in range(150):
        m1 = sphere(rng.randint(-9, 9), rng.randint(-99, 99))
        m2 = sphere(rng.randint(-9, 9), rng.randint(-99, 99))
        assert d2_value(connected_sum(m1, m2)) == d2_value(m1) + d2_value(m2)


def test_reverse_orientation_values():
    assert reverse_orientation(sphere(1, 39)) == sphere(-1, 45)
    assert reverse_orientation(sphere(0, 17)) == sphere(0, 17)


def test_reverse_orientation_is_an_involution():
    rng = random.Random(5003)
    for _ in range(100):
        m = sphere(rng.randint(-9, 9), rng.randint(-99, 99))
        assert reverse_orientation(reverse_orientation(m)) == m


def test_d2_and_vanishing_combo_values():
    assert d2_value(sphere(0, 5)) == 5
    assert d2_value(sphere(1, 39)) == 21
    assert vanishing_combo(POINCARE) == 24
    assert vanishing_combo(sphere(-1, 69)) == 48


def test_vanishing_combo_zero_on_deep_characterization():
    rng = random.Random(5004)
    for _ in range(100):
        lam = Fraction(rng.randint(-20, 20))
        m = SphereInvariants(lam, -3 * lam + 18 * lam * lam)
        assert vanishing_combo(m) == 0


def test_solve_alpha_r():
    assert solve_alpha_r() == (18, -3)


def test_alpha_r_consistency_identities():
    alpha, r = solve_alpha_r()
    rng = random.Random(5005)
    for _ in range(100):
        lam = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3)))
        lam2 = r * lam + alpha * lam * lam
        doubled = connected_sum(SphereInvariants(lam, lam2),
                                SphereInvariants(lam, lam2))
        assert doubled.lam2 == r * doubled.lam + alpha * doubled.lam ** 2
        reversed_ = reverse_orientation(SphereInvariants(lam, lam2))
        assert reversed_.lam2 == r * reversed_.lam + alpha * reversed_.lam ** 2
        assert -r * lam == (r + 6) * lam


def coefficient_rows(genus):
    """Per built-in knot, (J, Q, surgery side less 36 lambda^2) of its twist."""
    rows = []
    for knot in (TREFOIL, FIGURE_EIGHT):
        tau = tau2_bscc_twist(*knot.bscc_basis, genus)
        lam = casson_surgery(knot, 1)
        rows.append((j_form(tau, tau), q_form(tau, tau),
                     surgery_cocycle_value(knot) - 36 * lam * lam))
    return rows


def report_values(genus):
    return {c.name: c.computed for c in build_report(genus).checks}


def test_cocycle_equations_match_linear_system():
    for genus in (5, 6):
        assert coefficient_rows(genus) == [(12, 48, 72), (12, 80, 96)]
        computed = report_values(genus)
        assert computed["coefficient_equation_trefoil"] \
            == "12*r1 + 48*r2 = 72"
        assert computed["coefficient_equation_figure_eight"] \
            == "12*r1 + 80*r2 = 96"


def test_cocycle_coefficients():
    for genus in (5, 6):
        (j1, q1, b1), (j2, q2, b2) = coefficient_rows(genus)
        # (3, 3/4) solves both rows, and the rows are independent, so it
        # is the only solution.
        for j, q, rhs in ((j1, q1, b1), (j2, q2, b2)):
            assert 3 * j + Fraction(3, 4) * q == rhs
        assert j1 * q2 - j2 * q1 != 0
        assert report_values(genus)["cocycle_coefficients"] == "(3, 3/4)"


def linking(u, v):
    """L(u, v) = sum_i u_{a_i} v_{b_i}, the Seifert form in Heegaard position."""
    return sum(c * v.coeff(b(label.index))
               for label, c in u.items() if label.family == "a")


@st.composite
def bounding_bases(draw):
    """(genus, x, y) with omega(x, y) = 1 on at most four indices: a pair
    (a_i, b_i) moved by random symplectic transvections u -> u + w(u, v) v."""
    genus = draw(st.integers(5, 8))
    indices = draw(st.lists(st.integers(1, genus), min_size=2, max_size=4,
                            unique=True))
    labels = [f(i) for i in indices for f in (a, b)]
    x, y = FreeVec.single(a(indices[0])), FreeVec.single(b(indices[0]))
    for _ in range(draw(st.integers(2, 6))):
        v = FreeVec(zip(labels, draw(st.lists(st.integers(-2, 2),
                                              min_size=len(labels),
                                              max_size=len(labels)))))
        # omega is a Fraction; int() keeps the coefficients integers.
        x, y = x + int(omega(x, v)) * v, y + int(omega(y, v)) * v
    return genus, x, y


@settings(max_examples=100, deadline=None)
@given(bounding_bases())
@example((5, *reversed(TREFOIL.bscc_basis)))       # c2 = 1
@example((5, *FIGURE_EIGHT.bscc_basis))             # c2 = -1
def test_tree_route_equals_surgery_route_on_bounding_twists(basis):
    genus, x, y = basis
    assert omega(x, y) == 1
    c2 = linking(x, x) * linking(y, y) - linking(x, y) * linking(y, x)
    tau = tau2_bscc_twist(x, y, genus)
    assert j_form(tau, tau) == 12 * c2 ** 2
    assert q_form(tau, tau) == 64 * c2 ** 2 - 16 * c2
    assert [[seifert_form(u, v) for v in (x, y)] for u in (x, y)] \
        == [[linking(u, v) for v in (x, y)] for u in (x, y)]
    # The genus-1 Seifert surface gives Conway 1 + c2 z^2 and the Jones
    # polynomial with v2 = -6 c2 and v3 = c4 = 0.
    assert bounding_casson(x, y) == c2
    knot = KnotRecord(name="bounding", conway=LaurentPoly({0: 1, 2: c2}),
                      jones=LaurentPoly({0: 1 + 6 * c2, 1: -3 * c2,
                                         -1: -3 * c2}),
                      bscc_basis=(x, y))
    lam = casson_surgery(knot, 1)
    assert lam == c2
    assert b_form(tau, tau) == surgery_cocycle_value(knot) - 36 * lam ** 2 \
        == 84 * c2 ** 2 - 12 * c2


@pytest.mark.parametrize("genus", (10, 12, 14))
def test_j_form_on_dense_twists_at_large_genus(genus):
    # Full support on every a_i and b_i: the (0,4) and (4,0) pieces hold
    # about 1 500 terms each at genus 12, and J(tau, tau) = 12 c2^2 for any
    # (x, y), with c2 = L(x,x) L(y,y) - L(x,y) L(y,x) from plain dicts.  A
    # second dense twist pairs with the first in both orders as the closed
    # form seifert_q_j says.  The forms look up the omega-partners of each
    # term in the other piece instead of visiting every pair of terms, so at
    # genus 14 (2 shared vCPUs) building the two twists takes about 0.19 s,
    # splitting them into bidegree pieces 0.20 s and pairing them 0.03 s.
    rng = random.Random(genus)
    x, y, x2, y2 = ({(i, f): rng.choice((-2, -1, 1, 2))
                     for i in range(1, genus + 1) for f in "ab"}
                    for _ in range(4))

    def link(u, v):
        return sum(u[i, "a"] * v[i, "b"] for i in range(1, genus + 1))

    c2 = link(x, x) * link(y, y) - link(x, y) * link(y, x)
    assert c2
    p, q = (tuple(FreeVec({(a if f == "a" else b)(i): c
                           for (i, f), c in u.items()}) for u in pair)
            for pair in ((x, y), (x2, y2)))
    tau_p, tau_q = (tau2_bscc_twist(*pair, genus) for pair in (p, q))
    assert j_form(tau_p, tau_p) == 12 * c2 ** 2
    assert (q_form(tau_p, tau_q), j_form(tau_p, tau_q)) == seifert_q_j(p, q)
    assert (q_form(tau_q, tau_p), j_form(tau_q, tau_p)) == seifert_q_j(q, p)


@st.composite
def twist_pairs(draw):
    """(genus, p, q): two pairs of H vectors on two or three shared indices
    with coefficients in -2..2, omega(x, y) unconstrained."""
    genus = draw(st.integers(5, 8))
    indices = draw(st.lists(st.integers(1, genus), min_size=2, max_size=3,
                            unique=True))
    labels = [f(i) for i in indices for f in (a, b)]
    coeffs = st.lists(st.integers(-2, 2), min_size=len(labels),
                      max_size=len(labels))
    x_p, y_p, x_q, y_q = (FreeVec(zip(labels, draw(coeffs)))
                          for _ in range(4))
    return genus, (x_p, y_p), (x_q, y_q)


@settings(max_examples=100, deadline=None)
@given(twist_pairs())
@example((5, TREFOIL.bscc_basis, FIGURE_EIGHT.bscc_basis))     # (16, 12)
@example((5, FIGURE_EIGHT.bscc_basis, TREFOIL.bscc_basis))     # (-16, 12)
def test_seifert_closed_form_gives_q_and_j_of_any_twist_pair(pairs):
    genus, p, q = pairs
    tau_p, tau_q = (tau2_bscc_twist(*pair, genus) for pair in (p, q))
    assert (q_form(tau_p, tau_q), j_form(tau_p, tau_q)) == seifert_q_j(p, q)


@st.composite
def lambda2_pairs(draw):
    """(genus, w_p, w_q): two vectors of Lambda^2 H on two or three shared
    indices, each a wedge of two H vectors or a sum of three to eight
    wedge keys, so about two draws in five give a nonzero Q or J."""
    genus = draw(st.integers(2, 8))
    indices = draw(st.lists(st.integers(1, genus), min_size=2, max_size=3,
                            unique=True))
    labels = [f(i) for i in sorted(indices) for f in (a, b)]
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    leg = st.dictionaries(st.sampled_from(labels), coeff, min_size=2,
                          max_size=4)
    wedges = st.dictionaries(st.sampled_from(list(combinations(labels, 2))),
                             coeff, min_size=3, max_size=8)

    def vector():
        if draw(st.booleans()):
            return wedge_expand(FreeVec(draw(leg)), FreeVec(draw(leg)))
        return FreeVec(draw(wedges))

    return genus, vector(), vector()


@settings(max_examples=60, deadline=None)
@given(lambda2_pairs())
def test_block_trace_closed_form_gives_q_and_j_of_any_square(case):
    # tau_w = 2 w.w for any w of Lambda^2 H, decomposable or not, against
    # traces of the blocks of w's coefficient matrix, in both orders.
    genus, w_p, w_q = case
    tau_p, tau_q = (a2_normalize(2 * sym_product(w, w)) for w in (w_p, w_q))
    assert (tau2_square(w_p), tau2_square(w_q)) == (tau_p, tau_q)
    assert (q_form(tau_p, tau_q), j_form(tau_p, tau_q)) \
        == block_q_j(w_p, w_q, genus)
    assert (q_form(tau_q, tau_p), j_form(tau_q, tau_p)) \
        == block_q_j(w_q, w_p, genus)


def test_cross_route_cocycle_equality():
    from treetrace.forms import cocycle
    for knot, want in ((TREFOIL, 108), (FIGURE_EIGHT, 132)):
        lam = bounding_casson(*knot.bscc_basis)
        tau = tau2_bscc_twist(*knot.bscc_basis, 5)
        form_side = cocycle(lam, tau, lam, tau)
        surgery_side = lambda2_surgery(knot, 2) - 2 * lambda2_surgery(knot, 1)
        assert form_side == surgery_side == want


def test_invariants_of_computed_spheres_are_integers():
    for knot in BUILTIN_KNOTS.values():
        for n in range(-3, 4):
            assert casson_surgery(knot, n).denominator == 1
            assert lambda2_surgery(knot, n).denominator == 1
