import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (block_q_j, conway_from_seifert, gl_orbit,
                     jones_series_derivative, seifert_q_j, surgery_fractions,
                     torus_knot)
from treetrace.cli import build_report
from treetrace.exact import FreeVec
from treetrace.forms import cocycle, cocycle_values, j_form, q_form
from treetrace.surgery import (
    _seifert_matrix,
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
    twist_forms,
    vanishing_combo,
)
from treetrace.symplectic import a, b, omega
from treetrace.trees import (a2_normalize, sym_product, tau2_bscc_twist,
                              tau2_square, wedge_expand)


def sphere(lam, lam2):
    return SphereInvariants(Fraction(lam), Fraction(lam2))


def test_laurent_poly_drops_zero_coefficients():
    p = LaurentPoly({3: 0, 1: 2, -1: 1})
    assert p.sorted_items() == [(-1, 1), (1, 2)]
    assert p.coeff(3) == 0
    assert jones_h_derivative(p, 0) == 3


def test_laurent_poly_refuses_non_integers():
    # {2: 1.5, 0.9: 1} used to become {0: 1, 2: 1} through int().
    for coeffs in ({2: 1.5, 0.9: 1}, {2: 1.5}, {0.9: 1}, {"2": 1},
                   {2: "1"}, {Fraction(1, 2): 1}, {2: Fraction(3)}):
        with pytest.raises(TypeError):
            LaurentPoly(coeffs)


def test_laurent_poly_arithmetic_keeps_laurent_polys():
    p, q = TREFOIL.conway, LaurentPoly({-1: 3, 0: 1, 2: -1})
    for value, want in ((p + p, {0: 2, 2: 2}), (p - q, {-1: -3, 2: 2}),
                        (-q, {-1: -3, 0: -1, 2: 1}), (2 * p, {0: 2, 2: 2}),
                        (q * -3, {-1: -9, 0: -3, 2: 3}), (p * 0, {})):
        assert type(value) is LaurentPoly
        assert value.sorted_items() == sorted(want.items())
        assert all(type(c) is int for _, c in value.sorted_items())
    assert (p + p).coeff(2) == 2
    assert repr(-p) == "LaurentPoly(-1*0 + -1*2)"
    for bad in (Fraction(1, 2), Fraction(2), 0.5, "2"):
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p


@given(st.permutations([(-2, 1), (0, -1), (1, 3), (1, -3), (4, 2)]))
def test_laurent_poly_equality_ignores_input_order(pairs):
    assert LaurentPoly(pairs) == LaurentPoly({4: 2, -2: 1, 0: -1})
    assert repr(TREFOIL.conway).startswith("LaurentPoly(")


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
    assert TREFOIL.conway.coeff(4) == 0
    assert FIGURE_EIGHT.conway.coeff(4) == 0
    assert LaurentPoly({4: 1, 2: 1, 0: 1}).coeff(4) == 1
    assert TREFOIL.conway.coeff(2) == 1


def test_jones_h_derivatives():
    assert jones_h_derivative(TREFOIL.jones, 2) == -6
    assert jones_h_derivative(FIGURE_EIGHT.jones, 2) == 6
    assert jones_h_derivative(TREFOIL.jones, 3) == 36
    assert jones_h_derivative(FIGURE_EIGHT.jones, 3) == 0
    assert jones_h_derivative(TREFOIL.jones, 0) == 1
    assert jones_h_derivative(TREFOIL.jones, 1) == 0


def test_jones_h_derivative_order_is_nonnegative():
    with pytest.raises(ValueError, match="derivative order"):
        jones_h_derivative(TREFOIL.jones, -1)


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


# The torus knots T(2, 2k+1), k = 1-10, from their closed forms: real knots
# with c4 != 0 from k = 2 on, which the built-in knots do not have.
TORUS_KNOTS = [torus_knot(k) for k in range(1, 11)]


def test_lambda2_surgery_is_the_displayed_quadratic():
    # The integer evaluation against the displayed Fraction formulas, also
    # on the torus knots, so the -60 c4 term meets real knots.
    for knot in [*BUILTIN_KNOTS.values(), *TORUS_KNOTS]:
        for n in range(-5, 6):
            lam, lam2 = casson_surgery(knot, n), lambda2_surgery(knot, n)
            assert (lam, lam2) == surgery_fractions(knot, n), (knot.name, n)
            assert type(lam) is type(lam2) is Fraction
        assert surgery_cocycle_value(knot) == (
            surgery_fractions(knot, 2)[1] - 2 * surgery_fractions(knot, 1)[1])
        assert type(surgery_cocycle_value(knot)) is Fraction


def test_torus_knots_from_their_closed_forms():
    assert [knot.conway.coeff(4) for knot in TORUS_KNOTS[1:5]] == [
        1, 5, 15, 35]
    assert [jones_h_derivative(knot.jones, 3)
            for knot in TORUS_KNOTS[:3]] == [36, 180, 504]
    trefoil = TORUS_KNOTS[0]
    assert (trefoil.conway, trefoil.jones) == (TREFOIL.conway, TREFOIL.jones)
    assert lambda2_surgery(trefoil, 1) == 39
    assert (casson_surgery(TORUS_KNOTS[1], 1),
            lambda2_surgery(TORUS_KNOTS[1], 1)) == (3, 393)


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


def test_m5_obstruction_is_a_polynomial_in_n():
    # For 1/n surgery on K, lambda = n*c2 (v2 = -6*c2, which KnotRecord
    # enforces), so lambda2 + 3*lambda - 18*lambda^2 = n*(B*n - v3/3) with
    # B = 42*c2^2 - 6*c2 - 60*c4.  The T(2, p) closed form (v3/3)*n*(p*n - 1)
    # is checked here for k <= 50 (p = 2k + 1 <= 101), not proved.
    torus = [(2 * k + 1, torus_knot(k)) for k in range(1, 51)]
    ns = range(-20, 21)

    def obstruction(knot, n):
        return vanishing_combo(SphereInvariants(casson_surgery(knot, n),
                                                lambda2_surgery(knot, n)))

    rows = 0
    for knot in [TREFOIL, FIGURE_EIGHT] + [knot for _, knot in torus]:
        c2, c4 = knot.conway.coeff(2), knot.conway.coeff(4)
        big_b = 42 * c2 * c2 - 6 * c2 - 60 * c4
        v3_third = Fraction(jones_h_derivative(knot.jones, 3), 3)
        for n in ns:
            assert obstruction(knot, n) == n * (big_b * n - v3_third)
            rows += 1
    assert rows == 2132
    for n in ns:
        assert obstruction(TREFOIL, n) == 12 * n * (3 * n - 1)
        assert obstruction(FIGURE_EIGHT, n) == 48 * n * n
        for p, knot in torus:
            v3_third = Fraction(jones_h_derivative(knot.jones, 3), 3)
            assert obstruction(knot, n) == v3_third * n * (p * n - 1)
    # The Poincare sphere, 1/1 surgery on the trefoil.
    assert obstruction(TREFOIL, 1) == 24


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
    assert cocycle(0, tau, 0, tau) \
        == surgery_cocycle_value(knot) - 36 * lam ** 2 \
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


# The Seifert matrices of the trefoil and the figure-eight.
TREFOIL_V = [[1, 1], [0, 1]]
FIGURE_EIGHT_V = [[-1, 1], [0, 1]]
# omega of the basis e_1..e_4 of a genus-2 bounding surface.
STANDARD_OMEGA = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


def block_sum(v, w):
    """The Seifert matrix of a connected sum: v and w on the diagonal."""
    return ([row + [0] * len(w) for row in v]
            + [[0] * len(v) + row for row in w])


@st.composite
def genus_two_seifert_matrices(draw):
    """A 4x4 integral V with V - V^T the standard form: the diagonal and
    the upper triangle drawn in -2..2, and V_ji = V_ij - omega_ij."""
    v = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            v[i][j] = draw(st.integers(-2, 2))
            v[j][i] = v[i][j] - STANDARD_OMEGA[i][j]
    return v


def seifert_square(v):
    """(c2, c4, tau) of the knot with Seifert matrix V: c2 and c4 from
    ``conway_from_seifert``, tau the image of the twist on the curve that
    bounds its surface, tau2_square(e_1 ^ e_2 + e_3 ^ e_4) for the basis
    e_i = a_i + sum_k V_ki b_k, whose Seifert form is checked to be V."""
    size = range(len(v))
    basis = [FreeVec({a(i + 1): 1, **{b(k + 1): v[k][i] for k in size}})
             for i in size]
    assert [[seifert_form(x, y) for y in basis] for x in basis] == v
    conway = conway_from_seifert(v)
    w = wedge_expand(*basis[:2]) + wedge_expand(*basis[2:])
    return conway.get(2, 0), conway.get(4, 0), tau2_square(w)


@settings(max_examples=40, deadline=None)
@given(genus_two_seifert_matrices())
@example(block_sum(TREFOIL_V, TREFOIL_V))           # c4 = 1
@example(block_sum(TREFOIL_V, FIGURE_EIGHT_V))      # c4 = -1
def test_tree_route_equals_surgery_route_with_c4_at_genus_two(v):
    # The square of the twist is 1/2 surgery, so the cocycle on it is
    # lambda2(1/2) - 2 lambda2(1/1) = 2 (v2 + 5/3 v2^2 - 60 c4), v3 gone.
    c2, c4, tau = seifert_square(v)
    v2 = -6 * c2
    assert cocycle(c2, tau, c2, tau) \
        == 2 * (v2 + Fraction(5, 3) * v2 ** 2 - 60 * c4)


@pytest.mark.parametrize("v, conway, values", [
    # The granny knot, trefoil # trefoil.
    (block_sum(TREFOIL_V, TREFOIL_V), {0: 1, 2: 2, 4: 1}, (96, 40, 336)),
    # Trefoil # figure-eight: c2 = 0, so only c4 is left.
    (block_sum(TREFOIL_V, FIGURE_EIGHT_V), {0: 1, 4: -1}, (128, 8, 120)),
])
def test_connected_sums_of_the_built_in_knots(v, conway, values):
    c2, _, tau = seifert_square(v)
    assert conway_from_seifert(v) == conway
    q, j, _, c = cocycle_values(c2, tau, c2, tau)
    assert (q, j, c) == values


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


@st.composite
def genus_one_bases(draw, genus):
    """An integral genus-1 bounding-curve basis (x, y) with omega(x, y) = 1
    or -1 on indices 1..genus: (a_i, b_i) moved by transvections u -> u +
    omega(u, v) v, then swapped for omega = -1."""
    labels = [f(i) for i in range(1, genus + 1) for f in (a, b)]
    i = draw(st.integers(1, genus))
    x, y = FreeVec.single(a(i)), FreeVec.single(b(i))
    for _ in range(draw(st.integers(0, 4))):
        v = FreeVec(zip(labels, draw(st.lists(st.integers(-2, 2),
                                              min_size=len(labels),
                                              max_size=len(labels)))))
        x, y = x + int(omega(x, v)) * v, y + int(omega(y, v)) * v
    return (y, x) if draw(st.booleans()) else (x, y)


@st.composite
def genus_one_pairs(draw):
    genus = draw(st.integers(1, 6))
    return genus, draw(genus_one_bases(genus)), draw(genus_one_bases(genus))


@settings(max_examples=100, deadline=None)
@given(genus_one_pairs())
def test_twist_forms_equal_the_tree_route_in_both_orders(pairs):
    genus, p, q = pairs
    tau = {0: tau2_bscc_twist(*p, genus), 1: tau2_bscc_twist(*q, genus)}
    for (i, first), (j, second) in (((0, p), (1, q)), ((1, q), (0, p))):
        got = twist_forms(first, second)
        assert [type(value) for value in got] == [int, int]
        assert got == (q_form(tau[i], tau[j]), j_form(tau[i], tau[j])) \
            == seifert_q_j(first, second)


@pytest.mark.parametrize("p, q, values", [
    (TREFOIL.bscc_basis, TREFOIL.bscc_basis, (48, 12)),
    (FIGURE_EIGHT.bscc_basis, FIGURE_EIGHT.bscc_basis, (80, 12)),
    (TREFOIL.bscc_basis, FIGURE_EIGHT.bscc_basis, (16, 12)),
    (FIGURE_EIGHT.bscc_basis, TREFOIL.bscc_basis, (-16, 12)),
    # Disjoint supports: N = 0.
    ((FreeVec.single(a(1)), FreeVec.single(b(1))),
     (FreeVec.single(a(3)), FreeVec.single(b(3))), (0, 0)),
    (TREFOIL.bscc_basis,
     (FreeVec({a(3): 1, b(4): 2}), FreeVec({b(3): 1, a(4): 1})), (0, 0)),
])
def test_twist_forms_of_fixed_bases(p, q, values):
    assert twist_forms(p, q) == values


@pytest.mark.parametrize("basis, message", [
    ((FreeVec({a(1): 1, b(1): Fraction(1, 2), a(2): 1}),
      FreeVec({b(1): 2, a(3): 1, b(3): 1})),
     "bounding-curve basis needs integer coefficients"),
    ((FreeVec.single(a(1)), FreeVec.single(a(2))),
     "bounding-curve basis needs omega(x, y) = 1 or -1, got 0"),
    ((FreeVec.single(a(1)), FreeVec({b(1): 2})),
     "bounding-curve basis needs omega(x, y) = 1 or -1, got 2"),
])
def test_twist_forms_check_each_basis_as_bounding_casson(basis, message):
    with pytest.raises(ValueError) as refused:
        bounding_casson(*basis)
    assert str(refused.value) == message
    for pair in ((basis, TREFOIL.bscc_basis), (TREFOIL.bscc_basis, basis)):
        with pytest.raises(ValueError) as refused:
            twist_forms(*pair)
        assert str(refused.value) == message


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), genus=st.sampled_from((3, 5, 8)))
def test_gl_orbits_of_the_builtin_bases_keep_their_values(seed, genus):
    # One seeded GL(g, Z) word of 5g generators moves both built-in bases;
    # GL keeps the Seifert form, so every value of the bases must stay.
    knots = (TREFOIL, FIGURE_EIGHT)
    moved = gl_orbit([u for knot in knots for u in knot.bscc_basis], genus,
                     seed, 5 * genus)
    bases = [tuple(moved[:2]), tuple(moved[2:])]
    lams = []
    for knot, basis in zip(knots, bases):
        det, matrix = _seifert_matrix(*basis)
        assert (det, matrix) == _seifert_matrix(*knot.bscc_basis)
        assert det in (1, -1)
        lams.append(det)
    taus = [tau2_bscc_twist(*basis, genus) for basis in bases]
    assert [cocycle_values(lam, tau, lam, tau)
            for lam, tau in zip(lams, taus)] == [(48, 12, 72, 108),
                                                  (80, 12, 96, 132)]
    sides = list(zip(bases, lams, taus))
    for x, lam_x, tau_x in sides:
        for y, lam_y, tau_y in sides:
            assert twist_forms(x, y) == \
                cocycle_values(lam_x, tau_x, lam_y, tau_y)[:2]
    assert q_form(taus[0], taus[1]) == 16
    assert q_form(taus[1], taus[0]) == -16
