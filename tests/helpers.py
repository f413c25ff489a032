"""Shared random generators and small oracles for the test suite."""

import argparse
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

from hypothesis import strategies as st

from treetrace.cli import _cmd_report
from treetrace.commands import (
    _cmd_cocycle,
    _cmd_coinvariants,
    _cmd_surgery,
    _cmd_trace,
)
from treetrace.exact import FreeVec, canonical
from treetrace.forms import contract_cs, eta_s, key_bidegree
from treetrace.grammar import ParseError
from treetrace.surgery import KnotRecord, LaurentPoly
from treetrace.symplectic import (
    DEFAULT_GENUS,
    FAMILY_A,
    FAMILY_B,
    BasisLabel,
    Elementary,
    GLGenerator,
    SignFlip,
    Transposition,
    a,
    b,
    basis_labels,
    generator_label_image,
    gl_generator_action,
    hvec,
    label_omega,
)
from treetrace.trees import (
    HTree,
    a2_normalize,
    lambda4_embed,
    tree,
    tree_expand,
)


def rand_scalar(rng, lo=-9, hi=9):
    value = 0
    while value == 0:
        value = rng.randint(lo, hi)
    return Fraction(value, rng.choice((1, 1, 2, 3, 4)))


def rand_label(rng, genus):
    return BasisLabel(rng.randint(1, genus), rng.choice("ab"))


def rand_hvec(rng, genus, max_terms=3):
    terms = [(rand_label(rng, genus), rng.randint(-3, 3))
             for _ in range(rng.randint(1, max_terms))]
    return FreeVec(terms)


def rand_tree(rng, genus, max_terms=2) -> HTree:
    return tree(*(rand_hvec(rng, genus, max_terms) for _ in range(4)))


def rand_basic_tree(rng, genus) -> HTree:
    return tree(*(rand_label(rng, genus) for _ in range(4)))


def rand_basic_tensor(rng, genus, degree=4):
    return tuple(rand_label(rng, genus) for _ in range(degree))


def expand(*slots) -> FreeVec:
    """tree_expand of a tree given by labels or H vectors."""
    return tree_expand(tree(*slots))


def tau2_two_wedges(x, y) -> FreeVec:
    """Twice the normal form of the tree with both legs (x, y), expanding
    x ^ y once per leg: the oracle for ``trees.tau2_bscc_twist``, which
    squares one wedge."""
    x, y = hvec(x), hvec(y)
    return 2 * a2_normalize(tree_expand(HTree(x, y, x, y)))


@st.composite
def tree_combinations(draw, genera=(4, 5, 6)):
    """A genus drawn from ``genera`` and a combination of expanded trees
    whose legs are small vectors of H, so labels repeat within and across
    trees.  Coefficients are nonzero ints or Fractions."""
    genus = draw(st.sampled_from(genera))
    label = st.sampled_from(basis_labels(genus))
    leg = st.dictionaries(label, st.sampled_from((-3, -2, -1, 1, 2, 3)),
                          min_size=1, max_size=3)
    numerator = st.sampled_from([n for n in range(-9, 10) if n])
    coeff = st.one_of(numerator,
                      st.builds(Fraction, numerator, st.integers(1, 4)))
    v = FreeVec()
    for c, legs in draw(st.lists(st.tuples(coeff, st.tuples(leg, leg, leg, leg)),
                                 min_size=1, max_size=4)):
        v = v + c * tree_expand(HTree(*map(FreeVec, legs)))
    return genus, v


def filter_project_bidegree(v: FreeVec, s: int, t: int) -> FreeVec:
    """Bidegree projection by filtering terms on their A-label count; the
    oracle for the memoised split behind ``forms.project_bidegree``."""
    def bidegree(key):
        n_a = sum(1 for lbl in key if lbl.family == FAMILY_A)
        return n_a, 4 - n_a

    return FreeVec((key, c) for key, c in v.items() if bidegree(key) == (s, t))


# ---------------------------------------------------------------------------
# Slot-by-slot Lagrangian trace: the oracle for ``forms.trace_a``/``trace_b``,
# which read the cached contractions of the (1,3) and (3,1) pieces instead
# ---------------------------------------------------------------------------

# Permutations sending slot s to position 0 using the two tree symmetries
# (sign for a swap within a leg, none for the leg swap).
FRONT = {
    0: ((0, 1, 2, 3), 1),
    1: ((1, 0, 2, 3), -1),
    2: ((2, 3, 0, 1), 1),
    3: ((3, 2, 0, 1), -1),
}


def slotwise_trace(v: FreeVec, family: str) -> FreeVec:
    """Trace of ``v`` to S^2 of the other family, term by term: move the
    first slot of ``family`` to the front (tracking the AS sign), then
    contract it against the opposite family.  A term with no label of
    ``family`` raises ValueError, naming the least such key."""
    other = FAMILY_B if family == FAMILY_A else FAMILY_A
    terms = []
    for key, coeff in v.sorted_items():
        slot = next((k for k, lbl in enumerate(key) if lbl.family == family),
                    None)
        if slot is None:
            raise ValueError("term (%s^%s)(%s^%s) has no %s-label; trace "
                             "undefined there" % (key + (family,)))
        perm, sign = FRONT[slot]
        head, c_, d_, e_ = (key[p] for p in perm)
        total = coeff * sign
        if c_.family == other:
            w = label_omega(head, e_)
            if w and d_.family == other:
                pair = (d_, c_) if d_ <= c_ else (c_, d_)
                terms.append((pair, total * w))
            w = label_omega(head, d_)
            if w and e_.family == other:
                pair = (e_, c_) if e_ <= c_ else (c_, e_)
                terms.append((pair, -total * w))
    return FreeVec(terms)


# ---------------------------------------------------------------------------
# Pairings the package does not export: the contraction pairing of two tree
# vectors and the inner product of two basic trees given as label tuples
# ---------------------------------------------------------------------------

_V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_C2 = (((0, 1, 2, 3), 1), ((0, 1, 3, 2), -1))


def upsilon(x: FreeVec, y: FreeVec) -> Fraction:
    """Pair the contractions of both arguments: eta_s(C x, C y)."""
    return eta_s(contract_cs(x), contract_cs(y))


def omega_written_out(u: BasisLabel, v: BasisLabel) -> int:
    """The intersection form on basis labels from their indices and
    families: omega(a_i, b_i) = 1 = -omega(b_i, a_i), all else 0."""
    if u.index != v.index:
        return 0
    if (u.family, v.family) == (FAMILY_A, FAMILY_B):
        return 1
    if (u.family, v.family) == (FAMILY_B, FAMILY_A):
        return -1
    return 0


def eta_all_pairs(x: FreeVec, y: FreeVec) -> Fraction:
    """eta_s(x, y) summed over every pair of terms: (u v, w z) pairs to
    omega(u, w) omega(v, z) + omega(u, z) omega(v, w), for any key layout."""
    om = omega_written_out
    return sum((cx * cy * (om(u, w) * om(v, z) + om(u, z) * om(v, w))
                for (u, v), cx in x.items() for (w, z), cy in y.items()),
               Fraction(0))


def nabla_pair(xs: tuple, ys: tuple) -> Fraction:
    """Inner product of two basic trees given as 4-tuples of slot labels.

    Signed sum over the Klein four-group on the right slots and the swap of
    the left tree's second leg; the two half-weight terms realize the fused
    gluing pattern.
    """
    acc = 0
    for sigma in _V4:
        y0 = ys[sigma[0]]
        w0 = label_omega(xs[0], y0)
        if not w0:
            continue
        y1, y2, y3 = ys[sigma[1]], ys[sigma[2]], ys[sigma[3]]
        for tau, sgn in _C2:
            xt2, xt3 = xs[tau[2]], xs[tau[3]]
            t1 = (label_omega(xs[1], y1)
                  * label_omega(xt2, y2) * label_omega(xt3, y3))
            t2 = (label_omega(xs[1], y2)
                  * label_omega(xt2, y3) * label_omega(xt3, y1))
            t3 = (label_omega(xs[1], y3)
                  * label_omega(xt2, y2) * label_omega(xt3, y1))
            acc += sgn * w0 * (2 * t1 - t2 + t3)
    return Fraction(acc, 2)


def nabla_all_pairs(x: FreeVec, y: FreeVec) -> Fraction:
    """nabla(x, y) as the sum of c c' nabla_pair over every pair of terms."""
    return sum((cx * cy * nabla_pair(kx, ky)
                for kx, cx in x.items() for ky, cy in y.items()),
               Fraction(0))


# ---------------------------------------------------------------------------
# Pairing by partner layouts: the term-by-term loops behind eta_s and nabla
# before they became dot products of cached images, kept as their oracles
# ---------------------------------------------------------------------------


def _partner(u: BasisLabel) -> BasisLabel:
    # The one basis label omega pairs with u: same index, other family.
    return BasisLabel(u.index, FAMILY_B if u.family == FAMILY_A else FAMILY_A)


def _eta_total(x: FreeVec, y: FreeVec):
    # eta_s(x, y) as an int (a Fraction when a coefficient is one).  A term
    # (u, v) of x pairs to omega(u, u') omega(v, v') = +-1 with each of the
    # keys (u', v') and (v', u') of y (one key, counted twice, when u = v).
    ydata = y._terms
    if not x._terms or not ydata:
        return 0
    get = ydata.get
    total = 0
    for (u, v), cx in x._terms.items():
        pu, pv = _partner(u), _partner(v)
        cy = get((pu, pv), 0) + get((pv, pu), 0)
        if cy:
            total += cx * cy if u.family == v.family else -cx * cy
    return total


def _nabla_total(x: FreeVec, y: FreeVec):
    # Twice nabla: 2 (m01 n23 + m23 n01) + m02 n13 + m13 n02 - m03 n12
    # - m12 n03 per term pair.  M is (-1)^(number of B-labels of x) times
    # the 0/1 matrix placing x's partners in y's slots, so m_ij n_kl is
    # that sign times the signed sum, over the four orders (p, q) of x's
    # first leg and (r, t) of its second, of [y_i y_j y_k y_l = p q r t]:
    # the coefficient in y of the key with those labels in those slots.
    ydata = y._terms
    if not x._terms or not ydata:
        return 0
    get = ydata.get
    total = 0
    for kx, cx in x._terms.items():
        p0, p1, p2, p3 = map(_partner, kx)
        acc = 0
        for p, q, r, t, sign in ((p0, p1, p2, p3, 1), (p1, p0, p2, p3, -1),
                                 (p0, p1, p3, p2, -1), (p1, p0, p3, p2, 1)):
            acc += sign * (2 * (get((p, q, r, t), 0) + get((r, t, p, q), 0))
                           + get((p, r, q, t), 0) + get((r, p, t, q), 0)
                           - get((p, r, t, q), 0) - get((r, p, q, t), 0))
        if acc:
            total += -cx * acc if key_bidegree(kx)[1] % 2 else cx * acc
    return total


# ---------------------------------------------------------------------------
# Span reduction: Gaussian elimination with canonical residuals, the oracle
# behind ``span_a2_normalize`` and the tests' rank checks
# ---------------------------------------------------------------------------


def _sub_scaled(data: dict, src: dict, factor: Fraction):
    # data -= factor * src, in place, dropping zeros.
    for key, coeff in src.items():
        acc = data.get(key, 0) - factor * coeff
        if acc:
            data[key] = acc
        else:
            data.pop(key, None)


class SpanBasis:
    """Echelon span of a list of FreeVecs with deterministic pivoting.

    Each stored row is pivoted on the smallest key of its support, so
    reducing a vector (smallest pivot first) yields a canonical residual:
    the unique representative of its class modulo the span that touches no
    pivot key.  Expansion coefficients over the *original* vector list are
    tracked through the elimination.
    """

    def __init__(self, vectors=()):
        self._pivots = {}   # pivot key -> (row dict, combo dict over input indices)
        self._order = []    # pivot keys, kept sorted
        self.size = 0       # number of vectors added
        for v in vectors:
            self.add(v)

    def add(self, vector: FreeVec) -> bool:
        """Add one vector to the span.  True if it enlarged the span."""
        index = self.size
        self.size += 1
        row, combo = self._reduce_raw(dict(vector._terms))
        combo = {i: -c for i, c in combo.items()}
        combo[index] = Fraction(1)
        if not row:
            return False
        pivot = min(row)
        lead = Fraction(row[pivot])  # exact division even off int coefficients
        row = {k: c / lead for k, c in row.items()}
        combo = {i: c / lead for i, c in combo.items() if c}
        self._pivots[pivot] = (row, combo)
        self._order = sorted(self._pivots)
        return True

    def _reduce_raw(self, data: dict):
        # Returns (residual dict, used dict) with input = residual + sum used[i]*original_i.
        used = {}
        for pivot in self._order:
            factor = data.get(pivot)
            if not factor:
                continue
            row, combo = self._pivots[pivot]
            _sub_scaled(data, row, factor)
            for i, c in combo.items():
                acc = used.get(i, 0) + factor * c
                if acc:
                    used[i] = acc
                else:
                    del used[i]
        return data, used

    def reduce(self, vector: FreeVec):
        """Split ``vector`` as (coefficients over the added vectors, residual)."""
        data, used = self._reduce_raw(dict(vector._terms))
        coeffs = [used.get(i, Fraction(0)) for i in range(self.size)]
        return coeffs, FreeVec._raw(data)

    def contains(self, vector: FreeVec) -> bool:
        data, _ = self._reduce_raw(dict(vector._terms))
        return not data

    @property
    def rank(self) -> int:
        return len(self._pivots)


def span_reduce(basis_list, v: FreeVec):
    """Express ``v = sum(c_i * basis_i) + residual`` with a canonical residual.

    The residual is zero iff ``v`` lies in the span of ``basis_list``; it is
    a fixed point of a second reduction against the same list.
    """
    span = SpanBasis(basis_list)
    return span.reduce(v)


# ---------------------------------------------------------------------------
# GL generators acting on H, trees and S^2(Lambda^2 H), label by label: the
# oracles for the package's tensor action ``gl_generator_action``
# ---------------------------------------------------------------------------


def all_generators(genus: int) -> list:
    """Every generator with indices in 1..genus."""
    gens = []
    for i in range(1, genus + 1):
        gens.append(SignFlip(i))
        for j in range(1, genus + 1):
            if i < j:
                gens.append(Transposition(i, j))
            if i != j:
                gens.append(Elementary(i, j, 1))
                gens.append(Elementary(i, j, -1))
    return gens


def gl_hvec_action(gen: GLGenerator, u: FreeVec) -> FreeVec:
    """Linear action of a generator on a vector of H."""
    terms = []
    for label, coeff in u.items():
        for image, ic in generator_label_image(gen, label):
            terms.append((image, coeff * ic))
    return FreeVec(terms)


def gl_orbit(vectors, genus: int, seed: int, steps: int) -> list:
    """The H vectors ``vectors`` moved by one seeded word of ``steps``
    generators of GL(genus, Z), about 70 % ``Elementary``, 20 %
    ``Transposition`` and 10 % ``SignFlip``, each applied to every vector
    as a combination of 1-tensors through ``gl_generator_action``.  The word
    stays in GL, which keeps the Seifert form L; Sp would not."""
    rng = random.Random(seed)
    tensors = [FreeVec(((label,), c) for label, c in v.items())
               for v in vectors]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.1:
            gen = SignFlip(rng.randint(1, genus))
        else:
            i, j = rng.sample(range(1, genus + 1), 2)
            gen = (Transposition(i, j) if roll < 0.3
                   else Elementary(i, j, rng.choice((1, -1))))
        tensors = [gl_generator_action(gen, t) for t in tensors]
    return [FreeVec((label, c) for (label,), c in t.items()) for t in tensors]


def gl_tree_action(gen, t: HTree) -> HTree:
    """A GL generator applied to all four labels of a tree."""
    return HTree(gl_hvec_action(gen, t.x1), gl_hvec_action(gen, t.x2),
                 gl_hvec_action(gen, t.x3), gl_hvec_action(gen, t.x4))


def gl_s2l2_action(gen, v: FreeVec) -> FreeVec:
    """Diagonal GL generator action on an expanded S^2(Lambda^2 H) vector."""
    out = FreeVec()
    for key, coeff in v.items():
        l1, l2, l3, l4 = key
        image = tree_expand(tree(gl_hvec_action(gen, hvec(l1)),
                                 gl_hvec_action(gen, hvec(l2)),
                                 gl_hvec_action(gen, hvec(l3)),
                                 gl_hvec_action(gen, hvec(l4))))
        out = out + coeff * image
    return out


@lru_cache(maxsize=None)
def lambda4_basis(genus: int) -> tuple:
    """Embeddings of all strictly increasing basis 4-tuples at this genus."""
    return tuple(lambda4_embed(*quad)
                 for quad in combinations(basis_labels(genus), 4))


@lru_cache(maxsize=None)
def _lambda4_span(genus: int) -> SpanBasis:
    return SpanBasis(lambda4_basis(genus))


def span_a2_normalize(v: FreeVec, genus: int) -> FreeVec:
    """Independent oracle for ``a2_normalize``: the canonical residual of
    Gaussian elimination against every embedded 4-tuple at this genus."""
    _, residual = _lambda4_span(genus).reduce(v)
    return residual


def _index_counts(tensor: tuple) -> dict:
    counts = {}
    for label in tensor:
        p, q = counts.get(label.index, (0, 0))
        if label.family == FAMILY_A:
            counts[label.index] = (p + 1, q)
        else:
            counts[label.index] = (p, q + 1)
    return counts


def _rename_chord(tensor: tuple) -> tuple:
    # Indices renamed 1, 2, ... ascending by first slot occurrence.
    renaming = {}
    out = []
    for label in tensor:
        new = renaming.get(label.index)
        if new is None:
            new = len(renaming) + 1
            renaming[label.index] = new
        out.append(BasisLabel(new, label.family))
    return tuple(out)


def _reduce_basic(tensor: tuple) -> tuple:
    """Reduce one basic tensor; returns ((chord, int coeff), ...).

    A tensor with any unbalanced index (different numbers of a_i and b_i,
    which covers the odd-total case) dies in the coinvariant quotient.  An
    index carrying both labels more than once is split: the leftmost a_i
    and each b_i slot in turn are renamed to a fresh index, giving one
    summand per b_i slot.  Lowest repeated index first; the fresh index is
    the smallest one absent from the tensor.
    """
    counts = _index_counts(tensor)
    if any(p != q for p, q in counts.values()):
        return ()
    repeated = sorted(i for i, (p, _) in counts.items() if p > 1)
    if not repeated:
        return ((_rename_chord(tensor), 1),)
    target = repeated[0]
    fresh = 1
    while fresh in counts:
        fresh += 1
    a_slot = next(k for k, lbl in enumerate(tensor)
                  if lbl.index == target and lbl.family == FAMILY_A)
    totals = {}
    for b_slot, lbl in enumerate(tensor):
        if lbl.index != target or lbl.family != FAMILY_B:
            continue
        split = list(tensor)
        split[a_slot] = a(fresh)
        split[b_slot] = b(fresh)
        for chord, coeff in _reduce_basic(tuple(split)):
            totals[chord] = totals.get(chord, 0) + coeff
    return tuple(sorted((k, c) for k, c in totals.items() if c))


def split_coinvariant_reduce(t) -> FreeVec:
    """Independent oracle for ``coinvariant_reduce``: split repeated index
    pairs one slot pair at a time, recursively, and rename at the leaves.
    No validation; ``t`` is a FreeVec over basic tensors."""
    terms = []
    for tensor, coeff in t.items():
        for chord, ic in _reduce_basic(tensor):
            terms.append((chord, coeff * ic))
    return FreeVec(terms)


def basic_trees_of_bidegree(genus, n_a):
    """All 4-tuples of basis labels with exactly n_a A-family slots."""
    labels = basis_labels(genus)
    out = []

    def grow(prefix, remaining_a):
        if len(prefix) == 4:
            if remaining_a == 0:
                out.append(tuple(prefix))
            return
        slots_left = 4 - len(prefix)
        for lbl in labels:
            is_a = lbl.family == "a"
            if is_a and remaining_a == 0:
                continue
            if not is_a and slots_left == remaining_a:
                continue
            prefix.append(lbl)
            grow(prefix, remaining_a - (1 if is_a else 0))
            prefix.pop()

    grow([], n_a)
    return out


def jones_series_derivative(poly, i):
    """Independent oracle: substitute t = exp(-h) as a truncated power
    series and read off i! times the i-th Taylor coefficient."""
    order = i + 1
    series = [Fraction(0)] * order
    for n, c in poly.sorted_items():
        power = Fraction(1)
        factorial = 1
        for k in range(order):
            if k:
                factorial *= k
                power *= -n
            series[k] += Fraction(c) * power / factorial
    factorial = 1
    for k in range(1, i + 1):
        factorial *= k
    return series[i] * factorial


def surgery_fractions(knot, n):
    """Oracle for (lambda, lambda2) of 1/n surgery on ``knot``: the
    displayed Fraction formulas -n/6 v2 and n/2 v2 - n/3 v3 + n^2 (v2 +
    5/3 v2^2 - 60 c4), with v2 and v3 from the power-series oracle."""
    v2 = jones_series_derivative(knot.jones, 2)
    v3 = jones_series_derivative(knot.jones, 3)
    c4 = knot.conway.coeff(4)
    quadratic = v2 + Fraction(5, 3) * v2 * v2 - 60 * c4
    return (Fraction(-n, 6) * v2,
            Fraction(n, 2) * v2 - Fraction(n, 3) * v3 + n * n * quadratic)


def torus_knot(k):
    """The torus knot T(2, 2k+1) from its closed forms: Jones polynomial
    V = t^k (1 - t^3 - t^(2k+2) + t^(2k+3)) / (1 - t^2), divided out
    exactly, and Conway polynomial sum_j C(k+j, 2j) z^(2j)."""
    numerator = {0: 1, 3: -1, 2 * k + 2: -1, 2 * k + 3: 1}
    # The quotient's coefficient of t^i is numerator_i + quotient_(i-2); its
    # would-be terms at t^(2k+2) and t^(2k+3) are the remainder.
    quotient = []
    for i in range(2 * k + 4):
        quotient.append(numerator.get(i, 0)
                        + (quotient[i - 2] if i >= 2 else 0))
    assert quotient[-2:] == [0, 0], "1 - t^2 does not divide the numerator"
    return KnotRecord(
        name="T(2,%d)" % (2 * k + 1),
        conway=LaurentPoly({2 * j: comb(k + j, 2 * j) for j in range(k + 1)}),
        jones=LaurentPoly({k + i: c for i, c in enumerate(quotient) if c}))


def seifert_q_j(p, q):
    """Closed-form oracle for (Q(tau_p, tau_q), J(tau_p, tau_q)) of the twist
    images of two pairs p = (x_p, y_p), q = (x_q, y_q) of H vectors, in
    plain integers: with L(u, v) = sum_i u_{a_i} v_{b_i}, the cross matrix
    N_ij = L(q_i, p_j) and A(x, y) = [[2L(y,y), -s], [-s, 2L(x,x)]], where
    s = L(x,y) + L(y,x), Q = 8 tr(A(p) N^T A(q) N) and J = 12 det(N)^2."""
    def link(u, v):
        return sum(int(c) * int(v.coeff(b(label.index)))
                   for label, c in u.items() if label.family == FAMILY_A)

    def adjugate(x, y):
        s = link(x, y) + link(y, x)
        return [[2 * link(y, y), -s], [-s, 2 * link(x, x)]]

    def mul(m, n):
        return [[sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    n = [[link(u, v) for v in p] for u in q]
    n_t = [list(row) for row in zip(*n)]
    m = mul(mul(mul(adjugate(*p), n_t), adjugate(*q)), n)
    det = n[0][0] * n[1][1] - n[0][1] * n[1][0]
    return 8 * (m[0][0] + m[1][1]), 12 * det ** 2


def block_q_j(w_p, w_q, genus):
    """Closed-form oracle for (Q(tau_p, tau_q), J(tau_p, tau_q)) of the
    images tau_w = 2 w.w of two vectors w of Lambda^2 H over wedge keys,
    decomposable or not, in plain lists: w is read as the blocks
    A = W[a, a], B = W[b, b] and C = W[a, b] of its antisymmetric
    coefficient matrix W (C_ij the coefficient of a_i ^ b_j), and
    Q = 16 tr((B_p C_p - C_p^T B_p) C_q A_q),
    J = 2 tr(A_q B_p)^2 + 2 tr((A_q B_p)^2)."""
    indices = range(1, genus + 1)

    def blocks(w):
        entry = {}
        for (u, v), c in w.items():
            entry[u, v] = entry.get((u, v), 0) + c
            entry[v, u] = entry.get((v, u), 0) - c

        def block(left, right):
            return [[entry.get((BasisLabel(i, left), BasisLabel(j, right)), 0)
                     for j in indices] for i in indices]

        return (block(FAMILY_A, FAMILY_A), block(FAMILY_B, FAMILY_B),
                block(FAMILY_A, FAMILY_B))

    def mul(m, n):
        return [[sum(m[i][k] * n[k][j] for k in range(genus))
                 for j in range(genus)] for i in range(genus)]

    def trace(m):
        return sum(m[i][i] for i in range(genus))

    _, b_p, c_p = blocks(w_p)
    a_q, _, c_q = blocks(w_q)
    c_p_t = [list(row) for row in zip(*c_p)]
    twist = [[x - y for x, y in zip(r, s)]
             for r, s in zip(mul(b_p, c_p), mul(c_p_t, b_p))]
    ab = mul(a_q, b_p)
    return (16 * trace(mul(mul(twist, c_q), a_q)),
            2 * trace(ab) ** 2 + 2 * trace(mul(ab, ab)))


def conway_from_seifert(v):
    """Independent oracle: the Conway polynomial of a knot with Seifert
    matrix ``v`` (a square list of integer rows), as a plain dict
    z-exponent -> nonzero coefficient.  det(s V - s^-1 V^T) is expanded by
    Leibniz's formula over Laurent polynomials in s, kept as dicts
    exponent -> coefficient, and rewritten in z = s - s^-1 by taking off
    c (s - s^-1)^d for its top term c s^d until nothing is left."""
    def times(p, q):
        out = {}
        for i, c in p.items():
            for j, d in q.items():
                out[i + j] = out.get(i + j, 0) + c * d
        return out

    size = len(v)
    det = {}
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in combinations(range(size), 2))
        term = {0: (-1) ** inversions}
        for row, col in enumerate(perm):
            term = times(term, {1: v[row][col], -1: -v[col][row]})
        for e, c in term.items():
            det[e] = det.get(e, 0) + c
    det = {e: c for e, c in det.items() if c}
    conway = {}
    while det:
        top = max(det)
        assert top >= 0, "det(s V - s^-1 V^T) is not a polynomial in z"
        c = conway[top] = det[top]
        for k in range(top + 1):
            det[top - 2 * k] = (det.get(top - 2 * k, 0)
                                - c * comb(top, k) * (-1) ** k)
        det = {e: c for e, c in det.items() if c}
    return conway


def report_dict(report) -> dict:
    """The document a ``report --format json`` run writes, as the dict
    ``json.dumps(..., indent=2)`` would be given."""
    return {
        "genus": report.genus,
        "overall_pass": report.overall_pass,
        "checks": [
            {"name": c.name, "expected": c.expected,
             "computed": c.computed, "pass": c.passed}
            for c in report.checks
        ],
    }


# The argparse command line that treetrace.cli used to build, kept as the
# oracle of its own parser: the same parser body, its integer converter,
# and the refusal of an empty list that argparse makes of "--opt=--".
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """An integer option value: an optional sign, then digits."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetrace",
        description="Exact symplectic tree-algebra and surgery-invariant calculator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="run all replication checks; exit 0 iff all pass")
    p_report.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.set_defaults(func=_cmd_report)

    p_cocycle = sub.add_parser(
        "cocycle", help="Q, J and full cocycle of two twists or knots")
    p_cocycle.add_argument("x", help="knot name or twist(x; y) spec")
    p_cocycle.add_argument("y", help="knot name or twist(x; y) spec")
    p_cocycle.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_cocycle.add_argument("--lambda-x",
                           help="Casson value for a twist-spec first "
                                "argument (default: c2 of its basis; a "
                                "built-in knot accepts only its own)")
    p_cocycle.add_argument("--lambda-y",
                           help="Casson value for a twist-spec second "
                                "argument (default: c2 of its basis; a "
                                "built-in knot accepts only its own)")
    p_cocycle.add_argument("--format", choices=("text", "json"), default="text")
    p_cocycle.set_defaults(func=_cmd_cocycle)

    p_surgery = sub.add_parser(
        "surgery", help="invariants of the sphere from 1/n surgery on a knot")
    p_surgery.add_argument("knot", help="built-in knot name or JSON document path")
    p_surgery.add_argument("n", type=_integer)
    p_surgery.add_argument("--format", choices=("text", "json"), default="text")
    p_surgery.set_defaults(func=_cmd_surgery)

    p_coinv = sub.add_parser(
        "coinvariants", help="reduce a tensor to chord generators")
    p_coinv.add_argument("tensor", help="tensor expression like a1*b1*a2*b2")
    p_coinv.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_coinv.set_defaults(func=_cmd_coinvariants)

    p_trace = sub.add_parser(
        "trace", help="Lagrangian trace of a tree")
    p_trace.add_argument("tree", help="tree expression T(x1, x2; x3, x4)")
    p_trace.add_argument("--side", choices=("A", "B"), default="A")
    p_trace.add_argument("--genus", type=_integer, default=DEFAULT_GENUS)
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def argparse_commands(parser: argparse.ArgumentParser) -> dict:
    """The oracle's parser of each command, by name."""
    return parser._subparsers._group_actions[0].choices


def argparse_parse(argv) -> argparse.Namespace:
    """``argv`` parsed by the oracle.  argparse gives an empty list for a
    lone "--" value, as in "--genus=--"; that is refused as a missing one."""
    parser = argparse_parser()
    args = parser.parse_args(argv)
    for action in argparse_commands(parser)[args.command]._actions:
        if getattr(args, action.dest, None) == []:
            parser.error("argument %s: expected one argument"
                         % argparse._get_action_name(action))
    return args


# The character-cursor parser that treetrace.grammar used before its
# scanner, kept verbatim as the oracle of ``parse_hvec``, ``parse_tree``,
# ``parse_twist`` and ``parse_tensor`` (here ``cursor_parse_*``): the same
# values with the same coefficient types, or the same ParseError message
# and offset.


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() also accepts '²' and other scripts' digits.
    return "0" <= ch <= "9"


# ASCII whitespace only, so every character before a ParseError's offset is
# ASCII and the offset counts bytes as well as characters.
_SPACE = " \t\n\r\f\v"


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in _SPACE:
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError("expected %r" % token, self.pos)
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        return self.digits()

    def digits(self) -> int:
        # An integer starting right here, with no whitespace before it.
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("integer too long", start) from None

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)


def _label(cur: _Cursor) -> BasisLabel:
    ch = cur.peek()
    if ch not in ("a", "b"):
        raise ParseError("expected a basis label like a1 or b2", cur.pos)
    cur.pos += 1
    index = cur.digits()
    if index < 1:
        raise ParseError("basis index must be at least 1", cur.pos)
    return BasisLabel(index, ch)


def _coefficient(cur: _Cursor):
    num = cur.integer()
    if cur.try_take("/"):
        cur.skip_ws()
        start = cur.pos
        den = cur.integer()
        if not den:
            raise ParseError("zero denominator", start)
        return Fraction(num, den)
    return num


def _signed_terms(cur: _Cursor, term_parser):
    # Yields (sign, term) across a +/- separated list.
    sign = -1 if cur.try_take("-") else 1
    if sign == 1:
        cur.try_take("+")
    yield sign, term_parser(cur)
    while True:
        if cur.try_take("+"):
            yield 1, term_parser(cur)
        elif cur.try_take("-"):
            yield -1, term_parser(cur)
        else:
            return


def _hvec_term(cur: _Cursor):
    if _is_digit(cur.peek()):
        coeff = _coefficient(cur)
        if cur.try_take("*"):
            return coeff, _label(cur)
        if coeff == 0:
            return coeff, None          # a bare 0: the zero vector
        raise ParseError("expected '*'", cur.pos)
    return 1, _label(cur)


def _signed_sum(cur: _Cursor, term_parser) -> FreeVec:
    # The +/- separated terms summed per key, each sum made canonical.
    terms = []
    for sign, (coeff, key) in _signed_terms(cur, term_parser):
        if key is not None:
            terms.append((key, sign * coeff))
    return FreeVec._raw({k: canonical(c) for k, c in FreeVec(terms).items()})


def cursor_parse_hvec(text: str) -> FreeVec:
    """Parse a vector of H like ``"a2 - b1 + b2"`` or ``"3*a1 - 1/2*b4"``."""
    cur = _Cursor(text)
    vec = _signed_sum(cur, _hvec_term)
    cur.end()
    return vec


def _call(text: str, head: str, separators) -> list:
    # ``head(v0 s0 v1 s1 ... vn)`` with HVec arguments between separators.
    cur = _Cursor(text)
    cur.take(head)
    cur.take("(")
    args = [_signed_sum(cur, _hvec_term)]
    for sep in separators:
        cur.take(sep)
        args.append(_signed_sum(cur, _hvec_term))
    cur.take(")")
    cur.end()
    return args


def cursor_parse_tree(text: str) -> HTree:
    """Parse ``T(x1, x2; x3, x4)`` with HVec entries."""
    return HTree(*_call(text, "T", (",", ";", ",")))


def cursor_parse_twist(text: str):
    """Parse ``twist(x; y)``: the subsurface basis of a genus-1 bounding curve."""
    return tuple(_call(text, "twist", (";",)))


def _tensor_term(cur: _Cursor):
    coeff = 1
    slots = []
    seen_number = False
    while True:
        if _is_digit(cur.peek()):
            coeff *= _coefficient(cur)
            seen_number = True
        else:
            slots.append(_label(cur))
        if not cur.try_take("*"):
            break
    if not slots:
        if seen_number and coeff == 0:
            return coeff, None          # a bare 0: the zero tensor
        raise ParseError("tensor term has no basis labels", cur.pos)
    return coeff, tuple(slots)


def cursor_parse_tensor(text: str) -> FreeVec:
    """Parse a tensor combination like ``"a1*b1*a2*b2"`` or ``"2*a1*a1*b1*b1"``."""
    cur = _Cursor(text)
    vec = _signed_sum(cur, _tensor_term)
    cur.end()
    return vec
