"""Shared random generators and small oracles for the test suite."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hypothesis import strategies as st

from treetrace.exact import FreeVec
from treetrace.forms import contract_cs, eta_s
from treetrace.symplectic import (
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
    hvec,
    label_omega,
)
from treetrace.trees import HTree, key_labels, lambda4_embed, tree, tree_expand


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
        n_a = sum(1 for lbl in key_labels(key) if lbl.family == FAMILY_A)
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
    ``family`` raises ValueError."""
    other = FAMILY_B if family == FAMILY_A else FAMILY_A
    terms = []
    for key, coeff in v.items():
        labels = key_labels(key)
        slot = next((k for k, lbl in enumerate(labels) if lbl.family == family),
                    None)
        if slot is None:
            raise ValueError("term (%s^%s)(%s^%s) has no %s-label; trace "
                             "undefined there" % (labels + (family,)))
        perm, sign = FRONT[slot]
        head, c_, d_, e_ = (labels[p] for p in perm)
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


def gl_tree_action(gen, t: HTree) -> HTree:
    """A GL generator applied to all four labels of a tree."""
    return HTree(gl_hvec_action(gen, t.x1), gl_hvec_action(gen, t.x2),
                 gl_hvec_action(gen, t.x3), gl_hvec_action(gen, t.x4))


def gl_s2l2_action(gen, v: FreeVec) -> FreeVec:
    """Diagonal GL generator action on an expanded S^2(Lambda^2 H) vector."""
    out = FreeVec()
    for key, coeff in v.items():
        l1, l2, l3, l4 = key_labels(key)
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
    for n, c in poly.terms():
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
