"""Shared random generators and small oracles for the test suite."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from treetrace.exact import FreeVec, SpanBasis
from treetrace.symplectic import BasisLabel, basis_labels
from treetrace.trees import HTree, lambda4_embed, tree, tree_expand


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
