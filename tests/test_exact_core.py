import random
import types
from decimal import Decimal
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

import treetrace
from helpers import (
    SpanBasis,
    expand,
    lambda4_basis,
    rand_scalar,
    span_reduce,
)
from treetrace.exact import FreeVec, _fraction
from treetrace.surgery import LaurentPoly
from treetrace.symplectic import a, b


def test_freevec_drops_zeros_and_compares_exactly():
    v = FreeVec({"x": Fraction(1, 3), "y": 0})
    assert v.support() == ["x"]
    assert v + FreeVec({"x": Fraction(-1, 3)}) == FreeVec()
    assert 2 * v == FreeVec({"x": Fraction(2, 3)})
    assert v != FreeVec({"x": Fraction(1, 3), "z": 1})


def test_freevec_algebra_randomized():
    rng = random.Random(1002)
    keys = list("abcdef")
    for _ in range(100):
        u = FreeVec((rng.choice(keys), rng.randint(-4, 4)) for _ in range(4))
        v = FreeVec((rng.choice(keys), rng.randint(-4, 4)) for _ in range(4))
        c = rand_scalar(rng)
        assert u + v == v + u
        assert u - u == FreeVec()
        assert c * (u + v) == c * u + c * v
        assert (-1) * u == -u


# Three keys, so terms collide; ints and Fractions, integral ones among
# them, so coefficients cancel and sum across the two types.
_terms = st.lists(st.tuples(
    st.sampled_from("xyz"),
    st.sampled_from((-2, -1, 1, 2, Fraction(-1, 2), Fraction(1, 2),
                     Fraction(3), Fraction(-3, 2)))), max_size=6)


@given(_terms, _terms)
def test_freevec_sums_match_a_plain_dict_oracle(left, right):
    u, v = FreeVec(left), FreeVec(right)

    def oracle(sign):
        out = dict(u.items())
        for key, c in v.items():
            out[key] = out.get(key, 0) + sign * c
        return sorted((k, c, type(c)) for k, c in out.items() if c)

    # The coefficient types too: Fraction(1, 2) + Fraction(1, 2) stays a
    # Fraction, and int + int an int.
    assert sorted((k, c, type(c)) for k, c in (u + v).items()) == oracle(1)
    assert sorted((k, c, type(c)) for k, c in (u - v).items()) == oracle(-1)


def test_cached_computes_once_per_vector():
    calls = []

    def size(vec):
        calls.append(vec)
        return len(vec)

    v = FreeVec({"x": 1, "y": Fraction(1, 2)})
    w = FreeVec({"y": 3})
    text = repr(v)
    assert v._memo is None
    assert v.cached(size) == 2
    assert v.cached(size) == 2
    assert len(calls) == 1
    assert v == FreeVec({"x": 1, "y": Fraction(1, 2)})
    assert repr(v) == text
    for derived in (v + w, v - w, -v, 2 * v, 0 * v):
        assert derived._memo is None
    assert w.cached(size) == 1
    assert len(calls) == 2


def test_cached_keeps_one_value_per_argument():
    # Distinct builder objects of one function, as the two sides of a
    # pairing are, keep one value each.
    calls = []

    def scaled(vec, factor):
        calls.append(factor)
        return factor * len(vec)

    p3, p0 = partial(scaled, factor=3), partial(scaled, factor=0)
    v = FreeVec({"x": 1, "y": 2})
    for _ in range(2):
        assert v.cached(p3) == 6 and v.cached(p0) == 0
        assert v.cached(len) == 2
    assert calls == [3, 0]
    assert v._memo == {p3: 6, p0: 0, len: 2}


def test_cached_keeps_the_entries_a_builder_caches_itself():
    # A builder that caches on its own vector first: the memo it made
    # keeps that entry, and the outer value joins it.
    def inner(vec):
        return len(vec)

    def outer(vec):
        return vec.cached(inner) + 1

    v = FreeVec({"x": 1, "y": 2})
    assert v.cached(outer) == 3
    assert v._memo == {inner: 2, outer: 3}
    assert v.cached(outer) == 3 and v.cached(inner) == 2
    w = FreeVec({"x": 1})
    assert w.cached(len) == 1 and w.cached(outer) == 2
    assert w._memo == {len: 1, inner: 1, outer: 2}


@pytest.mark.parametrize("vec", [FreeVec(), FreeVec({"x": 1}),
                                 LaurentPoly(), LaurentPoly({0: 1, 2: -1})],
                         ids=repr)
@pytest.mark.parametrize("other", [0, 1, Fraction(1, 2), "x", None, {}],
                         ids=repr)
def test_operators_refuse_what_is_not_a_vector(vec, other):
    # __add__, __sub__ and __eq__ return NotImplemented, so Python raises
    # TypeError for a sum or difference and falls back to identity for ==.
    with pytest.raises(TypeError):
        vec + other
    with pytest.raises(TypeError):
        other + vec
    with pytest.raises(TypeError):
        vec - other
    with pytest.raises(TypeError):
        other - vec
    assert not vec == other and vec != other
    assert not other == vec and other != vec


def test_span_reduce_partial_membership():
    e1 = FreeVec.single(1)
    e2 = FreeVec.single(2)
    coeffs, residual = span_reduce([e1], e1 + e2)
    assert coeffs == [1]
    assert residual == e2


def test_span_reduce_full_membership():
    e1 = FreeVec.single(1)
    e2 = FreeVec.single(2)
    coeffs, residual = span_reduce([e1, e2], 3 * e1 - 2 * e2)
    assert coeffs == [3, -2]
    assert not residual


def test_span_reduce_ihx_difference_is_in_lambda4_span():
    # The two-tree rewriting of T(a2,b2; b3,b4) differs from it by an
    # embedded 4-form, so the difference reduces to zero.
    difference = (expand(a(2), b(2), b(3), b(4))
                  - expand(b(2), b(3), b(4), a(2))
                  + expand(b(2), b(4), b(3), a(2)))
    for genus in (4, 5):
        basis = list(lambda4_basis(genus))
        coeffs, residual = span_reduce(basis, difference)
        assert not residual
        rebuilt = FreeVec()
        for c, vec in zip(coeffs, basis):
            rebuilt = rebuilt + c * vec
        assert rebuilt == difference


def test_span_reduce_reconstruction_and_idempotence_randomized():
    rng = random.Random(1004)
    for _ in range(100):
        basis = [FreeVec((rng.randint(0, 7), rng.randint(-3, 3))
                         for _ in range(3)) for _ in range(4)]
        v = FreeVec((rng.randint(0, 7), rng.randint(-5, 5)) for _ in range(4))
        coeffs, residual = span_reduce(basis, v)
        rebuilt = residual
        for c, vec in zip(coeffs, basis):
            rebuilt = rebuilt + c * vec
        assert rebuilt == v
        coeffs2, residual2 = span_reduce(basis, residual)
        assert residual2 == residual
        assert all(c == 0 for c in coeffs2)


def test_span_basis_rank_and_contains():
    span = SpanBasis([FreeVec.single("p"), FreeVec.single("p") * 2])
    assert span.rank == 1
    assert span.contains(FreeVec.single("p") * Fraction(7, 3))
    assert not span.contains(FreeVec.single("q"))


# Numerators and nonzero denominators on both sides of 2**64.
_big_ints = st.integers(-2**70, 2**70) | st.integers(-30, 30)
_denominators = _big_ints.filter(bool)


@given(_big_ints, _denominators)
def test_fraction_memo_matches_fraction(n, d):
    for _ in range(2):  # a miss, then a hit
        value = _fraction(n, d)
        assert value == Fraction(n, d)
        assert type(value) is Fraction
    assert _fraction(n) == Fraction(n) and type(_fraction(n)) is Fraction


def test_fraction_memo_refuses_zero_denominator_and_stores_nothing():
    _fraction.cache_clear()
    _fraction(3, 4)
    before = _fraction.cache_info().currsize
    for n in (0, 1, -7, 2**65):
        with pytest.raises(ZeroDivisionError):
            _fraction(n, 0)
    assert _fraction.cache_info().currsize == before == 1


def test_fraction_memo_is_bounded():
    _fraction.cache_clear()
    for n in range(1000):
        assert _fraction(n, 7) == Fraction(n, 7)
        assert _fraction.cache_info().currsize <= 256
    assert _fraction.cache_info().currsize == 256


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        FreeVec({"x": 0.5})
    with pytest.raises(TypeError):
        FreeVec.single("x") * 0.5
    # Nor is any other type converted: a string or a Decimal is refused.
    for value in ("1/2", "2", Decimal("0.5")):
        with pytest.raises(TypeError, match="not exact ints or Fractions"):
            FreeVec({"x": value})
        with pytest.raises(TypeError):
            FreeVec.single("x") * value


def test_package_exports_only_public_names():
    assert len(set(treetrace.__all__)) == len(treetrace.__all__)
    for name in treetrace.__all__:
        assert not isinstance(getattr(treetrace, name), types.ModuleType), name
