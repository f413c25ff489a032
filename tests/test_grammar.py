import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (cursor_parse_hvec, cursor_parse_tensor, cursor_parse_tree,
                     cursor_parse_twist, rand_basic_tensor, rand_hvec,
                     rand_label, rand_scalar)
from treetrace.exact import FreeVec
from treetrace.forms import _C13, _C31, _split
from treetrace.grammar import (
    ParseError,
    format_hvec,
    format_s2l2,
    format_tensor,
    format_tree,
    parse_hvec,
    parse_tensor,
    parse_tree,
    parse_twist,
)
from treetrace.symplectic import a, b
from treetrace.trees import HTree, tau2_bscc_twist, tree, tree_expand


def test_parse_simple_sum():
    assert parse_hvec("a1 + b1") == FreeVec({a(1): 1, b(1): 1})


def test_parse_with_signs():
    assert parse_hvec("a2 - b1 + b2") == FreeVec({a(2): 1, b(1): -1, b(2): 1})
    assert parse_hvec("-a1") == FreeVec({a(1): -1})


def test_parse_with_coefficients():
    assert parse_hvec("2*a1 - 3*b2") == FreeVec({a(1): 2, b(2): -3})
    assert parse_hvec("1/2*a1") == FreeVec({a(1): Fraction(1, 2)})


def test_parse_unknown_symbol_reports_offset():
    # A label's digits follow its letter directly: "a 1" used to parse.
    for parse, text, offset in ((parse_hvec, "2*q7", 2),
                                (parse_hvec, "a 1", 1),
                                (parse_hvec, "a1 + b 2", 6),
                                (parse_twist, "twist(a 1; b1)", 7)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
    # Whitespace around a coefficient's parts stays legal.
    assert parse_hvec("3 / 4*a1") == FreeVec({a(1): Fraction(3, 4)})


def test_parse_trailing_garbage_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_hvec("a1 $ b1")
    assert err.value.offset == 3


def test_parse_zero_denominator_reports_offset():
    for parse, text, offset in ((parse_hvec, "a1 + 3/0*b1", 7),
                                (parse_tensor, "1/ 0*a1*b1", 3)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset


def test_parse_non_ascii_digits_report_offset():
    # '²' made int() raise a bare ValueError; '١' (Arabic-Indic one) was
    # silently read as 1.
    for text in ("a²", "a١"):
        with pytest.raises(ParseError) as err:
            parse_hvec(text)
        assert err.value.offset == 1
    for parse, text in ((parse_hvec, "²*a1"), (parse_tensor, "a1*b١")):
        with pytest.raises(ParseError):
            parse(text)


def test_parse_non_ascii_space_reports_byte_offset():
    # An em space used to be skipped, and the ideographic space made the
    # offset count characters (3) instead of bytes (5).
    for text, offset in (("a1 +\u2003b2", 4), ("a1\u3000$", 2)):
        with pytest.raises(ParseError) as err:
            parse_hvec(text)
        assert err.value.offset == offset


def test_parse_overlong_integer_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_hvec("a" + "1" * 5000)
    assert err.value.offset == 1


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet="ab0123456789*/+-;,() Ttwis²١"))
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_hvec, parse_tensor, parse_tree, parse_twist):
        try:
            parse(text)
        except ParseError as err:
            assert len(text[:err.offset].encode()) == err.offset


# The grammar's tokens and near misses of them: heads, separators, labels
# with index 0 or leading zeros, zero denominators, integers past int()'s
# 4 300 digits, and ASCII and non-ASCII spaces and digits; plus whole
# vectors, trees and twists, so that some draws parse.
TOKENS = ("a1 + b2", " - 1/2*b3", "2*a1*b1", "twist(a1; b1)",
          "T(a1, b1; a2, b2)", "T(", "twist(", "T", "twist", "twis", "(",
          ")", ",", ";", "*", "/", "+", "-", "a", "b", "a1", "b2", "a10",
          "b007", "a0", "b00", "0", "1", "2", "12", "007", "1/2", "3/0",
          "0/5", "/0", "x", "$", "1" * 4301, "9" * 4400, "a" + "1" * 4301,
          " ", "  ", "\t", "\n", "\v", "\u2003", "\u3000", "\xa0",
          "\u00b2", "\u0661")
PARSERS = ((parse_hvec, cursor_parse_hvec), (parse_tensor, cursor_parse_tensor),
           (parse_tree, cursor_parse_tree), (parse_twist, cursor_parse_twist))


def parse_outcome(parse, text):
    """The vectors ``parse`` reads, each as sorted (key, coefficient, type)
    triples, or its ParseError's message and offset."""
    try:
        value = parse(text)
    except ParseError as err:
        return str(err), err.offset
    return [sorted((key, c, type(c)) for key, c in vec.items())
            for vec in (value if isinstance(value, tuple) else (value,))]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=14).map("".join)
       | st.text(alphabet="ab0123456789*/+-;,() Ttwis\t\u2003\u00b2"))
def test_parsers_agree_with_the_cursor_oracle(text):
    for parse, oracle in PARSERS:
        assert parse_outcome(parse, text) == parse_outcome(oracle, text)


@pytest.mark.parametrize("text", [
    "", " ", "0", "-0", "0 0", "0a1", "0 + a1", "0*", "2a1", "2 / 3 a1",
    "+-a1", "- - a1", "a1 b1", "a1*b1", "a1*-b1", "a1 +", "1/", "1/ 0*a1",
    "3/00*a1", "a 1", "a01", "b0", "1*2*a1", "2*1/2*a1*b1", "T (a1, b1; a2, b2)",
    " twist ( a1 ; b1 ) ", "twistx(a1; b1)", "T(a1, b1; a2, b2) $",
    "twist(a1; b1", "twist(0; 0)", "3*4", "0*0", "a1 + 1/2*a1 - 3/2*a1"])
def test_parsers_agree_with_the_cursor_oracle_on_edge_cases(text):
    for parse, oracle in PARSERS:
        assert parse_outcome(parse, text) == parse_outcome(oracle, text)


def test_parse_tree_and_twist():
    t = parse_tree("T(a1 + b1, a2; b1, b2)")
    assert t.x1 == FreeVec({a(1): 1, b(1): 1})
    assert t.x2 == FreeVec({a(2): 1})
    assert t.x3 == FreeVec({b(1): 1})
    assert t.x4 == FreeVec({b(2): 1})
    x, y = parse_twist("twist(a1 + b1; a2 - b1 + b2)")
    assert x == FreeVec({a(1): 1, b(1): 1})
    assert y == FreeVec({a(2): 1, b(1): -1, b(2): 1})


def test_parse_tensor_expressions():
    assert parse_tensor("a1*b1*a2*b2") \
        == FreeVec.single((a(1), b(1), a(2), b(2)))
    assert parse_tensor("2*a1*a1*b1*b1 - a1*b1*a1*b1") == FreeVec({
        (a(1), a(1), b(1), b(1)): 2,
        (a(1), b(1), a(1), b(1)): -1,
    })


def test_parse_tensor_requires_labels():
    with pytest.raises(ParseError):
        parse_tensor("3*4")


def test_format_hvec_canonical_forms():
    assert format_hvec(FreeVec()) == "0"
    assert format_hvec(FreeVec({a(1): 1, b(1): 1})) == "a1 + b1"
    # Global key order puts b1 before a2.
    assert format_hvec(FreeVec({a(2): 1, b(1): -1, b(2): 1})) \
        == "-b1 + a2 + b2"
    assert format_hvec(FreeVec({b(2): Fraction(-3, 2)})) == "-3/2*b2"


def test_parse_print_round_trip_randomized():
    rng = random.Random(6001)

    def rational_hvec():
        return FreeVec((rand_label(rng, 5), rand_scalar(rng))
                       for _ in range(rng.randint(0, 4)))

    for _ in range(150):
        vec = rand_hvec(rng, 5, max_terms=4)
        assert parse_hvec(format_hvec(vec)) == vec
        text = format_hvec(vec)
        assert format_hvec(parse_hvec(text)) == text
        vec = rational_hvec()
        assert parse_hvec(format_hvec(vec)) == vec
        tensor = FreeVec((rand_basic_tensor(rng, 5, rng.randint(1, 6)),
                          rand_scalar(rng))
                         for _ in range(rng.randint(0, 4)))
        assert parse_tensor(format_tensor(tensor)) == tensor
        t = HTree(*(rational_hvec() for _ in range(4)))
        assert parse_tree(format_tree(t)) == t


def test_format_tree_round_trip():
    t = tree(FreeVec({a(1): 1, b(1): 1}), FreeVec({a(2): 1}),
             FreeVec({b(1): 1}), FreeVec({b(2): 1}))
    assert parse_tree(format_tree(t)) == t


def test_format_s2h_and_s2l2():
    assert format_tensor(FreeVec({(b(1), b(2)): 4, (b(2), b(2)): -4})) \
        == "4*b1*b2 - 4*b2*b2"
    v = 2 * tree_expand(tree(b(1), b(2), b(1), b(2)))
    assert format_s2l2(v) == "2*(b1^b2)(b1^b2)"
    assert format_s2l2(FreeVec()) == "0"


def test_format_tensor():
    v = FreeVec({(a(1), b(1)): 1, (a(2), b(2)): -2})
    assert format_tensor(v) == "a1*b1 - 2*a2*b2"


def test_integral_text_keeps_int_coefficients_down_to_the_contractions():
    def ints(vec):
        assert vec, "an empty vector checks nothing"
        return all(type(c) is int for _, c in vec.items())

    # The trefoil's basis, with every way of writing an integral coefficient.
    x, y = parse_twist("twist(a1 + 1*b1; 2/2*a2 - b1 + 3/3*b2)")
    assert ints(x) and ints(y)
    tau = tau2_bscc_twist(x, y, 5)
    assert ints(tau)
    split = tau.cached(_split)
    assert ints(split[_C13]) and ints(split[_C31])
    tensor = parse_tensor("2*1/2*a1*b1 - 3*a2*b2")
    assert ints(tensor)
    assert tensor == FreeVec({(a(1), b(1)): 1, (a(2), b(2)): -3})
    assert type(parse_hvec("1/2*a1").coeff(a(1))) is Fraction
    # Coefficients summed on one key are integral as a sum, too.
    assert ints(parse_hvec("1/2*a1 + 1/2*a1"))
    assert ints(parse_hvec("1/3*a1 + 2/3*a1"))
    assert ints(parse_tensor("1/2*a1*b1 + 1/2*a1*b1"))
    assert ints(parse_twist("twist(1/2*a1 + 1/2*a1; b1)")[0])
    assert parse_hvec("1/2*a1 + 1/2*a1") == FreeVec({a(1): 1})
