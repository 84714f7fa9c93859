import itertools
import math
import sys
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ixcomplex.bigi import NormalizedComplexity, simplify
from ixcomplex.errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidBindingError,
    IxComplexError,
    NegativeCountError,
    OverflowLimitError,
    TermLimitError,
    UnboundVariableError,
)
from ixcomplex.expr import (
    _LOWER_TOKEN,
    _MIXED_TOKEN,
    INT64_MAX,
    INT64_MIN,
    MAX_NESTING,
    MAX_TERMS,
    ONE,
    Expression,
    Sum,
    ZERO,
    binding_from_dict,
    evaluate,
    format_expr,
    parse_expr,
    parse_operator_expr,
    total_degree,
)

from helpers import (
    VARIABLE_NAMES,
    ReferenceExpression,
    ReferenceSum,
    expressions,
    grammar_texts,
    monomials,
    nonneg_expressions,
    parser_texts,
    reference_evaluate,
    reference_fold_parse,
    reference_format_expr,
    reference_parse,
    reference_simplify,
)


def mono(*pairs):
    return tuple(sorted(pairs))


class TestParse:
    def test_distributes_product(self):
        expected = Expression(
            (
                (mono(("a", 1), ("r", 1)), 1),
                (mono(("a", 1), ("t", 1)), 1),
                (mono(("a", 1), ("d", 1)), 1),
                (mono(("a", 1), ("s", 1)), 1),
                (mono(("a", 1)), 11),
            )
        )
        assert parse_expr("a * (r + t + d + s + 11)") == expected

    def test_zero(self):
        assert parse_expr("0") == ZERO
        assert parse_expr("0").terms == ()

    def test_subtraction_distributes(self):
        assert parse_expr("(a - 1) * 3") == Expression(
            ((mono(("a", 1)), 3), ((), -3))
        )

    def test_powers_via_repetition(self):
        assert parse_expr("a*a*a") == Expression(((mono(("a", 3)), 1),))

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("")
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("   ")

    def test_unknown_character_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr("a $ b")
        assert exc.value.offset == 2

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr("a + + b")
        assert exc.value.offset == 4

    def test_uppercase_rejected(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("Q + 1")

    def test_missing_paren(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("(a + 1")

    def test_huge_literal_overflows(self):
        with pytest.raises(OverflowLimitError):
            parse_expr("9223372036854775808")

    def test_nesting_at_the_limit_parses(self):
        assert parse_expr("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == parse_expr("a")

    @pytest.mark.parametrize("parse", [parse_expr, parse_operator_expr])
    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
    def test_nesting_past_the_limit_is_a_syntax_error(self, parse, depth):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("(" * depth + "a" + ")" * depth)
        assert exc.value.offset == MAX_NESTING
        assert f"nested more than {MAX_NESTING} deep" in str(exc.value)


class TestTokens:
    @pytest.mark.parametrize("text, offset", [("a²", 1), ("٣", 0), ("2*１", 2)])
    def test_only_ascii_digits(self, text, offset):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expr(text)
        assert exc.value.offset == offset
        assert str(exc.value).startswith(f"unknown character {text[offset]!r}")

    def test_leading_zeros_are_not_significant(self):
        assert parse_expr("0" * 5000 + "9223372036854775807") == Expression((((), INT64_MAX),))

    @pytest.mark.parametrize("digits", ["1" * 20, "1" * 5000, "9" * 4301])
    def test_long_literal_overflows_unread(self, digits):
        with pytest.raises(OverflowLimitError) as exc:
            parse_expr(f"a + {digits}")
        assert exc.value.offset == 4
        assert str(exc.value) == (
            f"integer literal {digits[:19]}... ({len(digits)} digits) "
            "is outside the signed 64-bit range (offset 4)"
        )

    def test_literal_just_past_the_range_carries_its_offset(self):
        with pytest.raises(OverflowLimitError) as exc:
            parse_expr("2*9223372036854775808")
        assert exc.value.offset == 2

    def test_whitespace_is_exactly_str_isspace(self):
        # Over every code point: c is skipped before the name in c + "a"
        # exactly when str.isspace says c is whitespace.
        skipped = set()
        for c in map(chr, range(sys.maxunicode + 1)):
            match = _LOWER_TOKEN.match(c + "a")
            if match is not None and match.start(2) == 1:
                skipped.add(c)
        spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
        assert skipped == spaces
        gap = "".join(sorted(spaces))
        assert parse_expr(f"{gap}a{gap}+{gap}1{gap}") == parse_expr("a + 1")
        with pytest.raises(ExpressionSyntaxError):
            parse_expr("a\u200b")


# Partial products and partial sums are checked where the text forms them,
# even when a later factor or term would bring the value back into range.
OVERFLOW_TEXTS = [
    ("4611686018427387904*4*0", 2**64),
    ("9223372036854775807 + 1 - 1", 2**63),
    ("a*0 + 9223372036854775807*a + a - a", 2**63),
    ("x - (-9223372036854775807 - 1)", 2**63),
]
_SIDE = "(" + " + ".join(f"v{i}" for i in range(100)) + ")"
# A sum of 20,000 terms: multiplying it even by a constant is past MAX_TERMS.
_WIDE_SUM = f"({_SIDE}*{_SIDE.replace('v', 'w')} + {_SIDE}*{_SIDE.replace('v', 'u')})"


def _outcome(compute):
    try:
        result = compute()
    except Exception as exc:  # the type, message and offset are compared
        return type(exc), str(exc), getattr(exc, "offset", None)
    return result.terms, result._keys


class TestOneScanParser:
    @pytest.mark.parametrize("text, value", OVERFLOW_TEXTS)
    def test_partial_results_are_range_checked(self, text, value):
        with pytest.raises(OverflowLimitError) as exc:
            parse_expr(text)
        assert str(exc.value) == f"coefficient {value} is outside the signed 64-bit range"
        assert exc.value.offset is None

    @given(parser_texts())
    @example(OVERFLOW_TEXTS[0][0])
    @example(OVERFLOW_TEXTS[1][0])
    @example(OVERFLOW_TEXTS[2][0])
    @example(OVERFLOW_TEXTS[3][0])
    @example("(3*a)*4611686018427387904*2")
    @example("-(a + b) - 9223372036854775807*a - 2*a")
    @example("0*(a)*9223372036854775808")
    @example("4611686018427387904*4 + $")
    @example("a 007")
    def test_matches_the_reference_parser(self, text):
        for parse, pattern in ((parse_expr, _LOWER_TOKEN), (parse_operator_expr, _MIXED_TOKEN)):
            assert _outcome(lambda: parse(text)) == _outcome(lambda: reference_parse(text, pattern))

    # Too slow for a hypothesis example's deadline: each builds 20,000 terms.
    @pytest.mark.parametrize(
        "text",
        [_WIDE_SUM, f"1*{_WIDE_SUM}", f"-{_WIDE_SUM}*0"],
        ids=["sum", "one-times-sum", "minus-sum-times-zero"],
    )
    def test_wide_sums_match_the_reference_parser(self, text):
        assert _outcome(lambda: parse_expr(text)) == _outcome(
            lambda: reference_parse(text, _LOWER_TOKEN)
        )


class TestTermBound:
    @staticmethod
    def sum_of(count):
        return "(" + " + ".join(f"v{i}" for i in range(count)) + ")"

    def test_product_at_the_bound(self):
        side = math.isqrt(MAX_TERMS)
        assert side * side == MAX_TERMS
        assert len(parse_expr(f"{self.sum_of(side)}*{self.sum_of(side)}").terms) == (
            side * (side + 1) // 2
        )

    def test_product_past_the_bound(self):
        side = math.isqrt(MAX_TERMS)
        with pytest.raises(TermLimitError) as exc:
            parse_expr(f"{self.sum_of(side)}*{self.sum_of(side + 1)}")
        assert str(exc.value) == (
            f"a product of {side} by {side + 1} terms would form more than "
            f"{MAX_TERMS} monomial products"
        )

    def test_tenfold_product_fails_fast(self):
        # 179 characters that would expand to C(17, 10) = 19,448 terms.
        text = "*".join(["(a+b+c+d+e+f+g+h)"] * 10)
        started = time.perf_counter()
        with pytest.raises(TermLimitError):
            parse_expr(text)
        assert time.perf_counter() - started < 0.5


class TestBindingFromDict:
    def test_valid(self):
        assert binding_from_dict({"m": 6, "a_1": 0}) == {"m": 6, "a_1": 0}

    def test_non_object(self):
        with pytest.raises(DomainError, match="^bindings file must hold a JSON object$"):
            binding_from_dict([["m", 6]])

    @pytest.mark.parametrize(
        "entry",
        [{"m": True}, {"m": -1}, {"m": 1.5}, {"m": "6"}, {"m": None}, {"M": 6}, {"1a": 6}, {"": 6}],
    )
    def test_malformed_entry(self, entry):
        (name,) = entry
        with pytest.raises(DomainError) as exc:
            binding_from_dict(entry)
        assert str(exc.value) == (
            f"bindings file entry {name!r} must map a variable to a nonnegative integer"
        )


    def test_values_up_to_the_64_bit_limit(self):
        assert binding_from_dict({"m": 2**63 - 1}) == {"m": 2**63 - 1}
        for value in (2**63, 10**30):
            with pytest.raises(DomainError) as exc:
                binding_from_dict({"m": 1, "a": value})
            assert str(exc.value) == "bindings file entry 'a' is outside the signed 64-bit range"


class TestCombine:
    def test_add(self):
        assert parse_expr("4*a + 2") + parse_expr("7*a") == parse_expr("11*a + 2")

    def test_mul(self):
        assert parse_expr("a") * parse_expr("r + t") == parse_expr("a*r + a*t")

    def test_sub_self_cancels(self):
        assert parse_expr("m + 5") - parse_expr("m + 5") == ZERO


class TestEvaluate:
    def test_wizard_instantiation(self):
        e = parse_expr("m + 5 + a*(r + t + d + s + 11)")
        assert evaluate(e, {"m": 6, "r": 4, "t": 7, "d": 4, "s": 6, "a": 5}) == 171

    def test_single_page_instantiation(self):
        e = parse_expr("m + r + d + s + g + o + 12")
        assert evaluate(e, {"m": 6, "r": 4, "d": 4, "s": 4, "g": 9, "o": 7}) == 46

    def test_zero_expression(self):
        assert evaluate(ZERO, {}) == 0
        assert evaluate(ZERO, {"a": 3}) == 0

    def test_unbound_variable_is_named(self):
        with pytest.raises(UnboundVariableError) as exc:
            evaluate(parse_expr("a + q"), {"a": 1})
        assert exc.value.name == "q"

    def test_negative_result_rejected(self):
        with pytest.raises(NegativeCountError):
            evaluate(parse_expr("a - 1"), {"a": 0})

    def test_negative_binding_rejected(self):
        with pytest.raises(InvalidBindingError):
            evaluate(parse_expr("a"), {"a": -1})

    def test_extra_bindings_ignored(self):
        assert evaluate(parse_expr("a"), {"a": 2, "zz": 9}) == 2

    def test_overflow_detected(self):
        e = parse_expr("m*m*m")
        with pytest.raises(OverflowLimitError):
            evaluate(e, {"m": 3_000_000_000})


class TestDegreeAndFormat:
    def test_degrees(self):
        assert total_degree(parse_expr("a*(r + t + d + s + 11)")) == 2
        assert total_degree(parse_expr("m + r + d + s + g + o")) == 1
        assert total_degree(parse_expr("12")) == 0
        assert total_degree(ZERO) == 0

    def test_format_ordering(self):
        assert format_expr(parse_expr("11*a + a*r")) == "a*r + 11*a"
        assert format_expr(parse_expr("5 + m + a*r")) == "a*r + m + 5"
        assert format_expr(ZERO) == "0"

    def test_format_negative_leading(self):
        e = ZERO - parse_expr("3*a + 2")
        assert format_expr(e) == "-3*a - 2"
        assert parse_expr(format_expr(e)) == e

    def test_format_powers(self):
        assert format_expr(parse_expr("a*a + b")) == "a*a + b"

    @given(
        st.dictionaries(
            monomials(),
            st.one_of(st.integers(-9, 9), st.sampled_from((INT64_MIN, INT64_MAX, -INT64_MAX))),
            max_size=5,
        ).map(lambda terms: Expression(tuple(terms.items())))
    )
    @example(Expression((((), INT64_MIN), ((("a", 2), ("b", 1)), INT64_MIN))))
    @example(Expression((((("a", 3),), 1), ((("b", 1),), -1))))
    def test_format_matches_the_reference_renderer(self, e):
        # The reference expands each monomial; format_expr reads the keys.
        assert format_expr(e) == reference_format_expr(e)


class TestProperties:
    @given(expressions())
    def test_round_trip(self, e):
        assert parse_expr(format_expr(e)) == e

    @given(expressions(), expressions(), st.data())
    def test_eval_homomorphism(self, a, b, data):
        names = sorted(a.variables() | b.variables())
        binding = {
            name: data.draw(st.integers(0, 9), label=name) for name in names
        }
        va = _raw(a, binding)
        vb = _raw(b, binding)
        for combined, expected in ((a + b, va + vb), (a - b, va - vb), (a * b, va * vb)):
            if expected < 0:
                with pytest.raises(NegativeCountError):
                    evaluate(combined, binding)
            elif va < 0 or vb < 0:
                assert _raw(combined, binding) == expected
            else:
                assert evaluate(combined, binding) == expected

    @given(nonneg_expressions(), nonneg_expressions())
    @example(ZERO, parse_expr("a"))
    def test_canonical_uniqueness_under_sampling(self, a, b):
        # A polynomial of degree at most d_v in each variable v is fixed by
        # its values on the grid of points with v in 0..d_v, so expressions
        # that agree on that grid are equal.
        degrees = {}
        for mono, _ in a.terms + b.terms:
            for name, exponent in mono:
                degrees[name] = max(degrees.get(name, 0), exponent)
        names = sorted(degrees)
        assume(math.prod(degrees[name] + 1 for name in names) <= 512)
        grid = itertools.product(*(range(degrees[name] + 1) for name in names))
        agreed = all(
            evaluate(a, binding) == evaluate(b, binding)
            for binding in (dict(zip(names, point)) for point in grid)
        )
        if agreed:
            assert a == b

    @given(expressions(), expressions())
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(expressions(), expressions(), expressions())
    @settings(max_examples=50)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(expressions())
    def test_sub_self_is_zero(self, a):
        assert a - a == ZERO


_EXTREMES = (INT64_MIN, INT64_MIN + 1, -1, 1, INT64_MAX - 1, INT64_MAX)
_WIDE_INTEGERS = st.one_of(st.integers(-9, 9), st.sampled_from(_EXTREMES))


@st.composite
def wide_expressions(draw):
    """Expressions whose coefficients reach the ends of the 64-bit range."""
    terms = draw(st.dictionaries(monomials(), _WIDE_INTEGERS, max_size=5))
    return Expression(tuple(terms.items()))


def _expanded_key(mono):
    expanded = tuple(name for name, exp in mono for _ in range(exp))
    return (-len(expanded), expanded)


def _reference_terms(raw):
    # The plain way: merge equal monomials, drop zeros, sort by a key
    # recomputed from scratch.
    merged = {}
    for mono, coeff in raw:
        merged[mono] = merged.get(mono, 0) + coeff
    kept = [(mono, coeff) for mono, coeff in merged.items() if coeff != 0]
    return tuple(sorted(kept, key=lambda term: _expanded_key(term[0])))


def _product_mono(a, b):
    powers = dict(a)
    for name, exp in b:
        powers[name] = powers.get(name, 0) + exp
    return tuple(sorted(powers.items()))


def _negated(e):
    return [(mono, -coeff) for mono, coeff in e.terms]


@st.composite
def scrambled(draw):
    """A canonical expression and a raw term list for it: each term split in
    two parts (so monomials repeat), zero terms and cancelling pairs added,
    and the whole shuffled."""
    e = draw(expressions())
    raw = []
    for mono, coeff in e.terms:
        part = draw(st.integers(-9, 9))
        raw += [(mono, part), (mono, coeff - part)]
    for mono in draw(st.lists(monomials(), max_size=3)):
        part = draw(st.integers(-9, 9))
        raw += [(mono, 0), (mono, part), (mono, -part)]
    return e, tuple(draw(st.permutations(raw)))


class TestConstructor:
    @given(scrambled())
    @example((parse_expr("a + b"), (((("b", 1),), 1), ((("a", 1),), 1))))
    def test_any_term_list_gives_the_canonical_value(self, case):
        e, raw = case
        built = Expression(raw)
        assert built == e and hash(built) == hash(e)
        assert format_expr(built) == format_expr(e)
        assert built._keys == e._keys
        assert built - e == ZERO and e - built == ZERO

    @given(st.integers(1, 2**62), st.integers(0, 2**62))
    def test_merged_coefficient_past_the_range(self, first, second):
        a = (("a", 1),)
        with pytest.raises(OverflowLimitError) as exc:
            Expression(((a, INT64_MAX - second), ((), 1), (a, first + second)))
        assert str(exc.value) == (
            f"coefficient {INT64_MAX + first} is outside the signed 64-bit range"
        )

    def test_only_the_merged_coefficient_is_checked(self):
        a = (("a", 1),)
        assert Expression(((a, 2**63), (a, -1))) == Expression(((a, INT64_MAX),))

    def test_monomial_pairs_are_sorted(self):
        built = Expression((((("b", 1), ("a", 1)), 1),))
        assert built == parse_expr("a*b") and built._keys == parse_expr("a*b")._keys
        assert format_expr(built) == "a*b"
        assert built - parse_expr("a*b") == ZERO

    def test_repeated_variables_are_merged(self):
        built = Expression((((("a", 1), ("a", 1)), 1), ((("a", 2),), 1)))
        assert built == parse_expr("2*a*a") and built._keys == parse_expr("a*a")._keys

    def test_zero_exponents_are_dropped(self):
        assert Expression((((("a", 0),), 1),)) == ONE
        built = Expression((((("a", 0), ("b", 1)), 3), ((("b", 1),), -3)))
        assert built == ZERO and built._keys == ()

    def test_negative_exponent_is_refused(self):
        with pytest.raises(DomainError, match="^exponent -1 of 'a' is negative$"):
            Expression((((("a", -1),), 1),))

    @pytest.mark.parametrize(
        "coeff, message",
        [(2.5, "coefficient 2.5 must be an integer"),
         (2.0, "coefficient 2.0 must be an integer"),
         (True, "coefficient True must be an integer"),
         ("1", "coefficient '1' must be an integer")],
    )
    def test_non_integer_coefficient_is_refused(self, coeff, message):
        for mono in ((), (("a", 1),)):
            with pytest.raises(DomainError) as exc:
                Expression(((mono, coeff),))
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "exp, message",
        [(1.5, "exponent 1.5 of 'a' must be an integer"),
         (1.0, "exponent 1.0 of 'a' must be an integer"),
         (True, "exponent True of 'a' must be an integer"),
         (None, "exponent None of 'a' must be an integer")],
    )
    def test_non_integer_exponent_is_refused(self, exp, message):
        with pytest.raises(DomainError) as exc:
            Expression((((("a", exp),), 1),))
        assert str(exc.value) == message


class TestFastPath:
    @given(wide_expressions(), wide_expressions(), _WIDE_INTEGERS)
    @example(parse_expr("-x"), Expression((((("x", 1),), INT64_MIN),)), 1)
    @example(ZERO, Expression((((("x", 1),), INT64_MIN),)), -1)
    def test_arithmetic_matches_reference(self, a, b, factor):
        constant = Expression((((), factor),))
        cases = [
            (lambda: a + b, a.terms + b.terms),
            (lambda: a - b, list(a.terms) + _negated(b)),
            (lambda: -a, _negated(a)),
            (
                lambda: a * b,
                [(_product_mono(ma, mb), ca * cb) for ma, ca in a.terms for mb, cb in b.terms],
            ),
            (lambda: constant * a, [(mono, factor * coeff) for mono, coeff in a.terms]),
            (lambda: b * constant, [(mono, coeff * factor) for mono, coeff in b.terms]),
        ]
        for compute, raw in cases:
            expected = _reference_terms(raw)
            outside = [c for _, c in expected if not INT64_MIN <= c <= INT64_MAX]
            if outside:
                with pytest.raises(OverflowLimitError) as exc:
                    compute()
                assert str(exc.value) == (
                    f"coefficient {outside[0]} is outside the signed 64-bit range"
                )
                continue
            result = compute()
            assert result.terms == expected
            assert result._keys == tuple(_expanded_key(mono) for mono, _ in expected)

    @given(monomials(), _WIDE_INTEGERS.filter(bool), wide_expressions())
    def test_one_term_times_an_expression_keeps_its_order(self, mono, coeff, b):
        term = Expression(((mono, coeff),))
        raw = [(_product_mono(mono, mb), coeff * cb) for mb, cb in b.terms]
        expected = _reference_terms(raw)
        outside = [c for _, c in expected if not INT64_MIN <= c <= INT64_MAX]
        for compute in (lambda: term * b, lambda: b * term):
            if outside:
                with pytest.raises(OverflowLimitError) as exc:
                    compute()
                assert str(exc.value) == (
                    f"coefficient {outside[0]} is outside the signed 64-bit range"
                )
            else:
                result = compute()
                assert result.terms == expected
                assert result._keys == tuple(_expanded_key(m) for m, _ in expected)

    @given(expressions())
    def test_parsed_keys_match_recomputed(self, e):
        parsed = parse_expr(format_expr(e))
        assert parsed._keys == tuple(_expanded_key(mono) for mono, _ in parsed.terms)

    def test_keys_are_not_a_field(self):
        e = parse_expr("a*b + 2")
        assert list(Expression._fields) == ["terms"]
        assert repr(e) == "Expression(terms=(((('a', 1), ('b', 1)), 1), ((), 2)))"
        rebuilt = Expression(e.terms)
        assert rebuilt == e and hash(rebuilt) == hash(e)
        assert rebuilt._keys == e._keys == ((-2, ("a", "b")), (0, ()))
        assert ONE._keys == ((0, ()),) and ZERO._keys == ()


class TestSum:
    @given(st.lists(st.tuples(st.sampled_from((1, -1)), wide_expressions()), max_size=6))
    @example([(1, Expression((((), INT64_MAX),))), (1, ONE), (-1, ONE)])
    @example([(1, parse_expr("x")), (-1, Expression((((("x", 1),), INT64_MIN),)))])
    @example([(-1, Expression((((), INT64_MIN), ((("x", 1),), INT64_MIN))))])
    def test_matches_the_pairwise_fold(self, signed):
        def folded():
            result = ZERO
            for sign, expression in signed:
                result = result + expression if sign > 0 else result - expression
            return result

        def summed():
            total = Sum()
            for sign, expression in signed:
                total.add(expression, sign)
            return total.value()

        assert _outcome(summed) == _outcome(folded)

    @given(st.lists(expressions(), max_size=6))
    def test_constructor_sums_its_arguments(self, summands):
        expected = ZERO
        for expression in summands:
            expected = expected + expression
        result = Sum(summands).value()
        assert result == expected and result._keys == expected._keys

    def test_empty_sum_is_zero(self):
        assert Sum().value() == ZERO
        assert Sum([parse_expr("a"), parse_expr("-a")]).value() == ZERO

    def test_terms_that_all_cancel_give_the_zero_object(self):
        # Two or more monomials cancelling at once, in each gathering path:
        # the parser's fold, subtraction and a Sum.
        a, b = parse_expr("a"), parse_expr("b")
        assert parse_expr("a - a + b - b") is ZERO
        assert (a + b) - (b + a) is ZERO
        assert Sum([a + b, parse_expr("-a - b")]).value() is ZERO


def _raw(e, binding):
    # reference evaluation without the nonnegativity gate
    return sum(
        coeff * _product(mono, binding) for mono, coeff in e.terms
    )


def _product(mono, binding):
    value = 1
    for name, exp in mono:
        value *= binding[name] ** exp
    return value


# --- the key-only engine against the reference engine ------------------------


def _simplified(expression):
    view = simplify(NormalizedComplexity(expression))
    return view.retained, view.class_label


# Each engine's constructor, Sum, parser, renderer, evaluate and simplify.
ENGINE = (Expression, Sum, parse_expr, format_expr, evaluate, _simplified)
REFERENCE_ENGINE = (
    ReferenceExpression, ReferenceSum, reference_fold_parse, reference_format_expr,
    reference_evaluate, reference_simplify,
)


def _shown(result, render):
    """An expression as its repr, text and keys; simplify's pair part by part."""
    if isinstance(result, tuple):
        return tuple(_shown(part, render) for part in result)
    if isinstance(result, (Expression, ReferenceExpression)):
        return repr(result), render(result), result._keys
    return result


def _engine_outcomes(engine, term_lists, text, signs, binding):
    """The outcome of each operation under one engine, in order: a value
    as _shown gives it, an error as its type, message and offset.  The
    operands are the term lists built and the text parsed, where they do
    not raise."""
    build, summed, parse, render, value_at, simplified = engine
    outcomes = []

    def run(compute):
        try:
            result = compute()
        except IxComplexError as exc:
            outcomes.append((type(exc), str(exc), getattr(exc, "offset", None)))
            return None
        outcomes.append(_shown(result, render))
        return result

    def sum_all():
        total = summed()
        for operand, sign in zip(operands, signs):
            total.add(operand, sign)
        return total.value()

    operands = [run(lambda: build(terms)) for terms in term_lists]
    operands.append(run(lambda: parse(text)))
    operands = [operand for operand in operands if operand is not None]
    for x in operands:
        run(lambda: -x)
        run(lambda: value_at(x, binding))
        run(lambda: simplified(x))
        run(lambda: parse(render(x)))
        for y in operands:
            run(lambda: x + y)
            run(lambda: x - y)
            run(lambda: x * y)
    run(sum_all)
    return outcomes


# Coefficients at and just past the ends of the signed 64-bit range, and
# factors whose products straddle it.
_EDGE_COEFFICIENTS = st.one_of(
    st.integers(-9, 9),
    st.sampled_from((-(2**63), 2**63, INT64_MAX, -INT64_MAX, 2**62, -(2**62), 3037000500)),
)
_EDGE_TERMS = st.lists(st.tuples(monomials(), _EDGE_COEFFICIENTS), max_size=5)
# Every name of monomials and grammar_texts, some left unbound (None).
_BINDINGS = st.fixed_dictionaries({
    name: st.sampled_from((0, 1, 1, 2, 3, 2**31, 2**62, -1, None))
    for name in VARIABLE_NAMES + ("x", "r2", "ab_1")
}).map(lambda binding: {name: value for name, value in binding.items() if value is not None})


class TestReferenceEngine:
    @given(
        st.lists(st.one_of(_EDGE_TERMS, expressions().map(lambda e: e.terms)), max_size=2),
        grammar_texts(),
        st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3),
        _BINDINGS,
    )
    @example([[((("a", 1),), 2**63), ((("a", 1),), -1)], [((), -(2**63))]],
             "9223372036854775807*a + a", [1, -1, 1], {"a": 1})
    @example([[((), -(2**63))]], "-(9223372036854775807 - 1)*a*a", [-1, 1, 1], {"a": 2**31})
    def test_matches_the_reference_engine(self, term_lists, text, signs, binding):
        assert _engine_outcomes(ENGINE, term_lists, text, signs, binding) == _engine_outcomes(
            REFERENCE_ENGINE, term_lists, text, signs, binding
        )

    # Products of sums of n and m variables, with n*m at, just below and
    # just past MAX_TERMS, and coefficients that leave the range there.
    @pytest.mark.parametrize("n, m, coeff", [
        (100, 100, 1), (99, 101, -1), (101, 99, 3), (100, 101, 1), (73, 137, 1),
        (100, 100, 2**62), (100, 100, -(2**62)), (100, 100, 3037000500),
    ])
    def test_products_near_the_term_limit(self, n, m, coeff):
        term_lists = [
            [(((f"v{i}", 1),), coeff) for i in range(n)],
            [(((f"w{i}", 1),), coeff if i % 2 else 1) for i in range(m)],
        ]
        assert _engine_outcomes(ENGINE, term_lists, "v0", [1, -1, 1], {}) == _engine_outcomes(
            REFERENCE_ENGINE, term_lists, "v0", [1, -1, 1], {}
        )
