"""Exact multivariate polynomials with integer coefficients.

Every other module funnels its arithmetic through this one: interaction
concepts store per-action counts as polynomials over named variables, the
complexity pipeline adds and multiplies them, and instantiation evaluates
them at concrete bindings.

A polynomial is a sorted tuple of (monomial, coefficient) pairs, where a
monomial is a sorted tuple of (variable, exponent) pairs and the empty
monomial is the constant term.  Canonical by construction: equal monomials
merged, zero coefficients dropped, terms ordered by descending total degree
and then lexicographic variable order.  Expression(terms) is the one
constructor; it builds this form from terms in any order, repeated or zero.
Structural equality therefore coincides with mathematical equality, and the
zero polynomial has no terms.

Expression text grammar (used inside concept files and on the command line):

    expr   := ["-"] term {("+" | "-") term}
    term   := factor {"*" factor}
    factor := INT | IDENT | "(" expr ")"

IDENT matches [a-z][a-z0-9_]*.  INT is ASCII digits only; whitespace is
whatever str.isspace accepts.  There is no division and no exponent
syntax; powers arise only through repeated multiplication, and formatted
output renders them the same way ("a*a").  The optional leading "-" exists
so that the formatted form of any polynomial parses back to it.

Each term's sort key, (-total degree, expanded variable sequence), is
computed once, when its monomial first enters a canonical expression, and
travels with it: sums merge two sorted term tuples in one pass, scaling
keeps the order, and a general product collects into a dict and sorts once.

Coefficients and evaluated values must stay inside the signed 64-bit range;
leaving it raises OverflowLimitError rather than silently continuing.  An
integer literal of more than 19 significant digits is rejected unread, and
an out-of-range literal carries its offset.  A product whose operands have
n and m terms raises TermLimitError when n*m exceeds MAX_TERMS, before
forming any of them, so a short text cannot expand without bound.
Parentheses nest at most MAX_NESTING deep, so the recursive-descent parser
stays well inside the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidBindingError,
    NegativeCountError,
    OverflowLimitError,
    TermLimitError,
    UnboundVariableError,
)

Monomial = tuple[tuple[str, int], ...]
Binding = Mapping[str, int]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
MAX_NESTING = 100
MAX_TERMS = 10_000

_VARIABLE_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# After optional whitespace (\s is exactly str.isspace): an ASCII integer,
# a name, an operator, any other character, or the end of the text.
_TOKEN = r"\s*(?:([0-9]+)|({name})|([-+*()])|(.)|\Z)"
_LOWER_TOKEN = re.compile(_TOKEN.format(name="[a-z][a-z0-9_]*"))
_MIXED_TOKEN = re.compile(_TOKEN.format(name="[A-Za-z][A-Za-z0-9_]*"))
# INT64_MAX has 19 digits, so a longer literal is out of range unread.
_MAX_DIGITS = len(str(INT64_MAX))


def is_variable_name(name: str) -> bool:
    return bool(_VARIABLE_RE.match(name))


def binding_from_dict(data: object) -> dict[str, int]:
    """Read a JSON bindings file: an object mapping variable names to
    nonnegative integers (bools are not integers)."""
    if not isinstance(data, Mapping):
        raise DomainError("bindings file must hold a JSON object")
    for name, value in data.items():
        if not isinstance(name, str) or not is_variable_name(name) \
                or isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DomainError(
                f"bindings file entry {name!r} must map a variable "
                "to a nonnegative integer"
            )
    return dict(data)


def _check_range(value: int, what: str, offset: int | None = None) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowLimitError(f"{what} {value} is outside the signed 64-bit range", offset)
    return value


def _mono_key(mono: Monomial) -> tuple[int, tuple[str, ...]]:
    # Expanded variable sequence, e.g. a^2*r -> ("a", "a", "r"); its length
    # is the total degree and its lexicographic order breaks degree ties.
    expanded = tuple(name for name, exp in mono for _ in range(exp))
    return (-len(expanded), expanded)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    powers = dict(a)
    for name, exp in b:
        powers[name] = powers.get(name, 0) + exp
    return tuple(sorted(powers.items()))


@dataclass(frozen=True)
class Expression:
    """Canonical integer polynomial over named variables, built from terms
    in any order, each merged coefficient range-checked.  The sort keys of
    the terms (_keys) are not a field: ==, hash and repr see terms alone."""

    terms: tuple[tuple[Monomial, int], ...] = ()

    def __post_init__(self):
        merged: dict[Monomial, int] = {}
        for mono, coeff in self.terms:
            merged[mono] = merged.get(mono, 0) + coeff
        keys = {mono: _mono_key(mono) for mono, coeff in merged.items() if coeff != 0}
        order = sorted(keys, key=keys.__getitem__)
        terms = tuple((mono, _check_range(merged[mono], "coefficient")) for mono in order)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_keys", tuple(keys[mono] for mono in order))

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[str]:
        return frozenset(name for mono, _ in self.terms for name, _ in mono)

    def __add__(self, other: "Expression") -> "Expression":
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _merge(self, other, negate=False)

    def __sub__(self, other: "Expression") -> "Expression":
        if not other.terms:
            return self
        return _merge(self, other, negate=True)

    def __neg__(self) -> "Expression":
        return _scale(self, -1)

    def __mul__(self, other: "Expression") -> "Expression":
        a, b = self.terms, other.terms
        if len(a) * len(b) > MAX_TERMS:
            raise TermLimitError(
                f"a product of {len(a)} by {len(b)} terms would form more than "
                f"{MAX_TERMS} monomial products"
            )
        if not a or not b:
            return ZERO
        if len(a) == 1 and not a[0][0]:
            return _scale(other, a[0][1])
        if len(b) == 1 and not b[0][0]:
            return _scale(self, b[0][1])
        # Keys double as dict keys: the expanded sequence of a product is
        # the sorted concatenation of its factors' sequences.
        coeffs: dict[tuple[int, tuple[str, ...]], int] = {}
        monos: dict[tuple[int, tuple[str, ...]], Monomial] = {}
        for (mono_a, coeff_a), (degree_a, expanded_a) in zip(a, self._keys):
            for (mono_b, coeff_b), (degree_b, expanded_b) in zip(b, other._keys):
                key = (degree_a + degree_b, tuple(sorted(expanded_a + expanded_b)))
                if key in coeffs:
                    coeffs[key] += coeff_a * coeff_b
                else:
                    coeffs[key] = coeff_a * coeff_b
                    monos[key] = _mono_mul(mono_a, mono_b)
        order = sorted(key for key, coeff in coeffs.items() if coeff != 0)
        return _canonical(
            tuple((monos[key], _check_range(coeffs[key], "coefficient")) for key in order),
            tuple(order),
        )

    def __str__(self) -> str:
        return format_expr(self)


def _canonical(terms, keys) -> Expression:
    """An Expression from terms already canonical and their sort keys."""
    expression = object.__new__(Expression)
    object.__setattr__(expression, "terms", terms)
    object.__setattr__(expression, "_keys", keys)
    return expression


def _constant(value: int) -> Expression:
    return _canonical((((), value),), ((0, ()),)) if value else ZERO


def _variable(name: str) -> Expression:
    return _canonical(((((name, 1),), 1),), ((-1, (name,)),))


def _scale(expression: Expression, factor: int) -> Expression:
    """A nonzero factor times a canonical expression: same order and keys."""
    if factor == 1:
        return expression
    terms = tuple(
        (mono, _check_range(coeff * factor, "coefficient")) for mono, coeff in expression.terms
    )
    return _canonical(terms, expression._keys)


def _merge(a: Expression, b: Expression, negate: bool) -> Expression:
    """a + b, or a - b, in one pass over the two sorted term tuples.

    Only a sum of two coefficients, or a negated one, can leave the range;
    a - b checks every coefficient afterwards, in order, as the constructor
    does.
    """
    a_terms, a_keys, b_keys = a.terms, a._keys, b._keys
    b_terms = tuple((mono, -coeff) for mono, coeff in b.terms) if negate else b.terms
    terms: list[tuple[Monomial, int]] = []
    keys: list[tuple[int, tuple[str, ...]]] = []
    i = j = 0
    while i < len(a_terms) and j < len(b_terms):
        key_a, key_b = a_keys[i], b_keys[j]
        if key_a < key_b:
            terms.append(a_terms[i])
            keys.append(key_a)
            i += 1
        elif key_b < key_a:
            terms.append(b_terms[j])
            keys.append(key_b)
            j += 1
        else:
            coeff = a_terms[i][1] + b_terms[j][1]
            if coeff != 0:
                if not negate:
                    _check_range(coeff, "coefficient")
                terms.append((a_terms[i][0], coeff))
                keys.append(key_a)
            i += 1
            j += 1
    result = tuple(terms) + a_terms[i:] + b_terms[j:]
    if negate:
        for _, coeff in result:
            _check_range(coeff, "coefficient")
    return _canonical(result, tuple(keys) + a_keys[i:] + b_keys[j:])


ZERO = Expression()
ONE = Expression((((), 1),))


def total_degree(expression: Expression) -> int:
    """Largest total degree over the monomials; 0 for the zero polynomial."""
    if not expression.terms:
        return 0
    first_mono = expression.terms[0][0]  # terms sorted by descending degree
    return sum(exp for _, exp in first_mono)


def evaluate(expression: Expression, binding: Binding) -> int:
    """Evaluate at a nonnegative integer binding, exactly.

    Raises UnboundVariableError naming the first variable missing from the
    binding, InvalidBindingError on a negative binding value, and
    NegativeCountError when the result is below zero (counts of UI items or
    attempts cannot be negative, so e.g. a=0 is inadmissible under "a - 1").
    """
    for name in sorted(expression.variables()):
        if name not in binding:
            raise UnboundVariableError(name)
        if binding[name] < 0:
            raise InvalidBindingError(name, binding[name])
    total = 0
    for mono, coeff in expression.terms:
        value = coeff
        for name, exp in mono:
            value *= binding[name] ** exp
        total += _check_range(value, "term value")
    _check_range(total, "value")
    if total < 0:
        raise NegativeCountError(format_expr(expression), total)
    return total


def format_expr(expression: Expression) -> str:
    """Deterministic canonical text; parse_expr(format_expr(e)) == e."""
    if not expression.terms:
        return "0"
    parts: list[str] = []
    for i, (mono, coeff) in enumerate(expression.terms):
        magnitude = _render_magnitude(mono, abs(coeff))
        if i == 0:
            parts.append(magnitude if coeff > 0 else f"-{magnitude}")
        else:
            parts.append(f"+ {magnitude}" if coeff > 0 else f"- {magnitude}")
    return " ".join(parts)


def _render_magnitude(mono: Monomial, coeff: int) -> str:
    factors = [name for name, exp in mono for _ in range(exp)]
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return "*".join(factors)


def parse_expr(text: str) -> Expression:
    """Parse expression text into its canonical expanded polynomial.

    Errors carry the byte offset of the problem; the empty string,
    characters outside the grammar and parentheses nested more than
    MAX_NESTING deep are rejected.
    """
    return _parse(text, _LOWER_TOKEN)


def parse_operator_expr(text: str) -> Expression:
    """Like parse_expr but identifiers may be mixed case.

    Used by the KLM front-end, where uppercase-initial names denote time
    operators rather than concept variables.
    """
    return _parse(text, _MIXED_TOKEN)


def _parse(text: str, token_pattern: re.Pattern[str]) -> Expression:
    tokens = _tokenize(text, token_pattern)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    parser = _Parser(text, tokens)
    result = parser.parse_expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ExpressionSyntaxError(f"unexpected {trailing[1]!r}", trailing[2])
    return result


def _tokenize(
    text: str, token_pattern: re.Pattern[str]
) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while True:
        match = token_pattern.match(text, pos)
        pos = match.end()
        group = match.lastindex
        if group is None:
            return tokens
        start, lexeme = match.start(group), match.group(group)
        if group == 1:
            digits = lexeme.lstrip("0") or "0"
            if len(digits) > _MAX_DIGITS:
                raise OverflowLimitError(
                    f"integer literal {digits[:_MAX_DIGITS]}... ({len(digits)} digits) "
                    "is outside the signed 64-bit range",
                    start,
                )
            tokens.append(("int", _check_range(int(digits), "integer literal", start), start))
        elif group == 4:
            raise ExpressionSyntaxError(f"unknown character {lexeme!r}", start)
        else:
            tokens.append(("name" if group == 2 else lexeme, lexeme, start))


class _Parser:
    def __init__(self, text: str, tokens: list[tuple[str, object, int]]):
        self.text = text
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, object, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def parse_expression(self) -> Expression:
        token = self.peek()
        negate = token is not None and token[0] == "-"
        if negate:
            self.index += 1
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            token = self.peek()
            if token is None or token[0] not in "+-":
                return value
            self.index += 1
            rhs = self.parse_term()
            value = value + rhs if token[0] == "+" else value - rhs

    def parse_term(self) -> Expression:
        value = self.parse_factor()
        while True:
            token = self.peek()
            if token is None or token[0] != "*":
                return value
            self.index += 1
            value = value * self.parse_factor()

    def parse_factor(self) -> Expression:
        token = self.peek()
        if token is None:
            raise ExpressionSyntaxError("unexpected end of expression", len(self.text))
        kind, value, pos = token
        if kind == "int":
            self.index += 1
            return _constant(value)  # type: ignore[arg-type]
        if kind == "name":
            self.index += 1
            return _variable(value)  # type: ignore[arg-type]
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested more than {MAX_NESTING} deep", pos
                )
            self.index += 1
            self.depth += 1
            inner = self.parse_expression()
            self.depth -= 1
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise ExpressionSyntaxError(
                    "missing closing parenthesis",
                    closing[2] if closing else len(self.text),
                )
            self.index += 1
            return inner
        raise ExpressionSyntaxError(f"unexpected {value!r}", pos)
