"""Exact multivariate polynomials with integer coefficients.

Every other module funnels its arithmetic through this one: interaction
concepts store per-action counts as polynomials over named variables, the
complexity pipeline adds and multiplies them, and instantiation evaluates
them at concrete bindings.

A polynomial is a sorted tuple of (monomial, coefficient) pairs, where a
monomial is a sorted tuple of (variable, exponent) pairs and the empty
monomial is the constant term.  Canonical by construction: equal monomials
merged, zero coefficients dropped, terms ordered by descending total degree
and then lexicographic variable order.  Structural equality therefore
coincides with mathematical equality, and the zero polynomial has no terms.

Expression text grammar (used inside concept files and on the command line):

    expr   := ["-"] term {("+" | "-") term}
    term   := factor {"*" factor}
    factor := INT | IDENT | "(" expr ")"

IDENT matches [a-z][a-z0-9_]*.  There is no division and no exponent
syntax; powers arise only through repeated multiplication, and formatted
output renders them the same way ("a*a").  The optional leading "-" exists
so that the formatted form of any polynomial parses back to it.

Coefficients and evaluated values must stay inside the signed 64-bit range;
leaving it raises OverflowLimitError rather than silently continuing.
Parentheses nest at most MAX_NESTING deep, so the recursive-descent parser
stays well inside the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidBindingError,
    NegativeCountError,
    OverflowLimitError,
    UnboundVariableError,
)

Monomial = tuple[tuple[str, int], ...]
Binding = Mapping[str, int]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
MAX_NESTING = 100

_VARIABLE_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_LOWER_NAME = re.compile(r"[a-z][a-z0-9_]*")
_MIXED_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


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


def _check_range(value: int, what: str) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowLimitError(f"{what} {value} is outside the signed 64-bit range")
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
    """Canonical integer polynomial over named variables."""

    terms: tuple[tuple[Monomial, int], ...] = ()

    @staticmethod
    def from_terms(raw: Iterable[tuple[Monomial, int]]) -> "Expression":
        merged: dict[Monomial, int] = {}
        for mono, coeff in raw:
            merged[mono] = merged.get(mono, 0) + coeff
        terms = tuple(
            (mono, _check_range(coeff, "coefficient"))
            for mono, coeff in sorted(merged.items(), key=lambda item: _mono_key(item[0]))
            if coeff != 0
        )
        return Expression(terms)

    @staticmethod
    def zero() -> "Expression":
        return ZERO

    @staticmethod
    def constant(value: int) -> "Expression":
        return Expression.from_terms((((), value),))

    @staticmethod
    def variable(name: str) -> "Expression":
        if not is_variable_name(name):
            raise ValueError(f"invalid variable name {name!r}")
        return Expression.from_terms([(((name, 1),), 1)])

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[str]:
        return frozenset(name for mono, _ in self.terms for name, _ in mono)

    def __add__(self, other: "Expression") -> "Expression":
        return Expression.from_terms(self.terms + other.terms)

    def __sub__(self, other: "Expression") -> "Expression":
        negated = tuple((mono, -coeff) for mono, coeff in other.terms)
        return Expression.from_terms(self.terms + negated)

    def __neg__(self) -> "Expression":
        return Expression.from_terms((mono, -coeff) for mono, coeff in self.terms)

    def __mul__(self, other: "Expression") -> "Expression":
        products = []
        for mono_a, coeff_a in self.terms:
            for mono_b, coeff_b in other.terms:
                products.append((_mono_mul(mono_a, mono_b), coeff_a * coeff_b))
        return Expression.from_terms(products)

    def __str__(self) -> str:
        return format_expr(self)


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
    return _parse(text, _LOWER_NAME)


def parse_operator_expr(text: str) -> Expression:
    """Like parse_expr but identifiers may be mixed case.

    Used by the KLM front-end, where uppercase-initial names denote time
    operators rather than concept variables.
    """
    return _parse(text, _MIXED_NAME)


def _parse(text: str, name_pattern: re.Pattern[str]) -> Expression:
    tokens = _tokenize(text, name_pattern)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    parser = _Parser(text, tokens)
    result = parser.parse_expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ExpressionSyntaxError(f"unexpected {trailing[1]!r}", trailing[2])
    return result


def _tokenize(
    text: str, name_pattern: re.Pattern[str]
) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            tokens.append(("int", _check_range(int(text[pos:end]), "integer literal"), pos))
            pos = end
            continue
        match = name_pattern.match(text, pos)
        if match:
            tokens.append(("name", match.group(), pos))
            pos = match.end()
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ExpressionSyntaxError(f"unknown character {ch!r}", pos)
    return tokens


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
            return Expression.constant(value)  # type: ignore[arg-type]
        if kind == "name":
            self.index += 1
            return Expression.from_terms([(((str(value), 1),), 1)])
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
