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
constructor; it builds this form from terms in any order, repeated or zero,
and from monomials in any order, with repeated variables or zero exponents.
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

An expression holds each term in one form: its sort key, (-total degree,
expanded variable sequence), e.g. (-3, ("a", "a", "r")) for a^2*r, in
_keys, and its coefficient at the same index of _coeffs.  A key determines
its monomial, and a product's sequence is the sorted concatenation of its
factors', so arithmetic, Sum, the parser's fold, format_expr and evaluate
work on keys alone.  terms is a property that builds the pairs on each
read; repr, hash, pickle and copy go through it.  (A __getattr__ hook
filling terms lazily would slow every attribute read on an Expression.)
Sum adds any number of expressions: it gathers their terms into one dict
by key, range-checks each coefficient as it changes, so the first error
is the one the pairwise fold a + b + c + ... raises, and sorts once;
+ and - are two-term Sums.  Scaling keeps the keys, a general product
collects into a dict and sorts once, and a one-term factor times an
expression keeps that expression's order (the order on sorted variable
sequences is multiplicative).

The parser scans the text once, with the token pattern's findall, and
folds the tokens in one pass.  A parenthesis-free term becomes a
coefficient and a sorted variable sequence as its factors arrive, and the
terms of a sum are gathered into a Sum; only a parenthesised factor, and
what follows it in its term, goes through Expression.__mul__.  Every
partial product and partial sum is range-checked in text order.  The fold
keeps no offsets: when it fails, a re-scan of the text finds them, and a
lexical error anywhere in the text (an unknown character or an
out-of-range literal) is reported ahead of any syntax or range error.

Coefficients and evaluated values must stay inside the signed 64-bit range;
leaving it raises OverflowLimitError rather than silently continuing.  An
integer literal of more than 19 significant digits is rejected unread, and
an out-of-range literal carries its offset.  A product whose operands have
n and m terms raises TermLimitError when n*m exceeds MAX_TERMS, before
forming any of them, so a short text cannot expand without bound.
Parentheses nest at most MAX_NESTING deep; the fold recurses once per open
parenthesis, so it stays well inside the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidBindingError,
    NegativeCountError,
    OverflowLimitError,
    TermLimitError,
    UnboundVariableError,
)
from .value import Value

Monomial = tuple[tuple[str, int], ...]
Binding = Mapping[str, int]
_Key = tuple[int, tuple[str, ...]]

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
# The sort key of the constant monomial.
_CONSTANT_KEY = (0, ())
# findall's groups for the empty match at the end of the text.
_END = ("", "", "", "")
# INT64_MAX has 19 digits, so a longer literal is out of range unread.
_MAX_DIGITS = len(str(INT64_MAX))


def is_variable_name(name: str) -> bool:
    return bool(_VARIABLE_RE.match(name))


def binding_from_dict(data: object) -> dict[str, int]:
    """Read a JSON bindings file: an object mapping variable names to
    nonnegative integers of at most INT64_MAX (bools are not integers)."""
    if not isinstance(data, Mapping):
        raise DomainError("bindings file must hold a JSON object")
    for name, value in data.items():
        if not isinstance(name, str) or not is_variable_name(name) \
                or isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DomainError(
                f"bindings file entry {name!r} must map a variable "
                "to a nonnegative integer"
            )
        if value > INT64_MAX:
            raise DomainError(f"bindings file entry {name!r} is outside the signed 64-bit range")
    return dict(data)


def _check_range(value: int, what: str, offset: int | None = None) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowLimitError(f"{what} {value} is outside the signed 64-bit range", offset)
    return value


def _mono_key(mono: Monomial) -> _Key:
    # Expanded variable sequence, e.g. a^2*r -> ("a", "a", "r"); its length
    # is the total degree and its lexicographic order breaks degree ties.
    expanded = tuple(name for name, exp in mono for _ in range(exp))
    return (-len(expanded), expanded)


def _canonical_mono(mono: Monomial) -> Monomial:
    """Pairs sorted by name, a repeated name's exponents summed and zero
    exponents dropped; an exponent that is not an int (a bool neither) or
    is negative raises DomainError."""
    powers: dict[str, int] = {}
    for name, exp in mono:
        if type(exp) is not int:
            raise DomainError(f"exponent {exp!r} of {name!r} must be an integer")
        if exp < 0:
            raise DomainError(f"exponent {exp} of {name!r} is negative")
        powers[name] = powers.get(name, 0) + exp
    return tuple(sorted((name, exp) for name, exp in powers.items() if exp))


def _grouped(expanded: tuple[str, ...]) -> Monomial:
    """The monomial of a sorted variable sequence: ("a", "a", "r") gives
    (("a", 2), ("r", 1))."""
    if len(expanded) < 2:
        return ((expanded[0], 1),) if expanded else ()
    mono: list[tuple[str, int]] = []
    for name in expanded:
        if mono and mono[-1][0] == name:
            mono[-1] = (name, mono[-1][1] + 1)
        else:
            mono.append((name, 1))
    return tuple(mono)


class Expression(Value):
    """Canonical integer polynomial over named variables, built from terms
    in any order, each merged coefficient range-checked; a coefficient or
    exponent that is not an int (a bool neither) raises DomainError.  Its
    one field, terms, is built on each read from the private slots _keys
    and _coeffs, which == compares directly."""

    __slots__ = ("_keys", "_coeffs")
    _fields = ("terms",)

    def __init__(self, terms: Iterable[tuple[Monomial, int]] = ()):
        merged: dict[Monomial, int] = {}
        for mono, coeff in terms:
            if type(coeff) is not int:
                raise DomainError(f"coefficient {coeff!r} must be an integer")
            mono = _canonical_mono(mono)
            merged[mono] = merged.get(mono, 0) + coeff
        coeffs = {_mono_key(mono): coeff for mono, coeff in merged.items() if coeff != 0}
        keys = tuple(sorted(coeffs))
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(
            self, "_coeffs", tuple([_check_range(coeffs[key], "coefficient") for key in keys])
        )

    @property
    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        return tuple([(_grouped(key[1]), coeff) for key, coeff in zip(self._keys, self._coeffs)])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._keys == other._keys and self._coeffs == other._coeffs
        return NotImplemented

    __hash__ = Value.__hash__

    def is_zero(self) -> bool:
        return not self._keys

    def variables(self) -> frozenset[str]:
        return frozenset([name for _, names in self._keys for name in names])

    def select(self, keep: Callable[[Monomial], bool]) -> "Expression":
        """The terms whose monomials keep accepts, in order."""
        kept = [index for index, (_, names) in enumerate(self._keys) if keep(_grouped(names))]
        return _canonical(
            tuple([self._keys[index] for index in kept]),
            tuple([self._coeffs[index] for index in kept]),
        )

    def __add__(self, other: "Expression") -> "Expression":
        if not other._keys:
            return self
        if not self._keys:
            return other
        return Sum((self, other)).value()

    def __sub__(self, other: "Expression") -> "Expression":
        if not other._keys:
            return self
        difference = Sum((self,))
        difference.add(other, -1)
        return difference.value()

    def __neg__(self) -> "Expression":
        return _scale(self, -1)

    def __mul__(self, other: "Expression") -> "Expression":
        a, b = self._coeffs, other._coeffs
        if len(a) * len(b) > MAX_TERMS:
            raise TermLimitError(
                f"a product of {len(a)} by {len(b)} terms would form more than "
                f"{MAX_TERMS} monomial products"
            )
        if not a or not b:
            return ZERO
        if len(a) == 1:
            if not self._keys[0][1]:
                return _scale(other, a[0])
            return _term_times(a[0], self._keys[0], other)
        if len(b) == 1:
            if not other._keys[0][1]:
                return _scale(self, b[0])
            return _term_times(b[0], other._keys[0], self)
        # Keys double as dict keys: the expanded sequence of a product is
        # the sorted concatenation of its factors' sequences.
        coeffs: dict[_Key, int] = {}
        for coeff_a, (degree_a, expanded_a) in zip(a, self._keys):
            for coeff_b, (degree_b, expanded_b) in zip(b, other._keys):
                key = (degree_a + degree_b, tuple(sorted(expanded_a + expanded_b)))
                if key in coeffs:
                    coeffs[key] += coeff_a * coeff_b
                else:
                    coeffs[key] = coeff_a * coeff_b
        keys = sorted([key for key, coeff in coeffs.items() if coeff != 0])
        return _canonical(
            tuple(keys), tuple([_check_range(coeffs[key], "coefficient") for key in keys])
        )

    def __str__(self) -> str:
        return format_expr(self)


def _canonical(keys: tuple[_Key, ...], coeffs: tuple[int, ...]) -> Expression:
    """An Expression from sorted keys and their nonzero coefficients."""
    expression = object.__new__(Expression)
    object.__setattr__(expression, "_keys", keys)
    object.__setattr__(expression, "_coeffs", coeffs)
    return expression


def _constant(value: int) -> Expression:
    return _canonical((_CONSTANT_KEY,), (value,)) if value else ZERO


def _variable(name: str) -> Expression:
    return _canonical(((-1, (name,)),), (1,))


def _scale(expression: Expression, factor: int) -> Expression:
    """A nonzero factor times a canonical expression: same keys."""
    if factor == 1:
        return expression
    coeffs = tuple([_check_range(coeff * factor, "coefficient") for coeff in expression._coeffs])
    return _canonical(expression._keys, coeffs)


def _term_times(coeff: int, key: _Key, expression: Expression) -> Expression:
    """One nonconstant term, given by its coefficient and key, times a
    canonical expression.  Multiplying by a monomial keeps the order of
    sorted variable sequences and maps distinct monomials to distinct ones,
    so the products come out in order, each checked there, with no dict and
    no sort."""
    degree, expanded = key
    keys = []
    coeffs = []
    for coeff_b, (degree_b, expanded_b) in zip(expression._coeffs, expression._keys):
        keys.append((degree + degree_b, tuple(sorted(expanded + expanded_b))))
        coeffs.append(_check_range(coeff * coeff_b, "coefficient"))
    return _canonical(tuple(keys), tuple(coeffs))


class Sum:
    """An n-ary sum of canonical expressions: add() gathers terms by key
    and range-checks each coefficient it changes at once, so the first
    error is the one the pairwise fold a + b + ... raises (or, with sign
    -1, a - b); value() sorts once.  A sum of one nonzero expression is
    that expression, as with +."""

    __slots__ = ("_coeffs", "_lone")

    def __init__(self, expressions: Iterable[Expression] = ()):
        self._coeffs: dict[_Key, int] = {}
        self._lone: Expression | None = None
        for expression in expressions:
            self.add(expression)

    def add(self, expression: Expression, sign: int = 1) -> None:
        if expression._keys:
            self._lone = expression if sign > 0 and not self._coeffs else None
            _gather(self._coeffs, expression, sign)

    def value(self) -> Expression:
        if self._lone is not None:
            return self._lone
        return _gathered(self._coeffs)


def _gather(coeffs: dict[_Key, int], expression: Expression, sign: int) -> None:
    """Add sign times the expression's terms, checking each coefficient as
    it changes."""
    for key, coeff in zip(expression._keys, expression._coeffs):
        if sign < 0:
            coeff = -coeff
        if key in coeffs:
            coeff += coeffs[key]
        if coeff > INT64_MAX or coeff < INT64_MIN:
            _check_range(coeff, "coefficient")
        coeffs[key] = coeff


def _gathered(coeffs: dict[_Key, int]) -> Expression:
    """The gathered terms as an expression: zero coefficients dropped and
    the keys sorted once."""
    if len(coeffs) == 1:
        ((key, coeff),) = coeffs.items()
        return _canonical((key,), (coeff,)) if coeff else ZERO
    keys = sorted(coeffs)
    if 0 in coeffs.values():
        keys = [key for key in keys if coeffs[key]]
    return _canonical(tuple(keys), tuple(map(coeffs.__getitem__, keys))) if keys else ZERO


ZERO = Expression()
ONE = Expression((((), 1),))


def total_degree(expression: Expression) -> int:
    """Largest total degree over the monomials; 0 for the zero polynomial."""
    return -expression._keys[0][0] if expression._keys else 0  # keys sorted by degree


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
    for (_, names), coeff in zip(expression._keys, expression._coeffs):
        value = coeff
        for name in names:
            value *= binding[name]
        total += _check_range(value, "term value")
    _check_range(total, "value")
    if total < 0:
        raise NegativeCountError(format_expr(expression), total)
    return total


def format_expr(expression: Expression) -> str:
    """Deterministic canonical text; parse_expr(format_expr(e)) == e."""
    if not expression._keys:
        return "0"
    parts: list[str] = []
    # Each term's factors are its key's expanded variable sequence.
    for (_, names), coeff in zip(expression._keys, expression._coeffs):
        magnitude = _render_magnitude(names, abs(coeff))
        if coeff == INT64_MIN:  # -2**63 has no literal: two terms, which parse_expr adds up
            magnitude = f"{_render_magnitude(names, INT64_MAX)} - {_render_magnitude(names, 1)}"
        if not parts:
            parts.append(magnitude if coeff > 0 else f"-{magnitude}")
        else:
            parts.append(f"+ {magnitude}" if coeff > 0 else f"- {magnitude}")
    return " ".join(parts)


def _render_magnitude(names: tuple[str, ...], coeff: int) -> str:
    if not names:
        return str(coeff)
    if coeff == 1:
        return "*".join(names)
    return f"{coeff}*" + "*".join(names)


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


class _SyntaxAt(Exception):
    """A syntax error at a token index of the fold; the re-scan supplies
    the offset, and the message where none is given."""

    def __init__(self, index: int, message: str | None = None):
        super().__init__(index, message)
        self.index = index
        self.message = message

    def located(self, text: str, tokens: list[tuple[object, int]]) -> ExpressionSyntaxError:
        if self.index < len(tokens):
            value, offset = tokens[self.index]
            return ExpressionSyntaxError(self.message or f"unexpected {value!r}", offset)
        return ExpressionSyntaxError(self.message or "unexpected end of expression", len(text))


def _parse(text: str, token_pattern: re.Pattern[str]) -> Expression:
    tokens = token_pattern.findall(text)
    if tokens[0] == _END:
        raise ExpressionSyntaxError("empty expression", 0)
    try:
        value, index = _fold_sum(tokens, 0, 0)
        if tokens[index] != _END:
            raise _SyntaxAt(index)
        return value
    except (_SyntaxAt, OverflowLimitError, TermLimitError) as exc:
        fault = exc
    located = _scan(text, token_pattern)  # raises the text's first lexical error
    if isinstance(fault, _SyntaxAt):
        raise fault.located(text, located)
    raise fault


def _fold_sum(tokens: list[tuple[str, str, str, str]], index: int, depth: int):
    """Fold the sum that starts at tokens[index], at nesting depth depth;
    return it and the index of the first token after it."""
    coeffs: dict[_Key, int] = {}
    sign = 1
    if tokens[index][2] == "-":
        sign = -1
        index += 1
    while True:
        # One term: a coefficient and variable names until a parenthesised
        # factor turns it into an expression.
        start = index
        coeff = 1
        names: list[str] = []
        value = None
        while True:
            number, name, op, _ = tokens[index]
            if number:
                factor = int(number) if len(number) <= _MAX_DIGITS else _long_literal(number)
                if factor > INT64_MAX:
                    raise _SyntaxAt(index)  # the re-scan reports the literal
                if value is None:
                    coeff *= factor
                    if coeff > INT64_MAX:
                        _check_range(coeff, "coefficient")
                else:
                    value = value * _constant(factor)
            elif name:
                if value is None:
                    names.append(name)
                else:
                    value = value * _variable(name)
            elif op == "(":
                if depth == MAX_NESTING:
                    raise _SyntaxAt(index, f"parentheses nested more than {MAX_NESTING} deep")
                if value is None and index != start:
                    value = _term(coeff, names)
                inner, index = _fold_sum(tokens, index + 1, depth + 1)
                if tokens[index][2] != ")":
                    raise _SyntaxAt(index, "missing closing parenthesis")
                value = inner if value is None else value * inner
            else:
                raise _SyntaxAt(index)
            index += 1
            if tokens[index][2] != "*":
                break
            index += 1
        if value is not None:
            _gather(coeffs, value, sign)
        elif coeff:
            # A coefficient in 1..INT64_MAX: only a merged sum can leave the range.
            if names:
                names.sort()
                key = (-len(names), tuple(names))
            else:
                key = _CONSTANT_KEY
            if sign < 0:
                coeff = -coeff
            if key in coeffs:
                coeff += coeffs[key]
                if coeff > INT64_MAX or coeff < INT64_MIN:
                    _check_range(coeff, "coefficient")
            coeffs[key] = coeff
        op = tokens[index][2]
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            return _gathered(coeffs), index
        index += 1


def _long_literal(digits: str) -> int:
    """The value of a digit string longer than _MAX_DIGITS, read only when
    its significant digits fit; INT64_MAX + 1 stands for any larger one."""
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= _MAX_DIGITS else INT64_MAX + 1


def _term(coeff: int, names: list[str]) -> Expression:
    """The parenthesis-free part of a term as an expression."""
    if not coeff:
        return ZERO
    return _canonical(((-len(names), tuple(sorted(names))),), (coeff,))


def _scan(text: str, token_pattern: re.Pattern[str]) -> list[tuple[object, int]]:
    """Each token's value and offset, in the fold's order; raises the first
    lexical error in the text: an unknown character or an integer literal
    outside the signed 64-bit range."""
    tokens: list[tuple[object, int]] = []
    for match in token_pattern.finditer(text):
        group = match.lastindex
        if group is None:
            break
        start, lexeme = match.start(group), match.group(group)
        if group == 1:
            digits = lexeme.lstrip("0") or "0"
            if len(digits) > _MAX_DIGITS:
                raise OverflowLimitError(
                    f"integer literal {digits[:_MAX_DIGITS]}... ({len(digits)} digits) "
                    "is outside the signed 64-bit range",
                    start,
                )
            tokens.append((_check_range(int(digits), "integer literal", start), start))
        elif group == 4:
            raise ExpressionSyntaxError(f"unknown character {lexeme!r}", start)
        else:
            tokens.append((lexeme, start))
    return tokens
