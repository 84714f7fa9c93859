"""Exception types shared across the toolkit.

Everything raised on bad input derives from IxComplexError so callers (and
the CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class IxComplexError(Exception):
    """Base class for all domain errors raised by this package."""


class ExpressionSyntaxError(IxComplexError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class OverflowLimitError(IxComplexError):
    """A coefficient or evaluated value left the signed 64-bit range; an
    out-of-range integer literal also carries its offset in the text."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class TermLimitError(IxComplexError):
    """A product of expressions would form more monomial products than
    expr.MAX_TERMS allows."""


class UnboundVariableError(IxComplexError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class InvalidBindingError(IxComplexError):
    def __init__(self, name: str, value: int):
        super().__init__(f"binding for {name!r} must be nonnegative, got {value}")
        self.name = name
        self.value = value


class NegativeCountError(IxComplexError):
    """A count expression evaluated below zero, signalling an inadmissible
    binding (counts of UI items or attempts cannot be negative)."""

    def __init__(self, expression_text: str, value: int):
        super().__init__(
            f"count expression {expression_text!r} evaluated to {value}"
        )
        self.expression_text = expression_text
        self.value = value


class ConceptSyntaxError(IxComplexError):
    """Concept file rejected; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnmappedActionError(IxComplexError):
    def __init__(self, kind_word: str, step_label: str):
        super().__init__(
            f"no operator mapping for action {kind_word!r} used by step {step_label!r}"
        )
        self.kind_word = kind_word
        self.step_label = step_label


class UnknownOperatorError(IxComplexError):
    def __init__(self, name: str):
        super().__init__(f"unknown operator name {name!r}")
        self.name = name


class KlmFormulaError(IxComplexError):
    """Operator formula that parses but has no time interpretation."""


class LogFormatError(IxComplexError):
    """Malformed event-log file; carries the path to the offending record."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


class DomainError(IxComplexError):
    """Invalid argument or state outside the more specific categories."""
