"""Interaction concepts: data model, file format, validation.

A concept names the variables that influence interaction complexity and
lists the user steps of a task.  Each step carries per-action-kind count
expressions and an optional repetition factor; a conditional step ("only
taken when the seat is unavailable") is modelled through its repeat
expression, with the condition kept as a human-readable note.

Concept file format (UTF-8, line oriented, '#' starts a comment running to
the end of the line):

    concept "<name>"
    var <ident>                  # <description>
    step "<label>" [repeat <expr>] { <A>: <expr> [; <A>: <expr>]* }  # <note>

The first significant line must be the concept line.  A comment on a var
line is kept as that variable's description, and a comment after a step's
closing brace is kept as the step's note; all other comments are ignored.
<A> is one of T (think), E (enter content), C (click), S (scroll), X (use
of an external application).  Every variable referenced by a step must be
declared with a var line somewhere in the file.

The reader matches compiled patterns, not single characters.  A line's code
runs up to the first '#' outside double quotes, and a quote left open is
reported at its own column.  Lines end wherever str.splitlines ends them.
A step line of the usual shape gives its label, repeat, body and comment
with one match; any other step line is walked to find them, and the walk
raises the first fault on its way.  Either way one reader reads the body,
each part of it with one more match, and raises the line's first fault
with its message, line and column.  Each distinct expression text is
parsed once per parse_concept call, in a dict dropped when the call
returns.

The file is the concept's only serialized form.  The writer refuses exactly
what the reader refuses: serialize_concept raises DomainError for a concept
whose text parse_concept could not read back as the same concept.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Collection, Iterable, Mapping, Sequence

from .errors import (
    ConceptSyntaxError,
    DomainError,
    ExpressionSyntaxError,
    OverflowLimitError,
)
from .expr import ONE, ZERO, Expression, Sum, _gather, _gathered, format_expr
from .expr import is_variable_name, parse_expr
from .value import Value


class ActionKind(enum.Enum):
    """Abstract, modality-agnostic user actions."""

    THINK = "T"
    ENTER = "E"
    CLICK = "C"
    SCROLL = "S"
    EXTERNAL = "X"

    @property
    def word(self) -> str:
        """Full name as used in JSON files: Think, Enter, Click, ..."""
        return self.name.capitalize()

    @classmethod
    def from_word(cls, word: str) -> "ActionKind":
        return _KIND_BY_WORD[word]


_KIND_BY_WORD = {kind.word: kind for kind in ActionKind}


class SlotVector(Value):
    """Count polynomials in fixed slots, one per member of an enum in its
    order, ZERO in empty ones: + adds two vectors of the same class slot by
    slot (any other operand raises TypeError), and nonzero views the
    nonzero slots.  A subclass names its enum in its class line and
    declares empty __slots__.  V() is the zero vector; V(counts) holds the
    counts as a tuple, and raises DomainError for counts that are not an
    iterable of one Expression per member."""

    __slots__ = ("counts",)
    counts: tuple[Expression, ...]

    def __init_subclass__(cls, members: type[enum.Enum], **kwargs):
        super().__init_subclass__(**kwargs)
        cls.members = tuple(members)
        cls.slot = {member: slot for slot, member in enumerate(cls.members)}

    def __init__(self, counts: Iterable[Expression] | None = None):
        width = len(self.members)
        if counts is None:
            counts = (ZERO,) * width
        else:
            name = type(self).__name__
            try:
                counts = tuple(counts)
            except TypeError:
                raise _ill_typed(f"{name} counts", "an iterable", counts) from None
            if len(counts) != width:
                article = "an" if name[0] in "AEIOU" else "a"
                raise DomainError(f"{article} {name} holds {width} counts, got {len(counts)}")
            # One plain pass: the slot of a bad count is looked up only to
            # name its member.
            for count in counts:
                if not isinstance(count, Expression):
                    member = self.members[next(i for i, c in enumerate(counts) if c is count)]
                    raise _ill_typed(f"{name} count for {member}", "an Expression", count)
        object.__setattr__(self, "counts", counts)

    @property
    def nonzero(self) -> dict[enum.Enum, Expression]:
        return {member: count for member, count in zip(self.members, self.counts) if count._keys}

    def get(self, member: enum.Enum) -> Expression:
        return self.counts[self.slot[member]]

    def __add__(self, other: SlotVector) -> SlotVector:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return type(self)(tuple(a + b for a, b in zip(self.counts, other.counts)))

    @classmethod
    def gather(cls, pairs: Iterable[tuple[int, Expression]]) -> SlotVector:
        """The vector whose count in each slot (V.slot[member]) is the sum
        of the counts paired with that slot; each partial sum is checked in
        the order that adding the pairs one at a time with + would check it."""
        # Each slot's lone nonzero count: ZERO before its first, None after a second.
        lone: list[Expression | None] = [ZERO] * len(cls.members)
        gathered: list[dict] = [{} for _ in cls.members]
        for slot, count in pairs:
            if count._keys:
                lone[slot] = count if lone[slot] is ZERO else None
                _gather(gathered[slot], count, 1)
        return cls(tuple([
            _gathered(coeffs) if count is None else count for count, coeffs in zip(lone, gathered)
        ]))


class ActionVector(SlotVector, members=ActionKind):
    """The count polynomial of each ActionKind (T, E, C, S, X); per_kind
    views the nonzero ones."""

    __slots__ = ()
    per_kind = SlotVector.nonzero

    def total(self) -> Expression:
        return Sum(self.counts).value()


_SLOT_BY_LETTER = {kind.value: slot for kind, slot in ActionVector.slot.items()}


class ConceptVariable(Value):
    __slots__ = ("name", "description")
    name: str
    description: str

    def __init__(self, name: str, description: str = ""):
        if type(description) is not str:
            raise _ill_typed("variable description", "a string", description)
        self._store(name, description.strip())


class UserStep(Value):
    """One task-level stage, e.g. "select a movie".

    actions holds the count of each action kind per execution of the step
    as an ActionVector (ZERO where the step takes none; per_kind views the
    rest in ActionKind order).  The constructor takes that vector, which
    it keeps when every empty slot holds ZERO already, or a mapping from
    kinds to counts, which it checks in the order given; either way equal
    steps hold equal vectors.  repeat scales the whole step (default 1).
    A field of the wrong type raises DomainError naming the field.
    bigi.step_function keeps the step's scaled vector in the private slot
    _vector; a copy, a pickle or a _replace is rebuilt from the fields, so
    it keeps no vector derived from the original.
    """

    __slots__ = ("label", "actions", "repeat", "note", "_vector")
    label: str
    actions: ActionVector
    repeat: Expression
    note: str | None

    def __init__(
        self,
        label: str,
        actions: Mapping[ActionKind, Expression] | ActionVector = ActionVector(),
        repeat: Expression = ONE,
        note: str | None = None,
    ):
        if type(label) is not str:
            raise _ill_typed("step label", "a string", label)
        if type(actions) is ActionVector:
            # Its counts are Expressions already: a new vector only puts the
            # ZERO object in an empty slot that holds another zero.
            counts = actions.counts
            if not all(count._keys or count is ZERO for count in counts):
                actions = ActionVector(tuple(count if count._keys else ZERO for count in counts))
        elif isinstance(actions, Mapping):
            counts = [ZERO] * len(ActionVector.members)
            slot_of = ActionVector.members.index
            for kind, expr in actions.items():
                if type(kind) is not ActionKind:
                    raise _ill_typed("step actions key", "an ActionKind", kind)
                if not isinstance(expr, Expression):
                    raise _ill_typed(f"step actions value for {kind.word}", "an Expression", expr)
                if expr._keys:
                    counts[slot_of(kind)] = expr
            actions = ActionVector(tuple(counts))
        else:
            raise _ill_typed("step actions", "a mapping", actions)
        if not isinstance(repeat, Expression):
            raise _ill_typed("step repeat", "an Expression", repeat)
        if note is not None and type(note) is not str:
            raise _ill_typed("step note", "a string or None", note)
        self._store(label, actions, repeat, _stored_note(note))


def _stored_note(note: str | None) -> str | None:
    """A step's note as a step keeps it: stripped, and None when blank."""
    return (note.strip() or None) if note else None


class InteractionConcept(Value):
    """A named task: its variables and its steps, each held as a tuple.  A
    field of the wrong type raises DomainError naming the field.
    bigi.sum_steps keeps the summed vector in the private slot _summed."""

    __slots__ = ("name", "variables", "steps", "_summed")
    name: str
    variables: tuple[ConceptVariable, ...]
    steps: tuple[UserStep, ...]

    def __init__(
        self,
        name: str,
        variables: Sequence[ConceptVariable] = (),
        steps: Sequence[UserStep] = (),
    ):
        if type(name) is not str:
            raise _ill_typed("concept name", "a string", name)
        variables = _items("variables", variables, ConceptVariable)
        self._store(name, variables, _items("steps", steps, UserStep))


def _items(field_name: str, items: Sequence, kind: type) -> tuple:
    """A concept's variables or steps as a tuple, each item checked."""
    if type(items) is not tuple:
        if not isinstance(items, Sequence) or type(items) is str:
            raise _ill_typed(f"concept {field_name}", "a sequence", items)
        items = tuple(items)
    for item in items:
        if not isinstance(item, kind):
            raise _ill_typed(f"concept {field_name[:-1]}", f"a {kind.__name__}", item)
    return items


def _ill_typed(what: str, wanted: str, value) -> DomainError:
    return DomainError(f"{what} must be {wanted}, got {value!r}")


class Diagnostic(Value):
    __slots__ = ("severity", "message", "step")
    severity: str  # "error" or "warning"
    message: str
    step: str | None

    def __init__(self, severity: str, message: str, step: str | None = None):
        self._store(severity, message, step)


def validate(concept: InteractionConcept) -> list[Diagnostic]:
    """Check model invariants; errors first, then warnings.

    An empty list means every invariant holds and no step is degenerate.
    Zero-action steps are reported as warnings only: they are legal
    placeholders in early sketches.
    """
    diagnostics: list[Diagnostic] = []
    if not concept.name:
        diagnostics.append(Diagnostic("error", "concept name is empty"))
    seen_vars: set[str] = set()
    for variable in concept.variables:
        for message in _variable_errors(variable.name, seen_vars):
            diagnostics.append(Diagnostic("error", message))
        seen_vars.add(variable.name)

    seen_labels: set[str] = set()
    for step in concept.steps:
        if not step.label:
            diagnostics.append(Diagnostic("error", "empty step label", step.label))
        for message in _step_errors(step, seen_labels, seen_vars):
            diagnostics.append(Diagnostic("error", message, step.label))
        seen_labels.add(step.label)
        if not any(count._keys for count in step.actions.counts):
            diagnostics.append(
                Diagnostic("warning", "step contributes no interaction", step.label)
            )
    diagnostics.sort(key=lambda d: d.severity)  # errors before warnings
    return diagnostics


def _variable_errors(name: str, declared: Collection[str]) -> list[str]:
    """The variable rules: a valid name, declared once."""
    errors = []
    if not is_variable_name(name):
        errors.append(f"invalid variable name {name!r}")
    if name in declared:
        errors.append(f"duplicate variable {name!r}")
    return errors


def _step_errors(step: UserStep, labels: Collection[str], declared: set[str]) -> list[str]:
    """The step rules: a label used once, and only declared variables."""
    errors = []
    if step.label in labels:
        errors.append(f"duplicate step label {step.label!r}")
    used = step.repeat.variables().union(*(e.variables() for e in step.actions.counts if e._keys))
    errors.extend(f"undeclared variable {name!r}" for name in sorted(used - declared))
    return errors


# --- file format -----------------------------------------------------------


def parse_concept(text: str) -> InteractionConcept:
    """Parse a concept file; rejects undeclared variables and duplicates.

    Raises ConceptSyntaxError with the 1-based line and column of the first
    problem.  Parsing is total: any input yields either a concept or that
    error, never a crash.

    The order of faults: a first pass over the lines raises a missing,
    late or repeated concept line, a fault in a concept or var line, an
    unknown keyword, and an unterminated quote on any line outside the
    one-match step shape, wherever it is in the file, so an unterminated
    quote on line 3 wins over a body fault on line 2.  The step lines are
    then read in order, and each line's first fault in text order is
    raised; after its body come a repeated label, then the first undeclared
    variable in sorted order.
    """
    concept_name: str | None = None
    variables: list[ConceptVariable] = []
    declared: set[str] = set()
    # Each step line's number, and its match or where the walk starts.
    step_lines: list[tuple[int, re.Match | None, tuple[str, str | None, int] | None]] = []

    for number, raw_line in enumerate(text.splitlines(), start=1):
        if concept_name is not None:
            match = _STEP_LINE.match(raw_line)
            if match is not None:
                step_lines.append((number, match, None))
                continue
        code, comment = _split_comment(raw_line, number)
        head = _KEYWORD.match(code)
        if head is None:
            continue
        keyword, pos = head[1], head.end()
        if keyword == "concept":
            if concept_name is not None:
                raise ConceptSyntaxError("duplicate concept line", number)
            concept_name = _parse_concept_line(code, pos, number)
        elif concept_name is None:
            raise ConceptSyntaxError(
                "the concept line must come before anything else", number
            )
        elif keyword == "var":
            variables.append(_parse_var_line(code[pos:].rstrip(), comment, declared, number))
            declared.add(variables[-1].name)
        elif keyword == "step":
            step_lines.append((number, None, (code, comment, pos)))
        else:
            raise ConceptSyntaxError(
                f"expected 'concept', 'var' or 'step', found {keyword!r}",
                number,
                head.start(1) + 1,
            )

    if concept_name is None:
        raise ConceptSyntaxError("missing concept line", 1)

    reader = _StepReader(declared)
    steps = tuple([
        reader.matched(match, number) if match else reader.walked(*located, number)
        for number, match, located in step_lines
    ])
    return InteractionConcept(concept_name, tuple(variables), steps)


# Code and comment; a match that ends before the line does ends at a quote
# left open.
_CODE_AND_COMMENT = re.compile(r'((?:[^"#]+|"[^"]*")*)(?:#(.*))?')
# The keyword that opens a line of code, and the spaces after it (\s is
# exactly str.isspace, which str.split splits at).
_KEYWORD = re.compile(r"\s*(\S+)\s*")
_SPACES = re.compile(r"\s*")
_REPEAT = re.compile(r"repeat(?!\w)")
# A step line of the usual shape, comment and all: its label, which is not
# empty, repeat text, body and comment.  The repeat text and the body hold
# no quote and no '#', so the line's code ends where _split_comment ends it.
_STEP_LINE = re.compile(
    r'\s*step\s+"([^"]+)"\s*(?:repeat(?!\w)([^{"#]*))?\{([^}"#]*)\}\s*(?:#(.*))?\Z'
)
# Each part of a step's body, and the ';' after it: the whole part, which
# is a piece that str.split(";") cuts; a kind's letter and its count text,
# or any other text, which is blank in a blank part.  Every character of
# the body falls in some part, and no part starts where the body ends.
_PARTS = re.compile(r"(?!\Z)(\s*(?:([TECSX])\s*:([^;]*)|([^;]*)))(?:;|\Z)")


def _split_comment(line: str, number: int) -> tuple[str, str | None]:
    match = _CODE_AND_COMMENT.match(line)
    if match.end() < len(line):
        raise ConceptSyntaxError("unterminated quote", number, match.end() + 1)
    return match[1], match[2]


def _parse_quoted(code: str, start: int, number: int) -> tuple[str, int]:
    if start >= len(code) or code[start] != '"':
        raise ConceptSyntaxError("expected an opening quote", number, start + 1)
    end = code.find('"', start + 1)
    if end < 0:
        raise ConceptSyntaxError("unterminated quote", number, start + 1)
    return code[start + 1 : end], end + 1


def _parse_concept_line(code: str, pos: int, number: int) -> str:
    name, pos = _parse_quoted(code, pos, number)
    if code[pos:].strip():
        raise ConceptSyntaxError("unexpected text after the concept name", number, pos + 1)
    if not name:
        raise ConceptSyntaxError("concept name is empty", number)
    return name


def _parse_var_line(
    rest: str, comment: str | None, declared: Collection[str], number: int
) -> ConceptVariable:
    if not rest:
        raise ConceptSyntaxError("missing variable name", number)
    errors = _variable_errors(rest, declared)
    if errors:
        raise ConceptSyntaxError(errors[0], number)
    return ConceptVariable(rest, comment or "")


class _StepReader:
    """Reads the step lines of one parse_concept call, in order, into
    steps; each read raises its line's first fault at its column.  parsed
    maps each expression text read so far in the call, stripped, to its
    value: spaces around a text change neither its value nor whether it
    parses.  undeclared is set on the first text found to name a variable
    not in declared, and the step that holds it then raises."""

    __slots__ = ("declared", "labels", "parsed", "undeclared", "number")

    def __init__(self, declared: set[str]):
        self.declared = declared
        self.labels: set[str] = set()
        self.parsed: dict[str, Expression] = {}
        self.undeclared = False

    def matched(self, match: re.Match, number: int) -> UserStep:
        """The step of a line that _STEP_LINE matched."""
        self.number = number
        label, repeat_text, body, comment = match.groups()
        repeat = ONE if repeat_text is None else self.expression(repeat_text, match.end(2))
        return self.body(label, repeat, body, match.start(3), comment)

    def walked(self, code: str, comment: str | None, pos: int, number: int) -> UserStep:
        """The step of any other step line, whose code after the keyword
        starts at pos: a walk that finds the label, the repeat and the body
        of the line, raising the first fault on the way."""
        self.number = number
        label, pos = _parse_quoted(code, pos, number)
        if not label:
            raise ConceptSyntaxError("empty step label", number)
        pos = _SPACES.match(code, pos).end()
        repeat = ONE
        if _REPEAT.match(code, pos):
            brace = code.find("{", pos)
            if brace < 0:
                raise ConceptSyntaxError("missing '{' after repeat expression", number, pos + 1)
            repeat = self.expression(code[pos + len("repeat") : brace], brace)
            pos = brace
        if pos >= len(code) or code[pos] != "{":
            raise ConceptSyntaxError("expected '{'", number, pos + 1)
        closing = code.find("}", pos)
        if closing < 0:
            raise ConceptSyntaxError("missing '}'", number, pos + 1)
        if code[closing + 1 :].strip():
            raise ConceptSyntaxError("unexpected text after '}'", number, closing + 2)
        return self.body(label, repeat, code[pos + 1 : closing], pos + 1, comment)

    def body(
        self, label: str, repeat: Expression, body: str, at: int, comment: str | None
    ) -> UserStep:
        """The step whose body starts at 0-based column at.  Each part
        raises at its own column, in text order; then a repeated label or an
        undeclared variable raises the first of the step rules' errors."""
        counts: list[Expression | None] = [None] * len(ActionVector.members)
        for part, letter, expr_text, other in _PARTS.findall(body):
            end = at + len(part)
            if letter:
                slot = _SLOT_BY_LETTER[letter]
                if counts[slot] is not None:
                    raise ConceptSyntaxError(
                        f"duplicate action kind {letter!r}", self.number, at + 1
                    )
                counts[slot] = self.expression(expr_text, end)
            elif other:
                if ":" not in other:
                    raise ConceptSyntaxError("expected '<action>: <expr>'", self.number, at + 1)
                raise ConceptSyntaxError(
                    f"unknown action kind {other.partition(':')[0].strip()!r}"
                    " (expected one of T, E, C, S, X)",
                    self.number,
                    at + 1,
                )
            at = end + 1
        # UserStep(label, ActionVector(counts), repeat, comment) without its
        # checks, which these parts pass already.
        actions = object.__new__(ActionVector)
        counts = tuple([ZERO if count is None or not count._keys else count for count in counts])
        object.__setattr__(actions, "counts", counts)
        step = object.__new__(UserStep)
        step._store(label, actions, repeat, _stored_note(comment))
        if label in self.labels or self.undeclared:
            errors = _step_errors(step, self.labels, self.declared)
            raise ConceptSyntaxError(errors[0], self.number)
        self.labels.add(label)
        return step

    def expression(self, text: str, end: int) -> Expression:
        """parse_expr(text), parsed once per call, for a text that ends
        where 0-based column end begins.  A fault located in the text
        raises ConceptSyntaxError at its column; an overflow in arithmetic
        and TermLimitError propagate."""
        key = text.strip()
        expr = self.parsed.get(key)
        if expr is None:
            try:
                expr = parse_expr(key)
            except (ExpressionSyntaxError, OverflowLimitError):
                # The key parses faster, as spaces after a text cost
                # parse_expr a token; the text as written is parsed for the
                # fault, whose offset in that text the message gives.
                try:
                    expr = parse_expr(text)
                except (ExpressionSyntaxError, OverflowLimitError) as exc:
                    if exc.offset is None:  # an overflow in arithmetic, not in the text
                        raise
                    column = end - len(text) + exc.offset + 1
                    raise ConceptSyntaxError(str(exc), self.number, column) from None
            for _, names in expr._keys:  # each term's names
                if not self.declared.issuperset(names):
                    self.undeclared = True
            self.parsed[key] = expr
        return expr


def serialize_concept(concept: InteractionConcept) -> str:
    """Render the canonical file form; reparsing it reproduces the concept.

    Raises DomainError, and writes nothing, for any concept parse_concept
    could not read back: one with a validate error (the first is raised),
    or whose name or a label holds a double quote, or whose name, a label, a
    description or a note holds a line boundary of str.splitlines.  A
    repeat of 1 is elided.
    """
    _require_serializable(concept)
    lines = [f'concept "{concept.name}"']
    for variable in concept.variables:
        if variable.description:
            lines.append(f"var {variable.name}  # {variable.description}")
        else:
            lines.append(f"var {variable.name}")
    for step in concept.steps:
        parts = [f'step "{step.label}"']
        if step.repeat != ONE:
            parts.append(f"repeat {format_expr(step.repeat)}")
        body = "; ".join(
            f"{kind.value}: {format_expr(expr)}"
            for kind, expr in zip(ActionVector.members, step.actions.counts)
            if expr._keys
        )
        parts.append("{ " + body + " }" if body else "{ }")
        line = " ".join(parts)
        if step.note:
            line += f"  # {step.note}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _require_serializable(concept: InteractionConcept) -> None:
    errors = [d.message for d in validate(concept) if d.severity == "error"]
    if errors:
        raise DomainError(errors[0])

    def check(text: str, what: str, allow_quote: bool = True) -> None:
        if text.splitlines() not in ([], [text]):
            raise DomainError(f"{what} must be single-line: {text!r}")
        if not allow_quote and '"' in text:
            raise DomainError(f"{what} must not contain a double quote: {text!r}")

    check(concept.name, "concept name", allow_quote=False)
    for variable in concept.variables:
        check(variable.description, "variable description")
    for step in concept.steps:
        check(step.label, "step label", allow_quote=False)
        if step.note:
            check(step.note, "step note")
