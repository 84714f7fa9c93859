"""Keystroke-level execution-time estimates.

Maps abstract user actions (or explicitly entered operator formulas) to
seconds using per-operator unit times.  Operator names are namespaced
(PointClick, Glance, C_click, ...) because the single letters T, C, S, E
are already taken by the abstract action kinds; in formula text the short
uppercase letters remain accepted for convenience.

Composites:
    PointClick = M + C_click          (point at a target, then click)
    Glance     = S_saccade + P + E_mental   (look, perceive, decide)
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping, Sequence
from types import MappingProxyType

from .bigi import step_function, sum_steps
from .concept import ActionKind, ActionVector, InteractionConcept, SlotVector, UserStep
from .errors import (
    DomainError,
    KlmFormulaError,
    UnknownOperatorError,
    UnmappedActionError,
)
from .expr import (
    Binding,
    Expression,
    evaluate,
    format_expr,
    is_variable_name,
    parse_operator_expr,
)
from .speed import json_number
from .value import Value


class KlmOperator(enum.Enum):
    KEYSTROKE = "K"
    POINT = "M"
    CLICK = "C_click"
    SACCADE = "S_saccade"
    PERCEIVE = "P"
    RETRIEVE = "R"
    MENTAL_STEP = "E_mental"
    POINT_CLICK = "PointClick"
    GLANCE = "Glance"


# Formula-text spellings.  The bare uppercase letters match how operator
# formulas are conventionally written; T means the point-and-click
# composite there, not the Think action.
_OPERATOR_ALIASES: dict[str, KlmOperator] = {
    "K": KlmOperator.KEYSTROKE,
    "M": KlmOperator.POINT,
    "C": KlmOperator.CLICK,
    "C_click": KlmOperator.CLICK,
    "S": KlmOperator.SACCADE,
    "S_saccade": KlmOperator.SACCADE,
    "P": KlmOperator.PERCEIVE,
    "R": KlmOperator.RETRIEVE,
    "E": KlmOperator.MENTAL_STEP,
    "E_mental": KlmOperator.MENTAL_STEP,
    "T": KlmOperator.POINT_CLICK,
    "T_klm": KlmOperator.POINT_CLICK,
    "PointClick": KlmOperator.POINT_CLICK,
    "Q": KlmOperator.GLANCE,
    "Glance": KlmOperator.GLANCE,
}


# The KlmModel field holding each primitive operator's unit time.
_PRIMITIVE_FIELDS: dict[KlmOperator, str] = {
    KlmOperator.KEYSTROKE: "keystroke",
    KlmOperator.POINT: "point",
    KlmOperator.CLICK: "click",
    KlmOperator.SACCADE: "saccade",
    KlmOperator.PERCEIVE: "perceive",
    KlmOperator.RETRIEVE: "retrieve",
    KlmOperator.MENTAL_STEP: "mental_step",
}


class KlmModel(Value):
    """Primitive operator unit times in seconds; composites are derived."""

    __slots__ = ("keystroke", "point", "click", "saccade", "perceive", "retrieve", "mental_step")
    keystroke: float
    point: float
    click: float
    saccade: float
    perceive: float
    retrieve: float
    mental_step: float

    def __init__(
        self,
        keystroke: float = 0.23,
        point: float = 1.5,
        click: float = 0.23,
        saccade: float = 0.23,
        perceive: float = 0.1,
        retrieve: float = 1.2,
        mental_step: float = 0.07,
    ):
        values = (keystroke, point, click, saccade, perceive, retrieve, mental_step)
        for name, value in zip(self._fields, values):
            if not math.isfinite(value):
                raise DomainError(f"unit time {name} must be finite, got {value}")
            if value <= 0:
                raise DomainError(f"unit time {name} must be positive, got {value}")
        self._store(*values)

    @property
    def point_click(self) -> float:
        return self.point + self.click

    @property
    def glance(self) -> float:
        return self.saccade + self.perceive + self.mental_step

    def unit_time(self, operator: KlmOperator) -> float:
        if operator is KlmOperator.POINT_CLICK:
            return self.point_click
        if operator is KlmOperator.GLANCE:
            return self.glance
        return getattr(self, _PRIMITIVE_FIELDS[operator])


def model_from_dict(data: Mapping[str, float]) -> KlmModel:
    """Build a model from a JSON-style mapping of primitive unit times."""
    if not isinstance(data, Mapping):
        raise DomainError("operator model must be a JSON object")
    fields = {operator.value: name for operator, name in _PRIMITIVE_FIELDS.items()}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise DomainError(
                f"unknown or derived operator time {key!r}; settable: {sorted(fields)}"
            )
        kwargs[fields[key]] = json_number(value, f"operator time {key!r}")
    return KlmModel(**kwargs)


# The operators performed for each occurrence of an abstract action; a
# kind with no entry, or an empty one, is unmapped.
ActionMapping = Mapping[ActionKind, tuple[KlmOperator, ...]]

DEFAULT_MAPPING: ActionMapping = MappingProxyType(
    {
        ActionKind.THINK: (KlmOperator.GLANCE,),
        ActionKind.ENTER: (KlmOperator.POINT_CLICK,),
        ActionKind.CLICK: (KlmOperator.POINT_CLICK,),
    }
)


def mapping_from_dict(data: Mapping[str, Sequence[str]]) -> ActionMapping:
    """Build a read-only mapping from a JSON-style object: action word to
    operator names."""
    if not isinstance(data, Mapping):
        raise DomainError("action mapping must be a JSON object")
    per_kind: dict[ActionKind, tuple[KlmOperator, ...]] = {}
    for word, names in data.items():
        try:
            kind = ActionKind.from_word(word)
        except KeyError:
            raise DomainError(f"unknown action kind {word!r}") from None
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise DomainError(f"operators for {word!r} must be a list of operator names")
        operators = []
        for name in names:
            operator = _OPERATOR_ALIASES.get(name)
            if operator is None:
                raise UnknownOperatorError(name)
            operators.append(operator)
        per_kind[kind] = tuple(operators)
    return MappingProxyType(per_kind)


class KlmExpression(SlotVector, members=KlmOperator):
    """The count polynomial of each KlmOperator; per_operator views the
    nonzero ones."""

    __slots__ = ()
    per_operator = SlotVector.nonzero


def klm_step(step: UserStep, mapping: ActionMapping = DEFAULT_MAPPING) -> KlmExpression:
    """Operator counts of one step under a mapping."""
    _check_mapped(step, mapping)
    return _operator_counts(step_function(step), mapping)


def klm_from_concept(
    concept: InteractionConcept, mapping: ActionMapping = DEFAULT_MAPPING
) -> KlmExpression:
    """Operator counts of a whole concept: the steps' summed action vector,
    mapped once."""
    for step in concept.steps:
        _check_mapped(step, mapping)
    return _operator_counts(sum_steps(concept), mapping)


def _check_mapped(step: UserStep, mapping: ActionMapping) -> None:
    # The slots themselves: per_kind would build a dict, hashing each kind.
    for kind, count in zip(ActionVector.members, step.actions.counts):
        if count._keys and not mapping.get(kind):
            raise UnmappedActionError(kind.word, step.label)


def _operator_counts(vector: ActionVector, mapping: ActionMapping) -> KlmExpression:
    slot = KlmExpression.slot
    return KlmExpression.gather(
        (slot[operator], count)
        for kind, count in zip(ActionVector.members, vector.counts)
        if count._keys
        for operator in mapping[kind]
    )


def klm_parse(text: str) -> KlmExpression:
    """Parse an operator-level formula such as "(m + 2)*Q + 9*T".

    Uppercase-initial names are operator symbols, lowercase names concept
    variables.  Every term must be linear in exactly one operator.
    """
    mixed = parse_operator_expr(text)
    collected: list[list] = [[] for _ in KlmExpression.members]
    for mono, coeff in mixed.terms:
        operator_parts = [(name, exp) for name, exp in mono if name[0].isupper()]
        variable_parts = [(name, exp) for name, exp in mono if not name[0].isupper()]
        if not operator_parts:
            raise KlmFormulaError(
                f"term without an operator: {format_expr(Expression(((mono, coeff),)))!r}"
            )
        if len(operator_parts) > 1 or operator_parts[0][1] != 1:
            raise KlmFormulaError("each term must be linear in exactly one operator")
        operator = _OPERATOR_ALIASES.get(operator_parts[0][0])
        if operator is None:
            raise UnknownOperatorError(operator_parts[0][0])
        for name, _ in variable_parts:
            if not is_variable_name(name):
                raise KlmFormulaError(f"invalid variable name {name!r} in formula")
        collected[KlmExpression.slot[operator]].append((tuple(variable_parts), coeff))
    return KlmExpression(tuple(Expression(tuple(terms)) for terms in collected))


def klm_time(
    expression: KlmExpression,
    model: KlmModel | None = None,
    binding: Binding | None = None,
) -> float:
    """Execution time in seconds: operator counts times unit times.

    A time that overflows to infinity raises DomainError."""
    model = model or KlmModel()
    binding = binding if binding is not None else {}
    seconds = 0.0
    for operator, count in zip(KlmExpression.members, expression.counts):
        if count._keys:
            seconds += evaluate(count, binding) * model.unit_time(operator)
    if not math.isfinite(seconds):
        raise DomainError(f"execution time must be finite, got {seconds}")
    return seconds


def klm_speed(is_count: int, seconds: float) -> float:
    """Interaction speed in IS per second for a known IS count."""
    if is_count < 0:
        raise DomainError(f"IS count cannot be negative, got {is_count}")
    if seconds <= 0:
        raise DomainError(f"execution time must be positive, got {seconds}")
    speed = is_count / seconds
    if not math.isfinite(speed):
        raise DomainError(f"interaction speed must be finite, got {speed}")
    return speed
