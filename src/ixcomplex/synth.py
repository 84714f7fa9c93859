"""Brute-force counting oracle and synthetic log generation.

count_actions is the reference the symbolic pipeline is checked against:
it walks a concept step by step, multiplies each step's evaluated repeat
by its evaluated per-execution action counts, and adds up the products, in
time linear in the number of steps.  No polynomial algebra is involved; leaf
expressions are evaluated by the small recursive interpreter below, which
parses expression text on its own instead of reusing the polynomial
engine's parser or evaluator.  The only engine facility used here is
canonical text rendering, to obtain a textual form of stored expressions.

generate_log produces deterministic synthetic event logs: per-step speeds
are drawn from a normal distribution (PCG64-seeded, via numpy's Generator,
so a seed pins the byte-exact output) and durations follow as IS divided by
speed.  All speeds come from one draw of shape (sessions, nonzero steps);
its row-major order is the stream that one draw per step, session by
session, would consume.  generate_log is the package's only numpy user and
imports it itself, so importing the package or running any other command
does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .concept import ActionKind, InteractionConcept, UserStep
from .errors import (
    DomainError,
    InvalidBindingError,
    NegativeCountError,
    OverflowLimitError,
    UnboundVariableError,
)
from .expr import format_expr
from .logs import EventLog, PageVisit, Session, StepRecord, Task, gc_paused

_MIN_SPEED = 0.01
# The oracle's own copy of the signed 64-bit limit; counts are nonnegative.
_COUNT_MAX = 2**63 - 1


@dataclass(frozen=True)
class ActionCounts:
    """Concrete action tally at one binding; zero kinds are dropped."""

    per_kind: Mapping[ActionKind, int]
    total: int

    def __post_init__(self):
        if self.total != sum(self.per_kind.values()):
            raise ValueError("total does not match the per-kind counts")


def count_actions(concept: InteractionConcept, binding: Mapping[str, int]) -> ActionCounts:
    """Count actions step by step: repeat times per-execution count, added up.

    Each product and the total must fit in a signed 64-bit integer, the
    engine's contract; beyond it OverflowLimitError is raised.
    """
    totals = {kind: 0 for kind in ActionKind}
    for step in concept.steps:
        for kind, count in _step_counts(step, binding).items():
            totals[kind] += count
    per_kind = {kind: count for kind, count in totals.items() if count}
    return ActionCounts(per_kind, _in_range(sum(totals.values()), "total count"))


def _step_counts(step: UserStep, binding: Mapping[str, int]) -> dict[ActionKind, int]:
    """One step's count per kind: repeat times per-execution count, each
    inside the 64-bit range."""
    repeat = _leaf_value(step.repeat, binding)
    return {
        kind: _in_range(repeat * _leaf_value(expr, binding), "step count")
        for kind, expr in step.actions.items()
    }


def _in_range(count: int, what: str) -> int:
    if count > _COUNT_MAX:
        raise OverflowLimitError(f"{what} {count} is outside the signed 64-bit range")
    return count


def _leaf_value(expr, binding: Mapping[str, int]) -> int:
    value = eval_source(format_expr(expr), binding)
    if value < 0:
        raise NegativeCountError(format_expr(expr), value)
    return value


def eval_source(text: str, binding: Mapping[str, int]) -> int:
    """Evaluate expression text by direct recursion over its parse tree.

    Deliberately self-contained: own tokenizer, own recursive descent, own
    arithmetic, so agreement with the polynomial engine is meaningful.
    """
    cursor = _Cursor(_tokens(text))
    value = _eval_expr(cursor, binding)
    if cursor.peek() is not None:
        raise DomainError(f"unexpected {cursor.peek()!r} in expression {text!r}")
    return value


def _tokens(text: str) -> list[object]:
    out: list[object] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            out.append(int(text[pos:end]))
            pos = end
        elif ch.isalpha() or ch == "_":
            end = pos
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            out.append(text[pos:end])
            pos = end
        elif ch in "+-*()":
            out.append(ch)
            pos += 1
        else:
            raise DomainError(f"unexpected character {ch!r} in expression")
    return out


class _Cursor:
    def __init__(self, tokens: list[object]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> object | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def take(self) -> object:
        token = self.peek()
        if token is None:
            raise DomainError("unexpected end of expression")
        self.index += 1
        return token


def _eval_expr(cursor: _Cursor, binding: Mapping[str, int]) -> int:
    negate = cursor.peek() == "-"
    if negate:
        cursor.take()
    value = _eval_term(cursor, binding)
    if negate:
        value = -value
    while cursor.peek() in ("+", "-"):
        op = cursor.take()
        rhs = _eval_term(cursor, binding)
        value = value + rhs if op == "+" else value - rhs
    return value


def _eval_term(cursor: _Cursor, binding: Mapping[str, int]) -> int:
    value = _eval_factor(cursor, binding)
    while cursor.peek() == "*":
        cursor.take()
        value = value * _eval_factor(cursor, binding)
    return value


def _eval_factor(cursor: _Cursor, binding: Mapping[str, int]) -> int:
    token = cursor.take()
    if isinstance(token, int):
        return token
    if token == "(":
        value = _eval_expr(cursor, binding)
        if cursor.take() != ")":
            raise DomainError("missing closing parenthesis")
        return value
    if isinstance(token, str) and token not in "+-*()":
        if token not in binding:
            raise UnboundVariableError(token)
        value = binding[token]
        if value < 0:
            raise InvalidBindingError(token, value)
        return value
    raise DomainError(f"unexpected {token!r} in expression")


# --- synthetic logs --------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    concept: InteractionConcept
    binding: Mapping[str, int]
    sessions: int
    speed_mean: float
    speed_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sessions < 1:
            raise DomainError(f"sessions must be positive, got {self.sessions}")
        for name in ("speed_mean", "speed_sd"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.speed_mean <= 0:
            raise DomainError(f"speed_mean must be positive, got {self.speed_mean}")
        if self.speed_sd < 0:
            raise DomainError(f"speed_sd must be nonnegative, got {self.speed_sd}")


def generate_log(config: SynthConfig) -> EventLog:
    """Simulate sessions executing the concept at sampled speeds.

    One page visit per executed step; steps that contribute zero IS are
    skipped.  Timestamps are cumulative and rounded once per boundary, so a
    task's duration equals the rounded sum of its step durations.  Sessions
    are generated sequentially for reproducibility: a fixed seed yields a
    byte-identical log.
    """
    import numpy as np

    for name, value in config.binding.items():
        _in_range(value, f"binding {name} =")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    step_counts = [
        (step.label, sum(_step_counts(step, config.binding).values()))
        for step in config.concept.steps
    ]
    total_is = _in_range(sum(count for _, count in step_counts), "total count")
    drawn = [(label, count) for label, count in step_counts if count]
    speeds = np.maximum(
        rng.normal(config.speed_mean, config.speed_sd, size=(config.sessions, len(drawn))),
        _MIN_SPEED,
    ).tolist()
    name = config.concept.name
    sessions = []
    with gc_paused():
        for index, session_speeds in enumerate(speeds):
            clock_ms = 0.0
            visits = []
            for (label, count), speed in zip(drawn, session_speeds):
                start = round(clock_ms)
                clock_ms += count / speed * 1000.0
                end = round(clock_ms)
                record = StepRecord(label, start, end, count)
                visits.append(PageVisit(label, start, end, (record,)))
            # Timestamps only grow, so the session's last one bounds them all.
            _in_range(round(clock_ms), "timestamp")
            task = Task(
                task_id=name,
                concept_name=name,
                binding=dict(config.binding),
                is_count=total_is,
                page_visits=tuple(visits),
            )
            sessions.append(Session(f"s{index:04d}", (task,)))
    return EventLog(tuple(sessions))
