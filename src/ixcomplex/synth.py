"""Brute-force counting oracle and synthetic log generation.

count_actions is the reference the symbolic pipeline is checked against:
it walks a concept step by step, multiplies each step's evaluated repeat
by its evaluated per-execution action counts, and adds up the products, in
time linear in the number of steps.  No polynomial algebra is involved; leaf
expressions are evaluated by the small interpreter below, which reads
expression text with a compiled token pattern of its own and evaluates the
tokens by recursive descent, instead of reusing the polynomial engine's
pattern, parser or evaluator.  The only engine facility used here is
canonical text rendering, to obtain a textual form of stored expressions.
Each distinct text is rendered and evaluated once per call, in a dict keyed
by the expression's keys and coefficients (equal ones render equal text) and
dropped when the call returns; a text that raises is not kept, so it raises
where it first appears.  Every step's products are still range-checked.
Steps are read slot by slot, in ActionKind order.

generate_log produces deterministic synthetic event logs: per-step speeds
are drawn from a normal distribution (PCG64-seeded, via numpy's Generator,
so a seed pins the byte-exact output) and durations follow as IS divided by
speed.  All speeds come from one draw of shape (sessions, nonzero steps);
its row-major order is the stream that one draw per step, session by
session, would consume.  generate_log_text returns dump_log of that log
without building it: every session shares the log's strings, binding and
counts, so each session's text is one format call on its index and its
timestamps.  The CLI's synth command writes it.  Both share the draw and
the timestamp arithmetic, so the records and the text cannot drift apart.
The draw is the package's only numpy use and imports numpy itself, so
importing the package or running any other command does not load numpy.
"""

from __future__ import annotations

import json
import math
import re
from typing import Mapping

from .concept import ActionKind, ActionVector, InteractionConcept, UserStep
from .errors import (
    DomainError,
    InvalidBindingError,
    NegativeCountError,
    OverflowLimitError,
    UnboundVariableError,
)
from .expr import format_expr
from .logs import _HEAD, EventLog, PageVisit, Session, StepRecord, Task, dump_log, gc_paused
from .value import Value

_MIN_SPEED = 0.01
# The oracle's own copy of the signed 64-bit limit; counts are nonnegative.
_COUNT_MAX = 2**63 - 1


class ActionCounts(Value):
    """Concrete action tally at one binding; zero kinds are dropped."""

    __slots__ = ("per_kind", "total")
    per_kind: Mapping[ActionKind, int]
    total: int

    def __init__(self, per_kind: Mapping[ActionKind, int], total: int):
        counted = sum(per_kind.values())
        if total != counted:
            raise DomainError(f"total {total} does not match the per-kind counts' sum {counted}")
        self._store(per_kind, total)


def count_actions(concept: InteractionConcept, binding: Mapping[str, int]) -> ActionCounts:
    """Count actions step by step: repeat times per-execution count, added up.

    Each product and the total must fit in a signed 64-bit integer, the
    engine's contract; beyond it OverflowLimitError is raised.
    """
    values: dict[tuple, int] = {}
    totals = [0] * len(ActionVector.members)
    for step in concept.steps:
        for slot, count in enumerate(_step_counts(step, binding, values)):
            totals[slot] += count
    per_kind = {kind: count for kind, count in zip(ActionVector.members, totals) if count}
    return ActionCounts(per_kind, _in_range(sum(totals), "total count"))


def _step_counts(step: UserStep, binding: Mapping[str, int], values: dict[tuple, int]) -> list[int]:
    """One step's count in each slot of its actions: repeat times
    per-execution count, each inside the 64-bit range (0 in an empty slot).
    values holds the leaves evaluated so far in the caller's call."""
    repeat = _leaf_value(step.repeat, binding, values)
    return [
        _in_range(repeat * _leaf_value(expr, binding, values), "step count") if expr._keys else 0
        for expr in step.actions.counts
    ]


def _in_range(count: int, what: str) -> int:
    if count > _COUNT_MAX:
        raise OverflowLimitError(f"{what} {count} is outside the signed 64-bit range")
    return count


def _leaf_value(expr, binding: Mapping[str, int], values: dict[tuple, int]) -> int:
    """The value of the expression's rendered text.  values maps the term
    form (keys and coefficients) of each leaf evaluated so far to its value,
    so each distinct text is rendered and evaluated once; a text that raises
    is not kept, so it raises where it first appears."""
    form = (expr._keys, expr._coeffs)
    value = values.get(form)
    if value is None:
        text = format_expr(expr)
        value = eval_source(text, binding)
        if value < 0:
            raise NegativeCountError(text, value)
        values[form] = value
    return value


# The oracle's own token pattern: an ASCII integer, a name, an operator,
# or any other character but a space, which is refused.  findall skips the
# spaces between matches.
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*()])|(\S)")
_STRAY = ("+", "-", "*", ")")


def eval_source(text: str, binding: Mapping[str, int]) -> int:
    """Evaluate expression text by direct recursion over its parse tree.

    Deliberately self-contained: own token pattern, own recursive descent,
    own arithmetic, so agreement with the polynomial engine is meaningful.
    """
    tokens: list[object] = []
    for number, name, operator, other in _TOKEN.findall(text):
        if other:
            raise DomainError(f"unexpected character {other!r} in expression")
        tokens.append(int(number) if number else name or operator)
    # Reversed, so the next token is tokens[-1], above the end marker None.
    tokens = [None, *reversed(tokens)]
    value = _sum(tokens, binding)
    if tokens[-1] is not None:
        raise DomainError(f"unexpected {tokens[-1]!r} in expression {text!r}")
    return value


def _sum(tokens: list[object], binding: Mapping[str, int]) -> int:
    if tokens[-1] != "-":
        tokens.append("+")  # the sign of a first term without one
    value = 0
    while tokens[-1] in ("+", "-"):
        sign = 1 if tokens.pop() == "+" else -1
        value += sign * _product(tokens, binding)
    return value


def _product(tokens: list[object], binding: Mapping[str, int]) -> int:
    value = _factor(tokens, binding)
    while tokens[-1] == "*":
        tokens.pop()
        value *= _factor(tokens, binding)
    return value


def _factor(tokens: list[object], binding: Mapping[str, int]) -> int:
    token = tokens.pop()
    if isinstance(token, int):
        return token
    if token == "(":
        value = _sum(tokens, binding)
        token = tokens.pop()
        if token == ")":
            return value
        if token is not None:
            raise DomainError("missing closing parenthesis")
    if token is None:  # the end marker, taken for a factor or for ')'
        raise DomainError("unexpected end of expression")
    if token in _STRAY:
        raise DomainError(f"unexpected {token!r} in expression")
    if token not in binding:
        raise UnboundVariableError(token)
    value = binding[token]
    if value < 0:
        raise InvalidBindingError(token, value)
    return value


# --- synthetic logs --------------------------------------------------------


class SynthConfig(Value):
    __slots__ = ("concept", "binding", "sessions", "speed_mean", "speed_sd", "seed")
    concept: InteractionConcept
    binding: Mapping[str, int]
    sessions: int
    speed_mean: float
    speed_sd: float
    seed: int

    def __init__(
        self,
        concept: InteractionConcept,
        binding: Mapping[str, int],
        sessions: int,
        speed_mean: float,
        speed_sd: float = 0.0,
        seed: int = 0,
    ):
        if sessions < 1:
            raise DomainError(f"sessions must be positive, got {sessions}")
        for name, value in (("speed_mean", speed_mean), ("speed_sd", speed_sd)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if speed_mean <= 0:
            raise DomainError(f"speed_mean must be positive, got {speed_mean}")
        if speed_sd < 0:
            raise DomainError(f"speed_sd must be nonnegative, got {speed_sd}")
        self._store(concept, binding, sessions, speed_mean, speed_sd, seed)


def generate_log(config: SynthConfig) -> EventLog:
    """Simulate sessions executing the concept at sampled speeds.

    One page visit per executed step; steps that contribute zero IS are
    skipped.  Timestamps are cumulative and rounded once per boundary, so a
    task's duration equals the rounded sum of its step durations.  Sessions
    are generated sequentially for reproducibility: a fixed seed yields a
    byte-identical log.  Every task holds the same binding object, one copy
    of config.binding.
    """
    drawn, total_is, speeds = _draw(config)
    counts = [count for _, count in drawn]
    name = config.concept.name
    binding = dict(config.binding)
    sessions = []
    with gc_paused():
        for index, row in enumerate(speeds):
            stamps = _timestamps(counts, row.tolist())
            sessions.append(_session(index, name, binding, total_is, drawn, stamps))
    return EventLog(tuple(sessions))


def generate_log_text(config: SynthConfig) -> str:
    """dump_log(generate_log(config)), written without building the log.

    The result is the same text, or the same exception with the same
    message and path.  Every session of a generated log holds the same
    strings, binding and counts; only its index and its timestamps differ.
    So each string is encoded by json.dumps once, into a template of a
    session's text, and each session is one format call on its index and
    its page boundaries.

    First come generate_log's own refusals, the timestamp range among them,
    checked in every session in order.  Then come dump_log's, by dumping
    session 0 as a log of its own.  Whatever dump_log refuses in a
    generated log sits in session 0: a binding name or value, or a string
    holding a surrogate pair, since every session shares those strings and
    that binding.  Its other checks cannot fail in a later session either:
    the page boundaries only grow, so every interval runs forwards in order,
    the last boundary is inside the range, and every step's IS count is at
    least 1.  The boundaries wait in a flat array('q') until that check has
    passed, because only then is the template built: json.dumps can fail on
    a binding that dump_log refuses, one whose names mix types, say.
    """
    # Imported here, as numpy is, so that no other command loads it.
    from array import array

    drawn, total_is, speeds = _draw(config)
    counts = [count for _, count in drawn]
    width = len(counts) + 1
    stamps = array("q")
    for row in speeds:
        stamps.extend(_timestamps(counts, row.tolist()))
    name = config.concept.name
    binding = dict(config.binding)
    dump_log(EventLog((_session(0, name, binding, total_is, drawn, stamps[:width].tolist()),)))
    template = _session_template(name, binding, total_is, drawn)
    texts = [
        template.format(index, *stamps[at : at + width])
        for index, at in enumerate(range(0, len(stamps), width))
    ]
    # The head and the tail join the first and last session, so the whole
    # text is built by one join and never copied.
    texts[0] = _HEAD + texts[0]
    texts[-1] += "]}\n"
    return ",".join(texts)


def _draw(config: SynthConfig):
    """The steps with nonzero IS as (label, count) pairs, the task's IS
    count, and the speeds of every session as one numpy draw of shape
    (sessions, len(drawn))."""
    import numpy as np

    for name, value in config.binding.items():
        _in_range(value, f"binding {name} =")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    values: dict[tuple, int] = {}
    step_counts = [
        (step.label, sum(_step_counts(step, config.binding, values)))
        for step in config.concept.steps
    ]
    total_is = _in_range(sum(count for _, count in step_counts), "total count")
    drawn = [(label, count) for label, count in step_counts if count]
    speeds = rng.normal(config.speed_mean, config.speed_sd, size=(config.sessions, len(drawn)))
    return drawn, total_is, speeds


def _timestamps(counts: list[int], speeds: list[float]) -> list[int]:
    """A session's page boundaries in milliseconds: 0, then the clock
    rounded after each drawn step.  A step lasts its IS count over its
    speed, which is at least _MIN_SPEED; the clock adds up unrounded
    durations.  The last boundary is the largest, and one past the signed
    64-bit range raises OverflowLimitError."""
    clock_ms = 0.0
    stamps = [0]
    for count, speed in zip(counts, speeds):
        if speed < _MIN_SPEED:
            speed = _MIN_SPEED
        clock_ms += count / speed * 1000.0
        stamps.append(round(clock_ms))
    _in_range(stamps[-1], "timestamp")
    return stamps


def _session(index: int, name: str, binding: dict, total_is: int,
             drawn: list[tuple[str, int]], stamps: list[int]) -> Session:
    """Session index of a generated log: one task, with a page visit of one
    step record per drawn step, between consecutive page boundaries."""
    visits = []
    for (label, count), start, end in zip(drawn, stamps, stamps[1:]):
        visits.append(PageVisit(label, start, end, (StepRecord(label, start, end, count),)))
    return Session(f"s{index:04d}", (Task(name, name, binding, total_is, tuple(visits)),))


def _session_template(name: str, binding: dict, total_is: int,
                      drawn: list[tuple[str, int]]) -> str:
    """The text dump_log writes for a session of a generated log, as a
    str.format template: {0} is the session index and {k} the page
    boundary before drawn step k, counted from 1.  Each string is the JSON
    that dump_log writes for it, its braces doubled."""

    def encoded(value, **options) -> str:
        return json.dumps(value, **options).replace("{", "{{").replace("}", "}}")

    visits = []
    for k, (label, count) in enumerate(drawn, start=1):
        text, span = encoded(label), f"{{{k}}},{{{k + 1}}}"
        visits.append(f"[{text},{span},[[{text},{span},{count}]]]")
    name_text = encoded(name)
    binding_text = encoded(binding, sort_keys=True, separators=(",", ":"))
    task = f"[{name_text},{name_text},{binding_text},{total_is},[{','.join(visits)}]]"
    return f'["s{{0:04d}}",[{task}]]'
