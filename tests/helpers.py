"""Shared generators for randomized tests.

Two flavors: hypothesis strategies for structural properties (round-trips,
algebra laws) and a plain seeded random.Random generator for the bulk
oracle-equivalence runs, where speed and an explicit iteration count matter
more than shrinking.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from hypothesis import strategies as st

from ixcomplex.concept import ActionKind, ConceptVariable, InteractionConcept, UserStep
from ixcomplex.expr import INT64_MAX, Expression, parse_expr
from ixcomplex.logs import EventLog, PageVisit, Session, StepRecord, Task

CONCEPTS_DIR = Path(__file__).resolve().parent.parent / "concepts"

V1_BINDING = {"m": 6, "r": 4, "t": 7, "d": 4, "s": 6, "a": 5}
V2_BINDING = {"m": 6, "r": 4, "d": 4, "s": 4, "g": 9, "o": 7}
KLM_V1_BINDING = {"m": 6, "r": 4, "t": 7, "d": 6, "s": 5, "a": 5}
KLM_V2_BINDING = {"m": 6, "r": 4, "t": 7, "d": 6, "s": 5, "o": 5}

V1_PUBLISHED_IS = "m + 5 + a*(r + t + d + s + 11)"
V2_PUBLISHED_IS = "m + r + d + s + g + o + 12"
V1_PUBLISHED_KLM = "(m + a*(r + t + d + s + 2))*Q + (4 + 8*a)*T"
V2_PUBLISHED_KLM = "(m + r + t + d + s + o + 2)*Q + 9*T"


# --- hypothesis strategies ---------------------------------------------------

VARIABLE_NAMES = ("a", "b", "c", "m", "r", "t", "d", "s", "g", "o")
_TEXT_ALPHABET = " abcdefghijklmnopqrstuvwxyz0123456789(),.-_"


@st.composite
def monomials(draw):
    names = draw(st.lists(st.sampled_from(VARIABLE_NAMES), unique=True, max_size=3))
    return tuple(sorted((name, draw(st.integers(1, 3))) for name in names))


@st.composite
def expressions(draw, min_coeff=-9, max_coeff=9, max_terms=5):
    terms = draw(
        st.lists(
            st.tuples(monomials(), st.integers(min_coeff, max_coeff)),
            max_size=max_terms,
        )
    )
    return Expression(tuple(terms))


def nonneg_expressions(max_terms=4):
    return expressions(min_coeff=0, max_coeff=9, max_terms=max_terms)


def labels():
    return st.text(alphabet=_TEXT_ALPHABET, min_size=1, max_size=16).map(str.strip).filter(bool)


def side_texts():
    # Descriptions and notes: single-line, stored stripped.
    return st.text(alphabet=_TEXT_ALPHABET, max_size=24).map(str.strip)


@st.composite
def concepts(draw):
    name = draw(labels())
    pool = draw(st.lists(st.sampled_from(VARIABLE_NAMES), unique=True, max_size=6))
    variables = tuple(ConceptVariable(v, draw(side_texts())) for v in pool)

    def pool_expression():
        return expressions() if pool else expressions(max_terms=2)

    step_labels = draw(st.lists(labels(), unique=True, max_size=6))
    steps = []
    for label in step_labels:
        kinds = draw(st.lists(st.sampled_from(list(ActionKind)), unique=True, max_size=4))
        actions = {kind: draw(_restricted(pool)) for kind in kinds}
        repeat = draw(st.one_of(st.just(parse_expr("1")), _restricted(pool)))
        note = draw(st.one_of(st.none(), side_texts().filter(bool)))
        steps.append(UserStep(label, actions, repeat, note))
    return InteractionConcept(name, variables, tuple(steps))


@st.composite
def _restricted(draw, pool):
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(pool), unique=True, max_size=2)
                if pool
                else st.just([]),
                st.integers(-9, 9),
            ),
            max_size=3,
        )
    )
    return Expression(
        tuple((tuple(sorted((name, 1) for name in names)), coeff) for names, coeff in terms)
    )


# Characters a JSON writer must escape or may mangle: quotes, backslashes,
# control characters, line separators, non-ASCII and lone surrogates.
_HOSTILE_CHARS = ('"', "\\", "\x00", "\x1f", "\n", "\x7f", "\u2028", "é", "€", "\U0001f600",
                  "\ud800", "\udfff")


# A high surrogate followed by a low one is a pair, which JSON's escapes
# join into one character on reading; hostile_texts keeps surrogates lone.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def hostile_texts():
    return (
        st.lists(st.one_of(st.sampled_from(_HOSTILE_CHARS), st.characters()), max_size=8)
        .map("".join)
        .filter(lambda text: not _SURROGATE_PAIR.search(text))
    )


def log_ints(lo=0, hi=INT64_MAX):
    """Integers in [lo, hi], drawing each end often."""
    return st.one_of(st.just(lo), st.just(hi), st.integers(lo, hi))


@st.composite
def _visits(draw):
    """Page visits of one task that obey the interval rules."""
    visits = []
    previous_exit = draw(log_ints())
    for _ in range(draw(st.integers(0, 3))):
        enter = draw(log_ints(previous_exit))
        exit_ = draw(log_ints(enter))
        steps = []
        for _ in range(draw(st.integers(0, 3))):
            start = draw(log_ints(enter, exit_))
            end = draw(log_ints(start, exit_))
            steps.append(StepRecord(draw(hostile_texts()), start, end, draw(log_ints(1))))
        visits.append(PageVisit(draw(hostile_texts()), enter, exit_, tuple(steps)))
        previous_exit = exit_
    return tuple(visits)


def event_logs():
    """Valid logs: hostile strings, bindings in arbitrary insertion order,
    integers at both ends of their range and empty tuples at every level."""
    tasks = st.builds(
        Task,
        hostile_texts(),
        hostile_texts(),
        st.dictionaries(hostile_texts(), log_ints(), max_size=4),
        log_ints(),
        _visits(),
    )
    sessions = st.builds(Session, hostile_texts(), st.lists(tasks, max_size=3).map(tuple))
    return st.builds(EventLog, st.lists(sessions, max_size=3).map(tuple))


# --- seeded bulk generator ---------------------------------------------------


def random_count_text(rng: random.Random, pool: list[str]) -> str:
    """Nonnegative-coefficient expression text, admissible at any binding."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [str(rng.randint(0, 9))] if rng.random() < 0.8 else []
        for _ in range(rng.randint(0, 2)):
            if pool:
                factors.append(rng.choice(pool))
        terms.append("*".join(factors) if factors else "1")
    text = " + ".join(terms)
    if pool and rng.random() < 0.3:
        text = f"({text}) * {rng.choice(pool)}"
    return text


def random_repeat_text(rng: random.Random, pool: list[str]) -> str:
    roll = rng.random()
    if pool and roll < 0.35:
        return rng.choice(pool)
    if pool and roll < 0.5:
        # Admissible because bindings from random_binding are always >= 1.
        return f"{rng.choice(pool)} - 1"
    return str(rng.randint(0, 3))


def random_concept(rng: random.Random, max_steps: int = 10, max_vars: int = 6) -> InteractionConcept:
    pool = list("abcdef")[: rng.randint(1, max_vars)]
    variables = tuple(ConceptVariable(name) for name in pool)
    steps = []
    for index in range(rng.randint(0, max_steps)):
        actions = {}
        for kind in ActionKind:
            if rng.random() < 0.5:
                actions[kind] = parse_expr(random_count_text(rng, pool))
        steps.append(
            UserStep(
                f"step {index + 1}",
                actions,
                parse_expr(random_repeat_text(rng, pool)),
            )
        )
    return InteractionConcept("generated", variables, tuple(steps))


def random_binding(rng: random.Random, concept: InteractionConcept) -> dict[str, int]:
    return {variable.name: rng.randint(1, 6) for variable in concept.variables}
