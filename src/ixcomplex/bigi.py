"""Interaction-complexity derivation.

The pipeline turns a concept into numbers in five moves: per-step action
counts, the kind-wise sum over all steps, a single polynomial in abstract
interaction steps (IS), the simplified dominant part with a growth-class
label, and finally instantiation at a concrete variable binding.

Everything is computed from the step definitions.  A separately published
formula gets the same view through assess and is reported side by side,
so "as-defined" and "as-published" values never get silently merged.

A step holds its per-execution counts as an ActionVector already
(UserStep.actions); step_function scales that vector by the step's repeat.
Each step's scaled vector and each concept's summed vector (sum_steps) is
derived once per object, on first use, and kept in a private slot of it
(UserStep._vector, InteractionConcept._summed), outside its fields, so
analyze, sum_steps, klm.klm_from_concept, klm.klm_step and logs.cross_check
on one concept share them.  A kept vector cannot go stale: the step, its
actions vector and the concept are frozen, and a concept holds its steps as
a tuple; _replace, copy and pickle build a new object that derives its own.
A derivation that raises keeps nothing, so every call raises again.

SlotVector and ActionVector are defined in concept, next to ActionKind,
and imported from here as well.  The vectors and reports are value classes
(value.Value): slotted, frozen, equal by class and fields.
"""

from __future__ import annotations

import math
from typing import Iterable

from .concept import ActionVector, InteractionConcept, SlotVector, UserStep
from .expr import Binding, Expression, _canonical, evaluate, format_expr, total_degree
from .value import Value

_CLASS_NAMES = {0: "constant", 1: "linear", 2: "quadratic", 3: "cubic"}


def class_label(degree: int) -> str:
    return _CLASS_NAMES.get(degree, f"degree-{degree}")


class NormalizedComplexity(Value):
    """The IS function: every action kind replaced by one interaction step."""

    __slots__ = ("is_function",)
    is_function: Expression

    def __init__(self, is_function: Expression):
        self._store(is_function)


class SimplifiedComplexity(Value):
    __slots__ = ("retained", "class_label")
    retained: Expression
    class_label: str

    def __init__(self, retained: Expression, class_label: str):
        self._store(retained, class_label)


class Assessment(Value):
    """One IS polynomial seen three ways: whole, simplified, instantiated."""

    __slots__ = ("normalized", "simplified", "instantiated")
    normalized: NormalizedComplexity
    simplified: SimplifiedComplexity
    instantiated: tuple[dict[str, int], int] | None

    def __init__(
        self,
        normalized: NormalizedComplexity,
        simplified: SimplifiedComplexity,
        instantiated: tuple[dict[str, int], int] | None = None,
    ):
        self._store(normalized, simplified, instantiated)


class ComplexityReport(Assessment):
    """The assessment of a concept's summed IS polynomial, with the
    per-step vectors it was summed from (keyword-only fields)."""

    __slots__ = ("per_step", "summed")
    per_step: tuple[tuple[str, ActionVector], ...]
    summed: ActionVector

    def __init__(
        self,
        normalized: NormalizedComplexity,
        simplified: SimplifiedComplexity,
        instantiated: tuple[dict[str, int], int] | None = None,
        *,
        per_step: tuple[tuple[str, ActionVector], ...],
        summed: ActionVector,
    ):
        self._store(normalized, simplified, instantiated, per_step, summed)


def step_function(step: UserStep) -> ActionVector:
    """Per-kind count of one step: its actions vector scaled by repeat.
    Derived on the first call and kept on the step object (not a field); a
    call that raises keeps nothing."""
    vector = getattr(step, "_vector", None)
    if vector is None:
        repeat = step.repeat
        vector = ActionVector(
            tuple([repeat * count if count._keys else count for count in step.actions.counts])
        )
        object.__setattr__(step, "_vector", vector)
    return vector


def sum_steps(concept: InteractionConcept) -> ActionVector:
    """The steps' vectors added up.  Derived on the first call and kept on
    the concept object (not a field); a call that raises keeps nothing."""
    summed = getattr(concept, "_summed", None)
    if summed is None:
        summed = _vector_sum(map(step_function, concept.steps))
        object.__setattr__(concept, "_summed", summed)
    return summed


def _vector_sum(vectors: Iterable[ActionVector]) -> ActionVector:
    """Slot-by-slot sum of the vectors, each partial sum checked in the
    order the fold v1 + v2 + ... checks it."""
    return ActionVector.gather(pair for vector in vectors for pair in enumerate(vector.counts))


def normalize(vector: ActionVector) -> NormalizedComplexity:
    return NormalizedComplexity(vector.total())


def simplify(normalized: NormalizedComplexity) -> SimplifiedComplexity:
    """Keep the fastest-growing part of the IS function, coefficient included.

    The dominant monomials are those of maximal total degree; every monomial
    whose variables form a nonempty subset of some dominant monomial's
    variable set is retained with its coefficient, and everything else is
    dropped.  This keeps scale factors that ride on the dominant variables
    (11*a next to a*r) while shedding independent lower-order terms (m + 5).
    A constant function is kept whole.  Ties between dominant monomials need
    no breaking: all of them are retained.
    """
    function = normalized.is_function
    degree = total_degree(function)
    if degree == 0:
        return SimplifiedComplexity(function, class_label(0))
    # A key holds its term's degree (negated) and variable names.
    keys = function._keys
    dominant = [frozenset(names) for negated, names in keys if negated == -degree]
    kept = [
        index for index, (_, names) in enumerate(keys)
        if names and any(dom.issuperset(names) for dom in dominant)
    ]
    retained = _canonical(
        tuple([keys[index] for index in kept]), tuple([function._coeffs[index] for index in kept])
    )
    return SimplifiedComplexity(retained, class_label(degree))


def instantiate(normalized: NormalizedComplexity, binding: Binding) -> int:
    """Concrete IS count at a binding; exact, never negative."""
    return evaluate(normalized.is_function, binding)


def assess(is_function: Expression, binding: Binding | None = None) -> Assessment:
    """Normalized, simplified and (given a binding) instantiated view of any
    IS polynomial, whether derived from a concept or separately published."""
    normalized = NormalizedComplexity(is_function)
    instantiated = None
    if binding is not None:
        instantiated = (dict(binding), instantiate(normalized, binding))
    return Assessment(normalized, simplify(normalized), instantiated)


def analyze(
    concept: InteractionConcept, binding: Binding | None = None
) -> ComplexityReport:
    per_step = tuple((step.label, step_function(step)) for step in concept.steps)
    summed = sum_steps(concept)
    view = assess(summed.total(), binding)
    return ComplexityReport(
        view.normalized, view.simplified, view.instantiated, per_step=per_step, summed=summed
    )


# --- rendering helpers -----------------------------------------------------


def vector_to_dict(vector: ActionVector) -> dict[str, str]:
    return {
        kind.value: format_expr(expr)
        for kind, expr in zip(ActionVector.members, vector.counts)
        if expr._keys
    }


def assessment_to_dict(view: Assessment) -> dict:
    instantiated = None
    if view.instantiated is not None:
        binding, count = view.instantiated
        instantiated = {"binding": dict(sorted(binding.items())), "is": count}
    return {
        "normalized": format_expr(view.normalized.is_function),
        "simplified": {
            "retained": format_expr(view.simplified.retained),
            "class_label": view.simplified.class_label,
        },
        "instantiated": instantiated,
    }


def report_to_dict(report: ComplexityReport) -> dict:
    return {
        "per_step": [
            {"label": label, "actions": vector_to_dict(vector)}
            for label, vector in report.per_step
        ],
        "summed": vector_to_dict(report.summed),
        **assessment_to_dict(report),
    }


def factored_text(expression: Expression) -> str:
    """Display form with the greedy common factor pulled out.

    Purely cosmetic: correctness is judged on the expanded polynomial, this
    just renders a*d + a*r + 11*a as a*(d + r + 11) for reports.
    """
    terms = expression.terms
    if len(terms) < 2:
        return format_expr(expression)
    common: dict[str, int] = dict(terms[0][0])
    for mono, _ in terms[1:]:
        powers = dict(mono)
        common = {
            name: min(exp, powers[name])
            for name, exp in common.items()
            if name in powers
        }
    coeff_gcd = math.gcd(*(abs(coeff) for _, coeff in terms))
    if not common and coeff_gcd == 1:
        return format_expr(expression)
    inner = Expression(
        tuple((_mono_without(mono, common), coeff // coeff_gcd) for mono, coeff in terms)
    )
    prefix = ([] if coeff_gcd == 1 else [str(coeff_gcd)]) + [
        name for name, exp in sorted(common.items()) for _ in range(exp)
    ]
    return "*".join(prefix) + "*(" + format_expr(inner) + ")"


def _mono_without(mono, common: dict[str, int]):
    reduced = []
    for name, exp in mono:
        remaining = exp - common.get(name, 0)
        if remaining:
            reduced.append((name, remaining))
    return tuple(reduced)
