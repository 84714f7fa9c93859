"""The contract of the frozen value classes (ixcomplex.value.Value).

Each of them was a frozen dataclass before; the repr literals below are the
text the dataclass versions printed for the same objects, so repr, and
every error message that embeds one, reads as it did.  The one exception is
a step's actions, a read-only mapping then and an ActionVector now, so the
literals holding a UserStep show the vector.
"""

import copy
import math
import pickle

import pytest

from ixcomplex.bigi import (
    ActionVector,
    Assessment,
    ComplexityReport,
    NormalizedComplexity,
    SimplifiedComplexity,
    SlotVector,
    analyze,
    assess,
)
from ixcomplex.concept import (
    ActionKind,
    ConceptVariable,
    Diagnostic,
    InteractionConcept,
    UserStep,
    parse_concept,
    serialize_concept,
)
from ixcomplex.errors import DomainError
from ixcomplex.expr import ZERO, Expression, parse_expr
from ixcomplex.klm import KlmExpression, KlmModel
from ixcomplex.speed import SpeedModel, TimeEstimate
from ixcomplex.synth import ActionCounts, SynthConfig
from ixcomplex.value import Value

A = "Expression(terms=(((('a', 1),), 1),))"
TWO_A = "Expression(terms=(((('a', 1),), 2),))"
EMPTY = "Expression(terms=())"
STEP = (
    f"UserStep(label='s', actions=ActionVector(counts=({EMPTY}, {EMPTY}, {A}, {EMPTY}, {EMPTY})), "
    "repeat=Expression(terms=(((), 2),)), note='n')"
)
CONCEPT = (
    "InteractionConcept(name='x', variables=(ConceptVariable(name='a', description='count'),), "
    f"steps=({STEP},))"
)
SUMMED = f"ActionVector(counts=({EMPTY}, {EMPTY}, {TWO_A}, {EMPTY}, {EMPTY}))"


def step():
    return UserStep("s", {ActionKind.CLICK: parse_expr("a")}, parse_expr("2"), " n ")


def concept():
    return InteractionConcept("x", [ConceptVariable("a", " count")], [step()])


# (build, the dataclass repr, hashable): build makes a fresh object each call.
CASES = {
    "Expression": (
        lambda: parse_expr("2*a + 1"), "Expression(terms=(((('a', 1),), 2), ((), 1)))", True,
    ),
    "ConceptVariable": (
        lambda: ConceptVariable("m"), "ConceptVariable(name='m', description='')", True,
    ),
    "UserStep": (step, STEP, True),
    "UserStep-empty": (
        lambda: UserStep("t"),
        f"UserStep(label='t', actions=ActionVector(counts=({', '.join([EMPTY] * 5)})), "
        "repeat=Expression(terms=(((), 1),)), note=None)",
        True,
    ),
    "InteractionConcept": (concept, CONCEPT, True),
    "Diagnostic": (
        lambda: Diagnostic("error", "bad", "s"),
        "Diagnostic(severity='error', message='bad', step='s')",
        True,
    ),
    "ActionVector": (
        lambda: ActionVector(), f"ActionVector(counts=({', '.join([EMPTY] * 5)}))", True,
    ),
    "KlmExpression": (
        lambda: KlmExpression(), f"KlmExpression(counts=({', '.join([EMPTY] * 9)}))", True,
    ),
    "NormalizedComplexity": (
        lambda: NormalizedComplexity(parse_expr("a")),
        f"NormalizedComplexity(is_function={A})",
        True,
    ),
    "SimplifiedComplexity": (
        lambda: SimplifiedComplexity(parse_expr("a"), "linear"),
        f"SimplifiedComplexity(retained={A}, class_label='linear')",
        True,
    ),
    "Assessment": (
        lambda: assess(parse_expr("2*a + 1"), {"a": 1}),
        "Assessment(normalized=NormalizedComplexity(is_function="
        "Expression(terms=(((('a', 1),), 2), ((), 1)))), "
        f"simplified=SimplifiedComplexity(retained={TWO_A}, class_label='linear'), "
        "instantiated=({'a': 1}, 3))",
        False,
    ),
    "Assessment-unbound": (
        lambda: assess(parse_expr("a")),
        f"Assessment(normalized=NormalizedComplexity(is_function={A}), "
        f"simplified=SimplifiedComplexity(retained={A}, class_label='linear'), instantiated=None)",
        True,
    ),
    "ComplexityReport": (
        lambda: analyze(concept(), {"a": 2}),
        f"ComplexityReport(normalized=NormalizedComplexity(is_function={TWO_A}), "
        f"simplified=SimplifiedComplexity(retained={TWO_A}, class_label='linear'), "
        f"instantiated=({{'a': 2}}, 4), per_step=(('s', {SUMMED}),), summed={SUMMED})",
        False,
    ),
    "ComplexityReport-unbound": (
        lambda: analyze(concept()),
        f"ComplexityReport(normalized=NormalizedComplexity(is_function={TWO_A}), "
        f"simplified=SimplifiedComplexity(retained={TWO_A}, class_label='linear'), "
        f"instantiated=None, per_step=(('s', {SUMMED}),), summed={SUMMED})",
        True,
    ),
    "KlmModel": (
        lambda: KlmModel(),
        "KlmModel(keystroke=0.23, point=1.5, click=0.23, saccade=0.23, perceive=0.1, "
        "retrieve=1.2, mental_step=0.07)",
        True,
    ),
    "SpeedModel": (
        lambda: SpeedModel("v", 1.5, source="src"),
        "SpeedModel(name='v', mean=1.5, min=None, max=None, source='src')",
        True,
    ),
    "TimeEstimate": (
        lambda: TimeEstimate(1.0, None, 2.5),
        "TimeEstimate(expected=1.0, fastest=None, slowest=2.5)",
        True,
    ),
    "ActionCounts": (
        lambda: ActionCounts({ActionKind.THINK: 2}, 2),
        "ActionCounts(per_kind={<ActionKind.THINK: 'T'>: 2}, total=2)",
        False,
    ),
    "SynthConfig": (
        lambda: SynthConfig(concept(), {"a": 1}, 3, 1.05),
        f"SynthConfig(concept={CONCEPT}, binding={{'a': 1}}, sessions=3, speed_mean=1.05, "
        "speed_sd=0.0, seed=0)",
        False,
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


def test_every_value_class_is_covered():
    covered = {type(build()) for build, _, _ in CASES.values()}
    assert covered == set(_subclasses(Value)) - {SlotVector}
    assert len(covered) == 16


def test_copy_and_pickle_go_through_the_base_alone():
    assert [cls for cls in _subclasses(Value) if "__reduce__" in vars(cls)] == []


def test_repr_is_the_dataclass_text(case):
    build, text, _ = case
    assert repr(build()) == text


def test_equal_by_fields(case):
    build, _, _ = case
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second


def test_hash_is_over_the_fields(case):
    build, _, hashable = case
    value = build()
    fields = tuple(getattr(value, name) for name in value._fields)
    if hashable:
        assert hash(value) == hash(build()) == hash(fields)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_equal_steps_and_concepts_hash_equal(v1_concept, v2_concept):
    assert hash(step()) == hash(step()) == hash(step()._replace())
    for concept in (v1_concept, v2_concept):
        reread = parse_concept(serialize_concept(concept))
        assert reread == concept and reread is not concept
        assert hash(reread) == hash(concept)
        for copied, original in zip(reread.steps, concept.steps, strict=True):
            assert hash(copied) == hash(original)


def test_assignment_and_deletion_raise(case):
    build, text, _ = case
    value = build()
    for name in (*value._fields, "_vector", "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(case, duplicate):
    build, text, _ = case
    value = build()
    copied = duplicate(value)
    assert type(copied) is type(value)
    assert copied == value and repr(copied) == text


def test_replace_with_no_change_is_an_equal_copy(case):
    build, text, _ = case
    value = build()
    same = value._replace()
    assert same == value and same is not value and repr(same) == text
    with pytest.raises(TypeError):
        value._replace(no_such_field=1)


@pytest.mark.parametrize("build, changes, direct", [
    (KlmModel, {"point": -1}, lambda: KlmModel(point=-1)),
    (KlmModel, {"click": math.inf}, lambda: KlmModel(click=math.inf)),
    (lambda: SpeedModel("v", 1.0), {"min": 2.0}, lambda: SpeedModel("v", 1.0, min=2.0)),
    (lambda: TimeEstimate(1.0, None, None), {"fastest": math.nan},
     lambda: TimeEstimate(1.0, math.nan, None)),
    (lambda: ActionCounts({ActionKind.THINK: 2}, 2), {"total": 3},
     lambda: ActionCounts({ActionKind.THINK: 2}, 3)),
    (lambda: SynthConfig(concept(), {}, 1, 1.0), {"sessions": 0},
     lambda: SynthConfig(concept(), {}, 0, 1.0)),
    (step, {"note": 5}, lambda: UserStep("s", {}, parse_expr("1"), 5)),
    (concept, {"steps": [ConceptVariable("m")]},
     lambda: InteractionConcept("x", (), (ConceptVariable("m"),))),
    (lambda: ConceptVariable("m"), {"description": None}, lambda: ConceptVariable("m", None)),
    (lambda: ZERO, {"terms": (((), 2.5),)}, lambda: Expression((((), 2.5),))),
    (ActionVector, {"counts": (ZERO,)}, lambda: ActionVector((ZERO,))),
], ids=["KlmModel", "KlmModel-inf", "SpeedModel", "TimeEstimate", "ActionCounts",
        "SynthConfig", "UserStep", "InteractionConcept", "ConceptVariable", "Expression",
        "ActionVector"])
def test_replace_runs_the_constructor_checks(build, changes, direct):
    with pytest.raises(DomainError) as expected:
        direct()
    with pytest.raises(DomainError) as replaced:
        build()._replace(**changes)
    assert str(replaced.value) == str(expected.value)


def test_replace_normalises_as_the_constructor_does():
    a = parse_expr("a")
    step = UserStep("s")._replace(actions={ActionKind.SCROLL: a, ActionKind.THINK: a})
    assert list(step.actions.per_kind) == [ActionKind.THINK, ActionKind.SCROLL]
    assert ConceptVariable("m")._replace(description="  kept  ").description == "kept"
    assert ZERO._replace(terms=(((("b", 1),), 1), ((("a", 1),), 1))) == parse_expr("a + b")


def test_error_messages_embed_the_dataclass_repr():
    with pytest.raises(DomainError) as exc:
        InteractionConcept("x", (), (ConceptVariable("m"),))
    assert str(exc.value) == (
        "concept step must be a UserStep, got ConceptVariable(name='m', description='')"
    )
    with pytest.raises(DomainError) as exc:
        UserStep("s", {ActionKind.THINK: ActionVector()})
    assert str(exc.value) == (
        f"step actions value for Think must be an Expression, got "
        f"ActionVector(counts=({', '.join([EMPTY] * 5)}))"
    )


def test_equality_needs_the_same_class():
    assert ActionVector() != KlmExpression() and not ActionVector() == KlmExpression()
    assert ZERO != () and () != ZERO and ZERO.terms == ()
    assert ZERO.__eq__(()) is NotImplemented
    assert ConceptVariable("m") != ("m", "")
    unbound = assess(parse_expr("a"))
    report = ComplexityReport(
        unbound.normalized, unbound.simplified, per_step=(), summed=ActionVector()
    )
    rebuilt = Assessment(report.normalized, report.simplified, report.instantiated)
    assert rebuilt == unbound and rebuilt != report and report != rebuilt


def test_fields_in_order_without_private_slots():
    assert Expression._fields == ("terms",)
    assert UserStep._fields == ("label", "actions", "repeat", "note")
    assert InteractionConcept._fields == ("name", "variables", "steps")
    assert ActionVector._fields == KlmExpression._fields == ("counts",)
    assert ComplexityReport._fields == (
        "normalized", "simplified", "instantiated", "per_step", "summed"
    )


def test_signatures_and_defaults():
    first, second = UserStep("s"), UserStep("t")
    assert first.actions.per_kind == {} and first.actions == second.actions == ActionVector()
    assert (first.repeat, first.note) == (parse_expr("1"), None)
    with pytest.raises(DomainError, match="step actions must be a mapping, got None"):
        UserStep("s", None)
    unbound = assess(parse_expr("a"))
    with pytest.raises(TypeError):
        ComplexityReport(unbound.normalized, unbound.simplified, None, (), ActionVector())
    config = SynthConfig(concept(), {}, 1, 1.0)
    assert (config.speed_sd, config.seed) == (0.0, 0)
    assert SpeedModel(name="v", mean=1.0) == SpeedModel("v", 1.0, None, None, "")
