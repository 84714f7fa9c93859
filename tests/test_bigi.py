import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ixcomplex.bigi import (
    ActionVector,
    Assessment,
    NormalizedComplexity,
    analyze,
    assess,
    assessment_to_dict,
    class_label,
    factored_text,
    instantiate,
    normalize,
    report_to_dict,
    simplify,
    step_function,
    sum_steps,
    vector_to_dict,
)
from ixcomplex.concept import (
    ActionKind,
    InteractionConcept,
    UserStep,
    parse_concept,
    serialize_concept,
)
from ixcomplex.bigi import _vector_sum
from ixcomplex.errors import (
    DomainError,
    NegativeCountError,
    OverflowLimitError,
    TermLimitError,
    UnboundVariableError,
    UnmappedActionError,
)
from ixcomplex.expr import (
    INT64_MAX,
    INT64_MIN,
    ZERO,
    Expression,
    evaluate,
    format_expr,
    parse_expr,
)
from ixcomplex.klm import (
    DEFAULT_MAPPING,
    KlmExpression,
    KlmOperator,
    klm_from_concept,
    klm_step,
    klm_time,
    mapping_from_dict,
)
from ixcomplex.logs import EventLog, Session, Task, cross_check
from ixcomplex.synth import count_actions

from helpers import (
    V1_BINDING,
    V1_PUBLISHED_IS,
    V2_BINDING,
    V2_PUBLISHED_IS,
    concepts,
    expressions,
    random_binding,
    random_concept,
)


class TestStepFunction:
    def test_repeated_selection_step(self, v1_concept):
        vector = step_function(v1_concept.steps[1])
        assert vector.per_kind == {
            ActionKind.THINK: parse_expr("a*r"),
            ActionKind.ENTER: parse_expr("a"),
            ActionKind.CLICK: parse_expr("a"),
        }

    def test_conditional_back_step(self, v1_concept):
        vector = step_function(v1_concept.steps[6])
        assert vector.per_kind == {ActionKind.CLICK: parse_expr("3*a - 3")}

    def test_zero_repeat_collapses(self):
        step = UserStep("s", {ActionKind.THINK: parse_expr("m")}, parse_expr("0"))
        assert step_function(step) == ActionVector()


class TestSumSteps:
    def test_wizard_definitional_sum(self, v1_concept):
        vector = sum_steps(v1_concept)
        assert vector.get(ActionKind.THINK) == parse_expr("m + a*(r + t + d + s) + a + 1")
        assert vector.get(ActionKind.ENTER) == parse_expr("4*a + 2")
        assert vector.get(ActionKind.CLICK) == parse_expr("7*a")

    def test_single_page_definitional_sum(self, v2_concept):
        vector = sum_steps(v2_concept)
        assert vector.get(ActionKind.THINK) == parse_expr("m + r + d + s + g + o + 1")
        assert vector.get(ActionKind.ENTER) == parse_expr("6")
        assert vector.get(ActionKind.CLICK) == parse_expr("4")

    def test_empty_concept(self):
        assert sum_steps(InteractionConcept("empty")) == ActionVector()

    def test_matches_brute_force_counts(self, v1_concept, v2_concept):
        for concept, binding in ((v1_concept, V1_BINDING), (v2_concept, V2_BINDING)):
            vector = sum_steps(concept)
            counted = count_actions(concept, binding)
            for kind in ActionKind:
                assert evaluate(vector.get(kind), binding) == counted.per_kind.get(kind, 0)


class TestNormalize:
    def test_published_wizard_vector(self):
        vector = ActionVector(
            (
                parse_expr("m + 2 + a*(r + t + d + s)"),  # Think
                parse_expr("4*a + 2"),  # Enter
                parse_expr("7*a + 1"),  # Click
                ZERO,
                ZERO,
            )
        )
        assert normalize(vector).is_function == parse_expr(V1_PUBLISHED_IS)

    def test_published_single_page_vector(self):
        vector = ActionVector(
            (
                parse_expr("m + r + d + s + g + o + 1"),  # Think
                parse_expr("7"),  # Enter
                parse_expr("4"),  # Click
                ZERO,
                ZERO,
            )
        )
        assert normalize(vector).is_function == parse_expr(V2_PUBLISHED_IS)

    def test_zero_vector(self):
        assert normalize(ActionVector()).is_function == ZERO


def kind_counts():
    return st.dictionaries(st.sampled_from(list(ActionKind)), expressions(), max_size=5)


def vector_of(counts):
    return ActionVector(tuple(counts.get(kind, ZERO) for kind in ActionKind))


def folded(*dicts):
    """Reference sum: a dict fold, zero results dropped, in ActionKind order."""
    merged = {}
    for counts in dicts:
        for kind, count in counts.items():
            merged[kind] = merged.get(kind, ZERO) + count
    return {kind: merged[kind] for kind in ActionKind if not merged.get(kind, ZERO).is_zero()}


def _edge(coeff):
    return Expression((((("a", 1),), coeff),))


def _wide_counts():
    """Counts in a and b whose coefficients reach the ends of the range."""
    coeffs = st.one_of(st.integers(-9, 9), st.sampled_from((INT64_MIN, INT64_MAX)))
    return st.dictionaries(st.sampled_from(("a", "b")), coeffs, max_size=2).map(
        lambda terms: Expression(tuple((((name, 1),), c) for name, c in terms.items()))
    )


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


class TestActionVector:
    @given(kind_counts(), kind_counts())
    def test_sum_matches_a_dict_fold(self, a, b):
        total = vector_of(a) + vector_of(b)
        expected = folded(a, b)
        assert list(total.per_kind.items()) == list(expected.items())
        for kind in ActionKind:
            assert total.get(kind) == expected.get(kind, ZERO)
        assert total == vector_of(expected)

    @given(concepts())
    @settings(max_examples=40)
    def test_step_sum_matches_a_dict_fold(self, concept):
        expected = folded(
            *({kind: step.repeat * count for kind, count in step.actions.per_kind.items()}
              for step in concept.steps)
        )
        assert list(sum_steps(concept).per_kind.items()) == list(expected.items())

    @given(st.lists(st.lists(_wide_counts(), min_size=5, max_size=5), max_size=5))
    @example([[ZERO, ZERO, _edge(INT64_MAX), ZERO, ZERO], [ZERO, ZERO, _edge(1), ZERO, ZERO],
              [_edge(INT64_MAX), ZERO, ZERO, ZERO, ZERO], [_edge(7), ZERO, ZERO, ZERO, ZERO]])
    def test_vector_sum_matches_the_pairwise_fold(self, rows):
        # Same value, or the same first error: steps in order, slots in
        # order within a step.
        vectors = [ActionVector(tuple(row)) for row in rows]
        assert _outcome(lambda: _vector_sum(vectors)) == _outcome(
            lambda: sum(vectors, ActionVector())
        )

    @pytest.mark.parametrize("width", [0, 1, 4, 6])
    def test_slot_count_is_fixed(self, width):
        with pytest.raises(DomainError, match=f"^an ActionVector holds 5 counts, got {width}$"):
            ActionVector((parse_expr("a"),) * width)

    def test_counts_given_as_a_list_are_held_as_a_tuple(self):
        vector = ActionVector([ZERO] * 5)
        assert vector.counts == (ZERO,) * 5
        assert type(vector.counts) is tuple
        assert vector == ActionVector()
        assert hash(vector) == hash(ActionVector())
        assert repr(vector) == repr(ActionVector())

    @pytest.mark.parametrize("counts, message", [
        ((3, ZERO, ZERO, ZERO, ZERO),
         "ActionVector count for ActionKind.THINK must be an Expression, got 3"),
        ([ZERO, ZERO, ZERO, ZERO, "x"],
         "ActionVector count for ActionKind.EXTERNAL must be an Expression, got 'x'"),
        (5, "ActionVector counts must be an iterable, got 5"),
    ])
    def test_a_count_that_is_no_expression_is_refused(self, counts, message):
        with pytest.raises(DomainError) as exc:
            ActionVector(counts)
        assert str(exc.value) == message

    def test_per_kind_keeps_kind_order_and_drops_zeros(self):
        a, two, b = parse_expr("a"), parse_expr("2"), parse_expr("b")
        vector = ActionVector((a, ZERO, two, ZERO, b))
        assert list(vector.per_kind.items()) == [
            (ActionKind.THINK, a),
            (ActionKind.CLICK, two),
            (ActionKind.EXTERNAL, b),
        ]
        assert vector.get(ActionKind.ENTER) == ZERO
        assert vector.total() == parse_expr("a + b + 2")

    @pytest.mark.parametrize("vector_type, members, view, noun", [
        (ActionVector, ActionKind, "per_kind", "an ActionVector"),
        (KlmExpression, KlmOperator, "per_operator", "a KlmExpression"),
    ])
    def test_both_count_vectors_behave_alike(self, vector_type, members, view, noun):
        members = list(members)
        width = len(members)
        zero = vector_type()
        assert zero.counts == (ZERO,) * width
        assert getattr(zero, view) == {}
        assert ActionVector() != KlmExpression()
        for bad in (0, width - 1, width + 1):
            with pytest.raises(DomainError, match=f"^{noun} holds {width} counts, got {bad}$"):
                vector_type((ZERO,) * bad)
        with pytest.raises(AttributeError):
            zero.counts = ()

        a, b, two = parse_expr("a"), parse_expr("b"), parse_expr("2")
        left = vector_type((a, ZERO, two) + (ZERO,) * (width - 3))
        right = vector_type((b,) + (ZERO,) * (width - 2) + (a,))
        total = left + right
        assert total.counts == (parse_expr("a + b"), ZERO, two) + (ZERO,) * (width - 4) + (a,)
        assert list(getattr(total, view).items()) == [
            (members[0], parse_expr("a + b")), (members[2], two), (members[-1], a),
        ]
        assert [total.get(member) for member in members] == list(total.counts)
        slot = vector_type.slot
        assert vector_type.gather(
            [(slot[members[-1]], a), (slot[members[0]], a), (slot[members[2]], two),
             (slot[members[0]], b)]
        ) == total

    def test_only_vectors_of_one_class_add(self):
        for left, right in [
            (ActionVector(), KlmExpression()), (KlmExpression(), ActionVector()),
            (ActionVector(), 1),
        ]:
            with pytest.raises(TypeError, match="unsupported operand"):
                left + right

    def test_repeat_zero_step_is_the_zero_vector(self):
        concept = parse_concept('concept "x"\nvar m\nstep "skip" repeat 0 { T: m; C: 2 }')
        vector = step_function(concept.steps[0])
        assert vector == ActionVector()
        assert vector.per_kind == {}
        assert vector.total() == ZERO


class TestSimplify:
    def test_quadratic_keeps_dominant_scale(self):
        simplified = simplify(NormalizedComplexity(parse_expr(V1_PUBLISHED_IS)))
        assert simplified.retained == parse_expr("a*(r + t + d + s + 11)")
        assert simplified.class_label == "quadratic"

    def test_linear_drops_constant(self):
        simplified = simplify(NormalizedComplexity(parse_expr(V2_PUBLISHED_IS)))
        assert simplified.retained == parse_expr("m + r + d + s + g + o")
        assert simplified.class_label == "linear"

    def test_constant_kept_whole(self):
        simplified = simplify(NormalizedComplexity(parse_expr("7")))
        assert simplified.retained == parse_expr("7")
        assert simplified.class_label == "constant"

    def test_zero(self):
        simplified = simplify(NormalizedComplexity(ZERO))
        assert simplified.retained == ZERO
        assert simplified.class_label == "constant"

    def test_labels(self):
        assert class_label(3) == "cubic"
        assert class_label(4) == "degree-4"

    def test_independent_lower_terms_dropped(self):
        # b rides on nothing dominant, 5*a does
        simplified = simplify(NormalizedComplexity(parse_expr("a*a + 5*a + b + 3")))
        assert simplified.retained == parse_expr("a*a + 5*a")


class TestInstantiate:
    def test_published_values(self):
        assert instantiate(NormalizedComplexity(parse_expr(V1_PUBLISHED_IS)), V1_BINDING) == 171
        assert instantiate(NormalizedComplexity(parse_expr(V2_PUBLISHED_IS)), V2_BINDING) == 46

    def test_definitional_value(self, v1_concept):
        assert instantiate(normalize(sum_steps(v1_concept)), V1_BINDING) == 174

    def test_missing_binding(self, v1_concept):
        with pytest.raises(UnboundVariableError):
            instantiate(normalize(sum_steps(v1_concept)), {"m": 6})

    def test_inadmissible_binding(self):
        concept = parse_concept('concept "x"\nvar a\nstep "back" repeat a - 1 { C: 3 }')
        with pytest.raises(NegativeCountError):
            instantiate(normalize(sum_steps(concept)), {"a": 0})


class TestAnalyze:
    def test_full_report(self, v1_concept):
        report = analyze(v1_concept, V1_BINDING)
        assert report.instantiated == (V1_BINDING, 174)
        assert report.normalized.is_function == sum_steps(v1_concept).total()
        assert len(report.per_step) == 9

    def test_symbolic_report(self, v2_concept):
        report = analyze(v2_concept)
        assert report.instantiated is None

    def test_empty_concept(self):
        report = analyze(InteractionConcept("empty"), {})
        assert report.summed == ActionVector()
        assert report.simplified.retained == ZERO
        assert report.simplified.class_label == "constant"
        assert report.instantiated == ({}, 0)

    def test_report_dict_keys(self, v2_concept):
        data = report_to_dict(analyze(v2_concept, V2_BINDING))
        assert set(data) == {"per_step", "summed", "normalized", "simplified", "instantiated"}
        assert set(data["simplified"]) == {"retained", "class_label"}
        assert data["instantiated"]["is"] == 45

    def test_report_is_the_assessment_of_the_summed_polynomial(self, v1_concept):
        report = analyze(v1_concept, V1_BINDING)
        view = assess(sum_steps(v1_concept).total(), V1_BINDING)
        assert (report.normalized, report.simplified, report.instantiated) == (
            view.normalized,
            view.simplified,
            view.instantiated,
        )
        data = report_to_dict(report)
        assert {key: data[key] for key in assessment_to_dict(view)} == assessment_to_dict(view)

    def test_assess_published_formulas(self):
        v1 = assess(parse_expr(V1_PUBLISHED_IS), V1_BINDING)
        v2 = assess(parse_expr(V2_PUBLISHED_IS), V2_BINDING)
        assert (v1.instantiated[1], v2.instantiated[1]) == (171, 46)
        assert (v1.simplified.class_label, v2.simplified.class_label) == ("quadratic", "linear")
        assert v1.simplified.retained == parse_expr("a*(r + t + d + s + 11)")

    def test_assess_without_binding(self):
        view = assess(parse_expr("m + 5"))
        assert view == Assessment(
            NormalizedComplexity(parse_expr("m + 5")),
            simplify(NormalizedComplexity(parse_expr("m + 5"))),
        )
        assert assessment_to_dict(view)["instantiated"] is None

    def test_argmax_stability_on_published_instances(self):
        v1 = simplify(NormalizedComplexity(parse_expr(V1_PUBLISHED_IS)))
        v2 = simplify(NormalizedComplexity(parse_expr(V2_PUBLISHED_IS)))
        v1_count = instantiate(NormalizedComplexity(parse_expr(V1_PUBLISHED_IS)), V1_BINDING)
        v2_count = instantiate(NormalizedComplexity(parse_expr(V2_PUBLISHED_IS)), V2_BINDING)
        assert v2_count < v1_count
        assert (v2.class_label, v1.class_label) == ("linear", "quadratic")


class TestRendering:
    def test_vector_dict(self, v2_concept):
        assert vector_to_dict(sum_steps(v2_concept)) == {
            "T": "d + g + m + o + r + s + 1",
            "E": "6",
            "C": "4",
        }

    def test_factored_display(self):
        assert factored_text(parse_expr("a*r + a*t + 11*a")) == "a*(r + t + 11)"
        assert factored_text(parse_expr("3*a - 3")) == "3*(a - 1)"
        assert factored_text(parse_expr("m + 5")) == "m + 5"
        assert factored_text(ZERO) == "0"

    def test_factored_display_round_trips(self):
        for text in ("a*r + a*t + 11*a", "3*a - 3", "a*a + a", "2*a*b + 4*a"):
            e = parse_expr(text)
            assert parse_expr(factored_text(e)) == e


class TestProperties:
    @given(concepts())
    @settings(max_examples=40)
    def test_linearity_of_summation(self, concept):
        total = ActionVector()
        for step in concept.steps:
            total = total + step_function(step)
        assert total == sum_steps(concept)

    @given(concepts())
    @settings(max_examples=40)
    def test_simplification_soundness(self, concept):
        from ixcomplex.expr import total_degree

        normalized = normalize(sum_steps(concept))
        simplified = simplify(normalized)
        assert total_degree(simplified.retained) == total_degree(normalized.is_function)
        full = dict(normalized.is_function.terms)
        for mono, coeff in simplified.retained.terms:
            assert full[mono] == coeff

    def test_oracle_equivalence_sample(self):
        rng = random.Random(20260809)
        for _ in range(30):
            concept = random_concept(rng)
            for _ in range(3):
                binding = random_binding(rng, concept)
                symbolic = instantiate(normalize(sum_steps(concept)), binding)
                assert symbolic == count_actions(concept, binding).total


# Every action kind mapped, so klm_from_concept and klm_step yield a value.
# (Which unmapped kind DEFAULT_MAPPING reports first follows the order a
# step lists its kinds in, which a serialized copy does not keep.)
_FULL_MAPPING = mapping_from_dict(
    {"Think": ["Glance"], "Enter": ["PointClick"], "Click": ["PointClick"],
     "Scroll": ["M", "C_click"], "External": ["R", "PointClick"]}
)


def _derivations(concept, binding, mapping):
    """Every caller of the shared vectors, each a function of one concept
    object: its name and a thunk giving its outcome (value or error)."""
    log = EventLog((Session("s", (Task("t", concept.name, binding, 0),)),))
    return {
        "analyze": lambda: _outcome(lambda: analyze(concept, binding)),
        "sum_steps": lambda: _outcome(lambda: sum_steps(concept)),
        "klm_from_concept": lambda: _outcome(lambda: klm_from_concept(concept, mapping)),
        "klm_step": lambda: tuple(_outcome(lambda: klm_step(step, mapping))
                                  for step in concept.steps),
        "cross_check": lambda: _outcome(lambda: cross_check(log, concept)),
    }


def _fresh(concept):
    return parse_concept(serialize_concept(concept))


class TestSharedDerivation:
    @given(concepts(), st.randoms(use_true_random=False), st.data())
    @settings(max_examples=60)
    def test_calls_in_any_order_agree_with_a_fresh_copy(self, concept, rng, data):
        binding = {v.name: data.draw(st.integers(0, 4)) for v in concept.variables}
        calls = list(_derivations(concept, binding, _FULL_MAPPING).items()) * 2
        rng.shuffle(calls)
        for name, outcome in calls:
            expected = _derivations(_fresh(concept), binding, _FULL_MAPPING)[name]()
            assert outcome() == expected, name

    @given(concepts())
    @settings(max_examples=30)
    def test_every_caller_reads_the_same_vectors(self, concept):
        summed = sum_steps(concept)
        report = analyze(concept)
        assert report.summed is summed is sum_steps(concept)
        for step, (_, vector) in zip(concept.steps, report.per_step):
            assert vector is step_function(step)

    @pytest.mark.parametrize("steps, error", [
        # One step's product leaves the range.
        ((UserStep("s", {ActionKind.THINK: parse_expr(str(INT64_MAX))}, parse_expr("2")),),
         OverflowLimitError),
        # Each step fits, their sum does not.
        ((UserStep("s", {ActionKind.THINK: parse_expr(str(INT64_MAX))}),
          UserStep("u", {ActionKind.THINK: parse_expr("1")})), OverflowLimitError),
        # A product of 101 by 100 terms forms more than MAX_TERMS monomials.
        ((UserStep("s", {ActionKind.THINK: Expression(tuple(
            (((f"a{i}", 1),), 1) for i in range(100)))},
            Expression(tuple((((f"b{i}", 1),), 1) for i in range(101)))),), TermLimitError),
    ])
    def test_an_error_is_raised_again_on_every_call(self, steps, error):
        concept = InteractionConcept("x", (), steps)
        calls = _derivations(concept, {}, DEFAULT_MAPPING)
        first = {name: outcome() for name, outcome in calls.items()}
        assert first["sum_steps"][0] is error
        for name in ("analyze", "klm_from_concept", "cross_check"):
            assert first[name] == first["sum_steps"], name
        for _ in range(2):
            assert {name: outcome() for name, outcome in calls.items()} == first

    def test_an_unmapped_kind_is_raised_before_any_sum(self):
        concept = InteractionConcept("x", (), (
            UserStep("s", {ActionKind.THINK: parse_expr(str(INT64_MAX))}, parse_expr("2")),
            UserStep("u", {ActionKind.SCROLL: parse_expr("1")}),
        ))
        for _ in range(2):
            with pytest.raises(OverflowLimitError):
                sum_steps(concept)
            with pytest.raises(UnmappedActionError, match="'Scroll' used by step 'u'"):
                klm_from_concept(concept)

    def test_a_replaced_step_is_derived_afresh(self):
        step = UserStep("s", {ActionKind.THINK: parse_expr("m")}, parse_expr("a"))
        assert step_function(step) == ActionVector((parse_expr("a*m"),) + (ZERO,) * 4)
        twice = step._replace(repeat=parse_expr("2*a"))
        assert step_function(twice) == ActionVector((parse_expr("2*a*m"),) + (ZERO,) * 4)
        assert step_function(step._replace()) is not step_function(step)

    def test_a_replaced_concept_is_summed_afresh(self, v1_concept):
        whole = sum_steps(v1_concept)
        first = v1_concept._replace(steps=v1_concept.steps[:1])
        assert sum_steps(first) == step_function(v1_concept.steps[0]) != whole
        assert sum_steps(v1_concept) is whole

    def test_the_kept_vectors_are_no_fields(self, v1_concept):
        before = repr(v1_concept)
        analyze(v1_concept)
        assert repr(v1_concept) == before
        assert list(v1_concept.steps[0]._fields) == [
            "label", "actions", "repeat", "note"
        ]
        assert v1_concept == _fresh(v1_concept)


# The sha256 of the repr of every engine output below, for 40 concepts of
# helpers.random_concept at each seed.  Taken before the engine stored its
# terms as sort keys and coefficients; a change to the engine's internals
# must leave it alone.  Every output is exact (klm_time adds its floats one
# at a time), so the digest is the same on every supported Python.
ENGINE_DIGEST_SEEDS = (1, 2, 3, 4, 5)
ENGINE_DIGEST = "fdfdd237c276d3d7629e7604925a804dd67f812a2f60c195c970cfa73a64127a"


def engine_outputs(seed):
    rng = random.Random(seed)
    for _ in range(40):
        concept = parse_concept(serialize_concept(random_concept(rng)))
        binding = random_binding(rng, concept)
        report = analyze(concept, binding)
        klm = klm_from_concept(concept, _FULL_MAPPING)
        yield concept
        yield report
        yield report_to_dict(report)
        yield klm
        yield klm_time(klm, binding=binding)
        yield count_actions(concept, binding)
        yield parse_expr(format_expr(report.normalized.is_function))


def engine_digest():
    digest = hashlib.sha256()
    for seed in ENGINE_DIGEST_SEEDS:
        for output in engine_outputs(seed):
            digest.update(repr(output).encode() + b"\n")
    return digest.hexdigest()


def test_engine_outputs_match_the_pinned_digest():
    assert engine_digest() == ENGINE_DIGEST
