import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixcomplex.concept import ActionKind, InteractionConcept, parse_concept
from ixcomplex.errors import (
    DomainError,
    KlmFormulaError,
    NegativeCountError,
    UnknownOperatorError,
    UnmappedActionError,
)
from ixcomplex.expr import ZERO, parse_expr
from ixcomplex.klm import (
    DEFAULT_MAPPING,
    KlmExpression,
    KlmModel,
    KlmOperator,
    klm_from_concept,
    klm_parse,
    klm_speed,
    klm_step,
    klm_time,
    mapping_from_dict,
    model_from_dict,
)

from helpers import (
    KLM_V1_BINDING,
    KLM_V2_BINDING,
    V1_PUBLISHED_KLM,
    V2_PUBLISHED_KLM,
    concepts,
    expressions,
    random_concept,
)

# Every kind mapped; Scroll and External share operators with the others.
FULL_MAPPING = mapping_from_dict(
    {
        "Think": ["Glance"],
        "Enter": ["PointClick"],
        "Click": ["PointClick"],
        "Scroll": ["M", "C_click"],
        "External": ["R", "PointClick"],
    }
)


class TestModel:
    def test_default_composites(self):
        model = KlmModel()
        assert model.point_click == pytest.approx(1.73)
        assert model.glance == pytest.approx(0.4)

    def test_defaults(self):
        model = KlmModel()
        assert (model.keystroke, model.point, model.click) == (0.23, 1.5, 0.23)
        assert (model.saccade, model.perceive, model.retrieve, model.mental_step) == (
            0.23,
            0.1,
            1.2,
            0.07,
        )

    def test_composites_follow_primitives(self):
        model = KlmModel()._replace(point=2.0)
        assert model.point_click == pytest.approx(2.23)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            KlmModel(point=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            KlmModel(retrieve=value)

    def test_unit_time_of_every_operator(self):
        model = KlmModel(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        times = {operator.value: model.unit_time(operator) for operator in KlmOperator}
        assert times == {
            "K": 1.0, "M": 2.0, "C_click": 3.0, "S_saccade": 4.0, "P": 5.0,
            "R": 6.0, "E_mental": 7.0, "PointClick": 5.0, "Glance": 16.0,
        }

    def test_model_from_dict(self):
        model = model_from_dict({"M": 1.6, "C_click": 0.2})
        assert model.point == 1.6
        assert model.point_click == pytest.approx(1.8)

    def test_composite_key_rejected(self):
        with pytest.raises(DomainError):
            model_from_dict({"PointClick": 2.0})

    def test_model_from_dict_sets_every_primitive(self):
        keys = ("K", "M", "C_click", "S_saccade", "P", "R", "E_mental")
        model = model_from_dict({key: float(i + 1) for i, key in enumerate(keys)})
        assert model == KlmModel(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)

    @pytest.mark.parametrize(
        "data", [[1, 2], "K", {"K": "abc"}, {"K": True}, {"K": None}, {"K": 10**400}]
    )
    def test_malformed_model_rejected(self, data):
        with pytest.raises(DomainError):
            model_from_dict(data)


class TestMappingFromConcept:
    def test_first_step_matches_operator_form(self, v1_concept):
        expr = klm_step(v1_concept.steps[0])
        assert expr.per_operator == {
            KlmOperator.GLANCE: parse_expr("m"),
            KlmOperator.POINT_CLICK: parse_expr("2"),
        }

    def test_default_mapping_reproduces_operator_steps(self, v1_concept):
        published = {
            0: "m*Q + T + T",
            1: "a*(r*Q + T + T)",
            2: "a*(t*Q + T + T)",
            3: "a*(d*Q + T + T)",
            4: "a*(s*Q + T + T)",
            5: "a*Q",
            7: "T + T",
            8: "Q + T",
        }
        for index, formula in published.items():
            assert klm_step(v1_concept.steps[index]) == klm_parse(formula), index

    def test_back_step_differs_from_operator_form(self, v1_concept):
        # 3 clicks map to 3 point-clicks, not to one glance plus one click,
        # so the explicitly entered formula stays available as an override.
        derived = klm_step(v1_concept.steps[6])
        entered = klm_parse("(a - 1)*(Q + T)")
        assert derived != entered
        assert derived.per_operator == {KlmOperator.POINT_CLICK: parse_expr("3*a - 3")}

    def test_unmapped_action_error(self):
        concept = parse_concept('concept "x"\nstep "scroll page" { S: 2 }')
        with pytest.raises(UnmappedActionError) as exc:
            klm_from_concept(concept, DEFAULT_MAPPING)
        assert exc.value.kind_word == "Scroll"
        assert exc.value.step_label == "scroll page"

    def test_empty_concept(self):
        assert klm_from_concept(InteractionConcept("empty")) == KlmExpression()

    def test_first_unmapped_step_is_reported(self):
        concept = parse_concept(
            'concept "x"\nstep "read" { T: 1 }\n'
            'step "skim" repeat 0 { X: 1; S: 2 }\nstep "scroll" { S: 1 }'
        )
        # A step's kinds are checked in ActionKind order, S before X,
        # whatever order the file gives them in.
        with pytest.raises(UnmappedActionError) as exc:
            klm_from_concept(concept, DEFAULT_MAPPING)
        assert (exc.value.kind_word, exc.value.step_label) == ("Scroll", "skim")

    def test_concept_is_the_sum_of_its_steps(self):
        rng = random.Random(6)
        for _ in range(300):
            concept = random_concept(rng)
            total = {}
            for step in concept.steps:
                for operator, count in klm_step(step, FULL_MAPPING).per_operator.items():
                    total[operator] = total.get(operator, ZERO) + count
            expected = KlmExpression(tuple(total.get(op, ZERO) for op in KlmOperator))
            assert klm_from_concept(concept, FULL_MAPPING) == expected

    def test_mapping_from_dict(self):
        mapping = mapping_from_dict(
            {"Think": ["Glance"], "Enter": ["PointClick"], "Scroll": ["M", "C_click"]}
        )
        assert dict(mapping) == {
            ActionKind.THINK: (KlmOperator.GLANCE,),
            ActionKind.ENTER: (KlmOperator.POINT_CLICK,),
            ActionKind.SCROLL: (KlmOperator.POINT, KlmOperator.CLICK),
        }

    @pytest.mark.parametrize("mapping", [DEFAULT_MAPPING, mapping_from_dict({"Think": ["M"]})])
    def test_mappings_are_read_only(self, mapping):
        with pytest.raises(TypeError):
            mapping[ActionKind.SCROLL] = (KlmOperator.POINT,)

    @pytest.mark.parametrize(
        "data", [["Glance"], {"Think": "Glance"}, {"Think": [["Glance"]]}, {"Think": [1]}]
    )
    def test_malformed_mapping_rejected(self, data):
        with pytest.raises(DomainError):
            mapping_from_dict(data)

    def test_unmapped_action_in_never_taken_step(self):
        concept = parse_concept('concept "x"\nstep "scroll page" repeat 0 { S: 2 }')
        with pytest.raises(UnmappedActionError):
            klm_step(concept.steps[0], DEFAULT_MAPPING)

    def test_mapping_unknown_names(self):
        with pytest.raises(DomainError):
            mapping_from_dict({"Swipe": ["Glance"]})
        with pytest.raises(UnknownOperatorError):
            mapping_from_dict({"Think": ["Blink"]})


def operator_counts():
    return st.dictionaries(st.sampled_from(list(KlmOperator)), expressions(), max_size=9)


def klm_of(counts):
    return KlmExpression(tuple(counts.get(operator, ZERO) for operator in KlmOperator))


def folded(*dicts):
    """Reference sum: a dict fold, zero results dropped, in KlmOperator order."""
    merged = {}
    for counts in dicts:
        for operator, count in counts.items():
            merged[operator] = merged.get(operator, ZERO) + count
    return {op: merged[op] for op in KlmOperator if not merged.get(op, ZERO).is_zero()}


class TestKlmExpression:
    @given(operator_counts(), operator_counts())
    def test_sum_matches_a_dict_fold(self, a, b):
        total = klm_of(a) + klm_of(b)
        expected = folded(a, b)
        assert list(total.per_operator.items()) == list(expected.items())
        for operator in KlmOperator:
            assert total.get(operator) == expected.get(operator, ZERO)
        assert total == klm_of(expected)

    @pytest.mark.parametrize("width", [0, 1, 8, 10])
    def test_slot_count_is_fixed(self, width):
        with pytest.raises(DomainError, match=f"^a KlmExpression holds 9 counts, got {width}$"):
            KlmExpression((parse_expr("a"),) * width)

    def test_a_count_that_is_no_expression_is_refused(self):
        with pytest.raises(DomainError) as exc:
            KlmExpression(("a",) + (ZERO,) * 8)
        assert str(exc.value) == (
            "KlmExpression count for KlmOperator.KEYSTROKE must be an Expression, got 'a'"
        )

    def test_operator_listed_twice_counts_twice(self):
        concept = parse_concept('concept "x"\nvar m\nstep "s" repeat m { T: 2; C: 1 }')
        mapping = mapping_from_dict({"Think": ["M", "M"], "Click": ["M", "C_click"]})
        assert klm_from_concept(concept, mapping).per_operator == {
            KlmOperator.POINT: parse_expr("5*m"),
            KlmOperator.CLICK: parse_expr("m"),
        }

    def test_per_operator_keeps_operator_order_and_drops_zeros(self):
        m, nine = parse_expr("m"), parse_expr("9")
        expression = klm_parse("9*T + m*Q + 0*K")
        assert list(expression.per_operator.items()) == [
            (KlmOperator.POINT_CLICK, nine),
            (KlmOperator.GLANCE, m),
        ]
        assert expression.get(KlmOperator.KEYSTROKE) == ZERO

    def test_repeat_zero_step_is_the_zero_expression(self):
        concept = parse_concept('concept "x"\nvar m\nstep "skip" repeat 0 { T: m; C: 2 }')
        expression = klm_step(concept.steps[0])
        assert expression == KlmExpression()
        assert expression.per_operator == {}
        assert klm_time(expression) == 0.0


class TestFormulaParse:
    def test_wizard_published_formula(self):
        expr = klm_parse(V1_PUBLISHED_KLM)
        assert expr.per_operator == {
            KlmOperator.GLANCE: parse_expr("m + a*(r + t + d + s + 2)"),
            KlmOperator.POINT_CLICK: parse_expr("8*a + 4"),
        }

    def test_single_page_published_formula(self):
        expr = klm_parse(V2_PUBLISHED_KLM)
        assert expr.per_operator == {
            KlmOperator.GLANCE: parse_expr("m + r + t + d + s + o + 2"),
            KlmOperator.POINT_CLICK: parse_expr("9"),
        }

    def test_zero_formula(self):
        assert klm_parse("0*Q") == KlmExpression()

    def test_long_operator_names(self):
        expr = klm_parse("2*PointClick + m*Glance + K")
        assert expr.get(KlmOperator.KEYSTROKE) == parse_expr("1")

    def test_unknown_operator(self):
        with pytest.raises(UnknownOperatorError):
            klm_parse("3*Zoom")

    def test_term_without_operator(self):
        with pytest.raises(KlmFormulaError):
            klm_parse("5 + 2*Q")

    def test_nonlinear_operator(self):
        with pytest.raises(KlmFormulaError):
            klm_parse("Q*Q")
        with pytest.raises(KlmFormulaError):
            klm_parse("Q*T")


class TestTime:
    def test_wizard_published_time(self):
        seconds = klm_time(klm_parse(V1_PUBLISHED_KLM), KlmModel(), KLM_V1_BINDING)
        assert seconds == pytest.approx(126.52, abs=0.005)

    def test_single_page_published_time(self):
        seconds = klm_time(klm_parse(V2_PUBLISHED_KLM), KlmModel(), KLM_V2_BINDING)
        assert seconds == pytest.approx(29.57, abs=0.005)

    def test_empty_expression(self):
        assert klm_time(KlmExpression()) == 0.0

    def test_speed(self):
        assert round(klm_speed(171, 126.52), 2) == 1.35
        assert round(klm_speed(46, 29.57), 2) == 1.56
        assert klm_speed(0, 10.0) == 0.0

    def test_time_overflowing_to_infinity(self):
        model = KlmModel(point=1e308)
        with pytest.raises(DomainError, match="execution time must be finite, got inf"):
            klm_time(klm_parse("(m + 2)*M"), model, {"m": 100})

    def test_speed_overflowing_to_infinity(self):
        with pytest.raises(DomainError, match="interaction speed must be finite, got inf"):
            klm_speed(171, 5e-324)

    def test_speed_needs_positive_time(self):
        with pytest.raises(DomainError):
            klm_speed(10, 0.0)
        with pytest.raises(DomainError):
            klm_speed(10, -1.0)

    def test_attempt_series_reproduces_reference_speeds(self):
        # published wizard formula across 1..5 attempts at the reference
        # binding, against the known IS counts per attempt count
        is_counts = {1: 43, 2: 75, 3: 107, 4: 139, 5: 171}
        expected = {
            1: (32.76, 1.31),
            2: (56.20, 1.33),
            3: (79.64, 1.34),
            4: (103.08, 1.35),
            5: (126.52, 1.35),
        }
        for attempts, (seconds_ref, speed_ref) in expected.items():
            binding = dict(KLM_V1_BINDING, a=attempts)
            seconds = klm_time(klm_parse(V1_PUBLISHED_KLM), KlmModel(), binding)
            assert seconds == pytest.approx(seconds_ref, abs=0.005)
            assert round(klm_speed(is_counts[attempts], seconds), 2) == speed_ref


class TestProperties:
    def test_monotonic_in_unit_times(self):
        expr = klm_parse(V1_PUBLISHED_KLM)
        base = klm_time(expr, KlmModel(), KLM_V1_BINDING)
        bumped_glance = KlmModel()._replace(perceive=0.2)
        bumped_point = KlmModel()._replace(point=1.6)
        assert klm_time(expr, bumped_glance, KLM_V1_BINDING) > base
        assert klm_time(expr, bumped_point, KLM_V1_BINDING) > base

    @given(concepts(), st.integers(0, 6))
    @settings(max_examples=40)
    def test_time_is_linear_over_steps(self, concept, value):
        mapping = {
            ActionKind.THINK: (KlmOperator.GLANCE,),
            ActionKind.ENTER: (KlmOperator.POINT_CLICK,),
            ActionKind.CLICK: (KlmOperator.POINT_CLICK,),
            ActionKind.SCROLL: (KlmOperator.SACCADE,),
            ActionKind.EXTERNAL: (KlmOperator.RETRIEVE,),
        }
        binding = {name: value for name in ("a", "b", "c", "m", "r", "t", "d", "s", "g", "o")}
        model = KlmModel()
        try:
            whole = klm_time(klm_from_concept(concept, mapping), model, binding)
            by_step = sum(
                klm_time(klm_step(step, mapping), model, binding)
                for step in concept.steps
            )
        except NegativeCountError:
            # inadmissible binding for this random concept; not this test's concern
            return
        assert whole == pytest.approx(by_step, abs=1e-9)
