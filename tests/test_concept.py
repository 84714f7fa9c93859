import copy
import itertools
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ixcomplex.concept import (
    ActionKind,
    ActionVector,
    ConceptVariable,
    Diagnostic,
    InteractionConcept,
    UserStep,
    parse_concept,
    serialize_concept,
    validate,
)
from ixcomplex.bigi import analyze
from ixcomplex.errors import ConceptSyntaxError, DomainError, IxComplexError
from ixcomplex.expr import MAX_NESTING, ONE, ZERO, Expression, format_expr, parse_expr
from ixcomplex.klm import DEFAULT_MAPPING, klm_from_concept
from ixcomplex.synth import count_actions

from helpers import (
    LINE_BOUNDARIES,
    V1_BINDING,
    V2_BINDING,
    concept_texts,
    concepts,
    reference_parse_concept,
    reference_split_comment,
    unicode_texts,
)


def unchecked_text(concept):
    """The text serialize_concept writes for a concept, rendered without its
    checks, as the reference for what the reader can read back."""
    lines = [f'concept "{concept.name}"']
    for variable in concept.variables:
        comment = f"  # {variable.description}" if variable.description else ""
        lines.append(f"var {variable.name}{comment}")
    for step in concept.steps:
        repeat = "" if step.repeat == ONE else f" repeat {format_expr(step.repeat)}"
        actions = "; ".join(
            f"{kind.value}: {format_expr(e)}" for kind, e in step.actions.per_kind.items()
        )
        body = f"{{ {actions} }}" if actions else "{ }"
        note = f"  # {step.note}" if step.note else ""
        lines.append(f'step "{step.label}"{repeat} {body}{note}')
    return "\n".join(lines) + "\n"


def reads_back(concept):
    try:
        return parse_concept(unchecked_text(concept)) == concept
    except ConceptSyntaxError:
        return False


def sample_concept(field=None, text=None):
    """A valid concept of one variable and one step, with one of its texts
    (name, label, description or note) replaced."""
    texts = {"name": "x", "label": "s", "description": "d", "note": "n"}
    if field:
        texts[field] = text
    step = UserStep(texts["label"], {ActionKind.THINK: parse_expr("m")}, ONE, texts["note"])
    return InteractionConcept(texts["name"], (ConceptVariable("m", texts["description"]),), (step,))


STEP_M = UserStep("s", {ActionKind.THINK: parse_expr("m")})
# One concept per validate error, with the message serialize_concept raises.
VALIDATE_ERRORS = [
    (InteractionConcept(""), "concept name is empty"),
    (InteractionConcept("x", (ConceptVariable("M"),)), "invalid variable name 'M'"),
    (InteractionConcept("x", (ConceptVariable("m"), ConceptVariable("m"))),
     "duplicate variable 'm'"),
    (InteractionConcept("x", (), (UserStep(""),)), "empty step label"),
    (InteractionConcept("x", (ConceptVariable("m"),), (STEP_M, STEP_M)),
     "duplicate step label 's'"),
    (InteractionConcept("x", (), (STEP_M,)), "undeclared variable 'm'"),
]
# One constructor call per ill-typed field, with the message it raises.
ILL_TYPED_FIELDS = [
    (lambda: UserStep(5), "step label must be a string, got 5"),
    (lambda: UserStep("x", note=5), "step note must be a string or None, got 5"),
    (lambda: UserStep("x", actions=[1]), "step actions must be a mapping, got [1]"),
    (lambda: UserStep("x", actions={"T": parse_expr("1")}),
     "step actions key must be an ActionKind, got 'T'"),
    (lambda: UserStep("x", actions={ActionKind.THINK: 3}),
     "step actions value for Think must be an Expression, got 3"),
    (lambda: UserStep("x", repeat=2), "step repeat must be an Expression, got 2"),
    (lambda: InteractionConcept("x", variables="m"),
     "concept variables must be a sequence, got 'm'"),
    (lambda: InteractionConcept("x", variables=("m",)),
     "concept variable must be a ConceptVariable, got 'm'"),
    (lambda: InteractionConcept("x", steps=5), "concept steps must be a sequence, got 5"),
    (lambda: InteractionConcept("x", steps=[STEP_M, "s"]),
     "concept step must be a UserStep, got 's'"),
]


class TestParse:
    def test_wizard_file(self, v1_concept):
        assert v1_concept.name == "v1-wizard"
        assert len(v1_concept.variables) == 8
        assert len(v1_concept.steps) == 9
        retry = v1_concept.steps[6]
        assert retry.repeat == parse_expr("a - 1")
        assert retry.actions.per_kind == {ActionKind.CLICK: parse_expr("3")}
        assert retry.note == "taken only when the seat is unavailable"
        for step in v1_concept.steps[1:6]:
            assert step.repeat == parse_expr("a")

    def test_single_page_file(self, v2_concept):
        assert len(v2_concept.variables) == 6
        assert len(v2_concept.steps) == 4
        criteria = v2_concept.steps[1]
        assert criteria.actions.per_kind[ActionKind.THINK] == parse_expr("r + d + s + g")
        assert criteria.actions.per_kind[ActionKind.ENTER] == parse_expr("4")

    def test_minimal_concept(self):
        concept = parse_concept('concept "empty"')
        assert concept == InteractionConcept("empty")

    def test_variable_descriptions_kept(self, v1_concept):
        assert v1_concept.variables[0] == ConceptVariable(
            "m", "number of displayed movies"
        )

    def test_undeclared_variable(self):
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept('concept "x"\nstep "s" { T: q }')
        assert "undeclared variable 'q'" in str(exc.value)
        assert exc.value.line == 2

    def test_duplicate_step_label(self):
        text = 'concept "x"\nstep "review" { }\nstep "review" { T: 1 }'
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept(text)
        assert exc.value.line == 3

    def test_duplicate_variable(self):
        with pytest.raises(ConceptSyntaxError):
            parse_concept('concept "x"\nvar m\nvar m')

    def test_duplicate_action_kind(self):
        with pytest.raises(ConceptSyntaxError):
            parse_concept('concept "x"\nstep "s" { T: 1; T: 2 }')

    def test_unknown_action_kind(self):
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept('concept "x"\nstep "s" { Z: 1 }')
        assert "unknown action kind" in str(exc.value)

    def test_concept_line_must_come_first(self):
        with pytest.raises(ConceptSyntaxError):
            parse_concept('var m\nconcept "x"')

    def test_missing_concept_line(self):
        with pytest.raises(ConceptSyntaxError):
            parse_concept("# only a comment\n")

    def test_expression_error_position(self):
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept('concept "x"\nvar m\nstep "s" { T: m + }')
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "step_head, step_tail",
        [('step "s" repeat ', " { C: 1 }"), ('step "s" { C: ', " }")],
    )
    def test_nesting_past_the_limit(self, step_head, step_tail):
        nested = "(" * 5000 + "a" + ")" * 5000
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept(f'concept "x"\nvar a\n{step_head}{nested}{step_tail}')
        assert exc.value.line == 3
        assert exc.value.column == len(step_head) + MAX_NESTING + 1
        assert f"nested more than {MAX_NESTING} deep" in str(exc.value)

    def test_comment_only_lines_ignored(self):
        concept = parse_concept('# header\nconcept "x"\n   # another\n')
        assert concept.name == "x"

    def test_zero_action_step_parses(self):
        concept = parse_concept('concept "x"\nstep "placeholder" { }')
        assert concept.steps[0].actions.per_kind == {}

    @pytest.mark.parametrize(
        "line, column",
        [
            # The quote at column 6 is closed; the one at column 19 is not.
            ('step "a" { T: 1 } "', 19),
            ('step "a" { T: 1 } "x # y', 19),
            ('step "a { T: 1 }', 6),
        ],
    )
    def test_unterminated_quote_at_the_quote_left_open(self, line, column):
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept(f'concept "x"\nvar m\n{line}')
        assert str(exc.value) == f"line 3, column {column}: unterminated quote"


    @pytest.mark.parametrize(
        "text, message, line",
        [
            ('concept "x"\nvar A', "invalid variable name 'A'", 2),
            ('concept "x"\nvar a\nvar b\nvar a', "duplicate variable 'a'", 4),
            # Variable lines are checked before any step line.
            ('concept "x"\nstep "s" { Q: 1 }\nvar a\nvar a', "duplicate variable 'a'", 4),
            ('concept "x"\nstep "s" { T: 1 }\nstep "s" { T: q }', "duplicate step label 's'", 3),
            ('concept "x"\nvar a\nstep "s" repeat z { T: a + q }', "undeclared variable 'q'", 3),
            # Every variable line counts, also one after the step.
            ('concept "x"\nstep "s" { T: a }\nvar a\nstep "t" { T: b }', "undeclared variable 'b'", 4),
        ],
    )
    def test_first_rule_violation(self, text, message, line):
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept(text)
        assert str(exc.value) == f"line {line}, column 1: {message}"


class TestModel:
    def test_step_actions_are_read_only(self):
        with pytest.raises(TypeError):
            STEP_M.actions[ActionKind.CLICK] = ONE
        with pytest.raises(AttributeError):
            STEP_M.actions.counts = (ONE,) * 5
        STEP_M.actions.per_kind[ActionKind.CLICK] = ONE
        assert STEP_M.actions.per_kind == {ActionKind.THINK: parse_expr("m")}

    def test_step_keeps_no_reference_to_the_mapping_it_was_given(self):
        actions = {ActionKind.THINK: parse_expr("m"), ActionKind.CLICK: parse_expr("0")}
        step = UserStep("s", actions)
        actions[ActionKind.ENTER] = ONE
        assert step.actions.per_kind == {ActionKind.THINK: parse_expr("m")}

    def test_actions_are_held_in_kind_order(self):
        actions = {ActionKind.EXTERNAL: ONE, ActionKind.THINK: ONE, ActionKind.SCROLL: ONE}
        assert list(UserStep("s", actions).actions.per_kind) == [
            ActionKind.THINK, ActionKind.SCROLL, ActionKind.EXTERNAL,
        ]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_any_order_gives_the_in_order_step(self, order):
        given = [
            (ActionKind.THINK, parse_expr("a")), (ActionKind.CLICK, ONE),
            (ActionKind.SCROLL, parse_expr("0")), (ActionKind.EXTERNAL, parse_expr("2*b")),
        ]
        in_order = UserStep("s", dict(given))
        shuffled = UserStep("s", dict(given[index] for index in order))
        assert shuffled == in_order
        assert list(shuffled.actions.per_kind.items()) == list(
            in_order.actions.per_kind.items()
        ) == [
            given[0], given[1], given[3],
        ]

    def test_an_action_vector_gives_the_step_of_the_equal_mapping(self):
        a = parse_expr("a")
        vector = ActionVector((a, ZERO, ONE, parse_expr("0"), ZERO))
        step = UserStep("s", vector)
        assert step == UserStep("s", {ActionKind.CLICK: ONE, ActionKind.THINK: a})
        assert step.actions == vector and step.actions.counts[3] is ZERO
        assert UserStep("s")._replace(actions=vector) == step

    @pytest.mark.parametrize("counts, mapping", [
        ((3, ZERO, ZERO, ZERO, ZERO), {ActionKind.THINK: 3}),
        ((ONE, ZERO, "c", None, ZERO), {ActionKind.THINK: ONE, ActionKind.CLICK: "c"}),
        ((ZERO, ZERO, ZERO, ZERO, ActionVector()), {ActionKind.EXTERNAL: ActionVector()}),
    ], ids=["int", "first-of-two", "vector"])
    def test_an_action_vector_is_type_checked_as_the_equal_mapping(self, counts, mapping):
        # No vector holds a count that is not an Expression: the vector
        # refuses the count the step refuses in the mapping, at its kind.
        with pytest.raises(DomainError) as expected:
            UserStep("s", mapping)
        word, got = re.fullmatch(
            "step actions value for (\\w+) must be an Expression, got (.*)", str(expected.value)
        ).groups()
        with pytest.raises(DomainError) as given:
            ActionVector(counts)
        assert str(given.value) == (
            f"ActionVector count for {ActionKind.from_word(word)} must be an Expression, got {got}"
        )

    def test_an_action_vector_is_kept_when_its_empty_slots_hold_zero(self):
        a = parse_expr("a")
        vector = ActionVector((a, ZERO, ONE, ZERO, ZERO))
        assert UserStep("s", vector).actions is vector
        # Expression() equals ZERO but is another object: the step holds a
        # new vector with ZERO in that slot.
        other = ActionVector((a, Expression(), ONE, ZERO, ZERO))
        actions = UserStep("s", other).actions
        assert actions is not other and actions == vector and actions.counts[1] is ZERO

    def test_actions_type_checked_in_the_order_given(self):
        with pytest.raises(DomainError, match="for External"):
            UserStep("s", {ActionKind.EXTERNAL: "1", ActionKind.SCROLL: 1})

    @pytest.mark.parametrize("actions, binding, call", [
        ({ActionKind.EXTERNAL: ONE, ActionKind.SCROLL: ONE}, {},
         lambda concept, binding: klm_from_concept(concept, DEFAULT_MAPPING)),
        ({ActionKind.EXTERNAL: parse_expr("a - 2"), ActionKind.SCROLL: parse_expr("b - 2")},
         {"a": 0, "b": 0}, count_actions),
    ], ids=["klm_from_concept", "count_actions"])
    def test_equal_steps_raise_the_same_first_error(self, actions, binding, call):
        variables = tuple(ConceptVariable(name) for name in binding)
        concept = InteractionConcept("x", variables, (UserStep("skim", actions),))
        reread = parse_concept(serialize_concept(concept))
        assert reread == concept
        messages = []
        for each in (concept, reread):
            with pytest.raises(IxComplexError) as exc:
                call(each, binding)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "Scroll" in messages[0] or "b - 2" in messages[0]

    @pytest.mark.parametrize("name", ["v1", "v2"])
    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy, lambda concept: pickle.loads(pickle.dumps(concept)),
    ], ids=["deepcopy", "pickle"])
    def test_copy_and_pickle_round_trip(self, request, name, duplicate):
        concept = request.getfixturevalue(f"{name}_concept")
        binding = {"v1": V1_BINDING, "v2": V2_BINDING}[name]
        report = analyze(concept, binding)
        copied = duplicate(concept)
        assert copied == concept
        assert all(getattr(step, "_vector", None) is None for step in copied.steps)
        assert analyze(copied, binding) == report

    def test_sequences_are_held_as_tuples(self):
        variables = [ConceptVariable("m")]
        concept = InteractionConcept("x", variables, [STEP_M])
        assert concept.variables == (ConceptVariable("m"),)
        assert concept.steps == (STEP_M,)
        variables.append(ConceptVariable("a"))
        assert len(concept.variables) == 1
        assert concept == InteractionConcept("x", (ConceptVariable("m"),), (STEP_M,))


class TestSerialize:
    def test_empty(self):
        assert serialize_concept(InteractionConcept("empty")) == 'concept "empty"\n'

    def test_round_trip_bundled(self, v1_concept, v2_concept):
        assert parse_concept(serialize_concept(v1_concept)) == v1_concept
        assert parse_concept(serialize_concept(v2_concept)) == v2_concept

    def test_default_repeat_elided(self):
        concept = InteractionConcept(
            "x", (), (UserStep("s", {ActionKind.THINK: ONE}),)
        )
        assert "repeat" not in serialize_concept(concept)

    def test_nondefault_repeat_serialized(self, v1_concept):
        text = serialize_concept(v1_concept)
        assert 'step "return to theater selection" repeat a - 1 { C: 3 }' in text

    def test_unserializable_label_rejected(self):
        concept = InteractionConcept("x", (), (UserStep('bad "label"', {}),))
        with pytest.raises(IxComplexError):
            serialize_concept(concept)

    def test_sample_concept_round_trips(self):
        concept = sample_concept()
        assert parse_concept(serialize_concept(concept)) == concept

    @pytest.mark.parametrize("boundary", LINE_BOUNDARIES, ids=repr)
    @pytest.mark.parametrize("field", ["name", "label", "description", "note"])
    def test_line_boundary_refused(self, field, boundary):
        concept = sample_concept(field, f"a{boundary}b")
        assert not reads_back(concept)
        what = {"name": "concept name", "label": "step label",
                "description": "variable description", "note": "step note"}[field]
        with pytest.raises(DomainError) as exc:
            serialize_concept(concept)
        assert str(exc.value) == f"{what} must be single-line: {f'a{boundary}b'!r}"

    def test_name_that_is_no_string_refused(self):
        with pytest.raises(DomainError) as exc:
            serialize_concept(InteractionConcept(5))
        assert str(exc.value) == "concept name must be a string, got 5"

    def test_description_that_is_no_string_refused(self):
        with pytest.raises(DomainError) as exc:
            ConceptVariable("m", None)
        assert str(exc.value) == "variable description must be a string, got None"

    @pytest.mark.parametrize("build, message", ILL_TYPED_FIELDS,
                             ids=[message for _, message in ILL_TYPED_FIELDS])
    def test_ill_typed_field_refused(self, build, message):
        with pytest.raises(DomainError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("concept, message", VALIDATE_ERRORS,
                             ids=[message for _, message in VALIDATE_ERRORS])
    def test_validate_error_refused(self, concept, message):
        assert not reads_back(concept)
        with pytest.raises(DomainError) as exc:
            serialize_concept(concept)
        assert str(exc.value) == message

    def test_most_negative_coefficient_round_trips(self):
        # -2**63 has no literal; its term is written as two.
        low = parse_expr("-9223372036854775807*m - m - 9223372036854775807 - 1")
        assert [coeff for _, coeff in low.terms] == [-(2**63), -(2**63)]
        concept = InteractionConcept(
            "x", (ConceptVariable("m"),), (UserStep("s", {ActionKind.THINK: low}, low),)
        )
        assert parse_concept(serialize_concept(concept)) == concept


class TestValidate:
    def test_well_formed_is_clean(self, v1_concept, v2_concept):
        assert validate(v1_concept) == []
        assert validate(v2_concept) == []

    def test_zero_action_step_warns(self):
        concept = parse_concept('concept "x"\nstep "placeholder" { }')
        diagnostics = validate(concept)
        assert [d.severity for d in diagnostics] == ["warning"]
        assert "contributes no interaction" in diagnostics[0].message

    @pytest.mark.parametrize("step", [
        UserStep("s", {ActionKind.THINK: parse_expr("0")}),
        UserStep("s", ActionVector((parse_expr("0"),) + (ZERO,) * 4)),
        parse_concept('concept "x"\nstep "s" { T: 0 }').steps[0],
    ], ids=["mapping", "vector", "parsed"])
    def test_step_of_zero_counts_warns(self, step):
        diagnostics = validate(InteractionConcept("x", (), (step,)))
        assert diagnostics == [Diagnostic("warning", "step contributes no interaction", "s")]

    def test_duplicate_label_diagnosed(self):
        concept = InteractionConcept(
            "x",
            (),
            (UserStep("review", {ActionKind.THINK: ONE}), UserStep("review", {ActionKind.THINK: ONE})),
        )
        assert any(
            d.severity == "error" and "duplicate step label" in d.message
            for d in validate(concept)
        )

    def test_undeclared_variable_diagnosed(self):
        concept = InteractionConcept(
            "x", (), (UserStep("s", {ActionKind.THINK: parse_expr("q")}),)
        )
        assert any("undeclared variable 'q'" in d.message for d in validate(concept))


    def test_every_variable_rule_reported(self):
        concept = InteractionConcept("x", (ConceptVariable("A"), ConceptVariable("A")))
        assert [d.message for d in validate(concept)] == [
            "invalid variable name 'A'",
            "invalid variable name 'A'",
            "duplicate variable 'A'",
        ]

    def test_every_step_rule_reported(self):
        step = UserStep("s", {ActionKind.THINK: parse_expr("q + b")})
        concept = InteractionConcept("x", (), (step, step))
        assert [(d.message, d.step) for d in validate(concept)] == [
            ("undeclared variable 'b'", "s"),
            ("undeclared variable 'q'", "s"),
            ("duplicate step label 's'", "s"),
            ("undeclared variable 'b'", "s"),
            ("undeclared variable 'q'", "s"),
        ]


class TestProperties:
    @given(concepts())
    @settings(max_examples=60)
    def test_round_trip_identity(self, concept):
        assert parse_concept(serialize_concept(concept)) == concept

    @given(concepts(unicode_texts()))
    @settings(max_examples=300)
    def test_writer_refuses_exactly_what_the_reader_cannot_read_back(self, concept):
        try:
            text = serialize_concept(concept)
        except DomainError:
            assert not reads_back(concept)
        else:
            assert text == unchecked_text(concept)
            assert parse_concept(text) == concept

    @given(st.text(max_size=200))
    @settings(max_examples=150)
    def test_parsing_is_total(self, text):
        try:
            parse_concept(text)
        except IxComplexError:
            pass

    @given(st.text(alphabet='"# ab', max_size=24))
    @settings(max_examples=150)
    def test_comment_split_matches_the_quote_toggle(self, tail):
        head = 'step "s" { T: 1 }'
        code, comment, open_at = reference_split_comment(head + tail)
        text = f'concept "x"\nvar m\n{head}{tail}'
        if open_at is not None:
            expected = f"line 3, column {open_at + 1}: unterminated quote"
        elif code[len(head) :].strip():
            expected = f"line 3, column {len(head) + 1}: unexpected text after '}}'"
        else:
            assert parse_concept(text).steps[0].note == ((comment or "").strip() or None)
            return
        with pytest.raises(ConceptSyntaxError) as exc:
            parse_concept(text)
        assert str(exc.value) == expected

    @given(st.text(alphabet='concept "varstep{}#;:TECSX1a\n', max_size=120))
    @settings(max_examples=150)
    def test_parsing_is_total_structured(self, text):
        try:
            parse_concept(text)
        except IxComplexError:
            pass


def _read(parse, text):
    try:
        concept = parse(text)
    except Exception as exc:  # the type, message, line and column are compared
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return concept, repr(concept)


class TestOneMatchReader:
    @given(concept_texts())
    @settings(max_examples=500)
    @example('concept "x"\nvar a\nstep "s" repeat 2 { T: a; C:a }\nstep "t" { T: a - a; E: 0 }\n')
    @example('concept "x"\nvar a\nstep "s" { T: b }\nstep "t" { T: 1 } "\n')
    @example('concept "x"\nvar a\nstep "s" { T: 1 }\nstep "s" { T: b }\n')
    @example('concept "x"\nstep "s" { T: 1; T: 9223372036854775807*2 }\n')
    @example('concept "x"\nstep "s" { T: 1; C: 2; T: 1 }\n')
    @example('concept "x"\nstep "s" repeat 11111111111111111111 { T: 1 }\n')
    @example('concept "x"\nstep "s" { T\x85: 1 }\n')
    @example('concept "x"\nstep "s" {\u3000T\t:\t1 ;; }  # note\n')
    @example('concept "x"\nstep "s" repeat 2 }{ T: 1 }\n')
    @example('concept "x"\nstep "s" { T: 1 }}\n')
    @example('concept "x"\nstep"s" { T: 1 }\n')
    @example('step "s" { T: 1 }\nconcept "x"\n')
    @example('concept "x"\nstep "a#b}" repeat{ T: 1 }\n')
    # The fault order the one step reader keeps: a fault in the body of a
    # line off the one-match shape, a syntax fault after an undeclared
    # name, a repeat fault before text after '}', a zero-valued term that
    # names an undeclared variable (accepted), and a text seen clean in one
    # step then reused on a faulty line off the shape; and a fault of the
    # first pass on line 3 before a body fault on line 2.
    @example('concept "x"\nvar a\nstep "s" { T: "1" }\n')
    @example('concept "x"\nvar a\nstep "s" { T: b; C: 1 + }\n')
    @example('concept "x"\nvar a\nstep "s" repeat 1 + { T: 1 } x\n')
    @example('concept "x"\nvar a\nstep "s" { T: 0*zz }\n')
    @example('concept "x"\nvar a\nstep "s" { T: a + 1 }\nstep "t" { T:  a + 1 ; C: "q" }\n')
    @example('concept "x"\nstep "s" { T: 1 + }\nstep "t { T: 1 }\n')
    def test_matches_the_reference_reader(self, text):
        assert _read(parse_concept, text) == _read(reference_parse_concept, text)

    def test_a_text_is_parsed_once_per_call(self):
        text = 'concept "x"\nvar a\nstep "s" repeat a { T: a }\nstep "t" { C:  a ; E: 2 }\n'
        first, again = parse_concept(text), parse_concept(text)
        assert first.steps[0].repeat is first.steps[0].actions.counts[0]
        assert first.steps[0].repeat is first.steps[1].actions.counts[2]
        # The parses live only for the call: a second call parses afresh.
        assert again == first and again.steps[0].repeat is not first.steps[0].repeat
