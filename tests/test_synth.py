import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ixcomplex.bigi import analyze, normalize, sum_steps
from ixcomplex.concept import ActionKind, InteractionConcept, UserStep, parse_concept
from ixcomplex.errors import (
    DomainError,
    InvalidBindingError,
    NegativeCountError,
    OverflowLimitError,
    UnboundVariableError,
)
from ixcomplex.expr import evaluate, format_expr, parse_expr
from ixcomplex.logs import (
    EventLog,
    PageVisit,
    Session,
    StepRecord,
    Task,
    dump_log,
    load_log,
    task_table,
)
from ixcomplex import synth
from ixcomplex.synth import (
    _MIN_SPEED,
    ActionCounts,
    SynthConfig,
    count_actions,
    eval_source,
    generate_log,
    generate_log_text,
)

from helpers import (
    V1_BINDING,
    V2_BINDING,
    expressions,
    oracle_cases,
    random_binding,
    random_concept,
    reference_count_actions,
)


class TestCountActions:
    def test_wizard_single_attempt(self, v1_concept):
        counts = count_actions(v1_concept, dict(V1_BINDING, a=1))
        assert counts.per_kind == {
            ActionKind.THINK: 29,
            ActionKind.ENTER: 6,
            ActionKind.CLICK: 7,
        }
        assert counts.total == 42

    def test_wizard_five_attempts(self, v1_concept):
        assert count_actions(v1_concept, V1_BINDING).total == 174

    def test_single_page(self, v2_concept):
        counts = count_actions(v2_concept, V2_BINDING)
        assert counts.per_kind == {
            ActionKind.THINK: 35,
            ActionKind.ENTER: 6,
            ActionKind.CLICK: 4,
        }
        assert counts.total == 45

    def test_empty_concept(self):
        counts = count_actions(InteractionConcept("empty"), {"m": 9})
        assert counts.per_kind == {}
        assert counts.total == 0

    def test_inadmissible_binding(self, v1_concept):
        with pytest.raises(NegativeCountError):
            count_actions(v1_concept, dict(V1_BINDING, a=0))

    def test_huge_repeat_counts_at_once(self, v1_concept):
        binding = dict(V1_BINDING, a=10**12)
        engine = evaluate(normalize(sum_steps(v1_concept)).is_function, binding)
        started = time.perf_counter()
        assert count_actions(v1_concept, binding).total == engine
        assert time.perf_counter() - started < 0.5

    def test_total_invariant_enforced(self):
        with pytest.raises(
            DomainError, match=r"^total 3 does not match the per-kind counts' sum 2$"
        ):
            ActionCounts({ActionKind.THINK: 2}, 3)


# Nonnegative leaves and repeats: every expanded term is at most the total,
# so the engine and the oracle both overflow exactly when the total does.
_LEAVES = ("a", "b", "a*b", "a*a", "2*a + 1", "a*b*c", "3", "c + 1")
_REPEATS = ("1", "0", "a", "b*c", "2*c")
# Values around the roots of 2**63 for degrees 1 to 3, and small ones.
_NEAR_LIMIT = st.one_of(
    st.integers(0, 4),
    st.integers(2**21 - 3, 2**21 + 3),
    st.integers(3037000499 - 3, 3037000499 + 3),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(2**63 - 3, 2**63 + 3),
)


@st.composite
def _limit_cases(draw):
    steps = []
    for index in range(draw(st.integers(1, 3))):
        kinds = draw(
            st.lists(st.sampled_from(list(ActionKind)), min_size=1, max_size=2, unique=True)
        )
        actions = {kind: draw(st.sampled_from(_LEAVES)) for kind in kinds}
        steps.append((f"s{index}", draw(st.sampled_from(_REPEATS)), actions))
    binding = {name: draw(_NEAR_LIMIT) for name in "abc"}
    return steps, binding


class TestInt64Contract:
    @given(_limit_cases())
    @settings(max_examples=150)
    @example(([("s", "1", {ActionKind.THINK: "a*a"})], {"a": 2**40}))
    @example(([("s", "1", {ActionKind.THINK: "a"})], {"a": 2**63 - 1}))
    @example(([("s", "1", {ActionKind.THINK: "a"})], {"a": 2**63}))
    @example(([("s", "a", {ActionKind.THINK: "1", ActionKind.CLICK: "1"})], {"a": 2**62}))
    def test_engine_and_oracle_share_the_limit(self, case):
        steps, binding = case
        concept = InteractionConcept(
            "limit",
            steps=tuple(
                UserStep(label, {k: parse_expr(t) for k, t in actions.items()}, parse_expr(repeat))
                for label, repeat, actions in steps
            ),
        )
        exact = sum(
            eval_source(repeat, binding) * sum(eval_source(t, binding) for t in actions.values())
            for _, repeat, actions in steps
        )
        if exact > 2**63 - 1:
            with pytest.raises(OverflowLimitError):
                analyze(concept, binding)
            with pytest.raises(OverflowLimitError):
                count_actions(concept, binding)
        else:
            assert analyze(concept, binding).instantiated[1] == exact
            assert count_actions(concept, binding).total == exact
        # At a million IS per second every timestamp stays inside the range;
        # synth also writes the binding, so it refuses a value past the range.
        synth = SynthConfig(concept, binding, sessions=1, speed_mean=1e6)
        if exact > 2**63 - 1 or max(binding.values(), default=0) > 2**63 - 1:
            with pytest.raises(OverflowLimitError):
                generate_log(synth)
        else:
            assert generate_log(synth).sessions[0].tasks[0].is_count == exact


class TestEvalSource:
    def test_direct_interpretation(self):
        assert eval_source("a * (r + 2) - 1", {"a": 3, "r": 4}) == 17

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            eval_source("a + q", {"a": 1})

    def test_negative_binding(self):
        with pytest.raises(InvalidBindingError):
            eval_source("a", {"a": -2})

    def test_nested_parentheses_with_unary_minus(self):
        assert eval_source(" -((a + 2) * (3 - (b)))\t- 1 ", {"a": 1, "b": 5}) == 5

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 $", "unexpected character '$' in expression"),
            # An unknown character is refused before any syntax is read.
            (") $", "unexpected character '$' in expression"),
            ("1 +", "unexpected end of expression"),
            ("(1", "unexpected end of expression"),
            ("", "unexpected end of expression"),
            ("(1 2)", "missing closing parenthesis"),
            ("1 )", "unexpected ')' in expression '1 )'"),
            ("1 2", "unexpected 2 in expression '1 2'"),
            ("*", "unexpected '*' in expression"),
            ("--1", "unexpected '-' in expression"),
            ("()", "unexpected ')' in expression"),
        ],
    )
    def test_syntax_error_messages(self, text, message):
        with pytest.raises(DomainError) as exc:
            eval_source(text, {})
        assert type(exc.value) is DomainError
        assert str(exc.value) == message

    @given(expressions(), st.data())
    @settings(max_examples=80)
    def test_agrees_with_polynomial_engine(self, e, data):
        binding = {
            name: data.draw(st.integers(0, 9), label=name)
            for name in sorted(e.variables())
        }
        text = format_expr(e)
        try:
            expected = evaluate(e, binding)
        except NegativeCountError as exc:
            assert eval_source(text, binding) == exc.value
            return
        assert eval_source(text, binding) == expected


class TestGenerateLog:
    def test_degenerate_sd_gives_exact_durations(self, v2_concept):
        config = SynthConfig(v2_concept, V2_BINDING, sessions=4, speed_mean=1.0)
        log = generate_log(config)
        for session in log.sessions:
            task = session.tasks[0]
            assert task.is_count == 45
            assert task.duration_s == pytest.approx(45.0)

    def test_seed_determinism(self, v2_concept):
        config = SynthConfig(v2_concept, V2_BINDING, 10, 1.05, 0.2, seed=42)
        first = dump_log(generate_log(config))
        second = dump_log(generate_log(config))
        assert first == second

    def test_different_seeds_differ(self, v2_concept):
        a = generate_log(SynthConfig(v2_concept, V2_BINDING, 10, 1.05, 0.2, seed=1))
        b = generate_log(SynthConfig(v2_concept, V2_BINDING, 10, 1.05, 0.2, seed=2))
        assert a != b

    def test_generated_log_validates(self, v1_concept):
        config = SynthConfig(v1_concept, V1_BINDING, 20, 1.05, 0.3, seed=5)
        log = generate_log(config)
        assert load_log(dump_log(log)) == log

    def test_zero_is_steps_skipped(self, v1_concept):
        # a=1 makes the retry step contribute nothing
        config = SynthConfig(v1_concept, dict(V1_BINDING, a=1), 1, 1.0)
        log = generate_log(config)
        labels = [visit.page for visit in log.sessions[0].tasks[0].page_visits]
        assert "return to theater selection" not in labels
        assert log.sessions[0].tasks[0].is_count == 42

    def test_statistical_recovery(self, v2_concept):
        config = SynthConfig(v2_concept, V2_BINDING, 100, 1.05, 0.2, seed=20260809)
        rows = task_table(generate_log(config))
        assert len(rows) == 1
        assert rows[0].mean_is_per_s == pytest.approx(1.05, rel=0.05)

    def test_config_validation(self, v2_concept):
        with pytest.raises(DomainError):
            SynthConfig(v2_concept, V2_BINDING, sessions=0, speed_mean=1.0)
        with pytest.raises(DomainError):
            SynthConfig(v2_concept, V2_BINDING, sessions=1, speed_mean=0.0)
        with pytest.raises(DomainError):
            SynthConfig(v2_concept, V2_BINDING, sessions=1, speed_mean=1.0, speed_sd=-0.1)
        for value in (float("nan"), float("inf")):
            with pytest.raises(DomainError, match="finite"):
                SynthConfig(v2_concept, V2_BINDING, sessions=1, speed_mean=value)
            with pytest.raises(DomainError, match="finite"):
                SynthConfig(v2_concept, V2_BINDING, sessions=1, speed_mean=1.0, speed_sd=value)

    def test_unbound_binding_rejected(self, v2_concept):
        with pytest.raises(UnboundVariableError):
            generate_log(SynthConfig(v2_concept, {"m": 6}, 1, 1.0))


def single_step(concept, step):
    return InteractionConcept(concept.name, concept.variables, (step,))


def one_draw_per_step(config):
    """Reference for generate_log: one scalar rng.normal call per step with
    nonzero IS, session by session; step IS comes from the oracle."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    concept = config.concept
    counts = [
        (step.label, count_actions(single_step(concept, step), config.binding).total)
        for step in concept.steps
    ]
    sessions = []
    for index in range(config.sessions):
        clock_ms = 0.0
        visits = []
        for label, count in counts:
            if count == 0:
                continue
            speed = max(float(rng.normal(config.speed_mean, config.speed_sd)), _MIN_SPEED)
            start = round(clock_ms)
            clock_ms += count / speed * 1000.0
            end = round(clock_ms)
            visits.append(PageVisit(label, start, end, (StepRecord(label, start, end, count),)))
        total = sum(count for _, count in counts)
        task = Task(concept.name, concept.name, dict(config.binding), total, tuple(visits))
        sessions.append(Session(f"s{index:04d}", (task,)))
    return EventLog(tuple(sessions))


def assert_as_one_draw_per_step(config):
    """Both the log and its text are those of the reference."""
    reference = one_draw_per_step(config)
    assert generate_log(config) == reference
    assert generate_log_text(config) == dump_log(reference)


class TestBatchedDraws:
    @pytest.mark.parametrize(
        "concept, binding, sd, seed",
        [
            ("v2_concept", V2_BINDING, 0.2, 0),
            ("v2_concept", V2_BINDING, 0.2, 7),
            ("v2_concept", V2_BINDING, 0.25, 2026),
            ("v2_concept", V2_BINDING, 3.0, 11),
            ("v1_concept", V1_BINDING, 0.0, 5),
            ("v1_concept", dict(V1_BINDING, a=1), 0.5, 3),
            ("v1_concept", dict(V1_BINDING, a=1), 3.0, 4),
        ],
    )
    def test_same_stream_as_one_draw_per_step(self, request, concept, binding, sd, seed):
        concept = request.getfixturevalue(concept)
        assert_as_one_draw_per_step(SynthConfig(concept, binding, 40, 1.05, sd, seed))

    def test_no_drawn_step(self):
        # The only step has zero IS, so sessions draw nothing and visit no page.
        concept = parse_concept('concept "idle"\nstep "a" repeat 0 { T: 1 }\n')
        config = SynthConfig(concept, {}, 40, 1.05, 0.2, seed=7)
        assert_as_one_draw_per_step(config)
        assert generate_log(config).sessions[-1].tasks[0].page_visits == ()

    def test_one_session(self, v2_concept):
        assert_as_one_draw_per_step(SynthConfig(v2_concept, V2_BINDING, 1, 1.05, 0.2, seed=7))

    def test_boundaries_keep_the_float_operations_of_one_session(self, monkeypatch):
        # Each speed of step "a" ends it on or next to a half millisecond,
        # where another order of the float operations (1000.0 * count /
        # speed, say) rounds the boundary the other way; 0.001 is below the
        # speed floor.
        drawn = [("a", 1), ("b", 3)]
        columns = [
            [9.950248756218905, 9.75609756097561, 8.583690987124463,
             7.782101167315174, 7.6628352490421445, 7.434944237918215],
            [1.05, 0.001, 2.5, 0.3, 1.0, 0.75],
        ]
        monkeypatch.setattr(synth, "_draw", lambda config: (drawn, 4, columns))
        expected = []
        for row in zip(*columns):
            clock_ms, stamps = 0.0, [0]
            for (_, count), speed in zip(drawn, row):
                clock_ms += count / max(speed, _MIN_SPEED) * 1000.0
                stamps.append(round(clock_ms))
            expected.append(stamps)
        concept = parse_concept('concept "c"\nstep "a" { T: 1 }\nstep "b" { T: 3 }\n')
        config = SynthConfig(concept, {}, len(expected), 1.05)
        log = generate_log(config)
        visits = [session.tasks[0].page_visits for session in log.sessions]
        assert [[v[0].enter_ms, *(visit.exit_ms for visit in v)] for v in visits] == expected
        assert generate_log_text(config) == dump_log(log)

    def test_large_sd_hits_the_speed_floor(self, v2_concept):
        # The sd 3.0 cases above must exercise the clamp: a clamped step
        # lasts is_count / _MIN_SPEED seconds.
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 40, 1.05, 3.0, seed=11))
        clamped = [
            step
            for session in log.sessions
            for visit in session.tasks[0].page_visits
            for step in visit.steps
            if abs(step.end_ms - step.start_ms - step.is_count / _MIN_SPEED * 1000.0) <= 1
        ]
        assert clamped


# Characters a session's template must carry through as dump_log writes
# them: str.format's braces and a field, percent signs, JSON's escapes,
# non-ASCII and astral characters, lone surrogates, and a high and a low
# surrogate, which dump_log refuses as a pair where they meet.
_TEMPLATE_CHARS = ("%", "%d", "{", "}", "{0}", '"', "\\", "é", "\U0001f600", "\ud800", "\udc00",
                   "\udbff\udfff")
_TEMPLATE_TEXTS = st.lists(
    st.one_of(st.sampled_from(_TEMPLATE_CHARS), st.characters()), max_size=5
).map("".join)
# A value for one variable: a bool, which dump_log refuses, or one that
# makes counts large; at 10**15 IS a step at the speed floor takes a
# timestamp past the signed 64-bit range.
_VARIABLE_VALUES = (True, 10**12, 10**15)
# Entries generate_log takes and dump_log refuses, and the largest value,
# which only a variable the concept leaves unused can hold.
_EXTRA_ENTRIES = ({7: 1}, {"unused": True}, {"unused": -1}, {"unused": 2**63 - 1})
_LINE = InteractionConcept("line", steps=(UserStep("s", {ActionKind.THINK: parse_expr("a")}),))


@st.composite
def _synth_configs(draw):
    """Configs of seeded random concepts whose name and step labels are
    drawn from _TEMPLATE_TEXTS, sometimes with a step of zero IS put in,
    and whose binding may hold a bool, a large value or an odd entry."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    concept = random_concept(rng, max_steps=5, max_vars=3)
    steps = [step._replace(label=draw(_TEMPLATE_TEXTS)) for step in concept.steps]
    if draw(st.booleans()):
        steps.insert(draw(st.integers(0, len(steps))), UserStep(draw(_TEMPLATE_TEXTS)))
    concept = InteractionConcept(draw(_TEMPLATE_TEXTS), concept.variables, tuple(steps))
    binding = random_binding(rng, concept)
    if draw(st.booleans()):
        binding[draw(st.sampled_from(sorted(binding)))] = draw(st.sampled_from(_VARIABLE_VALUES))
    if draw(st.booleans()):
        binding.update(draw(st.sampled_from(_EXTRA_ENTRIES)))
    return SynthConfig(
        concept,
        binding,
        sessions=draw(st.integers(1, 50)),
        speed_mean=draw(st.sampled_from((0.5, 1.05, 2.0))),
        speed_sd=draw(st.floats(0, 3)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def _outcome(function, config):
    """What function(config) returns, or the type, message and path of
    what it raises."""
    try:
        return function(config)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "where", None)


class TestGenerateLogText:
    @given(_synth_configs())
    @settings(max_examples=200, deadline=None)
    # The first timestamp past the range is in session 6, and a later one
    # is larger; it wins over the bool that dump_log refuses in session 0.
    @example(SynthConfig(_LINE, {"a": 10**15, "unused": True}, 50, 1.0, 1.0, seed=20))
    @example(SynthConfig(_LINE, {"a": 10**15}, 50, 1.0, 1.0, seed=20))
    @example(SynthConfig(_LINE._replace(name="%s {0} {{}"), {"a": 3}, 2, 1.0, 0.2))
    @example(SynthConfig(_LINE._replace(name="\ud83d\ude00"), {"a": 3}, 2, 1.0, 0.2))
    @example(SynthConfig(_LINE, {"a": 3, 7: 1, "b": 2}, 2, 1.0, 0.2))
    def test_is_the_dump_of_the_generated_log(self, config):
        assert _outcome(generate_log_text, config) == _outcome(
            lambda config: dump_log(generate_log(config)), config
        )

    def test_the_overflow_example_overflows_late(self):
        # Pins what the first two examples above rely on: sessions 0 to 5
        # are in range and session 6 is not.  A session at the speed floor
        # ends at 10**20 ms, so a later one ends later still.
        config = SynthConfig(_LINE, {"a": 10**15}, 50, 1.0, 1.0, seed=20)
        assert len(generate_log(config._replace(sessions=6)).sessions) == 6
        with pytest.raises(OverflowLimitError) as first:
            generate_log(config._replace(sessions=7))
        assert str(first.value) == (
            "timestamp 11644250200596486144 is outside the signed 64-bit range"
        )

    def test_the_first_session_past_the_range_raises(self):
        # Of the 50 sessions, several more are past the range, session 8
        # at the speed floor by the most, but the error names session 6's
        # last boundary, as with seven sessions.
        config = SynthConfig(_LINE, {"a": 10**15}, 50, 1.0, 1.0, seed=20)
        for function in (generate_log, generate_log_text):
            with pytest.raises(OverflowLimitError) as raised:
                function(config)
            assert str(raised.value) == (
                "timestamp 11644250200596486144 is outside the signed 64-bit range"
            )


def _oracle_case(counts, repeats, binding):
    """A concept of one step per count text, its Think count, under the
    repeat text at the same place; each text parsed where it is used."""
    steps = tuple(
        UserStep(f"s{index}", {ActionKind.THINK: parse_expr(count)}, parse_expr(repeat))
        for index, (count, repeat) in enumerate(zip(counts, repeats))
    )
    return InteractionConcept("oracle", (), steps), binding


def _counted(count, concept, binding):
    try:
        counts = count(concept, binding)
    except Exception as exc:  # the first exception's type and message are compared
        return type(exc), str(exc)
    return counts, repr(counts)


class TestOracleAgreement:
    def test_symbolic_equivalence_bulk(self):
        from ixcomplex.bigi import instantiate, normalize, sum_steps

        rng = random.Random(4711)
        for _ in range(40):
            concept = random_concept(rng)
            for _ in range(3):
                binding = random_binding(rng, concept)
                assert (
                    count_actions(concept, binding).total
                    == instantiate(normalize(sum_steps(concept)), binding)
                )

    @given(oracle_cases())
    @settings(max_examples=300)
    @example(_oracle_case(["a - 2", "a - 2"], ["1", "1"], {"a": 0}))
    @example(_oracle_case(["a - 2", "b"], ["1", "1"], {"a": 1}))
    @example(_oracle_case(["a", "a"], ["1", "2"], {"a": 2**62}))
    @example(_oracle_case(["a", "a"], ["2", "1"], {"a": 2**63 - 1}))
    @example(_oracle_case(["a", "b"], ["0", "0"], {"a": 2**63 - 1, "b": -1}))
    def test_matches_the_reference_oracle(self, case):
        concept, binding = case
        assert _counted(count_actions, concept, binding) == _counted(
            reference_count_actions, concept, binding
        )

    def test_each_distinct_leaf_is_evaluated_once_per_call(self, monkeypatch):
        evaluated = []

        def counting(text, binding):
            evaluated.append(text)
            return eval_source(text, binding)

        monkeypatch.setattr(synth, "eval_source", counting)
        concept, binding = _oracle_case(["2*a", "a", "2*a"], ["a", "1", "a"], {"a": 3})
        assert count_actions(concept, binding) == reference_count_actions(concept, binding)
        assert evaluated == ["a", "2*a", "1"]
        count_actions(concept, binding)
        assert evaluated[3:] == ["a", "2*a", "1"]

    def test_klm_count_agreement(self, v1_concept):
        from ixcomplex.klm import KlmOperator, klm_from_concept

        counts = count_actions(v1_concept, V1_BINDING)
        klm = klm_from_concept(v1_concept)
        glance = evaluate(klm.get(KlmOperator.GLANCE), V1_BINDING)
        point_click = evaluate(klm.get(KlmOperator.POINT_CLICK), V1_BINDING)
        assert glance == counts.per_kind[ActionKind.THINK]
        assert point_click == (
            counts.per_kind[ActionKind.ENTER] + counts.per_kind[ActionKind.CLICK]
        )
