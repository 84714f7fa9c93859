import gc
import json
import math
import tracemalloc
import warnings
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixcomplex import logs
from ixcomplex.concept import parse_concept
from ixcomplex.errors import DomainError, IxComplexError, LogFormatError
from ixcomplex.logs import (
    AnalyticsWarning,
    EventLog,
    IqrBounds,
    cross_check,
    PageVisit,
    Session,
    StepRecord,
    TABLE_COLUMNS,
    Task,
    dump_log,
    gc_paused,
    iqr_filter,
    load_log,
    log_tables,
    step_table,
    table_to_csv,
    table_to_text,
    task_table,
    validate_log,
)
from ixcomplex.speed import SpeedStats, speed_stats
from ixcomplex.synth import SynthConfig, generate_log, generate_log_text

from helpers import V2_BINDING, event_logs

MINIMAL = {
    "format": 2,
    "sessions": [
        ["s0", [
            ["t0", "demo", {"m": 3}, 7, [
                ["p0", 0, 7000, [
                    ["pick", 0, 7000, 7],
                ]],
            ]],
        ]],
    ],
}


# Paths below name each field as the object form of earlier versions did;
# row_path turns them into positions in the rows.
SESSION = ("sessions", 0)
TASK = SESSION + ("tasks", 0)
VISIT = TASK + ("page_visits", 0)
STEP = VISIT + ("steps", 0)
DELETE = object()

# The record kind of each child list, by its name.
KINDS = {"sessions": Session, "tasks": Task, "page_visits": PageVisit, "steps": StepRecord}


def row_path(path):
    """path with each name of a record's field replaced by the position of
    that field in the record's row: ("sessions", 0, "tasks") becomes
    ("sessions", 0, 1).  The names of the top level and of a binding stay."""
    result, kind, listed = [], None, None
    for key in path:
        if type(key) is int:
            kind = KINDS[listed]
        elif kind is not None:
            listed, kind, key = key, None, kind._fields.index(key)
        else:
            listed = key
        result.append(key)
    return tuple(result)


def at(data, path):
    """The value at path in a decoded log."""
    for key in row_path(path):
        data = data[key]
    return data


def replace(holder, key, value):
    """Put value at key of holder.  DELETE removes the key of an object; in
    a row it leaves the field null, since the object form read a missing
    field as null, and a row whose field is missing is no row at all."""
    if value is not DELETE:
        holder[key] = value
    elif type(holder) is dict:
        del holder[key]
    else:
        holder[key] = None


def with_fault(path, value):
    """A deep copy of MINIMAL with the value at path replaced, or removed
    when value is DELETE (see replace); the empty path replaces the whole
    document."""
    if not path:
        return value
    data = json.loads(json.dumps(MINIMAL))
    replace(at(data, path[:-1]), row_path(path)[-1], value)
    return data


def late_visit(enter_ms, exit_ms):
    return [at(MINIMAL, VISIT), ["p1", enter_ms, exit_ms, []]]


def reference_text(log, **layout):
    """json.dumps of the log's records themselves, which encode as arrays,
    under the format key."""
    return json.dumps({"format": 2, "sessions": log.sessions}, **layout)


S = "sessions[0]"
T = S + ".tasks[0]"
V = T + ".page_visits[0]"
R = V + ".steps[0]"

# The message for a value in a record's place that is no row of its kind.
NO_SESSION = "must be an array [session_id, tasks]"
NO_TASK = "must be an array [task_id, concept_name, binding, is_count, page_visits]"
NO_VISIT = "must be an array [page, enter_ms, exit_ms, steps]"
NO_STEP = "must be an array [step_label, start_ms, end_ms, is_count]"

# One fault per check load_log makes, each with the full message it raises.
SINGLE_FAULTS = [
    # a non-row at each level
    ((), [], 'top level must be an object with a "sessions" list'),
    (SESSION, 5, f"{S}: session {NO_SESSION}"),
    (TASK, "t", f"{T}: task {NO_TASK}"),
    (VISIT, None, f"{V}: page visit {NO_VISIT}"),
    (STEP, [], f"{R}: step record {NO_STEP}"),
    # missing or wrong-typed fields
    (("sessions",), DELETE, 'top level must be an object with a "sessions" list'),
    (("sessions",), {}, "'sessions' must be a list"),
    (SESSION + ("session_id",), DELETE, f"{S}: 'session_id' must be a string"),
    (SESSION + ("session_id",), 3, f"{S}: 'session_id' must be a string"),
    (SESSION + ("tasks",), {}, f"{S}: 'tasks' must be a list"),
    (TASK + ("task_id",), DELETE, f"{T}: 'task_id' must be a string"),
    (TASK + ("concept_name",), ["demo"], f"{T}: 'concept_name' must be a string"),
    (TASK + ("binding",), [["m", 3]], f"{T}: 'binding' must be an object"),
    (TASK + ("is_count",), DELETE, f"{T}: 'is_count' must be an integer"),
    (TASK + ("is_count",), 7.0, f"{T}: 'is_count' must be an integer"),
    (TASK + ("page_visits",), DELETE, f"{T}: 'page_visits' must be a list"),
    (VISIT + ("page",), DELETE, f"{V}: 'page' must be a string"),
    (VISIT + ("enter_ms",), "0", f"{V}: 'enter_ms' must be an integer"),
    (VISIT + ("exit_ms",), DELETE, f"{V}: 'exit_ms' must be an integer"),
    (VISIT + ("steps",), "pick", f"{V}: 'steps' must be a list"),
    (STEP + ("step_label",), 1, f"{R}: 'step_label' must be a string"),
    (STEP + ("start_ms",), DELETE, f"{R}: 'start_ms' must be an integer"),
    (STEP + ("end_ms",), 7000.5, f"{R}: 'end_ms' must be an integer"),
    (STEP + ("is_count",), None, f"{R}: 'is_count' must be an integer"),
    # a bool where an int is expected
    (TASK + ("is_count",), True, f"{T}: 'is_count' must be an integer"),
    (VISIT + ("exit_ms",), True, f"{V}: 'exit_ms' must be an integer"),
    (STEP + ("is_count",), True, f"{R}: 'is_count' must be an integer"),
    # negative values
    (TASK + ("is_count",), -1, f"{T}: 'is_count' must be >= 0, got -1"),
    (VISIT + ("enter_ms",), -1, f"{V}: 'enter_ms' must be >= 0, got -1"),
    (VISIT + ("exit_ms",), -1, f"{V}: 'exit_ms' must be >= 0, got -1"),
    (STEP + ("start_ms",), -5, f"{R}: 'start_ms' must be >= 0, got -5"),
    (STEP + ("end_ms",), -1, f"{R}: 'end_ms' must be >= 0, got -1"),
    # a step worth no interaction steps
    (STEP + ("is_count",), 0, f"{R}: 'is_count' must be >= 1, got 0"),
    # bad binding values
    (TASK + ("binding", "m"), -1, f"{T}: binding value for 'm' must be a nonnegative integer"),
    (TASK + ("binding", "m"), True, f"{T}: binding value for 'm' must be a nonnegative integer"),
    (TASK + ("binding", "m"), "3", f"{T}: binding value for 'm' must be a nonnegative integer"),
    (TASK + ("binding", "m"), 1.5, f"{T}: binding value for 'm' must be a nonnegative integer"),
    # interval rules
    (STEP, ["pick", 5000, 4000, 7], f"{R}: step ends before it starts"),
    (VISIT + ("exit_ms",), 6000, f"{R}: step interval leaves its page visit"),
    (VISIT + ("enter_ms",), 1000, f"{R}: step interval leaves its page visit"),
    (STEP + ("end_ms",), 8000, f"{R}: step interval leaves its page visit"),
    (TASK + ("page_visits",), [["p0", 7000, 0, []]], f"{V}: page visit exits before it is entered"),
    (TASK + ("page_visits",), late_visit(1000, 2000),
     f"{T}.page_visits[1]: page visits are not in chronological order"),
    (TASK + ("page_visits",), late_visit(9000, 8000),
     f"{T}.page_visits[1]: page visit exits before it is entered"),
]

# Two faults in one task: load_log names the first faulty record in
# document order, checking a record's own fields, then its intervals, then
# its children.
BACKWARDS_VISIT = ["p0", 7000, 0, []]
MULTI_FAULTS = [
    (TASK + ("page_visits",), [BACKWARDS_VISIT, [5, 8000, 9000, []]],
     f"{V}: page visit exits before it is entered"),
    (VISIT + ("steps",), [["pick", 5000, 4000, 7], ["drop", "x", 7000, 1]],
     f"{R}: step ends before it starts"),
    (TASK + ("page_visits",), [BACKWARDS_VISIT[:3] + [[[1, 0, 0, 1]]]],
     f"{V}: page visit exits before it is entered"),
    # within one record: fields, then the child list, then the intervals
    (VISIT, BACKWARDS_VISIT[:3] + ["pick"], f"{V}: 'steps' must be a list"),
    (STEP, ["pick", 5000, 4000, 0], f"{R}: 'is_count' must be >= 1, got 0"),
]

# Every integer of a log must fit in a signed 64-bit integer.
OUT_OF_RANGE = [
    (TASK + ("is_count",), 2**63, f"{T}: 'is_count' is outside the signed 64-bit range"),
    (TASK + ("is_count",), 10**400, f"{T}: 'is_count' is outside the signed 64-bit range"),
    (VISIT + ("enter_ms",), 2**63, f"{V}: 'enter_ms' is outside the signed 64-bit range"),
    (VISIT + ("exit_ms",), 2**64, f"{V}: 'exit_ms' is outside the signed 64-bit range"),
    (STEP + ("start_ms",), 2**63, f"{R}: 'start_ms' is outside the signed 64-bit range"),
    (STEP + ("end_ms",), 2**63, f"{R}: 'end_ms' is outside the signed 64-bit range"),
    (STEP + ("is_count",), 2**63, f"{R}: 'is_count' is outside the signed 64-bit range"),
    (TASK + ("binding", "m"), 2**63,
     f"{T}: binding value for 'm' is outside the signed 64-bit range"),
]

# Edge cases of the interval rules that are valid logs.
ACCEPTED_EDGES = [
    (STEP + ("start_ms",), 7000),
    (STEP + ("end_ms",), 0),
    (VISIT + ("steps",), []),
    (TASK + ("page_visits",), []),
    (TASK + ("page_visits",), late_visit(7000, 9000)),
    (TASK + ("binding",), {}),
    (TASK + ("is_count",), 0),
    (TASK + ("is_count",), 2**63 - 1),
    (STEP + ("is_count",), 2**63 - 1),
    (TASK + ("binding", "m"), 2**63 - 1),
]


# Rows of the wrong shape at each level: an object as format 1 wrote it, a
# field too few, a field too many.
NOT_ROWS = [
    (SESSION, {"session_id": "s0", "tasks": []}, f"{S}: session {NO_SESSION}"),
    (SESSION, ["s0"], f"{S}: session {NO_SESSION}"),
    (SESSION, ["s0", [], "extra"], f"{S}: session {NO_SESSION}"),
    (TASK, at(MINIMAL, TASK)[:4], f"{T}: task {NO_TASK}"),
    (TASK, at(MINIMAL, TASK) + [[]], f"{T}: task {NO_TASK}"),
    (TASK, at(MINIMAL, TASK)[:2] + at(MINIMAL, TASK)[3:], f"{T}: task {NO_TASK}"),
    (VISIT, ["p0", 0, 7000], f"{V}: page visit {NO_VISIT}"),
    (VISIT, {"page": "p0", "enter_ms": 0, "exit_ms": 7000, "steps": []},
     f"{V}: page visit {NO_VISIT}"),
    (STEP, ["pick", 0, 7000], f"{R}: step record {NO_STEP}"),
    (STEP, ["pick", 0, 7000, 7, 7], f"{R}: step record {NO_STEP}"),
    (STEP, "pick", f"{R}: step record {NO_STEP}"),
    # the shape comes before the fields
    (STEP, [None, None, None], f"{R}: step record {NO_STEP}"),
]

FORMAT_1 = {"sessions": [{"session_id": "s0", "tasks": []}]}
# Top levels of a file in another format than 2, with the message each gets.
OTHER_FORMATS = [
    (FORMAT_1, "log format 1 is not read by this version, which reads format 2"),
    (dict(MINIMAL, format=1), "log format 1 is not read by this version, which reads format 2"),
    (dict(MINIMAL, format=3), "log format 3 is not read by this version, which reads format 2"),
    (dict(MINIMAL, format="2"),
     "log format unknown is not read by this version, which reads format 2"),
    (dict(MINIMAL, format=2.0),
     "log format unknown is not read by this version, which reads format 2"),
    (dict(MINIMAL, format=True),
     "log format unknown is not read by this version, which reads format 2"),
    (dict(MINIMAL, format=None),
     "log format unknown is not read by this version, which reads format 2"),
]


def outcome(function, *args):
    """The message of the LogFormatError that function raises, or None."""
    try:
        function(*args)
    except LogFormatError as exc:
        return str(exc)
    return None


def assert_agrees_with_the_loader(log):
    """validate_log and dump_log refuse the log with the message load_log
    gives on its reference text, or accept it as load_log does, and then
    dump_log writes the sorted compact form of that text."""
    expected = outcome(load_log, reference_text(log))
    assert outcome(validate_log, log) == expected
    assert outcome(dump_log, log) == expected
    if expected is None:
        compact = reference_text(log, sort_keys=True, separators=(",", ":"))
        assert dump_log(log) == compact + "\n"


def field_slots(record, path=()):
    """Every field of a record and of the records below it, as (path, name):
    path holds the (child list name, index) pairs that lead to the record."""
    for name in record._fields:
        yield path, name
        value = getattr(record, name)
        if type(value) is tuple:
            for index, child in enumerate(value):
                yield from field_slots(child, path + ((name, index),))


def with_field(record, path, name, value):
    """A copy of record with the field at path replaced by value."""
    if not path:
        return record._replace(**{name: value})
    (children, index), rest = path[0], path[1:]
    items = list(getattr(record, children))
    items[index] = with_field(items[index], rest, name, value)
    return record._replace(**{children: tuple(items)})


# Values put in place of a field or a child list of a valid log.
REPLACEMENTS = [None, "x", 1.5, -1, True, [], {}]


W_S = "sessions[1]"
W_T = W_S + ".tasks[0]"
W_V = W_T + ".page_visits[0]"
W_R = W_V + ".steps[0]"

# One field dump_log must refuse per case, as load_log would refuse it; the
# record sits in the second session, so the path's indices are checked too.
WRITER_REFUSALS = [
    ("step", "end_ms", 0.5, f"{W_R}: 'end_ms' must be an integer"),
    ("step", "end_ms", True, f"{W_R}: 'end_ms' must be an integer"),
    ("step", "end_ms", math.nan, f"{W_R}: 'end_ms' must be an integer"),
    ("step", "end_ms", 2**64, f"{W_R}: 'end_ms' is outside the signed 64-bit range"),
    ("step", "start_ms", -1, f"{W_R}: 'start_ms' must be >= 0, got -1"),
    ("step", "is_count", 0, f"{W_R}: 'is_count' must be >= 1, got 0"),
    ("step", "step_label", None, f"{W_R}: 'step_label' must be a string"),
    ("visit", "page", b"p0", f"{W_V}: 'page' must be a string"),
    ("visit", "enter_ms", 1.0, f"{W_V}: 'enter_ms' must be an integer"),
    ("visit", "exit_ms", 2**63, f"{W_V}: 'exit_ms' is outside the signed 64-bit range"),
    ("task", "task_id", 5, f"{W_T}: 'task_id' must be a string"),
    ("task", "concept_name", None, f"{W_T}: 'concept_name' must be a string"),
    ("task", "is_count", False, f"{W_T}: 'is_count' must be an integer"),
    ("task", "is_count", -1, f"{W_T}: 'is_count' must be >= 0, got -1"),
    ("task", "binding", {3: 1}, f"{W_T}: binding name 3 must be a string"),
    ("task", "binding", {"m": -1},
     f"{W_T}: binding value for 'm' must be a nonnegative integer"),
    ("task", "binding", {"m": 1.5},
     f"{W_T}: binding value for 'm' must be a nonnegative integer"),
    ("task", "binding", {"m": 2**63},
     f"{W_T}: binding value for 'm' is outside the signed 64-bit range"),
    ("session", "session_id", 0, f"{W_S}: 'session_id' must be a string"),
    # interval rules
    ("step", "start_ms", 7001, f"{W_R}: step ends before it starts"),
    ("step", "end_ms", 8000, f"{W_R}: step interval leaves its page visit"),
    ("visit", "exit_ms", 6000, f"{W_R}: step interval leaves its page visit"),
    ("visit", "enter_ms", 8000, f"{W_V}: page visit exits before it is entered"),
]

# A high surrogate directly followed by a low one: JSON writes the pair as
# two escapes and reads them back as the one character U+103FF.
PAIR = "\ud800\udfff"
PAIRED = "holds a high surrogate followed by a low one, which would load back as one character"
SURROGATE_REFUSALS = [
    ("session", "session_id", f"s{PAIR}", f"{W_S}: 'session_id' {PAIRED}"),
    ("task", "task_id", PAIR, f"{W_T}: 'task_id' {PAIRED}"),
    ("task", "concept_name", f"{PAIR}!", f"{W_T}: 'concept_name' {PAIRED}"),
    ("task", "binding", {"m": 1, f"n{PAIR}": 2}, f"{W_T}: binding name 'n\\ud800\\udfff' {PAIRED}"),
    ("visit", "page", f"p{PAIR}", f"{W_V}: 'page' {PAIRED}"),
    ("step", "step_label", f"x{PAIR}y", f"{W_R}: 'step_label' {PAIRED}"),
]


def two_sessions(level=None, key=None, value=None):
    """Two copies of MINIMAL's session, with one field of the second
    session's record at level (session, task, visit or step) replaced."""
    first = load_log(json.dumps(MINIMAL)).sessions[0]
    changes = {"session": {}, "task": {}, "visit": {}, "step": {}}
    if level:
        changes[level][key] = value
    task = first.tasks[0]
    visit = task.page_visits[0]
    step = visit.steps[0]._replace(**changes["step"])
    visit = visit._replace(steps=(step,), **changes["visit"])
    task = task._replace(page_visits=(visit,), **changes["task"])
    second = first._replace(tasks=(task,), **changes["session"])
    return EventLog((first, second))


# The deletion cases were first named by DELETE's repr, which holds its
# address and so changed from run to run; they keep the name of one run.
DELETE_ID = "<object object at 0x7fc29f9a77b0>"


def pool_id(value):
    return DELETE_ID if value is DELETE else repr(value)


# For the loader agreement test: a replacement per kind of fault, and each
# field of each record level in a valid log of two sessions, with the path
# to its record and the rule its check applies.
POOL = [True, 1.0, "1", None, -1, 2**63, DELETE]
L_S = ("sessions", 1)
L_T = L_S + ("tasks", 0)
L_V = L_T + ("page_visits", 2)
L_R = L_V + ("steps", 0)
FIELD_RULES = [
    (L_S, "session_id", str),
    (L_S, "tasks", list),
    (L_T, "task_id", str),
    (L_T, "concept_name", str),
    (L_T, "is_count", 0),
    (L_T, "binding", dict),
    (L_T, "m", "binding value"),
    (L_T, "page_visits", list),
    (L_V, "page", str),
    (L_V, "enter_ms", 0),
    (L_V, "exit_ms", 0),
    (L_V, "steps", list),
    (L_R, "step_label", str),
    (L_R, "start_ms", 0),
    (L_R, "end_ms", 0),
    (L_R, "is_count", 1),
]


def replace_field(data, path, key, rule, value):
    """Replace the field of FIELD_RULES at path and key in a decoded log by
    value (see replace), and return the value its check then reads: a field
    of a row that DELETE left null reads as None."""
    if rule == "binding value":
        replace(at(data, path + ("binding",)), key, value)
        return value
    replace(at(data, path), row_path(path + (key,))[-1], value)
    return None if value is DELETE else value


def expected_fault(key, rule, value):
    """The message the check of a field under rule gives for value, or None
    when it passes: str, list, dict (the binding), "binding value", or an
    integer's least value."""
    if rule == "binding value":
        if value is DELETE:
            return None
        if type(value) is not int or value < 0:
            return f"binding value for {key!r} must be a nonnegative integer"
        if value > 2**63 - 1:
            return f"binding value for {key!r} is outside the signed 64-bit range"
        return None
    if rule is dict:
        return None if type(value) is dict else "'binding' must be an object"
    if rule in (str, list):
        kind = "a string" if rule is str else "a list"
        return None if type(value) is rule else f"{key!r} must be {kind}"
    if type(value) is not int:
        return f"{key!r} must be an integer"
    if value < rule:
        return f"{key!r} must be >= {rule}, got {value}"
    return f"{key!r} is outside the signed 64-bit range" if value > 2**63 - 1 else None


def check_rank(index):
    """Where FIELD_RULES[index] comes in load_log's order of checks: record
    by record down the path, and within a record the binding, its value,
    the scalar fields (listed in checking order) and then the child list."""
    path, _, rule = FIELD_RULES[index]
    within = {dict: 0, "binding value": 1, list: 3}.get(rule, 2)
    return len(path), within, index


def make_log(durations_s, is_count=10, task_id="t", label="step"):
    """One session per duration, one task each, one page visit and step."""
    sessions = []
    for i, duration in enumerate(durations_s):
        ms = round(duration * 1000)
        record = StepRecord(label, 0, ms, is_count)
        visit = PageVisit(label, 0, ms, (record,))
        task = Task(task_id, "demo", {}, is_count, (visit,))
        sessions.append(Session(f"s{i}", (task,)))
    return EventLog(tuple(sessions))


class TestLoad:
    def test_minimal(self):
        log = load_log(json.dumps(MINIMAL))
        assert len(log.sessions) == 1
        step = log.sessions[0].tasks[0].page_visits[0].steps[0]
        assert step == StepRecord("pick", 0, 7000, 7)

    def test_accepts_bytes(self):
        assert load_log(json.dumps(MINIMAL).encode()) == load_log(json.dumps(MINIMAL))

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
    def test_bytes_in_another_encoding_refused(self, encoding):
        with pytest.raises(LogFormatError, match="^not valid JSON: "):
            load_log(json.dumps(MINIMAL).encode(encoding))

    def test_round_trip(self):
        log = load_log(json.dumps(MINIMAL))
        assert load_log(dump_log(log)) == log

    def test_dump_is_deterministic(self):
        log = load_log(json.dumps(MINIMAL))
        assert dump_log(log) == dump_log(load_log(dump_log(log)))

    def test_not_json(self):
        with pytest.raises(LogFormatError):
            load_log(b"{nope")

    @pytest.mark.parametrize(
        "data", [b'{"sessions": [\xff]}', b"[" * 100_000, b'{"sessions": ' + b"1" * 5000 + b"}"]
    )
    def test_undecodable_input(self, data):
        with pytest.raises(LogFormatError, match="not valid JSON"):
            load_log(data)

    def test_missing_sessions(self):
        with pytest.raises(LogFormatError):
            load_log(b"[]")
        with pytest.raises(LogFormatError):
            load_log(b"{}")

    def test_step_escaping_page_visit(self):
        bad = with_fault(STEP + ("end_ms",), 8000)
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(bad))
        assert "sessions[0].tasks[0].page_visits[0].steps[0]" in str(exc.value)
        assert "leaves its page visit" in str(exc.value)

    def test_reversed_interval(self):
        bad = json.loads(json.dumps(MINIMAL))
        visit = at(bad, VISIT)
        visit[1], visit[2] = 7000, 0
        with pytest.raises(LogFormatError):
            load_log(json.dumps(bad))

    def test_unordered_page_visits(self):
        bad = with_fault(TASK + ("page_visits",), late_visit(1000, 2000))
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(bad))
        assert "chronological" in str(exc.value)

    def test_zero_step_is_count_rejected(self):
        bad = with_fault(STEP + ("is_count",), 0)
        with pytest.raises(LogFormatError):
            load_log(json.dumps(bad))

    def test_negative_timestamp_rejected(self):
        bad = with_fault(VISIT + ("enter_ms",), -1)
        with pytest.raises(LogFormatError):
            load_log(json.dumps(bad))

    @pytest.mark.parametrize("path, value, message", SINGLE_FAULTS)
    def test_single_fault_message(self, path, value, message):
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(with_fault(path, value)))
        assert str(exc.value) == message

    @pytest.mark.parametrize("path, value, message", NOT_ROWS)
    def test_row_of_the_wrong_shape(self, path, value, message):
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(with_fault(path, value)))
        assert str(exc.value) == message

    @pytest.mark.parametrize("top, message", OTHER_FORMATS)
    def test_other_format_refused(self, top, message):
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(top))
        assert str(exc.value) == message

    def test_format_checked_before_any_record(self):
        top = dict(with_fault(STEP, "pick"), format=1)
        assert outcome(load_log, json.dumps(top)) == OTHER_FORMATS[0][1]

    def test_any_whitespace_between_tokens(self):
        assert load_log(json.dumps(MINIMAL, indent=4)) == load_log(json.dumps(MINIMAL))

    @pytest.mark.parametrize("path, value, message", MULTI_FAULTS)
    def test_first_fault_in_document_order(self, path, value, message):
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(with_fault(path, value)))
        assert str(exc.value) == message

    @pytest.mark.parametrize("path, value, message", OUT_OF_RANGE)
    def test_integer_out_of_range(self, path, value, message):
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(with_fault(path, value)))
        assert str(exc.value) == message

    def test_timestamps_at_the_top_of_the_range(self):
        top = 2**63 - 1
        visit = ["p", top, top, [["s", top, top, 1]]]
        log = load_log(json.dumps(with_fault(TASK + ("page_visits",), [visit])))
        assert log.sessions[0].tasks[0].page_visits[0].steps[0].end_ms == top

    def test_validate_log_in_memory(self):
        good = make_log([1.0, 2.0])
        validate_log(good)
        escaping = PageVisit("p", 0, 500, (StepRecord("step", 0, 600, 1),))
        bad = EventLog(good.sessions + (Session("s2", (Task("t", "demo", {}, 1, (escaping,)),)),))
        with pytest.raises(LogFormatError) as exc:
            validate_log(bad)
        assert str(exc.value) == (
            "sessions[2].tasks[0].page_visits[0].steps[0]: step interval leaves its page visit"
        )

    @pytest.mark.parametrize("path, value", ACCEPTED_EDGES)
    def test_interval_edges_accepted(self, path, value):
        log = load_log(json.dumps(with_fault(path, value)))
        assert load_log(dump_log(log)) == log


def compact(data):
    """data in dump_log's layout: no spaces, keys in the order given."""
    return json.dumps(data, separators=(",", ":"))


def whole_text_outcome(text):
    """What load_log gives by decoding all of text with json.loads, then
    building the records: the log, or the message of its fault."""
    try:
        return logs._log_from(logs._decoded(text))
    except LogFormatError as exc:
        return str(exc)


def decoded_whole(monkeypatch):
    """A list that gets one entry each time load_log decodes a text whole."""
    calls = []
    decoded = logs._decoded
    monkeypatch.setattr(logs, "_decoded", lambda text: calls.append(text) or decoded(text))
    return calls


SESSION_0 = compact(MINIMAL["sessions"][0])
SESSION_1 = compact(["s1", []])
# Texts of another layout than dump_log's, or that leave it part way, each
# of which load_log decodes whole; compact(MINIMAL) is in dump_log's layout.
OTHER_LAYOUTS = {
    "indented": json.dumps(MINIMAL, indent=1),
    "sessions first": compact({"sessions": MINIMAL["sessions"], "format": 2}),
    "extra key after": compact(dict(MINIMAL, extra=[1])),
    "extra key before": compact({"format": 2, "extra": 1, "sessions": MINIMAL["sessions"]}),
    "duplicate sessions": f'{{"format":2,"sessions":[{SESSION_0}],"sessions":[{SESSION_1}]}}',
    "faulty then duplicate": f'{{"format":2,"sessions":[5],"sessions":[{SESSION_1}]}}',
    "format 20": compact(dict(MINIMAL, format=20)),
    "format 2.0": compact(dict(MINIMAL, format=2.0)),
    "space after a comma": f'{{"format":2,"sessions":[{SESSION_0}, {SESSION_1}]}}',
    "trailing comma": f'{{"format":2,"sessions":[{SESSION_0},]}}',
    "no sessions after the head": '{"format":2,"sessions":[',
    "unclosed sessions": f'{{"format":2,"sessions":[{SESSION_0}',
    "byte order mark": "\ufeff" + compact(MINIMAL),
    "text after the object": compact(MINIMAL) + "x",
    "second object": compact(MINIMAL) + compact(MINIMAL),
    "form feed after the object": compact(MINIMAL) + "\f",
    "no-break space after the object": compact(MINIMAL) + "\u00a0",
    "faulty record, then a syntax error":
        f'{{"format":2,"sessions":[{compact(with_fault(STEP, [])["sessions"][0])},[}}',
    "deep nesting": '{"format":2,"sessions":[' + "[" * 100_000,
    "long integer": '{"format":2,"sessions":[["s0",[["t0","c",{},' + "1" * 5000,
}


class TestStreamedLoad:
    """A text in dump_log's layout is decoded one session at a time; any
    other layout, and any fault, gives what decoding the whole text gives."""

    CASES = SINGLE_FAULTS + NOT_ROWS + MULTI_FAULTS + OUT_OF_RANGE

    @pytest.mark.parametrize("path, value, message", CASES)
    def test_fault_in_dump_log_layout(self, path, value, message):
        text = compact(with_fault(path, value))
        assert outcome(load_log, text) == whole_text_outcome(text) == message

    @pytest.mark.parametrize("top, message", OTHER_FORMATS)
    def test_other_format_in_dump_log_layout(self, top, message):
        text = compact(top)
        assert outcome(load_log, text) == whole_text_outcome(text) == message

    @pytest.mark.parametrize("path, value", ACCEPTED_EDGES)
    def test_valid_log_is_not_decoded_whole(self, monkeypatch, path, value):
        expected = load_log(json.dumps(with_fault(path, value)))
        calls = decoded_whole(monkeypatch)
        assert load_log(compact(with_fault(path, value))) == expected
        assert calls == []

    @pytest.mark.parametrize("name", list(OTHER_LAYOUTS))
    def test_other_layout_decoded_whole(self, monkeypatch, name):
        text = OTHER_LAYOUTS[name]
        calls = decoded_whole(monkeypatch)
        loaded = outcome(load_log, text) or load_log(text)
        assert calls[0] == text
        assert loaded == whole_text_outcome(text)

    def test_duplicate_sessions_key_last_wins(self):
        loaded = load_log(OTHER_LAYOUTS["duplicate sessions"])
        assert loaded == EventLog((Session("s1", ()),))

    @pytest.mark.parametrize("before, after", [("", "\n"), ("\n", ""), (" \t\r\n", " \t\r\n")])
    def test_json_whitespace_around_the_closing_brace(self, monkeypatch, before, after):
        text = f'{{"format":2,"sessions":[{SESSION_0},{SESSION_1}]{before}}}{after}'
        expected = whole_text_outcome(text)
        calls = decoded_whole(monkeypatch)
        assert load_log(text) == expected
        assert calls == []

    def test_empty_sessions(self, monkeypatch):
        calls = decoded_whole(monkeypatch)
        assert load_log('{"format":2,"sessions":[]}\n') == EventLog(())
        assert calls == []

    def test_generated_log_is_not_decoded_whole(self, monkeypatch, v2_concept):
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 20, 1.05, 0.2))
        calls = decoded_whole(monkeypatch)
        assert load_log(dump_log(log).encode()) == log
        assert calls == []

    def test_fault_in_a_later_session(self, v2_concept):
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 5, 1.05, 0.2))
        data = json.loads(dump_log(log))
        # The end_ms of the first step of session 3's second page visit.
        data["sessions"][3][1][0][4][1][3][0][2] = 10**9
        text = compact(data)
        message = whole_text_outcome(text)
        assert message == (
            "sessions[3].tasks[0].page_visits[1].steps[0]: step interval leaves its page visit"
        )
        assert outcome(load_log, text) == message

    def test_peak_below_that_of_the_decoded_tree(self, v2_concept):
        text = dump_log(generate_log(SynthConfig(v2_concept, V2_BINDING, 2000, 1.05, 0.2)))

        def peak(function):
            tracemalloc.start()
            try:
                function(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(load_log) < peak(json.loads)

    def test_equal_strings_are_one_object(self):
        # Decoded text gives each occurrence its own str object.
        visits = [[f"p{i % 2}", i, i, [[f"a{i % 3}", i, i, 1]]] for i in range(12)]
        tasks = [[f"t{i % 2}", "c", {}, 0, visits] for i in range(3)]
        text = compact({"format": 2, "sessions": [["s0", tasks], ["s1", tasks]]})
        for data in (text, json.dumps(json.loads(text))):
            log = load_log(data)
            objects = {}
            for session in log.sessions:
                for task in session.tasks:
                    for visit in task.page_visits:
                        for string in (task.task_id, task.concept_name, visit.page,
                                       *(step.step_label for step in visit.steps)):
                            assert objects.setdefault(string, string) is string
            assert sorted(objects) == ["a0", "a1", "a2", "c", "p0", "p1", "t0", "t1"]


class TestDump:
    @settings(max_examples=60)
    @given(event_logs())
    def test_writer_matches_the_sorted_compact_encoder(self, log):
        text = dump_log(log)
        assert text == reference_text(log, sort_keys=True, separators=(",", ":")) + "\n"
        assert load_log(text) == log

    @pytest.mark.parametrize("level, key, value, message", WRITER_REFUSALS)
    def test_writer_refuses_what_the_loader_refuses(self, level, key, value, message):
        log = two_sessions(level, key, value)
        with pytest.raises(LogFormatError) as exc:
            dump_log(log)
        assert str(exc.value) == message

    def test_unchanged_copy_is_written(self):
        log = two_sessions()
        assert load_log(dump_log(log)) == log

    @pytest.mark.parametrize("level, key, value, message", SURROGATE_REFUSALS)
    def test_writer_refuses_a_surrogate_pair(self, level, key, value, message):
        with pytest.raises(LogFormatError) as exc:
            dump_log(two_sessions(level, key, value))
        assert str(exc.value) == message

    def test_first_record_holding_the_pair_is_named(self):
        # The task_id is written before the label that holds the same text.
        log = two_sessions("step", "step_label", PAIR)
        session = log.sessions[1]
        task = session.tasks[0]._replace(task_id=PAIR)
        log = EventLog((log.sessions[0], session._replace(tasks=(task,))))
        with pytest.raises(LogFormatError) as exc:
            dump_log(log)
        assert str(exc.value) == f"{W_T}: 'task_id' {PAIRED}"

    def test_the_concept_name_is_written_before_the_binding(self):
        log = two_sessions("task", "binding", {f"n{PAIR}": 1})
        session = log.sessions[1]
        task = session.tasks[0]._replace(concept_name=f"n{PAIR}")
        log = EventLog((log.sessions[0], session._replace(tasks=(task,))))
        assert outcome(dump_log, log) == f"{W_T}: 'concept_name' {PAIRED}"

    @pytest.mark.parametrize(
        "text", ["\ud800", "\udfff", "\udfff\ud800", "\ud800 \udfff", "\U000103ff"]
    )
    def test_lone_and_reversed_surrogates_round_trip(self, text):
        log = two_sessions("session", "session_id", text)
        assert load_log(dump_log(log)) == log

    def test_a_binding_of_any_mapping_type_is_written_as_the_equal_dict(self):
        binding = {"m": 3, "a": 7}
        as_proxy = two_sessions("task", "binding", MappingProxyType(binding))
        assert dump_log(as_proxy) == dump_log(two_sessions("task", "binding", binding))

    def test_a_list_that_holds_itself_is_refused_as_a_record(self):
        steps = []
        steps.append(steps)
        visit = PageVisit("p0", 0, 7000, steps)
        log = EventLog((Session("s0", (Task("t0", "demo", {}, 7, (visit,)),)),))
        assert outcome(dump_log, log) == f"{R}: step record {NO_STEP}"

    def test_a_binding_that_holds_itself_is_refused_by_its_value(self):
        binding = {"m": 1}
        binding["n"] = binding
        log = two_sessions("task", "binding", binding)
        assert outcome(dump_log, log) == (
            f"{W_T}: binding value for 'n' must be a nonnegative integer"
        )

    @pytest.mark.parametrize("text, searched", [
        ("plain", False), ("\u00e9t\u00e9", False), ("\U0001f600", True),
        # A backslash before "ud" is written as \\ud..., which holds "\ud"
        # but no surrogate.
        ("\\ud800", True), ("a\\udfff\\ud800", True), ("\\ud", True),
    ])
    def test_only_a_text_with_a_surrogate_escape_is_searched_for_pairs(
        self, monkeypatch, text, searched
    ):
        walks = []
        walk = logs._strings
        monkeypatch.setattr(logs, "_strings", lambda log: walks.append(log) or walk(log))
        log = two_sessions("step", "step_label", text)
        assert load_log(dump_log(log)) == log
        assert bool(walks) is searched


class TestLoaderAgreement:
    """The check of one field, replaced in a valid log, gives load_log's
    outcome: its message at the path of the field's record, or the log."""

    @pytest.fixture(scope="class")
    def document(self, v2_concept):
        return json.loads(dump_log(generate_log(SynthConfig(v2_concept, V2_BINDING, 2, 1.0))))

    @pytest.mark.parametrize("value", POOL, ids=pool_id)
    @pytest.mark.parametrize("path, key, rule", FIELD_RULES, ids=[key for _, key, _ in FIELD_RULES])
    def test_replaced_field(self, document, path, key, rule, value):
        data = json.loads(json.dumps(document))
        message = expected_fault(key, rule, replace_field(data, path, key, rule, value))
        if message is None:
            assert json.loads(reference_text(load_log(json.dumps(data)))) == data
            return
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(data))
        where = ".".join(f"{name}[{index}]" for name, index in zip(path[::2], path[1::2]))
        assert str(exc.value) == f"{where}: {message}"


    @given(st.lists(st.tuples(st.integers(0, len(FIELD_RULES) - 1), st.sampled_from(POOL)),
                    min_size=1, max_size=3, unique_by=lambda change: change[0]))
    def test_first_replaced_field_in_document_order(self, document, changes):
        data = json.loads(json.dumps(document))
        # Innermost first, and a binding value before its binding, so each
        # replacement still finds its holder.
        checked = {}
        for index, value in sorted(changes, key=lambda change: check_rank(change[0]), reverse=True):
            checked[index] = replace_field(data, *FIELD_RULES[index], value)
        replaced = {FIELD_RULES[index][2] for index, _ in changes}
        expected = None
        for index, _ in sorted(changes, key=lambda change: check_rank(change[0])):
            path, key, rule = FIELD_RULES[index]
            if rule == "binding value" and dict in replaced:
                continue  # the binding it sat in was replaced as a whole
            if message := expected_fault(key, rule, checked[index]):
                where = ".".join(f"{name}[{i}]" for name, i in zip(path[::2], path[1::2]))
                expected = f"{where}: {message}"
                break
        if expected is None:
            assert json.loads(reference_text(load_log(json.dumps(data)))) == data
            return
        with pytest.raises(LogFormatError) as exc:
            load_log(json.dumps(data))
        assert str(exc.value) == expected

    @given(event_logs(free_intervals=True))
    def test_validate_log_agrees_with_the_loader(self, log):
        assert_agrees_with_the_loader(log)

    @given(event_logs(), st.data())
    def test_replaced_field_or_child_list_in_memory(self, log, data):
        path, name = data.draw(st.sampled_from(list(field_slots(log))))
        value = data.draw(st.sampled_from(REPLACEMENTS))
        assert_agrees_with_the_loader(with_field(log, path, name, value))

    @pytest.mark.parametrize("value", REPLACEMENTS, ids=repr)
    @pytest.mark.parametrize("path, name", list(field_slots(two_sessions())))
    def test_each_field_replaced_in_memory(self, path, name, value):
        assert_agrees_with_the_loader(with_field(two_sessions(), path, name, value))

    def test_wrong_typed_timestamp_before_the_intervals(self):
        visit = PageVisit("p", "1", 2)
        log = EventLog((Session("s", (Task("t", "c", {}, 1, (visit,)),)),))
        with pytest.raises(LogFormatError) as exc:
            validate_log(log)
        assert str(exc.value) == "sessions[0].tasks[0].page_visits[0]: 'enter_ms' must be an integer"

    def test_a_value_that_is_not_a_record(self):
        log = EventLog((Session("s", ({"task_id": "t"},)),))
        assert outcome(validate_log, log) == f"sessions[0].tasks[0]: task {NO_TASK}"

    @pytest.mark.parametrize("log, message", [
        # The second place of one visit is entered before the first exits.
        (EventLog((Session("s", (Task("t", "c", {}, 1, (PageVisit("p", 0, 5, ()),) * 2),)),)),
         "sessions[0].tasks[0].page_visits[1]: page visits are not in chronological order"),
        (EventLog((["s", ()],)), f"sessions[0]: session {NO_SESSION}"),
        (EventLog((Session(type("Id", (str,), {})("s"), ()),)),
         "sessions[0]: 'session_id' must be a string"),
        (EventLog((Session("s", (Task("t", "c", {}, 1, (
            PageVisit("p", 0, 5, (StepRecord("a", 1, 2, 1),) * 2),
        )),)),)), None),
        (EventLog((Session("s", (Task("t", "c", {}, 1, (PageVisit("p", 0, 5, ()),)),) * 2),)),
         None),
    ], ids=["repeated visit", "list session", "str subclass id", "repeated step",
            "repeated task"])
    def test_repeated_or_foreign_rows_in_memory(self, log, message):
        assert outcome(validate_log, log) == message
        assert outcome(dump_log, log) == message


class TestGcState:
    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        """The collector as the caller left it; restored afterwards."""
        was_enabled = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_inside(self, collector):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is collector

    def test_bulk_builders_restore_it(self, collector, v2_concept):
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 3, 1.05, 0.2))
        assert gc.isenabled() is collector
        text = dump_log(log)
        assert gc.isenabled() is collector
        assert load_log(text) == log
        assert gc.isenabled() is collector

    def test_large_build_collected_once_on_exit(self, collector, v2_concept):
        # 1000 sessions leave about 16,000 tracked objects, more than the default
        # 700 * 10 young allocations, so one full collection runs on exit,
        # and is the last, when the collector was on; none runs when the
        # caller had it off.
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            generate_log(SynthConfig(v2_concept, V2_BINDING, 1000, 1.05, 0.2))
        finally:
            gc.callbacks.remove(record)
        if collector:
            assert generations.count(2) == 1 and generations[-1] == 2
        else:
            assert generations == []

    def test_failed_load_restores_it(self, collector):
        bad = with_fault(TASK + ("page_visits",), late_visit(1000, 2000))
        with pytest.raises(LogFormatError):
            load_log(json.dumps(bad))
        assert gc.isenabled() is collector


class TestRecordTuples:
    """The records are named tuples: built by position or by keyword,
    immutable, and compared and hashed as tuples."""

    def test_positional_and_keyword_construction(self):
        record = StepRecord("a", 0, 1, 1)
        assert type(record) is StepRecord
        assert record == StepRecord(step_label="a", start_ms=0, end_ms=1, is_count=1)
        assert (record.step_label, record.start_ms, record.end_ms, record.is_count) == (
            "a", 0, 1, 1,
        )
        assert PageVisit("p", 0, 1) == PageVisit(page="p", enter_ms=0, exit_ms=1, steps=())

    def test_setting_a_field_raises(self):
        record = StepRecord("a", 0, 1, 1)
        with pytest.raises(AttributeError):
            record.end_ms = 2
        assert record.end_ms == 1

    def test_hash(self):
        visit = PageVisit("p", 0, 1, (StepRecord("a", 0, 1, 1),))
        assert hash(visit) == hash(PageVisit("p", 0, 1, (StepRecord("a", 0, 1, 1),)))
        assert len({visit, PageVisit("p", 0, 1, (StepRecord("a", 0, 1, 1),))}) == 1
        with pytest.raises(TypeError):
            hash(Task("t", "c", {"m": 1}, 1, (visit,)))

    def test_tuple_equality(self):
        assert StepRecord("a", 0, 1, 1) == ("a", 0, 1, 1)
        assert IqrBounds(1.0, 2.0, -0.5, 3.5) == (1.0, 2.0, -0.5, 3.5)

    def test_an_equal_plain_tuple_is_no_record(self):
        # Equality is the tuple's, but each check asks for the record's type.
        visit = PageVisit("p", 0, 1, (("a", 0, 1, 1),))
        log = EventLog((Session("s", (Task("t", "c", {}, 1, (visit,)),)),))
        assert outcome(validate_log, log) == (
            f"sessions[0].tasks[0].page_visits[0].steps[0]: step record {NO_STEP}"
        )


def sharing(*bindings):
    """A log of one session per binding given, each with one task holding
    that binding object as it is."""
    visit = PageVisit("p0", 0, 7000, (StepRecord("pick", 0, 7000, 7),))
    return EventLog(tuple(
        Session(f"s{index}", (Task("t0", "demo", binding, 7, (visit,)),))
        for index, binding in enumerate(bindings)
    ))


class TestSharedBinding:
    """Tasks that share one binding object, as generate_log's do, are
    checked and written as if each held its own copy."""

    def test_generated_tasks_share_one_binding(self, v2_concept):
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 3, 1.05, 0.2))
        bindings = {id(task.binding) for session in log.sessions for task in session.tasks}
        assert len(bindings) == 1
        assert log.sessions[0].tasks[0].binding == V2_BINDING
        assert log.sessions[0].tasks[0].binding is not V2_BINDING

    def test_bad_shared_binding_refused_at_the_first_task(self):
        log = sharing(*[{"m": 3, "n": -1}] * 4)
        message = "sessions[0].tasks[0]: binding value for 'n' must be a nonnegative integer"
        assert outcome(validate_log, log) == message
        assert outcome(dump_log, log) == message

    def test_later_task_with_its_own_bad_binding_refused_there(self):
        shared = {"m": 3}
        log = sharing(shared, shared, {"m": -1}, shared)
        message = "sessions[2].tasks[0]: binding value for 'm' must be a nonnegative integer"
        assert outcome(validate_log, log) == message
        assert outcome(dump_log, log) == message

    def test_written_as_per_task_copies(self, v2_concept):
        generated = generate_log(SynthConfig(v2_concept, V2_BINDING, 4, 1.05, 0.2))
        first, second = {"m": 3}, {"m": 4, "n": 0}
        for log in (generated, sharing(first, first, second, first, second, second)):
            copies = EventLog(tuple(
                session._replace(tasks=tuple(
                    task._replace(binding=dict(task.binding)) for task in session.tasks
                ))
                for session in log.sessions
            ))
            assert dump_log(log) == dump_log(copies)
            assert load_log(dump_log(log)) == log

    def test_loaded_consecutive_equal_bindings_are_one_object(self):
        first, second = {"m": 3, "n": 0}, {"m": 4}
        text = reference_text(sharing(first, dict(first), {}, {}, second, first))
        tasks = [session.tasks[0] for session in load_log(text).sessions]
        assert [task.binding for task in tasks] == [first, first, {}, {}, second, first]
        assert tasks[0].binding is tasks[1].binding
        assert tasks[2].binding is tasks[3].binding
        assert tasks[5].binding is not tasks[0].binding

    def test_equal_binding_of_a_bool_refused_at_its_own_task(self):
        # {"a": 1} == {"a": True}: the binding is checked before it is shared.
        text = reference_text(sharing({"a": 1}, {"a": True}, {"a": 1}))
        assert outcome(load_log, text) == (
            "sessions[1].tasks[0]: binding value for 'a' must be a nonnegative integer"
        )


class TestIqrFilter:
    def test_documented_example(self):
        retained, bounds = iqr_filter([1, 2, 3, 4, 100])
        assert retained == [1, 2, 3, 4]
        assert (bounds.q1, bounds.q3) == (2.0, 4.0)
        assert (bounds.lower, bounds.upper) == (-1.0, 7.0)

    def test_constant_data(self):
        retained, bounds = iqr_filter([5, 5, 5])
        assert retained == [5, 5, 5]
        assert bounds.iqr == 0.0

    def test_single_sample(self):
        retained, bounds = iqr_filter([7])
        assert retained == [7]
        assert bounds.q1 == bounds.q3 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            iqr_filter([])

    def test_idempotent_on_original_bounds(self):
        samples = [1.0, 2.0, 3.0, 4.0, 100.0, 0.5, 2.5]
        retained, bounds = iqr_filter(samples)
        again = [s for s in retained if bounds.lower <= s <= bounds.upper]
        assert again == retained

    def test_order_preserved(self):
        retained, _ = iqr_filter([4, 1, 100, 2, 3])
        assert retained == [4, 1, 2, 3]


class TestTaskTable:
    def test_constant_speed(self):
        rows = task_table(make_log([10.0] * 5))
        assert len(rows) == 1
        row = rows[0]
        assert (row.group, row.n, row.is_count) == ("t", 5, 10)
        assert row.mean_is_per_s == pytest.approx(1.0)

    def test_outlier_removed(self):
        rows = task_table(make_log([10.0, 10.0, 10.0, 10.0, 1000.0]))
        assert rows[0].n == 4
        assert rows[0].mean_is_per_s == pytest.approx(1.0)

    def test_mixed_is_count_rejected(self):
        log = EventLog(
            make_log([10.0], is_count=5).sessions + make_log([10.0], is_count=6).sessions
        )
        with pytest.raises(DomainError):
            task_table(log)

    def test_group_by_concept_name(self):
        log = EventLog(
            make_log([10.0], task_id="t1").sessions + make_log([20.0], task_id="t2").sessions
        )
        assert len(task_table(log, "task_id")) == 2
        assert len(task_table(log, "concept_name")) == 1

    def test_unknown_grouping(self):
        with pytest.raises(DomainError):
            task_table(EventLog(), "session_id")

    def test_empty_log(self):
        assert task_table(EventLog()) == []

    def test_task_without_visits_warns(self):
        log = EventLog((Session("s0", (Task("t", "demo", {}, 5, ()),)),))
        with pytest.warns(AnalyticsWarning):
            assert task_table(log) == []

    def test_determinism_under_session_order(self):
        forward = make_log([10.0, 12.0, 14.0])
        backward = EventLog(tuple(reversed(forward.sessions)))
        assert task_table(forward) == task_table(backward)

    def test_column_identity(self):
        for row in task_table(make_log([3.0, 5.0, 8.0, 13.0])):
            assert row.mean_is_per_s * row.mean_s == pytest.approx(row.is_count, rel=1e-9)

    def test_gaps_between_pages_count(self):
        visits = (
            PageVisit("p0", 0, 1000, (StepRecord("a", 0, 1000, 2),)),
            PageVisit("p1", 3000, 4000, (StepRecord("b", 3000, 4000, 2),)),
        )
        log = EventLog((Session("s0", (Task("t", "demo", {}, 4, visits),)),))
        rows = task_table(log)
        assert rows[0].mean_s == pytest.approx(4.0)


class TestTableRows:
    def test_rows_are_speed_stats_in_column_order(self):
        # 1000 s is an outlier in both tables and is dropped before the row forms.
        log = make_log([4.7, 4.8, 5.0, 1000.0], is_count=7, label="pick")
        for rows in (task_table(log), step_table(log)):
            (row,) = rows
            assert type(row) is SpeedStats
            assert row == speed_stats([(7, 4.7), (7, 4.8), (7, 5.0)], row.group)
            assert list(row._fields) == [
                "is_count" if column == "is" else column for column in TABLE_COLUMNS
            ]
        assert [rows[0].group for rows in (task_table(log), step_table(log))] == ["t", "pick"]


class TestStepTable:
    def test_reference_step_row(self):
        # 7 IS at mean 4.75 s must come out at 1.47 IS/sec
        rows = step_table(make_log([4.70, 4.80], is_count=7, label="pick a movie"))
        row = rows[0]
        assert row.group == "pick a movie"
        assert row.mean_s == pytest.approx(4.75)
        assert round(row.mean_is_per_s, 2) == 1.47

    def test_single_record(self):
        rows = step_table(make_log([2.0], is_count=2))
        assert rows[0].mean_is_per_s == pytest.approx(1.0)

    def test_mixed_is_count_under_label_rejected(self):
        log = EventLog(
            make_log([2.0], is_count=2).sessions + make_log([2.0], is_count=3).sessions
        )
        with pytest.raises(DomainError):
            step_table(log)

    def test_zero_duration_step_warns(self):
        record = StepRecord("blink", 0, 0, 1)
        visit = PageVisit("p", 0, 0, (record,))
        log = EventLog((Session("s0", (Task("t", "demo", {}, 1, (visit,)),)),))
        with pytest.warns(AnalyticsWarning):
            assert step_table(log) == []

    def test_labels_sorted(self):
        log = EventLog(
            make_log([1.0], is_count=1, label="zz").sessions
            + make_log([1.0], is_count=1, label="aa").sessions
        )
        assert [row.group for row in step_table(log)] == ["aa", "zz"]


# A few names, so that groups form; each task id has one concept name, and
# each task id, concept name and label one IS count, unless a log mixes them.
TASK_CONCEPTS = {"t0": "demo", "t1": "demo", "é": "other"}
LABELS = ("pick", "seat", "\ud800")


def drawn_count(draw, mixed, name, least):
    return draw(st.integers(least, least + 2)) if mixed else least + len(name)


@st.composite
def table_logs(draw):
    """Valid logs for the tables: empty sessions, tasks without visits and
    zero-length tasks and steps among them, and now and then a log whose
    groups mix IS counts."""
    mixed = draw(st.integers(0, 4)) == 0
    lengths = st.sampled_from((0, 1, 250, 999, 1500, 60_000))
    sessions = []
    for index in range(draw(st.integers(0, 4))):
        tasks = []
        for _ in range(draw(st.integers(0, 3))):
            task_id = draw(st.sampled_from(sorted(TASK_CONCEPTS)))
            concept_name = TASK_CONCEPTS[task_id]
            clock = draw(st.sampled_from((0, 1000, 2**62)))
            visits = []
            for _ in range(draw(st.integers(0, 2))):
                enter = clock = clock + draw(lengths)
                steps = []
                for _ in range(draw(st.integers(0, 3))):
                    start = clock + draw(st.sampled_from((0, 250)))
                    clock = start + draw(lengths)
                    label = draw(st.sampled_from(LABELS))
                    steps.append(StepRecord(label, start, clock, drawn_count(draw, mixed, label, 1)))
                clock += draw(st.sampled_from((0, 700)))
                visits.append(PageVisit("p", enter, clock, tuple(steps)))
            count = drawn_count(draw, mixed, concept_name, 0)
            tasks.append(Task(task_id, concept_name, {"m": 1}, count, tuple(visits)))
        sessions.append(Session(f"s{index}", tuple(tasks)))
    return EventLog(tuple(sessions))


def tables_outcome(function, *args):
    """What function(*args) gives: its result and the messages of the
    AnalyticsWarnings it issued, in order, or the type, message and path of
    the IxComplexError it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = function(*args)
        except IxComplexError as exc:
            return type(exc), str(exc), getattr(exc, "where", None)
    assert all(warning.category is AnalyticsWarning for warning in caught)
    return result, [str(warning.message) for warning in caught]


def reference_tables(data, group_by, tables):
    """The tables as the log's records give them: task_table and step_table
    of load_log(data), after the warning for a log without tasks."""
    log = load_log(data)
    if not any(session.tasks for session in log.sessions):
        warnings.warn("log contains no tasks", AnalyticsWarning)
    rows = {}
    if tables in ("task", "both"):
        rows["task"] = task_table(log, group_by)
    if tables in ("step", "both"):
        rows["step"] = step_table(log)
    return rows


def record_rows(log, group_by, tables):
    """The rows as the records' own properties give them, each row's
    figures worked out here, apart from the group code that log_tables and
    task_table share; for a log whose groups do not mix IS counts."""
    samples = {"task": {}, "step": {}}
    for session in log.sessions:
        for task in session.tasks:
            if task.page_visits and task.duration_s > 0:
                samples["task"].setdefault(getattr(task, group_by), []).append(
                    (task.is_count, task.duration_s)
                )
            for visit in task.page_visits:
                for step in visit.steps:
                    if step.end_ms > step.start_ms:
                        samples["step"].setdefault(step.step_label, []).append(
                            (step.is_count, (step.end_ms - step.start_ms) / 1000.0)
                        )
    rows = {}
    for name in ("task", "step"):
        if tables in (name, "both"):
            rows[name] = []
            for key, pairs in sorted(samples[name].items()):
                durations, _ = logs.iqr_filter([duration for _, duration in pairs])
                if durations:
                    count, mean = pairs[0][0], sum(durations) / len(durations)
                    fastest, slowest = min(durations), max(durations)
                    rows[name].append(SpeedStats(
                        key, len(durations), count, fastest, slowest, mean,
                        count / fastest, count / slowest, count / mean,
                    ))
    return rows


def emptying_filter(samples):
    """An outlier filter that drops every duration of 1 s or more."""
    return [sample for sample in samples if sample < 1.0], None


def assert_tables_agree(text, group_by="task_id", tables="both"):
    """log_tables(text) gives what the reference gives; returns that."""
    expected = tables_outcome(reference_tables, text, group_by, tables)
    assert tables_outcome(log_tables, text, group_by, tables) == expected
    return expected


class TestLogTables:
    """log_tables reduces a file straight to its tables, and gives what the
    tables of its records give: rows and warnings, or the exception."""

    @settings(max_examples=300, deadline=None)
    @given(
        table_logs(),
        st.sampled_from(("task_id", "concept_name")),
        st.sampled_from(("task", "step", "both")),
        st.booleans(),
    )
    def test_agrees_with_the_record_tables(self, log, group_by, tables, emptying):
        # Outlier removal never empties a group of real durations, so an
        # emptied group comes from a filter that drops all long ones.
        with pytest.MonkeyPatch.context() as patch:
            if emptying:
                patch.setattr(logs, "iqr_filter", emptying_filter)
            streamed = assert_tables_agree(dump_log(log), group_by, tables)
            whole = assert_tables_agree(reference_text(log, indent=1), group_by, tables)
            if len(streamed) == 2:
                assert streamed[0] == record_rows(log, group_by, tables)
        assert streamed == whole

    @pytest.mark.parametrize("log, expected", [
        (make_log([2.0, 0.0, 2.0]),
         ["task 't' in session 's1' has zero duration; skipped",
          "step 'step' in session 's1' has zero duration; skipped"]),
        (EventLog((Session("s0"), Session("s1", (Task("t", "demo", {}, 1),)))),
         ["task 't' in session 's1' has no page visits; skipped"]),
        (EventLog((Session("s0"),)), ["log contains no tasks"]),
        (EventLog(), ["log contains no tasks"]),
    ])
    def test_skipped_samples_warn_in_document_order(self, log, expected):
        for text in (dump_log(log), reference_text(log, indent=1)):
            _, messages = assert_tables_agree(text)
            assert messages == expected

    @pytest.mark.parametrize("group_by", ["task_id", "concept_name"])
    def test_group_that_mixes_counts(self, group_by):
        log = EventLog(make_log([2.0], is_count=5).sessions + make_log([3.0], is_count=6).sessions)
        assert assert_tables_agree(dump_log(log), group_by) == (
            DomainError, "group 't' mixes IS counts [5, 6]" if group_by == "task_id"
            else "group 'demo' mixes IS counts [5, 6]", None,
        )

    def test_group_emptied_by_outlier_removal(self, monkeypatch):
        monkeypatch.setattr(logs, "iqr_filter", emptying_filter)
        log = EventLog(make_log([0.5], task_id="a", label="x").sessions
                       + make_log([2.0], task_id="b", label="y").sessions)
        rows, messages = assert_tables_agree(dump_log(log))
        assert [row.group for table in rows.values() for row in table] == ["a", "x"]
        assert messages == ["group 'b' is empty after outlier removal; omitted",
                            "group 'y' is empty after outlier removal; omitted"]

    def test_warnings_come_after_every_table(self):
        # task_table warns before step_table raises; log_tables raises alone.
        log = EventLog(make_log([0.0]).sessions
                       + make_log([2.0], is_count=2, label="x").sessions
                       + make_log([2.0], is_count=3, label="x").sessions)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="mixes IS counts"):
                log_tables(dump_log(log))
        assert caught == []

    @pytest.mark.parametrize("path, value, message",
                             SINGLE_FAULTS + NOT_ROWS + MULTI_FAULTS + OUT_OF_RANGE)
    def test_fault(self, path, value, message):
        for text in (compact(with_fault(path, value)), json.dumps(with_fault(path, value), indent=1)):
            assert assert_tables_agree(text) == (LogFormatError, message, message.split(": ")[0]
                                                 if message.startswith("sessions") else "")

    @pytest.mark.parametrize("top, message", OTHER_FORMATS)
    def test_other_format(self, top, message):
        assert assert_tables_agree(compact(top)) == (LogFormatError, message, "")

    @pytest.mark.parametrize("path, value", ACCEPTED_EDGES)
    def test_interval_edges(self, path, value):
        for tables in ("task", "step", "both"):
            rows, _ = assert_tables_agree(compact(with_fault(path, value)), "task_id", tables)
            assert list(rows) == {"task": ["task"], "step": ["step"]}.get(tables, ["task", "step"])

    def test_generated_log(self, v2_concept):
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 50, 1.05, 0.25, seed=3))
        for group_by in ("task_id", "concept_name"):
            rows, messages = assert_tables_agree(dump_log(log), group_by)
            assert messages == [] and [len(rows["task"]), len(rows["step"])] == [1, 4]

    def test_bad_arguments(self):
        text = dump_log(make_log([1.0]))
        assert assert_tables_agree(text, "session_id", "both") == (
            DomainError, "group_by must be 'task_id' or 'concept_name', got 'session_id'", None
        )
        # The step table does not group tasks, so it takes any group_by.
        assert tables_outcome(log_tables, text, "session_id", "step")[0].keys() == {"step"}
        with pytest.raises(DomainError, match="tables must be 'task', 'step' or 'both'"):
            log_tables(text, "task_id", "tasks")

    @pytest.mark.parametrize("text", [
        dump_log(make_log([1.0, 2.0, 4.0])), "[]", b'{"format": 2, "sessions": [["s", [7]]]}',
    ])
    def test_a_reader_is_called_once_in_place_of_the_text(self, text):
        calls = []

        def read():
            calls.append(True)
            return text

        for group_by, tables in (("task_id", "both"), ("concept_name", "task")):
            calls.clear()
            assert tables_outcome(log_tables, read, group_by, tables) == (
                tables_outcome(log_tables, text, group_by, tables)
            )
            assert calls == [True]

    def test_concept_cross_checks_once_the_log_is_checked(self, v2_concept):
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 3, 1.0))
        sessions = list(log.sessions)
        task = sessions[1].tasks[0]
        sessions[1] = Session("s0001", (task._replace(is_count=999),))
        text = dump_log(EventLog(tuple(sessions)))
        called = []

        def concept():
            called.append(True)
            return v2_concept

        assert tables_outcome(log_tables, text, "task_id", "step", concept) == (
            tables_outcome(log_tables, text, "task_id", "step")[0],
            ["task 'v2-single-page' in session 's0001' records 999 IS but the concept yields 45"],
        )
        assert called == [True]
        with pytest.raises(LogFormatError):
            log_tables(text[:-3], "task_id", "both", concept)
        assert called == [True]
        assert tables_outcome(log_tables, dump_log(EventLog()), "task_id", "both", concept) == (
            {"task": [], "step": []}, ["log contains no tasks"],
        )
        assert called == [True, True]

    def test_concept_warnings_are_those_of_cross_check_in_every_layout(self, v2_concept):
        # One task records a wrong count, under a task id of its own so that
        # no group mixes counts, and one leaves a variable unbound.  A key
        # after "sessions" leaves dump_log's layout only once every session
        # is read, so that text is walked twice.
        sessions = list(generate_log(SynthConfig(v2_concept, V2_BINDING, 4, 1.0)).sessions)
        changes = {"task_id": "wrong", "is_count": 999}, {"binding": {"m": 1}}
        for index, change in zip((1, 2), changes):
            task = sessions[index].tasks[0]._replace(**change)
            sessions[index] = sessions[index]._replace(tasks=(task,))
        log = EventLog(tuple(sessions))
        expected = cross_check(log, v2_concept)
        assert expected == [
            "task 'wrong' in session 's0001' records 999 IS but the concept yields 45",
            "task 'v2-single-page' in session 's0002': the concept yields no IS count at its "
            "binding: unbound variable 'd'",
        ]
        data = json.loads(dump_log(log))
        for text in (
            dump_log(log),
            json.dumps(data, indent=1),
            compact(dict(data, extra=[1])),
            compact({"sessions": data["sessions"], "format": 2}),
        ):
            assert cross_check(load_log(text), v2_concept) == expected
            assert tables_outcome(log_tables, text, "task_id", "both", lambda: v2_concept) == (
                tables_outcome(log_tables, text, "task_id", "both")[0], expected,
            )

    def test_concept_check_peaks_below_the_records(self, v2_concept):
        # The 2,000-session log of TestStreamedLoad's peak test.
        text = dump_log(generate_log(SynthConfig(v2_concept, V2_BINDING, 2000, 1.05, 0.2)))
        checked = traced_peak(log_tables, text, "task_id", "both", lambda: v2_concept)
        assert checked < traced_peak(load_log, text)


# Session ids the template's capture takes, and ones it leaves to json's
# scanner: an escaped quote or backslash, a control character, non-ASCII and
# a lone surrogate, each escaped by dump_log and raw in RAW_LAYOUT.
SESSION_IDS = ("s1", "é", "€", "\ud800", 'a"b', "a\\b", "\x1f")
# Offsets that take a shape's timestamps to 18 and to 19 digits.
OFFSETS = (0, 1, 10**17, 10**18 - 2_000, 10**18, 2**62)
# dump_log's layout, but with non-ASCII characters and lone surrogates raw.
RAW_LAYOUT = {"sort_keys": True, "separators": (",", ":"), "ensure_ascii": False}
# IS = m, so the tasks of TASK_CONCEPTS' "demo", at binding {"m": 1}, record
# another count than the concept yields.
DEMO = parse_concept('concept "demo"\nvar m\nstep "s" { T: m }\n')
# Replacements for one character of a text; "" deletes it and "00" inserts.
MUTATIONS = tuple('0123456789,[]{}":\\-.e ') + ("", "00", "é", "\ud800")


@st.composite
def shapes(draw, mixed):
    """The tasks of one session shape.  Each task's clock starts at 0 or
    1000, so that timestamps of two tasks can be equal by chance; tasks
    without visits, and zero-length tasks and steps, come now and then.
    When mixed, the IS counts are drawn, so that two shapes, or two tasks or
    steps of one shape, can give one group two counts."""
    tasks = []
    for _ in range(draw(st.integers(1, 2))):
        task_id = draw(st.sampled_from(sorted(TASK_CONCEPTS)))
        clock = draw(st.sampled_from((0, 1000)))
        visits = []
        for _ in range(draw(st.sampled_from((1, 2, 1, 2, 0)))):
            enter = clock = clock + draw(st.sampled_from((0, 250, 0)))
            steps = []
            for _ in range(draw(st.sampled_from((1, 2, 1, 2, 0)))):
                start = enter + draw(st.sampled_from((0, 250)))
                clock = max(clock, start + draw(st.sampled_from((250, 999, 250, 999, 0))))
                label = draw(st.sampled_from(LABELS))
                steps.append(StepRecord(label, start, clock, drawn_count(draw, mixed, label, 1)))
            clock += draw(st.sampled_from((0, 700)))
            visits.append(PageVisit("p", enter, clock, tuple(steps)))
        concept_name = TASK_CONCEPTS[task_id]
        count = drawn_count(draw, mixed, concept_name, 0)
        tasks.append(Task(task_id, concept_name, {"m": 1}, count, tuple(visits)))
    return tuple(tasks)


def moved(task, offset):
    """task with every timestamp moved by offset."""
    return task._replace(page_visits=tuple(
        visit._replace(
            enter_ms=visit.enter_ms + offset,
            exit_ms=visit.exit_ms + offset,
            steps=tuple(step._replace(start_ms=step.start_ms + offset, end_ms=step.end_ms + offset)
                        for step in visit.steps),
        )
        for visit in task.page_visits
    ))


@st.composite
def shaped_logs(draw):
    """Logs whose sessions take one of one to three shapes, each task moved
    by an offset, and now and then a log whose groups mix IS counts.  A
    session whose tasks move by one offset keeps its timestamps that are
    equal by chance equal; one whose tasks move apart does not."""
    mixed = draw(st.integers(0, 4)) == 0
    drawn = draw(st.lists(shapes(mixed), min_size=1, max_size=3))
    sessions = []
    for _ in range(draw(st.integers(1, 8))):
        # The first shape, which the template takes, half of the time.
        tasks = draw(st.sampled_from(drawn[:1] * len(drawn) + drawn))
        offset = draw(st.sampled_from(OFFSETS))
        offsets = [draw(st.sampled_from((offset,) * 3 + OFFSETS)) for _ in tasks]
        session_id = draw(st.one_of(st.sampled_from(("s", "s0")), st.sampled_from(SESSION_IDS)))
        sessions.append(Session(session_id, tuple(map(moved, tasks, offsets))))
    return EventLog(tuple(sessions))


# The chunk sizes, and the lengths of a run read one session at a time,
# that the tests of small logs take.
CHUNKS = (1, 2, 3)
RUNS = (0, 1, 2)


def small_template(patch, chunk, run):
    """Let every log with a second session compile a template, which reads
    run sessions one at a time, then chunks of chunk sessions."""
    patch.setattr(logs, "_TEMPLATE_ROOM", 0)
    patch.setattr(logs, "_TEMPLATE_CHUNK", chunk)
    patch.setattr(logs, "_TEMPLATE_RUN", run)


# Two sessions of one shape, the second moved by 1000 ms.  In the first
# task, a step repeats its visit's bounds, other steps lie inside theirs,
# and a gap comes before the second visit; the second task repeats
# timestamps of the first by chance.
_SHAPE = (
    Task("t0", "demo", {"m": 1}, 4, (
        PageVisit("p", 0, 700, (StepRecord("pick", 0, 700, 5), StepRecord("seat", 250, 450, 5))),
        PageVisit("q", 950, 2000, (StepRecord("pick", 1200, 1999, 5),)),
    )),
    Task("t1", "demo", {"m": 1}, 4, (PageVisit("p", 0, 700, (StepRecord("seat", 250, 700, 5),)),)),
)
SHAPED = json.loads(dump_log(EventLog((
    Session("s0", _SHAPE), Session("s1", tuple(moved(task, 1000) for task in _SHAPE)),
))))
# The path to each timestamp of the second session.
SHAPE_SLOTS = [
    (*visit_path, *inner)
    for task, record in enumerate(_SHAPE)
    for visit, page_visit in enumerate(record.page_visits)
    for visit_path in [("sessions", 1, "tasks", task, "page_visits", visit)]
    for inner in [("enter_ms",), ("exit_ms",)] + [
        ("steps", step, field) for step in range(len(page_visit.steps))
        for field in ("start_ms", "end_ms")
    ]
]


def with_seat(session, **fields):
    """session with these fields of the "seat" step of its first visit
    replaced."""
    task = session.tasks[0]
    visit = task.page_visits[0]
    visit = visit._replace(steps=(visit.steps[0], visit.steps[1]._replace(**fields)))
    task = task._replace(page_visits=(visit,) + task.page_visits[1:])
    return session._replace(tasks=(task,) + session.tasks[1:])


# A session of _SHAPE turned into one that the template does not read: its
# "seat" step zero-length, its "seat" step leaving its visit or counting
# one IS more, which mixes the counts of the "seat" group, or a session of
# another shape.
EDGE_FAULTS = {
    "zero-length step": lambda session: with_seat(
        session, end_ms=session.tasks[0].page_visits[0].steps[1].start_ms
    ),
    "broken bound": lambda session: with_seat(
        session, end_ms=session.tasks[0].page_visits[0].exit_ms + 1
    ),
    "another shape": lambda session: session._replace(tasks=session.tasks[:1]),
    "another count": lambda session: with_seat(
        session, is_count=session.tasks[0].page_visits[0].steps[1].is_count + 1
    ),
}
# After the first session, the template reads EDGE_RUN sessions one at a
# time, then chunks of EDGE_CHUNK sessions.  EDGES are the first, a middle
# and the last session of the first chunk, and the first of the next.
EDGE_RUN, EDGE_CHUNK = 2, 5
EDGES = [1 + EDGE_RUN + offset for offset in (0, EDGE_CHUNK // 2, EDGE_CHUNK - 1, EDGE_CHUNK)]


def twice_picked(index):
    """Session index: two tasks of concept "demo" on one visit, which holds
    two "pick" steps whose lengths differ from each other and change from
    session to session."""
    first = 100 + index * 37 % 500
    second = first + 1 + index * 91 % 700
    start = 10_000 * index
    steps = (
        StepRecord("pick", start + 1, start + 1 + first, 5),
        StepRecord("pick", start + 2 + first, start + 2 + first + second, 5),
    )
    visit = PageVisit("p", start, start + 3 + first + second, steps)
    return Session(f"s{index}", tuple(
        Task(task_id, "demo", {"m": 1}, 4, (visit,)) for task_id in ("t0", "t1")
    ))


class TestTemplatedTables:
    """log_tables reads each session of the first session's shape through a
    template and decodes the rest; it gives what the reference path, which
    decodes the whole text, gives: rows, warnings in order, or the
    exception.  The tests of small logs let every log with a second session
    compile a template, which only a long log does otherwise, and read runs
    in chunks of a few sessions after a few sessions one at a time, so that
    short runs, long runs and the edges of chunks all come up."""

    @settings(max_examples=300, deadline=None)
    @given(
        shaped_logs(),
        st.sampled_from(("task_id", "concept_name")),
        st.sampled_from(("task", "step", "both")),
        st.booleans(),
        st.sampled_from((0, 1, 100)),
        st.sampled_from(CHUNKS),
        st.sampled_from(RUNS),
    )
    def test_agrees_with_the_reference_path(
        self, log, group_by, tables, with_concept, misses, chunk, run
    ):
        concept = (lambda: DEMO) if with_concept else None
        expected = tables_outcome(
            log_tables, reference_text(log, indent=1), group_by, tables, concept
        )
        with pytest.MonkeyPatch.context() as patch:
            small_template(patch, chunk, run)
            patch.setattr(logs, "_TEMPLATE_MISSES", misses)
            for text in (dump_log(log), reference_text(log, **RAW_LAYOUT)):
                assert tables_outcome(log_tables, text, group_by, tables, concept) == expected
            assert_tables_agree(dump_log(log), group_by, tables)

    @settings(max_examples=300, deadline=None)
    @given(
        shaped_logs(),
        st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(MUTATIONS)),
                 min_size=1, max_size=3),
        st.sampled_from(CHUNKS),
        st.sampled_from(RUNS),
    )
    def test_a_mutated_text_agrees_with_the_record_tables(self, log, edits, chunk, run):
        text = dump_log(log)
        for at, replacement in edits:
            at %= len(text)
            text = text[:at] + replacement + text[at + 1:]
        with pytest.MonkeyPatch.context() as patch:
            small_template(patch, chunk, run)
            assert_tables_agree(text)
            assert_tables_agree(text, "concept_name", "task")

    @pytest.mark.parametrize("path", SHAPE_SLOTS, ids=lambda path: ".".join(map(str, path[3:])))
    def test_each_timestamp_of_a_later_session_moved(self, monkeypatch, path):
        # Values of one timestamp of the second session that break a rule,
        # make a duration zero or leave the 64-bit range while the template
        # still matches, or equal another timestamp, which the template
        # takes or refuses as it repeats that one or not.
        monkeypatch.setattr(logs, "_TEMPLATE_ROOM", 0)
        stamps = {at(SHAPED, slot) for slot in SHAPE_SLOTS}
        values = {0, 10**18 - 1, 10**18, 2**63 - 1, 2**63}
        values |= {stamp + step for stamp in stamps for step in (-1, 0, 1)}
        for value in sorted(values):
            data = json.loads(json.dumps(SHAPED))
            replace(at(data, path[:-1]), row_path(path)[-1], value)
            for group_by, concept in (("task_id", None), ("concept_name", lambda: DEMO)):
                assert tables_outcome(log_tables, compact(data), group_by, "both", concept) == (
                    tables_outcome(log_tables, json.dumps(data, indent=1), group_by, "both", concept)
                )

    @pytest.mark.parametrize("later, scans, reads", [
        # Twelve sessions of another shape: the template misses four in a
        # row, then is dropped.
        ("b" * 12, 13, 4),
        # Sessions of the first shape between them keep it: it reads each.
        ("ab" * 6, 7, 7),
    ])
    def test_a_template_that_misses_too_often_is_dropped(self, monkeypatch, later, scans, reads):
        shapes = {"a": _SHAPE, "b": _SHAPE[:1]}
        log = EventLog(tuple(
            Session(f"s{index}", tuple(moved(task, 1000 * index) for task in shapes[shape]))
            for index, shape in enumerate("a" + later)
        ))
        monkeypatch.setattr(logs, "_TEMPLATE_ROOM", 0)
        monkeypatch.setattr(logs, "_TEMPLATE_MISSES", 3)
        scanned, called = [], []
        scan, template = logs._SCAN, logs._template

        def counted(session, samples):
            read = template(session, samples)
            return lambda text, index: called.append(index) or read(text, index)

        monkeypatch.setattr(logs, "_SCAN", lambda text, index: scanned.append(index) or scan(text, index))
        monkeypatch.setattr(logs, "_template", counted)
        assert_tables_agree(dump_log(log))
        scanned.clear()
        called.clear()
        log_tables(dump_log(log))
        # The template is tried once after each session the scanner reads.
        assert (len(scanned), len(called)) == (scans, reads)

    @pytest.mark.parametrize("sessions, scans", [(2000, 1), (500, 500)])
    def test_a_long_generated_log_is_read_through_the_template(
        self, monkeypatch, v2_concept, sessions, scans
    ):
        # json's scanner decodes the first session only, once the text is
        # long enough for a template to pay; else it decodes every session.
        text = generate_log_text(SynthConfig(v2_concept, V2_BINDING, sessions, 1.05, 0.2, seed=5))
        scanned = []
        scan = logs._SCAN
        monkeypatch.setattr(logs, "_SCAN", lambda text, index: scanned.append(index) or scan(text, index))
        for group_by, tables, concept in (
            ("task_id", "both", None),
            ("concept_name", "task", lambda: v2_concept),
            ("task_id", "step", lambda: v2_concept),
        ):
            assert_tables_agree(text, group_by, tables)
            scanned.clear()
            rows, messages = tables_outcome(log_tables, text, group_by, tables, concept)
            assert len(scanned) == scans
            assert messages == [] and sum(row.n for table in rows.values() for row in table) > 0

    @pytest.mark.parametrize("fault", sorted(EDGE_FAULTS))
    @pytest.mark.parametrize("place", EDGES)
    def test_a_fault_at_the_edge_of_a_chunk(self, fault, place):
        sessions = [
            Session(f"s{index}", tuple(moved(task, 1000 * index) for task in _SHAPE))
            for index in range(50)
        ]
        sessions[place] = EDGE_FAULTS[fault](sessions[place])
        log = EventLog(tuple(sessions))
        # dump_log's layout, which dump_log itself refuses to write for a
        # faulty log.
        text = reference_text(log, **RAW_LAYOUT)
        for group_by, tables, concept in (
            ("task_id", "both", None),
            ("concept_name", "task", lambda: DEMO),
        ):
            expected = tables_outcome(
                log_tables, reference_text(log, indent=1), group_by, tables, concept
            )
            scanned = []
            scan = logs._SCAN
            with pytest.MonkeyPatch.context() as patch:
                small_template(patch, EDGE_CHUNK, EDGE_RUN)
                patch.setattr(logs, "_SCAN", lambda text, index: scanned.append(index) or scan(text, index))
                assert tables_outcome(log_tables, text, group_by, tables, concept) == expected
            # json's scanner decodes the first session and the faulty one;
            # the template reads the rest.
            assert len(scanned) == 2

    @pytest.mark.parametrize("chunk, run", [(3, 0), (3, 2), (7, 1), (40, 16)])
    def test_spans_of_one_group_keep_document_order(self, monkeypatch, chunk, run):
        # Each session has two "pick" steps of different lengths, in each of
        # two tasks of one concept, so a float sum in another order than the
        # records' can differ in its last digit.
        text = dump_log(EventLog(tuple(map(twice_picked, range(40)))))
        small_template(monkeypatch, chunk, run)
        for group_by in ("task_id", "concept_name"):
            rows, messages = assert_tables_agree(text, group_by)
            assert messages == [] and [row.n for row in rows["step"]] == [160]

    @pytest.mark.parametrize("chunk, run", [(3, 0), (3, 2), (7, 1)])
    def test_kept_tasks_keep_document_order_across_chunks(self, monkeypatch, chunk, run):
        # Every task records another IS count than DEMO yields, so each one
        # warns, in the order of the sessions.
        text = dump_log(EventLog(tuple(map(twice_picked, range(40)))))
        expected = tables_outcome(
            log_tables, json.dumps(json.loads(text), indent=1), "task_id", "both", lambda: DEMO
        )
        assert len(expected[1]) == 80
        small_template(monkeypatch, chunk, run)
        assert tables_outcome(log_tables, text, "task_id", "both", lambda: DEMO) == expected


def traced_peak(function, *args):
    """The peak of the memory traced while function(*args) runs."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRendering:
    def test_csv_columns(self):
        text = table_to_csv(task_table(make_log([10.0])))
        header, row = text.strip().splitlines()
        assert header == ",".join(TABLE_COLUMNS)
        assert row == "t,1,10,10.00,10.00,10.00,1.00,1.00,1.00"

    def test_text_alignment(self):
        text = table_to_text(task_table(make_log([10.0, 12.5])))
        lines = text.splitlines()
        assert lines[0].split() == list(TABLE_COLUMNS)
        assert "1.00" in lines[1]

    def test_empty_table_renders_header(self):
        assert table_to_text([]).split() == list(TABLE_COLUMNS)


class TestCrossCheck:
    def test_reports_each_mismatching_task(self, v2_concept):
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 3, 1.0))
        sessions = list(log.sessions)
        task = sessions[1].tasks[0]
        edited = Task(task.task_id, task.concept_name, task.binding, 999, task.page_visits)
        sessions[1] = Session("s0001", (edited,))
        assert cross_check(EventLog(tuple(sessions)), v2_concept) == [
            "task 'v2-single-page' in session 's0001' records 999 IS but the concept yields 45"
        ]

    def test_other_concepts_and_unbound_tasks_pass(self, v2_concept):
        assert cross_check(make_log([1.0, 2.0], is_count=999), v2_concept) == []
        log = generate_log(SynthConfig(v2_concept, V2_BINDING, 2, 1.0))
        assert cross_check(log, v2_concept) == []

    def test_each_task_is_checked_at_its_own_binding(self, v2_concept):
        # Runs of one binding object, an equal copy, another binding and an
        # unbound one, in turn; the count is found once per binding object.
        good, other, unbound = dict(V2_BINDING), dict(V2_BINDING, g=10), {"m": 1}
        tasks = [(good, 45), (good, 46), (other, 46), (dict(good), 45), (unbound, 45),
                 (unbound, 1), (good, 44)]
        visit = PageVisit("p0", 0, 1000, ())
        log = EventLog(tuple(
            Session(f"s{index}", (Task("t", v2_concept.name, binding, count, (visit,)),))
            for index, (binding, count) in enumerate(tasks)
        ))
        unbound_message = "the concept yields no IS count at its binding: unbound variable 'd'"
        assert cross_check(log, v2_concept) == [
            "task 't' in session 's1' records 46 IS but the concept yields 45",
            f"task 't' in session 's4': {unbound_message}",
            f"task 't' in session 's5': {unbound_message}",
            "task 't' in session 's6' records 44 IS but the concept yields 45",
        ]
