"""Event-log ingestion and speed tables.

Logs are hierarchical timing records on four levels: session, task, page
visit, interaction step.  Only tasks and steps carry the analytics of
interest; page visits give steps their containing interval and tasks their
end-to-end duration (last page exit minus first page enter, so gaps between
pages count as task time).  The records, like IqrBounds and the table rows,
are named tuples: immutable, cheap to build, and compared and hashed as
tuples, so StepRecord("a", 0, 1, 1) == ("a", 0, 1, 1).

File format 2: JSON, UTF-8, top level {"format": 2, "sessions": [...]}, and
every record a JSON array of its named tuple's fields in declaration order:
a session [session_id, tasks], a task [task_id, concept_name, binding,
is_count, page_visits] with the binding an object of names to values, a
page visit [page, enter_ms, exit_ms, steps] and a step [step_label,
start_ms, end_ms, is_count].  Timestamps are integer milliseconds, and every
integer (timestamp, IS count, binding value) lies in the signed 64-bit range.
dump_log writes json.dumps of the records themselves, compact and with keys
sorted: one line, no spaces, a trailing newline, so identical logs (and so
one synth seed) give identical bytes.  load_log takes any whitespace between
tokens, and refuses a file of another format with a LogFormatError naming
it: format 1, which earlier versions wrote, held records as objects keyed by
field name and no "format" key.  A text in dump_log's layout is decoded one
session at a time, with json's own scanner, and any other text whole, with
json.loads; both feed one row walker, _checked, and only the whole-text path
reports a fault, so the outcome does not depend on the layout.  load_log
makes the checked rows its records.  A loaded log holds one str object per
distinct task id, concept name, page and step label, as a generated one
does.  In a long text, log_tables reads each later session of the first
session's shape through a regular expression compiled from it, decoding
only the id and the timestamps, and reads most of a long run of such
sessions a chunk at a time, a column of timestamps at a time (see
_template).

log_tables, the reader behind the CLI's logs command, builds no record tree:
it adds each checked session's durations straight to the groups of its
tables, and keeps the tasks, without their page visits, only to cross-check
a concept.  task_table and step_table feed a log's records to the same group
code, so a file's tables are the same either way.  A group holds the set of
its IS counts and its durations in integer milliseconds, made seconds only
when its row is computed.  The CLI's synth command writes
synth.generate_log_text, the text of dump_log written straight from the
drawn speeds, so no CLI command builds a log.  load_log, log_tables and
synth.generate_log pause the cyclic garbage collector while they build (see
gc_paused).

The writer refuses exactly what the reader would refuse in its output, and
a surrogate pair, which the reader would take for one character.  One row
walker, _checked, checks a file's decoded rows for load_log and log_tables
and a log's records for validate_log, refusing the first faulty record in
document order: a record's own fields, then its intervals, then its
children (see load_log).  Page visits run forwards and in chronological
order within their task, and each step runs forwards inside its visit.  A
file and a log in memory differ only in the type of a row, so they get the
same message at the same path.  dump_log is validate_log, then json.dumps
of the records, then a search for surrogate pairs that runs only when the
text holds a surrogate's escape.

Outlier removal uses the interquartile range method: per group, durations
outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR] are dropped before speeds are
computed.  Quartiles are linearly interpolated at positions 0.25*(n-1) and
0.75*(n-1) on the sorted sample; the choice is isolated behind IqrBounds so
alternative quartile rules can be compared if ever needed.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import re
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from itertools import chain, islice, repeat
from operator import itemgetter, le, sub, truediv
from typing import NamedTuple, TypeVar

from .bigi import instantiate, normalize, sum_steps
from .concept import InteractionConcept
from .errors import DomainError, IxComplexError, LogFormatError
from .expr import INT64_MAX
from .rounding import format_fixed
from .speed import SpeedStats, _speed_row


class AnalyticsWarning(UserWarning):
    """Degenerate but tolerable data: empty groups, zero durations."""


class StepRecord(NamedTuple):
    step_label: str
    start_ms: int
    end_ms: int
    is_count: int


class PageVisit(NamedTuple):
    page: str
    enter_ms: int
    exit_ms: int
    steps: tuple[StepRecord, ...] = ()


class Task(NamedTuple):
    task_id: str
    concept_name: str
    binding: Mapping[str, int]
    is_count: int
    page_visits: tuple[PageVisit, ...] = ()

    @property
    def start_ms(self) -> int:
        return self.page_visits[0].enter_ms

    @property
    def end_ms(self) -> int:
        return self.page_visits[-1].exit_ms

    @property
    def duration_s(self) -> float:
        return (self.end_ms - self.start_ms) / 1000.0


class Session(NamedTuple):
    session_id: str
    tasks: tuple[Task, ...] = ()


class EventLog(NamedTuple):
    sessions: tuple[Session, ...] = ()


# --- loading and dumping ---------------------------------------------------


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a bulk build of log records.

    Building a large log allocates millions of objects that all stay alive,
    which triggers repeated full collections that traverse every one of
    them and find nothing: log trees and their JSON forms hold no reference
    cycles, so reference counting frees them without the collector.  So is
    each session load_log or log_tables decodes, as soon as its records are
    built or its durations taken; a session log_tables reads through a
    template (see _template) builds no JSON values, only its durations,
    integers that stay alive in their groups, and a chunk's matches and
    columns are garbage once the chunk is added.  The pause is process-wide;
    the collector's previous state is restored on exit, also when the build
    raises.  load_log, log_tables and synth.generate_log pause it.
    log_tables keeps only the durations, and the tasks it keeps for a
    concept are garbage before its pause ends, so the collection below does
    not run on them.  dump_log takes none: what it keeps is strings, which
    the collector does not track.  Nor does the CLI's synth command, which
    builds no log: synth.generate_log_text keeps only strings and an array
    of timestamps.

    What the build leaves alive sits in the youngest generation, where the
    next few collections would traverse it again, in whatever code runs
    next.  So when the build left more objects than the collector lets pass
    before it looks at its oldest generation, one full collection runs on
    exit instead.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            young, middle, _ = gc.get_threshold()
            if young and gc.get_count()[0] > young * middle:
                gc.collect()
            gc.enable()


def load_log(data: bytes | str) -> EventLog:
    """Parse and validate a log file of format 2, given as text or as UTF-8
    bytes; raises LogFormatError with the path to the first offending record
    in document order, or naming the format of a file in another one.

    A record's own fields come before its intervals, and both before its
    children: it must be an array of its kind's fields, then a task's
    binding is checked, then each scalar field in declaration order, then
    the type of its child list, then the interval rules of a page visit or
    a step.  The file is read as _walked reads it, each session built into
    its records before the next is decoded.
    """
    with gc_paused():
        # The decoded sessions are gone once _log_from returns, before the
        # collector resumes.
        return _walked(data, _log_from)


_T = TypeVar("_T")


def _walked(
    data: bytes | str,
    take: Callable[[Iterator], _T],
    take_text: Callable[[str], _T] | None = None,
) -> _T:
    """take applied to the decoded sessions of a log file, given as text or
    as UTF-8 bytes; take checks them with _checked.

    A text in dump_log's layout is decoded one session at a time, each
    taken before the next is decoded, so the decoded tree of the whole file
    never exists.  When take_text is given, such a text goes to it instead:
    it returns what take returns for the text's sessions, and log_tables
    passes one that reads every session of the first session's shape
    through a template, without decoding it (see _template).  Any other
    layout, and any fault found on the way, takes the reference path
    instead: json.loads of the whole text, then a fresh call of take.  That
    path alone reports faults, so a file's message, and which of its faults
    comes first, does not depend on its layout or on a template: a syntax
    error anywhere wins over a faulty record.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"not valid JSON: {exc}") from None
    if text.startswith(_HEAD):
        try:
            return take_text(text) if take_text else take(_streamed(text))
        except LogFormatError:
            pass
    return take(_popped(_decoded(text)))


def dump_log(log: EventLog) -> str:
    """Deterministic compact JSON text of format 2; identical logs yield
    identical bytes.

    The text is json.dumps({"format": 2, "sessions": log.sessions},
    sort_keys=True, separators=(",", ":")) plus a newline: each record is
    the array its named tuple encodes as, and each binding an object with
    sorted keys.  The log is first checked by validate_log, so dump_log
    raises the LogFormatError that load_log would raise on that text.  It
    also refuses an id, concept name, binding name, page or label that holds
    a high surrogate directly followed by a low one, since JSON reads that
    pair back as one character.
    """
    validate_log(log)
    text = json.dumps(
        {"format": _FORMAT, "sessions": log.sessions},
        sort_keys=True,
        separators=(",", ":"),
        # validate_log has refused every value that is not a record, a list
        # of records, a str or an int, and a binding that holds anything but
        # str names and int values, so the log holds no cycle.
        check_circular=False,
        # Reached only by a binding that is a Mapping but not a dict; its
        # names and values are already checked.
        default=dict,
    ) + "\n"
    # ensure_ascii writes every surrogate, paired or not, as an escape
    # \ud800 to \udfff, so a text without "\ud" holds no pair.
    if "\\ud" in text:
        for where, field, string in _strings(log):
            if _SURROGATE_PAIR.search(string):
                raise LogFormatError(
                    f"{field} holds a high surrogate followed by a low one, "
                    "which would load back as one character",
                    where,
                )
    return text


# The version of the file layout that dump_log writes and load_log reads; a
# file without the "format" key is of format 1.
_FORMAT = 2

_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _strings(log: EventLog) -> Iterator[tuple[str, str, str]]:
    """Every string dump_log writes, in writing order, with the path to its
    record and the name of its field."""
    for i, session in enumerate(log.sessions):
        yield _where(i), "'session_id'", session.session_id
        for j, task in enumerate(session.tasks):
            yield _where(i, j), "'task_id'", task.task_id
            yield _where(i, j), "'concept_name'", task.concept_name
            for name in sorted(task.binding):
                yield _where(i, j), f"binding name {name!r}", name
            for k, visit in enumerate(task.page_visits):
                yield _where(i, j, k), "'page'", visit.page
                for n, step in enumerate(visit.steps):
                    yield _where(i, j, k, n), "'step_label'", step.step_label


_LEVELS = ("sessions", "tasks", "page_visits", "steps")


def _where(*indices: int) -> str:
    """The path to a record from its index at each level, outermost first:
    _where(1, 0) is "sessions[1].tasks[0]"."""
    return ".".join([f"{level}[{index}]" for level, index in zip(_LEVELS, indices)])


def _decoded(text: str) -> list:
    """The sessions list of a log file's text, decoded whole by json.loads,
    after the checks of the top level and of the format."""
    try:
        parsed = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise LogFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(parsed, dict) or "sessions" not in parsed:
        raise LogFormatError('top level must be an object with a "sessions" list')
    held = parsed.get("format", 1)
    if type(held) is not int or held != _FORMAT:
        raise LogFormatError(
            f"log format {held if type(held) is int else 'unknown'} is not read by this "
            f"version, which reads format {_FORMAT}"
        )
    if type(sessions := parsed["sessions"]) is not list:
        raise LogFormatError("'sessions' must be a list")
    return sessions


def _popped(raw_sessions: list) -> Iterator:
    """The items of raw_sessions in order, each popped from it as it is
    taken, so the list holds no session that its taker has dropped."""
    raw_sessions.reverse()
    while raw_sessions:
        yield raw_sessions.pop()


# What dump_log's text starts with, up to its first session.
_HEAD = f'{{"format":{_FORMAT},"sessions":['
# json.loads's own scanner: scan_once(text, index) decodes the value that
# starts at index and returns it with the index after it.
_SCAN = json.decoder.JSONDecoder().scan_once


# A template is compiled only when the text after the first session is
# longer than this many sessions of its length.  Compiling one costs about
# as much as decoding, checking and adding 50 to 130 such sessions.  Reading
# a long run through it costs from seven to nine tenths of that, for
# sessions of many timestamps and few strings, to a quarter, for synth
# sessions; so compiling costs at most about an eighth more than decoding
# the rest of the text.
_TEMPLATE_ROOM = 1000
# A template is dropped once the sessions it failed to read outnumber the
# runs of sessions it read by this many.  A failed match costs from a
# twentieth of decoding the session, for one that leaves the template at
# its first task, to about half, for a synth session that matches but
# fails a check, so a log of many shapes pays for at most this many.
_TEMPLATE_MISSES = 100
# A template reads the first this many sessions of a run one at a time,
# which a log of many shapes, whose runs are short, reads fastest; then the
# rest in chunks of this many, a column at a time, which a long run of
# synth sessions reads in about three fifths of the time.
_TEMPLATE_RUN = 16
_TEMPLATE_CHUNK = 1000


def _streamed(text: str, samples: _Samples | None = None) -> Iterator:
    """The sessions of a text that starts with _HEAD, each decoded only
    when the one before it has been taken.  A text that leaves dump_log's
    layout, in JSON or not, raises LogFormatError where it leaves it; the
    caller then decodes it whole, which finds and reports its fault.

    samples, when given, are the samples that the taker adds each session
    to once it is checked.  Then, when the text is long enough (see
    _TEMPLATE_ROOM), each later session that _template of the first session
    reads is added to them there, in document order, and is neither decoded
    nor yielded, until the template misses too often (see
    _TEMPLATE_MISSES).  The template reads each run of such sessions, one
    at a time or a chunk at a time, up to the first that it does not read,
    which is decoded here as any other session is."""
    index = len(_HEAD)
    if text[index : index + 1] != "]":
        read = None
        # Runs of sessions the template read, less the sessions it missed.
        credit = 0
        while True:
            try:
                session, index = _SCAN(text, index)
            # StopIteration: no value starts at index.  Caught here, since
            # raised in a generator it would become a RuntimeError.
            except (StopIteration, ValueError, RecursionError):
                raise LogFormatError("not in dump_log's layout") from None
            yield session
            # Resumed, the taker has checked and added the session.
            if samples is not None:
                if len(text) - index > _TEMPLATE_ROOM * (index - len(_HEAD)):
                    read = _template(session, samples)
                samples = None
            if read is not None:
                after = read(text, index)
                credit += 1 if after != index else -1
                if credit < -_TEMPLATE_MISSES:
                    read = None
                index = after
            if text[index : index + 1] != ",":
                break
            index += 1
    # After the sessions array, only "}" and JSON's whitespace, which is
    # not str.strip's: that also takes a form feed or a no-break space.
    if text[index : index + 1] != "]" or text[index + 1 :].strip(" \t\n\r") != "}":
        raise LogFormatError("not in dump_log's layout")


def _template(session: list, samples: _Samples) -> Callable[[str, int], int] | None:
    """The reader of the sessions that have the shape of session, a
    session of a file that samples have added, or None when session has no
    task, a task without page visits or a duration that is not positive.

    read(text, index), at the comma before a session, reads each session
    from there that has the shape and passes the checks below: it adds the
    session's durations to samples, as samples.add would, but no IS count,
    since its counts are session's, which samples.add added; and it returns
    the index after the last session it read, which is index when it read
    none.  A session has the shape when it matches one regular expression,
    compiled from session as dump_log writes it: the JSON of each task id,
    concept name, binding, IS count, page, step label and step count as a
    literal, a capture for the session id, a string without escapes or
    control characters, and one for each timestamp, a canonical JSON integer
    of at most 18 digits and so below INT64_MAX.  A timestamp equal to an
    earlier one of session is a back-reference to it, as in a synth session,
    where a step's bounds repeat its visit's and a visit's enter the exit
    before it.

    read takes the first _TEMPLATE_RUN sessions of a run one at a time and
    the rest in chunks of _TEMPLATE_CHUNK, a column at a time: int() of
    each timestamp column, then each span's durations and each bound's
    check over whole columns.  A group with more than one span per session
    takes their columns interleaved, so its durations keep document order
    and their sums are bit for bit those of one session at a time.  A chunk
    with a session that fails a check is read again one session at a time,
    up to that session.

    Why it is exact: each literal is the JSON of a value that passed
    _checked, and each capture decodes to itself or to int() of itself, so
    a session that matches decodes to session with its id and timestamps
    replaced.  read checks those timestamps with the interval rules of
    _checked, and requires every task and step duration to be positive, so
    the session skips nothing and warns of nothing.  Its durations go to
    group lists found once here, and the tasks it keeps for a concept are
    session's own, with their shared binding.  A session that does not
    match, or fails a check, is left to the caller, which decodes it.
    """
    if not session[1] or not all(task[4] for task in session[1]):
        return None
    captures: dict[int, int] = {}
    bounds: set[tuple[int, int]] = set()
    spans: dict[str, list[tuple[int, int, str]]] = {"task": [], "step": []}

    def literal(value) -> str:
        return re.escape(json.dumps(value, sort_keys=True, separators=(",", ":")))

    def stamp(value: int) -> tuple[str, int]:
        """The pattern of a timestamp and the index of its capture."""
        if value in captures:
            return f"(?P=t{captures[value]})", captures[value]
        captures[value] = index = len(captures)
        return f"(?P<t{index}>0|[1-9][0-9]{{0,17}})", index

    tasks = []
    for task in session[1]:
        task_id, concept_name, binding, is_count, raw_visits = task
        visits = []
        previous = None
        for page, enter_ms, exit_ms, raw_steps in raw_visits:
            (enter_text, enter), (exit_text, exit_) = stamp(enter_ms), stamp(exit_ms)
            bounds |= {(enter, exit_)} if previous is None else {(previous, enter), (enter, exit_)}
            previous = exit_
            steps = []
            for label, start_ms, end_ms, count in raw_steps:
                (start_text, start), (end_text, end) = stamp(start_ms), stamp(end_ms)
                bounds |= {(enter, start), (end, exit_)}
                spans["step"].append((start, end, label))
                steps.append(rf"\[{literal(label)},{start_text},{end_text},{literal(count)}\]")
            visits.append(rf"\[{literal(page)},{enter_text},{exit_text},\[{','.join(steps)}\]\]")
        spans["task"].append((captures[raw_visits[0][1]], captures[raw_visits[-1][2]],
                              task[samples.key]))
        tasks.append(rf"\[{literal(task_id)},{literal(concept_name)},{literal(binding)},"
                     rf"{literal(is_count)},\[{','.join(visits)}\]\]")
    # For the spans of a table that samples hold, which come first in
    # ordered: the append of each one's group list, and each group's
    # durations, by table and group, with the index in ordered of each span.
    appends = []
    groups: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
    ordered: list[tuple[int, int]] = []
    unheld: list[tuple[int, int]] = []
    for name, found in spans.items():
        for start, end, key in found:
            if start == end:
                return None
            if name in samples.tables:
                durations = samples.tables[name][0][key][1]
                appends.append(durations.append)
                groups.setdefault((name, key), (durations, []))[1].append(len(ordered))
                ordered.append((start, end))
            else:
                unheld.append((start, end))
    ordered += unheld
    # A span's check is stricter than its bounds', and a bound of one
    # capture always holds.
    bounds = sorted({(low, high) for low, high in bounds if low != high} - set(ordered))
    starts, ends = _picker([start for start, _ in ordered]), _picker([end for _, end in ordered])
    lows, highs = _picker([low for low, _ in bounds]), _picker([high for _, high in bounds])
    pattern = re.compile(rf',\["([^"\\\x00-\x1f]*)",\[{",".join(tasks)}\]\]')
    match, scanner = pattern.match, pattern.scanner
    kept = samples.kept
    kept_tasks = kept[-1].tasks if kept is not None else None

    def take(fields: tuple[str, ...]) -> bool:
        """Add the durations of the session of these captures, when it
        passes the checks, and tell whether it did."""
        values = list(map(int, fields[1:]))
        durations = list(map(sub, ends(values), starts(values)))
        if min(durations) <= 0 or bounds and not all(map(le, lows(values), highs(values))):
            return False
        for append, duration in zip(appends, durations):
            append(duration)
        if kept is not None:
            kept.append(Session(fields[0], kept_tasks))
        return True

    def take_all(rows: list[tuple[str, ...]]) -> bool:
        """take of each session of these captures, a column at a time, when
        all of them pass the checks, and tell whether they did."""
        fields = list(zip(*rows))
        values = [list(map(int, column)) for column in fields[1:]]
        durations = [list(map(sub, end, start)) for end, start in zip(ends(values), starts(values))]
        if min(map(min, durations)) <= 0 or bounds and not all(
            all(map(le, low, high)) for low, high in zip(lows(values), highs(values))
        ):
            return False
        for group, picks in groups.values():
            if len(picks) == 1:
                group.extend(durations[picks[0]])
            else:
                # Spans of one group in one session: interleaved, so that
                # the durations, and so their sums, keep document order.
                group.extend(chain.from_iterable(zip(*[durations[pick] for pick in picks])))
        if kept is not None:
            kept.extend(map(Session, fields[0], repeat(kept_tasks)))
        return True

    def read(text: str, index: int) -> int:
        for _ in range(_TEMPLATE_RUN):
            if (found := match(text, index)) is None or not take(found.groups()):
                return index
            index = found.end()
        # The pattern's scanner, which re leaves undocumented, starts each
        # match where the one before it ended; the first miss ends them.
        matches = iter(scanner(text, index).match, None)
        while chunk := list(islice(matches, _TEMPLATE_CHUNK)):
            rows = list(map(re.Match.groups, chunk))
            if not take_all(rows):
                for found, fields in zip(chunk, rows):
                    if not take(fields):
                        return found.start()
            index = chunk[-1].end()
        return index

    return read


def _picker(indices: list[int]) -> Callable[[Sequence], Sequence]:
    """The function that picks the items at indices from a sequence, in
    order; itemgetter of one index would return the bare item."""
    return itemgetter(*indices) if len(indices) > 1 else lambda items: [items[i] for i in indices]


def _checked(
    raw_sessions: Iterable, rows: tuple[type, ...] = (list, list, list, list)
) -> Iterator[tuple[str, Sequence]]:
    """Each session's id and task rows, once every row of the session has
    passed its check: one conjunction per record kind.  A row that fails it
    is refused at once, with the message of _fault, at the path of its place
    among its siblings (see _index and _visit_index).

    rows is the type of a row at each level, session first: list for the
    decoded sessions of a file, whose every record is an array, and Session,
    Task, PageVisit and StepRecord for the sessions of a log in memory.  A
    child list passes as a list or a tuple, and a binding as any Mapping of
    str names to int values.  A decoded file holds no tuple, no Mapping but
    a dict and no name but a str, so these tests take and refuse its rows
    as tests of its own types would, and its lists and dicts pass on the
    first test.

    raw_sessions yields the sessions in order, and the next one is taken
    only when the taker asks for it, so a taker that keeps no rows never
    holds the decoded tree whole.  The rows are yielded as they are: every
    field is checked, so a taker reads them by position, as it reads
    records, whose fields are in the same order."""
    session_row, task_row, visit_row, step_row = rows
    for i, raw_session in enumerate(raw_sessions):
        if not (type(raw_session) is session_row and len(raw_session) == 2
                and type(session_id := raw_session[0]) is str
                and (type(raw_tasks := raw_session[1]) is list or type(raw_tasks) is tuple)):
            raise _fault(Session, _row(Session, raw_session, session_row), _where(i))
        for raw_task in raw_tasks:
            if not (type(raw_task) is task_row and len(raw_task) == 5
                    and (type(binding := raw_task[2]) is dict or isinstance(binding, Mapping))
                    and all(type(name) is str and type(value) is int and 0 <= value <= INT64_MAX
                            for name, value in binding.items())
                    and type(raw_task[0]) is str
                    and type(raw_task[1]) is str
                    and type(is_count := raw_task[3]) is int and 0 <= is_count <= INT64_MAX
                    and (type(raw_visits := raw_task[4]) is list or type(raw_visits) is tuple)):
                raise _fault(Task, _row(Task, raw_task, task_row),
                             _where(i, _index(raw_tasks, raw_task)))
            previous_exit = 0
            for raw_visit in raw_visits:
                if not (type(raw_visit) is visit_row and len(raw_visit) == 4
                        and type(raw_visit[0]) is str
                        and type(enter := raw_visit[1]) is int
                        and type(exit_ := raw_visit[2]) is int
                        and previous_exit <= enter <= exit_ <= INT64_MAX
                        and (type(raw_steps := raw_visit[3]) is list or type(raw_steps) is tuple)):
                    raise _fault(
                        PageVisit, _row(PageVisit, raw_visit, visit_row),
                        _where(i, _index(raw_tasks, raw_task),
                               _visit_index(raw_visits, raw_visit, previous_exit)),
                        previous_exit,
                    )
                for raw_step in raw_steps:
                    if not (type(raw_step) is step_row and len(raw_step) == 4
                            and type(raw_step[0]) is str
                            and type(start := raw_step[1]) is int
                            and type(end := raw_step[2]) is int
                            and type(count := raw_step[3]) is int
                            and enter <= start <= end <= exit_ and 1 <= count <= INT64_MAX):
                        raise _fault(
                            StepRecord, _row(StepRecord, raw_step, step_row),
                            _where(i, _index(raw_tasks, raw_task), _index(raw_visits, raw_visit),
                                   _index(raw_steps, raw_step)),
                            enter, exit_,
                        )
                previous_exit = exit_
        yield session_id, raw_tasks


def _index(rows: Sequence, row) -> int:
    """The index of the first place of row in rows.  A task or a step that
    fails its check fails it at its first place, since the check does not
    depend on where the row sits among its siblings; a row below a task or
    a visit fails at the first place of that task or visit."""
    return next(index for index, item in enumerate(rows) if item is row)


def _visit_index(visits: Sequence, visit, previous_exit: int) -> int:
    """The index of the place where visit failed its check, entered before
    previous_exit: the first place of visit that follows a visit exited at
    previous_exit (0 for the first place).  A visit's check depends on the
    exit of the visit before it, so one visit object can pass at one place
    of its task and fail at a later one."""
    return next(
        k for k, item in enumerate(visits)
        if item is visit and (visits[k - 1][2] if k else 0) == previous_exit
    )


def _log_from(raw_sessions: Iterable) -> EventLog:
    """The log of decoded sessions, each row checked by _checked and then
    made its record as it is: its fields are not read again, except the
    strings.

    Each session's rows are dropped once its records are built, so the
    decoded tree and the records are never both alive whole.  A task whose
    binding equals the previous task's gets that binding object, so
    consecutive equal bindings are one object, as generate_log's are.  Equal
    task ids, concept names, pages and step labels are one str object each,
    as a generated log's are."""
    record = tuple.__new__
    built = []
    # Compared only once checked: str names and int values, never a bool,
    # so an equal binding is the same binding.
    shared = None
    # The first str object of each text, in any of the four shared fields.
    strings: dict[str, str] = {}
    first = strings.setdefault
    for session_id, raw_tasks in _checked(raw_sessions):
        tasks = []
        for raw_task in raw_tasks:
            task_id, concept_name, binding, _, raw_visits = raw_task
            raw_task[0] = first(task_id, task_id)
            raw_task[1] = first(concept_name, concept_name)
            if binding != shared:
                shared = binding
            raw_task[2] = shared
            visits = []
            for raw_visit in raw_visits:
                page = raw_visit[0]
                raw_visit[0] = first(page, page)
                steps = []
                for raw_step in raw_visit[3]:
                    label = raw_step[0]
                    raw_step[0] = first(label, label)
                    steps.append(record(StepRecord, raw_step))
                raw_visit[3] = tuple(steps)
                visits.append(record(PageVisit, raw_visit))
            raw_task[4] = tuple(visits)
            tasks.append(record(Task, raw_task))
        built.append(Session(session_id, tuple(tasks)))
    return EventLog(tuple(built))


def _row(kind: type, value, row: type):
    """value when it is a row of kind: of type row, a list or the record
    type, with one value per field; else None."""
    return value if type(value) is row and len(value) == len(kind._fields) else None


# Each record kind's name in messages, its own scalar fields in the order
# they are checked (str for a string, or an integer's least value), and the
# name of its child list.
_RULES = {
    Session: ("session", (("session_id", str),), "tasks"),
    Task: ("task", (("task_id", str), ("concept_name", str), ("is_count", 0)), "page_visits"),
    PageVisit: ("page visit", (("page", str), ("enter_ms", 0), ("exit_ms", 0)), "steps"),
    StepRecord: ("step record", (("step_label", str), ("start_ms", 0), ("end_ms", 0),
                                 ("is_count", 1)), None),
}


def _fault(kind: type, record: Sequence | None, where: str, *bounds: int) -> LogFormatError:
    """The fault of a record of this kind that failed its conjunction in
    _checked, located at where.  record holds the record's fields in the
    order of kind._fields, or is None when the value in the record's place
    is not a row of its level (see _row).  bounds are the previous visit's
    exit (0 for the first) for a page visit, and its visit's enter and exit
    for a step."""
    name, _, children = _RULES[kind]
    if record is None:
        message = f"{name} must be an array [{', '.join(kind._fields)}]"
    elif not (message := _field_fault(kind, fields := dict(zip(kind._fields, record)))):
        if children and type(fields[children]) not in (list, tuple):
            message = f"{children!r} must be a list"
        elif kind is PageVisit:
            message = _visit_fault(fields["enter_ms"], fields["exit_ms"], *bounds)
        elif kind is StepRecord:
            message = _step_fault(fields["start_ms"], fields["end_ms"], *bounds)
    return LogFormatError(message, where)


def _field_fault(kind: type, fields: dict) -> str | None:
    """The first of a record's own fields that load_log refuses, as a
    message, or None: a task's binding first, then the scalar fields in
    _RULES order.  fields maps each field's name to its value."""
    if kind is Task:
        binding = fields["binding"]
        if not isinstance(binding, Mapping):
            return "'binding' must be an object"
        for name, value in binding.items():
            if type(name) is not str:
                return f"binding name {name!r} must be a string"
            if type(value) is not int or value < 0:
                return f"binding value for {name!r} must be a nonnegative integer"
            if value > INT64_MAX:
                return f"binding value for {name!r} is outside the signed 64-bit range"
    for key, rule in _RULES[kind][1]:
        value = fields[key]
        if rule is str:
            if type(value) is not str:
                return f"{key!r} must be a string"
        elif type(value) is not int:
            return f"{key!r} must be an integer"
        elif value < rule:
            return f"{key!r} must be >= {rule}, got {value}"
        elif value > INT64_MAX:
            return f"{key!r} is outside the signed 64-bit range"
    return None


def _visit_fault(enter: int, exit_: int, previous_exit: int) -> str | None:
    """The interval rule a page visit breaks, or None: it runs forwards and
    is not entered before the previous visit of its task exits (0 for the
    first visit)."""
    if exit_ < enter:
        return "page visit exits before it is entered"
    if enter < previous_exit:
        return "page visits are not in chronological order"
    return None


def _step_fault(start: int, end: int, enter: int, exit_: int) -> str | None:
    """The interval rule a step breaks, or None: it runs forwards inside
    its page visit, entered at enter and left at exit_."""
    if end < start:
        return "step ends before it starts"
    if start < enter or end > exit_:
        return "step interval leaves its page visit"
    return None


def validate_log(log: EventLog) -> None:
    """Check a log built in memory by the rules load_log applies to a file.

    Raises the LogFormatError that load_log would raise on the log's JSON
    text, with the path to the first faulty record in document order, since
    it runs load_log's own row check, _checked, over the records: each
    record's own fields, then the type of its child list, then its
    intervals, then its children.  A child list may be a tuple or a list, a
    binding any Mapping, and a binding name must be a str.  A value in a
    record's place that is not a record of that level, an equal plain tuple
    included, gets the message load_log gives a row of the wrong shape: the
    record "must be an array" of its fields.
    """
    if type(log.sessions) not in (list, tuple):
        raise LogFormatError("'sessions' must be a list")
    for _ in _checked(log.sessions, (Session, Task, PageVisit, StepRecord)):
        pass


def cross_check(log: EventLog, concept: InteractionConcept) -> list[str]:
    """Messages for the tasks of this concept, with a binding, whose recorded
    IS count differs from what the concept yields at that binding, or at
    whose binding the concept yields no count: a variable is unbound, a
    count is negative or a value leaves the signed 64-bit range.  The count
    is found once per distinct binding, and looked up once per run of tasks
    that share one binding object, as a generated or loaded log's do."""
    normalized = normalize(sum_steps(concept))
    expected: dict[tuple, int | IxComplexError] = {}
    messages = []
    last = yielded = None
    for session_id, tasks in log.sessions:
        for task_id, concept_name, binding, is_count, _ in tasks:
            if concept_name != concept.name or not binding:
                continue
            if binding is not last:
                last = binding
                key = tuple(sorted(last.items()))
                if key not in expected:
                    try:
                        expected[key] = instantiate(normalized, last)
                    except IxComplexError as exc:
                        expected[key] = exc
                yielded = expected[key]
            if isinstance(yielded, IxComplexError):
                messages.append(
                    f"task {task_id!r} in session {session_id!r}: "
                    f"the concept yields no IS count at its binding: {yielded}"
                )
            elif yielded != is_count:
                messages.append(
                    f"task {task_id!r} in session {session_id!r} "
                    f"records {is_count} IS but the concept yields {yielded}"
                )
    return messages


# --- outlier removal -------------------------------------------------------


class IqrBounds(NamedTuple):
    q1: float
    q3: float
    lower: float
    upper: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def iqr_filter(samples: Sequence[float]) -> tuple[list[float], IqrBounds]:
    """Drop samples outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR]; order preserved."""
    if not samples:
        raise DomainError("cannot filter an empty sample list")
    ordered = sorted(samples)
    q1 = _interpolated_quantile(ordered, 0.25)
    q3 = _interpolated_quantile(ordered, 0.75)
    iqr = q3 - q1
    lower, upper = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    retained = [s for s in samples if lower <= s <= upper]
    return retained, IqrBounds(q1, q3, lower, upper)


def _interpolated_quantile(ordered: Sequence[float], fraction: float) -> float:
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + weight * (ordered[high] - ordered[low])


# --- tables ----------------------------------------------------------------

TABLE_COLUMNS = (
    "group",
    "n",
    "is",
    "min_s",
    "max_s",
    "mean_s",
    "max_is_per_s",
    "min_is_per_s",
    "mean_is_per_s",
)


def task_table(log: EventLog, group_by: str = "task_id") -> list[SpeedStats]:
    """Per-group task durations and speeds, outliers removed per group.

    group_by is "task_id" or "concept_name".  Tasks in a group must share
    one IS count; groups are emitted in sorted order, so the output does not
    depend on session ordering in the file.
    """
    _check_group_by(group_by)
    return _table(log, group_by, "task")


def step_table(log: EventLog) -> list[SpeedStats]:
    """Per-step-label durations and speeds across the whole log."""
    return _table(log, "task_id", "step")


def log_tables(
    data: bytes | str | Callable[[], bytes | str],
    group_by: str = "task_id",
    tables: str = "both",
    concept: Callable[[], InteractionConcept] | None = None,
) -> dict[str, list[SpeedStats]]:
    """The speed tables of a log file, by name: "task" when tables is "task"
    or "both", then "step" when it is "step" or "both".  data is the file's
    text, its UTF-8 bytes, or a function that returns either, called once.

    The rows are those of task_table(load_log(data), group_by) and
    step_table(load_log(data)), and so are their AnalyticsWarnings, in the
    same order, but issued only once every table is computed, so an
    exception comes without them.  The exception is the one those calls
    raise, a fault of the file first.  One more warning comes before all
    others when the log holds no task: "log contains no tasks".

    concept, when given, is called once the log is checked and that warning
    issued, and returns the concept that the tasks' IS counts are checked
    against: each message of cross_check is an AnalyticsWarning, issued
    before the tables are computed.  The file is read as _walked reads it:
    each session, once checked, goes straight into the durations of its
    groups, and its tasks, without page visits, are kept for that check
    only.  A long text in dump_log's layout is read through a template of
    its first session (see _template and _TEMPLATE_ROOM): each later
    session of that shape costs one match of a regular expression and int()
    of its timestamps, and builds no JSON values, and most of a long run of
    them is read a chunk at a time, a column at a time; a session of
    another shape costs one failed match more than a decoded one.  The text
    of the file is dropped once it is read.  A caller that passes the text
    itself may hold it until the call returns (before Python 3.11, every
    caller does); one that passes a function does not, so no copy of the
    file is alive while the rows are computed.
    """
    if tables not in _TABLES:
        raise DomainError(f"tables must be 'task', 'step' or 'both', got {tables!r}")
    names = _TABLES[tables]

    if callable(data):
        data = data()

    keep = concept is not None

    def take(sessions: Iterable) -> _Samples:
        return _Samples(group_by, names, keep).add(_checked(sessions))

    def take_text(text: str) -> _Samples:
        samples = _Samples(group_by, names, keep)
        return samples.add(_checked(_streamed(text, samples)))

    with gc_paused():
        samples = _walked(data, take, take_text)
        del data
        grouped = samples.tables
        if not samples.has_tasks:
            warnings.warn("log contains no tasks", AnalyticsWarning, stacklevel=2)
        if samples.kept is not None:
            _warn(cross_check(EventLog(tuple(samples.kept)), concept()), 2)
        del samples
    if "task" in names:
        _check_group_by(group_by)
    rows: dict[str, list[SpeedStats]] = {}
    notes: list[str] = []
    for name in names:
        groups, skipped = grouped[name]
        notes += skipped
        rows[name] = _rows_from_groups(groups, notes)
    _warn(notes, 2)
    return rows


# The tables log_tables computes for each value of its tables argument.
_TABLES = {"task": ("task",), "step": ("step",), "both": ("task", "step")}


def _check_group_by(group_by: str) -> None:
    if group_by not in ("task_id", "concept_name"):
        raise DomainError(f"group_by must be 'task_id' or 'concept_name', got {group_by!r}")


def _warn(messages: Iterable[str], stacklevel: int) -> None:
    """Each message as an AnalyticsWarning, with stacklevel counted from the
    caller of _warn, as warnings.warn counts it."""
    for message in messages:
        warnings.warn(message, AnalyticsWarning, stacklevel=stacklevel + 1)


def _table(log: EventLog, group_by: str, name: str) -> list[SpeedStats]:
    """The table named name of a log in memory, warning of the tasks or
    steps skipped before its rows are computed, and of each group that
    outlier removal empties after."""
    groups, skipped = _Samples(group_by, (name,)).add(log.sessions).tables[name]
    _warn(skipped, 3)
    emptied: list[str] = []
    rows = _rows_from_groups(groups, emptied)
    _warn(emptied, 3)
    return rows


_Groups = dict[str, tuple[set[int], list[int]]]


class _Samples:
    """The samples of the speed tables named in names ("task", "step"),
    filled by add.

    tables maps each name to the table's groups, each group's name mapped
    to the set of its IS counts and the list of its durations in integer
    milliseconds, in document order, and to the warnings for the tasks or
    steps the table skips, in document order.  has_tasks tells whether any
    session added holds a task.  kept, when keep is true, holds the sessions
    added, with their tasks' records, page visits left out, and is None
    otherwise.  A task lasts from its first page visit's enter to its last
    one's exit, and tasks are grouped by group_by.
    """

    def __init__(self, group_by: str, names: Sequence[str], keep: bool = False):
        # The index of the field that names a task's group.
        self.key = 1 if group_by == "concept_name" else 0
        self.tables: dict[str, tuple[_Groups, list[str]]] = {name: ({}, []) for name in names}
        self.has_tasks = False
        self.kept: list | None = [] if keep else None

    def add(self, sessions: Iterable[Sequence]) -> _Samples:
        """Add the samples of sessions, and return self.

        sessions yields each session's id and tasks, with each task
        [task_id, concept_name, binding, is_count, page_visits], each page
        visit [page, enter_ms, exit_ms, steps] and each step [step_label,
        start_ms, end_ms, is_count]: the checked rows of a file, from
        _checked, or the records of a log, whose fields are in the same
        order.  Each kept task whose binding equals the previous one's gets
        that binding object."""
        task_groups, task_skipped = self.tables.get("task", (None, None))
        step_groups, step_skipped = self.tables.get("step", (None, None))
        key = self.key
        kept = self.kept
        shared = None
        for session_id, tasks in sessions:
            if tasks:
                self.has_tasks = True
            if kept is not None:
                records = []
                for task_id, concept_name, binding, is_count, _ in tasks:
                    if binding != shared:
                        shared = binding
                    records.append(Task(task_id, concept_name, shared, is_count))
                kept.append(Session(session_id, tuple(records)))
            for task in tasks:
                visits = task[4]
                if task_groups is not None:
                    if not visits:
                        task_skipped.append(
                            f"task {task[0]!r} in session {session_id!r} has no page visits; skipped"
                        )
                    elif (duration := visits[-1][2] - visits[0][1]) <= 0:
                        task_skipped.append(
                            f"task {task[0]!r} in session {session_id!r} has zero duration; skipped"
                        )
                    else:
                        group = task_groups.get(task[key])
                        if group is None:
                            group = task_groups[task[key]] = (set(), [])
                        group[0].add(task[3])
                        group[1].append(duration)
                if step_groups is not None:
                    for visit in visits:
                        for label, start, end, count in visit[3]:
                            if (duration := end - start) <= 0:
                                step_skipped.append(
                                    f"step {label!r} in session {session_id!r} has zero duration; skipped"
                                )
                                continue
                            group = step_groups.get(label)
                            if group is None:
                                group = step_groups[label] = (set(), [])
                            group[0].add(count)
                            group[1].append(duration)
        return self


def _rows_from_groups(groups: _Groups, notes: list[str]) -> list[SpeedStats]:
    """The rows of groups, in sorted order of their names, outliers removed
    per group; a group that outlier removal empties adds its warning to
    notes instead.  Here, and only here, a group's durations are made
    seconds, in their order, before iqr_filter sees them."""
    rows: list[SpeedStats] = []
    for key in sorted(groups):
        counts, durations_ms = groups[key]
        if len(counts) > 1:
            raise DomainError(f"group {key!r} mixes IS counts {sorted(counts)}")
        retained, _ = iqr_filter(list(map(truediv, durations_ms, repeat(1000.0))))
        if not retained:
            notes.append(f"group {key!r} is empty after outlier removal; omitted")
            continue
        (is_count,) = counts
        if is_count < 0:
            raise DomainError(f"IS count cannot be negative, got {is_count}")
        rows.append(_speed_row(key, is_count, retained))
    return rows


# --- rendering -------------------------------------------------------------


def _row_cells(row: SpeedStats) -> list[str]:
    group, n, is_count, *seconds_and_speeds = row
    # A log's JSON escapes can name a lone surrogate, which UTF-8 cannot
    # encode; the cell shows its escape instead, as \ud800.
    group = group.encode("utf-8", "backslashreplace").decode("utf-8")
    return [group, str(n), str(is_count), *map(format_fixed, seconds_and_speeds)]


def table_to_text(rows: Sequence[SpeedStats]) -> str:
    """Aligned text table with the canonical column set."""
    cells = [list(TABLE_COLUMNS)] + [_row_cells(row) for row in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(TABLE_COLUMNS))]
    lines = []
    for line in cells:
        padded = [value.ljust(widths[i]) for i, value in enumerate(line)]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines)


def table_to_csv(rows: Sequence[SpeedStats]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    for row in rows:
        writer.writerow(_row_cells(row))
    return buffer.getvalue()


def table_to_dicts(rows: Sequence[SpeedStats]) -> list[dict]:
    return [dict(zip(TABLE_COLUMNS, row)) for row in rows]
