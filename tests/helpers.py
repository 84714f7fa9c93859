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

from ixcomplex.concept import (
    ActionKind,
    ConceptVariable,
    InteractionConcept,
    UserStep,
    serialize_concept,
)
from ixcomplex.bigi import class_label
from ixcomplex.errors import (
    ConceptSyntaxError,
    DomainError,
    ExpressionSyntaxError,
    InvalidBindingError,
    NegativeCountError,
    OverflowLimitError,
    TermLimitError,
    UnboundVariableError,
)
from ixcomplex.expr import (
    _END,
    _LOWER_TOKEN,
    _MAX_DIGITS,
    INT64_MAX,
    INT64_MIN,
    MAX_NESTING,
    MAX_TERMS,
    ONE,
    Expression,
    _long_literal,
    _scan,
    _SyntaxAt,
    is_variable_name,
    parse_expr,
)
from ixcomplex.logs import EventLog, PageVisit, Session, StepRecord, Task
from ixcomplex.synth import ActionCounts, eval_source

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


# Every line boundary of str.splitlines ("\r\n" is one too).
LINE_BOUNDARIES = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                   "\u2029")


@st.composite
def unicode_texts(draw):
    """Texts of any characters but surrogates; one in eight has a line
    boundary, a double quote or a '#' put in."""
    text = draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=10))
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(LINE_BOUNDARIES + ('"', "#"))) + text[at:]
    return text


@st.composite
def concepts(draw, texts=None):
    """Valid concepts; with texts, the name, labels, descriptions and notes
    are all drawn from texts instead, and labels may repeat, so the name or
    a label may also be empty or a label repeated."""
    names, sides = (labels(), side_texts()) if texts is None else (texts, texts)
    name = draw(names)
    pool = draw(st.lists(st.sampled_from(VARIABLE_NAMES), unique=True, max_size=6))
    variables = tuple(ConceptVariable(v, draw(sides)) for v in pool)

    step_labels = draw(st.lists(names, unique=texts is None, max_size=6))
    steps = []
    for label in step_labels:
        kinds = draw(st.lists(st.sampled_from(list(ActionKind)), unique=True, max_size=4))
        actions = {kind: draw(_restricted(pool)) for kind in kinds}
        repeat = draw(st.one_of(st.just(parse_expr("1")), _restricted(pool)))
        note = draw(st.one_of(st.none(), sides.filter(bool)))
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
# join into one character on reading, so dump_log refuses it (a test in
# test_logs.py checks that); hostile_texts keeps surrogates lone.
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
def _visits(draw, texts, free=False):
    """Page visits of one task that obey the interval rules, or with free,
    whose timestamps are drawn each on its own, so that any rule may break."""
    visits = []
    previous_exit = draw(log_ints())
    for _ in range(draw(st.integers(0, 3))):
        enter = draw(log_ints() if free else log_ints(previous_exit))
        exit_ = draw(log_ints() if free else log_ints(enter))
        steps = []
        for _ in range(draw(st.integers(0, 3))):
            start = draw(log_ints() if free else log_ints(enter, exit_))
            end = draw(log_ints() if free else log_ints(start, exit_))
            steps.append(StepRecord(draw(texts), start, end, draw(log_ints(1))))
        visits.append(PageVisit(draw(texts), enter, exit_, tuple(steps)))
        previous_exit = exit_
    return tuple(visits)


def event_logs(free_intervals=False):
    """Valid logs: hostile strings, bindings in arbitrary insertion order,
    integers at both ends of their range and empty tuples at every level.
    With free_intervals, every field is still valid but the timestamps are
    drawn freely, so the interval rules may break anywhere, and the strings
    are plain ones, which cost less to draw."""
    texts = st.sampled_from(("", "p", "é")) if free_intervals else hostile_texts()
    tasks = st.builds(
        Task,
        texts,
        texts,
        st.dictionaries(texts, log_ints(), max_size=4),
        log_ints(),
        _visits(texts, free_intervals),
    )
    sessions = st.builds(Session, texts, st.lists(tasks, max_size=3).map(tuple))
    return st.builds(EventLog, st.lists(sessions, max_size=3).map(tuple))


# --- reference expression parser ----------------------------------------------
#
# A tokenizer and a recursive-descent parser over the same grammar and token
# pattern as ixcomplex.expr, built from Expression's own arithmetic: the whole
# text is tokenized first, so a lexical error anywhere comes before any other,
# and each + - * is applied as soon as its right operand is parsed.  The
# differential test holds the one-scan parser to the same values, keys,
# messages and offsets.

_REFERENCE_MAX_DIGITS = len(str(INT64_MAX))


def _reference_range(value, what, offset=None):
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowLimitError(f"{what} {value} is outside the signed 64-bit range", offset)
    return value


def reference_parse(text, token_pattern):
    tokens = _reference_tokenize(text, token_pattern)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    parser = _ReferenceParser(text, tokens)
    result = parser.parse_expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ExpressionSyntaxError(f"unexpected {trailing[1]!r}", trailing[2])
    return result


def _reference_tokenize(text, token_pattern):
    tokens = []
    pos = 0
    while True:
        match = token_pattern.match(text, pos)
        pos = match.end()
        group = match.lastindex
        if group is None:
            return tokens
        start, lexeme = match.start(group), match.group(group)
        if group == 1:
            digits = lexeme.lstrip("0") or "0"
            if len(digits) > _REFERENCE_MAX_DIGITS:
                raise OverflowLimitError(
                    f"integer literal {digits[:_REFERENCE_MAX_DIGITS]}... ({len(digits)} digits) "
                    "is outside the signed 64-bit range",
                    start,
                )
            tokens.append(("int", _reference_range(int(digits), "integer literal", start), start))
        elif group == 4:
            raise ExpressionSyntaxError(f"unknown character {lexeme!r}", start)
        else:
            tokens.append(("name" if group == 2 else lexeme, lexeme, start))


class _ReferenceParser:
    def __init__(self, text, tokens):
        self.text = text
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def parse_expression(self):
        token = self.peek()
        negate = token is not None and token[0] == "-"
        if negate:
            self.index += 1
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            token = self.peek()
            if token is None or token[0] not in "+-":
                return value
            self.index += 1
            rhs = self.parse_term()
            value = value + rhs if token[0] == "+" else value - rhs

    def parse_term(self):
        value = self.parse_factor()
        while True:
            token = self.peek()
            if token is None or token[0] != "*":
                return value
            self.index += 1
            value = value * self.parse_factor()

    def parse_factor(self):
        token = self.peek()
        if token is None:
            raise ExpressionSyntaxError("unexpected end of expression", len(self.text))
        kind, value, pos = token
        if kind == "int":
            self.index += 1
            return Expression((((), value),))
        if kind == "name":
            self.index += 1
            return Expression(((((value, 1),), 1),))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested more than {MAX_NESTING} deep", pos
                )
            self.index += 1
            self.depth += 1
            inner = self.parse_expression()
            self.depth -= 1
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise ExpressionSyntaxError(
                    "missing closing parenthesis",
                    closing[2] if closing else len(self.text),
                )
            self.index += 1
            return inner
        raise ExpressionSyntaxError(f"unexpected {value!r}", pos)


# --- reference comment split for concept lines ----------------------------------


def reference_split_comment(line):
    """A concept line read one character at a time, toggling at each double
    quote: (code, comment, None) split at the first '#' outside quotes, or
    (line, None, index) when the quote at index is left open."""
    open_at = None
    for i, ch in enumerate(line):
        if ch == '"':
            open_at = i if open_at is None else None
        elif ch == "#" and open_at is None:
            return line[:i], line[i + 1 :], None
    return line, None, open_at


_LOWER_NAMES = ("a", "b", "x", "r2", "ab_1")
_MIXED_NAMES = _LOWER_NAMES + ("Q", "Tz", "M_x")
# Literals near the 64-bit edge: 2**62, 2**63 - 1, isqrt(2**63) and its
# successor, 2**31, and leading zeros.  The grammar texts draw only these
# and small ones; literals past the range come in with the junk.
_EDGE_LITERALS = (
    "4611686018427387904", "9223372036854775807", "3037000499", "3037000500",
    "2147483648", "0" * 20 + "7", "007",
)
_JUNK_TEXTS = (
    "9223372036854775808", "9999999999999999999", "10000000000000000000", "1" * 20,
    "$", "é", "٣", "１", "²", ".", "/", "^", "\u200b", "_", "[", "Q",
)
_GAPS = ("", "", " ", "  ", "\t", "\n", "\u3000")


def _literals():
    return st.one_of(st.integers(0, 12).map(str), st.sampled_from(_EDGE_LITERALS))


def _sums(factors):
    terms = st.lists(factors, min_size=1, max_size=3).map("*".join)
    return st.builds(
        _sum_text,
        st.sampled_from(("", "-")),
        terms,
        st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=3),
        st.sampled_from(_GAPS),
    )


def _sum_text(sign, first, rest, gap):
    return sign + first + "".join(f"{gap}{op}{gap}{term}" for op, term in rest)


def grammar_texts(names=_LOWER_NAMES):
    """Texts of the expression grammar: signed sums of products of
    literals, names and parenthesised sums."""
    atoms = st.one_of(_literals(), st.sampled_from(names))
    return st.recursive(
        atoms, lambda inner: _sums(st.one_of(atoms, inner.map(lambda t: f"({t})"))), max_leaves=14
    )


@st.composite
def parser_texts(draw):
    """Grammar texts, over lowercase or mixed-case names; some with junk,
    literals past the range or an operator spliced in, or cut short; token
    soups; and parentheses nested up to and past MAX_NESTING."""
    kind = draw(st.sampled_from(("grammar", "spliced", "soup", "nested")))
    if kind == "soup":
        vocabulary = st.one_of(
            _literals(), st.sampled_from(_MIXED_NAMES + _JUNK_TEXTS + tuple("+-*()"))
        )
        parts = draw(st.lists(st.tuples(st.sampled_from(_GAPS), vocabulary), max_size=10))
        return "".join(gap + token for gap, token in parts)
    text = draw(grammar_texts(draw(st.sampled_from((_LOWER_NAMES, _MIXED_NAMES)))))
    if kind == "spliced":
        at = draw(st.integers(0, len(text)))
        insert = draw(st.sampled_from(_JUNK_TEXTS + tuple("+-*()") + ("",)))
        end = draw(st.integers(at, len(text)))
        text = text[:at] + insert + text[end:]
    elif kind == "nested":
        depth = draw(st.sampled_from((MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1)))
        closing = depth + draw(st.integers(-1, 1))
        text = "(" * depth + text + ")" * closing
    return text


# --- reference concept reader -------------------------------------------------
#
# The line-at-a-time concept reader, as ixcomplex.concept read every line
# before it read a step line of the usual shape with one match: a comment
# split, a keyword, then a quoted label, a repeat, a body split at ';' and
# each part at ':', every expression parsed on its own.  The differential
# test holds the package's one step reader to the same concepts, messages,
# lines and columns.

_REFERENCE_CODE_AND_COMMENT = re.compile(r'((?:[^"#]+|"[^"]*")*)(?:#(.*))?')
_REFERENCE_KEYWORD = re.compile(r"\s*(\S+)\s*")
_REFERENCE_SPACES = re.compile(r"\s*")
_REFERENCE_REPEAT = re.compile(r"repeat(?!\w)")
_REFERENCE_KIND_BY_LETTER = {kind.value: kind for kind in ActionKind}


def reference_parse_concept(text):
    concept_name = None
    variables = []
    declared = set()
    step_lines = []
    for number, raw_line in enumerate(text.splitlines(), start=1):
        code, comment = _reference_split(raw_line, number)
        head = _REFERENCE_KEYWORD.match(code)
        if head is None:
            continue
        keyword, pos = head[1], head.end()
        if keyword == "concept":
            if concept_name is not None:
                raise ConceptSyntaxError("duplicate concept line", number)
            concept_name = _reference_concept_line(code, pos, number)
        elif concept_name is None:
            raise ConceptSyntaxError("the concept line must come before anything else", number)
        elif keyword == "var":
            variables.append(_reference_var_line(code[pos:].rstrip(), comment, declared, number))
            declared.add(variables[-1].name)
        elif keyword == "step":
            step_lines.append((number, code, pos, comment))
        else:
            raise ConceptSyntaxError(
                f"expected 'concept', 'var' or 'step', found {keyword!r}", number, head.start(1) + 1
            )
    if concept_name is None:
        raise ConceptSyntaxError("missing concept line", 1)
    steps = []
    labels = set()
    for number, code, pos, comment in step_lines:
        step = _reference_step_line(code, pos, comment, number)
        errors = _reference_step_errors(step, labels, declared)
        if errors:
            raise ConceptSyntaxError(errors[0], number)
        labels.add(step.label)
        steps.append(step)
    return InteractionConcept(concept_name, tuple(variables), tuple(steps))


def _reference_variable_errors(name, declared):
    errors = []
    if not is_variable_name(name):
        errors.append(f"invalid variable name {name!r}")
    if name in declared:
        errors.append(f"duplicate variable {name!r}")
    return errors


def _reference_step_errors(step, labels, declared):
    errors = []
    if step.label in labels:
        errors.append(f"duplicate step label {step.label!r}")
    used = step.repeat.variables().union(*(e.variables() for e in step.actions.counts if e.terms))
    errors.extend(f"undeclared variable {name!r}" for name in sorted(used - declared))
    return errors


def _reference_split(line, number):
    match = _REFERENCE_CODE_AND_COMMENT.match(line)
    if match.end() < len(line):
        raise ConceptSyntaxError("unterminated quote", number, match.end() + 1)
    return match[1], match[2]


def _reference_quoted(code, start, number):
    if start >= len(code) or code[start] != '"':
        raise ConceptSyntaxError("expected an opening quote", number, start + 1)
    end = code.find('"', start + 1)
    if end < 0:
        raise ConceptSyntaxError("unterminated quote", number, start + 1)
    return code[start + 1 : end], end + 1


def _reference_concept_line(code, pos, number):
    name, pos = _reference_quoted(code, pos, number)
    if code[pos:].strip():
        raise ConceptSyntaxError("unexpected text after the concept name", number, pos + 1)
    if not name:
        raise ConceptSyntaxError("concept name is empty", number)
    return name


def _reference_var_line(rest, comment, declared, number):
    if not rest:
        raise ConceptSyntaxError("missing variable name", number)
    errors = _reference_variable_errors(rest, declared)
    if errors:
        raise ConceptSyntaxError(errors[0], number)
    return ConceptVariable(rest, comment or "")


def _reference_step_line(code, pos, comment, number):
    label, pos = _reference_quoted(code, pos, number)
    if not label:
        raise ConceptSyntaxError("empty step label", number)
    pos = _REFERENCE_SPACES.match(code, pos).end()
    repeat = ONE
    if _REFERENCE_REPEAT.match(code, pos):
        brace = code.find("{", pos)
        if brace < 0:
            raise ConceptSyntaxError("missing '{' after repeat expression", number, pos + 1)
        repeat = _reference_embedded(code[pos + len("repeat") : brace], pos + len("repeat"), number)
        pos = brace
    if pos >= len(code) or code[pos] != "{":
        raise ConceptSyntaxError("expected '{'", number, pos + 1)
    closing = code.find("}", pos)
    if closing < 0:
        raise ConceptSyntaxError("missing '}'", number, pos + 1)
    body = code[pos + 1 : closing]
    if code[closing + 1 :].strip():
        raise ConceptSyntaxError("unexpected text after '}'", number, closing + 2)
    actions = {}
    offset = pos + 1
    for part in body.split(";"):
        if not part.strip():
            offset += len(part) + 1
            continue
        letter, sep, expr_text = part.partition(":")
        if not sep:
            raise ConceptSyntaxError("expected '<action>: <expr>'", number, offset + 1)
        letter = letter.strip()
        try:
            kind = _REFERENCE_KIND_BY_LETTER[letter]
        except KeyError:
            raise ConceptSyntaxError(
                f"unknown action kind {letter!r} (expected one of T, E, C, S, X)",
                number,
                offset + 1,
            ) from None
        if kind in actions:
            raise ConceptSyntaxError(f"duplicate action kind {letter!r}", number, offset + 1)
        actions[kind] = _reference_embedded(expr_text, offset + len(part) - len(expr_text), number)
        offset += len(part) + 1
    return UserStep(label, actions, repeat, comment)


def _reference_embedded(text, base, number):
    try:
        return parse_expr(text)
    except (ExpressionSyntaxError, OverflowLimitError) as exc:
        if exc.offset is None:
            raise
        raise ConceptSyntaxError(str(exc), number, base + exc.offset + 1) from None


def _sum_of(count):
    return "(" + " + ".join(f"v{i}" for i in range(count)) + ")"


# Text spliced into a line at any place: quotes, comment marks, braces,
# separators, kinds known and unknown, a repeat, and the spaces that
# str.isspace and str.splitlines treat alike or apart.
_SPLICES = ('"', "#", "}", "{", ";", ";;", " ; ; ", ":", "Q", "t", "TT", " x", "repeat",
            " repeat 2 ", "; T: 1", "; C: a", "\x85", "　", "\t")
# Texts put in place of a repeat or a count: a 20-digit literal, products
# out of the signed 64-bit range, a product past MAX_TERMS, and faults of
# the grammar.
_BAD_EXPRESSIONS = ("1" * 20, "9223372036854775807*2", "3037000500*3037000500*a",
                    f"{_sum_of(100)}*{_sum_of(101)}", "", " ", "a a", "(a", "é", "z")
_LABELS = ('""', '"a#b"', '"a}b"', '"{"', '"step 1"', '"#"')
_AROUND = re.compile(r"[TECSX](?=\s*:)|:")
_PUNCTUATION = re.compile(r'[{}":;]')
_PART_TEXT = re.compile(r"[TECSX]: [^;}]*")
_EXPRESSION_TEXT = re.compile(r"(?<=:)[^;}]*|(?<=repeat)[^{]*")


@st.composite
def concept_texts(draw):
    """The text of a random_concept, drawn by seed, with up to three of its
    lines, mostly step lines, mutated: a splice at any place, a space
    around a kind or a colon, a brace, quote, colon or ';' cut, a bad
    expression for a repeat or a count, a part of the body repeated, or a
    label emptied, repeated or holding a '#' or a brace."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = serialize_concept(random_concept(rng, max_steps=6)).splitlines()
    steps = [at for at, line in enumerate(lines) if line.startswith("step")]
    for _ in range(draw(st.integers(0, 3))):
        # Mostly a step line, the lines the reader reads by one match.
        if steps and draw(st.integers(0, 3)):
            at = draw(st.sampled_from(steps))
        else:
            at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        mutation = draw(st.sampled_from(("splice", "space", "cut", "expression", "label", "part")))
        if mutation == "splice":
            pos = draw(st.integers(0, len(line)))
            line = line[:pos] + draw(st.sampled_from(_SPLICES)) + line[pos:]
        elif mutation == "space":
            places = [m.start() for m in _AROUND.finditer(line)] + [
                m.end() for m in _AROUND.finditer(line)
            ]
            if places:
                pos = draw(st.sampled_from(places))
                line = line[:pos] + draw(st.sampled_from(("\x85", "　", "\t"))) + line[pos:]
        elif mutation == "cut":
            places = [m.start() for m in _PUNCTUATION.finditer(line)]
            if places:
                pos = draw(st.sampled_from(places))
                line = line[:pos] + line[pos + 1 :]
        elif mutation == "expression":
            spans = [m.span() for m in _EXPRESSION_TEXT.finditer(line)]
            bad = draw(st.sampled_from(_BAD_EXPRESSIONS))
            if spans:
                start, end = draw(st.sampled_from(spans))
                line = f"{line[:start]} {bad} {line[end:]}"
            elif "{" in line:
                line = line.replace("{", f"repeat {bad} {{", 1)
        elif mutation == "part":
            parts = _PART_TEXT.findall(line)
            if parts and "}" in line:
                line = line.replace("}", f"; {draw(st.sampled_from(parts))} }}", 1)
        elif mutation == "label":
            line = re.sub(r'"[^"]*"', draw(st.sampled_from(_LABELS)), line, count=1)
        lines[at] = line
    return "\n".join(lines) + "\n"


# Leaf texts of the oracle cases: some raise for a binding without b or with
# a below 2 or negative, and some overflow only under a repeat of 2 or more.
_LEAVES = ("a", "b", "a - 2", "2*a", "a*b", "b - a", "1", "2", "4611686018427387904",
           "9223372036854775807 - a")
_BINDING_VALUES = (0, 1, 2, 3, 2**31, 2**62, 2**63 - 1, -1)


@st.composite
def oracle_cases(draw):
    """A concept whose repeats and counts come from a few leaf texts, each
    parsed afresh where it is used, so that equal leaves recur as distinct
    objects; and a binding of a and b that may lack a name or hold a
    negative or 64-bit-edge value."""
    texts = draw(st.lists(st.sampled_from(_LEAVES), min_size=1, max_size=3))
    leaves = st.sampled_from(texts).map(parse_expr)
    steps = []
    for index in range(draw(st.integers(0, 5))):
        kinds = draw(st.lists(st.sampled_from(list(ActionKind)), unique=True, max_size=3))
        actions = {kind: draw(leaves) for kind in kinds}
        repeat = draw(st.one_of(st.just(ONE), leaves))
        steps.append(UserStep(f"s{index}", actions, repeat))
    variables = (ConceptVariable("a"), ConceptVariable("b"))
    values = [draw(st.sampled_from((*_BINDING_VALUES, None))) for _ in "ab"]
    binding = {name: value for name, value in zip("ab", values) if value is not None}
    return InteractionConcept("oracle", variables, tuple(steps)), binding


# --- reference oracle ---------------------------------------------------------
#
# count_actions as it was before it read steps by slot and kept each leaf's
# value for the rest of the call: every leaf of every step is rendered, by
# the renderer that expanded each monomial again, and evaluated afresh.


def reference_count_actions(concept, binding):
    totals = {kind: 0 for kind in ActionKind}
    for step in concept.steps:
        for kind, count in _reference_step_counts(step, binding).items():
            totals[kind] += count
    per_kind = {kind: count for kind, count in totals.items() if count}
    return ActionCounts(per_kind, _reference_in_range(sum(totals.values()), "total count"))


def _reference_step_counts(step, binding):
    repeat = _reference_leaf_value(step.repeat, binding)
    return {
        kind: _reference_in_range(repeat * _reference_leaf_value(expr, binding), "step count")
        for kind, expr in step.actions.per_kind.items()
    }


def _reference_in_range(count, what):
    if count > INT64_MAX:
        raise OverflowLimitError(f"{what} {count} is outside the signed 64-bit range")
    return count


def _reference_leaf_value(expr, binding):
    value = eval_source(reference_format_expr(expr), binding)
    if value < 0:
        raise NegativeCountError(reference_format_expr(expr), value)
    return value


def reference_format_expr(expression):
    """format_expr as it rendered each term from its monomial."""
    if not expression.terms:
        return "0"
    parts = []
    for i, (mono, coeff) in enumerate(expression.terms):
        magnitude = _reference_magnitude(mono, abs(coeff))
        if coeff == INT64_MIN:
            magnitude = f"{_reference_magnitude(mono, INT64_MAX)} - {_reference_magnitude(mono, 1)}"
        if i == 0:
            parts.append(magnitude if coeff > 0 else f"-{magnitude}")
        else:
            parts.append(f"+ {magnitude}" if coeff > 0 else f"- {magnitude}")
    return " ".join(parts)


def _reference_magnitude(mono, coeff):
    factors = [name for name, exp in mono for _ in range(exp)]
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return "*".join(factors)


# --- reference polynomial engine ---------------------------------------------
#
# ixcomplex.expr's term handling as it was when an expression stored every
# term twice: as a (monomial, coefficient) pair in the terms field and as
# its sort key beside it, every product, gather and fold rebuilding the
# monomial from the key.  The constructor, + - *, Sum, the parser's fold,
# evaluate and bigi.simplify are kept here, with reference_format_expr as
# the renderer; the differential test holds the key-only engine to the same
# values, keys, texts and errors.


class ReferenceExpression:
    __slots__ = ("terms", "_keys")

    def __repr__(self):
        return f"Expression(terms={self.terms!r})"

    def __init__(self, terms=()):
        merged = {}
        for mono, coeff in terms:
            if type(coeff) is not int:
                raise DomainError(f"coefficient {coeff!r} must be an integer")
            mono = _reference_canonical_mono(mono)
            merged[mono] = merged.get(mono, 0) + coeff
        keys = {mono: _reference_mono_key(mono) for mono, coeff in merged.items() if coeff != 0}
        order = sorted(keys, key=keys.__getitem__)
        terms = tuple((mono, _reference_range(merged[mono], "coefficient")) for mono in order)
        self.terms = terms
        self._keys = tuple(keys[mono] for mono in order)

    def variables(self):
        return frozenset(name for mono, _ in self.terms for name, _ in mono)

    def select(self, keep):
        kept = [index for index, (mono, _) in enumerate(self.terms) if keep(mono)]
        return _reference_canonical(
            tuple(self.terms[index] for index in kept), tuple(self._keys[index] for index in kept)
        )

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        return ReferenceSum((self, other)).value()

    def __sub__(self, other):
        if not other.terms:
            return self
        difference = ReferenceSum((self,))
        difference.add(other, -1)
        return difference.value()

    def __neg__(self):
        return _reference_scale(self, -1)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(a) * len(b) > MAX_TERMS:
            raise TermLimitError(
                f"a product of {len(a)} by {len(b)} terms would form more than "
                f"{MAX_TERMS} monomial products"
            )
        if not a or not b:
            return REFERENCE_ZERO
        if len(a) == 1:
            if not a[0][0]:
                return _reference_scale(other, a[0][1])
            return _reference_term_times(a[0][1], self._keys[0], other)
        if len(b) == 1:
            if not b[0][0]:
                return _reference_scale(self, b[0][1])
            return _reference_term_times(b[0][1], other._keys[0], self)
        coeffs = {}
        for (_, coeff_a), (degree_a, expanded_a) in zip(a, self._keys):
            for (_, coeff_b), (degree_b, expanded_b) in zip(b, other._keys):
                key = (degree_a + degree_b, tuple(sorted(expanded_a + expanded_b)))
                coeffs[key] = coeffs.get(key, 0) + coeff_a * coeff_b
        order = sorted(key for key, coeff in coeffs.items() if coeff != 0)
        return _reference_canonical(
            tuple(
                (_reference_grouped(key[1]), _reference_range(coeffs[key], "coefficient"))
                for key in order
            ),
            tuple(order),
        )


def _reference_mono_key(mono):
    expanded = tuple(name for name, exp in mono for _ in range(exp))
    return (-len(expanded), expanded)


def _reference_canonical_mono(mono):
    powers = {}
    for name, exp in mono:
        if type(exp) is not int:
            raise DomainError(f"exponent {exp!r} of {name!r} must be an integer")
        if exp < 0:
            raise DomainError(f"exponent {exp} of {name!r} is negative")
        powers[name] = powers.get(name, 0) + exp
    return tuple(sorted((name, exp) for name, exp in powers.items() if exp))


def _reference_grouped(expanded):
    mono = []
    for name in expanded:
        if mono and mono[-1][0] == name:
            mono[-1] = (name, mono[-1][1] + 1)
        else:
            mono.append((name, 1))
    return tuple(mono)


def _reference_canonical(terms, keys):
    expression = object.__new__(ReferenceExpression)
    expression.terms = terms
    expression._keys = keys
    return expression


def _reference_scale(expression, factor):
    if factor == 1:
        return expression
    terms = tuple(
        (mono, _reference_range(coeff * factor, "coefficient")) for mono, coeff in expression.terms
    )
    return _reference_canonical(terms, expression._keys)


def _reference_term_times(coeff, key, expression):
    degree, expanded = key
    terms = []
    keys = []
    for (_, coeff_b), (degree_b, expanded_b) in zip(expression.terms, expression._keys):
        product = tuple(sorted(expanded + expanded_b))
        coeff_product = _reference_range(coeff * coeff_b, "coefficient")
        terms.append((_reference_grouped(product), coeff_product))
        keys.append((degree + degree_b, product))
    return _reference_canonical(tuple(terms), tuple(keys))


class ReferenceSum:
    def __init__(self, expressions=()):
        self.coeffs = {}
        self.monos = {}
        self.lone = None
        for expression in expressions:
            self.add(expression)

    def add(self, expression, sign=1):
        if expression.terms:
            self.lone = expression if sign > 0 and not self.coeffs else None
            _reference_gather(self.coeffs, self.monos, expression, sign)

    def value(self):
        if self.lone is not None:
            return self.lone
        return _reference_gathered(self.coeffs, self.monos)


def _reference_gather(coeffs, monos, expression, sign):
    for (mono, coeff), key in zip(expression.terms, expression._keys):
        if sign < 0:
            coeff = -coeff
        if key in coeffs:
            coeff += coeffs[key]
        else:
            monos[key] = mono
        coeffs[key] = _reference_range(coeff, "coefficient")


def _reference_gathered(coeffs, monos):
    keys = [key for key in sorted(coeffs) if coeffs[key]]
    if not keys:
        return REFERENCE_ZERO
    return _reference_canonical(tuple((monos[key], coeffs[key]) for key in keys), tuple(keys))


REFERENCE_ZERO = ReferenceExpression()


def reference_evaluate(expression, binding):
    for name in sorted(expression.variables()):
        if name not in binding:
            raise UnboundVariableError(name)
        if binding[name] < 0:
            raise InvalidBindingError(name, binding[name])
    total = 0
    for mono, coeff in expression.terms:
        value = coeff
        for name, exp in mono:
            value *= binding[name] ** exp
        total += _reference_range(value, "term value")
    _reference_range(total, "value")
    if total < 0:
        raise NegativeCountError(reference_format_expr(expression), total)
    return total


def reference_simplify(expression):
    """bigi.simplify's retained expression and class label."""
    degree = sum(exp for _, exp in expression.terms[0][0]) if expression.terms else 0
    if degree == 0:
        return expression, class_label(0)
    dominant = [
        frozenset(name for name, _ in mono)
        for mono, _ in expression.terms
        if sum(exp for _, exp in mono) == degree
    ]
    retained = expression.select(
        lambda mono: bool(mono)
        and any(frozenset(name for name, _ in mono) <= dom for dom in dominant)
    )
    return retained, class_label(degree)


def reference_fold_parse(text):
    """parse_expr as its one-pass fold built reference expressions."""
    tokens = _LOWER_TOKEN.findall(text)
    if tokens[0] == _END:
        raise ExpressionSyntaxError("empty expression", 0)
    try:
        value, index = _reference_fold_sum(tokens, 0, 0)
        if tokens[index] != _END:
            raise _SyntaxAt(index)
        return value
    except (_SyntaxAt, OverflowLimitError, TermLimitError) as exc:
        fault = exc
    located = _scan(text, _LOWER_TOKEN)
    if isinstance(fault, _SyntaxAt):
        raise fault.located(text, located)
    raise fault


def _reference_fold_sum(tokens, index, depth):
    coeffs = {}
    monos = {}
    sign = 1
    if tokens[index][2] == "-":
        sign = -1
        index += 1
    while True:
        start = index
        coeff = 1
        names = []
        value = None
        while True:
            number, name, op, _ = tokens[index]
            if number:
                factor = int(number) if len(number) <= _MAX_DIGITS else _long_literal(number)
                if factor > INT64_MAX:
                    raise _SyntaxAt(index)
                if value is None:
                    coeff = _reference_range(coeff * factor, "coefficient")
                else:
                    value = value * ReferenceExpression(((((), factor),)))
            elif name:
                if value is None:
                    names.append(name)
                else:
                    value = value * ReferenceExpression(((((name, 1),), 1),))
            elif op == "(":
                if depth == MAX_NESTING:
                    raise _SyntaxAt(index, f"parentheses nested more than {MAX_NESTING} deep")
                if value is None and index != start:
                    value = ReferenceExpression(((tuple((n, 1) for n in names), coeff),))
                inner, index = _reference_fold_sum(tokens, index + 1, depth + 1)
                if tokens[index][2] != ")":
                    raise _SyntaxAt(index, "missing closing parenthesis")
                value = inner if value is None else value * inner
            else:
                raise _SyntaxAt(index)
            index += 1
            if tokens[index][2] != "*":
                break
            index += 1
        if value is None:
            value = ReferenceExpression(((tuple((n, 1) for n in names), coeff),))
        _reference_gather(coeffs, monos, value, sign)
        op = tokens[index][2]
        if op == "+":
            sign = 1
        elif op == "-":
            sign = -1
        else:
            return _reference_gathered(coeffs, monos), index
        index += 1


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
