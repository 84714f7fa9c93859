"""Command-line frontend: parse argv, call the library, render the result.

The library makes every semantic decision; this module reads files, calls
the library and formats what it returns.

Subcommands:
    analyze   derive, classify and optionally instantiate a concept's complexity
    klm       execution-time estimate from an operator model
    estimate  time estimate from an IS count and an interaction-speed model
    logs      task and step speed tables from an event log
    synth     generate a deterministic synthetic event log
    oracle    brute-force action counts for a concept and binding

Exit codes: 0 success, 1 domain, validation or input-file error or a
closed standard stream, 2 usage error.  Bindings come only from explicit
--set flags or a --bindings file; there are no default variable values.
Set IXCOMPLEX_NO_COLOR to disable the minimal styling on terminals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import partial
from typing import Callable, Sequence

from .bigi import (
    analyze,
    assess,
    assessment_to_dict,
    factored_text,
    report_to_dict,
    vector_to_dict,
)
from .concept import InteractionConcept, parse_concept, validate
from .errors import IxComplexError
from .expr import (
    _MAX_DIGITS,
    INT64_MAX,
    binding_from_dict,
    format_expr,
    is_variable_name,
    parse_expr,
)
from .klm import (
    DEFAULT_MAPPING,
    KlmModel,
    klm_from_concept,
    klm_parse,
    klm_speed,
    klm_time,
    mapping_from_dict,
    model_from_dict,
)
from .logs import AnalyticsWarning, log_tables, table_to_csv, table_to_dicts, table_to_text
from .rounding import format_fixed, round_half_up
from .speed import SpeedModel, estimate_time, get_speed_model, speed_model_from_dict
from .synth import SynthConfig, count_actions, generate_log_text


def _echo(text: str) -> str:
    """text quoted for a usage error, cut to its first 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _binding_pair(text: str) -> tuple[str, int]:
    name, sep, value = text.partition("=")
    if not sep or not name or not (value.isascii() and value.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected <name>=<nonnegative integer>, got {_echo(text)}"
        )
    if not is_variable_name(name):
        raise argparse.ArgumentTypeError(f"invalid variable name {_echo(name)}")
    number = _int_at_least(0, value)
    if number > INT64_MAX:
        raise argparse.ArgumentTypeError(
            f"binding {name} = {number} is outside the signed 64-bit range"
        )
    return name, number


def _int_at_least(minimum: int, text: str) -> int:
    """The value of an integer flag: an optional sign and ASCII digits, at
    most _MAX_DIGITS of them significant; int() reads only text that passed,
    so its own digit limit is never reached."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {_echo(text)}")
    # An integer flag, like a literal in an expression, has at most as many
    # significant digits as INT64_MAX.
    if len(digits.lstrip("0")) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most {_MAX_DIGITS} digits, got {_echo(text)}"
        )
    value = int(text)
    if value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ixcomplex",
        description="Interaction-complexity calculator and interaction-speed analytics.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_bindings(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--set",
            dest="bindings",
            type=_binding_pair,
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="bind a variable to a nonnegative integer (repeatable)",
        )
        sub.add_argument(
            "--bindings",
            dest="bindings_file",
            metavar="FILE",
            help="JSON file with variable bindings; --set overrides it",
        )

    sub = commands.add_parser("analyze", help="complexity of a concept")
    sub.add_argument("concept", help="concept file")
    add_bindings(sub)
    sub.add_argument(
        "--formula",
        help="separately published IS formula to report next to the derived one",
    )
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_analyze)

    sub = commands.add_parser("klm", help="execution-time estimate")
    sub.add_argument("concept", nargs="?", help="concept file")
    add_bindings(sub)
    sub.add_argument("--formula", help="operator formula, e.g. '(m + 2)*Q + 9*T'")
    sub.add_argument("--map", dest="mapping_file", metavar="FILE", help="action-to-operator mapping (JSON)")
    sub.add_argument("--model", dest="model_file", metavar="FILE", help="operator unit-time overrides (JSON)")
    sub.add_argument(
        "--is",
        dest="is_count",
        type=partial(_int_at_least, 0),
        metavar="N",
        help="IS count for deriving an interaction speed",
    )
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_klm)

    sub = commands.add_parser("estimate", help="time estimate from interaction speed")
    sub.add_argument("concept", help="concept file")
    add_bindings(sub)
    sub.add_argument(
        "--formula",
        help="use this IS formula instead of the one derived from the concept",
    )
    sub.add_argument("--speed", default="overall", help="speed model name (overall, v1, v2)")
    sub.add_argument("--speed-file", metavar="FILE", help="JSON speed model file")
    sub.add_argument("--speed-mean", type=float, help="custom mean IS/sec")
    sub.add_argument("--speed-min", type=float, help="custom minimum IS/sec")
    sub.add_argument("--speed-max", type=float, help="custom maximum IS/sec")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_estimate)

    sub = commands.add_parser("logs", help="speed tables from an event log")
    sub.add_argument("log", help="event-log file, or - for stdin")
    sub.add_argument("--concept", help="concept file for cross-checking task IS counts")
    sub.add_argument("--group-by", choices=("task_id", "concept_name"), default="task_id")
    sub.add_argument("--table", choices=("task", "step", "both"), default="both")
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.set_defaults(func=cmd_logs)

    sub = commands.add_parser("synth", help="generate a synthetic event log")
    sub.add_argument("concept", help="concept file")
    add_bindings(sub)
    sub.add_argument("--sessions", type=partial(_int_at_least, 1), required=True)
    sub.add_argument("--speed-mean", type=float, required=True, help="mean IS/sec")
    sub.add_argument("--speed-sd", type=float, default=0.0, help="IS/sec standard deviation")
    sub.add_argument(
        "--seed", type=partial(_int_at_least, 0), default=0, help="64-bit generator seed"
    )
    sub.add_argument("--out", required=True, help="output file, or - for stdout")
    sub.set_defaults(func=cmd_synth)

    sub = commands.add_parser("oracle", help="brute-force action counts")
    sub.add_argument("concept", help="concept file")
    add_bindings(sub)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_oracle)

    return parser


def _styled(text: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("IXCOMPLEX_NO_COLOR"):
        return f"\033[1m{text}\033[0m"
    return text


def _read_text(path: str) -> str:
    # Every file is opened by its path as given, so an empty path is a
    # missing file, not the current directory that Path("") names.
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise IxComplexError(f"{path}: not UTF-8 text: {exc}") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise IxComplexError(f"invalid JSON input: {exc}") from None


def _read_concept(path: str) -> InteractionConcept:
    concept = parse_concept(_read_text(path))
    for diagnostic in validate(concept):
        if diagnostic.severity == "warning":
            where = f" (step {diagnostic.step!r})" if diagnostic.step else ""
            print(f"warning: {diagnostic.message}{where}", file=sys.stderr)
    return concept


def _collect_bindings(args: argparse.Namespace) -> dict[str, int]:
    binding: dict[str, int] = {}
    if args.bindings_file is not None:
        binding = binding_from_dict(_read_json(args.bindings_file))
    binding.update(args.bindings)
    return binding


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _views(defined, formula: str | None, published: Callable[[str], object]) -> list:
    """(label, view) pairs: the as-defined view unless it is None, then the
    as-published one that published reads from --formula, whenever the flag
    is given, even empty."""
    views = [] if defined is None else [("as-defined", defined)]
    if formula is not None:
        views.append(("as-published", published(formula)))
    return views


def cmd_analyze(args: argparse.Namespace) -> int:
    concept = _read_concept(args.concept)
    binding = _collect_bindings(args) or None
    report = analyze(concept, binding)
    views = _views(report, args.formula, lambda text: assess(parse_expr(text), binding))

    if args.format == "json":
        payload = report_to_dict(report)
        for _, view in views[1:]:
            payload["as_published"] = assessment_to_dict(view)
        _print_json(payload)
        return 0

    print(_styled(f"concept: {concept.name}"))
    if report.per_step:
        print("per-step complexity:")
        for label, vector in report.per_step:
            print(f"  {label}: {_vector_text(vector)}")
    print(f"summed: {_vector_text(report.summed)}")
    for label, view in views:
        prefix = "" if label == "as-defined" else f"{label} "
        print(f"{prefix}normalized: {format_expr(view.normalized.is_function)}")
        print(
            f"{prefix}simplified: I({factored_text(view.simplified.retained)}) "
            f"[{view.simplified.class_label}]"
        )
    if binding is not None:
        for label, view in views:
            prefix = f"{label}: " if len(views) > 1 else ""
            print(f"{prefix}IS = {view.instantiated[1]}")
    return 0


def _vector_text(vector) -> str:
    items = vector_to_dict(vector)
    if not items:
        return "0"
    return "; ".join(f"{letter}: {text}" for letter, text in items.items())


def cmd_klm(args: argparse.Namespace) -> int:
    if args.concept is None and args.formula is None:
        print("error: provide a concept file, a --formula, or both", file=sys.stderr)
        return 2
    model = KlmModel()
    if args.model_file is not None:
        model = model_from_dict(_read_json(args.model_file))
    mapping = DEFAULT_MAPPING
    if args.mapping_file is not None:
        mapping = mapping_from_dict(_read_json(args.mapping_file))
    binding = _collect_bindings(args)

    defined = None
    if args.concept is not None:
        concept = _read_concept(args.concept)
        defined = klm_time(klm_from_concept(concept, mapping), model, binding)
    times = _views(defined, args.formula, lambda text: klm_time(klm_parse(text), model, binding))
    results = [
        (
            label,
            seconds,
            klm_speed(args.is_count, seconds)
            if args.is_count is not None and seconds > 0
            else None,
        )
        for label, seconds in times
    ]

    if args.format == "json":
        payload = {
            label: {
                "seconds": round_half_up(seconds),
                "is_per_sec": None if speed is None else round_half_up(speed),
            }
            for label, seconds, speed in results
        }
        _print_json(payload)
        return 0

    labelled = len(results) > 1
    for label, seconds, speed in results:
        prefix = f"{label}: " if labelled else ""
        print(f"{prefix}{format_fixed(seconds)} sec")
        if speed is not None:
            print(f"{prefix}{format_fixed(speed)} IS/sec")
    return 0


def _resolve_speed_model(args: argparse.Namespace) -> SpeedModel:
    if args.speed_file is not None:
        return speed_model_from_dict(_read_json(args.speed_file))
    if args.speed_mean is not None:
        return SpeedModel("custom", args.speed_mean, args.speed_min, args.speed_max)
    if args.speed_min is not None or args.speed_max is not None:
        raise IxComplexError("--speed-min/--speed-max need --speed-mean")
    return get_speed_model(args.speed)


def cmd_estimate(args: argparse.Namespace) -> int:
    concept = _read_concept(args.concept)
    binding = _collect_bindings(args)
    model = _resolve_speed_model(args)

    views = _views(
        analyze(concept, binding), args.formula, lambda text: assess(parse_expr(text), binding)
    )
    results = [
        (label, view.instantiated[1], estimate_time(view.instantiated[1], model))
        for label, view in views
    ]

    if args.format == "json":
        payload = {
            label.replace("-", "_"): {
                "is": is_count,
                "expected_s": estimate.expected,
                "fastest_s": estimate.fastest,
                "slowest_s": estimate.slowest,
            }
            for label, is_count, estimate in results
        }
        payload["model"] = model.name
        _print_json(payload)
        return 0

    labelled = len(results) > 1
    for label, is_count, estimate in results:
        prefix = f"{label}: " if labelled else ""
        print(f"{prefix}IS = {is_count}")
        print(f"{prefix}expected: {format_fixed(estimate.expected)} sec")
        if estimate.fastest is not None and estimate.slowest is not None:
            print(f"{prefix}fastest: {format_fixed(estimate.fastest)} sec")
            print(f"{prefix}slowest: {format_fixed(estimate.slowest)} sec")
        else:
            print(f"{prefix}speed range unavailable for model {model.name!r}")
    return 0


def cmd_logs(args: argparse.Namespace) -> int:
    # log_tables reads the file itself, so this frame never holds its text,
    # and the text is freed once the log is read, before the rows are
    # computed.  Each warning is printed as it is issued, so the concept,
    # which log_tables reads only once the log is checked, prints its own
    # between them.
    read = partial(_read_log, args.log)
    concept = None if args.concept is None else partial(_read_concept, args.concept)
    with warnings.catch_warnings():
        warnings.simplefilter("always", AnalyticsWarning)
        warnings.showwarning = _print_warning
        tables = log_tables(read, args.group_by, args.table, concept)
    if args.format == "json":
        _print_json({f"{name}_table": table_to_dicts(rows) for name, rows in tables.items()})
        return 0
    if args.format == "csv":
        print("\n".join(table_to_csv(rows).rstrip("\n") for rows in tables.values()))
        return 0
    blocks = []
    for name, rows in tables.items():
        blocks.append(_styled(f"{name} table:") + "\n" + table_to_text(rows))
    print("\n\n".join(blocks))
    return 0


def _print_warning(message, *_) -> None:
    """warnings.showwarning for cmd_logs: the message alone, on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def _read_log(path: str) -> bytes | str:
    """The log file at path, or stdin for "-", decoded from UTF-8 as it is,
    without the newline translation of a text-mode file; its bytes when they
    are not UTF-8, for log_tables to refuse.  The bytes are freed on return."""
    if path == "-":
        # Python sets sys.stdin to None when the process starts with it closed.
        if sys.stdin is None:
            raise IxComplexError("standard input is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as file:
            data = file.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data


def cmd_synth(args: argparse.Namespace) -> int:
    concept = _read_concept(args.concept)
    binding = _collect_bindings(args)
    config = SynthConfig(
        concept=concept,
        binding=binding,
        sessions=args.sessions,
        speed_mean=args.speed_mean,
        speed_sd=args.speed_sd,
        seed=args.seed,
    )
    # The text is written straight from the drawn speeds: no log records
    # are built, so there is nothing for a pause of the collector to spare.
    payload = generate_log_text(config)
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as file:
            file.write(payload)
        print(f"wrote {args.out}: {args.sessions} sessions", file=sys.stderr)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    concept = _read_concept(args.concept)
    binding = _collect_bindings(args)
    counts = count_actions(concept, binding)
    if args.format == "json":
        payload = {kind.value: count for kind, count in counts.per_kind.items()}
        payload["total"] = counts.total
        _print_json(payload)
        return 0
    parts = [f"{kind.value}:{count}" for kind, count in counts.per_kind.items()]
    parts.append(f"total:{counts.total}")
    print(" ".join(parts))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # As sys.stdin, sys.stdout is None when the process starts with it
        # closed; every command but synth to a file prints its result there.
        if sys.stdout is None and (args.command != "synth" or args.out == "-"):
            raise IxComplexError("standard output is closed")
        return args.func(args)
    except (IxComplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Sizes the arguments allow but no machine holds, such as synth's
    # --sessions 10**15; numpy says what it could not allocate.
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
