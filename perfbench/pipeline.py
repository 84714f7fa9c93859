"""log-pipeline-20k: CLI synth to a file, then CLI logs from it, in-process.

One iteration runs
    cli.main(["synth", concepts/v2.concept, <README bindings>, "--sessions",
              "20000", "--speed-mean", "1.05", "--speed-sd", "0.2",
              "--seed", S, "--out", FILE])
    cli.main(["logs", FILE, "--table", "both", "--format", "csv"])
with S the run's seed.  JSON write and read dominate; the symbolic layers
do almost nothing here.

The traced run keeps both cli.main calls as they are and, after them,
calls the same public functions in the same order as cmd_synth and
cmd_logs, each in its own span.  The CLI's self time is cli.main minus
those layer spans.  json.loads and validate_log are also called on their
own on the same bytes, so load_log can be split into decode, validate and
(derived) record build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from statistics import median

from ixcomplex import cli, dump_log, generate_log, load_log, parse_concept, step_table, task_table
from ixcomplex.concept import validate
from ixcomplex.logs import table_to_csv, validate_log
from ixcomplex.synth import SynthConfig

import common
from inputs import V2_BINDING, binding_argv

SESSIONS = 20_000
SPEED_MEAN = 1.05
SPEED_SD = 0.2
GOLDEN = {"sessions": 12, "sd": 0.25, "seed": 2026}


def cli_call(argv: list[str]) -> tuple[int, str, str, float]:
    """cli.main in-process with captured output: (code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def synth_argv(sessions: int, sd: float, seed: int, out) -> list[str]:
    return [
        "synth", str(common.ROOT / "concepts" / "v2.concept"), *binding_argv(V2_BINDING),
        "--sessions", str(sessions), "--speed-mean", str(SPEED_MEAN),
        "--speed-sd", str(sd), "--seed", str(seed), "--out", str(out),
    ]


def render_csv(tables) -> str:
    """What cmd_logs prints for --format csv."""
    return "\n".join(table_to_csv(rows).rstrip("\n") for rows in tables) + "\n"


def run(ctx: common.Context, sessions: int = SESSIONS) -> None:
    res = ctx.result
    log_file = ctx.work / "log.json"
    setup = common.Setup(
        lambda: (
            synth_argv(sessions, SPEED_SD, ctx.seed, log_file),
            ["logs", str(log_file), "--table", "both", "--format", "csv"],
        )
    )
    synth_args, logs_args = setup.output
    common.check_shipped(res)

    def iteration(traced: bool):
        if traced:
            ctx.tracer.next_op()
        with ctx.tracer.span("cli.main.synth") if traced else contextlib.nullcontext():
            synth = cli_call(synth_args)
        digest = hashlib.sha256(log_file.read_bytes()).hexdigest()
        with ctx.tracer.span("cli.main.logs") if traced else contextlib.nullcontext():
            logs = cli_call(logs_args)
        return synth, digest, logs

    # A traced run alternates untraced and traced iterations (see sweep.py).
    iterations, traced_iterations = [], []
    start = time.perf_counter()
    while (
        len(iterations) + len(traced_iterations) < (2 if ctx.trace else 1)
        or time.perf_counter() - start < ctx.seconds
    ):
        if ctx.trace and len(iterations) > len(traced_iterations):
            traced_iterations.append(iteration(True))
            cli_csv = traced_iterations[-1][2][1]
            common.checked(res, "traced replica", lambda: _replica(ctx, sessions, cli_csv))
        else:
            iterations.append(iteration(False))
        setup.again()
    rss = common.peak_rss_mb()

    # Each command's latency is its fastest iteration, as for the sweep's
    # pairs (see sweep.py), which filters out seconds-long slowdowns caused
    # by other tenants of shared CPUs.
    synth_s = min(synth[3] for synth, _, _ in iterations)
    logs_s = min(logs[3] for _, _, logs in iterations)
    n = len(iterations) + len(traced_iterations)
    ops_per_s = sessions / (synth_s + logs_s)
    command_ms = [1000 * synth_s, 1000 * logs_s]
    tail_ms, _, _ = common.tail(command_ms)
    res.line(f"pipeline: {n} iterations of {sessions} sessions")
    res.line(f"synth_sessions_per_s {sessions / synth_s:.4f} 1/s ({1000 * synth_s:.1f} ms)")
    res.line(f"logs_sessions_per_s {sessions / logs_s:.4f} 1/s ({1000 * logs_s:.1f} ms)")
    res.line(f"pipeline_sessions_per_s {ops_per_s:.4f} 1/s")
    res.line(f"command_p50_ms {median(command_ms):.4f} ms (n=2 commands: their mean)")
    res.line(f"command_tail_ms {tail_ms:.4f} ms (n=2 commands: the slower one)")

    _check_iterations(res, iterations + traced_iterations)
    _check_against_library(res, ctx, sessions, log_file, iterations[0][2][1])
    common.checked(res, "golden table", lambda: _check_golden(ctx))

    if not ctx.trace:
        res.metric("setup_s", setup.seconds(res), "s")
        res.metric("peak_rss_mb", rss, "MB")
        res.metric("ops_per_s", ops_per_s, "1/s")
        res.metric("op_p50_ms", median(command_ms), "ms")
        res.metric("op_tail_ms", tail_ms, "ms")
        return

    # Layer times are the fastest traced iteration's, like the end-to-end
    # figures; the CLI's self time is a small difference of two such times.
    totals = ctx.tracer.by_op()
    own = ctx.tracer.by_op(own=True)

    def fastest(name, source=totals):
        return min(source[name].values()) if name in source else 0.0

    for layer in (
        "synth.generate_log", "logs.dump_log", "cli.file_io", "logs.load_log",
        "logs.json_decode", "logs.validate_log", "logs.task_table",
        "logs.step_table", "logs.render", "cli.main.synth", "cli.main.logs",
    ):
        res.metric(f"{layer}.s", fastest(layer), "s")
    res.metric("concept.parse_concept.ms", 1000 * fastest("concept.parse_concept"), "ms")
    res.metric(
        "logs.record_build.s",
        fastest("logs.load_log") - fastest("logs.json_decode") - fastest("logs.validate_log"),
        "s",
    )
    for side in ("synth", "logs"):
        layers = fastest(f"replica.{side}") - fastest(f"replica.{side}", own)
        res.metric(f"cli.self.{side}.s", fastest(f"cli.main.{side}") - layers, "s")
    counts = _counts(log_file, iterations[0][2][1])
    for name, value in counts.items():
        res.metric(name, value, "B" if name == "logs.bytes_written" else "count")
    traced_s = min(synth[3] for synth, _, _ in traced_iterations) + min(
        logs[3] for _, _, logs in traced_iterations
    )
    res.metric("trace.overhead_pct", 100 * (traced_s / (synth_s + logs_s) - 1), "%")
    res.metric("trace.spans", len(ctx.tracer.spans), "count")
    res.line("logs.record_build.s is derived: load_log - json_decode - validate_log")


def _replica(ctx: common.Context, sessions: int, cli_csv: str) -> list[str]:
    """cmd_synth and cmd_logs spelled out through the public functions.

    Each half runs in its own function, so nothing the synth half built is
    alive while the logs half runs, as between two cli.main calls.
    """
    replica_file = ctx.work / "replica.json"
    _replica_synth(ctx, sessions, replica_file)
    rendered = _replica_logs(ctx, replica_file)
    problems = []
    if replica_file.read_bytes() != (ctx.work / "log.json").read_bytes():
        problems.append("replica file differs from the CLI's")
    if rendered != cli_csv:
        problems.append("replica CSV differs from the CLI's")
    return problems


def _replica_synth(ctx: common.Context, sessions: int, replica_file) -> None:
    call = ctx.tracer.call
    with ctx.tracer.span("replica.synth"):
        text = call("cli.file_io", (common.ROOT / "concepts" / "v2.concept").read_text, encoding="utf-8")
        concept = call("concept.parse_concept", parse_concept, text)
        call("concept.validate", validate, concept)
        config = SynthConfig(concept, dict(V2_BINDING), sessions, SPEED_MEAN, SPEED_SD, ctx.seed)
        log = call("synth.generate_log", generate_log, config)
        payload = call("logs.dump_log", dump_log, log)
        call("cli.file_io", replica_file.write_text, payload, encoding="utf-8")


def _replica_logs(ctx: common.Context, replica_file) -> str:
    call = ctx.tracer.call
    raw = replica_file.read_bytes()
    # Decode on its own first and drop the result, so it does not weigh on
    # the allocations inside load_log.
    call("logs.json_decode", json.loads, raw)
    with ctx.tracer.span("replica.logs"):
        raw = call("cli.file_io", replica_file.read_bytes)
        loaded = call("logs.load_log", load_log, raw)
        tables = [
            call("logs.task_table", task_table, loaded, "task_id"),
            call("logs.step_table", step_table, loaded),
        ]
        rendered = call("logs.render", render_csv, tables)
    call("logs.validate_log", validate_log, loaded)
    return rendered


def _check_iterations(res: common.Result, iterations) -> None:
    first_digest = iterations[0][1]
    first_csv = iterations[0][2][1]
    for index, (synth, digest, logs) in enumerate(iterations):
        problems = []
        if synth[0] != 0:
            problems.append(f"exit {synth[0]}: {synth[2].strip()[-300:]}")
        if digest != first_digest:
            problems.append("same seed wrote different bytes")
        res.op(problems, f"synth {index}")
        problems = []
        if logs[0] != 0 or logs[2]:
            problems.append(f"exit {logs[0]}: {logs[2].strip()[-300:]}")
        if logs[1] != first_csv:
            problems.append("tables differ between iterations")
        res.op(problems, f"logs {index}")


def _check_against_library(res, ctx, sessions, log_file, cli_csv) -> None:
    """The reloaded log equals the generated one; the CLI's CSV equals the
    tables of the in-memory log; the recovered mean speed is near 1.05."""
    memory = {}

    def reload():
        text = (common.ROOT / "concepts" / "v2.concept").read_text(encoding="utf-8")
        config = SynthConfig(
            parse_concept(text), dict(V2_BINDING), sessions, SPEED_MEAN, SPEED_SD, ctx.seed
        )
        memory["log"] = generate_log(config)
        return [] if load_log(log_file.read_bytes()) == memory["log"] else ["reloaded log != generated"]

    def csv():
        tables = [task_table(memory["log"]), step_table(memory["log"])]
        return [] if render_csv(tables) == cli_csv else ["CSV from file != CSV from memory"]

    def speed():
        header, row = cli_csv.splitlines()[:2]
        mean_speed = float(row.split(",")[header.split(",").index("mean_is_per_s")])
        res.line(f"recovered mean speed {mean_speed} IS/s (configured {SPEED_MEAN})")
        return [] if abs(mean_speed / SPEED_MEAN - 1) <= 0.05 else [f"mean speed {mean_speed}"]

    common.checked(res, "reload", reload)
    common.checked(res, "csv", csv)
    common.checked(res, "recovered speed", speed)


def _check_golden(ctx: common.Context) -> list[str]:
    """tests/data/golden_logs_output.txt through the same two CLI calls."""
    golden_file = ctx.work / "golden.json"
    code, _, err, _ = cli_call(
        synth_argv(GOLDEN["sessions"], GOLDEN["sd"], GOLDEN["seed"], golden_file)
    )
    problems = [f"synth exit {code}: {err[-300:]}"] if code else []
    code, out, err, _ = cli_call(["logs", str(golden_file)])
    want = (common.ROOT / "tests" / "data" / "golden_logs_output.txt").read_text(encoding="utf-8")
    if code or out != want:
        problems.append(f"golden table differs (exit {code})")
    return problems


def _counts(log_file, cli_csv) -> dict[str, int]:
    """Bytes written, step records and IQR samples kept and dropped."""
    raw = log_file.read_bytes()
    log = load_log(raw)
    tasks = [task for session in log.sessions for task in session.tasks]
    records = [
        step for task in tasks for visit in task.page_visits for step in visit.steps
    ]
    raw_samples = sum(task.duration_s > 0 for task in tasks) + sum(
        step.end_ms > step.start_ms for step in records
    )
    kept = 0
    for line in cli_csv.splitlines():
        cells = line.split(",")
        if cells[0] != "group":
            kept += int(cells[1])
    return {
        "logs.bytes_written": len(raw),
        "logs.records": len(records),
        "logs.samples_kept": kept,
        "logs.samples_dropped": raw_samples - kept,
    }
