"""cli-cold: one fresh `python -m ixcomplex` at a time, in whole cycles.

A user's one-off command is dominated by interpreter start-up and imports;
no other workload measures import cost.  The cycle is analyze (v1, with the
published formula), klm (published operator formula, --is 171), estimate
(v2, overall speed model, with the published formula), oracle (v2) and logs
on the 12-session golden log.  Each child's stdout is checked against the
known values.

The traced run alternates untraced and traced cycles.  A traced cycle adds
three probes (a bare interpreter, `import numpy`, `import ixcomplex.cli`)
and calls the same five argv lists through cli.main in-process, which
bounds the share of the work that is not start-up.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from statistics import median

import common
from inputs import (
    KLM_V1_BINDING,
    V1_BINDING,
    V1_PUBLISHED_IS,
    V1_PUBLISHED_KLM,
    V2_BINDING,
    V2_PUBLISHED_IS,
    binding_argv,
)
from pipeline import GOLDEN, cli_call, synth_argv

PROBES = {
    "cli.interpreter": "pass",
    "cli.numpy_import": "import numpy",
    "cli.import": "import ixcomplex.cli",
}


def commands(golden_log) -> list[tuple[str, list[str], list[str] | None]]:
    """(subcommand, argv, lines stdout must contain); None means the golden
    table, byte for byte."""
    v1 = str(common.ROOT / "concepts" / "v1.concept")
    v2 = str(common.ROOT / "concepts" / "v2.concept")
    return [
        (
            "analyze",
            ["analyze", v1, *binding_argv(V1_BINDING), "--formula", V1_PUBLISHED_IS],
            ["as-defined: IS = 174", "as-published: IS = 171"],
        ),
        (
            "klm",
            ["klm", "--formula", V1_PUBLISHED_KLM, *binding_argv(KLM_V1_BINDING), "--is", "171"],
            ["126.52 sec", "1.35 IS/sec"],
        ),
        (
            "estimate",
            ["estimate", v2, *binding_argv(V2_BINDING), "--speed", "overall",
             "--formula", V2_PUBLISHED_IS],
            ["as-defined: IS = 45", "as-defined: expected: 42.86 sec", "as-published: IS = 46"],
        ),
        ("oracle", ["oracle", v2, *binding_argv(V2_BINDING)], ["T:35 E:6 C:4 total:45"]),
        ("logs", ["logs", str(golden_log)], None),
    ]


def _prepare(ctx: common.Context):
    golden_log = ctx.work / "golden.json"
    cli_call(synth_argv(GOLDEN["sessions"], GOLDEN["sd"], GOLDEN["seed"], golden_log))
    return commands(golden_log)


def run(ctx: common.Context) -> None:
    res = ctx.result
    setup = common.Setup(lambda: _prepare(ctx))
    cycle = setup.output
    common.check_shipped(res)
    launcher = common.Launcher()
    try:
        # Untimed: fills the children's bytecode cache on a fresh checkout.
        warm = launcher.run([sys.executable, "-c", "import ixcomplex.cli"])
        res.op(common.exit_problems(warm), "warm-up import")
        m = _measure(ctx, launcher, cycle, setup)
    finally:
        peaks = launcher.close()
    walls = m.walls
    rss = peaks["children_peak_rss_mb"]
    res.line(
        f"peak RSS of any child {rss:.3f} MB (a child's figure starts from its "
        f"parent's at fork, here the launcher's {peaks['launcher_peak_rss_mb']:.3f} MB)"
    )

    # Cold-start latencies were measured bimodal on a 2-vCPU machine (one
    # mode about 45 ms above the other, for every command), and the share in
    # each mode drifts between runs: the median of all invocations ranged
    # from 146 to 198 ms over five runs.  p50 is therefore taken over
    # commands, each at its fastest invocation, as for the other workloads'
    # items; the tail keeps every invocation, so the slow mode shows there.
    every_ms = [1000 * wall for times in walls.values() for wall in times]
    fastest_ms = [1000 * min(times) for times in walls.values()]
    tail_ms, tail_pct, n = common.tail(every_ms)
    res.line(f"child cpu/wall median {median(m.cpu_over_wall):.3f} (BLAS pool started by numpy's import)")
    res.line(f"cold: {m.cycles} cycles of {len(cycle)} commands, {n} untraced invocations")
    res.line(f"cold_start_p50_ms {median(fastest_ms):.4f} ms (median over {len(cycle)} commands of each one's fastest)")
    res.line(f"cold_start_p50_all_ms {median(every_ms):.4f} ms (median of all {n} invocations)")
    res.line(f"cold_start_tail_ms {tail_ms:.4f} ms (p{tail_pct:.2f} of n={n} invocations, 10 beyond)")
    if not ctx.trace:
        res.metric("setup_s", setup.seconds(res), "s")
        res.metric("peak_rss_mb", rss, "MB")
        res.metric("ops_per_s", 1000 * len(fastest_ms) / sum(fastest_ms), "1/s")
        res.metric("op_p50_ms", median(fastest_ms), "ms")
        res.metric("op_tail_ms", tail_ms, "ms")
        return

    probes = m.probes
    bare = min(probes["cli.interpreter"])
    res.metric("cli.interpreter_ms", 1000 * bare, "ms")
    res.metric("cli.numpy_import_ms", 1000 * (min(probes["cli.numpy_import"]) - bare), "ms")
    res.metric("cli.import_ms", 1000 * (min(probes["cli.import"]) - bare), "ms")
    inprocess = m.inprocess
    for name, seconds in inprocess.items():
        res.metric(f"cli.main.{name}.s", min(seconds), "s")
    share = sum(map(sum, inprocess.values())) / sum(map(sum, m.traced_walls.values()))
    res.metric("cli.inprocess_share_pct", 100 * share, "%")
    traced_fastest = sum(min(times) for times in m.traced_walls.values())
    res.metric("trace.overhead_pct", 100 * (1000 * traced_fastest / sum(fastest_ms) - 1), "%")
    res.metric("trace.spans", len(ctx.tracer.spans), "count")


@dataclass
class Measured:
    walls: dict  # command -> wall seconds of its untraced invocations
    traced_walls: dict  # command -> wall seconds of its traced invocations
    inprocess: dict  # command -> seconds of cli.main in-process (traced run)
    probes: dict  # probe span name -> wall seconds (traced run)
    cpu_over_wall: list
    cycles: int = 0


def _measure(ctx, launcher, cycle, setup) -> Measured:
    """Whole cycles until the run time is used; a traced run alternates
    untraced and traced cycles and needs one of each."""
    res = ctx.result
    golden = (common.ROOT / "tests" / "data" / "golden_logs_output.txt").read_text(encoding="utf-8")
    m = Measured(
        {name: [] for name, _, _ in cycle},
        {name: [] for name, _, _ in cycle},
        {name: [] for name, _, _ in cycle},
        {name: [] for name in PROBES},
        [],
    )

    def invoke(name, argv, want):
        done = launcher.run([sys.executable, "-m", "ixcomplex", *argv])
        problems = common.exit_problems(done)
        if want is None:
            if done["stdout"] != golden:
                problems.append("golden table differs")
        else:
            lines = done["stdout"].splitlines()
            problems += [f"missing {line!r}" for line in want if line not in lines]
        res.op(problems, f"cold {name}")
        m.cpu_over_wall.append(done["cpu"] / done["wall"])
        return done["wall"]

    start = time.perf_counter()
    while m.cycles < (2 if ctx.trace else 1) or time.perf_counter() - start < ctx.seconds:
        traced = ctx.trace and m.cycles % 2 == 1
        for name, argv, want in cycle:
            if traced:
                ctx.tracer.next_op()
                with ctx.tracer.span(f"cold.{name}"):
                    m.traced_walls[name].append(invoke(name, argv, want))
            else:
                m.walls[name].append(invoke(name, argv, want))
        if traced:
            for name, code in PROBES.items():
                with ctx.tracer.span(name):
                    done = launcher.run([sys.executable, "-c", code])
                m.probes[name].append(done["wall"])
                res.op(common.exit_problems(done), f"probe {name}")
            for name, argv, _ in cycle:
                code, _, err, seconds = ctx.tracer.call(f"cli.main.{name}", cli_call, argv)
                m.inprocess[name].append(seconds)
                res.op([f"exit {code}: {err[-300:]}"] if code else [], f"in-process {name}")
        m.cycles += 1
        setup.again()
    return m
