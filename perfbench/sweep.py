"""symbolic-sweep: every symbolic layer on generated concepts, logs idle.

One operation takes one concept/binding pair through parse_concept,
analyze, the as-published path (parse_expr(format_expr(IS)) then
evaluate), klm_from_concept with klm_time, estimate_time with the overall
model, and the brute-force oracle count_actions.  The pairs are cycled in
whole passes until the run time is used up, so every run sees the same mix.

A pair's latency is the fastest of its passes.  On a 2-vCPU virtual machine
whose cores are shared with other tenants, a fixed pure-Python loop was
measured to slow by 10-20 % for seconds at a time; the fastest pass filters
that out, where a mean or median keeps it.  p50 and tail are taken over pairs,
so the sample count is the number of pairs, fixed by the benchmark, and the
tail percentile does not creep upward when the program gets faster and
completes more passes.  ops_per_s is one caller's rate at those latencies:
pairs divided by the sum of their fastest passes.
"""

from __future__ import annotations

import contextlib
import math
import time
from statistics import median

from ixcomplex import (
    analyze,
    count_actions,
    estimate_time,
    evaluate,
    format_expr,
    get_speed_model,
    klm_from_concept,
    klm_time,
    parse_concept,
    parse_expr,
)
from ixcomplex.klm import KlmModel, mapping_from_dict

import common
from inputs import FULL_MAPPING, KIND_SECONDS, sweep_pairs
from tracer import untraced

PAIRS = 400

LAYERS = (
    "concept.parse_concept",
    "bigi.analyze",
    "expr.format_expr",
    "expr.parse_expr",
    "expr.evaluate",
    "klm.klm_from_concept",
    "klm.klm_time",
    "speed.estimate_time",
    "synth.count_actions",
)


def run(ctx: common.Context, pairs: int = PAIRS) -> None:
    res = ctx.result
    setup = common.Setup(lambda: sweep_pairs(ctx.seed, pairs))
    population = setup.output
    common.check_shipped(res)
    mapping = mapping_from_dict(FULL_MAPPING)
    model = KlmModel()
    overall = get_speed_model("overall")

    def op(pair, call):
        concept = call("concept.parse_concept", parse_concept, pair.text)
        report = call("bigi.analyze", analyze, concept, pair.binding)
        text = call("expr.format_expr", format_expr, report.normalized.is_function)
        published = call("expr.parse_expr", parse_expr, text)
        is_count = call("expr.evaluate", evaluate, published, pair.binding)
        klm = call("klm.klm_from_concept", klm_from_concept, concept, mapping)
        seconds = call("klm.klm_time", klm_time, klm, model, pair.binding)
        estimate = call("speed.estimate_time", estimate_time, is_count, overall)
        counts = call("synth.count_actions", count_actions, concept, pair.binding)
        return concept, report, published, is_count, seconds, estimate, counts

    shapes = {}  # pair index -> (IS terms, steps), from the program's output

    def one_pass(traced: bool) -> list[float]:
        call = ctx.tracer.call if traced else untraced
        times = []
        for index, pair in enumerate(population):
            start = time.perf_counter()
            try:
                if traced:
                    ctx.tracer.next_op()
                with ctx.tracer.span("sweep.op") if traced else contextlib.nullcontext():
                    outcome = op(pair, call)
            except Exception as exc:  # an operation that raises is a failed op
                outcome = exc
            times.append(time.perf_counter() - start)
            common.checked(res, f"pair {index}", lambda: _check(pair, outcome))
            if not isinstance(outcome, Exception):
                shapes[index] = (len(outcome[2].terms), len(outcome[0].steps))
        return times

    # A traced run alternates untraced and traced passes; the end-to-end
    # figures come from the untraced ones and the difference is the
    # tracing overhead.
    passes, traced_passes = [], []
    start = time.perf_counter()
    while (
        len(passes) + len(traced_passes) < (2 if ctx.trace else 1)
        or time.perf_counter() - start < ctx.seconds
    ):
        if ctx.trace and len(passes) > len(traced_passes):
            traced_passes.append(one_pass(True))
        else:
            passes.append(one_pass(False))
        setup.again()
    wall = time.perf_counter() - start
    rss = common.peak_rss_mb()

    per_pair_ms = [1000 * min(column) for column in zip(*passes)]
    ops = (len(passes) + len(traced_passes)) * len(population)
    ops_per_s = 1000 * len(per_pair_ms) / sum(per_pair_ms)
    tail_ms, tail_pct, n = common.tail(per_pair_ms)
    res.line(
        f"sweep: {len(population)} pairs ({sum(p.large for p in population)} large) x "
        f"{len(passes)} passes = {ops} ops in {wall:.3f} s"
    )
    res.line(f"sweep_ops_per_s {ops_per_s:.4f} 1/s (all passes: {ops / wall:.4f} 1/s)")
    res.line(f"sweep_op_p50_ms {median(per_pair_ms):.4f} ms")
    res.line(f"sweep_op_tail_ms {tail_ms:.4f} ms (p{tail_pct:.2f} of n={n} pairs, 10 beyond)")

    if not ctx.trace:
        res.metric("setup_s", setup.seconds(res), "s")
        res.metric("peak_rss_mb", rss, "MB")
        res.metric("ops_per_s", ops_per_s, "1/s")
        res.metric("op_p50_ms", median(per_pair_ms), "ms")
        res.metric("op_tail_ms", tail_ms, "ms")
        return

    traced_ops = len(traced_passes) * len(population)
    own = ctx.tracer.by_op(own=True)
    for layer in LAYERS:
        res.metric(f"{layer}.ms", 1000 * sum(own.get(layer, {}).values()) / traced_ops, "ms")
    res.metric("sweep.op_self.ms", 1000 * sum(own["sweep.op"].values()) / traced_ops, "ms")
    res.metric("expr.terms", _mean(terms for terms, _ in shapes.values()), "count")
    res.metric("concept.steps", _mean(steps for _, steps in shapes.values()), "count")
    res.metric("synth.repeat_total", _mean(p.repeat_total for p in population), "count")
    traced_ms = [1000 * min(column) for column in zip(*traced_passes)]
    res.metric("trace.overhead_pct", 100 * (sum(traced_ms) / sum(per_pair_ms) - 1), "%")
    res.metric("trace.spans", len(ctx.tracer.spans), "count")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _check(pair, outcome) -> list[str]:
    if isinstance(outcome, Exception):
        return [f"{type(outcome).__name__}: {outcome}"]
    concept, report, published, is_count, seconds, estimate, counts = outcome
    problems = []
    engine = report.instantiated[1]
    if engine != pair.expected_is:
        problems.append(f"engine IS {engine} != generated {pair.expected_is}")
    if counts.total != engine:
        problems.append(f"oracle {counts.total} != engine {engine}")
    oracle_kinds = {kind.value: count for kind, count in counts.per_kind.items()}
    wanted_kinds = {kind: n for kind, n in pair.expected_per_kind.items() if n}
    if oracle_kinds != wanted_kinds:
        problems.append(f"oracle kinds {oracle_kinds} != {wanted_kinds}")
    if published != report.normalized.is_function:
        problems.append("parse_expr(format_expr(IS)) != IS")
    if is_count != engine:
        problems.append(f"as-published path {is_count} != {engine}")
    want_seconds = sum(KIND_SECONDS[kind] * n for kind, n in pair.expected_per_kind.items())
    if not math.isclose(seconds, want_seconds, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"klm_time {seconds} != {want_seconds}")
    if engine and not math.isclose(estimate.expected, engine / 1.05, rel_tol=1e-12):
        problems.append(f"estimate {estimate.expected} != {engine / 1.05}")
    return problems
