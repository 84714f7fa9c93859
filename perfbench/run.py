"""ixcomplex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the checkout's
src/ixcomplex; nothing is installed.  Lines before the last describe the run
(environment stamp, per-workload figures, failures).  The last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones and
the tracing overhead; spans go to perfbench/_out/.  Exit code 0 only when
every check passed; without src/ixcomplex in the checkout it exits
non-zero before measuring anything.

See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
ROOT = common.ROOT
SRC = common.SRC

WORKLOADS = ("symbolic-sweep", "log-pipeline-20k", "cli-cold")

# Per-layer metrics and their units, in report order.  A layer a workload
# leaves idle reports 0.
PER_LAYER = {
    "concept.parse_concept.ms": "ms",
    "concept.steps": "count",
    "bigi.analyze.ms": "ms",
    "expr.format_expr.ms": "ms",
    "expr.parse_expr.ms": "ms",
    "expr.evaluate.ms": "ms",
    "expr.terms": "count",
    "klm.klm_from_concept.ms": "ms",
    "klm.klm_time.ms": "ms",
    "speed.estimate_time.ms": "ms",
    "synth.count_actions.ms": "ms",
    "synth.repeat_total": "count",
    "sweep.op_self.ms": "ms",
    "synth.generate_log.s": "s",
    "logs.dump_log.s": "s",
    "logs.bytes_written": "B",
    "cli.file_io.s": "s",
    "logs.load_log.s": "s",
    "logs.json_decode.s": "s",
    "logs.validate_log.s": "s",
    "logs.record_build.s": "s",
    "logs.task_table.s": "s",
    "logs.step_table.s": "s",
    "logs.render.s": "s",
    "logs.records": "count",
    "logs.samples_kept": "count",
    "logs.samples_dropped": "count",
    "cli.main.synth.s": "s",
    "cli.main.logs.s": "s",
    "cli.self.synth.s": "s",
    "cli.self.logs.s": "s",
    "cli.main.analyze.s": "s",
    "cli.main.klm.s": "s",
    "cli.main.estimate.s": "s",
    "cli.main.oracle.s": "s",
    "cli.interpreter_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.import_ms": "ms",
    "cli.inprocess_share_pct": "%",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="ixcomplex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _load_program():
    """Import ixcomplex from this checkout's src/, and nowhere else."""
    if not (SRC / "ixcomplex" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'ixcomplex'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ixcomplex

    if Path(ixcomplex.__file__).resolve().parent != (SRC / "ixcomplex").resolve():
        raise SystemExit(f"error: ixcomplex was imported from {ixcomplex.__file__}")
    return ixcomplex


def environment_stamp() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload and return the result object (also printed)."""
    _load_program()
    import cold
    import pipeline
    import sweep

    modules = {"symbolic-sweep": sweep, "log-pipeline-20k": pipeline, "cli-cold": cold}
    stamp = environment_stamp()
    print("env " + json.dumps(stamp, sort_keys=True))
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = common.Context(seed, seconds, trace, work)
    started = time.perf_counter()
    try:
        modules[workload].run(ctx, **(sizes or {}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res = ctx.result
    stamp["loadavg_end"] = list(os.getloadavg())
    print(f"loadavg_end {stamp['loadavg_end']}")
    for text in res.lines:
        print(text)
    error_rate = res.failed / res.attempted if res.attempted else 1.0
    print(f"error_rate {error_rate:.6f} failed/attempted ({res.failed} of {res.attempted})")
    for text in res.failures:
        print(f"FAILED {text}")

    if trace:
        for name, unit in PER_LAYER.items():
            res.metrics.setdefault(name, (0, unit))
        _print_span_table(ctx.tracer)
        out = HERE / "_out" / f"spans-{workload}-seed{seed}.json"
        ctx.tracer.write(out, {"workload": workload, "seed": seed, "env": stamp})
        print(f"spans written to {out.relative_to(ROOT)}")
        names = PER_LAYER
    else:
        names = list(res.metrics)
    print(f"run wall {time.perf_counter() - started:.3f} s")
    result = {
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": res.metrics[name][0], "unit": res.metrics[name][1]} for name in names
        },
    }
    print(json.dumps(result))
    return result


def _print_span_table(tracer) -> None:
    totals = tracer.by_op()
    own = tracer.by_op(own=True)
    counts = Counter(span["name"] for span in tracer.spans)
    print(f"{'span':32} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name in sorted(totals, key=lambda key: -sum(own[key].values())):
        print(
            f"{name:32} {counts[name]:7d} {sum(totals[name].values()):10.4f} "
            f"{sum(own[name].values()):10.4f}"
        )


def main(argv=None) -> int:
    args = _parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
