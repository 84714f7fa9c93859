"""Tiny-size self-check of the benchmark's report.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size (40 sweep pairs, 200 logged sessions,
one cold-start cycle), untraced and traced, and checks that the last line
of each report names exactly the metrics BENCHMARK.json lists, each with
its unit, that every end-to-end value is a positive number, and that every
check passed.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "symbolic-sweep": {"pairs": 40},
    "log-pipeline-20k": {"sessions": 200},
    "cli-cold": {},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in run.WORKLOADS:
        if workload not in {w["name"] for w in spec["workloads"]}:
            problems.append(f"{workload}: missing from BENCHMARK.json")
        for trace in (False, True):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                run.run(workload, seed=1, seconds=0.5, trace=trace, sizes=TINY[workload])
            result = json.loads(printed.getvalue().strip().splitlines()[-1])
            where = f"{workload} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed: {printed.getvalue()[-2000:]}")
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                units = sorted(n for n in got if n in wanted[trace] and got[n] != wanted[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {units}")
            for name, entry in result["metrics"].items():
                value = entry["value"]
                if not isinstance(value, (int, float)) or (not trace and value <= 0):
                    problems.append(f"{where}: {name} = {value!r}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops checked")
    for problem in problems:
        print(f"FAILED {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
