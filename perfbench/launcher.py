"""Starts cli-cold's child interpreters and times each one.

A child's ru_maxrss starts from its parent's resident size at fork, so the
children are started from this small process instead of from the benchmark,
which holds numpy and the program in memory.  The launcher imports neither.

Protocol: each line on stdin is a JSON argv list; each reply on stdout is a
JSON object with the child's exit code, output, wall time and CPU time.
When stdin closes, a last line gives the largest peak RSS of any child and
the launcher's own, in MB.
"""

import json
import resource
import subprocess
import sys
import time

from common import peak_rss_mb

CHILD_TIMEOUT_S = 60


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    for line in sys.stdin:
        argv = json.loads(line)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            done = subprocess.run(
                argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            code, out, err = done.returncode, done.stdout, done.stderr
        except subprocess.TimeoutExpired:
            code, out, err = -9, "", f"timed out after {CHILD_TIMEOUT_S} s"
        wall = time.perf_counter() - start
        cpu = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(before)
        reply = {"code": code, "stdout": out, "stderr": err, "wall": wall, "cpu": cpu}
        print(json.dumps(reply), flush=True)
    print(
        json.dumps(
            {
                "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                "launcher_peak_rss_mb": peak_rss_mb(),
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
