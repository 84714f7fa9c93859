"""Pieces shared by the workloads: run context, result bookkeeping,
statistics and child processes."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from inputs import check_shipped_values
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 9
MAX_REPORTED_FAILURES = 5


@dataclass
class Result:
    """Operations attempted and failed, metrics and report lines of one run.

    Every check belongs to an operation; an operation with any failed check
    counts once in ``failed``.  Nothing is retried.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def op(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def line(self, text: str) -> None:
        self.lines.append(text)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    result: Result = field(default_factory=Result)
    tracer: Tracer | None = None

    def __post_init__(self):
        if self.trace:
            self.tracer = Tracer()


def checked(result: Result, what: str, check) -> None:
    """Record one checked operation; ``check()`` returns its problems, and a
    check that raises has failed."""
    try:
        problems = check()
    except Exception as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    result.op(problems, what)


def check_shipped(result: Result) -> None:
    """One operation: the shipped concepts reproduce the published numbers."""
    checked(result, "shipped concepts", lambda: check_shipped_values(ROOT))


# --- statistics -------------------------------------------------------------


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.  With fewer than 11 samples no percentile qualifies
    and the maximum is returned, labelled as the 100th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    """This process's peak resident size (VmHWM).

    Not ru_maxrss: that starts from the parent's resident size at fork, so
    a large parent would hide the figure.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


class Setup:
    """The set-up of one run, timed each time it is repeated.

    One set-up imports ixcomplex.cli afresh in this process (its modules are
    dropped from sys.modules first; numpy stays loaded) and then calls
    ``prepare()``, the workload's input generation; work a change moves to
    import time therefore shows here.  Interpreter start-up and the numpy
    import are left to cli-cold: timed in a child they are bimodal on a
    2-vCPU machine and would swamp the rest.  The workloads keep calling the
    functions they imported before the first set-up.

    The set-up is repeated between passes, so that its median spans the
    whole run rather than the first half second of it.
    """

    def __init__(self, prepare):
        self.prepare = prepare
        self.times: list[float] = []
        self.output = self.again()

    def again(self):
        start = time.perf_counter()
        for name in [name for name in sys.modules if name.split(".")[0] == "ixcomplex"]:
            del sys.modules[name]
        importlib.import_module("ixcomplex.cli")
        output = self.prepare()
        self.times.append(time.perf_counter() - start)
        return output

    def seconds(self, result: Result) -> float:
        while len(self.times) < SETUP_REPS:
            self.again()
        result.line(
            f"setup: {len(self.times)} set-ups, median {median(self.times):.6f} s, "
            f"fastest {min(self.times):.6f} s, slowest {max(self.times):.6f} s"
        )
        return median(self.times)


# --- child processes --------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment of every child interpreter.

    The package comes from this checkout's src/.  Bytecode is cached under
    perfbench/_cache, inside the checkout, as an installed package would have
    it; everything else, the BLAS thread variables included, is passed on
    unchanged.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / "perfbench" / "_cache" / "pycache")
    return env


class Launcher:
    """Client of perfbench/launcher.py, which starts one child at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> dict:
        """Run argv to completion: {"code", "stdout", "stderr", "wall", "cpu"}."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> dict:
        """Stop the launcher; returns the children's and its own peak RSS (MB)."""
        self.proc.stdin.close()
        try:
            return json.loads(self.proc.stdout.readline())
        finally:
            self.proc.stdout.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def exit_problems(done: dict) -> list[str]:
    if done["code"] == 0:
        return []
    return [f"exit {done['code']}: {done['stderr'].strip()[-300:]}"]
