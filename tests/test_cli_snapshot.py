"""Byte-exact CLI output for a fixed set of invocations.

Each case pins stdout, stderr and the exit code of one `main(argv)` call,
so refactoring the command-line layer cannot change what users see without
failing here.  Paths in argv are relative to the repository root, and log
files are generated by `synth` with fixed seeds before the cases run.

To re-record after an intended output change, run this file as a script:

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ixcomplex.cli import main

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "data" / "cli_snapshot.json"

V1 = "concepts/v1.concept"
V2 = "concepts/v2.concept"


def _set(**binding: int) -> list[str]:
    argv = []
    for name, value in binding.items():
        argv += ["--set", f"{name}={value}"]
    return argv


V1_SET = _set(m=6, r=4, t=7, d=4, s=6, a=5)
V2_SET = _set(m=6, r=4, d=4, s=4, g=9, o=7)
KLM_V1_SET = _set(m=6, r=4, t=7, d=6, s=5, a=5)
KLM_V2_SET = _set(m=6, r=4, t=7, d=6, s=5, o=5, g=9)
V1_IS = "m + 5 + a*(r + t + d + s + 11)"
V2_IS = "m + r + d + s + g + o + 12"
V1_KLM = "(m + a*(r + t + d + s + 2))*Q + (4 + 8*a)*T"
V2_KLM = "(m + r + t + d + s + o + 2)*Q + 9*T"

# Written into the working directory by _make_logs before the cases run.
LOG = "log.json"
BAD_LOG = "bad_log.json"

CASES: dict[str, list[str]] = {
    "analyze-v1-text": ["analyze", V1, *V1_SET],
    "analyze-v1-formula-text": ["analyze", V1, *V1_SET, "--formula", V1_IS],
    "analyze-v1-json": ["analyze", V1, *V1_SET, "--format", "json"],
    "analyze-v1-formula-json": ["analyze", V1, *V1_SET, "--formula", V1_IS, "--format", "json"],
    "analyze-v1-symbolic-formula-text": ["analyze", V1, "--formula", V1_IS],
    "analyze-v1-symbolic-formula-json": ["analyze", V1, "--formula", V1_IS, "--format", "json"],
    "analyze-v2-text": ["analyze", V2, *V2_SET],
    "analyze-v2-formula-text": ["analyze", V2, *V2_SET, "--formula", V2_IS],
    "analyze-v2-json": ["analyze", V2, *V2_SET, "--format", "json"],
    "analyze-v2-formula-json": ["analyze", V2, *V2_SET, "--formula", V2_IS, "--format", "json"],
    "analyze-v2-symbolic-text": ["analyze", V2],
    "klm-formula-text": ["klm", "--formula", V1_KLM, *KLM_V1_SET, "--is", "171"],
    "klm-formula-json": ["klm", "--formula", V1_KLM, *KLM_V1_SET, "--is", "171", "--format", "json"],
    "klm-v1-text": ["klm", V1, *KLM_V1_SET],
    "klm-v1-formula-text": ["klm", V1, "--formula", V1_KLM, *KLM_V1_SET, "--is", "171"],
    "klm-v1-formula-json": ["klm", V1, "--formula", V1_KLM, *KLM_V1_SET, "--format", "json"],
    "klm-v2-formula-text": ["klm", V2, "--formula", V2_KLM, *KLM_V2_SET, "--is", "46"],
    "klm-v2-formula-json": ["klm", V2, "--formula", V2_KLM, *KLM_V2_SET, "--is", "46", "--format", "json"],
    "estimate-v1-text": ["estimate", V1, *V1_SET],
    "estimate-v1-formula-text": ["estimate", V1, *V1_SET, "--formula", V1_IS],
    "estimate-v1-formula-json": ["estimate", V1, *V1_SET, "--formula", V1_IS, "--format", "json"],
    "estimate-v2-text": ["estimate", V2, *V2_SET, "--speed", "overall"],
    "estimate-v2-formula-v2-text": ["estimate", V2, *V2_SET, "--formula", V2_IS, "--speed", "v2"],
    "estimate-v2-json": ["estimate", V2, *V2_SET, "--format", "json"],
    "estimate-v2-formula-json": ["estimate", V2, *V2_SET, "--formula", V2_IS, "--speed", "v1", "--format", "json"],
    "estimate-v2-custom-text": [
        "estimate", V2, *V2_SET, "--speed-mean", "1.0", "--speed-min", "0.5", "--speed-max", "2.0",
    ],
    "oracle-v1-text": ["oracle", V1, *V1_SET],
    "oracle-v2-text": ["oracle", V2, *V2_SET],
    "oracle-v2-json": ["oracle", V2, *V2_SET, "--format", "json"],
    "logs-text": ["logs", LOG],
    "logs-csv": ["logs", LOG, "--format", "csv"],
    "logs-json": ["logs", LOG, "--format", "json"],
    "logs-concept-name-task-csv": ["logs", LOG, "--group-by", "concept_name", "--table", "task", "--format", "csv"],
    "logs-concept-check-text": ["logs", LOG, "--concept", V2],
    "logs-concept-mismatch-error": ["logs", BAD_LOG, "--concept", V2],
    "logs-concept-mismatch-step-table": ["logs", BAD_LOG, "--concept", V2, "--table", "step"],
    "analyze-unbound-error": ["analyze", V1, "--set", "m=6"],
    "oracle-inadmissible-error": ["oracle", V1, *_set(m=6, r=4, t=7, d=4, s=6, a=0)],
}


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _make_logs() -> None:
    """A 12-session seeded log, and a copy whose task IS counts were edited."""
    synth = ["synth", V2, *V2_SET, "--speed-mean", "1.05", "--speed-sd", "0.25", "--seed", "2026"]
    result = _call([*synth, "--sessions", "12", "--out", LOG])
    assert result["code"] == 0, result
    data = json.loads(Path(LOG).read_text(encoding="utf-8"))
    # The IS count of the first task of sessions 2 and 7.
    data["sessions"][2][1][0][3] = 999
    data["sessions"][7][1][0][3] = 50
    Path(BAD_LOG).write_text(json.dumps(data), encoding="utf-8")


@contextmanager
def _workspace():
    """A scratch working directory that reaches the repository's concept
    files by relative path and holds the generated logs."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        (Path(work) / "concepts").symlink_to(ROOT / "concepts")
        os.chdir(work)
        try:
            _make_logs()
            yield
        finally:
            os.chdir(previous)


@pytest.fixture(scope="module")
def workspace():
    with _workspace():
        yield


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_covers_every_case(snapshot):
    assert sorted(snapshot) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, workspace, snapshot):
    expected = snapshot[name]
    assert expected["argv"] == CASES[name]
    actual = _call(CASES[name])
    assert actual["stdout"] == expected["stdout"]
    assert actual["stderr"] == expected["stderr"]
    assert actual["code"] == expected["code"]


def _record() -> None:
    with _workspace():
        recorded = {name: {"argv": argv, **_call(argv)} for name, argv in CASES.items()}
    SNAPSHOT.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {SNAPSHOT.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    _record()
