"""What a cold command loads: numpy only for synthetic log generation, and
neither dataclasses nor inspect (with its ast, dis and tokenize) for any
command, since the value classes are plain slotted classes.

Each check runs the CLI in a fresh interpreter, because the test process
itself has these modules loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ixcomplex.cli import main

from helpers import (
    CONCEPTS_DIR,
    KLM_V1_BINDING,
    V1_BINDING,
    V1_PUBLISHED_IS,
    V1_PUBLISHED_KLM,
    V2_BINDING,
    V2_PUBLISHED_IS,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
V1 = str(CONCEPTS_DIR / "v1.concept")
V2 = str(CONCEPTS_DIR / "v2.concept")

# Imports the CLI and runs each argv (one JSON list per line of stdin)
# through cli.main in one interpreter, then reports, for each module named
# on its command line, whether the import or the commands loaded it.
CHILD = """
import json, sys
before = set(sys.modules)
from ixcomplex.cli import main
for line in sys.stdin:
    code = main(json.loads(line))
    if code:
        sys.exit(f"exit {code}: {line}")
for name in sys.argv[1:]:
    print(f"{name} loaded:", name in sys.modules and name not in before)
"""
UNUSED = ("dataclasses", "inspect")


def set_flags(binding):
    return [arg for name, value in binding.items() for arg in ("--set", f"{name}={value}")]


def synth_argv(out):
    return [
        "synth", V2, *set_flags(V2_BINDING),
        "--sessions", "100", "--speed-mean", "1.05", "--speed-sd", "0.2",
        "--seed", "7", "--out", str(out),
    ]


def run_child(*argvs, report=("numpy",)):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *report],
        input="".join(json.dumps(argv) + "\n" for argv in argvs),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_commands_other_than_synth_never_load_numpy(tmp_path, capsys):
    log = tmp_path / "bookings.json"
    assert main(synth_argv(log)) == 0
    capsys.readouterr()
    out = run_child(
        ["analyze", V1, *set_flags(V1_BINDING), "--formula", V1_PUBLISHED_IS],
        ["klm", "--formula", V1_PUBLISHED_KLM, *set_flags(KLM_V1_BINDING), "--is", "171"],
        ["estimate", V2, *set_flags(V2_BINDING), "--speed", "overall", "--formula", V2_PUBLISHED_IS],
        ["oracle", V2, *set_flags(V2_BINDING)],
        ["logs", str(log), "--format", "csv"],
        report=(*UNUSED, "numpy"),
    )
    assert "as-published: IS = 171" in out
    assert "126.52 sec\n1.35 IS/sec" in out
    assert "T:35 E:6 C:4 total:45" in out
    assert out.endswith(
        "dataclasses loaded: False\ninspect loaded: False\nnumpy loaded: False\n"
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert run_child(report=UNUSED) == "dataclasses loaded: False\ninspect loaded: False\n"


def test_synth_loads_numpy_and_writes_the_in_process_bytes(tmp_path, capsys):
    in_process = tmp_path / "in_process.json"
    child = tmp_path / "child.json"
    assert main(synth_argv(in_process)) == 0
    capsys.readouterr()
    assert run_child(synth_argv(child)) == "numpy loaded: True\n"
    assert child.read_bytes() == in_process.read_bytes()
