import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ixcomplex import cli, logs
from ixcomplex.cli import main
from ixcomplex.concept import serialize_concept
from ixcomplex.errors import LogFormatError
from ixcomplex.logs import dump_log, load_log
from ixcomplex.synth import SynthConfig, generate_log

from helpers import (
    CONCEPTS_DIR,
    V1_PUBLISHED_IS,
    V1_PUBLISHED_KLM,
    V2_BINDING,
    concepts,
    grammar_texts,
    parser_texts,
)

DATA_DIR = Path(__file__).resolve().parent / "data"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
V1 = str(CONCEPTS_DIR / "v1.concept")
V2 = str(CONCEPTS_DIR / "v2.concept")

V1_SET = ["--set", "m=6", "--set", "r=4", "--set", "t=7", "--set", "d=4", "--set", "s=6", "--set", "a=5"]
V2_SET = ["--set", "m=6", "--set", "r=4", "--set", "d=4", "--set", "s=4", "--set", "g=9", "--set", "o=7"]
KLM_V1_SET = ["--set", "m=6", "--set", "r=4", "--set", "t=7", "--set", "d=6", "--set", "s=5", "--set", "a=5"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(argv):
    """main(argv) with stdout encoded as strict UTF-8, as a real stdout is;
    io.StringIO would take any code point, a lone surrogate among them."""
    err = io.StringIO()
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out.flush()
        printed = out.buffer.getvalue().decode("utf-8")
    return code, printed, err.getvalue()


class TestAnalyze:
    def test_report_ends_with_is_count(self, capsys):
        code, out, _ = run(capsys, "analyze", V1, *V1_SET)
        assert code == 0
        assert out.rstrip().endswith("IS = 174")
        assert "[quadratic]" in out

    def test_symbolic_without_bindings(self, capsys):
        code, out, _ = run(capsys, "analyze", V2)
        assert code == 0
        assert "IS =" not in out
        assert "simplified: I(" in out
        assert "[linear]" in out

    def test_published_formula_side_by_side(self, capsys):
        code, out, _ = run(
            capsys, "analyze", V1, *V1_SET, "--formula", "m + 5 + a*(r + t + d + s + 11)"
        )
        assert code == 0
        assert "as-defined: IS = 174" in out
        assert "as-published: IS = 171" in out

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "analyze", "missing.concept")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_incomplete_binding(self, capsys):
        code, _, err = run(capsys, "analyze", V1, "--set", "m=6")
        assert code == 1
        assert "unbound variable" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "analyze", V2, *V2_SET, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["instantiated"]["is"] == 45
        assert payload["simplified"]["class_label"] == "linear"
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_negative_binding_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "analyze", V1, "--set", "a=-1")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_formula_is_parsed(self, capsys, fmt):
        code, out, err = run(capsys, "analyze", V1, *V1_SET, "--formula", "", "--format", fmt)
        assert (code, out, err) == (1, "", "error: empty expression (offset 0)\n")

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "analyze", V1, "--frobnicate")
        assert code == 2


class TestKlm:
    def test_published_formula_time(self, capsys):
        code, out, _ = run(
            capsys,
            "klm",
            "--formula",
            "(m + a*(r + t + d + s + 2))*Q + (4 + 8*a)*T",
            *KLM_V1_SET,
        )
        assert code == 0
        assert "126.52 sec" in out

    def test_speed_appended(self, capsys):
        code, out, _ = run(
            capsys,
            "klm",
            "--formula",
            "(m + a*(r + t + d + s + 2))*Q + (4 + 8*a)*T",
            *KLM_V1_SET,
            "--is",
            "171",
        )
        assert code == 0
        assert "126.52 sec" in out
        assert "1.35 IS/sec" in out

    def test_zero_formula(self, capsys):
        code, out, _ = run(capsys, "klm", "--formula", "0*Q")
        assert code == 0
        assert "0.00 sec" in out

    def test_concept_and_formula_side_by_side(self, capsys):
        code, out, _ = run(
            capsys,
            "klm",
            V1,
            "--formula",
            "(m + a*(r + t + d + s + 2))*Q + (4 + 8*a)*T",
            *KLM_V1_SET,
        )
        assert code == 0
        assert "as-defined:" in out
        assert "as-published: 126.52 sec" in out

    def test_requires_concept_or_formula(self, capsys):
        code, _, err = run(capsys, "klm")
        assert code == 2
        assert "formula" in err

    @pytest.mark.parametrize("concept", [[], [V1]])
    def test_empty_formula_is_parsed(self, capsys, concept):
        code, out, err = run(capsys, "klm", *concept, *KLM_V1_SET, "--formula", "")
        assert (code, out, err) == (1, "", "error: empty expression (offset 0)\n")

    def test_unmapped_action(self, capsys, tmp_path):
        concept = tmp_path / "scroll.concept"
        concept.write_text('concept "x"\nstep "scroll" { S: 2 }\n')
        code, _, err = run(capsys, "klm", str(concept))
        assert code == 1
        assert "Scroll" in err

    def test_huge_finite_time_renders(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"M": 1e30}))
        code, out, _ = run(capsys, "klm", "--formula", "M", "--model", str(model))
        assert code == 0
        assert out == "1" + "0" * 30 + ".00 sec\n"

    def test_model_override(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"M": 3.0, "C_click": 1.0}))
        code, out, _ = run(capsys, "klm", "--formula", "1*T", "--model", str(model))
        assert code == 0
        assert "4.00 sec" in out


class TestEstimate:
    def test_single_page_published(self, capsys):
        code, out, _ = run(
            capsys, "estimate", V2, *V2_SET,
            "--formula", "m + r + d + s + g + o + 12", "--speed", "v2",
        )
        assert code == 0
        assert "IS = 46" in out
        assert "expected: 69.70 sec" in out
        assert "speed range unavailable" in out

    def test_overall_range(self, capsys):
        code, out, _ = run(
            capsys, "estimate", V1, *V1_SET,
            "--formula", "m + 5 + a*(r + t + d + s + 11)",
        )
        assert code == 0
        assert "IS = 171" in out
        assert "expected: 162.86 sec" in out
        assert "fastest: 20.98 sec" in out
        assert "slowest: 950.00 sec" in out

    def test_empty_concept(self, capsys, tmp_path):
        concept = tmp_path / "empty.concept"
        concept.write_text('concept "empty"\n')
        code, out, _ = run(capsys, "estimate", str(concept))
        assert code == 0
        assert "IS = 0" in out
        assert "expected: 0.00 sec" in out

    def test_zero_is_with_a_mean_only_model_has_no_range(self, capsys):
        code, out, _ = run(
            capsys, "estimate", V2, *V2_SET, "--formula", "0", "--speed", "v1"
        )
        assert code == 0
        assert out.endswith(
            "as-published: IS = 0\n"
            "as-published: expected: 0.00 sec\n"
            "as-published: speed range unavailable for model 'v1'\n"
        )

    def test_empty_formula_is_parsed(self, capsys):
        code, out, err = run(capsys, "estimate", V2, *V2_SET, "--formula", "")
        assert (code, out, err) == (1, "", "error: empty expression (offset 0)\n")

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "estimate", V2, *V2_SET, "--speed", "v9")
        assert code == 1
        assert "unknown speed model" in err

    def test_custom_model_flags(self, capsys):
        code, out, _ = run(
            capsys, "estimate", V2, *V2_SET,
            "--speed-mean", "1.0", "--speed-min", "0.5", "--speed-max", "2.0",
        )
        assert code == 0
        assert "expected: 45.00 sec" in out
        assert "fastest: 22.50 sec" in out
        assert "slowest: 90.00 sec" in out


@contextlib.contextmanager
def collections_started():
    """The generations of the collections that start inside the block,
    after a full collection before it."""
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        yield generations
    finally:
        gc.callbacks.remove(record)


class TestSynthAndLogs:
    def test_deterministic_files(self, capsys, tmp_path):
        args = [
            "synth", V2, *V2_SET,
            "--sessions", "5", "--speed-mean", "1.05", "--speed-sd", "0.2",
            "--seed", "7",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(capsys, *args, "--out", str(first))[0] == 0
        assert run(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_synth_runs_no_full_collection_on_a_repeat(self, capsys, tmp_path):
        # synth writes the text without building log records, so nothing it
        # allocates stays alive for the collector to traverse, and the full
        # collection that generate_log's own pause runs on exit for 1000
        # sessions (see test_logs) has nothing to do with it.  The first
        # command in a process allocates more that stays alive, so the
        # second is checked.
        argv = [
            "synth", V2, *V2_SET,
            "--sessions", "1000", "--speed-mean", "1.0", "--out", str(tmp_path / "x.json"),
        ]
        assert run(capsys, *argv)[0] == 0
        with collections_started() as generations:
            code = run(capsys, *argv)[0]
        assert code == 0
        assert 2 not in generations

    def test_logs_runs_no_full_collection_on_a_repeat(self, capsys, tmp_path):
        # log_tables' own pause covers its walk of the file, which builds
        # no record tree: what the walk leaves is a few lists of durations,
        # too few for the full collection that load_log's pause runs on exit
        # for 1000 sessions, and rendering runs unpaused on small rows.
        log_file = tmp_path / "x.json"
        synth = [
            "synth", V2, *V2_SET,
            "--sessions", "1000", "--speed-mean", "1.0", "--out", str(log_file),
        ]
        assert run(capsys, *synth)[0] == 0
        assert run(capsys, "logs", str(log_file))[0] == 0
        with collections_started() as generations:
            code = run(capsys, "logs", str(log_file))[0]
        assert code == 0
        assert 2 not in generations

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_logs_restores_the_collector_on_a_bad_log(self, capsys, tmp_path, enabled):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 2, "sessions": [["s0", 5]]}', encoding="utf-8")
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, out, err = run(capsys, "logs", str(bad))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert (code, out) == (1, "")
        assert err == "error: sessions[0]: 'tasks' must be a list\n"

    def test_sessions_zero_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "0", "--speed-mean", "1.0", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_constant_speed_tables(self, capsys, tmp_path):
        out_file = tmp_path / "log.json"
        run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "4", "--speed-mean", "1.0", "--out", str(out_file),
        )
        code, out, _ = run(capsys, "logs", str(out_file))
        assert code == 0
        assert "task table:" in out and "step table:" in out
        for line in out.splitlines():
            if line.startswith("v2-single-page"):
                assert line.split()[-3:] == ["1.00", "1.00", "1.00"]

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "log.json"
        run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "2", "--speed-mean", "1.0", "--out", str(out_file),
        )
        code, out, _ = run(capsys, "logs", str(out_file), "--format", "csv", "--table", "task")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "group,n,is,min_s,max_s,mean_s,max_is_per_s,min_is_per_s,mean_is_per_s"
        assert lines[1].startswith("v2-single-page,2,45,")

    def test_empty_log_warns(self, capsys, tmp_path):
        log = tmp_path / "empty.json"
        log.write_text('{"format": 2, "sessions": []}')
        code, out, err = run(capsys, "logs", str(log))
        assert code == 0
        assert "no tasks" in err

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        import io
        import sys

        out_file = tmp_path / "log.json"
        run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "2", "--speed-mean", "1.0", "--out", str(out_file),
        )
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(out_file.read_bytes()))
        )
        code, out, _ = run(capsys, "logs", "-")
        assert code == 0
        assert "v2-single-page" in out

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b'{"format": 2, "\xff": 1}')))
        code, out, err = run(capsys, "logs", "-")
        assert (code, out) == (1, "")
        assert err.startswith("error: not valid JSON: 'utf-8' codec can't decode byte 0xff")

    def test_log_with_crlf_line_ends_is_read_as_it_is(self, capsys, tmp_path):
        # A text-mode read would turn each \r\n into \n, and so move the
        # offset of a fault that json names.
        log_file = tmp_path / "log.json"
        data = b'{\r\n"format": 2,\r\n"sessions": [\r\n["s", [], ]]}\r\n'
        log_file.write_bytes(data)
        message = "not valid JSON: Expecting value: line 4 column 11 (char 42)"
        with pytest.raises(LogFormatError, match=re.escape(message)):
            load_log(data)
        assert run(capsys, "logs", str(log_file)) == (1, "", f"error: {message}\n")

    def test_logs_keeps_no_copy_of_the_file(self, capsys, monkeypatch, tmp_path):
        # The CLI hands log_tables a reader, not the text, so no caller
        # frame holds the text, on any Python version.  The file's bytes are
        # gone before its text is decoded, and log_tables drops the text once
        # the log is read, before each table's rows are computed.  Each is
        # one block at least the file's size.
        log_file = tmp_path / "log.json"
        run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "1000", "--speed-mean", "1.0", "--out", str(log_file),
        )
        size = log_file.stat().st_size
        seen = {"rows": []}

        def spied(name, function):
            def spy(first, *rest):
                blocks = tracemalloc.take_snapshot().traces
                alive = sum(trace.size >= size for trace in blocks)
                if name == "rows":
                    seen[name].append(alive)
                else:
                    seen[name] = (type(first).__name__, alive)
                return function(first, *rest)
            return spy

        monkeypatch.setattr(cli, "log_tables", spied("log_tables", cli.log_tables))
        monkeypatch.setattr(logs, "_walked", spied("decoding", logs._walked))
        monkeypatch.setattr(logs, "_rows_from_groups", spied("rows", logs._rows_from_groups))
        tracemalloc.start()
        try:
            code = run(capsys, "logs", str(log_file))[0]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert seen == {"log_tables": ("partial", 0), "decoding": ("str", 1), "rows": [0, 0]}

    @pytest.mark.parametrize("seed, size, digest", [
        (7, 7_098_374, "e191d452f9927d592485338cdf0404955915679286e062f99a587e89facb83c7"),
        (1, 7_098_466, "94a9b09deae1d623a93aae08e8cbbda3e2b434fb39c24462b00f3efb8a3afcfc"),
    ])
    def test_benchmark_log_file(self, capsys, tmp_path, seed, size, digest):
        # The 20,000-session log of the benchmark (v2, README bindings),
        # pinned by size and digest, with it the float rounding of the draw.
        out_file = tmp_path / "log.json"
        code, _, err = run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "20000", "--speed-mean", "1.05", "--speed-sd", "0.2",
            "--seed", str(seed), "--out", str(out_file),
        )
        assert (code, err) == (0, f"wrote {out_file}: 20000 sessions\n")
        data = out_file.read_bytes()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_golden_output(self, capsys, tmp_path):
        out_file = tmp_path / "log.json"
        run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "12", "--speed-mean", "1.05", "--speed-sd", "0.25",
            "--seed", "2026", "--out", str(out_file),
        )
        code, out, _ = run(capsys, "logs", str(out_file))
        assert code == 0
        golden = (DATA_DIR / "golden_logs_output.txt").read_text()
        assert out == golden

    def test_golden_log_file(self, capsys):
        # The bytes of the log behind the golden table, pinned by size and
        # digest rather than by comparison with any JSON encoder.
        code, out, _ = run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "12", "--speed-mean", "1.05", "--speed-sd", "0.25",
            "--seed", "2026", "--out", "-",
        )
        assert code == 0
        data = out.encode("utf-8")
        assert len(data) == 4278
        assert hashlib.sha256(data).hexdigest() == (
            "eb27412ccea9dbafb6300156e923d81cd79d9b07dcb055799f2bc36168651a75"
        )

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_lone_surrogate_in_a_group_name(self, tmp_path, fmt):
        # The JSON escape reads as the lone code point U+D800, which a UTF-8
        # stdout cannot encode; the table shows the escape instead.
        task = ["t\ud800", "c", {}, 3, [["p", 0, 1000, [["s", 0, 1000, 3]]]]]
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"format": 2, "sessions": [["s", [task]]]}))
        env = dict(os.environ, PYTHONIOENCODING="utf-8")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "ixcomplex", "logs", str(log), "--format", fmt],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert b"Traceback" not in done.stderr
        assert b"t\\ud800" in done.stdout

    def test_cross_check_names_a_task_its_binding_cannot_count(self, capsys, tmp_path):
        out_file = tmp_path / "log.json"
        run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "3", "--speed-mean", "1.0", "--out", str(out_file),
        )
        data = json.loads(out_file.read_text())
        del data["sessions"][0][1][0][2]["g"]  # the first task's binding
        out_file.write_text(json.dumps(data))
        code, out, err = run(capsys, "logs", str(out_file), "--concept", V2)
        assert code == 0
        assert "task table:" in out
        assert err == (
            "warning: task 'v2-single-page' in session 's0000': the concept yields no IS count "
            "at its binding: unbound variable 'g'\n"
        )

    def test_concept_cross_check_warns_on_mismatch(self, capsys, tmp_path):
        out_file = tmp_path / "log.json"
        run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "1", "--speed-mean", "1.0", "--out", str(out_file),
        )
        data = json.loads(out_file.read_text())
        data["sessions"][0][1][0][3] = 999  # the first task's IS count
        out_file.write_text(json.dumps(data))
        code, _, err = run(capsys, "logs", str(out_file), "--concept", V2)
        assert code == 0
        assert "999" in err and "45" in err


class TestOracle:
    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, "oracle", V2, *V2_SET)
        assert code == 0
        assert out.strip() == "T:35 E:6 C:4 total:45"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "oracle", V2, *V2_SET, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"T": 35, "E": 6, "C": 4, "total": 45}

    def test_inadmissible_binding(self, capsys):
        code, _, err = run(
            capsys, "oracle", V1,
            "--set", "m=6", "--set", "r=4", "--set", "t=7",
            "--set", "d=4", "--set", "s=6", "--set", "a=0",
        )
        assert code == 1
        assert "evaluated to -1" in err


class TestBindingsFile:
    def test_bindings_file_with_override(self, capsys, tmp_path):
        bindings = tmp_path / "bindings.json"
        bindings.write_text(json.dumps({"m": 6, "r": 4, "d": 4, "s": 4, "g": 9, "o": 1}))
        code, out, _ = run(
            capsys, "oracle", V2, "--bindings", str(bindings), "--set", "o=7"
        )
        assert code == 0
        assert "total:45" in out

    def test_bad_bindings_file(self, capsys, tmp_path):
        bindings = tmp_path / "bindings.json"
        bindings.write_text(json.dumps({"m": -4}))
        code, _, err = run(capsys, "oracle", V2, "--bindings", str(bindings))
        assert code == 1
        assert "nonnegative" in err


class TestNoTraceback:
    """Malformed side files and inputs end in exit 1 with an error line."""

    def run_failing(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        return err

    # Every path argument, given as the empty path; LOG stands for a valid
    # log file, so that the command gets as far as the empty path.
    EMPTY_PATHS = [
        ["analyze", ""],
        ["analyze", V2, "--bindings", ""],
        ["klm", "", "--formula", "K"],
        ["klm", "--formula", "K", "--map", ""],
        ["klm", "--formula", "K", "--model", ""],
        ["estimate", "", *V2_SET],
        ["estimate", V2, *V2_SET, "--speed-file", ""],
        ["logs", ""],
        ["logs", "LOG", "--concept", ""],
        ["synth", "", "--sessions", "1", "--speed-mean", "1"],
        ["synth", V2, *V2_SET, "--sessions", "1", "--speed-mean", "1", "--out", ""],
        ["oracle", ""],
    ]

    @pytest.mark.parametrize("argv", EMPTY_PATHS, ids=" ".join)
    def test_empty_path_is_a_missing_file(self, capsys, tmp_path, argv):
        log = tmp_path / "log.json"
        task = ["t", "c", {}, 1, [["p", 0, 1, []]]]
        log.write_text(json.dumps({"format": 2, "sessions": [["s", [task]]]}))
        argv = [str(log) if arg == "LOG" else arg for arg in argv]
        if argv[0] == "synth" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "out.json")]
        err = self.run_failing(capsys, *argv)
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_speed_file_without_mean(self, capsys, tmp_path):
        speed = tmp_path / "speed.json"
        speed.write_text(json.dumps({"name": "lab", "min": 0.5}))
        err = self.run_failing(capsys, "estimate", V2, *V2_SET, "--speed-file", str(speed))
        assert "'mean'" in err

    def test_speed_file_holding_a_list(self, capsys, tmp_path):
        speed = tmp_path / "speed.json"
        speed.write_text("[1.05, 0.18, 8.15]")
        self.run_failing(capsys, "estimate", V2, *V2_SET, "--speed-file", str(speed))

    def test_speed_file_naming_the_model_nan(self, capsys, tmp_path):
        # The name was rendered with str(), so NaN printed as a model "nan".
        speed_file = tmp_path / "speed.json"
        speed_file.write_text('{"mean": 1.0, "name": NaN}')
        err = self.run_failing(capsys, "estimate", V2, *V2_SET, "--speed-file", str(speed_file))
        assert err == "error: speed model 'name' must be a string, got nan\n"

    def test_speed_file_holding_nan(self, capsys, tmp_path):
        speed = tmp_path / "speed.json"
        speed.write_text('{"mean": NaN}')
        err = self.run_failing(capsys, "estimate", V2, *V2_SET, "--speed-file", str(speed))
        assert "finite" in err

    def test_model_with_a_string_time(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"K": "abc"}))
        err = self.run_failing(capsys, "klm", "--formula", "1*K", "--model", str(model))
        assert "'K' must be a number" in err

    def test_model_holding_nan(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"M": NaN}')
        err = self.run_failing(capsys, "klm", "--formula", "1*T", "--model", str(model))
        assert "finite" in err

    def test_map_holding_a_list(self, capsys, tmp_path):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps([["Think", "Glance"]]))
        self.run_failing(capsys, "klm", V2, *V2_SET, "--map", str(mapping))

    def test_speed_mean_nan(self, capsys):
        err = self.run_failing(capsys, "estimate", V2, *V2_SET, "--speed-mean", "nan")
        assert "finite" in err

    def test_synth_speed_mean_nan(self, capsys, tmp_path):
        err = self.run_failing(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "1", "--speed-mean", "nan", "--out", str(tmp_path / "log.json"),
        )
        assert "finite" in err

    def test_concept_not_utf8(self, capsys, tmp_path):
        concept = tmp_path / "bad.concept"
        concept.write_bytes(b'concept "caf\xe9"\n')
        err = self.run_failing(capsys, "analyze", str(concept))
        assert "not UTF-8" in err

    def test_bindings_file_not_utf8(self, capsys, tmp_path):
        bindings = tmp_path / "bindings.json"
        bindings.write_bytes(b'{"m": 6, "\xff": 1}')
        err = self.run_failing(capsys, "oracle", V2, "--bindings", str(bindings))
        assert "not UTF-8" in err

    def test_bindings_file_nested_too_deeply(self, capsys, tmp_path):
        bindings = tmp_path / "bindings.json"
        bindings.write_text("[" * 100_000)
        err = self.run_failing(capsys, "oracle", V2, "--bindings", str(bindings))
        assert "invalid JSON input" in err

    def test_log_not_utf8(self, capsys, tmp_path):
        log = tmp_path / "log.json"
        log.write_bytes(b'{"sessions": [], "note": "\xff"}')
        err = self.run_failing(capsys, "logs", str(log))
        assert "not valid JSON" in err

    def test_log_of_format_1(self, capsys, tmp_path):
        # Records as objects, as earlier versions wrote them.
        step = {"step_label": "s", "start_ms": 0, "end_ms": 1000, "is_count": 3}
        visit = {"page": "p", "enter_ms": 0, "exit_ms": 1000, "steps": [step]}
        task = {"task_id": "t", "concept_name": "c", "binding": {}, "is_count": 3,
                "page_visits": [visit]}
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"sessions": [{"session_id": "s", "tasks": [task]}]}))
        err = self.run_failing(capsys, "logs", str(log))
        assert err == "error: log format 1 is not read by this version, which reads format 2\n"

    def test_log_nested_too_deeply(self, capsys, tmp_path):
        log = tmp_path / "log.json"
        log.write_text("[" * 100_000)
        err = self.run_failing(capsys, "logs", str(log))
        assert "not valid JSON" in err

    def test_synth_count_past_64_bits(self, capsys, tmp_path):
        concept = tmp_path / "square.concept"
        concept.write_text('concept "square"\nvar a\nstep "s" { T: a*a }\n')
        out = tmp_path / "log.json"
        err = self.run_failing(
            capsys, "synth", str(concept), "--set", "a=1099511627776",
            "--sessions", "1", "--speed-mean", "1", "--out", str(out),
        )
        assert err == (
            "error: step count 1208925819614629174706176 is outside the signed 64-bit range\n"
        )
        assert not out.exists()

    def test_synth_timestamp_past_64_bits(self, capsys, tmp_path):
        concept = tmp_path / "line.concept"
        concept.write_text('concept "line"\nvar a\nstep "s" { T: a }\n')
        err = self.run_failing(
            capsys, "synth", str(concept), "--set", f"a={2**63 - 1}",
            "--sessions", "1", "--speed-mean", "1", "--out", str(tmp_path / "log.json"),
        )
        assert err == (
            "error: timestamp 9223372036854775808000 is outside the signed 64-bit range\n"
        )

    def test_synth_binding_past_64_bits(self, capsys, tmp_path):
        # --set refuses the value as a usage error before synth runs.
        code, out, err = run(
            capsys, "synth", V2, *V2_SET, "--set", f"unused={2**63}",
            "--sessions", "1", "--speed-mean", "1", "--out", str(tmp_path / "log.json"),
        )
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: argument --set: binding unused = 9223372036854775808 "
            "is outside the signed 64-bit range\n"
        )
        assert not (tmp_path / "log.json").exists()

    def test_log_integer_past_64_bits(self, capsys, tmp_path):
        task = ["t", "c", {}, 10**400, [["p", 0, 5, []]]]
        log = tmp_path / "log.json"
        log.write_text(json.dumps({"format": 2, "sessions": [["s", [task]]]}))
        err = self.run_failing(capsys, "logs", str(log))
        assert err == (
            "error: sessions[0].tasks[0]: 'is_count' is outside the signed 64-bit range\n"
        )

    def test_klm_time_overflowing_to_infinity(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"M": 1e308}))
        err = self.run_failing(
            capsys, "klm", "--formula", "(m+2)*M", "--set", "m=100", "--model", str(model)
        )
        assert err == "error: execution time must be finite, got inf\n"

    def test_klm_speed_overflowing_to_infinity(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"K": 5e-324}))
        err = self.run_failing(
            capsys, "klm", "--formula", "K", "--model", str(model), "--is", "171"
        )
        assert err == "error: interaction speed must be finite, got inf\n"

    def test_estimate_overflowing_to_infinity(self, capsys):
        err = self.run_failing(capsys, "estimate", V2, *V2_SET, "--speed-mean", "1e-320")
        assert err == "error: expected time must be finite, got inf\n"

    def test_formula_nested_too_deeply(self, capsys):
        nested = "(" * 5000 + "a" + ")" * 5000
        err = self.run_failing(capsys, "analyze", V2, "--formula", nested)
        assert err == "error: parentheses nested more than 100 deep (offset 100)\n"

    def test_concept_nested_too_deeply(self, capsys, tmp_path):
        concept = tmp_path / "deep.concept"
        nested = "(" * 5000 + "a" + ")" * 5000
        concept.write_text(f'concept "x"\nvar a\nstep "s" repeat {nested} {{ C: 1 }}\n')
        err = self.run_failing(capsys, "analyze", str(concept))
        assert err.startswith("error: line 3, column 117: parentheses nested more than 100 deep")

    def test_formula_with_a_superscript_digit(self, capsys):
        err = self.run_failing(capsys, "analyze", V2, "--formula", "a²")
        assert err == "error: unknown character '²' (offset 1)\n"

    def test_concept_with_a_superscript_digit(self, capsys, tmp_path):
        concept = tmp_path / "sup.concept"
        concept.write_text('concept "x"\nvar a\nstep "s" { T: a*² }\n', encoding="utf-8")
        err = self.run_failing(capsys, "analyze", str(concept))
        assert err == "error: line 3, column 17: unknown character '²' (offset 3)\n"

    def test_formula_literal_of_5000_digits(self, capsys):
        err = self.run_failing(capsys, "analyze", V2, "--formula", "1" * 5000)
        assert err == (
            "error: integer literal 1111111111111111111... (5000 digits) "
            "is outside the signed 64-bit range (offset 0)\n"
        )

    def test_concept_literal_out_of_range(self, capsys, tmp_path):
        concept = tmp_path / "big.concept"
        concept.write_text('concept "x"\nstep "s" { C: 2 + 9223372036854775808 }\n')
        err = self.run_failing(capsys, "analyze", str(concept))
        assert err == (
            "error: line 2, column 19: integer literal 9223372036854775808 "
            "is outside the signed 64-bit range (offset 5)\n"
        )

    def test_formula_past_the_term_bound(self, capsys):
        tenfold = "*".join(["(a+b+c+d+e+f+g+h)"] * 10)
        err = self.run_failing(capsys, "analyze", V2, "--formula", tenfold)
        assert err.startswith("error: a product of ")

    def test_concept_past_the_term_bound(self, capsys, tmp_path):
        concept = tmp_path / "wide.concept"
        tenfold = "*".join(["(a+b+c+d+e+f+g+h)"] * 10)
        concept.write_text(
            'concept "x"\n' + "".join(f"var {v}\n" for v in "abcdefgh")
            + f'step "s" {{ T: {tenfold} }}\n'
        )
        err = self.run_failing(capsys, "analyze", str(concept))
        assert err.startswith("error: a product of ")

    def test_oracle_count_past_the_64_bit_range(self, capsys, tmp_path):
        concept = tmp_path / "square.concept"
        concept.write_text('concept "x"\nvar a\nstep "s" { T: a*a }\n')
        err = self.run_failing(capsys, "oracle", str(concept), "--set", f"a={2**40}")
        assert err == (
            "error: step count 1208925819614629174706176 is outside the signed 64-bit range\n"
        )


class TestIntegerFlags:
    def test_sessions_must_be_positive(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "0", "--speed-mean", "1.0", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "expected a positive integer, got 0" in err

    def test_is_must_be_nonnegative(self, capsys):
        code, _, err = run(capsys, "klm", "--formula", "1*T", "--is", "-1")
        assert code == 2
        assert "expected a nonnegative integer, got -1" in err

    def test_binding_value_must_be_ascii_digits(self, capsys):
        code, _, err = run(capsys, "oracle", V2, "--set", "a=²")
        assert code == 2
        assert "expected <name>=<nonnegative integer>, got 'a=²'" in err

    @pytest.mark.parametrize("value, code", [(2**63 - 1, 0), (2**63, 2), (10**19 - 1, 2)])
    def test_binding_value_within_64_bits(self, capsys, value, code):
        status, _, err = run(capsys, "analyze", V2, *V2_SET, "--set", f"unused={value}")
        assert status == code
        if code:
            assert err.endswith(
                f"error: argument --set: binding unused = {value} "
                "is outside the signed 64-bit range\n"
            )

    @pytest.mark.parametrize("value, code", [(2**63 - 1, 0), (2**63, 1)])
    def test_bindings_file_value_within_64_bits(self, capsys, tmp_path, value, code):
        bindings = tmp_path / "bindings.json"
        bindings.write_text(json.dumps({"unused": value}))
        status, _, err = run(capsys, "analyze", V2, *V2_SET, "--bindings", str(bindings))
        assert status == code
        if code:
            assert err == (
                "error: bindings file entry 'unused' is outside the signed 64-bit range\n"
            )

    def test_is_must_be_an_integer(self, capsys):
        code, _, err = run(capsys, "klm", "--formula", "1*T", "--is", "many")
        assert code == 2
        assert "expected an integer, got 'many'" in err

    @pytest.mark.parametrize("flag, value", [
        ("--set", "m=" + "9" * 5000),
        ("--sessions", "9" * 5000),
        ("--seed", "9" * 5000),
    ])
    def test_integer_of_5000_digits_is_a_short_usage_error(self, capsys, tmp_path, flag, value):
        code, out, err = run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "1", "--speed-mean", "1.0", "--out", str(tmp_path / "x.json"),
            flag, value,
        )
        assert (code, out) == (2, "")
        assert "Traceback" not in err and "_binding_pair" not in err
        assert len(err.encode()) < 1024
        assert err.endswith(
            f"error: argument {flag}: expected an integer of at most 19 digits, "
            f"got '{'9' * 40}'... (5000 characters)\n"
        )
        assert not (tmp_path / "x.json").exists()

    def test_seed_must_be_nonnegative(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", V2, *V2_SET,
            "--sessions", "1", "--speed-mean", "1.0", "--seed", "-1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "argument --seed: expected a nonnegative integer, got -1" in err


# Every case of the logs fuzz must finish within this many seconds.
FUZZ_SECONDS = 5.0
# A number rendered as NaN or infinity, in any spelling Python or JSON uses.
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")
DELETE = object()
# Replacement values: each kind of JSON value, integers at and past the
# ends of the 64-bit range, and floats JSON writes as NaN and Infinity.
# The strings spell no number, as logs prints labels as they are.
FUZZ_VALUES = [DELETE, None, True, 0, 1, -1, 2**63 - 1, 2**63, 10**400, 0.5, math.nan,
               math.inf, "", "1", "x", [], [1], {}, {"m": 1}]


def json_slots(value, path=()):
    """The path to every value inside a decoded JSON document."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from json_slots(child, path + (key,))


class TestLogsFuzz:
    """logs on damaged log bytes exits 0 or 1, never with a traceback, a
    non-finite number in its output or a hang."""

    @pytest.fixture(scope="class")
    def log_bytes(self, v2_concept):
        return dump_log(generate_log(SynthConfig(v2_concept, V2_BINDING, 3, 1.0, 0.3, 5))).encode()

    @pytest.fixture(scope="class")
    def log_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "log.json"

    def check(self, log_file, data):
        log_file.write_bytes(data)
        started = time.perf_counter()
        code, out, err = run_strict(["logs", str(log_file)])
        assert time.perf_counter() - started < FUZZ_SECONDS
        assert code in (0, 1)
        assert "Traceback" not in err
        assert not NON_FINITE.search(out)
        if code == 1:
            assert out == "" and "error: " in err
        return code

    def test_intact_log(self, log_bytes, log_file):
        assert self.check(log_file, log_bytes) == 0

    @settings(deadline=None)
    @given(st.data())
    def test_truncated(self, log_bytes, log_file, data):
        text = log_bytes.rstrip()
        assert self.check(log_file, text[: data.draw(st.integers(0, len(text) - 1))]) == 1

    @settings(deadline=None)
    @given(st.data(), st.sampled_from([b"\xff", b"\xc3", b"\xc0\xaf", b"\xed\xa0\x80"]))
    def test_not_utf8(self, log_bytes, log_file, data, bad):
        # ED A0 80 encodes a surrogate, which UTF-8 forbids.
        at = data.draw(st.integers(0, len(log_bytes)))
        assert self.check(log_file, log_bytes[:at] + bad + log_bytes[at:]) == 1

    @pytest.mark.parametrize("depth", [sys.getrecursionlimit() + 1, 100_000])
    @pytest.mark.parametrize("where", ["top", "sessions", "field"])
    def test_nested_past_the_recursion_limit(self, log_bytes, log_file, depth, where):
        nested = b"[" * depth + b"]" * depth
        if where == "top":
            data = nested
        elif where == "sessions":
            data = b'{"sessions": ' + nested + b"}"
        else:
            # after the first task's binding, inside its row
            data = log_bytes.replace(b"},", b"}," + nested + b",", 1)
        assert self.check(log_file, data) == 1

    @settings(deadline=None)
    @given(st.data())
    def test_replaced_fields(self, log_bytes, log_file, data):
        document = json.loads(log_bytes)
        for _ in range(data.draw(st.integers(1, 3))):
            slots = list(json_slots(document))
            if not slots:
                break
            path = data.draw(st.sampled_from(slots))
            value = data.draw(st.sampled_from(FUZZ_VALUES))
            holder = document
            for key in path[:-1]:
                holder = holder[key]
            if value is DELETE:
                del holder[path[-1]]
            else:
                holder[path[-1]] = copy.deepcopy(value)
        self.check(log_file, json.dumps(document).encode())


# Variable names: those the expression fuzz draws, then the other ones of
# the bundled concepts.
FUZZ_NAMES = ("a", "b", "x", "r2", "ab_1", "m", "r", "t", "d", "s", "g", "o")
# Integer and float flag values: in range, at and past the 64-bit ends,
# negative, non-finite and not numbers at all.
FUZZ_INTS = ("0", "1", "7", "3037000500", "9223372036854775807", "9223372036854775808",
             "-1", "", "x")
FUZZ_FLOATS = ("1", "1.05", "0", "-1", "0.01", "1e-300", "1e308", "nan", "inf", "-inf", "x")
# Concept text as tokens, which spell no number when joined.
CONCEPT_TOKENS = ("concept", "var", "step", "repeat", '"c"', '"s"', '"', " ", "\n", "{", "}",
                  "#", ";", ":", "T", "E", "C", "S", "X", "1", "a", "b")
OPERATORS = ("K", "M", "C", "S", "P", "R", "E", "T", "Q")
KIND_WORDS = ("Think", "Enter", "Click", "Scroll", "External", "Wait")
JSON_LEAVES = (None, True, 0, 1, -1, 0.5, 2**63 - 1, 2**63, 10**400, math.nan, math.inf,
               "", "x", "K", [])
JSON_NUMBERS = (0, 0.2, 1, 1.05, 7, 1e-300, 1e308, -1, 2**63, 10**400, math.nan, math.inf)


def json_documents(shaped):
    """Any JSON document, or one in the shape a side-file reader expects,
    with values drawn near and past its edges."""
    keys = st.sampled_from(FUZZ_NAMES + OPERATORS + KIND_WORDS + ("mean", "min", "max", "name"))
    anything = st.recursive(
        st.sampled_from(JSON_LEAVES),
        lambda kids: st.lists(kids, max_size=3) | st.dictionaries(keys, kids, max_size=4),
        max_leaves=8,
    )
    return st.one_of(anything, shaped)


SIDE_FILES = {
    "--bindings": st.dictionaries(
        st.sampled_from(FUZZ_NAMES), st.sampled_from((0, 1, 2, 7, 3037000500, 2**63 - 1)),
        min_size=len(FUZZ_NAMES) - 2,
    ),
    "--map": st.dictionaries(
        st.sampled_from(KIND_WORDS), st.lists(st.sampled_from(OPERATORS), max_size=3)
    ),
    "--model": st.dictionaries(st.sampled_from(OPERATORS), st.sampled_from(JSON_NUMBERS)),
    "--speed-file": st.fixed_dictionaries(
        {"mean": st.sampled_from(JSON_NUMBERS)},
        optional={"min": st.sampled_from(JSON_NUMBERS), "max": st.sampled_from(JSON_NUMBERS),
                  "name": st.sampled_from(JSON_LEAVES)},
    ),
}
# The flags of each command, beyond its concept file.
COMMAND_FLAGS = {
    "analyze": ("--set", "--bindings", "--formula", "--format"),
    "klm": ("--set", "--bindings", "--formula", "--map", "--model", "--is", "--format"),
    "estimate": ("--set", "--bindings", "--formula", "--speed", "--speed-file", "--speed-mean",
                 "--speed-min", "--speed-max", "--format"),
    "oracle": ("--set", "--bindings", "--format"),
    "synth": ("--set", "--bindings", "--sessions", "--speed-mean", "--speed-sd", "--seed"),
}
FLAG_VALUES = {
    "--set": st.builds("{}={}".format, st.sampled_from(FUZZ_NAMES + ("A",)),
                       st.sampled_from(FUZZ_INTS)),
    "--formula": st.one_of(st.just(""), grammar_texts(), parser_texts(),
                           st.sampled_from([V1_PUBLISHED_IS, V1_PUBLISHED_KLM])),
    "--format": st.sampled_from(("text", "json", "csv")),
    "--is": st.sampled_from(FUZZ_INTS),
    "--speed": st.sampled_from(("overall", "v1", "v2", "v3")),
    "--sessions": st.sampled_from(("1", "2", "3", "0", "-1", "x")),
    "--seed": st.sampled_from(FUZZ_INTS),
}


@st.composite
def concept_texts(draw):
    """The bundled concepts, valid generated ones, ones whose expressions
    come from the expression fuzz, and token soups."""
    kind = draw(st.sampled_from(("bundled", "generated", "built", "soup")))
    if kind == "bundled":
        return draw(st.sampled_from([Path(V1).read_text(), Path(V2).read_text()]))
    if kind == "generated":
        # A label may be printed, and must not read as a number.
        return draw(concepts().map(serialize_concept).filter(lambda t: not NON_FINITE.search(t)))
    if kind == "soup":
        return "".join(draw(st.lists(st.sampled_from(CONCEPT_TOKENS), max_size=30)))
    lines = ['concept "c"', *(f"var {name}" for name in FUZZ_NAMES[:5])]
    expressions = st.one_of(grammar_texts(), parser_texts()).map(
        lambda text: text.replace("\n", " ")
    )
    for index in range(draw(st.integers(1, 3))):
        repeat = draw(st.one_of(st.just(""), expressions.map(" repeat {}".format)))
        kinds = draw(st.lists(st.sampled_from("TECSX"), unique=True, max_size=3))
        body = "; ".join(f"{kind}: {draw(expressions)}" for kind in kinds)
        lines.append(f'step "s{index}"{repeat} {{ {body} }}')
    return "\n".join(lines) + "\n"


class TestCommandFuzz:
    """analyze, klm, estimate, oracle and synth on random argv, concept text
    and side files exit 0, 1 or 2, never with a traceback, a non-finite
    number in their output or a hang."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        return tmp_path_factory.mktemp("command-fuzz")

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    @settings(deadline=None)
    @given(data=st.data())
    def test_random_argv(self, directory, command, data):
        argv = [command]
        if command != "klm" or data.draw(st.booleans()):
            concept = directory / data.draw(st.sampled_from(("input",) * 4 + ("missing",)))
            if concept.name == "input":
                concept.write_text(data.draw(concept_texts()), encoding="utf-8")
            argv.append(str(concept))
        if command == "synth":
            # Drawn flags come later and override these; none asks for
            # more than 3 sessions.
            argv += ["--sessions", "3", "--speed-mean", "1.05", "--out", "-"]
        flags = ["--bindings"] if data.draw(st.booleans()) else []
        flags += data.draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=4))
        for flag in flags:
            if flag in SIDE_FILES:
                side_file = directory / flag.lstrip("-")
                side_file.write_text(json.dumps(data.draw(json_documents(SIDE_FILES[flag]))))
                value = str(side_file)
            else:
                value = data.draw(FLAG_VALUES.get(flag, st.sampled_from(FUZZ_FLOATS)))
            argv += [flag, value]
        started = time.perf_counter()
        code, out, err = run_strict(argv)
        assert time.perf_counter() - started < FUZZ_SECONDS
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert not NON_FINITE.search(out)
        if code:
            assert out == ""
