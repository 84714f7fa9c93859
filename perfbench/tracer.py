"""Spans recorded around the benchmark's own calls into the program.

Every call the benchmark makes into a layer of ixcomplex goes through a
``call(name, fn, *args)`` function.  The untraced form just calls ``fn``; the
traced form also records a span (name, start, end, parent, op id).  Spans are
kept in memory and written out when the run ends.  Nothing inside ``src/`` is
traced: a layer's time is the time of the benchmark's call into its public
function.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


def untraced(name, fn, *args, **kwargs):
    """The call used by end-to-end runs: no bookkeeping beyond the call."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name):
        return _Span(self, name)

    def next_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def by_op(self, own: bool = False) -> dict[str, dict[int, float]]:
        """Per span name and op id, the summed duration in seconds.

        With own=True, a span counts its self time: its duration minus the
        durations of its direct children, which never overlap (one caller).
        """
        children = [0.0] * len(self.spans)
        if own:
            for span in self.spans:
                if span["parent"] is not None:
                    children[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict[int, float]] = {}
        for index, span in enumerate(self.spans):
            per_op = out.setdefault(span["name"], {})
            seconds = span["end"] - span["start"] - children[index]
            per_op[span["op"]] = per_op.get(span["op"], 0.0) + seconds
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"header": header, "spans": self.spans}) + "\n", encoding="utf-8"
        )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(
            {
                "name": self.name,
                "start": 0.0,
                "end": 0.0,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "op": tracer.op_id,
            }
        )
        tracer._stack.append(self.index)
        tracer.spans[self.index]["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans[self.index]["end"] = end
        self.tracer._stack.pop()
        return False
