"""In-memory spans recorded around calls into the package's layers.

A span holds its name, an optional tag (for example the scheme variant), start
and end times from ``perf_counter``, the id of its parent span and the id of
the operation (benchmark round) it belongs to.  Spans are kept in a list and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

_NULL = nullcontext()


class NullTracer:
    """Tracer for untraced runs: every span is a shared no-op context."""

    enabled = False
    op = -1

    def span(self, name: str, tag: str = ""):
        return _NULL

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer:
    """Collects spans; nesting follows the ``with`` blocks that open them."""

    enabled = True

    def __init__(self):
        # (id, name, tag, op, parent, start, end)
        self.spans: list[tuple[int, str, str, int, int, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0
        #: id of the operation (benchmark round) that new spans belong to
        self.op = -1
        #: event counts recorded at the same boundaries as the spans
        self.counts: Counter[str] = Counter()

    def span(self, name: str, tag: str = ""):
        return _Span(self, name, tag)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def find(self, name: str, tag: str | None = None) -> list[tuple]:
        return [
            s for s in self.spans
            if s[1] == name and (tag is None or s[2] == tag)
        ]

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [s[6] - s[5] for s in self.find(name, tag)]

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it covered by its child spans.

        Children of one parent run one after another (one thread), so their
        intervals do not overlap and the covered part is the sum of their
        durations.
        """
        own = {s[0]: s[6] - s[5] for s in self.spans}
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[6] - s[5]
        return own

    def dump(self, path: Path) -> None:
        own = self.self_times()
        keys = ("id", "name", "tag", "op", "parent", "start", "end")
        records = [dict(zip(keys, s), self_s=own[s[0]]) for s in self.spans]
        path.write_text(
            json.dumps({"spans": records, "counts": dict(self.counts)}),
            encoding="utf-8",
        )


class _Span:
    __slots__ = ("tracer", "name", "tag", "op", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, tag: str):
        self.tracer = tracer
        self.name = name
        self.tag = tag
        self.op = tracer.op

    def __enter__(self):
        tracer = self.tracer
        self.id = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans.append(
            (self.id, self.name, self.tag, self.op, self.parent, self.start, end)
        )
        return False
