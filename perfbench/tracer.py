"""Span recorder that instruments a program from outside.

A `Tracer` replaces module attributes with wrappers that record one span per
call: name, start, end, parent span and the op the call belongs to.  The
program under test looks its collaborators up as module attributes at call
time (`tc.conv2d_forward`, `unet.forward`, `data.sample_at`, ...), so a
wrapper installed on the module is seen by every caller in this process.
Spans stay in memory until the run ends; `restore()` (or leaving the `with`
block) puts every original attribute back, so a traced run cannot leak into
a plain run in the same process.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: int          # clock ticks (perf_counter_ns by default)
    end: int
    parent: int | None
    op: int | None      # all spans of one op share this id
    attrs: dict | None


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_sid = 0
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- span bookkeeping ---------------------------------------------------

    def _begin(self) -> tuple[int, int | None, int | None]:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else None
        return sid, parent, self._op

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        sid, parent, op = self._begin()
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, op, attrs))

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; nested spans inherit `op_id`."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    # -- instrumentation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             attrs: Callable | None = None) -> None:
        """Record a span around every call of `owner.attr`.

        `attrs(args, kwargs, result)` may return a dict stored on the span;
        it runs after the span's end time is taken.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid, parent, op = self._begin()
            self._stack.append(sid)
            start = self.clock()
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(
                    sid, name, start, end, parent, op,
                    attrs(args, kwargs, result) if attrs else None))

        self._patch(owner, attr, wrapper)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Record one span over the whole iteration of a generator function.

        The span opens at the first item request and closes at exhaustion
        (or when the consumer drops the iterator), so it times the work the
        generator does, not just the call that creates it.  Consumer code
        between items counts as the span's self time.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid, parent, op = self._begin()
            start = self.clock()
            inner = orig(*args, **kwargs)
            try:
                while True:
                    self._stack.append(sid)   # parent of spans made inside
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._stack.pop()
                    yield item
            finally:
                self.spans.append(Span(sid, name, start, self.clock(),
                                       parent, op, None))

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` without recording spans."""
        orig = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, last patch first."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict(), default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another on one thread, so their
    durations add without overlap.
    """
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.sid: s.end - s.start - covered[s.sid] for s in spans}


def ancestors(spans: list[Span]) -> Callable[[Span], list[str]]:
    """A function giving the names of a span's ancestors, nearest first."""
    by_id = {s.sid: s for s in spans}

    def chain(span: Span) -> list[str]:
        out = []
        parent = span.parent
        while parent is not None and parent in by_id:
            p = by_id[parent]
            out.append(p.name)
            parent = p.parent
        return out

    return chain
