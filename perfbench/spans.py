"""In-memory spans around the package's layer functions.

The tracer wraps functions by name in the modules that call them, so the
package itself is not edited.  Every span records its name, start, end,
parent span, thread and entry-call id.  A span opened on a thread that has
no open span of its own (a pool worker) takes the current entry-call span
as its parent, so work handed to a thread pool stays attached to the call
that submitted it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

ENTRY = "harness.entry"
TASK = "harness.task"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._root: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        error = False
        start = time.perf_counter()
        try:
            yield sid
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), self.run, error))

    @contextmanager
    def entry(self):
        """Root span of one entry call; spans on other threads attach to it."""
        self.run += 1
        with self.span(ENTRY) as sid:
            self._root = sid
            try:
                yield sid
            finally:
                self._root = None

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def pool_class(self, base):
        """Subclass of an executor whose submitted callables run in TASK spans."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.wrap(fn, TASK), *args, **kwargs)

        return TracedPool


def install(tracer: Tracer, targets):
    """Replace each (owner, attribute, span name) target with a traced version.

    Returns (restore, missing): ``restore()`` puts the originals back, and
    ``missing`` holds the span names whose attribute no longer exists, which
    the coverage guard reports as unmeasured.
    """
    saved = []
    missing = set()
    for owner, attr, name in targets:
        if not hasattr(owner, attr):
            missing.add(name)
            continue
        original = getattr(owner, attr)
        traced = tracer.pool_class(original) if name == TASK else tracer.wrap(original, name)
        setattr(owner, attr, traced)
        saved.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore, missing


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Children may run on several threads and overlap; the covered part is the
    union of their intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in children[s.id]
                               if c.end > s.start and c.start < s.end)
        out[s.id] = s.duration - covered
    return out
