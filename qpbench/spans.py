"""Outside-in tracing: timing wrappers on the names caller modules import.

The benchmark replaces, for example, ``quadpencil.pipeline.singular_locus``
(the name ``pipeline`` calls) with a wrapper that records a span, then puts
the original back.  No source file of the program changes.  Spans stay in
memory; self times are computed after the run.
"""

from __future__ import annotations

import importlib
import threading
from time import perf_counter_ns


class Tracer:
    """Records spans (name, start, end, parent, op, counters) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        # A span opened on a pool thread belongs to the span that started
        # the pool, which is the innermost open span of the main thread.
        source = stack or self._main_stack
        parent = source[-1] if source else -1
        with self._lock:  # pool threads open spans concurrently
            idx = len(self.spans)
            self.spans.append([name, perf_counter_ns(), None, parent, self.op, None])
        stack.append(idx)
        return idx

    def end(self, idx: int, name: str | None = None, counters=None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        if name is not None:
            span[0] = name
        span[5] = counters
        self._stack().pop()

    def wrap(self, module_name: str, attr: str, name: str, describe=None,
             fail=None) -> None:
        """Replace module.attr by a spanning wrapper.

        describe(result) -> (name or None, counters or None) labels a span
        from the wrapped function's return value; fail is an exception type
        that is counted as a failure of the call and re-raised.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                failed = fail is not None and isinstance(error, fail)
                self.end(idx, None, {"failed": 1} if failed else None)
                raise
            label, counters = describe(result) if describe else (None, None)
            self.end(idx, label, counters)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self, plan) -> None:
        for entry in plan:
            self.wrap(*entry)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[list], members: list[int]) -> dict[int, float]:
    """Self time in ns of each span of one op (`members`, root first).

    A span's self time is its duration minus the part covered by its
    children.  Where children overlap (pool threads), each instant is
    split evenly among the innermost spans open at it, so the self times
    add up to exactly the root's duration.
    """
    events = []
    for idx in members:
        events.append((spans[idx][1], 1, idx))
        events.append((spans[idx][2], -1, idx))
    events.sort()
    open_children = {idx: 0 for idx in members}
    active: set[int] = set()
    self_ns = {idx: 0.0 for idx in members}
    last = events[0][0]
    for time, kind, idx in events:
        if time > last and active:
            leaves = [s for s in active if open_children[s] == 0]
            share = (time - last) / len(leaves)
            for s in leaves:
                self_ns[s] += share
        last = time
        parent = spans[idx][3]
        if kind == 1:
            active.add(idx)
            if parent in open_children:
                open_children[parent] += 1
        else:
            active.discard(idx)
            if parent in open_children:
                open_children[parent] -= 1
    return self_ns
