"""In-memory span tracer that wraps functions where callers resolve them.

A wrapped function is replaced by name on its owner (a module or class),
so every caller that looks the name up at call time goes through the
wrapper; the program's source is untouched.  Two wrapper kinds:

* span: one record per call (id, name, start, end, parent span id);
* counted: a call count and total time per (parent span, name), for
  functions called hundreds of thousands of times.

A span's self time is its duration minus its child spans and counted calls.
Times come from the tracer's ``clock``, so a clock that leaves out the
benchmark's own speed probes keeps them out of every span.
Calls to counted functions made while another counted call runs are passed
through unrecorded, so no interval is subtracted twice.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str, clock=perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.calls: dict[tuple, list] = {}  # (parent, name) -> [count, total_s]
        self.counters: dict[str, float] = {}
        self.values: dict[str, object] = {}
        self.distinct: dict[tuple, set] = {}  # (parent, name) -> keys seen
        self.scratch: dict = {}  # hook state that is not written out
        self._stack: list[int | None] = [None]
        self._in_counted = False
        self._patched: list[tuple] = []

    @property
    def parent(self) -> int | None:
        return self._stack[-1]

    def parent_name(self) -> str | None:
        sid = self._stack[-1]
        return None if sid is None else self.spans[sid][1]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_distinct(self, name: str, key) -> None:
        """Record ``key`` among the keys seen under the current span; the
        distinct total lands in counter ``<name>.distinct`` when it closes."""
        self.distinct.setdefault((self.parent, name), set()).add(key)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, name, self.clock(), None, self.parent]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            record[3] = self.clock()
            self._stack.pop()
            for key in [k for k in self.distinct if k[0] == sid]:
                self.count(f"{key[1]}.distinct", len(self.distinct.pop(key)))

    def wrap_span(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def wrap_counted(self, fn, name, after=None):
        calls, clock = self.calls, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_counted:
                return fn(*args, **kwargs)
            self._in_counted = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._in_counted = False
                entry = calls.get((self._stack[-1], name))
                if entry is None:
                    calls[(self._stack[-1], name)] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write everything recorded so far as one JSON document."""
        doc = {
            "run": self.run_id,
            "spans": self.spans,
            "calls": [[p, n, c, t] for (p, n), (c, t) in self.calls.items()],
            "counters": self.counters,
            "values": self.values,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        os.replace(tmp, path)


def self_times(trace: dict) -> dict[int, float]:
    """Self time of every span in a dumped trace."""
    children = {s[0]: 0.0 for s in trace["spans"]}
    for sid, _, start, end, parent in trace["spans"]:
        if parent is not None:
            children[parent] += end - start
    for parent, _, _, total in trace["calls"]:
        if parent is not None:
            children[parent] += total
    return {s[0]: (s[3] - s[2]) - children[s[0]] for s in trace["spans"]}
