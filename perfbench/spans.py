"""Outside-in span tracer: wraps irrcert's public names from the benchmark.

Each wrapped call records one span (name, start, end, parent) in flat arrays
that stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; children of one span never
overlap because the program is single-threaded.  Generator factories (the
``iter_*`` recurrence engines) are wrapped so that every ``next()`` is a span.

Names are looked up where the search code binds them, so the program's own
internal calls go through the wrappers.  A name that a later version no longer
has is skipped: its layer then reads zero calls.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Dict, List


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.active = False
        self._patched = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    # -- wrapping ----------------------------------------------------------

    def _function(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        return traced

    def _generator(self, name: str, factory):
        nid = self.name_id(name)
        tracer = self

        class Steps:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                if not tracer.active:
                    return next(self.inner)
                i = tracer.begin(nid)
                try:
                    return next(self.inner)
                finally:
                    tracer.finish(i)

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return Steps(factory(*args, **kwargs))

        return traced

    def patch(self, owners, attr: str, name: str, generator: bool = False) -> None:
        """Wrap ``attr`` on every owner (module or class) that has it; owners
        sharing one original get one wrapper."""
        wrappers = {}
        for owner in owners:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrap = self._generator if generator else self._function
                wrappers[id(original)] = wrap(name, original)
            setattr(owner, attr, wrappers[id(original)])
            self._patched.append((owner, attr, original))
        self.name_id(name)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total duration, self time) in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def children_of(self, parent_name: str, child_name: str) -> float:
        """Total duration of ``child_name`` spans directly under ``parent_name``."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        total = 0.0
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == cid and p >= 0 and self.name[p] == pid:
                total += self.end[i] - self.start[i]
        return total

    def count_in(self, name: str, lo: int, hi: int) -> int:
        """Spans called ``name`` among span indices [lo, hi): spans are stored
        in start order, so an operation's spans form one index range."""
        nid = self._ids.get(name)
        return sum(1 for i in range(lo, hi) if self.name[i] == nid)
