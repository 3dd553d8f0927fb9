"""In-memory span tracer that wraps public functions at module attributes.

The benchmark wraps the attribute a caller actually looks up (for
example ``uavsched.pso.build_schedule``, which ``pso`` binds at import),
so nothing inside the package changes. Spans nest on one stack because
the benchmark has a single caller thread. A span's self time is its
duration minus the time its child spans cover.

Aggregates (total, self and each duration per span name, plus call and
parent-child counts) cover every traced span. Full span records are
kept only while ``keep_spans`` is set and are written out by
``write_spans``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanStats:
    __slots__ = ("total", "self", "durations")

    def __init__(self):
        self.total = 0.0
        self.self = 0.0
        self.durations: list[float] = []


class Tracer:
    """Spans for one benchmark process; install/uninstall toggle tracing."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        # deterministic counts: "<span>.calls", "<parent>><child>", and
        # whatever the observers add
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._targets: list[tuple] = []   # (module, attr, span name, observer)
        self._originals: list[tuple] = []

    def add(self, module, attr: str, name: str, observer=None):
        """Register a function to wrap; a name the module no longer has is
        recorded as missing instead of failing the run."""
        if not callable(getattr(module, attr, None)):
            self.missing.add(name)
            return
        self._targets.append((module, attr, name, observer))

    def install(self):
        for module, attr, name, observer in self._targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observer))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, observer):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if observer is not None:
                enter("trace.observe")
                try:
                    observer(self.counts, args, result)
                finally:
                    leave()
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._leave()

    def _enter(self, name: str):
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _leave(self):
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        st = self.stats[name]
        st.total += duration
        st.self += duration - child
        st.durations.append(duration)
        self.counts[name + ".calls"] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            self.counts[parent[0] + ">" + name] += 1
        if self.keep_spans:
            self.spans.append((self.op, span_id,
                               parent[3] if parent is not None else None,
                               name, start, end))

    def write_spans(self, path):
        """One JSON object per kept span: op, id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
