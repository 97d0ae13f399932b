"""In-memory spans around the benchmark's own calls into the program.

A span records its name, start, end, parent span and op id; it is kept in
memory and written out when the run ends.  ``NULL`` has the same
interface and records nothing, so untraced runs pay only for entering an
empty context manager.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else -1
        # name, start, end, parent, op, failed
        self.rec = [self.name, 0.0, 0.0, parent, tr.op, False]
        tr.stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = perf_counter()
        return self.rec

    def __exit__(self, exc_type, exc, tb):
        self.rec[2] = perf_counter()
        self.tracer.stack.pop()
        if exc_type is not None:
            self.rec[5] = True
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.op = None

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def mark_failed(self, op, name):
        """Flag the spans called ``name`` in ``op`` as having a wrong result."""
        for rec in self.spans:
            if rec[4] == op and rec[0] == name:
                rec[5] = True

    def layer_stats(self):
        """{name: (calls, busy_s, p50_s, failed)}; busy is self time."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        groups = {}
        for k, rec in enumerate(self.spans):
            g = groups.setdefault(rec[0], ([], [0.0], [0]))
            g[0].append(rec[2] - rec[1])
            g[1][0] += rec[2] - rec[1] - child[k]
            g[2][0] += rec[5]
        return {
            name: (len(d), busy[0], statistics.median(d), failed[0])
            for name, (d, busy, failed) in groups.items()
        }

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, failed in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "failed": failed,
                }) + "\n")


class _NullSpan:
    __slots__ = ()
    _rec = [None, 0.0, 0.0, -1, None, False]

    def __enter__(self):
        return self._rec

    def __exit__(self, exc_type, exc, tb):
        return False


class _NullTracer:
    op = None
    _span = _NullSpan()

    def span(self, name):
        return self._span

    def count(self, name, n=1):
        pass

    def mark_failed(self, op, name):
        pass


NULL = _NullTracer()
