"""Spans and counters recorded around the benchmark's calls into confgroups.

A span is named ``<module>.<public function>`` (``bench.op`` for a whole
query).  Spans are kept in memory and written out when the pass ends.
Untraced passes use ``NULL``, whose span and counter calls do nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, amount: int) -> None:
        pass


NULL = NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def totals(self) -> dict[str, float]:
        """Per-span-name calls and busy time, per-module self time, and counters.

        Spans of one pass are strictly nested, so a span's self time is its
        duration minus the durations of its direct children.
        """
        out: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name.split('.')[0]}.self_s"] += end - start - inner
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(fields, rec))) + "\n")
