"""In-memory spans and counters recorded around calls into cloudaudit layers.

A span has a name (`<layer>.<operation>`), start and end times, the span
open around it when it began, a job id and an optional tag (the query name
for `sparql.evaluate`).  A disabled tracer records nothing, so the same
replay code runs untraced to measure what tracing costs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("turtle", "rdf", "reasoner", "sparql", "shacl", "compliance", "openstack", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str = ""
    tag: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, job: str = "", tag: str = ""):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, parent=parent, job=job, tag=tag))
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def totals(self, key=lambda s: s.name) -> dict[str, float]:
        """Summed span durations grouped by `key`."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[key(s)] += s.end - s.start
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its direct children cover.

        Spans nest strictly and children run one after another, so the
        covered time is the sum of the children's durations.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            out[s.layer] += s.end - s.start - child_time[i]
        return out

    def to_json(self) -> dict:
        """Spans (parent is an index into the list) and counters."""
        return {"spans": [vars(s) for s in self.spans], "counts": dict(self.counts)}
