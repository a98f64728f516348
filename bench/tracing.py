"""Call recorders for one pass of a workload.

Both recorders expose `call(name, fn, *args, **kwargs)`, which runs one
public function of the package, and `wrap(name, fn)`, which returns a
callable for the package to call back (an input schedule). Names are
`<layer>.<function>`, with the layer named after the package module.

`Timer` is tracing off: it sums the time of each call by name and adds
nothing else, so end-to-end metrics come from passes that use it.
`Tracer` is tracing on: every call becomes a span with its parent, kept
in memory and written out when the run ends.

Both run the optional `between` callback after each top-level call
returns, outside the call's timed interval; the runner uses it to sample
the host's speed during a pass.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


def maxrss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _nothing() -> None:
    pass


class Timer:
    """Tracing off: inclusive seconds per call name."""

    def __init__(self, between=_nothing) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.between = between

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.totals[name] += time.perf_counter() - start
        self.between()
        return result

    def wrap(self, name, fn):
        return fn


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    pass_no: int
    rss_growth_mb: float


class Tracer:
    """Tracing on: one span per call, nested by the call stack.

    Spans of every pass go to the shared `spans` list; a span's parent is
    the index of the enclosing span in that list. `rss_growth_mb` is the
    rise of the process's peak resident memory across the call, so it is
    non-zero only for calls that set a new peak.
    """

    def __init__(self, spans: list[Span], workload: str, pass_no: int,
                 between=_nothing) -> None:
        self.spans = spans
        self.workload = workload
        self.pass_no = pass_no
        self.between = between
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.workload, self.pass_no, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        rss_before = maxrss_mb()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.rss_growth_mb = maxrss_mb() - rss_before
            self._stack.pop()
            self.totals[name] += span.end - span.start
        if len(self._stack) == 1:
            self.between()
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def self_times(spans: list[Span], pass_no: int) -> dict[str, float]:
    """Self seconds per span name in one pass: each span's duration minus
    the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if span.pass_no == pass_no:
            out[span.name] += span.end - span.start - child_time[i]
    return out


def span_records(spans: list[Span]) -> list[dict]:
    return [asdict(span) for span in spans]
