"""Span tracing from outside the program.

A traced run never edits the library: it rebinds the public entry
points of each layer (module functions, class methods) to thin
wrappers that record one span per call.  A span carries its name,
start, end, parent span and request ID; spans stay in memory and are
written out once, when the run ends.

Self time is a span's duration minus the part of it that its child
spans cover, so the self times of one request's span tree sum to the
duration of its root span.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    req: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and owns the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str, req: str | None = None):
        """Open a span under the current one; returns (span, token).

        A root span without an explicit request ID takes its own span ID
        as the request ID; children inherit their parent's.
        """
        parent = _current.get()
        sid = next(self._ids)
        if req is None:
            req = parent.req if parent is not None else f"r{sid}"
        span = Span(
            sid=sid,
            parent=parent.sid if parent is not None else 0,
            name=name,
            start=time.perf_counter(),
            req=req,
        )
        return span, _current.set(span)

    def end(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _current.reset(token)
        self.spans.append(span)

    def install(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Rebind ``owner.attr`` to ``wrapper`` until :meth:`uninstall`."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if raw is None:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr, name, on_result=None, req_of=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            req = req_of(args) if req_of is not None else None
            span, token = self.begin(name, req)
            try:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                self.end(span, token)

        self.install(owner, attr, wrapper)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Record a span around each ``next()`` of a generator function."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                span, token = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(span, token)
                yield item

        self.install(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                row = [s.sid, s.parent, s.name, s.start, s.end, s.req, s.attrs]
                handle.write(json.dumps(row) + "\n")


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[s.sid] = s.duration - covered
    return result


def self_sum_errors(spans: list[Span]) -> list[float]:
    """Per root span: |sum of self times over its tree - its duration|."""
    selfs = self_times(spans)
    parent_of = {s.sid: s.parent for s in spans}
    totals: dict[int, float] = {}
    for s in spans:
        top = s.sid
        while parent_of.get(top, 0) != 0:
            top = parent_of[top]
        totals[top] = totals.get(top, 0.0) + selfs[s.sid]
    return [abs(totals[s.sid] - s.duration) for s in spans if s.parent == 0]
