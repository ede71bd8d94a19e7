"""Nested, timed spans: the tracing half of ``repro.telemetry``.

A :class:`Tracer` records a tree of :class:`Span` objects, one per
pipeline stage (``run``, ``interpret``, ``simulate``, ``sample``,
``collect``, ``merge``, ``analyze``, ``cluster``, ``advise``,
``split``, ``re-run``).  Spans carry structured attributes — workload,
thread count, sample count, stream/cluster counts — so a trace answers
"where did the analysis time go" without re-running anything.

When telemetry is disabled the instrumented code paths receive
:data:`NULL_TRACER`, whose ``span()`` returns a reusable no-op context
manager: no allocation, no clock reads, no measurable cost.  That is
the property that lets the tier-1 pipeline stay instrumented
permanently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed, attributed pipeline stage."""

    name: str
    start: float
    end: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end if self.end is not None else self.start) - self.start

    def set(self, **attributes: object) -> "Span":
        """Attach or update attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree, if any."""
        for span in self.walk():
            if span.name == name:
                return span
        return None


class _SpanContext:
    """Context manager that closes ``span`` on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self.span)
        return False


class Tracer:
    """Records a forest of nested spans.

    ``clock`` defaults to :func:`time.perf_counter`; tests inject a
    deterministic fake so span timings (and the Chrome-trace golden
    file) are reproducible.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a child of the current span (or a new root)."""
        span = Span(name=name, start=self._clock(), attributes=dict(attributes))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        # Pop through abandoned inner spans too, so an exception inside
        # a stage cannot corrupt the nesting of later stages.
        while self._stack:
            if self._stack.pop() is span:
                break

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: object) -> None:
        """Attach attributes to the innermost open span (no-op at root)."""
        if self._stack:
            self._stack[-1].set(**attributes)

    def all_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across roots."""
        for root in self.roots:
            yield from root.walk()

    def span_names(self) -> List[str]:
        return [span.name for span in self.all_spans()]


class _NullSpan:
    """Inert span handed out by the disabled tracer."""

    __slots__ = ()
    name = ""
    attributes: Dict[str, object] = {}
    children: List[Span] = []
    duration = 0.0

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())

    def find(self, name: str) -> None:
        return None


NULL_SPAN = _NullSpan()


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The zero-cost stand-in used when telemetry is off."""

    enabled = False
    roots: List[Span] = []

    def span(self, name: str, **attributes: object) -> _NullContext:
        return _NULL_CONTEXT

    def current(self) -> None:
        return None

    def annotate(self, **attributes: object) -> None:
        pass

    def all_spans(self):
        return iter(())

    def span_names(self) -> List[str]:
        return []


NULL_TRACER = NullTracer()
