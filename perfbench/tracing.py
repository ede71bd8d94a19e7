"""Benchmark-side layer tracing: spans around each layer's public entry point.

The program under test carries no instrumentation of its own for this
benchmark.  :func:`installed` swaps a timing wrapper onto each layer's
public entry point for the duration of one traced pass and restores the
originals afterwards, so an untraced pass runs the shipped code as is.

Spans nest on a stack.  A span's *self time* is its duration minus the
durations of the spans opened inside it; the root span (the whole pass)
keeps whatever no layer claimed, which is reported as ``unattributed``.
Self times therefore sum to the root span's duration by construction,
and :meth:`LayerTrace.layer_sum_error` checks that they do.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List

#: Span name -> per-layer metric name (``<name>_s`` is the self time).
WALK = "memsim.walk"
ENGINE = "memsim.engine_self"
INTERPRET = "program.interpret"
OBSERVE = "sampling.observe"
COLLECT = "profiler.collect"
ANALYZE = "core.analyze"
SPLIT = "layout.split"
ROOT = "unattributed"

LAYERS = (WALK, ENGINE, INTERPRET, OBSERVE, COLLECT, ANALYZE, SPLIT)


class LayerTrace:
    """Self time per layer, plus the objects the wrappers saw."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS + (ROOT,)}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS + (ROOT,)}
        self.wall_s = 0.0
        #: Hierarchies and samplers the pass used, for their counters.
        self.hierarchies: List[object] = []
        self.samplers: List[object] = []
        # Open spans: [name, start, time covered by child spans].
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.wall_s += duration

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The pass itself: the span every layer span nests inside."""
        self.enter(ROOT)
        try:
            yield
        finally:
            self.exit()
        if self._stack:
            raise RuntimeError(f"spans left open: {self._stack}")

    def layer_sum_error(self) -> float:
        """|sum of self times (layers + unattributed) - traced wall|."""
        return abs(sum(self.self_s.values()) - self.wall_s)


def _spanned(trace: LayerTrace, name: str, fn: Callable, seen=None) -> Callable:
    """Span around ``fn``; ``seen`` collects each distinct first argument
    (the ``self`` of a wrapped method)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if seen is not None and all(obj is not args[0] for obj in seen):
            seen.append(args[0])
        trace.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            trace.exit()

    return wrapper


def _spanned_iterator(trace: LayerTrace, fn: Callable) -> Callable:
    """Time every ``next()`` on the iterator ``fn`` returns: the
    interpreter produces the trace lazily, inside the simulate loop."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        items = fn(self, *args, **kwargs)
        while True:
            trace.enter(INTERPRET)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                trace.exit()
            yield item

    return wrapper


@contextlib.contextmanager
def installed(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Wrap each layer's entry point for the duration of the block.

    The wrappers are set on the classes (and on the module name the
    monitor calls ``simulate`` through), so they wrap whatever is there
    at entry — which lets a test put a fixed delay *inside* a span.
    """
    from repro.core.analyzer import OfflineAnalyzer
    from repro.memsim.hierarchy import MemoryHierarchy
    from repro.profiler import monitor
    from repro.profiler.collector import ProfileCollector
    from repro.program.interp import Interpreter
    from repro.sampling.sampler import SamplingEngine
    from repro.workloads.base import PaperWorkload

    targets = [
        (MemoryHierarchy, "access_batch",
         lambda f: _spanned(trace, WALK, f, trace.hierarchies)),
        (monitor, "simulate", lambda f: _spanned(trace, ENGINE, f)),
        (Interpreter, "run_batched", lambda f: _spanned_iterator(trace, f)),
        (SamplingEngine, "observe_batch",
         lambda f: _spanned(trace, OBSERVE, f, trace.samplers)),
        (ProfileCollector, "collect", lambda f: _spanned(trace, COLLECT, f)),
        (OfflineAnalyzer, "analyze", lambda f: _spanned(trace, ANALYZE, f)),
        (PaperWorkload, "build_split", lambda f: _spanned(trace, SPLIT, f)),
    ]
    saved = []
    try:
        for owner, attr, wrap in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

