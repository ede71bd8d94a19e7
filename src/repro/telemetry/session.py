"""The active telemetry session: one switch for the whole pipeline.

Instrumented modules never hold a tracer or registry themselves — they
ask this module at each stage boundary:

    from .. import telemetry
    with telemetry.tracer().span("simulate", workload=name):
        ...

When no session is active (the default, and the tier-1 test
configuration) those calls resolve to :data:`~repro.telemetry.spans.
NULL_TRACER` / :data:`~repro.telemetry.metrics.NULL_REGISTRY`, whose
methods are attribute lookups that allocate nothing.  Enabling
telemetry is therefore purely additive: it cannot change any numeric
result, only record what happened (a property the integration tests
assert).

The session is process-global and intended for the CLI / experiment
harness; the simulator itself is single-threaded per run, so no
locking is needed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from .metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from .overhead import SelfOverheadAccount
from .spans import NULL_TRACER, NullTracer, Tracer


@dataclass
class TelemetrySession:
    """Everything one enabled run records."""

    tracer: Tracer
    metrics: MetricsRegistry
    overhead_accounts: List[SelfOverheadAccount] = field(default_factory=list)
    started_at: float = field(default_factory=time.time)


_active: Optional[TelemetrySession] = None


def start(
    clock: Callable[[], float] = time.perf_counter,
) -> TelemetrySession:
    """Activate a fresh session (replacing any active one)."""
    global _active
    _active = TelemetrySession(tracer=Tracer(clock), metrics=MetricsRegistry())
    return _active


def stop() -> Optional[TelemetrySession]:
    """Deactivate and return the current session, if any."""
    global _active
    session, _active = _active, None
    return session


def active() -> Optional[TelemetrySession]:
    return _active


def enabled() -> bool:
    return _active is not None


def tracer() -> Union[Tracer, NullTracer]:
    """The active tracer, or the no-op tracer when telemetry is off."""
    return _active.tracer if _active is not None else NULL_TRACER


def metrics_registry() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry, or the no-op registry when telemetry is off."""
    return _active.metrics if _active is not None else NULL_REGISTRY


def record_overhead(account: SelfOverheadAccount) -> None:
    """File a run's self-overhead account with the active session."""
    if _active is not None:
        _active.overhead_accounts.append(account)
        account.export_metrics(_active.metrics)


@contextmanager
def session(clock: Callable[[], float] = time.perf_counter):
    """``with telemetry.session() as s:`` — start, yield, always stop."""
    s = start(clock)
    try:
        yield s
    finally:
        if _active is s:
            stop()
