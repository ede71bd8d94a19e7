"""The executor: cache lookups, the worker pool, telemetry plumbing.

:func:`run_tasks` takes an ordered list of :class:`TaskSpec` and
returns their records in the same order, regardless of how the work was
satisfied — cache hit, inline execution, or a ``multiprocessing``
worker.  Determinism comes from the specs themselves (each carries its
derived seed), so ``jobs=8`` reproduces ``jobs=1`` bit for bit.

When the parent has a telemetry session active, each worker runs under
a private session of its own; the worker ships the captured spans,
instruments, and overhead accounts back alongside the record, and the
parent absorbs them *in task order* — so exported telemetry from a
parallel run matches a serial run of the same tasks.  Cache hits
execute nothing and record only a ``cache-hit`` span.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .. import telemetry
from .._compat import effective_cpu_count
from ..telemetry.merge import SessionPayload, absorb_payload, capture_session
from .cache import ResultCache, as_cache
from .tasks import TaskSpec, execute_task


@dataclass
class RunnerStats:
    """What one (or several accumulated) ``run_tasks`` calls did.

    Passed in by callers that want the numbers, like
    :class:`~repro.profiler.merge.MergeStats` — the records themselves
    are unaffected.
    """

    tasks: int = 0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0

    def describe(self) -> str:
        return (
            f"runner: tasks={self.tasks} jobs={self.jobs} "
            f"hits={self.cache_hits} misses={self.cache_misses} "
            f"executed={self.executed}"
        )


def _worker(payload: Tuple[TaskSpec, bool]):
    """Execute one task in a worker process.

    Starts a fresh telemetry session when the parent asked for capture
    (replacing any session inherited through fork), and returns the
    record plus the captured session payload.
    """
    spec, capture = payload
    session = telemetry.start() if capture else None
    try:
        record = execute_task(spec)
        captured = capture_session(session) if session is not None else None
    finally:
        if session is not None:
            telemetry.stop()
    return record, captured


def run_tasks(
    specs: Sequence[TaskSpec],
    *,
    jobs: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    stats: Optional[RunnerStats] = None,
) -> List[object]:
    """Run ``specs`` and return their records, in spec order.

    ``jobs`` caps the worker-pool size (1 = execute inline; 0 or a
    negative value = one worker per effective CPU, honoring affinity
    limits).  ``cache`` (a directory or :class:`ResultCache`)
    short-circuits tasks whose content address already has a stored
    record; only misses execute.  ``stats``, when given, accumulates
    hit/miss/execution counts.
    """
    if jobs <= 0:
        jobs = effective_cpu_count()
    store = as_cache(cache)
    if stats is not None:
        stats.tasks += len(specs)
        stats.jobs = max(1, jobs)

    records: List[Optional[object]] = [None] * len(specs)
    pending: List[int] = []
    tracer = telemetry.tracer()
    for index, spec in enumerate(specs):
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            records[index] = cached
            with tracer.span("cache-hit", kind=spec.kind, task=spec.name):
                pass
        else:
            pending.append(index)

    if stats is not None and store is not None:
        stats.cache_hits += len(specs) - len(pending)
        stats.cache_misses += len(pending)
    if stats is not None:
        stats.executed += len(pending)

    if pending:
        if jobs > 1 and len(pending) > 1:
            capture = telemetry.enabled()
            context = multiprocessing.get_context()
            with context.Pool(min(jobs, len(pending))) as pool:
                results = pool.map(
                    _worker, [(specs[i], capture) for i in pending]
                )
            session = telemetry.active()
            for index, (record, captured) in zip(pending, results):
                records[index] = record
                if captured is not None and session is not None:
                    absorb_payload(session, captured)
        else:
            for index in pending:
                records[index] = execute_task(specs[index])
        if store is not None:
            for index in pending:
                store.put(specs[index], records[index])
    return records
