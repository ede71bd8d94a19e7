"""Task specs, the task-kind registry, and deterministic seeds.

A :class:`TaskSpec` is one self-contained, picklable unit of experiment
work: *which* computation (``kind``), *on what* (``name``), *how*
(``params``), and *with which RNG seed* (``seed``).  Workers receive
only the spec — never live objects — so any process can execute any
task, and the spec's canonical JSON form doubles as the cache key
material.

Executors are plain functions ``spec -> record`` registered per kind.
Records must be JSON-encodable (they are passed through
:func:`repro.telemetry.to_jsonable` on the way out), because they are
what the result cache stores and what warm runs hand back verbatim.

Seeds follow the same rank-offset derivation
:func:`repro.profiler.multiprocess.profile_processes` uses for MPI-style
ranks: ``seed = base_seed + rank``, where ``rank`` is the task's index
in the deterministic task list.  The derivation depends only on the
list, never on scheduling, so parallel runs reproduce serial runs
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


@dataclass(frozen=True)
class TaskSpec:
    """One unit of experiment work, fully described by plain data."""

    kind: str
    name: str
    params: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    def describe(self) -> Dict[str, object]:
        """The spec as a JSON-encodable dict (cache-key material)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "params": dict(self.params),
            "seed": self.seed,
        }


def derive_seed(base_seed: int, rank: int) -> int:
    """Rank-offset seed, as ``profile_processes`` derives per-rank seeds.

    Deterministic in the task list alone: task ``rank`` always samples
    with ``base_seed + rank`` no matter how many workers run or in what
    order they finish.
    """
    return base_seed + rank


TaskExecutor = Callable[[TaskSpec], object]

_EXECUTORS: Dict[str, TaskExecutor] = {}


def register_task_kind(kind: str, executor: TaskExecutor) -> None:
    """Register (or replace) the executor for a task kind.

    Workers resolve kinds from this module, so built-in kinds work
    under any ``multiprocessing`` start method; custom kinds registered
    at runtime are visible to forked workers only.
    """
    _EXECUTORS[kind] = executor


def execute_task(spec: TaskSpec) -> object:
    """Run one task and return its JSON-encodable record."""
    from ..telemetry import to_jsonable

    executor = _EXECUTORS.get(spec.kind)
    if executor is None:
        known = ", ".join(sorted(_EXECUTORS)) or "none"
        raise ValueError(f"unknown task kind {spec.kind!r} (registered: {known})")
    return to_jsonable(executor(spec))


# -- built-in task kinds ---------------------------------------------------
#
# Executors import lazily so importing repro.runner stays cheap and free
# of import cycles; they are module-level functions, so specs stay
# picklable under both fork and spawn.


def _optimize_task(spec: TaskSpec) -> object:
    """One Table 3 optimization cycle, summarized for the table builders."""
    from ..experiments.optimization import benchmark_record, run_benchmark

    result = run_benchmark(
        spec.name,
        scale=float(spec.params.get("scale", 1.0)),
        seed=spec.seed,
        engine=str(spec.params.get("engine", "batched")),
    )
    return benchmark_record(result)


def _optimize_report_task(spec: TaskSpec) -> object:
    """The full ``repro optimize`` cycle, rendered for the CLI."""
    from ..core.pipeline import optimize
    from ..profiler.monitor import Monitor
    from ..workloads import TABLE2_WORKLOADS

    workload = TABLE2_WORKLOADS[spec.name](
        scale=float(spec.params.get("scale", 1.0))
    )
    period = spec.params.get("period")
    if period is None:
        period = workload.recommended_period
    monitor = Monitor(
        sampling_period=int(period),
        seed=spec.seed,
        engine=str(spec.params.get("engine", "batched")),
    )
    result = optimize(workload, monitor=monitor)
    return {
        "report": result.report.render(),
        "advice": [plan.describe() for plan in result.plans.values()],
        "speedup": result.speedup,
        "summary_row": result.summary_row(),
    }


def _kernel_overhead_task(spec: TaskSpec) -> object:
    """Monitoring overhead of one suite kernel (Figures 4/5)."""
    from ..experiments.overhead_suite import kernel_overhead
    from ..workloads.suites import suite_by_name

    kernels = {k.name: k for k in suite_by_name(str(spec.params["suite"]))}
    overhead = kernel_overhead(
        kernels[spec.name],
        sampling_period=int(spec.params.get("sampling_period", 499)),
        seed=spec.seed,
    )
    return {"overhead_percent": overhead}


def _sensitivity_point_task(spec: TaskSpec) -> object:
    """One point of the sampling-period sensitivity sweep."""
    import dataclasses

    from ..experiments.sensitivity import measure_period_point
    from ..workloads import TABLE2_WORKLOADS

    workload = TABLE2_WORKLOADS[spec.name](
        scale=float(spec.params.get("scale", 1.0))
    )
    point = measure_period_point(
        workload, int(spec.params["period"]), seed=spec.seed
    )
    return dataclasses.asdict(point)


register_task_kind("optimize", _optimize_task)
register_task_kind("optimize-report", _optimize_report_task)
register_task_kind("kernel-overhead", _kernel_overhead_task)
register_task_kind("sensitivity-point", _sensitivity_point_task)
