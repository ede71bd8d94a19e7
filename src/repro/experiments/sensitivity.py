"""Sampling-period sensitivity: how sparse can sampling get?

The paper fixes one sample per 10,000 accesses and reports it works;
this study quantifies the margin. For a given workload we sweep the
period and record, at each point, whether the derived split plan still
matches the paper's, how many unique samples the hottest stream got,
and the modelled overhead — the three-way trade Eq 4 predicts:
overhead falls linearly with the period while advice quality holds
until streams starve below ~10 unique samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..core.analyzer import OfflineAnalyzer
from ..core.pipeline import derive_plans
from ..layout.splitting import SplitPlan
from ..profiler.monitor import Monitor
from ..program.builder import BoundProgram
from ..workloads.base import PaperWorkload
from .report import Table


@dataclass
class PeriodPoint:
    """Results at one sampling period."""

    period: int
    sample_count: int
    max_stream_unique: int
    plan_matches: bool
    overhead_percent: float


def _plans_equal(a: Dict[str, SplitPlan], b: Dict[str, SplitPlan]) -> bool:
    if set(a) != set(b):
        return False
    for key in a:
        if {frozenset(g) for g in a[key].groups} != {
            frozenset(g) for g in b[key].groups
        }:
            return False
    return True


def measure_period_point(
    workload: PaperWorkload,
    period: int,
    *,
    analyzer: Optional[OfflineAnalyzer] = None,
    seed: int = 0,
    bound: Optional[BoundProgram] = None,
) -> PeriodPoint:
    """Run the full pipeline at one period and score the advice.

    Overhead is priced at the swept period itself (deployment_period
    None): the sweep's point is the cost/quality trade at *this* rate,
    not at the paper's fixed 10,000.  ``bound`` lets the serial sweep
    reuse one built program; building fresh gives identical results
    (the build is deterministic), which is what parallel workers do.
    """
    analyzer = analyzer or OfflineAnalyzer()
    bound = bound if bound is not None else workload.build_original()
    monitor = Monitor(sampling_period=period, deployment_period=None,
                      seed=seed)
    run = monitor.run(bound, num_threads=workload.num_threads)
    report = analyzer.analyze(run)
    plans = derive_plans(report, workload.target_structs())
    max_unique = max(
        (s.unique_addresses for s in run.merged.streams.values()),
        default=0,
    )
    return PeriodPoint(
        period=period,
        sample_count=run.sample_count,
        max_stream_unique=max_unique,
        plan_matches=_plans_equal(plans, workload.paper_plans()),
        overhead_percent=run.overhead_percent,
    )


def sweep_sampling_period(
    workload: PaperWorkload,
    periods: Sequence[int],
    *,
    analyzer: Optional[OfflineAnalyzer] = None,
    seed: int = 0,
    jobs: int = 1,
    cache: Union[str, Path, None] = None,
    runner_stats=None,
) -> List[PeriodPoint]:
    """Run the full pipeline once per period and score the advice.

    Every point samples with the *same* seed: the sweep compares
    periods at fixed randomness, so per-point seed offsets would
    confound the comparison.  ``jobs`` > 1 or a ``cache`` directory
    routes the points through :func:`repro.runner.run_tasks` (the
    workload must then be a named Table 2 workload, so workers can
    rebuild it from its name).
    """
    if jobs <= 1 and cache is None:
        bound = workload.build_original()
        return [
            measure_period_point(
                workload, period, analyzer=analyzer, seed=seed, bound=bound
            )
            for period in periods
        ]
    from ..runner import TaskSpec, run_tasks
    from ..workloads import TABLE2_WORKLOADS

    if workload.name not in TABLE2_WORKLOADS:
        raise ValueError(
            f"parallel/cached sweeps need a Table 2 workload name, "
            f"got {workload.name!r}"
        )
    specs = [
        TaskSpec(
            kind="sensitivity-point",
            name=workload.name,
            params={"scale": workload.scale, "period": period},
            seed=seed,
        )
        for period in periods
    ]
    records = run_tasks(specs, jobs=jobs, cache=cache, stats=runner_stats)
    return [PeriodPoint(**record) for record in records]


def sensitivity_table(workload_name: str, points: Sequence[PeriodPoint]) -> Table:
    """Render a period sweep as the sensitivity study's table."""
    table = Table(
        f"Sampling-period sensitivity: {workload_name}",
        ["period", "samples", "max stream uniques", "advice matches paper",
         "overhead %"],
        note="overhead priced at the analysis period itself here",
    )
    for p in points:
        table.add_row(
            p.period,
            p.sample_count,
            p.max_stream_unique,
            "yes" if p.plan_matches else "NO",
            p.overhead_percent,
        )
    return table


def stable_period_range(points: Sequence[PeriodPoint]) -> int:
    """The largest period at which the advice still matched the paper."""
    matching = [p.period for p in points if p.plan_matches]
    return max(matching) if matching else 0
