"""Shared runner: the full optimize() cycle over the Table 2 benchmarks.

Tables 3 and 4 are two views of the same seven runs, so the runner
executes each benchmark once and both table builders render from the
shared results.

The seven cycles are independent, so :func:`run_all` can fan them out
over a ``multiprocessing`` pool (``jobs``) and memoize them in a
content-addressed cache (``cache``) via :mod:`repro.runner`.  Each
benchmark samples with a rank-offset seed (``base_seed + rank``, the
same derivation ``profile_processes`` uses per rank), so results are a
pure function of the task list: serial, parallel, and cached runs all
agree byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.analyzer import OfflineAnalyzer
from ..core.pipeline import OptimizationResult, optimize
from ..profiler.monitor import Monitor
from ..workloads import TABLE2_WORKLOADS
from .report import Table

#: Paper values for side-by-side reporting: name -> (speedup, overhead %).
PAPER_TABLE3 = {
    "179.ART": (1.37, 2.05),
    "462.libquantum": (1.09, 2.79),
    "TSP": (1.09, 2.42),
    "Mser": (1.03, 2.95),
    "CLOMP 1.2": (1.25, 16.1),
    "Health": (1.12, 18.3),
    "NN": (1.33, 5.21),
}

#: Paper Table 4: name -> (L1, L2, L3) miss reduction percentages.
PAPER_TABLE4 = {
    "179.ART": (46.5, 51.1, 5.5),
    "462.libquantum": (49.0, 82.6, -637.9),
    "TSP": (13.3, 19.9, 30.7),
    "Mser": (8.3, 8.4, 36.7),
    "CLOMP 1.2": (15.5, 26.4, -2.3),
    "Health": (66.7, 90.8, -35.8),
    "NN": (87.2, 98.0, 9.3),
}


def run_benchmark(
    name: str,
    *,
    scale: float = 1.0,
    analyzer: Optional[OfflineAnalyzer] = None,
    seed: int = 0,
    engine: str = "batched",
) -> OptimizationResult:
    """One benchmark through the full profile->advise->split cycle."""
    workload = TABLE2_WORKLOADS[name](scale=scale)
    monitor = Monitor(
        sampling_period=workload.recommended_period, seed=seed, engine=engine
    )
    return optimize(workload, monitor=monitor, analyzer=analyzer)


def benchmark_record(result: OptimizationResult) -> Dict[str, object]:
    """An :class:`OptimizationResult` as a JSON-encodable runner record:
    exactly what the table builders and :func:`results_json` consume."""
    from ..telemetry import to_jsonable

    return to_jsonable(
        {
            "summary_row": result.summary_row(),
            "miss_reduction_percent": result.miss_reduction,
        }
    )


class BenchmarkRecord:
    """A cached/parallel benchmark result, duck-typed for the builders.

    Exposes the same ``speedup`` / ``overhead_percent`` /
    ``miss_reduction`` / ``summary_row()`` surface as
    :class:`OptimizationResult`, reconstructed from the runner record —
    no live profiles or reports cross process or cache boundaries.
    """

    def __init__(self, record: Dict[str, object]) -> None:
        self._row: Dict[str, object] = dict(record["summary_row"])
        self._miss: Dict[str, float] = dict(record["miss_reduction_percent"])

    @property
    def workload(self) -> str:
        return self._row["benchmark"]

    @property
    def speedup(self) -> float:
        return self._row["speedup"]

    @property
    def overhead_percent(self) -> float:
        return self._row["overhead_percent"]

    @property
    def miss_reduction(self) -> Dict[str, float]:
        return dict(self._miss)

    def summary_row(self) -> Dict[str, object]:
        return dict(self._row)


def run_all(
    *,
    scale: float = 1.0,
    names: Optional[List[str]] = None,
    jobs: int = 1,
    cache: Union[str, Path, None] = None,
    base_seed: int = 0,
    runner_stats=None,
    engine: str = "batched",
) -> Dict[str, object]:
    """All (or the named subset of) Table 2 benchmarks.

    Benchmark ``rank`` samples with seed ``base_seed + rank`` in every
    mode.  With ``jobs`` > 1 or a ``cache`` directory the cycles run
    through :func:`repro.runner.run_tasks` and the values are
    :class:`BenchmarkRecord`; otherwise they are full
    :class:`OptimizationResult` objects.  Both expose the surface the
    table builders use, and both produce identical rendered output.
    ``engine`` picks the trace execution mode (scalar/batched); the
    results are identical either way, so it is part of each task's
    cache key only to keep keys honest about how a record was produced.
    """
    chosen = names if names is not None else list(TABLE2_WORKLOADS)
    if jobs <= 1 and cache is None:
        return {
            name: run_benchmark(
                name, scale=scale, seed=base_seed + rank, engine=engine
            )
            for rank, name in enumerate(chosen)
        }
    from ..runner import TaskSpec, derive_seed, run_tasks

    params: Dict[str, object] = {"scale": scale, "engine": engine}
    specs = [
        TaskSpec(
            kind="optimize",
            name=name,
            params=dict(params),
            seed=derive_seed(base_seed, rank),
        )
        for rank, name in enumerate(chosen)
    ]
    records = run_tasks(specs, jobs=jobs, cache=cache, stats=runner_stats)
    return {
        name: BenchmarkRecord(record)
        for name, record in zip(chosen, records)
    }


def table3(results: Dict[str, OptimizationResult]) -> Table:
    """Table 3: speedups and measurement overhead, with paper columns."""
    table = Table(
        "Table 3: speedups after structure splitting + monitoring overhead",
        ["benchmark", "speedup", "paper speedup", "overhead %", "paper overhead %"],
        note="simulated cycles; paper values from Roy & Liu, CGO'16",
    )
    speedups: List[float] = []
    overheads: List[float] = []
    for name, result in results.items():
        p_speedup, p_overhead = PAPER_TABLE3.get(name, (float("nan"),) * 2)
        table.add_row(
            name, result.speedup, p_speedup, result.overhead_percent, p_overhead
        )
        speedups.append(result.speedup)
        overheads.append(result.overhead_percent)
    if speedups:
        table.add_row(
            "average",
            sum(speedups) / len(speedups),
            1.18,
            sum(overheads) / len(overheads),
            7.1,
        )
    return table


def results_json(results: Dict[str, OptimizationResult]) -> Dict[str, object]:
    """Machine-readable Tables 3+4: per-benchmark rows with provenance.

    Each row is ``OptimizationResult.summary_row()`` (speedup, overhead
    and its decomposition, PMU, periods) plus the per-level miss
    reductions and the paper's published numbers for comparison.
    """
    rows = []
    for name, result in results.items():
        row = result.summary_row()
        row["miss_reduction_percent"] = result.miss_reduction
        p_speedup, p_overhead = PAPER_TABLE3.get(name, (float("nan"),) * 2)
        paper_l1, paper_l2, paper_l3 = PAPER_TABLE4.get(
            name, (float("nan"),) * 3
        )
        row["paper"] = {
            "speedup": p_speedup,
            "overhead_percent": p_overhead,
            "miss_reduction_percent": {
                "L1": paper_l1,
                "L2": paper_l2,
                "L3": paper_l3,
            },
        }
        rows.append(row)
    speedups = [r.speedup for r in results.values()]
    overheads = [r.overhead_percent for r in results.values()]
    summary = {}
    if speedups:
        summary = {
            "mean_speedup": sum(speedups) / len(speedups),
            "mean_overhead_percent": sum(overheads) / len(overheads),
            "paper_mean_speedup": 1.18,
            "paper_mean_overhead_percent": 7.1,
        }
    return {"benchmarks": rows, "summary": summary}


def table4(results: Dict[str, OptimizationResult]) -> Table:
    """Table 4: per-level cache-miss reductions, with paper columns."""
    table = Table(
        "Table 4: cache-miss reduction after structure splitting",
        ["benchmark", "L1 %", "L2 %", "L3 %", "paper L1", "paper L2", "paper L3"],
        note="negative = more misses (noise on near-zero baselines)",
    )
    for name, result in results.items():
        reductions = result.miss_reduction
        paper = PAPER_TABLE4.get(name, (float("nan"),) * 3)
        table.add_row(
            name,
            reductions["L1"],
            reductions["L2"],
            reductions["L3"],
            paper[0],
            paper[1],
            paper[2],
        )
    return table
