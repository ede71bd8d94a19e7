"""The benchmark's workloads: one pass of each, and its checked outputs.

A *pass* is what one closed-loop client asks for and waits on: the
workload's program cycles run back to back in this process, with the
program's shipped defaults (batched engine, no pipeline, no trace
store, no shard workers).  Each program cycle yields a
:class:`Cycle`: the outputs the scalar reference must reproduce, plus
the work counts the metrics are built from.

Seed convention: the program at Table 2 position *r* samples with
``seed + r``, as ``repro.experiments.optimization.run_all`` does, so at
seed 0 the table2 outputs equal ``repro table3 --json``.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.analyzer import OfflineAnalyzer
from repro.core.pipeline import derive_plans, optimize
from repro.experiments.optimization import PAPER_TABLE3, results_json
from repro.memsim.stats import RunMetrics, speedup
from repro.profiler.monitor import Monitor
from repro.program.store import trace_key
from repro.workloads import TABLE2_WORKLOADS

#: Table 2 position of each program: its sampling-seed offset.
RANK = {name: rank for rank, name in enumerate(TABLE2_WORKLOADS)}

#: Sampling periods of the dense-sampling sweep.  All stay >= 11: below
#: 10 the sampler's +-10% jitter rounds to zero (``int(period * 0.1)``).
DENSE_PERIODS = (11, 13, 17, 19, 23)
DENSE_PROGRAM = "462.libquantum"


@dataclass
class Cycle:
    """One program cycle of a pass."""

    label: str
    #: JSON-encodable outputs, compared against the scalar reference.
    outputs: Dict[str, object]
    #: Simulated runs of the cycle (monitored run, then any re-run).
    runs: List[RunMetrics]
    samples: int
    streams: int
    plan_matches: bool
    overhead_percent: float
    paper_speedup: float
    paper_overhead_percent: float
    #: Simulated Table 3 speedup; None until the split has been re-run.
    speedup: Optional[float] = None
    #: The derived plans (for re-running the split outside the pass).
    plans: Dict[str, object] = field(default_factory=dict, repr=False)


def plan_key(plans) -> Dict[str, List[List[str]]]:
    """Split plans as plain data, group order kept (engines must agree
    byte for byte, so order is part of the output)."""
    return {name: [list(g) for g in plans[name].groups] for name in sorted(plans)}


def same_partition(plans, paper) -> bool:
    """Does a derived plan split the same fields together as the paper's?"""
    if set(plans) != set(paper):
        return False
    return all(
        {frozenset(g) for g in plans[k].groups}
        == {frozenset(g) for g in paper[k].groups}
        for k in plans
    )


def canonical(outputs) -> str:
    """Comparison form of a cycle's outputs (NaN-safe, key-ordered)."""
    return json.dumps(outputs, sort_keys=True)


class RerunCachingMonitor(Monitor):
    """A monitor whose unmonitored re-runs are stored by trace content.

    An unmonitored run's metrics are a pure function of its trace (the
    machine and cost model are the defaults), and the trace does not
    depend on the sampling seed.  The scalar reference uses this to
    price each split layout once per program source instead of once
    per seed.  ``directory`` must be specific to the program source.
    """

    def __init__(self, directory: Path, **kwargs) -> None:
        super().__init__(**kwargs)
        self.directory = directory

    def run_unmonitored(self, bound, *, num_threads: int = 1, config=None):
        if config is not None:
            raise ValueError("re-runs are cached for the default machine only")
        key = trace_key(bound, num_threads, mode=self.engine)
        path = self.directory / f"{key}.json"
        if path.is_file():
            return RunMetrics(**json.loads(path.read_text()))
        metrics = super().run_unmonitored(bound, num_threads=num_threads)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(asdict(metrics)))
        tmp.replace(path)
        return metrics


class Table2Cycles:
    """The full profile -> advise -> split -> re-run cycle per program."""

    def __init__(self, names: Tuple[str, ...], scale: float = 1.0) -> None:
        self.names = names
        self.scale = scale

    def programs(self):
        return [TABLE2_WORKLOADS[n](scale=self.scale) for n in self.names]

    def cycles(self, seed: int, engine: str = "batched", rerun_cache=None):
        """``(label, run)`` per program cycle of one pass, in order.
        With ``rerun_cache`` (a directory) the split re-runs go through
        :class:`RerunCachingMonitor`."""
        for name in self.names:
            yield name, functools.partial(
                self._cycle, name, seed, engine, rerun_cache
            )

    def _cycle(self, name: str, seed: int, engine: str, rerun_cache) -> Cycle:
        workload = TABLE2_WORKLOADS[name](scale=self.scale)
        settings = dict(
            sampling_period=workload.recommended_period,
            seed=seed + RANK[name],
            engine=engine,
        )
        monitor = (
            Monitor(**settings) if rerun_cache is None
            else RerunCachingMonitor(rerun_cache, **settings)
        )
        result = optimize(workload, monitor=monitor)
        outputs = results_json({name: result})["benchmarks"][0]
        outputs["plans"] = plan_key(result.plans)
        outputs["sample_count"] = result.profiled.sample_count
        paper_speedup, paper_overhead = PAPER_TABLE3[name]
        return Cycle(
            label=name,
            outputs=outputs,
            runs=[result.original, result.optimized],
            samples=result.profiled.sample_count,
            streams=len(result.profiled.merged.streams),
            plan_matches=same_partition(result.plans, workload.paper_plans()),
            overhead_percent=result.overhead_percent,
            paper_speedup=paper_speedup,
            paper_overhead_percent=paper_overhead,
            speedup=result.speedup,
            plans=result.plans,
        )


class DenseSampling:
    """Monitor + analyze + advise on one trace at several dense periods.

    The pass builds the program once and profiles it at every period;
    there is no split and no re-run inside the pass.  The Table 3
    speedup of each period's advice is priced afterwards, outside the
    timed pass, by :meth:`price_speedups`.
    """

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self._rerun: Dict[str, RunMetrics] = {}

    def programs(self):
        return [TABLE2_WORKLOADS[DENSE_PROGRAM](scale=self.scale)]

    def cycles(self, seed: int, engine: str = "batched", rerun_cache=None):
        """``(label, run)`` per sampling period of one pass, in order;
        the first run builds the program the later ones share.  (No
        re-run happens in a pass, so ``rerun_cache`` is unused.)"""
        workload = TABLE2_WORKLOADS[DENSE_PROGRAM](scale=self.scale)
        analyzer = OfflineAnalyzer()
        build = functools.cache(workload.build_original)
        for period in DENSE_PERIODS:
            label = f"{DENSE_PROGRAM}@{period}"

            def cycle(period=period, label=label) -> Cycle:
                monitor = Monitor(
                    sampling_period=period,
                    seed=seed + RANK[DENSE_PROGRAM],
                    engine=engine,
                )
                profiled = monitor.run(build(), num_threads=workload.num_threads)
                plans = derive_plans(
                    analyzer.analyze(profiled), workload.target_structs()
                )
                paper_speedup, paper_overhead = PAPER_TABLE3[DENSE_PROGRAM]
                return Cycle(
                    label=label,
                    outputs={
                        "sampling_period": period,
                        "sample_count": profiled.sample_count,
                        "cycles": profiled.metrics.cycles,
                        "overhead_percent": profiled.overhead_percent,
                        "streams": len(profiled.merged.streams),
                        "plans": plan_key(plans),
                    },
                    runs=[profiled.metrics],
                    samples=profiled.sample_count,
                    streams=len(profiled.merged.streams),
                    plan_matches=same_partition(plans, workload.paper_plans()),
                    overhead_percent=profiled.overhead_percent,
                    paper_speedup=paper_speedup,
                    paper_overhead_percent=paper_overhead,
                    plans=plans,
                )

            yield label, cycle

    def price_speedups(self, cycles: List[Cycle]) -> None:
        """Fill each cycle's Table 3 speedup by re-running its advised
        split unmonitored (once per distinct plan, outside any pass)."""
        workload = TABLE2_WORKLOADS[DENSE_PROGRAM](scale=self.scale)
        for cycle in cycles:
            key = canonical(plan_key(cycle.plans))
            if key not in self._rerun:
                self._rerun[key] = Monitor().run_unmonitored(
                    workload.build_split(cycle.plans),
                    num_threads=workload.num_threads,
                )
            cycle.speedup = speedup(cycle.runs[0], self._rerun[key])


WORKLOADS = {
    "table2-1core": lambda scale=1.0: Table2Cycles(
        ("179.ART", "462.libquantum", "TSP", "Mser"), scale
    ),
    "table2-4core": lambda scale=1.0: Table2Cycles(
        ("CLOMP 1.2", "Health", "NN"), scale
    ),
    "dense-sampling": lambda scale=1.0: DenseSampling(scale),
}
