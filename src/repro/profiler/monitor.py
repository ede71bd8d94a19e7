"""The libmonitor-style profiling driver.

``Monitor.run`` is the reproduction's equivalent of launching a binary
under StructSlim's preloaded profiling library: it sets up sampling at
"program begin", executes the workload through the cache simulator with
the sampler attached, attributes every sample per thread, and at
"program end" merges the per-thread profiles and prices the monitoring
overhead. The returned :class:`ProfiledRun` is what the offline
analyzer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..binary.linemap import LineMap
from ..binary.loopmap import LoopMap
from ..memsim.engine import CostModel, simulate
from ..memsim.hierarchy import HierarchyConfig, MemoryHierarchy
from ..memsim.stats import RunMetrics
from ..program.builder import BoundProgram
from ..program.interp import Interpreter
from ..program.ir import Program
from ..sampling.overhead import OverheadModel
from ..sampling.pebs import PEBSLoadLatencySampler
from ..sampling.sampler import SamplingEngine
from .. import telemetry
from ..telemetry.overhead import SelfOverheadAccount
from .allocation import DataObjectRegistry
from .collector import ProfileCollector
from .merge import MergeStats, reduction_tree_merge
from .profile import ThreadProfile


@dataclass
class ProfiledRun:
    """The complete output of one monitored execution."""

    workload: str
    variant: str
    metrics: RunMetrics
    sample_count: int
    sampling_period: int
    profiles: Dict[int, ThreadProfile]
    merged: ThreadProfile
    overhead_percent: float
    monitored_cycles: float
    registry: DataObjectRegistry
    loop_map: LoopMap
    line_map: LineMap
    #: The finalized program, for structure-file emission.
    program: Optional[Program] = None
    #: Provenance: which PMU model produced the samples and at which
    #: period the overhead was priced (Table 3 self-description).
    pmu: str = ""
    deployment_period: Optional[int] = None
    #: The decomposed monitoring-overhead account; its components sum
    #: to ``overhead_percent``.
    overhead_account: Optional[SelfOverheadAccount] = None
    #: Shape of the reduction-tree merge that built ``merged``.
    merge_stats: Optional[MergeStats] = None

    @property
    def total_latency(self) -> float:
        return self.merged.total_latency


class Monitor:
    """Runs workloads under simulated PMU monitoring."""

    def __init__(
        self,
        *,
        sampling_period: int = 10_000,
        deployment_period: Optional[int] = 10_000,
        sampler_cls: type = PEBSLoadLatencySampler,
        overhead_model: Optional[OverheadModel] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        engine: str = "batched",
    ) -> None:
        """``sampling_period`` is the period the *analysis* samples at;
        simulated traces are far shorter than real executions, so it is
        usually much smaller than the paper's 10,000 to keep the
        samples-per-stream count comparable. ``deployment_period`` is
        the period overhead is *priced* at (the paper's 10,000); pass
        None to price at the analysis period instead. ``engine``
        selects the trace execution mode: ``"batched"`` (default) runs
        the columnar fast path, ``"scalar"`` the one-object-per-access
        reference path; results are identical by construction."""
        if engine not in ("scalar", "batched"):
            raise ValueError(f"unknown engine {engine!r}")
        self.sampling_period = sampling_period
        self.deployment_period = deployment_period
        self.sampler_cls = sampler_cls
        self.overhead_model = overhead_model or OverheadModel()
        self.cost_model = cost_model or CostModel()
        self.seed = seed
        self.engine = engine

    def _trace(self, interp: Interpreter):
        return interp.run_batched() if self.engine == "batched" else interp.run()

    def make_sampler(self) -> SamplingEngine:
        return self.sampler_cls(self.sampling_period, seed=self.seed)

    def run(
        self,
        bound: BoundProgram,
        *,
        num_threads: int = 1,
        num_cores: Optional[int] = None,
        config: Optional[HierarchyConfig] = None,
    ) -> ProfiledRun:
        """Execute ``bound`` under monitoring and return the profile."""
        cores = num_cores if num_cores is not None else num_threads
        hierarchy = MemoryHierarchy(config or HierarchyConfig(), cores)
        sampler = self.make_sampler()
        pmu = getattr(sampler, "PMU_NAME", type(sampler).__name__)
        tracer = telemetry.tracer()

        with tracer.span(
            "run",
            workload=bound.name,
            variant=bound.variant,
            threads=num_threads,
            sampling_period=self.sampling_period,
            pmu=pmu,
            engine=self.engine,
        ) as run_span:
            # Program-begin callback work: structure recovery and the
            # allocation registry (symbol table + interposed malloc).
            with tracer.span("interpret", workload=bound.name) as span:
                loop_map = LoopMap(bound.program)
                line_map = LineMap(bound.program)
                registry = DataObjectRegistry.from_address_space(bound.space)
                interp = Interpreter(bound, num_threads=num_threads)
                span.set(loops=len(loop_map), objects=len(registry))

            with tracer.span("simulate", workload=bound.name) as span:
                metrics = simulate(
                    self._trace(interp),
                    hierarchy=hierarchy,
                    cost=self.cost_model,
                    observer=sampler.observe,
                    name=bound.name,
                    variant=bound.variant,
                )
                span.set(accesses=metrics.accesses, cycles=metrics.cycles)

            # Price overhead at the deployment sampling period: the
            # analysis may sample densely (short simulated traces), but
            # the overhead question is "what would monitoring this
            # execution cost at the paper's one-in-10,000 rate".
            with tracer.span("sample", workload=bound.name) as span:
                if self.deployment_period:
                    priced_samples = (
                        sampler.eligible_accesses / self.deployment_period
                    )
                else:
                    priced_samples = float(sampler.sample_count)
                components = self.overhead_model.components(
                    metrics, priced_samples
                )
                monitored_cycles = metrics.cycles + sum(components.values())
                overhead = self.overhead_model.overhead_percent(
                    metrics, priced_samples
                )
                account = SelfOverheadAccount(
                    workload=bound.name,
                    variant=bound.variant,
                    pmu=pmu,
                    sampling_period=self.sampling_period,
                    deployment_period=self.deployment_period,
                    priced_samples=priced_samples,
                    num_threads=metrics.num_threads,
                    plain_cycles=metrics.cycles,
                    interrupt_service_cycles=components["interrupt_service"],
                    online_analysis_cycles=components["online_analysis"],
                    collection_cycles=components["collection"],
                )
                span.set(
                    samples=sampler.sample_count,
                    eligible=sampler.eligible_accesses,
                    priced_samples=priced_samples,
                    overhead_percent=overhead,
                )

            # Per-thread attribution (online in the real tool;
            # equivalent here).
            with tracer.span("collect", workload=bound.name) as span:
                collector = ProfileCollector(
                    registry, loop_map, program_name=bound.name
                )
                profiles = collector.collect(sampler.samples)
                if not profiles:
                    profiles = {0: ThreadProfile(thread=0, program=bound.name)}
                span.set(
                    threads=len(profiles),
                    streams=sum(len(p.streams) for p in profiles.values()),
                )

            merge_stats = MergeStats()
            with tracer.span("merge", workload=bound.name) as span:
                merged = reduction_tree_merge(
                    list(profiles.values()), stats=merge_stats
                )
                span.set(
                    leaves=merge_stats.leaves,
                    depth=merge_stats.depth,
                    fan_in=merge_stats.fan_in,
                )

            run_span.set(
                sample_count=sampler.sample_count,
                unique_addresses=sum(
                    s.unique_addresses for s in merged.streams.values()
                ),
                streams=len(merged.streams),
            )

        if telemetry.enabled():
            metrics_registry = telemetry.metrics_registry()
            hierarchy.export_metrics(metrics_registry)
            sampler.export_metrics(metrics_registry)
            collector.export_metrics(metrics_registry)
            metrics_registry.gauge(
                "repro_profiler_merge_tree_depth",
                help="levels in the reduction-tree merge",
            ).set(merge_stats.depth)
            metrics_registry.gauge(
                "repro_profiler_merge_tree_fan_in",
                help="branching factor of the reduction-tree merge",
            ).set(merge_stats.fan_in)
            telemetry.record_overhead(account)
            telemetry.publish_metric_deltas(
                metrics_registry, telemetry.events.bus(),
                workload=bound.name, variant=bound.variant,
            )

        return ProfiledRun(
            workload=bound.name,
            variant=bound.variant,
            metrics=metrics,
            sample_count=sampler.sample_count,
            sampling_period=self.sampling_period,
            profiles=profiles,
            merged=merged,
            overhead_percent=overhead,
            monitored_cycles=monitored_cycles,
            registry=registry,
            loop_map=loop_map,
            line_map=line_map,
            program=bound.program,
            pmu=pmu,
            deployment_period=self.deployment_period,
            overhead_account=account,
            merge_stats=merge_stats,
        )

    def run_unmonitored(
        self,
        bound: BoundProgram,
        *,
        num_threads: int = 1,
        num_cores: Optional[int] = None,
        config: Optional[HierarchyConfig] = None,
    ) -> RunMetrics:
        """Execute without any sampling (the baseline for overhead)."""
        cores = num_cores if num_cores is not None else num_threads
        hierarchy = MemoryHierarchy(config or HierarchyConfig(), cores)
        with telemetry.tracer().span(
            "simulate",
            workload=bound.name,
            variant=bound.variant,
            threads=num_threads,
            monitored=False,
        ) as span:
            interp = Interpreter(bound, num_threads=num_threads)
            metrics = simulate(
                self._trace(interp),
                hierarchy=hierarchy,
                cost=self.cost_model,
                name=bound.name,
                variant=bound.variant,
            )
            span.set(accesses=metrics.accesses, cycles=metrics.cycles)
        if telemetry.enabled():
            registry = telemetry.metrics_registry()
            hierarchy.export_metrics(registry)
            telemetry.publish_metric_deltas(
                registry, telemetry.events.bus(),
                workload=bound.name, variant=bound.variant,
            )
        return metrics
