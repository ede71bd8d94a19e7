"""The monitoring-overhead model.

We cannot measure wall-clock perturbation from inside a simulator, so
overhead is modelled the way it physically arises:

- each sample raises a PMU interrupt whose service (register save,
  PEBS buffer drain, record copy) costs a fixed number of cycles;
- StructSlim's handler additionally performs online attribution and the
  incremental GCD update for the sample's stream;
- in multithreaded runs every interrupt also pays a scheduling/cache
  perturbation penalty: the interrupted core's pipeline drains while
  sibling threads keep running, and the profiler's per-thread buffers
  evict a slice of the private caches. This is why the paper's parallel
  benchmarks (CLOMP 16.1%, Health 18.3%) see markedly higher overhead
  than the sequential ones (2-3%).

The constants are calibrated so the seven Table 3 benchmarks reproduce
the paper's overhead band (~2-3% sequential, ~16-18% parallel, ~7%
average); they are exposed as parameters so the ablation benchmarks can
sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .._compat import fold_sum
from ..memsim.stats import RunMetrics


@dataclass(frozen=True)
class OverheadModel:
    """Cost constants for one monitored execution."""

    #: Cycles to take one PMU interrupt and drain the PEBS/IBS buffer
    #: (~3 microseconds at 2.6 GHz, in line with measured PEBS costs).
    interrupt_cycles: float = 8_000.0
    #: Cycles of online analysis per sample (attribution + GCD update).
    analysis_cycles: float = 3_500.0
    #: Extra cycles per sample per *additional* thread, covering the
    #: pipeline drain and private-cache perturbation in parallel runs.
    parallel_penalty_cycles: float = 8_500.0
    #: One-time setup cost (perf_event_open, symbol reading). Zero by
    #: default: simulated traces are seconds-of-execution equivalents,
    #: where the real milliseconds-scale setup is negligible, but our
    #: simulated cycle counts are small enough that a fixed cost would
    #: dominate them artificially.
    setup_cycles: float = 0.0

    def components(
        self, plain: RunMetrics, sample_count: float
    ) -> "Dict[str, float]":
        """Extra cycles decomposed into the three physical sources.

        ``interrupt_service`` is the PMU interrupt + buffer drain,
        ``online_analysis`` the in-handler attribution and GCD update,
        and ``collection`` everything that scales with deployment
        rather than with one sample: the parallel perturbation penalty
        and the one-time setup.  The values sum exactly to
        ``monitored_cycles - plain.cycles``, which is what makes the
        telemetry self-overhead account auditable.
        """
        collection = self.setup_cycles
        if plain.num_threads > 1:
            collection += (
                self.parallel_penalty_cycles
                * (plain.num_threads - 1)
                * sample_count
            )
        return {
            "interrupt_service": self.interrupt_cycles * sample_count,
            "online_analysis": self.analysis_cycles * sample_count,
            "collection": collection,
        }

    def monitored_cycles(self, plain: RunMetrics, sample_count: float) -> float:
        """Predicted cycles for the monitored run."""
        return plain.cycles + fold_sum(
            self.components(plain, sample_count).values()
        )

    def overhead_percent(self, plain: RunMetrics, sample_count: float) -> float:
        """Overhead of monitoring as a percentage of the plain runtime."""
        if plain.cycles <= 0:
            raise ValueError("plain run has no cycles")
        extra = self.monitored_cycles(plain, sample_count) - plain.cycles
        return 100.0 * extra / plain.cycles


@dataclass(frozen=True)
class InstrumentationModel:
    """Overhead model for the instrumentation-based comparators (§1, §3).

    Instrumentation pays per *access*, not per sample, which is why the
    reuse-distance tool is 153x and ASLOP 4.2x: ``slowdown = 1 +
    per_access_cycles * accesses / plain_cycles``.
    """

    per_access_cycles: float

    def slowdown(self, plain: RunMetrics) -> float:
        if plain.cycles <= 0:
            raise ValueError("plain run has no cycles")
        return 1.0 + self.per_access_cycles * plain.accesses / plain.cycles


#: Per-access costs for the published comparators, back-solved from the
#: slowdowns the paper quotes on memory-bound codes (~3 cycles/access
#: baseline): reuse-distance 153x, ASLOP 4.2x, bursty sampling 3-5x.
REUSE_DISTANCE_INSTRUMENTATION = InstrumentationModel(per_access_cycles=456.0)
ASLOP_INSTRUMENTATION = InstrumentationModel(per_access_cycles=9.6)
BURSTY_SAMPLING_INSTRUMENTATION = InstrumentationModel(per_access_cycles=9.0)
