"""The sampling engine: periodic selection of memory accesses.

Models how PMU address sampling behaves in practice:

- one sample every ``period`` eligible accesses, counted **per thread**
  (each hardware thread has its own PMU counters; the paper's profiler
  monitors each thread independently with no synchronization);
- the period is randomized a little after each sample, as real drivers
  do, to avoid lock-step aliasing with loop strides;
- sampling is blind to program structure: it sees (IP, address,
  latency) and nothing else.

The engine implements the :data:`repro.memsim.engine.Observer` protocol
so it plugs directly into the simulation driver.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional

from .._compat import fold_sum
from ..program.trace import MemoryAccess
from .events import AddressSample


def _randbelow(getrandbits, n: int) -> int:
    """A uniform int in ``[0, n)``, drawing exactly the bits
    ``random.Random._randbelow`` draws, so ``a + _randbelow(rng.getrandbits,
    b - a + 1)`` equals ``rng.randint(a, b)`` value for value and leaves
    the same RNG state. One frame per draw instead of randint's four.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class SamplingEngine:
    """Periodic per-thread address sampler.

    Parameters
    ----------
    period:
        Mean number of eligible accesses between samples (the paper
        uses one sample per 10,000 memory accesses).
    jitter:
        Fractional randomization of the period after each sample;
        0.1 means the next period is drawn uniformly from ±10%.
    loads_only:
        When true, stores are invisible (PEBS-LL monitors loads).
    min_latency:
        Latency threshold in cycles (PEBS-LL's ``ldlat`` filter);
        accesses faster than this are not eligible.
    seed:
        RNG seed; runs are fully deterministic for a given seed, and
        :meth:`reset` reseeds, so a rerun repeats the first run.
    """

    #: PMU model name, for overhead-provenance reporting; subclasses
    #: (PEBS-LL, IBS, ...) override.
    PMU_NAME = "generic-period"

    def __init__(
        self,
        period: int = 10_000,
        *,
        jitter: float = 0.1,
        loads_only: bool = False,
        min_latency: float = 0.0,
        seed: int = 0,
    ) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.period = period
        self.jitter = jitter
        self.loads_only = loads_only
        self.min_latency = min_latency
        self.seed = seed
        self._rng = random.Random(seed)
        self._countdown: Dict[int, int] = {}
        self.samples: List[AddressSample] = []
        self.eligible_accesses = 0
        self.total_accesses = 0
        #: Every jittered period actually drawn, for telemetry (one
        #: append per sample — negligible next to the sample itself).
        self.periods_drawn: List[int] = []

    def _next_period(self) -> int:
        """Draw, record and return the next (jittered) period: the
        per-access path's form of the draw :meth:`observe_batch`
        inlines."""
        spread = int(self.period * self.jitter)
        drawn = (
            self.period
            if spread == 0
            else self.period - spread
            + _randbelow(self._rng.getrandbits, 2 * spread + 1)
        )
        self.periods_drawn.append(drawn)
        return drawn

    def observe(self, access: MemoryAccess, latency: float) -> None:
        """Observer hook: called for every access the simulator executes."""
        self.total_accesses += 1
        if self.loads_only and access.is_write:
            return
        if latency < self.min_latency:
            return
        self.eligible_accesses += 1
        remaining = self._countdown.get(access.thread)
        if remaining is None:
            # Stagger each thread's first sample within one period so
            # threads don't fire in lock-step. The period is drawn
            # through _next_period() so the stagger respects jitter and
            # shows up in the periods_drawn telemetry like every other
            # arming of the counter.
            remaining = 1 + _randbelow(self._rng.getrandbits, self._next_period())
        remaining -= 1
        if remaining <= 0:
            self.samples.append(
                AddressSample(
                    seq=self.total_accesses - 1,
                    thread=access.thread,
                    ip=access.ip,
                    address=access.address,
                    size=access.size,
                    is_write=access.is_write,
                    latency=latency,
                    line=access.line,
                    context=access.context,
                )
            )
            remaining = self._next_period()
        self._countdown[access.thread] = remaining

    def observe_batch(self, batch, latencies: List[float]) -> None:
        """Columnar observer hook: one call per :class:`AccessBatch`.

        Advances each thread's countdown in O(samples) rather than
        O(accesses): within a batch the eligible accesses of a thread
        slot sit at arithmetically known positions, so the engine jumps
        straight from one counter-expiry to the next. RNG draws (first-
        sample stagger, post-sample re-arm) are replayed in global trace
        position order via a small per-slot event heap, which makes the
        selected samples — and every counter — bit-identical to feeding
        the expanded batch through :meth:`observe`. A slot runs ahead
        through its own expiries while they stay before every other
        slot's next event, so a one-thread batch never touches the heap
        per sample.

        Subclasses that override :meth:`observe` must override this
        hook consistently (see ``other_pmus._UnitLatencySampler``), or
        the batched engine will bypass their per-access behaviour.
        """
        K = batch.stmts_per_iter
        thread_order = batch.thread_order
        T = len(thread_order)
        rounds = batch.rounds
        n = batch.length
        if self.loads_only:
            elig = [j for j in range(K) if not batch.write_pattern[j]]
        else:
            elig = list(range(K))
        n_elig = len(elig)
        if n_elig == 0:
            self.total_accesses += n
            return
        if self.min_latency > 0.0:
            # The latency column is a list (Python walk), or the walk
            # kernel's array('d') or float64 ndarray; .min() keeps the
            # ndarray probe off the per-element Python path.
            lowest = (
                latencies.min() if hasattr(latencies, "min")
                else min(latencies)
            )
            if lowest < self.min_latency:
                # Some accesses may fail the latency filter; eligibility
                # is then data-dependent and the skip arithmetic doesn't
                # apply.
                self._observe_batch_slow(batch, latencies)
                return
        round_size = K * T
        per_slot = rounds * n_elig  # eligible accesses per thread slot
        base = self.total_accesses
        self.total_accesses = base + n
        self.eligible_accesses += per_slot * T

        # Event heap keyed by global batch position. Entries are
        # (pos, slot, eligible_index, is_first): a pending first-sample
        # stagger draw, or a pending counter expiry.
        heap = []
        for s, t in enumerate(thread_order):
            remaining = self._countdown.get(t)
            if remaining is None:
                heap.append((s * K + elig[0], s, 0, True))
            else:
                e = remaining - 1
                if e < per_slot:
                    pos = (e // n_elig) * round_size + s * K + elig[e % n_elig]
                    heap.append((pos, s, e, False))
                else:
                    # Counter outlives the batch: just count it down.
                    self._countdown[t] = remaining - per_slot
        heapq.heapify(heap)

        # _next_period's draw, inlined: one _randbelow frame per
        # jittered period.
        getrandbits = self._rng.getrandbits
        period = self.period
        spread = int(period * self.jitter)
        low, width = period - spread, 2 * spread + 1
        periods_append = self.periods_drawn.append
        samples_append = self.samples.append
        heappop, heappush = heapq.heappop, heapq.heappush
        # AddressSample(...) with its fields in order, minus the
        # namedtuple constructor's Python frame.
        new_tuple = tuple.__new__
        if type(latencies) is not list:
            # A zero-copy view: indexing it yields plain floats without
            # numpy's per-element scalar boxing.
            latencies = memoryview(latencies)
        address, ip, size = batch.address, batch.ip, batch.size
        is_write, line, context = batch.is_write, batch.line, batch.context
        while heap:
            _, s, e, is_first = heappop(heap)
            if is_first:
                drawn = period if spread == 0 else low + _randbelow(getrandbits, width)
                periods_append(drawn)
                # randint(1, drawn) - 1: the eligible index of the
                # slot's first sample.
                e = _randbelow(getrandbits, drawn)
            # Every position this slot reaches below ``limit`` is the
            # batch's next event: the slot runs ahead through its own
            # expiries without touching the heap.
            limit = heap[0][0] if heap else n
            thread = thread_order[s]
            slot_base = s * K
            while True:
                if e >= per_slot:
                    self._countdown[thread] = e - (per_slot - 1)
                    break
                pos = (e // n_elig) * round_size + slot_base + elig[e % n_elig]
                if pos > limit:
                    heappush(heap, (pos, s, e, False))
                    break
                samples_append(new_tuple(AddressSample, (
                    base + pos, thread, ip[pos], address[pos], size[pos],
                    bool(is_write[pos]), float(latencies[pos]), line[pos],
                    context[pos],
                )))
                drawn = period if spread == 0 else low + _randbelow(getrandbits, width)
                periods_append(drawn)
                e += drawn

    def _observe_batch_slow(self, batch, latencies) -> None:
        """Per-access replay for latency-filtered configurations."""
        to_list = getattr(latencies, "tolist", None)
        if to_list is not None:
            # ndarray column: replay with plain floats so captured
            # samples stay byte-identical to the scalar path's.
            latencies = to_list()
        observe = self.observe
        for access, latency in zip(batch, latencies):
            observe(access, latency)

    # -- results ------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    def samples_by_thread(self) -> Dict[int, List[AddressSample]]:
        result: Dict[int, List[AddressSample]] = {}
        for s in self.samples:
            result.setdefault(s.thread, []).append(s)
        return result

    def sampling_rate(self) -> float:
        """Achieved samples per eligible access."""
        if self.eligible_accesses == 0:
            return 0.0
        return self.sample_count / self.eligible_accesses

    def reset(self) -> None:
        """Forget every count and sample and reseed the RNG, so a rerun
        repeats a fresh engine's run exactly."""
        self._rng.seed(self.seed)
        self._countdown.clear()
        self.samples.clear()
        self.eligible_accesses = 0
        self.total_accesses = 0
        self.periods_drawn.clear()

    # -- telemetry ----------------------------------------------------------

    def export_metrics(self, registry) -> None:
        """Register sampling counters, period-jitter gauges, and the
        sample-latency histogram with a telemetry registry.

        The latency histogram is built here, at export time, from the
        already-captured samples — the hot observe() path stays
        untouched.
        """
        registry.counter(
            "repro_sampling_accesses_total",
            help="accesses seen by the sampling engine",
        ).add(self.total_accesses)
        registry.counter(
            "repro_sampling_eligible_total",
            help="accesses eligible for sampling (after load/latency filters)",
        ).add(self.eligible_accesses)
        registry.counter(
            "repro_sampling_samples_taken_total",
            help="samples actually captured",
        ).add(self.sample_count)
        registry.counter(
            "repro_sampling_dropped_total",
            help="accesses filtered out before period counting",
        ).add(self.total_accesses - self.eligible_accesses)
        registry.gauge(
            "repro_sampling_period", help="configured mean sampling period",
        ).set(self.period)
        registry.gauge(
            "repro_sampling_period_jitter_ratio",
            help="configured fractional period randomization",
        ).set(self.jitter)
        if self.periods_drawn:
            n = len(self.periods_drawn)
            mean = sum(self.periods_drawn) / n
            var = fold_sum((p - mean) ** 2 for p in self.periods_drawn) / n
            registry.gauge(
                "repro_sampling_period_observed_mean",
                help="mean of the jittered periods actually drawn",
            ).set(mean)
            registry.gauge(
                "repro_sampling_period_observed_stddev",
                help="stddev of the jittered periods actually drawn",
            ).set(var ** 0.5)
        from ..telemetry.metrics import LATENCY_BUCKETS_CYCLES

        histogram = registry.histogram(
            "repro_sampling_latency_cycles",
            LATENCY_BUCKETS_CYCLES,
            help="load-to-use latency of captured samples",
        )
        for sample in self.samples:
            histogram.observe(sample.latency)
