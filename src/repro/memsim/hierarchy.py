"""The three-level memory hierarchy of the paper's evaluation machine.

Defaults model one socket of the Intel Xeon E5-4650L testbed (§6):
private 32KB L1-D and 256KB L2 per core, a 20MB shared L3, and DRAM
behind it. ``access`` returns the load-to-use latency in cycles — the
quantity PEBS-LL reports per sampled load and the currency of every
StructSlim metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import kernel
from .cache import SetAssociativeCache
from .coherence import MESIDirectory
from .prefetch import StreamPrefetcher
from .tlb import DataTLB, TLBConfig


@dataclass(frozen=True)
class LevelConfig:
    """Geometry and hit latency for one cache level."""

    size_bytes: int
    ways: int
    latency: float


@dataclass(frozen=True)
class HierarchyConfig:
    """Full machine description. Latencies are cycles to *service* at
    that level (already including the lookup path below it)."""

    line_size: int = 64
    l1: LevelConfig = LevelConfig(32 * 1024, 8, 4.0)
    l2: LevelConfig = LevelConfig(256 * 1024, 8, 12.0)
    l3: LevelConfig = LevelConfig(20 * 1024 * 1024, 20, 42.0)
    dram_latency: float = 220.0
    #: The L2 streamer is modelled but off by default: without a
    #: timeliness model an always-on-time prefetcher erases the L2 miss
    #: signal the paper's Table 4 reports. The prefetch ablation bench
    #: turns it on explicitly.
    prefetch_degree: int = 0
    coherence: bool = True
    #: Optional per-core data TLB (see memsim.tlb); None keeps the
    #: Table 3/4 calibration purely cache-driven.
    tlb: Optional["TLBConfig"] = None
    #: Replacement policy for every level: "lru" (default), "fifo",
    #: or "random" (see the policy ablation benchmark).
    replacement: str = "lru"

    @classmethod
    def xeon_e5_4650l(cls, num_cores: int = 4) -> "HierarchyConfig":
        """The paper's testbed (shared-L3 slice scaled to one socket)."""
        del num_cores  # geometry is per-socket; cores set on the hierarchy
        return cls()

    @classmethod
    def small(cls) -> "HierarchyConfig":
        """A scaled-down hierarchy for fast unit tests: 1KB/8KB/64KB."""
        return cls(
            l1=LevelConfig(1024, 2, 4.0),
            l2=LevelConfig(8 * 1024, 4, 12.0),
            l3=LevelConfig(64 * 1024, 8, 42.0),
            prefetch_degree=0,
        )


class _Core:
    """Private per-core state: L1, L2, and the L2 stream prefetcher."""

    def __init__(self, core_id: int, config: HierarchyConfig) -> None:
        self.id = core_id
        self.l1 = SetAssociativeCache(
            f"L1#{core_id}", config.l1.size_bytes, config.l1.ways,
            config.line_size, policy=config.replacement, seed=2 * core_id,
        )
        self.l2 = SetAssociativeCache(
            f"L2#{core_id}", config.l2.size_bytes, config.l2.ways,
            config.line_size, policy=config.replacement, seed=2 * core_id + 1,
        )
        self.prefetcher = StreamPrefetcher(degree=config.prefetch_degree)
        self.dtlb = DataTLB(config.tlb) if config.tlb is not None else None
        # Prefetched-but-not-yet-demanded lines, for the issued/useful
        # accounting telemetry exports. Bounded by the prefetcher's
        # issue count; entries leave on first demand hit or eviction.
        self.prefetched: Set[int] = set()
        self.prefetch_useful = 0


class MemoryHierarchy:
    """Private L1/L2 per core, shared L3, simple invalidate-on-write
    coherence between the private caches."""

    def __init__(self, config: Optional[HierarchyConfig] = None, num_cores: int = 1):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.config = config or HierarchyConfig()
        self.num_cores = num_cores
        self._line_bits = self.config.line_size.bit_length() - 1
        self.cores = [_Core(c, self.config) for c in range(num_cores)]
        self.l3 = SetAssociativeCache(
            "L3",
            self.config.l3.size_bytes,
            self.config.l3.ways,
            self.config.line_size,
            policy=self.config.replacement,
            seed=997,
        )
        self._dram_accesses = 0
        # MESI directory, kept only when coherence is on and there is
        # more than one core. The directory is slightly conservative:
        # silent LRU evictions from private caches are not reported, so
        # it may believe a copy exists that is already gone (like a real
        # imprecise snoop filter); the resulting invalidations are
        # no-ops on the SRAM side.
        self._track_sharing = self.config.coherence and num_cores > 1
        self.directory: Optional[MESIDirectory] = (
            MESIDirectory() if self._track_sharing else None
        )
        # The compiled walk, attached by access_batch (see its promotion
        # rule); None while the Python walk owns the state.
        self._kernel: Optional[kernel.KernelWalk] = None
        self._kernel_tried = False

    # -- main access path ------------------------------------------------

    def access(self, core_id: int, address: int, size: int, is_write: bool) -> float:
        """Perform one access; returns its load-to-use latency in cycles."""
        if self._kernel is not None:
            return self._kernel.access(core_id, address, size, is_write)
        first = address >> self._line_bits
        last = (address + size - 1) >> self._line_bits
        latency = self._access_line(core_id, first, is_write)
        if last != first:
            # A split access touches the next line too; the observed
            # latency is the slower of the two halves.
            latency = max(latency, self._access_line(core_id, last, is_write))
        dtlb = self.cores[core_id].dtlb
        if dtlb is not None:
            penalty = dtlb.translate(address)
            if last != first:
                last_byte = address + size - 1
                if (last_byte >> dtlb._page_bits) != (
                    address >> dtlb._page_bits
                ):
                    # Page-crossing access: the last byte's page is
                    # translated too; like the two-line walk above, the
                    # slower translation bounds the observed latency.
                    penalty = max(penalty, dtlb.translate(last_byte))
            latency += penalty
        return latency

    def _access_line(self, core_id: int, line: int, is_write: bool) -> float:
        cfg = self.config
        core = self.cores[core_id]
        extra = 0.0
        if is_write and self.directory is not None:
            # Purge remote copies, then take ownership (S/I -> M).
            for other in self.directory.invalidated_cores(line):
                if other != core_id:
                    self.cores[other].l1.invalidate(line)
                    self.cores[other].l2.invalidate(line)
                    self.cores[other].prefetched.discard(line)
            extra = self.directory.write(core_id, line)

        if core.l1.access(line):
            return cfg.l1.latency + extra
        if core.l2.access(line):
            if core.prefetched and line in core.prefetched:
                core.prefetched.discard(line)
                core.prefetch_useful += 1
            core.l1.fill(line)
            return cfg.l2.latency + extra

        # L2 miss: consult the streamer before going to L3.
        for pf_line in core.prefetcher.observe_miss(line):
            if not self.l3.contains(pf_line):
                self._dram_accesses += 1
                self.l3.fill(pf_line)
            evicted_pf = core.l2.fill(pf_line)
            core.prefetched.add(pf_line)
            if evicted_pf is not None:
                core.prefetched.discard(evicted_pf)

        if self.l3.access(line):
            latency = cfg.l3.latency
        else:
            self._dram_accesses += 1
            latency = cfg.dram_latency
        if self.directory is not None and not is_write:
            # Read fill: a dirty remote copy is forwarded cache-to-cache.
            extra += self.directory.read(core_id, line)
        evicted = self.l2_fill(core, line)
        if evicted is not None:
            core.prefetched.discard(evicted)
            if self.directory is not None:
                self.directory.evict(core.id, evicted)
        core.l1.fill(line)
        return latency + extra

    @staticmethod
    def l2_fill(core: "_Core", line: int) -> Optional[int]:
        return core.l2.fill(line)

    # -- batched access path -----------------------------------------------

    def access_batch(self, addresses, sizes, is_write=None, thread=None):
        """Latency column for a column of accesses (any machine).

        Exactly equivalent to calling :meth:`access` per element — same
        latencies, same hit/miss/eviction counters, same directory/
        prefetcher/TLB state. ``is_write`` and ``thread`` are the
        batch's 0/1 write column and thread column; they default to
        all-reads on thread 0, which is only observably different on
        machines with a coherence directory or several cores — exactly
        where the engine passes the real columns.

        Promotion rule: at its first call, a hierarchy that does not use
        random replacement moves onto the compiled walk kernel
        (:mod:`repro.memsim.kernel`) if the kernel loads, taking along
        whatever state earlier :meth:`access` calls built. From then on
        every access runs there — this method returns a float64 column
        (``array('d')``, or an ndarray when numpy is installed) and
        :meth:`access` makes 1-element kernel calls — so the state never
        splits into two copies. Otherwise (random replacement or no
        compiler) every column takes :meth:`_access_batch_general`.
        """
        if not self._kernel_tried:
            self._kernel_tried = True
            self._kernel = kernel.attach(self)
            if self._kernel is not None:
                self.cores, self.l3, self.directory = self._kernel.views()
        if self._kernel is not None:
            return self._kernel.walk(addresses, sizes, is_write, thread)
        return self._access_batch_general(addresses, sizes, is_write, thread)

    def _access_batch_general(
        self, addresses, sizes, is_write=None, thread=None
    ) -> List[float]:
        """Trace-ordered Python walk for machines without the kernel.

        One call per batch instead of one :class:`MemoryAccess` object
        per access: the loop reads the raw columns, maps threads to
        cores, and honors the write bit, so multi-core traces, the MESI
        directory, the stream prefetcher, and the TLB all see exactly
        the event sequence the scalar path produces. A single-line read
        (or directory-less write) that hits L1 is resolved inline —
        nothing below L1 can observe it — and everything else takes the
        full :meth:`access` path.
        """
        cfg = self.config
        cores = self.cores
        directory = self.directory
        mod_cores = self.num_cores
        line_bits = self._line_bits
        l1_lat = cfg.l1.latency
        promote = cfg.replacement == "lru"
        access = self.access
        l1s = [core.l1 for core in cores]
        l1_sets = [core.l1._sets for core in cores]
        l1_mask = cores[0].l1._set_mask
        dtlbs = [core.dtlb for core in cores]
        has_tlb = dtlbs[0] is not None
        n = len(addresses)
        out = [0.0] * n
        for i in range(n):
            address = addresses[i]
            size = sizes[i]
            write = is_write is not None and is_write[i] != 0
            core_id = thread[i] % mod_cores if thread is not None else 0
            first = address >> line_bits
            if (address + size - 1) >> line_bits == first and not (
                write and directory is not None
            ):
                tags = l1_sets[core_id][first & l1_mask]
                if first in tags:
                    l1s[core_id].hits += 1
                    if promote and tags[-1] != first:
                        tags.remove(first)
                        tags.append(first)
                    if has_tlb:
                        # Single line implies single page (pages are a
                        # multiple of the line size): one translation.
                        out[i] = l1_lat + dtlbs[core_id].translate(address)
                    else:
                        out[i] = l1_lat
                    continue
            out[i] = access(core_id, address, size, write)
        return out

    @property
    def dram_accesses(self) -> int:
        """DRAM line fetches (demand misses and prefetches)."""
        if self._kernel is not None:
            return self._kernel.dram_accesses
        return self._dram_accesses

    @property
    def invalidations(self) -> int:
        if self.directory is None:
            return 0
        return self.directory.stats.invalidations

    def line_invalidations(self) -> Dict[int, int]:
        """``{line: invalidation count}`` observed by the directory."""
        if self.directory is None:
            return {}
        return dict(self.directory.stats.line_invalidations)

    # -- telemetry ---------------------------------------------------------

    def export_metrics(self, registry) -> None:
        """Register this run's hardware-style counters with a
        :class:`repro.telemetry.MetricsRegistry` (or the no-op one).

        Counter totals accumulate across every run exported into the
        same registry — the pipeline-wide totals the telemetry session
        reports.  Names follow the ``repro_memsim_*`` convention in
        docs/observability.md.
        """
        per_level = {
            "L1": [(c.l1.hits, c.l1.misses, c.l1.evictions) for c in self.cores],
            "L2": [(c.l2.hits, c.l2.misses, c.l2.evictions) for c in self.cores],
            "L3": [(self.l3.hits, self.l3.misses, self.l3.evictions)],
        }
        for level, stats in per_level.items():
            registry.counter(
                "repro_memsim_cache_hits_total",
                help="cache hits by level", level=level,
            ).add(sum(s[0] for s in stats))
            registry.counter(
                "repro_memsim_cache_misses_total",
                help="cache misses by level", level=level,
            ).add(sum(s[1] for s in stats))
            registry.counter(
                "repro_memsim_cache_evictions_total",
                help="cache evictions by level", level=level,
            ).add(sum(s[2] for s in stats))
        registry.counter(
            "repro_memsim_dram_accesses_total", help="DRAM line fetches",
        ).add(self.dram_accesses)
        registry.counter(
            "repro_memsim_prefetch_issued_total",
            help="L2 streamer prefetches issued",
        ).add(sum(c.prefetcher.issued for c in self.cores))
        registry.counter(
            "repro_memsim_prefetch_useful_total",
            help="prefetched lines later hit by a demand access",
        ).add(sum(c.prefetch_useful for c in self.cores))
        registry.counter(
            "repro_memsim_coherence_invalidations_total",
            help="MESI invalidations sent to remote private caches",
        ).add(self.invalidations)
        if self.directory is not None:
            registry.counter(
                "repro_memsim_coherence_writebacks_total",
                help="dirty lines written back on remote request",
            ).add(self.directory.stats.writebacks)
            registry.counter(
                "repro_memsim_coherence_cache_to_cache_total",
                help="dirty lines forwarded cache-to-cache",
            ).add(self.directory.stats.cache_to_cache)

    # -- statistics --------------------------------------------------------

    def l1_misses(self) -> int:
        return sum(c.l1.misses for c in self.cores)

    def l2_misses(self) -> int:
        return sum(c.l2.misses for c in self.cores)

    def l3_misses(self) -> int:
        return self.l3.misses

    def l1_accesses(self) -> int:
        return sum(c.l1.accesses for c in self.cores)

    def miss_summary(self) -> Dict[str, int]:
        summary = {
            "l1_misses": self.l1_misses(),
            "l2_misses": self.l2_misses(),
            "l3_misses": self.l3_misses(),
            "dram_accesses": self.dram_accesses,
            "invalidations": self.invalidations,
        }
        if self.directory is not None:
            summary["writebacks"] = self.directory.stats.writebacks
            summary["cache_to_cache"] = self.directory.stats.cache_to_cache
            summary["upgrades"] = self.directory.stats.upgrades
        if self.config.tlb is not None:
            summary["dtlb_misses"] = sum(
                c.dtlb.l1_misses for c in self.cores if c.dtlb is not None
            )
            summary["page_walks"] = sum(
                c.dtlb.walks for c in self.cores if c.dtlb is not None
            )
        return summary
