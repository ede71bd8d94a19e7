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

from . import vectorwalk
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
        self.dram_accesses = 0
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
        # Batched-path bookkeeping. A "simple" machine (one core, no
        # directory/prefetcher/TLB) takes the inlined single-core walk;
        # once batches are large enough its caches are promoted to the
        # numpy tag-array representation (state 1). State -1 means the
        # vector path is off for good (no numpy, random replacement, or
        # demoted after persistently unsafe batches).
        self._simple_batch = (
            num_cores == 1
            and self.directory is None
            and self.config.prefetch_degree == 0
            and self.config.tlb is None
        )
        self._vector_state = 0
        self._vector_slow_batches = 0
        # Steady-state walk memo, attached at vector promotion (see
        # repro.memsim.memo); None until then or when disabled.
        self._walk_memo = None

    # -- main access path ------------------------------------------------

    def access(self, core_id: int, address: int, size: int, is_write: bool) -> float:
        """Perform one access; returns its load-to-use latency in cycles."""
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
                self.dram_accesses += 1
                self.l3.fill(pf_line)
            evicted_pf = core.l2.fill(pf_line)
            core.prefetched.add(pf_line)
            if evicted_pf is not None:
                core.prefetched.discard(evicted_pf)

        if self.l3.access(line):
            latency = cfg.l3.latency
        else:
            self.dram_accesses += 1
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

    #: Smallest batch worth promoting the simple machine's caches to
    #: the numpy tag-array representation; below it the inlined list
    #: walk wins. Tests lower it (per instance) to force the vector
    #: path onto tiny batches.
    VECTOR_MIN_BATCH = 256

    def access_batch(self, addresses, sizes, is_write=None, thread=None):
        """Latency column for a column of accesses (any machine).

        Exactly equivalent to calling :meth:`access` per element — same
        latencies, same hit/miss/eviction counters, same directory/
        prefetcher/TLB state. ``is_write`` and ``thread`` are the
        batch's 0/1 write column and thread column; they default to
        all-reads on thread 0, which is only observably different on
        machines with a coherence directory or several cores — exactly
        where the engine passes the real columns.

        Dispatch: the simple single-core machine uses the vectorized
        numpy walk once batches are big enough (returning a float64
        ndarray), else an inlined list walk with a same-line memo; any
        other machine takes :meth:`_access_batch_general`.
        """
        if not self._simple_batch:
            return self._access_batch_general(addresses, sizes, is_write, thread)
        state = self._vector_state
        if state >= 0 and vectorwalk.HAVE_NUMPY:
            if state == 1:
                if self._walk_memo is not None:
                    return self._walk_memo.walk(
                        self, addresses, sizes, is_write
                    )
                return vectorwalk.walk_batch(self, addresses, sizes, is_write)
            if (
                len(addresses) >= self.VECTOR_MIN_BATCH
                and self.config.replacement != "random"
            ):
                self._promote_to_vector()
                if self._walk_memo is not None:
                    return self._walk_memo.walk(
                        self, addresses, sizes, is_write
                    )
                return vectorwalk.walk_batch(self, addresses, sizes, is_write)
        cfg = self.config
        core = self.cores[0]
        l1, l2, l3 = core.l1, core.l2, self.l3
        line_bits = self._line_bits
        l1_lat = cfg.l1.latency
        l2_lat = cfg.l2.latency
        l3_lat = cfg.l3.latency
        dram_lat = cfg.dram_latency
        out: List[float] = []
        append = out.append
        prev_line = -1

        if cfg.replacement == "random":
            # Victim choice draws from each cache's RNG; the method path
            # keeps the draw sequence identical to scalar access().
            l1_access, l2_access, l3_access = l1.access, l2.access, l3.access
            l1_fill, l2_fill = l1.fill, l2.fill
            dram = 0
            for address, size in zip(addresses, sizes):
                first = address >> line_bits
                if (address + size - 1) >> line_bits != first:
                    # Split access: rare; take the full scalar path
                    # (writes are indistinguishable from reads without
                    # a directory).
                    self.dram_accesses += dram
                    dram = 0
                    append(self.access(0, address, size, False))
                    prev_line = -1
                    continue
                if first == prev_line:
                    l1.hits += 1
                    append(l1_lat)
                    continue
                prev_line = first
                if l1_access(first):
                    append(l1_lat)
                elif l2_access(first):
                    l1_fill(first)
                    append(l2_lat)
                else:
                    if l3_access(first):
                        latency = l3_lat
                    else:
                        dram += 1
                        latency = dram_lat
                    l2_fill(first)
                    l1_fill(first)
                    append(latency)
            self.dram_accesses += dram
            return out

        # LRU/FIFO: the whole walk inlines to list operations. The level
        # arithmetic mirrors SetAssociativeCache.access exactly — a miss
        # allocates immediately (so the follow-up fill() in the scalar
        # path is a no-op we can skip), LRU promotes on non-MRU hits,
        # FIFO does not, both evict the list head.
        promote = cfg.replacement == "lru"
        l1_sets, l1_mask, l1_ways = l1._sets, l1._set_mask, l1.ways
        l2_sets, l2_mask, l2_ways = l2._sets, l2._set_mask, l2.ways
        l3_sets, l3_mask, l3_ways = l3._sets, l3._set_mask, l3.ways
        l1_hits = l1_misses = l1_evicts = 0
        l2_hits = l2_misses = l2_evicts = 0
        l3_hits = l3_misses = l3_evicts = 0
        dram = 0
        for address, size in zip(addresses, sizes):
            first = address >> line_bits
            if (address + size - 1) >> line_bits != first:
                # Flush local counters so the scalar call sees a
                # consistent hierarchy, then take the full path (the
                # write bit is unobservable without a directory).
                l1.hits += l1_hits; l1.misses += l1_misses
                l1.evictions += l1_evicts
                l2.hits += l2_hits; l2.misses += l2_misses
                l2.evictions += l2_evicts
                l3.hits += l3_hits; l3.misses += l3_misses
                l3.evictions += l3_evicts
                self.dram_accesses += dram
                l1_hits = l1_misses = l1_evicts = 0
                l2_hits = l2_misses = l2_evicts = 0
                l3_hits = l3_misses = l3_evicts = 0
                dram = 0
                append(self.access(0, address, size, False))
                prev_line = -1
                continue
            if first == prev_line:
                l1_hits += 1
                append(l1_lat)
                continue
            prev_line = first
            tags = l1_sets[first & l1_mask]
            if first in tags:
                l1_hits += 1
                if promote and tags[-1] != first:
                    tags.remove(first)
                    tags.append(first)
                append(l1_lat)
                continue
            l1_misses += 1
            if len(tags) >= l1_ways:
                del tags[0]
                l1_evicts += 1
            tags.append(first)
            tags = l2_sets[first & l2_mask]
            if first in tags:
                l2_hits += 1
                if promote and tags[-1] != first:
                    tags.remove(first)
                    tags.append(first)
                append(l2_lat)
                continue
            l2_misses += 1
            if len(tags) >= l2_ways:
                del tags[0]
                l2_evicts += 1
            tags.append(first)
            tags = l3_sets[first & l3_mask]
            if first in tags:
                l3_hits += 1
                if promote and tags[-1] != first:
                    tags.remove(first)
                    tags.append(first)
                append(l3_lat)
                continue
            l3_misses += 1
            if len(tags) >= l3_ways:
                del tags[0]
                l3_evicts += 1
            tags.append(first)
            dram += 1
            append(dram_lat)
        l1.hits += l1_hits; l1.misses += l1_misses; l1.evictions += l1_evicts
        l2.hits += l2_hits; l2.misses += l2_misses; l2.evictions += l2_evicts
        l3.hits += l3_hits; l3.misses += l3_misses; l3.evictions += l3_evicts
        self.dram_accesses += dram
        return out

    def _access_batch_general(
        self, addresses, sizes, is_write=None, thread=None
    ) -> List[float]:
        """Chunked trace-ordered walk for every non-simple machine.

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

    # -- vector-path state management ---------------------------------------

    def _promote_to_vector(self) -> None:
        """Convert the simple machine's caches to tag arrays."""
        from . import memo

        core = self.cores[0]
        core.l1 = vectorwalk.TagArrayCache(core.l1)
        core.l2 = vectorwalk.TagArrayCache(core.l2)
        self.l3 = vectorwalk.TagArrayCache(self.l3)
        self._vector_state = 1
        if memo.enabled():
            self._walk_memo = memo.WalkMemo()

    def _demote_from_vector(self) -> None:
        """Back to list caches, for workloads the vector walk dislikes."""
        core = self.cores[0]
        core.l1 = core.l1.to_list_cache()
        core.l2 = core.l2.to_list_cache()
        self.l3 = self.l3.to_list_cache()
        self._vector_state = -1

    def _vector_feedback(self, replayed: int, total: int) -> None:
        """Demote after three consecutive replay-dominated batches.

        The vector walk replays accesses in "unsafe" sets through a
        per-access loop; when most of a batch replays (thrash-heavy
        footprints near a cache's capacity) the list walk is faster,
        and the conversion preserves state exactly so results do not
        change — only speed does.
        """
        if replayed * 2 > total:
            self._vector_slow_batches += 1
            if self._vector_slow_batches >= 3:
                self._demote_from_vector()
        else:
            self._vector_slow_batches = 0

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
        if self._walk_memo is not None:
            memo = self._walk_memo
            registry.counter(
                "repro_memsim_walk_memo_hits_total",
                help="batch walks replayed from the steady-state memo",
            ).add(memo.hits)
            registry.counter(
                "repro_memsim_walk_memo_misses_total",
                help="batch walks with no usable memo entry",
            ).add(memo.misses)
            registry.counter(
                "repro_memsim_walk_memo_stale_total",
                help="memo entries invalidated by a pre-state mismatch",
            ).add(memo.stale)
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
