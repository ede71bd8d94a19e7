"""Property: the compiled walk kernel is the scalar walk, state for state.

A kernel-backed hierarchy (promoted by its first ``access_batch``) and a
fresh list-backed one fed per element through ``access()`` must agree
on every latency and every observable counter, over generated machines
— 1-4 cores, coherence on/off, prefetch degree 0-4, DTLB on/off,
LRU/FIFO, small geometries — and generated columns: writes shared
across cores, line- and page-crossing accesses, ``size == 0``,
addresses near 2**63, empty batches, and single ``access()`` calls
before the first batch (whose state the promotion carries over) and
between batches. Without a compiler the same property checks the
Python batch walk instead.
"""

import random
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import kernel
from repro.memsim.hierarchy import HierarchyConfig, LevelConfig, MemoryHierarchy
from repro.memsim.tlb import TLBConfig

TOP = 2 ** 63 - 1


@st.composite
def levels(draw, line_size, sets, ways, latency):
    num_sets = draw(st.sampled_from(sets))
    num_ways = draw(st.sampled_from(ways))
    return LevelConfig(num_sets * num_ways * line_size, num_ways,
                       draw(st.sampled_from(latency)))


@st.composite
def machines(draw):
    line_size = draw(st.sampled_from([32, 64]))
    tlb = None
    if draw(st.booleans()):
        l1_ways = draw(st.sampled_from([1, 2, 4]))
        tlb = TLBConfig(
            page_size=line_size * draw(st.sampled_from([2, 4, 64])),
            l1_entries=l1_ways * draw(st.sampled_from([1, 2])),
            l1_ways=l1_ways,
            l2_entries=16,
            l2_ways=4,
            walk_latency=draw(st.sampled_from([30.0, 30.5])),
        )
    config = HierarchyConfig(
        line_size=line_size,
        l1=draw(levels(line_size, [1, 2, 4], [1, 2, 4], [4.0, 4.25])),
        l2=draw(levels(line_size, [2, 4, 8], [2, 4], [12.0])),
        l3=draw(levels(line_size, [4, 8, 16], [2, 4, 8], [42.0])),
        dram_latency=draw(st.sampled_from([220.0, 219.5])),
        prefetch_degree=draw(st.integers(0, 4)),
        coherence=draw(st.booleans()),
        tlb=tlb,
        replacement=draw(st.sampled_from(["lru", "fifo"])),
    )
    return config, draw(st.integers(1, 4))


@st.composite
def plans(draw, line_size):
    """A seeded random access column cut into chunks.

    Most accesses land on a few hot lines shared by every thread (so
    writes meet remote copies); the rest straddle line and page
    boundaries or sit at the top of int64, with sizes from 0 up to
    more than a line. A leading run of ``lead`` accesses goes through
    ``access()`` one element at a time; the rest is cut into batches —
    some empty — and, with ``singles``, short segments after the first
    batch are walked one element at a time too.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 400))
    hot = draw(st.integers(1, 64))
    write_p = draw(st.sampled_from([0.0, 0.2, 0.5]))
    rows = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.8:
            address = rng.randrange(hot * line_size)
        elif kind < 0.9:
            address = rng.randrange(1, 64) * line_size - rng.randrange(1, 8)
        elif kind < 0.95:
            address = rng.randrange(1, 8) * 4096 - rng.randrange(1, 8)
        else:
            address = TOP - rng.randrange(4 * line_size)
        rows.append((
            address,
            rng.choice([0, 1, 4, 8, 8, 16, line_size + 8]),
            rng.random() < write_p,
            rng.randrange(8),
        ))
    lead = draw(st.integers(0, n)) if draw(st.booleans()) else 0
    cuts = sorted(draw(st.lists(st.integers(lead, n), max_size=6)))
    singles = draw(st.booleans())
    bounds = [lead] + cuts + [n]
    chunks = [(True, [row]) for row in rows[:lead]]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if singles and k > 0 and hi - lo <= 2:
            chunks.extend((True, [row]) for row in rows[lo:hi])
        else:
            chunks.append((False, rows[lo:hi]))
    return chunks


def snapshot(hierarchy, lines):
    cores = []
    for core in hierarchy.cores:
        caches = [
            (c.hits, c.misses, c.evictions, c.resident_lines(),
             [c.contains(line) for line in lines])
            for c in (core.l1, core.l2)
        ]
        dtlb = core.dtlb
        cores.append((
            caches,
            core.prefetcher.issued,
            core.prefetch_useful,
            None if dtlb is None else (dtlb.l1_misses, dtlb.walks),
        ))
    l3 = hierarchy.l3
    directory = hierarchy.directory
    return (
        cores,
        (l3.hits, l3.misses, l3.evictions, l3.resident_lines(),
         [l3.contains(line) for line in lines]),
        hierarchy.dram_accesses,
        hierarchy.miss_summary(),
        None if directory is None else directory.stats,
        list(hierarchy.line_invalidations().items()),
    )


class TestKernelMatchesScalarWalk:
    @given(st.data(), machines())
    @settings(deadline=None, max_examples=300)
    def test_every_latency_and_counter_matches(self, data, machine):
        config, num_cores = machine
        line_bits = config.line_size.bit_length() - 1
        reference = MemoryHierarchy(config, num_cores)
        hierarchy = MemoryHierarchy(config, num_cores)
        touched = set()
        chunks = data.draw(plans(config.line_size))
        for single, rows in chunks:
            expected = [
                reference.access(t % num_cores, a, s, w)
                for a, s, w, t in rows
            ]
            if single:
                a, s, w, t = rows[0]
                got = [hierarchy.access(t % num_cores, a, s, w)]
            else:
                got = list(hierarchy.access_batch(
                    *(array("q", column) for column in zip(*rows))
                    if rows else [array("q")] * 4
                ))
            assert got == expected
            for a, s, _, _ in rows:
                touched.update({a >> line_bits, (a + s - 1) >> line_bits})
        if kernel.load() is not None and any(not s for s, _ in chunks):
            assert hierarchy._kernel is not None
        lines = sorted(touched)
        assert snapshot(hierarchy, lines) == snapshot(reference, lines)

    def test_prefetch_evicting_the_demand_line(self):
        # The only path to MESIDirectory.evict: a prefetch fill pushes
        # the just-allocated demand line out of a tiny L2, the demand
        # fill re-installs it, and the line it evicts leaves the
        # directory. Rare under the generator above, so pinned here.
        config = HierarchyConfig(
            l1=LevelConfig(64, 1, 4.0),
            l2=LevelConfig(2 * 64, 1, 12.0),
            l3=LevelConfig(16 * 64, 4, 42.0),
            prefetch_degree=4,
        )
        rng = random.Random(7)
        rows = [(rng.randrange(12 * 64), 8, rng.random() < 0.5,
                 rng.randrange(2)) for _ in range(2000)]
        reference = MemoryHierarchy(config, 2)
        expected = [reference.access(t, a, s, w) for a, s, w, t in rows]
        hierarchy = MemoryHierarchy(config, 2)
        got = hierarchy.access_batch(
            *(array("q", column) for column in zip(*rows))
        )
        assert list(got) == expected
        lines = list(range(-1, 16))
        assert snapshot(hierarchy, lines) == snapshot(reference, lines)
