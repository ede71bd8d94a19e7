"""Unit tests for the columnar batched engine's building blocks.

The property suite (test_prop_engine_parity) checks whole-pipeline
equivalence over random programs; these tests pin the individual
contracts — batch construction per index kind, the small-loop and
error fallbacks, hierarchy batch parity per replacement policy, the
sampler's batched countdown, and the satellite fixes that rode along
(first-sample stagger, engine validation).
"""

import pytest

from repro.layout import INT, StructType
from repro.memsim.engine import simulate
from repro.memsim import kernel
from repro.memsim.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memsim.tlb import TLBConfig
from repro.profiler.monitor import Monitor
from repro.program import (
    Access,
    AccessBatch,
    Function,
    Loop,
    WorkloadBuilder,
    affine,
)
from repro.program.batch import MIN_BATCH_TRIPS
from repro.program.interp import Interpreter, TraceError
from repro.program.ir import Indirect, Mod
from repro.sampling.ibs import IBSSampler
from repro.sampling.other_pmus import DEARSampler
from repro.sampling.pebs import PEBSLoadLatencySampler

ELEM = StructType("s", [("x", INT)])
ELEMENTS = 64


def program(index, stop=16, is_write=False):
    """One loop over one access into a 64-element array of structs."""
    builder = WorkloadBuilder("unit")
    builder.add_aos(ELEM, ELEMENTS, name="A")
    loop = Loop(
        line=1,
        var="i",
        start=0,
        stop=stop,
        body=[Access(line=2, array="A", field="x", index=index,
                     is_write=is_write)],
        end_line=3,
    )
    return builder.build([Function("main", [loop])])


def expand(items):
    out = []
    for item in items:
        if isinstance(item, AccessBatch):
            out.extend(item)
        else:
            out.append(item)
    return out


class TestBatchConstruction:
    def test_strided_loop_emits_one_batch(self):
        bound = program(affine("i"), stop=16)
        items = list(Interpreter(bound).run_batched())
        batches = [i for i in items if isinstance(i, AccessBatch)]
        assert len(batches) == 1
        batch = batches[0]
        assert len(batch) == 16
        addresses = list(batch.address)
        strides = {b - a for a, b in zip(addresses, addresses[1:])}
        assert strides == {addresses[1] - addresses[0]}

    @pytest.mark.parametrize(
        "index",
        [
            affine("i", 2, 1),
            affine("i", -1, 15),
            Mod(affine("i", 3, -5), ELEMENTS),
            Mod(affine("i", -2, 7), 13),
            Indirect.of([5, 3, 2, 7, 1], Mod(affine("i"), 5)),
            Indirect.of(list(range(ELEMENTS)), Mod(affine("i", -3, 1), ELEMENTS)),
        ],
    )
    def test_each_index_kind_expands_to_the_scalar_trace(self, index):
        bound = program(index, stop=16)
        scalar = list(Interpreter(bound).run())
        assert expand(Interpreter(bound).run_batched()) == scalar

    def test_small_loops_stay_scalar(self):
        bound = program(affine("i"), stop=MIN_BATCH_TRIPS - 1)
        items = list(Interpreter(bound).run_batched())
        assert not any(isinstance(i, AccessBatch) for i in items)
        assert items == list(Interpreter(bound).run())

    def test_out_of_bounds_raises_identically(self):
        # i*2 walks past count=64 at i=32; both engines must fail at
        # the same trace position with the same message.
        bound = program(affine("i", 2, 0), stop=40)

        def drain(items):
            seen = []
            with pytest.raises(TraceError) as err:
                for item in items:
                    seen.append(item)
            return expand(seen), str(err.value)

        scalar_items, scalar_msg = drain(Interpreter(bound).run())
        batched_items, batched_msg = drain(Interpreter(bound).run_batched())
        assert batched_msg == scalar_msg
        assert batched_items == scalar_items


class TestHierarchyBatch:
    # Repeats (hits), a spread wide enough to force evictions, and a
    # revisit of evicted lines (re-misses).
    ADDRESSES = [0, 64, 0, 4096, 64, 8] + [
        640 * k for k in range(96)
    ] + [0, 64, 4096]

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_batch_matches_scalar_walk(self, policy):
        config = HierarchyConfig(replacement=policy)
        sizes = [4] * len(self.ADDRESSES)
        reference = MemoryHierarchy(config, 1)
        expected = [
            reference.access(0, a, s, False)
            for a, s in zip(self.ADDRESSES, sizes)
        ]
        hierarchy = MemoryHierarchy(config, 1)
        got = hierarchy.access_batch(self.ADDRESSES, sizes)
        assert list(got) == expected
        for mine, theirs in zip(
            (hierarchy.l3, hierarchy.cores[0].l1, hierarchy.cores[0].l2),
            (reference.l3, reference.cores[0].l1, reference.cores[0].l2),
        ):
            assert (mine.hits, mine.misses, mine.evictions) == (
                theirs.hits, theirs.misses, theirs.evictions
            )
        assert hierarchy.dram_accesses == reference.dram_accesses

    def test_split_accesses_match_scalar(self):
        # size 8 at line_size-4 crosses a line boundary: the batch
        # path must hand these to the scalar walk and still agree.
        config = HierarchyConfig()
        addresses = [config.line_size - 4, 0, 2 * config.line_size - 4]
        sizes = [8, 4, 8]
        reference = MemoryHierarchy(config, 1)
        expected = [
            reference.access(0, a, s, False) for a, s in zip(addresses, sizes)
        ]
        hierarchy = MemoryHierarchy(config, 1)
        assert list(hierarchy.access_batch(addresses, sizes)) == expected
        assert hierarchy.dram_accesses == reference.dram_accesses

    def run_general_parity(self, config, num_cores):
        """Batch vs per-access parity on a non-simple configuration."""
        addresses = self.ADDRESSES
        sizes = [4] * len(addresses)
        writes = [k % 3 == 0 for k in range(len(addresses))]
        threads = [k % (num_cores + 1) for k in range(len(addresses))]
        reference = MemoryHierarchy(config, num_cores)
        expected = [
            reference.access(t % num_cores, a, s, w)
            for a, s, w, t in zip(addresses, sizes, writes, threads)
        ]
        hierarchy = MemoryHierarchy(config, num_cores)
        got = hierarchy.access_batch(addresses, sizes, writes, threads)
        assert list(got) == expected
        assert hierarchy.miss_summary() == reference.miss_summary()

    def test_batch_covers_multicore_coherence(self):
        # Two cores with the MESI directory engaged: the write and
        # thread columns must reach the directory in trace order.
        self.run_general_parity(HierarchyConfig(), 2)

    def test_batch_covers_prefetcher(self):
        self.run_general_parity(HierarchyConfig(prefetch_degree=2), 1)

    def test_batch_covers_tlb(self):
        config = HierarchyConfig(
            tlb=TLBConfig(l1_entries=8, l1_ways=4, l2_entries=16, l2_ways=4)
        )
        self.run_general_parity(config, 1)


class TestColumnSums:
    """The engine sums a kernel column order-free only when every
    latency component is an integer; otherwise it must walk the column
    in trace order, bit for bit the scalar accumulation."""

    def run(self, batched, config, num_threads, c2c=None):
        builder = WorkloadBuilder("unit")
        builder.add_aos(ELEM, ELEMENTS, name="A")
        loop = Loop(line=1, var="i", start=0, stop=3000, end_line=3,
                    parallel=True,
                    body=[Access(line=2, array="A", field="x",
                                 index=Mod(affine("i", 7, 3), ELEMENTS),
                                 is_write=True)])
        bound = builder.build([Function("main", [loop])])
        hierarchy = MemoryHierarchy(config, num_threads)
        if c2c is not None:
            hierarchy.directory.c2c_latency = c2c
            hierarchy.directory.upgrade_latency = c2c / 3
        interp = Interpreter(bound, num_threads=num_threads)
        trace = interp.run_batched() if batched else interp.run()
        return simulate(trace, hierarchy=hierarchy)

    @pytest.mark.parametrize("l2_latency, walk_latency",
                             [(7.0, 30.0), (7.1, 30.3)])
    def test_fractional_tlb_latency_matches_scalar_engine(
        self, l2_latency, walk_latency
    ):
        config = HierarchyConfig(
            tlb=TLBConfig(page_size=64, l1_entries=1, l1_ways=1,
                          l2_entries=2, l2_ways=1, walk_latency=walk_latency,
                          l2_latency=l2_latency),
        )
        assert self.run(True, config, 1) == self.run(False, config, 1)

    def test_fractional_coherence_latency_matches_scalar_engine(self):
        config = HierarchyConfig()
        assert self.run(True, config, 2, c2c=40.3) == (
            self.run(False, config, 2, c2c=40.3)
        )


class TestVectorWalk:
    """The compiled walk kernel on column batches (see memsim.kernel)."""

    def make(self, policy="lru"):
        return MemoryHierarchy(HierarchyConfig(replacement=policy), 1)

    def columns(self):
        # Hits, conflict evictions, the same missing lines twice in one
        # batch, and line-crossing splits.
        config = HierarchyConfig()
        line = config.line_size
        addresses = (
            [0, 64, 0, 4096, 64]
            + [640 * k for k in range(96)]
            + [640 * k for k in range(96)]
            + [line - 4, 2 * line - 4]
            + [0, 64, 4096, 0, 4096]
        )
        sizes = [4] * (len(addresses) - 7) + [8, 8] + [4] * 5
        return addresses, sizes

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_vector_walk_matches_scalar(self, policy):
        if kernel.load() is None:
            pytest.skip(kernel.describe())
        addresses, sizes = self.columns()
        reference = MemoryHierarchy(HierarchyConfig(replacement=policy), 1)
        expected = [
            reference.access(0, a, s, False)
            for a, s in zip(addresses, sizes)
        ]
        hierarchy = self.make(policy)
        got = hierarchy.access_batch(addresses, sizes)
        assert hierarchy._kernel is not None
        assert list(got) == expected
        for mine, theirs in zip(
            (hierarchy.l3, hierarchy.cores[0].l1, hierarchy.cores[0].l2),
            (reference.l3, reference.cores[0].l1, reference.cores[0].l2),
        ):
            assert (mine.hits, mine.misses, mine.evictions) == (
                theirs.hits, theirs.misses, theirs.evictions
            )
            assert mine.resident_lines() == theirs.resident_lines()
        assert hierarchy.dram_accesses == reference.dram_accesses

    def test_sequential_batches_share_state(self):
        addresses, sizes = self.columns()
        reference = MemoryHierarchy(HierarchyConfig(), 1)
        hierarchy = self.make()
        expected, got = [], []
        for _ in range(3):
            expected.extend(
                reference.access(0, a, s, False)
                for a, s in zip(addresses, sizes)
            )
            got.extend(hierarchy.access_batch(addresses, sizes))
        assert got == expected
        assert hierarchy.l3.hits == reference.l3.hits

    def test_scalar_access_works_after_promotion(self):
        # A promoted hierarchy serves per-access calls through the
        # kernel too, so the state never splits into two copies.
        addresses, sizes = self.columns()
        reference = MemoryHierarchy(HierarchyConfig(), 1)
        hierarchy = self.make()
        assert list(hierarchy.access_batch(addresses, sizes)) == [
            reference.access(0, a, s, False)
            for a, s in zip(addresses, sizes)
        ]
        for address in (12345, 0, 4096, 64 * 640):
            assert hierarchy.access(0, address, 4, False) == (
                reference.access(0, address, 4, False)
            )
        assert hierarchy.miss_summary() == reference.miss_summary()
        with pytest.raises(IndexError):
            hierarchy.access(1, 0, 4, False)

    def test_scalar_accesses_before_the_first_batch_carry_over(self):
        # A trace that opens with scalar accesses (a loop too short to
        # batch) still moves onto the kernel at its first batch, taking
        # the caches, directory, prefetcher and TLB state along.
        if kernel.load() is None:
            pytest.skip(kernel.describe())
        builder = WorkloadBuilder("unit")
        builder.add_aos(ELEM, 4096, name="A")
        loops = [
            Loop(line=line, var="i", start=0, stop=stop, end_line=line + 1,
                 parallel=True,
                 body=[Access(line=line, array="A", field="x",
                              index=Mod(affine("i", 17, 5), 4096),
                              is_write=True)])
            for line, stop in ((1, MIN_BATCH_TRIPS - 1), (3, 6000))
        ]
        bound = builder.build([Function("main", loops)])
        config = HierarchyConfig(
            prefetch_degree=2,
            tlb=TLBConfig(l1_entries=8, l1_ways=4, l2_entries=16, l2_ways=4),
        )
        runs = []
        for batched in (True, False):
            interp = Interpreter(bound, num_threads=4)
            trace = list(interp.run_batched() if batched else interp.run())
            hierarchy = MemoryHierarchy(config, 4)
            runs.append((simulate(trace, hierarchy=hierarchy),
                         hierarchy.miss_summary(),
                         list(hierarchy.line_invalidations().items())))
            if batched:
                assert not isinstance(trace[0], AccessBatch)
                assert any(isinstance(i, AccessBatch) for i in trace)
                assert hierarchy._kernel is not None
        assert runs[0] == runs[1]

    def test_random_policy_never_promotes(self):
        # Random replacement replays an RNG stream the kernel does not
        # have: it must stay on the Python walk.
        addresses, sizes = self.columns()
        hierarchy = self.make("random")
        reference = MemoryHierarchy(HierarchyConfig(replacement="random"), 1)
        expected = [
            reference.access(0, a, s, False)
            for a, s in zip(addresses, sizes)
        ]
        assert hierarchy.access_batch(addresses, sizes) == expected
        assert hierarchy._kernel is None


class TestSamplerBatch:
    def run_both(self, make_sampler, bound, num_threads=1):
        state = []
        for batched in (False, True):
            interp = Interpreter(bound, num_threads=num_threads)
            trace = interp.run_batched() if batched else interp.run()
            sampler = make_sampler()
            simulate(
                trace,
                hierarchy=MemoryHierarchy(HierarchyConfig(), num_threads),
                observer=sampler.observe,
            )
            state.append((
                sampler.samples,
                sampler.total_accesses,
                sampler.eligible_accesses,
                sampler.periods_drawn,
                sampler._countdown,
            ))
        return state

    @pytest.mark.parametrize(
    "make_sampler",
        [
            lambda: PEBSLoadLatencySampler(7, jitter=0.3, seed=5),
            lambda: PEBSLoadLatencySampler(7, jitter=0.0, ldlat=0.0, seed=5),
            lambda: IBSSampler(5, jitter=0.2, seed=5),
            lambda: DEARSampler(3, jitter=0.1, seed=5),
        ],
    )
    def test_observe_batch_is_bit_identical(self, make_sampler):
        bound = program(Mod(affine("i", 7, 3), ELEMENTS), stop=200)
        scalar, batched = self.run_both(make_sampler, bound)
        assert scalar == batched

    def test_unit_latency_sampler_degrades_batched_column(self):
        bound = program(Mod(affine("i"), ELEMENTS), stop=400)
        scalar, batched = self.run_both(lambda: DEARSampler(11, seed=2), bound)
        assert scalar == batched
        assert all(s.latency == 1.0 for s in batched[0])

    def test_first_sample_stagger_uses_jittered_period(self):
        # Satellite fix: the initial countdown must come from
        # _next_period(), so it lands in the jitter band *and* is
        # recorded in periods_drawn like every later draw.
        period, jitter = 100, 0.2
        sampler = PEBSLoadLatencySampler(
            period, jitter=jitter, ldlat=0.0, seed=9
        )
        bound = program(affine("i"), stop=16)
        simulate(
            Interpreter(bound).run(),
            hierarchy=MemoryHierarchy(HierarchyConfig(), 1),
            observer=sampler.observe,
        )
        assert sampler.periods_drawn, "stagger draw must be recorded"
        spread = int(period * jitter)
        first = sampler.periods_drawn[0]
        assert period - spread <= first <= period + spread


class TestEngineSelection:
    def test_monitor_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            Monitor(engine="vectorized")

    def test_monitor_accepts_both_engines(self):
        assert Monitor(engine="scalar").engine == "scalar"
        assert Monitor().engine == "batched"
