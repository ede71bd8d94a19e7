"""Property: the batched engine is observationally identical to scalar.

The columnar fast path (interp.run_batched -> hierarchy.access_batch ->
sampler.observe_batch) promises *byte-identical* results to the scalar
pipeline — same trace, same metrics, same samples, same RNG state.
These properties check that contract over random programs: every index
kind (Const/Affine/Mod/Indirect), writes, nested and parallel loops,
trip counts straddling the MIN_BATCH_TRIPS gate, multiple threads,
and both PMU flavors with jittered periods.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.engine import simulate
from repro.memsim.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.memsim.tlb import TLBConfig
from repro.program import AccessBatch, Access, Compute, Function, Loop, WorkloadBuilder, affine
from repro.program.interp import Interpreter
from repro.program.ir import Const, Indirect, Mod
from repro.sampling.ibs import IBSSampler
from repro.sampling.pebs import PEBSLoadLatencySampler
from tests.property.strategies import ELEM

#: Element count of the single array every random program touches.
ELEMENTS = 64


@st.composite
def index_exprs(draw, loop_vars):
    """An in-bounds index expression over the enclosing loop variables.

    ``loop_vars`` is a list of (var, stop) for every enclosing loop, so
    expressions may read the innermost variable (contiguous in the
    batch) or an outer one (constant across the inner loop).
    """
    kind = draw(st.sampled_from(["const", "affine", "mod", "indirect"]))
    if kind == "const" or not loop_vars:
        return Const(draw(st.integers(0, ELEMENTS - 1)))
    var, stop = draw(st.sampled_from(loop_vars))
    if kind == "mod":
        scale = draw(st.integers(-3, 3))
        offset = draw(st.integers(-8, 8))
        modulus = draw(st.integers(1, ELEMENTS))
        return Mod(affine(var, scale, offset), modulus)
    if kind == "indirect":
        table_len = draw(st.integers(2, 16))
        table = [draw(st.integers(0, ELEMENTS - 1)) for _ in range(table_len)]
        inner = Mod(affine(var, draw(st.integers(-2, 2)), 0), table_len)
        return Indirect.of(table, inner)
    # Plain affine: clamp the offset so var*scale+offset stays in range,
    # falling back to a Mod wrap when no offset can keep it in bounds.
    scale = draw(st.integers(-2, 2))
    span = scale * (stop - 1)
    lo, hi = min(0, span), max(0, span)
    if -lo > ELEMENTS - 1 - hi:
        return Mod(affine(var, scale, 0), ELEMENTS)
    offset = draw(st.integers(-lo, ELEMENTS - 1 - hi))
    return affine(var, scale, offset)


@st.composite
def bodies(draw, loop_vars=(), depth=0):
    """A random body mixing accesses, computes, and (parallel) loops."""
    loop_vars = list(loop_vars)
    body = []
    for k in range(draw(st.integers(1, 3))):
        line = 10 * depth + k + 1
        kind = draw(st.sampled_from(
            ["access", "access", "compute", "loop"]
            if depth < 2 else ["access", "compute"]
        ))
        if kind == "access":
            body.append(Access(
                line=line,
                array="A",
                field="x",
                index=draw(index_exprs(loop_vars)),
                is_write=draw(st.booleans()),
            ))
        elif kind == "compute":
            body.append(Compute(line=line, cycles=1.0))
        else:
            var = f"v{depth}_{k}"
            # Trip counts straddle MIN_BATCH_TRIPS (8) so both the
            # batch path and the small-loop scalar fallback run.
            stop = draw(st.integers(2, 20))
            body.append(Loop(
                line=line,
                var=var,
                start=0,
                stop=stop,
                body=draw(bodies(loop_vars + [(var, stop)], depth + 1)),
                end_line=line,
                parallel=draw(st.booleans()) if depth == 0 else False,
            ))
    return body


def build(body):
    builder = WorkloadBuilder("random")
    builder.add_aos(ELEM, ELEMENTS, name="A")
    return builder.build([Function("main", body)])


def expand(items):
    """Flatten AccessBatch items back into scalar trace items."""
    out = []
    for item in items:
        if isinstance(item, AccessBatch):
            out.extend(item)
        else:
            out.append(item)
    return out


def sampler_state(sampler):
    return (
        sampler.samples,
        sampler.total_accesses,
        sampler.eligible_accesses,
        sampler.periods_drawn,
        sampler._countdown,
    )


def run_pipeline(bound, num_threads, batched, make_sampler, config=None):
    interp = Interpreter(bound, num_threads=num_threads)
    trace = interp.run_batched() if batched else interp.run()
    sampler = make_sampler()
    hierarchy = MemoryHierarchy(config or HierarchyConfig(), num_threads)
    metrics = simulate(trace, hierarchy=hierarchy, observer=sampler.observe)
    levels = [hierarchy.l3] + [
        cache for core in hierarchy.cores for cache in (core.l1, core.l2)
    ]
    caches = [(c.hits, c.misses, c.evictions) for c in levels]
    return (
        metrics,
        caches,
        hierarchy.dram_accesses,
        hierarchy.miss_summary(),
        sampler_state(sampler),
    )


class TestTraceParity:
    @given(bodies(), st.integers(1, 3))
    @settings(deadline=None, max_examples=30)
    def test_batched_trace_expands_to_scalar_trace(self, body, num_threads):
        bound = build(body)
        scalar = list(Interpreter(bound, num_threads=num_threads).run())
        batched = expand(
            Interpreter(bound, num_threads=num_threads).run_batched()
        )
        assert scalar == batched


class TestPipelineParity:
    @given(
        bodies(),
        st.integers(1, 3),
        st.integers(3, 60),
        st.sampled_from(["pebs", "ibs"]),
    )
    @settings(deadline=None, max_examples=30)
    def test_metrics_samples_and_rng_identical(
        self, body, num_threads, period, pmu
    ):
        bound = build(body)

        def make_sampler():
            if pmu == "pebs":
                return PEBSLoadLatencySampler(period, jitter=0.2, seed=11)
            return IBSSampler(period, jitter=0.2, seed=11)

        scalar = run_pipeline(bound, num_threads, False, make_sampler)
        batched = run_pipeline(bound, num_threads, True, make_sampler)
        assert scalar == batched


class TestConfigParity:
    """Batch exactness over the full machine-configuration space.

    Every machine batches, including multi-core, coherence, prefetch,
    TLB, and every replacement policy; each combination must stay
    byte-identical to the scalar walk, whichever path it takes (the
    compiled walk kernel for LRU/FIFO, the Python general loop for
    random replacement or when no kernel could be built).
    """

    @given(
        bodies(),
        st.integers(1, 3),
        st.sampled_from([0, 2]),
        st.sampled_from(
            [None, TLBConfig(l1_entries=8, l1_ways=4,
                             l2_entries=16, l2_ways=4)]
        ),
        st.sampled_from(["lru", "fifo", "random"]),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=40)
    def test_every_configuration_is_batch_exact(
        self, body, num_threads, degree, tlb, replacement, small_geom,
    ):
        bound = build(body)
        base = HierarchyConfig.small() if small_geom else HierarchyConfig()
        config = dataclasses.replace(
            base, prefetch_degree=degree, tlb=tlb, replacement=replacement
        )

        def make_sampler():
            return PEBSLoadLatencySampler(7, jitter=0.2, seed=3)

        scalar = run_pipeline(bound, num_threads, False, make_sampler,
                              config=config)
        batched = run_pipeline(bound, num_threads, True, make_sampler,
                               config=config)
        assert scalar == batched
