"""Self-tests of the benchmark: attribution, layer sums, exact counts.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Everything runs at a tiny scale, so the suite takes well under a minute.
"""

import functools
import json
import math
import time

import pytest

import cycles
import run
import tracing
from repro.experiments.optimization import results_json, run_all
from repro.memsim.hierarchy import MemoryHierarchy
from repro.sampling.sampler import SamplingEngine

SCALE = 0.1
DELAY_S = 0.01


@pytest.fixture(scope="module")
def one_core():
    return cycles.WORKLOADS["table2-1core"](SCALE)


def delayed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        time.sleep(DELAY_S)
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "owner, attr, absorbs, bystander",
    [
        (MemoryHierarchy, "access_batch", "memsim.walk", "sampling.observe"),
        (SamplingEngine, "observe_batch", "sampling.observe", "memsim.walk"),
    ],
)
def test_a_fixed_delay_lands_in_the_delayed_layer(
    one_core, monkeypatch, owner, attr, absorbs, bystander
):
    base = run.run_pass(one_core, 0, traced=True).trace
    monkeypatch.setattr(owner, attr, delayed(owner.__dict__[attr]))
    slow = run.run_pass(one_core, 0, traced=True).trace
    injected = slow.calls[absorbs] * DELAY_S
    assert injected > 0.5
    grew = slow.self_s[absorbs] - base.self_s[absorbs]
    assert grew >= 0.9 * injected
    assert slow.self_s[bystander] - base.self_s[bystander] < 0.2 * injected


def test_layer_self_times_add_up_to_the_traced_wall(one_core):
    trace = run.run_pass(one_core, 0, traced=True).trace
    assert trace.layer_sum_error() < run.LAYER_SUM_TOLERANCE_S
    assert all(v >= 0.0 for v in trace.self_s.values())
    assert trace.self_s[tracing.WALK] > 0.0
    assert trace.calls[tracing.SPLIT] == len(one_core.names)


def test_tracing_leaves_outputs_and_code_unchanged(one_core):
    original = MemoryHierarchy.__dict__["access_batch"]
    untraced = run.run_pass(one_core, 3)
    traced = run.run_pass(one_core, 3, traced=True)
    assert MemoryHierarchy.__dict__["access_batch"] is original
    assert [cycles.canonical(c.outputs) for c in untraced.cycles] == [
        cycles.canonical(c.outputs) for c in traced.cycles
    ]
    assert not run.trace_checks([untraced], [traced])


@pytest.mark.parametrize("name", list(cycles.WORKLOADS))
def test_exact_counters_repeat_at_one_seed(name):
    workload = cycles.WORKLOADS[name](SCALE)
    first = run.run_pass(workload, 5, traced=True)
    second = run.run_pass(workload, 5, traced=True)
    assert run.counters(first) == run.counters(second)
    exact = ("speedup_abs_err", "overhead_abs_err_pp", "advice_match_frac")
    if hasattr(workload, "price_speedups"):
        workload.price_speedups(first.cycles)
        workload.price_speedups(second.cycles)
    e1 = run.end_to_end([first], 1.0, 1.0)
    e2 = run.end_to_end([second], 1.0, 1.0)
    assert [e1[m] for m in exact] == [e2[m] for m in exact]


@pytest.mark.parametrize("trace", [False, True])
def test_held_out_seed_defines_every_metric_without_failures(trace):
    metrics, _, attempted, failed, correct = run.measure(
        "table2-4core", 11, 0.0, trace, setup_s=0.5, scale=SCALE
    )
    assert correct and failed == 0 and attempted > 0
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_a_wrong_output_is_counted_as_failed(one_core):
    p = run.run_pass(one_core, 0)
    ref = {c.label: cycles.canonical(c.outputs) for c in p.cycles}
    ref["TSP"] = ref["TSP"].replace('"sample_count": ', '"sample_count": 1')
    assert run.check_outputs([p], ref) == ["TSP"]
    assert p.failed == ["TSP"] and p.attempted == len(one_core.names)


def test_seed_zero_table2_outputs_equal_table3_json():
    table3 = results_json(run_all(scale=SCALE))
    rows = {row["benchmark"]: row for row in table3["benchmarks"]}
    for name in ("table2-1core", "table2-4core"):
        for cycle in run.run_pass(cycles.WORKLOADS[name](SCALE), 0).cycles:
            outputs = dict(cycle.outputs)
            del outputs["plans"], outputs["sample_count"]
            assert json.dumps(outputs, sort_keys=True) == json.dumps(
                rows[cycle.label], sort_keys=True
            )
