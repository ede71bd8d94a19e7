"""Engine throughput benchmark: the repo's performance trajectory.

``repro bench`` times the scalar and batched trace engines layer by
layer — interpret (trace generation), simulate (cache hierarchy),
sample (PMU countdown) — and end to end on the single-core no-prefetch
pipeline (179.ART, the paper's flagship), then writes a
``BENCH_<stamp>.json`` snapshot. Committed snapshots plus the CI
perf-smoke job (``--quick --check benchmarks/baseline_bench.json``)
give every future change a regression gate; see docs/performance.md
for how to read the file.

Timings use best-of-N wall time so one noisy repeat cannot mask a real
regression, and every repeat runs on fresh interpreter / hierarchy /
sampler state.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..memsim import kernel
from ..memsim.engine import simulate
from ..memsim.hierarchy import HierarchyConfig, MemoryHierarchy
from ..program.batch import AccessBatch
from ..program.interp import Interpreter
from ..sampling.pebs import PEBSLoadLatencySampler
from ..telemetry import events
from ..workloads.art import ArtWorkload

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Scale of the ART trace benched: ~1M accesses full, ~100k quick.
FULL_SCALE = 1.0
QUICK_SCALE = 0.1
FULL_REPEATS = 3
QUICK_REPEATS = 2


def _best_of(repeats: int, fn: Callable[[], int]) -> Tuple[float, int]:
    """(best wall seconds, accesses processed) over ``repeats`` runs."""
    best = float("inf")
    count = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        count = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, count


class _PairRecorder:
    """Observer that captures the simulator's (item, latency) stream."""

    def __init__(self) -> None:
        self.scalar: List[tuple] = []
        self.batched: List[tuple] = []

    def observe(self, access, latency: float) -> None:
        self.scalar.append((access, latency))

    def observe_batch(self, batch, latencies) -> None:
        self.batched.append((batch, latencies))


def run_bench(
    *,
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Measure both engines and return the BENCH json payload."""
    bus = events.bus()

    def say(message: str) -> None:
        if progress is not None:
            progress(message)
        if bus.active:
            bus.publish("stage-progress", stage="bench", message=message)

    scale = QUICK_SCALE if quick else FULL_SCALE
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    workload = ArtWorkload(scale=scale)
    bound = workload.build_original()
    period = workload.recommended_period

    def interpreter() -> Interpreter:
        return Interpreter(bound, num_threads=workload.num_threads)

    def hierarchy() -> MemoryHierarchy:
        return MemoryHierarchy(HierarchyConfig(), workload.num_threads)

    def sampler() -> PEBSLoadLatencySampler:
        return PEBSLoadLatencySampler(period, seed=0)

    layers: Dict[str, Dict[str, object]] = {}

    # -- interpret: trace generation alone --------------------------------
    say("bench: interpret layer")

    def interpret_scalar() -> int:
        n = 0
        for item in interpreter().run():
            n += 1
        return n

    def interpret_batched() -> int:
        n = 0
        for item in interpreter().run_batched():
            n += len(item) if isinstance(item, AccessBatch) else 1
        return n

    layers["interpret"] = _layer(repeats, interpret_scalar, interpret_batched)

    # -- simulate: hierarchy walk on a pre-materialized trace --------------
    say("bench: simulate layer")
    scalar_trace = list(interpreter().run())
    batched_trace = list(interpreter().run_batched())
    accesses = sum(
        len(i) if isinstance(i, AccessBatch) else 1
        for i in batched_trace
        if not hasattr(i, "cycles")
    )

    def simulate_scalar() -> int:
        simulate(scalar_trace, hierarchy=hierarchy())
        return accesses

    def simulate_batched() -> int:
        simulate(batched_trace, hierarchy=hierarchy())
        return accesses

    layers["simulate"] = _layer(repeats, simulate_scalar, simulate_batched)

    # -- sample: countdown advance on captured (item, latency) pairs -------
    say("bench: sample layer")
    recorder = _PairRecorder()
    simulate(scalar_trace, hierarchy=hierarchy(), observer=recorder.observe)
    simulate(batched_trace, hierarchy=hierarchy(), observer=recorder.observe)

    def sample_scalar() -> int:
        engine = sampler()
        observe = engine.observe
        for access, latency in recorder.scalar:
            observe(access, latency)
        return engine.total_accesses

    def sample_batched() -> int:
        engine = sampler()
        observe_batch = engine.observe_batch
        for batch, latencies in recorder.batched:
            observe_batch(batch, latencies)
        return engine.total_accesses

    layers["sample"] = _layer(repeats, sample_scalar, sample_batched)

    # -- end to end: interpret -> simulate -> sample ------------------------
    say("bench: end-to-end pipeline")

    def end_to_end_run(batched: bool) -> int:
        interp = interpreter()
        trace = interp.run_batched() if batched else interp.run()
        metrics = simulate(
            trace, hierarchy=hierarchy(), observer=sampler().observe
        )
        return metrics.accesses

    end_to_end = _layer(
        repeats, lambda: end_to_end_run(False), lambda: end_to_end_run(True)
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "stamp": time.strftime("%Y%m%dT%H%M%S"),
        "python": sys.version.split()[0],
        "walk_kernel": kernel.status(),
        "workload": workload.name,
        "scale": scale,
        "quick": quick,
        "repeats": repeats,
        "accesses": accesses,
        "sampling_period": period,
        "layers": layers,
        "end_to_end": end_to_end,
    }


def _layer(
    repeats: int, scalar_fn: Callable[[], int], batched_fn: Callable[[], int]
) -> Dict[str, object]:
    scalar_s, scalar_n = _best_of(repeats, scalar_fn)
    batched_s, batched_n = _best_of(repeats, batched_fn)
    return {
        "scalar": {
            "seconds": scalar_s,
            "accesses": scalar_n,
            "accesses_per_sec": scalar_n / scalar_s if scalar_s else 0.0,
        },
        "batched": {
            "seconds": batched_s,
            "accesses": batched_n,
            "accesses_per_sec": batched_n / batched_s if batched_s else 0.0,
        },
        "speedup": scalar_s / batched_s if batched_s else 0.0,
    }


def write_bench(result: Dict[str, object], out: Optional[str] = None) -> Path:
    """Write the payload to ``out`` or ``BENCH_<stamp>.json``."""
    path = Path(out) if out else Path(f"BENCH_{result['stamp']}.json")
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def check_regression(
    result: Dict[str, object], baseline_path: str, tolerance: float = 0.25
) -> Tuple[bool, str]:
    """Compare batched end-to-end throughput against a baseline file.

    Returns (ok, message). ``ok`` is False when throughput dropped by
    more than ``tolerance`` (fractional) relative to the baseline —
    the CI perf-smoke gate. Machines differ, so the committed baseline
    should be refreshed (``make bench-baseline``) when the CI fleet or
    the expected performance envelope changes.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    current = result["end_to_end"]["batched"]["accesses_per_sec"]
    reference = baseline["end_to_end"]["batched"]["accesses_per_sec"]
    if reference <= 0:
        return True, "baseline has no batched throughput; check skipped"
    ratio = current / reference
    ok = ratio >= 1.0 - tolerance
    message = (
        f"batched end-to-end throughput: {current:,.0f} acc/s vs baseline "
        f"{reference:,.0f} acc/s ({ratio:.2f}x, tolerance -{tolerance:.0%})"
    )
    if not ok:
        message += " — REGRESSION"
        # Name the guilty stage: per-stage wall-time attribution of
        # baseline -> current, so CI failures say *what* regressed.
        if baseline.get("layers") and result.get("layers"):
            from ..telemetry import history

            attribution = history.attribute(
                history.make_entry(baseline), history.make_entry(result)
            )
            message += "\n" + attribution.render()
    return ok, message
