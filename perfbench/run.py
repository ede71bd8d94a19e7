#!/usr/bin/env python3
"""The repo benchmark: time the profile -> advise -> split cycle from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-1core --seed 0 --seconds 15 --trace 0

One closed-loop client in one process: each pass runs the workload's
program cycles back to back and the next pass starts when the last one
has returned.  No threads, no worker pool, and the program runs with its
shipped defaults.  ``--trace 0`` reports the end-to-end metrics from
untraced passes; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (see ``tracing.py``).  Every pass's
outputs are checked against the scalar reference engine at the same
seed.  Pass and set-up times are scaled for the host's speed at the
moment, which a fixed probe measures between program cycles.  The last
line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit, plus the quartiles and pass counts.

See ``perfbench/README.md`` for the workloads, the metrics and what each
layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CACHE = HERE / ".cache"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: Host-speed scaling reference: pass times are reported as seconds on a
#: host that runs :func:`host_probe_s` in this long.
PROBE_NOMINAL_S = 0.05
#: Traced self times must add up to the traced wall within this.
LAYER_SUM_TOLERANCE_S = 1e-6


def use_source_tree() -> None:
    """Import the program from this checkout's ``src``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {SRC}")
    sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """Content hash of the program source: the reference cache key."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_probe_s() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that shares
    no code with the program: a gauge of the host's current speed."""
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        row = table.setdefault((i * 2654435761) & 1023, [])
        row.append(i)
        if len(row) > 8:
            row.pop(0)
    column = np.arange(200_000, dtype=np.int64) * 2654435761 % (1 << 20)
    for _ in range(3):
        np.unique(np.sort(column) & 4095)
        column ^= column >> 3
    return time.perf_counter() - start


def host_scaled(elapsed: float, probe_before: float, probe_after: float) -> float:
    """``elapsed`` host seconds at the host speed the probes around it
    saw, expressed at the nominal speed (probe = PROBE_NOMINAL_S)."""
    return elapsed * PROBE_NOMINAL_S / ((probe_before + probe_after) / 2)


@dataclass
class Pass:
    """One pass: its host wall time and what each program cycle gave."""

    #: Host seconds spent in the program cycles.
    wall_s: float
    #: The same, each cycle scaled by :func:`host_scaled`.
    scaled_s: float
    cycles: list = field(default_factory=list)
    #: Labels of program cycles that raised or mismatched the reference.
    failed: List[str] = field(default_factory=list)
    trace: Optional[object] = None

    @property
    def attempted(self) -> int:
        return len(self.cycles) + len(self.failed)


def run_pass(workload, seed: int, *, traced: bool = False) -> Pass:
    """Run every program cycle of one pass, timing each one.

    A host probe runs between consecutive cycles (outside the timed
    region), so each cycle's time can be scaled by the host's speed at
    that moment.  A traced pass opens one root span per cycle.
    """
    trace = tracing.LayerTrace() if traced else None
    cycles, failed = [], []
    wall = scaled = 0.0
    hooks = tracing.installed(trace) if traced else contextlib.nullcontext()
    with hooks:
        probe = host_probe_s()
        for label, run in workload.cycles(seed):
            start = time.perf_counter()
            with trace.root() if traced else contextlib.nullcontext():
                try:
                    cycles.append(run())
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed.append(label)
            elapsed = time.perf_counter() - start
            next_probe = host_probe_s()
            wall += elapsed
            scaled += host_scaled(elapsed, probe, next_probe)
            probe = next_probe
    return Pass(wall_s=wall, scaled_s=scaled, cycles=cycles, failed=failed,
                trace=trace)


def reference_outputs(name: str, workload, seed: int) -> Dict[str, str]:
    """Label -> canonical outputs of the scalar engine at ``seed``.

    Untimed.  Cached per workload, seed, scale and program-source
    digest, so a changed program never reuses a stale reference; the
    seed-independent split re-runs are shared across seeds.
    """
    import cycles as cyc

    digest = source_digest()
    path = CACHE / f"{name}-seed{seed}-scale{workload.scale}-{digest}.json"
    if path.is_file():
        return json.loads(path.read_text())
    ref: Dict[str, str] = {}
    reruns = CACHE / f"reruns-{digest}"
    for label, run in workload.cycles(seed, "scalar", reruns):
        ref[label] = cyc.canonical(run().outputs)
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(ref))
    tmp.replace(path)
    return ref


def check_outputs(passes: List[Pass], ref: Dict[str, str]) -> List[str]:
    """Move every cycle whose outputs differ from ``ref`` to ``failed``;
    returns the mismatching labels."""
    import cycles as cyc

    mismatched = []
    for p in passes:
        kept = []
        for cycle in p.cycles:
            if ref.get(cycle.label) == cyc.canonical(cycle.outputs):
                kept.append(cycle)
            else:
                p.failed.append(cycle.label)
                mismatched.append(cycle.label)
        p.cycles = kept
    return mismatched


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def median_rate(passes: List[Pass], count) -> float:
    return statistics.median(
        sum(count(c) for c in p.cycles) / p.scaled_s for p in passes
    )


def end_to_end(passes: List[Pass], setup_s: float, peak_rss_mb: float):
    """The user-visible metrics of the untraced passes."""
    walls = [p.scaled_s for p in passes]
    cycles = [c for p in passes for c in p.cycles]
    first = passes[0].cycles
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "accesses_per_s": (
            median_rate(passes, lambda c: sum(r.accesses for r in c.runs)),
            "1/s",
        ),
        "samples_per_s": (median_rate(passes, lambda c: c.samples), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "speedup_abs_err": (
            statistics.fmean(abs(c.speedup - c.paper_speedup) for c in first),
            "ratio",
        ),
        "overhead_abs_err_pp": (
            statistics.fmean(
                abs(c.overhead_percent - c.paper_overhead_percent) for c in first
            ),
            "pp",
        ),
        "advice_match_frac": (
            sum(c.plan_matches for c in cycles) / len(cycles),
            "frac",
        ),
    }


def counters(p: Pass) -> Dict[str, float]:
    """Exact work counts of one traced pass."""
    from repro.telemetry import MetricsRegistry

    runs = [r for c in p.cycles for r in c.runs]
    registry = MetricsRegistry()
    for hierarchy in p.trace.hierarchies:
        hierarchy.export_metrics(registry)

    def total(name: str) -> float:
        instrument = registry.get(name)
        return instrument.value if instrument is not None else 0.0

    hits = total("repro_memsim_walk_memo_hits_total")
    misses = total("repro_memsim_walk_memo_misses_total")
    return {
        "memsim.accesses": sum(r.accesses for r in runs),
        "memsim.batches": p.trace.calls[tracing.WALK],
        "memsim.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "memsim.l1_misses": sum(r.l1_misses for r in runs),
        "memsim.l2_misses": sum(r.l2_misses for r in runs),
        "memsim.l3_misses": sum(r.l3_misses for r in runs),
        "memsim.dram_accesses": sum(r.dram_accesses for r in runs),
        "memsim.invalidations": sum(r.invalidations for r in runs),
        "sampling.samples": sum(c.samples for c in p.cycles),
        "sampling.eligible": sum(s.eligible_accesses for s in p.trace.samplers),
        "profiler.streams": sum(c.streams for c in p.cycles),
    }


COUNT_UNITS = {"memsim.memo_hit_ratio": "ratio"}


def per_layer(untraced: List[Pass], traced: List[Pass]):
    """Per-layer self times (medians over traced passes) and counts."""
    metrics = {}
    for layer in tracing.LAYERS + (tracing.ROOT,):
        metrics[f"{layer}_s"] = (
            statistics.median(p.trace.self_s[layer] for p in traced),
            "s",
        )
    for name, value in counters(traced[0]).items():
        metrics[name] = (value, COUNT_UNITS.get(name, "count"))
    metrics["trace_overhead_s"] = (
        statistics.median(p.scaled_s for p in traced)
        - statistics.median(p.scaled_s for p in untraced),
        "s",
    )
    return metrics


def trace_checks(untraced: List[Pass], traced: List[Pass]) -> List[str]:
    """The traced run's own checks; returns the problems found."""
    import cycles as cyc

    problems = []
    for p in traced:
        error = p.trace.layer_sum_error()
        if error > LAYER_SUM_TOLERANCE_S:
            problems.append(f"layer self times miss the traced wall by {error}s")
    counts = [counters(p) for p in traced if not p.failed]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("exact counters differ between traced passes")

    def outputs(p):
        return [(c.label, cyc.canonical(c.outputs)) for c in p.cycles]

    clean = [p for p in untraced + traced if not p.failed]
    if clean and any(outputs(p) != outputs(clean[0]) for p in clean[1:]):
        problems.append("traced outputs differ from untraced outputs")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            setup_s: float = float("nan"), scale: float = 1.0):
    """Run passes for ``seconds``, check them, and return the result.

    Returns ``(metrics, notes, attempted, failed, correct)`` where
    ``metrics`` maps a name to ``(value, unit)`` and ``notes`` holds
    the extra lines printed before the result.
    """
    import cycles as cyc

    workload = cyc.WORKLOADS[name](scale)
    # Untimed: the program's lazy imports finish before the first pass.
    for program in workload.programs():
        program.build_original()

    untraced: List[Pass] = []
    traced: List[Pass] = []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or not untraced
        or (trace and not traced)
    ):
        want_traced = trace and len(traced) < len(untraced)
        p = run_pass(workload, seed, traced=want_traced)
        (traced if want_traced else untraced).append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced
    notes = []
    mismatched = check_outputs(passes, reference_outputs(name, workload, seed))
    if mismatched:
        notes.append(f"outputs differ from the scalar reference: "
                     f"{sorted(set(mismatched))}")
    raised = {label for p in passes for label in p.failed} - set(mismatched)
    if raised:
        notes.append(f"program cycles raised: {sorted(raised)}")
    problems = []
    if trace:
        problems = trace_checks(untraced, traced)
        notes.extend(problems)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    good = [p for p in untraced if not p.failed]
    if not good or (trace and not any(not p.failed for p in traced)):
        raise SystemExit("perfbench: no pass completed without a failure")

    if hasattr(workload, "price_speedups"):
        workload.price_speedups(good[0].cycles)
    for kind, ps in (("untraced", untraced), ("traced", traced)):
        for attr in ("scaled_s", "wall_s"):
            values = [getattr(p, attr) for p in ps]
            if values:
                q1, q3 = quartiles(values)
                notes.append(
                    f"{len(values)} {kind} passes, {attr}: q1 {q1:.4f} "
                    f"median {statistics.median(values):.4f} q3 {q3:.4f} "
                    f"all " + " ".join(f"{v:.4f}" for v in values)
                )
    notes.append(f"failed_ops_frac {failed / attempted:.6f} frac "
                 f"({failed} of {attempted} program cycles)")
    if trace:
        good_traced = [p for p in traced if not p.failed]
        metrics = per_layer(good, good_traced)
        metrics["failed_ops_frac"] = (failed / attempted, "frac")
    else:
        metrics = end_to_end(good, setup_s, peak_rss_mb)
    correct = failed == 0 and not problems
    return metrics, notes, attempted, failed, correct


def time_setup(name: str) -> float:
    """Median time of fresh processes that import the program and build
    the workload's programs, from process start to exit; host-scaled
    like the passes."""
    times = []
    probe = host_probe_s()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", name],
            check=True, timeout=120,
        )
        elapsed = time.perf_counter() - start
        next_probe = host_probe_s()
        times.append(host_scaled(elapsed, probe, next_probe))
        probe = next_probe
    return statistics.median(times)


def main(argv=None) -> int:
    use_source_tree()
    import cycles as cyc

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(cyc.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        for program in cyc.WORKLOADS[args.workload]().programs():
            program.build_original()
        return 0

    metrics, notes, attempted, failed, correct = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        setup_s=float("nan") if args.trace else time_setup(args.workload),
    )
    for note in notes:
        print(note)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
