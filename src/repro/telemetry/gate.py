"""``repro attribute BASE HEAD``: the perf-smoke gate over perfbench results.

BASE and HEAD are directories of perfbench result lines.  Each holds one
file per workload and trace mode, ``<workload>.trace0.jsonl`` and/or
``<workload>.trace1.jsonl``, with the last stdout line of one
``perfbench/run.py`` run per line.  ``make perf-smoke`` writes them,
alternating base and head runs on one host.

For every metric the gate compares the median over HEAD's runs with the
median over BASE's runs.  The noise band comes from the runs themselves:
the sum of the two sides' interquartile ranges, and never less than
:data:`BAND_FLOOR` of the base median.  A move inside the band is noise.
The verdict is:

- **trace 0** (end-to-end metrics): a metric worse beyond its band fails
  the gate;
- **trace 1** (per-layer self times and exact counters): each layer's
  self time is taken as a share of its run's traced wall, because
  perfbench does not scale self times for the host's speed and the
  host's drift moves every layer alike.  The layers are ranked by how
  far their share moved, ``unattributed_s`` is the unexplained row, and
  the row that moved most is named dominant only if its move lies
  outside its own band; exact counts that changed are listed;
- any HEAD run with a failed program cycle or a failed check fails the
  gate.

A band taken from run spread means something only when both sides ran
on the same host, which is why there is no committed baseline.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .._compat import fold_sum

#: The narrowest band, as a fraction of the base median.  It applies
#: where both sides' runs agree more closely than this (``peak_rss_mb``,
#: the exact error metrics, a single run per side).
BAND_FLOOR = 0.05

#: End-to-end metrics where a larger value is better; the rest are costs.
HIGHER_IS_BETTER = frozenset(
    {"accesses_per_s", "samples_per_s", "advice_match_frac"})

#: Trace-1 metrics in seconds that are not a layer's self time.
UNEXPLAINED = "unattributed_s"
NOT_LAYERS = frozenset({UNEXPLAINED, "trace_overhead_s"})

#: (workload, trace mode) -> the runs of one side.
Key = Tuple[str, int]


class GateInputError(ValueError):
    """A result directory is missing, unreadable or does not match the
    other side; ``repro attribute`` exits 2 on it."""


@dataclass
class Run:
    """One perfbench result line."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    correct: bool


def _run(path: Path, lineno: int, line: str) -> Run:
    where = f"{path}:{lineno}"
    try:
        result = json.loads(line)
        metrics = {name: float(entry["value"])
                   for name, entry in result["metrics"].items()}
        units = {name: str(entry.get("unit", ""))
                 for name, entry in result["metrics"].items()}
        run = Run(metrics, units, int(result["attempted"]),
                  int(result["failed"]), result["correct"] is True)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise GateInputError(
            f"{where}: not a perfbench result line ({type(exc).__name__}: "
            f"{exc})"
        ) from None
    bad = sorted(name for name, value in metrics.items()
                 if not math.isfinite(value))
    if bad:
        raise GateInputError(f"{where}: non-finite metrics {bad}")
    return run


def load_runs(directory: Union[str, Path]) -> Dict[Key, List[Run]]:
    """Every ``<workload>.trace{0,1}.jsonl`` file in ``directory``."""
    path = Path(directory)
    if not path.is_dir():
        raise GateInputError(f"{directory}: no such directory")
    runs: Dict[Key, List[Run]] = {}
    for file in sorted(path.glob("*.trace[01].jsonl")):
        workload, trace = file.name[: -len(".trace0.jsonl")], int(file.name[-7])
        try:
            lines = file.read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise GateInputError(f"{file}: unreadable ({exc})") from None
        found = [_run(file, n, line)
                 for n, line in enumerate(lines, 1) if line.strip()]
        if not found:
            raise GateInputError(f"{file}: no result lines")
        runs[(workload, trace)] = found
    if not runs:
        raise GateInputError(
            f"{directory}: no <workload>.trace0.jsonl or .trace1.jsonl files"
        )
    return runs


def _iqr(values: List[float]) -> float:
    """Interquartile range, with quartiles interpolated between the
    data points (numpy's default): over 9 runs, the 3rd to the 7th."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


@dataclass
class Delta:
    """One metric's move from the base median to the head median."""

    name: str
    unit: str
    base: float
    head: float
    #: Half-width of the noise band, in the metric's unit.
    band: float

    @classmethod
    def of(cls, name: str, base: List[Run], head: List[Run]) -> "Delta":
        b = [run.metrics[name] for run in base]
        h = [run.metrics[name] for run in head]
        median = statistics.median(b)
        return cls(name, base[0].units.get(name, ""), median,
                   statistics.median(h),
                   max(BAND_FLOOR * abs(median), _iqr(b) + _iqr(h)))

    @property
    def change(self) -> float:
        return self.head - self.base

    @property
    def outside(self) -> bool:
        return abs(self.change) > self.band

    @property
    def worse(self) -> bool:
        loss = -self.change if self.name in HIGHER_IS_BETTER else self.change
        return loss > self.band

    def percent(self, value: float, sign: str = "+") -> str:
        """``value`` as a percentage of the base median."""
        if self.base == 0:
            return "n/a" if value else "0.0%"
        return f"{value / abs(self.base) * 100:{sign}.1f}%"


@dataclass
class Verdict:
    """The gate's report: what it printed and why it failed, if it did."""

    lines: List[str]
    failures: List[str]

    def render(self) -> str:
        tail = ([f"FAIL: {reason}" for reason in self.failures]
                or ["OK: no end-to-end metric is worse beyond its band, "
                    "and no head run failed"])
        return "\n".join(self.lines + tail)


def _common(base: List[Run], head: List[Run]) -> Tuple[List[str], List[str]]:
    """Metric names on both sides (in head order), and the rest."""
    in_base = set.intersection(*(set(r.metrics) for r in base))
    in_head = set.intersection(*(set(r.metrics) for r in head))
    common = [name for name in head[0].metrics if name in in_base & in_head]
    return common, sorted(in_base ^ in_head)


def _end_to_end(workload: str, names: List[str], base, head,
                lines: List[str], failures: List[str]) -> None:
    for name in names:
        d = Delta.of(name, base, head)
        verdict = ("within band" if not d.outside
                   else "WORSE" if d.worse else "better")
        lines.append(
            f"  {name:20s} {d.base:11.5g} -> {d.head:<11.5g} {d.unit:5s} "
            f"{d.percent(d.change):>7s}  band ±{d.percent(d.band, ''):6s} "
            f"{verdict}"
        )
        if d.worse:
            failures.append(
                f"{workload} {name} worse: {d.base:.5g} -> {d.head:.5g} "
                f"{d.unit} ({d.percent(d.change)}, band "
                f"±{d.percent(d.band, '')})"
            )


def _shares(runs: List[Run], names: List[str]) -> List[Run]:
    """Each run with ``names`` as shares of their total, the traced wall."""
    shared = []
    for run in runs:
        total = fold_sum(run.metrics[n] for n in names)
        if total <= 0:
            raise GateInputError(f"a traced run's layer times sum to {total}")
        shared.append(replace(run, metrics={n: run.metrics[n] / total
                                            for n in names}))
    return shared


def _layers(names: List[str], base, head, lines: List[str]) -> None:
    """Rank the layers by how far their share of the traced wall moved,
    and name the dominant one."""
    rows = [n for n in names
            if base[0].units.get(n) == "s" and n not in NOT_LAYERS]
    if UNEXPLAINED in names:
        rows.append(UNEXPLAINED)
    if not rows:
        raise GateInputError("traced runs without layer self times")
    base_shares, head_shares = _shares(base, rows), _shares(head, rows)
    shares = {n: Delta.of(n, base_shares, head_shares) for n in rows}
    rows.sort(key=lambda n: (n == UNEXPLAINED, -abs(shares[n].change)))
    moved = max(rows, key=lambda n: abs(shares[n].change))
    dominant = moved if shares[moved].outside else None
    for name in rows:
        d, t = shares[name], Delta.of(name, base, head)
        label = "unexplained" if name == UNEXPLAINED else name
        verdict = ("within band" if not d.outside
                   else "larger share" if d.change > 0 else "smaller share")
        mark = "  <- dominant" if name == dominant else ""
        lines.append(
            f"  {label:20s} {d.base:6.1%} -> {d.head:6.1%} "
            f"{d.change * 100:+5.1f} pp  band ±{d.band * 100:4.1f} pp  "
            f"[{t.base:.4f} -> {t.head:.4f} s]  {verdict}{mark}"
        )
    if dominant is None:
        lines.append("  no dominant layer: the largest move is inside its "
                     "noise band")
    counts = [Delta.of(n, base, head) for n in names
              if base[0].units.get(n) == "count"]
    changed = [f"{d.name} {d.base:.0f} -> {d.head:.0f}"
               for d in counts if d.change]
    if changed:
        lines.append("  exact counts changed: " + ", ".join(changed))


def compare(base: Dict[Key, List[Run]], head: Dict[Key, List[Run]]) -> Verdict:
    """Gate ``head`` against ``base``; both from :func:`load_runs`."""
    def label(keys):
        return ", ".join(f"{w}.trace{t}" for w, t in sorted(keys))

    if set(base) != set(head):
        problems = []
        if set(base) - set(head):
            problems.append(f"only in base: {label(set(base) - set(head))}")
        if set(head) - set(base):
            problems.append(f"only in head: {label(set(head) - set(base))}")
        raise GateInputError(
            "base and head cover different workloads; " + "; ".join(problems)
        )
    lines: List[str] = [
        f"band: the sum of both sides' interquartile ranges over their "
        f"runs, at least {BAND_FLOOR:.0%} of the base median"
    ]
    failures: List[str] = []
    for key in sorted(base):
        workload, trace = key
        b, h = base[key], head[key]
        names, one_sided = _common(b, h)
        kind = ("end to end" if trace == 0
                else "layer self times, share of the traced wall")
        lines.append(f"{workload} (trace {trace}, {kind}): "
                     f"{len(b)} base runs, {len(h)} head runs")
        if trace == 0:
            _end_to_end(workload, names, b, h, lines, failures)
        else:
            _layers(names, b, h, lines)
        if one_sided:
            lines.append(f"  on one side only, not compared: "
                         f"{', '.join(one_sided)}")
        for side, runs in (("base", b), ("head", h)):
            broken = [r for r in runs if r.failed or not r.correct]
            if not broken:
                continue
            what = (f"{len(broken)} of {len(runs)} {side} runs not correct "
                    f"({sum(r.failed for r in runs)} of "
                    f"{sum(r.attempted for r in runs)} program cycles "
                    f"failed)")
            lines.append(f"  {what}")
            if side == "head":
                failures.append(f"{workload} trace {trace}: {what}")
    return Verdict(lines, failures)
