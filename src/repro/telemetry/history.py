"""The bench history store: trajectory, trend, regression attribution.

``repro bench`` snapshots used to pile up as ``BENCH_<stamp>.json``
files at the repo root with no trend view; this module gives them a
home and a memory:

- :func:`record_entry` appends a snapshot to a **content-addressed
  store** (``benchmarks/history/bench-<sha12>.json``): the entry id is
  the SHA-256 of the entry's canonical JSON, so identical runs map to
  one file and an entry can be referenced unambiguously from CI logs
  and dashboards;
- each entry carries the raw bench payload plus a **per-stage rollup**
  (interpret / simulate / sample / end-to-end seconds for both
  engines) and the **git SHA** it measured, so the performance
  trajectory is attributable commit by commit;
- :func:`load_history` also ingests legacy root-level ``BENCH_*.json``
  files, so pre-store snapshots keep contributing to the trend;
- :func:`render_trend` is the ``repro bench --trend`` table with
  sparklines; :func:`attribute` is ``repro attribute BASE HEAD`` — it
  diffs two runs' stage rollups and ranks stages by wall-time delta,
  which is what turns a CI perf-smoke "slower" into "simulate +38%".
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]

#: Bump when the entry layout changes incompatibly.
ENTRY_SCHEMA_VERSION = 1

#: Default store location (satellite: bench output no longer lands at
#: the repo root).
DEFAULT_HISTORY_DIR = "benchmarks/history"

#: The pipeline stages a bench snapshot times in isolation, in
#: pipeline order; ``end_to_end`` is tracked alongside but attributed
#: separately (it is the sum the stages explain).
STAGES = ("interpret", "simulate", "sample")

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def git_sha(cwd: PathLike = ".") -> Optional[str]:
    """The current commit's short SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd), capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


# -- entries ----------------------------------------------------------------


def stage_rollup(bench: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """Per-stage wall seconds for both engines, from a bench payload."""
    rollup: Dict[str, Dict[str, float]] = {}
    layers = bench.get("layers") or {}
    for stage in STAGES:
        layer = layers.get(stage)
        if not layer:
            continue
        rollup[stage] = {
            engine: float(layer[engine]["seconds"])
            for engine in ("scalar", "batched")
            if engine in layer
        }
    end_to_end = bench.get("end_to_end")
    if end_to_end:
        rollup["end_to_end"] = {
            engine: float(end_to_end[engine]["seconds"])
            for engine in ("scalar", "batched")
            if engine in end_to_end
        }
    return rollup


def entry_id(entry: Dict[str, object]) -> str:
    """Content address: SHA-256 over the entry's canonical JSON."""
    body = {k: v for k, v in entry.items() if k != "id"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def make_entry(
    bench: Dict[str, object], *, sha: Optional[str] = None
) -> Dict[str, object]:
    """Wrap a raw bench payload as a history entry (id included)."""
    entry: Dict[str, object] = {
        "schema_version": ENTRY_SCHEMA_VERSION,
        "stamp": str(bench.get("stamp", "")),
        "git_sha": sha,
        "quick": bool(bench.get("quick", False)),
        "stages": stage_rollup(bench),
        "bench": bench,
    }
    entry["id"] = entry_id(entry)
    return entry


def record_entry(
    history_dir: PathLike,
    bench: Dict[str, object],
    *,
    sha: Optional[str] = None,
) -> Tuple[Path, Dict[str, object]]:
    """Append ``bench`` to the store; idempotent for identical content."""
    entry = make_entry(bench, sha=sha)
    directory = Path(history_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"bench-{entry['id']}.json"
    if not path.exists():
        path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path, entry


def load_history(
    history_dir: PathLike,
    *,
    legacy_dirs: Sequence[PathLike] = (".",),
) -> List[Dict[str, object]]:
    """Every entry in the store plus legacy ``BENCH_*.json`` snapshots.

    Legacy files (the pre-store convention: raw bench payloads at the
    repo root) are wrapped as entries on the fly with ``git_sha:
    null``.  Entries are deduplicated by id and sorted by stamp, so
    the trend reads oldest to newest.
    """
    entries: Dict[str, Dict[str, object]] = {}
    directory = Path(history_dir)
    search: List[Tuple[Path, bool]] = [(directory, False)]
    for legacy in legacy_dirs:
        search.append((Path(legacy), True))
    for base, legacy in search:
        if not base.is_dir():
            continue
        pattern = "BENCH_*.json" if legacy else "bench-*.json"
        for path in sorted(base.glob(pattern)):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            entry = (
                make_entry(payload)
                if "bench" not in payload
                else payload
            )
            entries.setdefault(str(entry.get("id", path.name)), entry)
    return sorted(entries.values(), key=lambda e: str(e.get("stamp", "")))


def load_ref(
    token: str, history_dir: PathLike = DEFAULT_HISTORY_DIR
) -> Dict[str, object]:
    """Resolve a CLI reference — a file path or an entry-id prefix.

    A path may be a raw ``BENCH_*.json`` payload or a stored entry;
    either way a full entry comes back.  A non-path token matches by
    unique id prefix against the store.
    """
    path = Path(token)
    if path.is_file():
        payload = json.loads(path.read_text())
        return payload if "bench" in payload else make_entry(payload)
    matches = [
        entry
        for entry in load_history(history_dir, legacy_dirs=())
        if str(entry.get("id", "")).startswith(token)
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise FileNotFoundError(
            f"{token!r} is neither a file nor an entry id in {history_dir}"
        )
    ids = ", ".join(str(e["id"]) for e in matches)
    raise ValueError(f"entry id prefix {token!r} is ambiguous: {ids}")


# -- trend ------------------------------------------------------------------


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline; constant series render mid-height."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_BLOCKS[3] * len(values)
    span = hi - lo
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[int(round((v - lo) / span * top))] for v in values
    )


def _throughput(entry: Dict[str, object]) -> float:
    bench = entry.get("bench", {})
    try:
        return float(bench["end_to_end"]["batched"]["accesses_per_sec"])
    except (KeyError, TypeError):
        return 0.0


def _walk(entry: Dict[str, object]) -> str:
    """Which cache walk a bench ran: ``kernel`` (compiled), ``python``,
    or ``-`` for entries recorded before payloads carried
    ``walk_kernel``."""
    state = entry.get("bench", {}).get("walk_kernel")
    if not isinstance(state, dict):
        return "-"
    return "kernel" if state.get("status") == "compiled" else "python"


def render_trend(
    entries: Sequence[Dict[str, object]], *, history_dir: PathLike = ""
) -> str:
    """The ``repro bench --trend`` table: trajectory oldest->newest."""
    if not entries:
        where = f" in {history_dir}" if history_dir else ""
        return f"bench history: no snapshots{where}"
    lines = [f"bench history: {len(entries)} snapshot(s)"]
    series = [_throughput(e) for e in entries]
    lines.append(
        "batched end-to-end acc/s trend: " + sparkline(series)
    )
    header = (
        f"{'id':14s} {'stamp':15s} {'git':9s} {'quick':5s} "
        f"{'acc/s':>12s} {'speedup':>7s} {'walk':6s}"
        + "".join(f" {stage:>10s}" for stage in STAGES)
    )
    lines.append(header)
    for entry in entries:
        bench = entry.get("bench", {})
        stages = entry.get("stages", {})
        speedup = 0.0
        try:
            speedup = float(bench["end_to_end"]["speedup"])
        except (KeyError, TypeError):
            pass
        row = (
            f"{str(entry.get('id', '?'))[:12]:14s} "
            f"{str(entry.get('stamp', '?')):15s} "
            f"{str(entry.get('git_sha') or '-'):9s} "
            f"{'yes' if entry.get('quick') else 'no':5s} "
            f"{_throughput(entry):>12,.0f} "
            f"{speedup:>6.2f}x "
            f"{_walk(entry):6s}"
        )
        for stage in STAGES:
            seconds = stages.get(stage, {}).get("batched")
            row += (
                f" {seconds:>9.3f}s" if seconds is not None else f" {'-':>10s}"
            )
        lines.append(row)
    return "\n".join(lines)


# -- regression attribution -------------------------------------------------


@dataclass
class StageDelta:
    """One stage's wall-time movement between two runs."""

    stage: str
    base_seconds: float
    head_seconds: float

    @property
    def delta_seconds(self) -> float:
        return self.head_seconds - self.base_seconds

    @property
    def delta_percent(self) -> float:
        if self.base_seconds <= 0:
            return 0.0
        return self.delta_seconds / self.base_seconds * 100.0

    def render(self) -> str:
        return (
            f"{self.stage:10s} {self.delta_seconds:+9.3f}s "
            f"({self.delta_percent:+7.1f}%)  "
            f"[{self.base_seconds:.3f}s -> {self.head_seconds:.3f}s]"
        )


@dataclass
class Attribution:
    """Ranked per-stage wall-time deltas between two history entries."""

    base_id: str
    head_id: str
    engine: str
    deltas: List[StageDelta]
    end_to_end: Optional[StageDelta]

    @property
    def dominant(self) -> Optional[StageDelta]:
        """The stage that moved the most wall time (either direction)."""
        if not self.deltas:
            return None
        return self.deltas[0]

    @property
    def unexplained_seconds(self) -> Optional[float]:
        """End-to-end delta minus the sum of the stage deltas: the part
        of the change the isolated stage timings do not account for
        (None without an end-to-end timing on both sides)."""
        if self.end_to_end is None:
            return None
        return self.end_to_end.delta_seconds - sum(
            d.delta_seconds for d in self.deltas
        )

    def render(self) -> str:
        lines = [
            f"attribution ({self.engine} engine): "
            f"{self.base_id} -> {self.head_id}"
        ]
        if self.end_to_end is not None:
            e = self.end_to_end
            lines.append(
                f"end-to-end: {e.base_seconds:.3f}s -> "
                f"{e.head_seconds:.3f}s ({e.delta_percent:+.1f}%)"
            )
        for i, delta in enumerate(self.deltas):
            marker = "  <- dominant" if i == 0 and delta.delta_seconds else ""
            lines.append(f"  {delta.render()}{marker}")
        if not self.deltas:
            lines.append("  (no per-stage timings in common)")
        unexplained = self.unexplained_seconds
        if unexplained is not None:
            lines.append(
                f"  {'unexplained':10s} {unexplained:+9.3f}s  "
                f"(end-to-end delta minus the stage deltas)"
            )
        return "\n".join(lines)


def _label(entry: Dict[str, object]) -> str:
    sha = entry.get("git_sha")
    ident = str(entry.get("id", "?"))[:12]
    return f"{ident} ({sha})" if sha else ident


def attribute(
    base: Dict[str, object],
    head: Dict[str, object],
    *,
    engine: str = "batched",
) -> Attribution:
    """Diff two entries' stage rollups, most-moved stage first."""
    base_stages = base.get("stages") or stage_rollup(base.get("bench", base))
    head_stages = head.get("stages") or stage_rollup(head.get("bench", head))
    deltas = []
    for stage in STAGES:
        b = base_stages.get(stage, {}).get(engine)
        h = head_stages.get(stage, {}).get(engine)
        if b is None or h is None:
            continue
        deltas.append(StageDelta(stage, float(b), float(h)))
    deltas.sort(key=lambda d: abs(d.delta_seconds), reverse=True)
    end_to_end = None
    b = base_stages.get("end_to_end", {}).get(engine)
    h = head_stages.get("end_to_end", {}).get(engine)
    if b is not None and h is not None:
        end_to_end = StageDelta("end_to_end", float(b), float(h))
    return Attribution(
        base_id=_label(base),
        head_id=_label(head),
        engine=engine,
        deltas=deltas,
        end_to_end=end_to_end,
    )
