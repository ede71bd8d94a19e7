"""Exporters: JSONL events, Chrome ``trace_event``, Prometheus text.

Three formats, three audiences:

- ``telemetry.jsonl`` — one JSON object per line (spans, metric
  samples, overhead accounts); greppable and trivially toolable, the
  DINAMITE-style structured event stream;
- ``trace.json`` — the Chrome ``trace_event`` format (complete ``"X"``
  events), loadable in Perfetto or ``chrome://tracing`` for a visual
  timeline of the pipeline stages;
- ``metrics.prom`` — the Prometheus text exposition format, scrapeable
  as-is.

``to_jsonable`` is the shared encoder; the CLI's ``--json`` output
modes reuse it so machine-readable results and telemetry agree on how
values serialize.
"""

from __future__ import annotations

import dataclasses
import json
import math
from array import array
from pathlib import Path, PurePath
from typing import Dict, Iterator, List, Optional, Union

from .metrics import Histogram, MetricsRegistry
from .session import TelemetrySession
from .spans import Span, Tracer

PathLike = Union[str, Path]


def to_jsonable(obj):
    """Recursively convert ``obj`` into JSON-encodable primitives.

    Handles dataclasses, mappings with non-string keys (tuple keys join
    with ``/``), sets (sorted), tuples, non-finite floats (encoded as
    strings, since JSON has no Infinity/NaN), ``array.array`` columns
    (the batched engine's ``array('q')`` address columns become plain
    lists), and paths (their string form) — the latter two must
    round-trip, not stringify to ``repr``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, PurePath):
        return str(obj)
    if isinstance(obj, array):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(obj, key=repr)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


# -- Chrome trace_event ----------------------------------------------------


def chrome_trace(tracer: Tracer, *, pid: int = 1) -> dict:
    """Render the span forest as a Chrome/Perfetto trace document.

    Every span becomes a complete (``"ph": "X"``) event with
    microsecond timestamps relative to the earliest span, so the trace
    starts at t=0 regardless of the process clock.
    """
    events: List[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro pipeline"},
        }
    ]
    roots = list(tracer.roots)
    origin = min((span.start for span in roots), default=0.0)
    for root in roots:
        for span in root.walk():
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "name": span.name,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "args": to_jsonable(span.attributes),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- JSONL event stream ----------------------------------------------------


def _span_events(span: Span, parent_id: Optional[int], ids: Iterator[int]):
    span_id = next(ids)
    yield {
        "type": "span",
        "id": span_id,
        "parent": parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attributes": to_jsonable(span.attributes),
    }
    for child in span.children:
        yield from _span_events(child, span_id, ids)


def telemetry_events(session: TelemetrySession) -> Iterator[dict]:
    """Every recorded fact as one flat event dict (JSONL rows)."""
    ids = iter(range(1, 1 << 30))
    for root in session.tracer.roots:
        yield from _span_events(root, None, ids)
    for instrument in session.metrics.instruments():
        event = {
            "type": "metric",
            "kind": instrument.kind,
            "name": instrument.name,
            "labels": dict(instrument.labels),
        }
        if isinstance(instrument, Histogram):
            event["sum"] = instrument.sum
            event["count"] = instrument.count
            event["buckets"] = [
                {"le": to_jsonable(edge), "count": count}
                for edge, count in instrument.cumulative()
            ]
        else:
            event["value"] = instrument.value
        yield event
    for account in session.overhead_accounts:
        yield {"type": "overhead_account", **to_jsonable(account.to_dict())}


def jsonl(session: TelemetrySession) -> str:
    return "\n".join(
        json.dumps(event, sort_keys=True) for event in telemetry_events(session)
    )


# -- Prometheus text exposition --------------------------------------------


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The Prometheus text exposition format (v0.0.4)."""
    lines: List[str] = []
    seen_header: Dict[str, str] = {}
    for instrument in registry.instruments():
        if instrument.name not in seen_header:
            seen_header[instrument.name] = instrument.kind
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        elif seen_header[instrument.name] != instrument.kind:
            raise ValueError(
                f"metric {instrument.name!r} registered with mixed kinds"
            )
        if isinstance(instrument, Histogram):
            base = dict(instrument.labels)
            for edge, count in instrument.cumulative():
                labels = {**base, "le": _format_value(edge)}
                inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
                lines.append(f"{instrument.name}_bucket{{{inner}}} {count}")
            suffix = instrument.label_suffix
            lines.append(
                f"{instrument.name}_sum{suffix} "
                f"{_format_value(instrument.sum)}"
            )
            lines.append(f"{instrument.name}_count{suffix} {instrument.count}")
        else:
            lines.append(
                f"{instrument.name}{instrument.label_suffix} "
                f"{_format_value(instrument.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# -- file output -----------------------------------------------------------


def write_telemetry(session: TelemetrySession, out_dir: PathLike) -> List[Path]:
    """Write all three export formats into ``out_dir``; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    trace_path = out / "trace.json"
    trace_path.write_text(json.dumps(chrome_trace(session.tracer), indent=2))
    written.append(trace_path)

    events_path = out / "telemetry.jsonl"
    events_path.write_text(jsonl(session) + "\n")
    written.append(events_path)

    metrics_path = out / "metrics.prom"
    metrics_path.write_text(prometheus_text(session.metrics))
    written.append(metrics_path)

    if session.overhead_accounts:
        overhead_path = out / "overhead.json"
        overhead_path.write_text(
            json.dumps(
                [a.to_dict() for a in session.overhead_accounts],
                indent=2,
                default=to_jsonable,
            )
        )
        written.append(overhead_path)
    return written
