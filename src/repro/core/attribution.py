"""Loop-level attribution tables (the code-centric view).

Builds, for one hot data object, the table the paper shows as Table 6:
each loop's share of the object's latency and the field offsets it
touches. This is the intermediate product the affinity computation
consumes, and the first thing a user reads to understand *where* a
structure is hot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .._compat import fold_sum
from ..binary.loopmap import LoopMap
from ..profiler.profile import DataIdentity, ThreadProfile
from .streams import NO_LOOP, streams_by_loop
from .structsize import field_offset


@dataclass
class LoopAccessEntry:
    """One loop's accesses to one data object, broken down by offset."""

    loop_id: int
    label: str
    line_range: Tuple[int, int]
    latency: float = 0.0
    offset_latency: Dict[int, float] = field(default_factory=dict)

    @property
    def offsets(self) -> List[int]:
        return sorted(self.offset_latency)

    def add(self, offset: int, latency: float) -> None:
        self.latency += latency
        self.offset_latency[offset] = self.offset_latency.get(offset, 0.0) + latency


def loop_offset_table(
    profile: ThreadProfile,
    identity: DataIdentity,
    size: int,
    loop_map: Optional[LoopMap] = None,
) -> Dict[int, LoopAccessEntry]:
    """Aggregate a data object's stream latencies per (loop, offset).

    ``size`` is the recovered structure size (Eq 5); streams without a
    sampled address are skipped (they contributed no latency either).
    Samples outside any loop land in the ``NO_LOOP`` bucket.
    """
    table: Dict[int, LoopAccessEntry] = {}
    for loop_id, streams in streams_by_loop(profile, identity).items():
        if loop_id == NO_LOOP or loop_map is None:
            label, line_range = "<no loop>", (0, 0)
        else:
            desc = loop_map.loop(loop_id)
            label, line_range = desc.label, desc.line_range
        entry = table.get(loop_id)
        if entry is None:
            entry = LoopAccessEntry(loop_id, label, line_range)
            table[loop_id] = entry
        for stream in streams:
            if stream.min_address is None:
                continue
            entry.add(field_offset(stream, size), stream.total_latency)
    return table


def object_total_latency(table: Dict[int, LoopAccessEntry]) -> float:
    """Total sampled latency of one data object across all loops."""
    return fold_sum(entry.latency for entry in table.values())


def loop_share_rows(
    table: Dict[int, LoopAccessEntry],
) -> List[Tuple[str, float, List[int]]]:
    """Rows of (loop label, latency share, offsets) — Table 6's shape."""
    total = object_total_latency(table)
    rows = []
    for entry in sorted(table.values(), key=lambda e: -e.latency):
        share = entry.latency / total if total > 0 else 0.0
        rows.append((entry.label, share, entry.offsets))
    return rows
