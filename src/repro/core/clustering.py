"""Clustering the affinity graph into splitting groups.

The paper clusters fields so that "all the edges in a subgraph have
high weights; and each subgraph is a new structure". We realize that as
connected components over the affinity graph restricted to edges at or
above a threshold — simple, deterministic, and exactly reproduces every
grouping reported in §6 (where high affinities are ~0.86-1.0 and low
ones ~0-0.05, leaving a wide safe band for the threshold).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .._compat import fold_sum
from .affinity import AffinityMatrix

#: Edges at or above this affinity bind two fields into one structure.
DEFAULT_THRESHOLD = 0.5


def cluster_offsets(
    affinity: AffinityMatrix,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> List[List[int]]:
    """Partition offsets into high-affinity groups.

    Returns groups sorted by (descending size, first offset); each group
    is internally sorted by offset. Offsets with no strong partner come
    out as singletons — the paper splits those into their own structs.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    parent: Dict[int, int] = {o: o for o in affinity.offsets}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, value in affinity.pairs():
        if value >= threshold:
            parent[find(i)] = find(j)

    groups: Dict[int, List[int]] = {}
    for offset in affinity.offsets:
        groups.setdefault(find(offset), []).append(offset)
    result = [sorted(g) for g in groups.values()]
    result.sort(key=lambda g: (-len(g), g[0]))
    return result


def group_latencies(
    groups: Sequence[Sequence[int]], totals: Dict[int, float]
) -> List[float]:
    """Aggregate per-offset latency into per-group latency."""
    return [fold_sum(totals.get(o, 0.0) for o in group) for group in groups]
