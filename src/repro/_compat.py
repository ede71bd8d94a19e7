"""Version- and platform-guarded helpers.

``dataclass(slots=True)`` landed in 3.10; hot per-sample classes want
slots (no per-instance ``__dict__``, faster attribute access) without
dropping the 3.9 floor declared in pyproject. :func:`slotted_dataclass`
passes ``slots=True`` where available and degrades to a plain dataclass
on 3.9 — same API, just without the memory savings there.

:func:`effective_cpu_count` is the one place that answers "how many
CPUs may this process actually use": the runner pool's default size
(``--jobs 0``) goes through it rather than ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

#: True when ``dataclass(slots=True)`` is available (Python >= 3.10).
DATACLASS_SLOTS = sys.version_info >= (3, 10)


def slotted_dataclass(**kwargs):
    """``@dataclass(slots=True, **kwargs)``, minus ``slots`` on 3.9.

    Use for mutable hot-path classes updated once per sample or access;
    frozen/NamedTuple records don't need it (NamedTuples never carry a
    ``__dict__``).
    """
    if DATACLASS_SLOTS:
        kwargs.setdefault("slots", True)
    return dataclass(**kwargs)


def effective_cpu_count() -> int:
    """CPUs this process may run on, honoring affinity limits.

    ``os.cpu_count()`` reports the machine; cgroup cpusets, ``taskset``,
    and container runtimes often grant fewer. ``sched_getaffinity``
    reflects those limits where it exists (Linux); elsewhere fall back
    to the machine count. Never returns less than 1.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1
