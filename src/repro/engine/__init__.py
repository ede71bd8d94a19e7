"""Pipelined trace execution: overlap interpret with simulate/sample.

The profiler's stages are logically a pipeline over ``AccessBatch``
chunks — the interpreter produces them, the cache simulator and the
sampling engine consume them — but historically ran strictly
sequentially in one thread. This package decouples production from
consumption the way PROMPT-style collectors do:

:mod:`repro.engine.stream` runs the interpreter in a producer thread
feeding a bounded queue, so interpret overlaps simulate+sample while
chunk order (and therefore every numeric result) is preserved.

Selection is the ``--pipeline {off,on,auto}`` flag threaded through
:class:`repro.profiler.monitor.Monitor`; ``auto`` enables the overlap
only where it can help (more than one effective CPU).
"""

from .stream import PipelineStats, pipelined, resolve_mode

__all__ = ["PipelineStats", "pipelined", "resolve_mode"]
