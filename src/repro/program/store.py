"""The content address of an interpreter trace.

:func:`trace_key` hashes everything the interpreter's item stream is a
pure function of — the program IR, the concrete memory layout it is
bound to, the thread count, the trace engine and its batching
constants — into one sha256 hex digest. Two bound programs with the
same key produce the same trace, so anything derived only from the
trace (an unmonitored run's metrics on a fixed machine, say) can be
cached under it. The module stays for that content address: the
benchmark's re-run cache (``perfbench/cycles.py``) keys on it.

Keys must stay stable across releases, or such caches stop hitting:
``TRACE_FORMAT`` and the ``engine`` entry are part of every key's
description, so neither may change unless every key is meant to.
"""

from __future__ import annotations

import json
from hashlib import sha256

from .batch import CHUNK_ROUNDS, MIN_BATCH_TRIPS
from .builder import BoundProgram
from .ir import (
    Access,
    AddrOf,
    Affine,
    Call,
    Compute,
    Const,
    Indirect,
    Loop,
    Mod,
    PtrAccess,
)

#: Part of every key's description; changing it changes every key.
TRACE_FORMAT = 1


def _describe_expr(expr) -> tuple:
    if isinstance(expr, Const):
        return ("const", expr.value)
    if isinstance(expr, Affine):
        return ("affine", expr.var, expr.scale, expr.offset)
    if isinstance(expr, Mod):
        return ("mod", _describe_expr(expr.inner), expr.modulus)
    if isinstance(expr, Indirect):
        return ("indirect", list(expr.table), _describe_expr(expr.inner))
    return ("opaque", repr(expr))


def _describe_aos(aos) -> tuple:
    return (aos.allocation.name, aos.base, aos.stride, aos.count)


def _describe_stmt(stmt, bound: BoundProgram) -> tuple:
    if isinstance(stmt, Access):
        aos, field_name = bound.bindings.resolve(stmt.array, stmt.field)
        field = aos.struct.field(field_name)
        return (
            "access",
            stmt.ip,
            stmt.line,
            stmt.is_write,
            _describe_expr(stmt.index),
            _describe_aos(aos),
            field.offset,
            field.size,
        )
    if isinstance(stmt, Compute):
        return ("compute", stmt.ip, stmt.cycles)
    if isinstance(stmt, Loop):
        return (
            "loop",
            stmt.ip,
            stmt.var,
            stmt.start,
            stmt.stop,
            stmt.step,
            stmt.parallel,
            [_describe_stmt(s, bound) for s in stmt.body],
        )
    if isinstance(stmt, AddrOf):
        backing = [
            _describe_aos(a) for a in bound.bindings.backing_arrays(stmt.array)
        ]
        if stmt.field is not None:
            aos, field_name = bound.bindings.resolve(stmt.array, stmt.field)
            backing = [_describe_aos(aos) + (aos.struct.field(field_name).offset,)]
        return (
            "addrof",
            stmt.ip,
            stmt.dest,
            _describe_expr(stmt.index),
            backing,
        )
    if isinstance(stmt, PtrAccess):
        return ("ptr", stmt.ip, stmt.ptr, stmt.offset, stmt.size, stmt.is_write)
    if isinstance(stmt, Call):
        return ("call", stmt.ip, stmt.callee, list(stmt.args))
    return ("opaque", type(stmt).__name__, stmt.ip)


def describe_trace_inputs(
    bound: BoundProgram, num_threads: int, *, mode: str = "batched"
) -> dict:
    """Everything the interpreter's item stream is a pure function of.

    ``mode`` is the trace execution engine (``scalar``/``batched``):
    the two modes yield different item *streams* (one-object-per-access
    vs columnar chunks) even though every downstream number is
    identical, so they must not share a content address.
    """
    program = bound.program
    program.require_finalized()
    return {
        "format": TRACE_FORMAT,
        "engine": [MIN_BATCH_TRIPS, CHUNK_ROUNDS],
        "mode": mode,
        "workload": program.name,
        "variant": bound.variant,
        "entry": program.entry,
        "num_threads": num_threads,
        "functions": {
            name: [_describe_stmt(s, bound) for s in fn.body]
            for name, fn in program.functions.items()
        },
    }


def trace_key(
    bound: BoundProgram, num_threads: int, *, mode: str = "batched"
) -> str:
    """sha256 content address of the trace ``bound`` would produce."""
    desc = json.dumps(
        describe_trace_inputs(bound, num_threads, mode=mode),
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256(desc.encode("utf-8")).hexdigest()
