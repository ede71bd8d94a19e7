"""Unit tests for the trace content key (``repro.program.store``)."""

from repro.layout import INT, StructType
from repro.program import (
    Access,
    Compute,
    Function,
    Loop,
    WorkloadBuilder,
    affine,
)
from repro.program.store import trace_key

PAIR = StructType("pair", [("a", INT), ("b", INT)])


def program(n=16, compute=True):
    """A small nested-loop workload: accesses, a write and compute."""
    builder = WorkloadBuilder("t")
    builder.add_aos(PAIR, max(n, 4), name="A")
    body = [
        Access(line=11, array="A", field="a", index=affine("i")),
        Access(line=12, array="A", field="b", index=affine("i"),
               is_write=True),
    ]
    if compute:
        body.append(Compute(line=13, cycles=2.0))
    loop = Loop(line=10, var="i", start=0, stop=n, body=body)
    outer = Loop(line=9, var="r", start=0, stop=3, body=[loop], end_line=20)
    return builder.build([Function("main", [outer], line=1)])


class TestContentAddress:
    def test_key_is_stable_and_hexadecimal(self):
        bound = program()
        k1 = trace_key(bound, 1)
        k2 = trace_key(bound, 1)
        assert k1 == k2
        assert len(k1) == 64
        int(k1, 16)

    def test_key_depends_on_threads_and_mode(self):
        bound = program()
        base = trace_key(bound, 1)
        assert trace_key(bound, 2) != base
        assert trace_key(bound, 1, mode="scalar") != base

    def test_key_depends_on_program_shape(self):
        assert trace_key(program(n=16), 1) != trace_key(program(n=17), 1)

    def test_key_of_a_fixed_program_is_pinned(self):
        # The key is a content address that outlives any one release:
        # caches keyed on it must keep hitting, so its value is frozen.
        assert trace_key(program(), 1) == (
            "e63f489640ad65fec9e5c739b394de9b2cf93b5edfe4de951f51a20b59f89989"
        )
