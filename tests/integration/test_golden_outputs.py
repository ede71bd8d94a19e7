"""Golden gate: the stdout of ``repro art``, ``repro accuracy`` and
``repro verify --scale 0.1``, byte for byte.

Together with ``test_golden_table3.py`` these pin the outputs a change
to the cache walk could move: the Table 5/6 and Figure 6 shares
(``art``), the Eq 4 study (``accuracy``), and the split-safety verdicts
with the MESI false-sharing oracle (``verify``; OverlapView's 20
invalidations on 4 lines exercise the directory's write path and its
per-line invalidation log). An intended change must regenerate the
file and say why::

    PYTHONPATH=src python -m repro art > tests/data/golden_art.txt
    PYTHONPATH=src python -m repro accuracy > tests/data/golden_accuracy.txt
    PYTHONPATH=src python -m repro verify --scale 0.1 > tests/data/golden_verify.txt

The goldens must also hold on every supported Python.  Since 3.12 the
built-in ``sum()`` adds floats with compensated summation, so a bare
float ``sum()`` that reaches output can move a last digit there; the
last test replays all four goldens with 3.12's ``sum()`` swapped in, so
such a ``sum()`` fails on any interpreter (the fix is
``repro._compat.fold_sum``).
"""

import builtins
import io
import math
from pathlib import Path

import pytest

from repro._compat import fold_sum
from repro.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()`` on any interpreter.

    Floats are added with Neumaier's compensated summation, ints inside
    a float total are added plainly, and an all-integer or non-numeric
    input goes to the interpreter's own ``sum()`` unchanged.
    """
    items = list(iterable)
    if (type(start) not in (int, float)
            or any(type(x) not in (int, float, bool) for x in items)
            or not any(type(x) is float for x in (start, *items))):
        return _builtin_sum(items, start)
    total, rest = start, iter(items)
    if type(total) is int:
        for item in rest:
            total += item
            if type(total) is float:
                break
    compensation = 0.0
    for item in rest:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
        else:
            total += float(item)
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["art"], "golden_art.txt"),
        (["accuracy"], "golden_accuracy.txt"),
        (["verify", "--scale", "0.1"], "golden_verify.txt"),
    ],
    ids=["art", "accuracy", "verify"],
)
def test_stdout_matches_golden(argv, golden):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    assert out.getvalue() == (DATA / golden).read_text()


def test_compensated_sum_differs_from_a_left_fold():
    tenths = [0.1] * 10
    assert fold_sum(tenths) == 0.9999999999999999
    assert compensated_sum(tenths) == 1.0
    assert compensated_sum([1, 2, 3]) == 6
    assert type(compensated_sum([1, True])) is int
    assert compensated_sum([[1], [2]], []) == [1, 2]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["table3", "--json"], "golden_table3.json"),
        (["art"], "golden_art.txt"),
        (["accuracy"], "golden_accuracy.txt"),
        (["verify", "--scale", "0.1"], "golden_verify.txt"),
    ],
    ids=["table3", "art", "accuracy", "verify"],
)
def test_goldens_hold_under_compensated_sum(argv, golden, monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    out = io.StringIO()
    assert main(argv, out=out) == 0
    assert out.getvalue() == (DATA / golden).read_text()
