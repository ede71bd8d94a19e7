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
"""

import io
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"


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
