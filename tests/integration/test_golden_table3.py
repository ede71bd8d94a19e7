"""Golden gate: ``repro table3 --json`` at the default scale, byte for byte.

``tests/data/golden_table3.json`` pins every number Tables 3 and 4 are
built from — cycles, speedups, miss reductions, overhead components —
so no change can move the paper's results while the suite stays green.
An intended change to any of them must regenerate the file and say
why::

    PYTHONPATH=src python -m repro table3 --json > tests/data/golden_table3.json
"""

import io
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_table3.json"


def test_table3_json_matches_golden():
    out = io.StringIO()
    assert main(["table3", "--json"], out=out) == 0
    assert out.getvalue() == GOLDEN.read_text()
