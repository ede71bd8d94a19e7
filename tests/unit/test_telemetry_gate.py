"""``repro attribute BASE HEAD``: the perf-smoke gate, on small synthetic
directories of perfbench result lines (no perfbench run)."""

import io
import json

import pytest

from repro.cli import main
from repro.telemetry import gate

#: Five runs' worth of spread: IQR 0.02 on a median of 1.0.
SPREAD = (1.00, 1.02, 0.98, 1.01, 0.99)

UNITS = {"accesses_per_s": "1/s", "peak_rss_mb": "MB",
         "memsim.accesses": "count"}


def result_line(metrics, failed=0):
    return json.dumps({
        "correct": failed == 0,
        "attempted": 28,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "s")}
                    for name, value in metrics.items()},
    })


def write_runs(directory, name, runs):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(
        "".join(result_line(*run) + "\n" for run in runs)
    )


def end_to_end(scale=1.0, failed_in_first=0):
    """Five trace-0 runs: wall_s around ``scale``, steady rate and RSS."""
    return [
        ({"wall_s": scale * s, "accesses_per_s": 1e7 / (scale * s),
          "peak_rss_mb": 60.0}, failed_in_first if i == 0 else 0)
        for i, s in enumerate(SPREAD)
    ]


def layers(walk=0.24, observe=0.02, unattributed=0.05):
    """Five trace-1 runs with the given median self times."""
    return [
        ({"memsim.walk_s": walk * s, "sampling.observe_s": observe * s,
          "unattributed_s": unattributed * s, "trace_overhead_s": 0.01,
          "memsim.accesses": 5324800},)
        for s in SPREAD
    ]


def attribute(base, head):
    out = io.StringIO()
    code = main(["attribute", str(base), str(head)], out=out)
    return code, out.getvalue()


@pytest.fixture
def sides(tmp_path):
    return tmp_path / "base", tmp_path / "head"


class TestEndToEnd:
    def test_worse_beyond_band_fails_naming_workload_and_metric(self, sides):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl", end_to_end())
        write_runs(head, "table2-1core.trace0.jsonl", end_to_end(1.2))
        code, text = attribute(base, head)
        assert code == 1
        assert "FAIL: table2-1core wall_s worse" in text
        assert "FAIL: table2-1core accesses_per_s worse" in text
        assert "peak_rss_mb" not in "".join(
            line for line in text.splitlines() if line.startswith("FAIL")
        )

    def test_delta_inside_band_passes(self, sides):
        base, head = sides
        write_runs(base, "table2-4core.trace0.jsonl", end_to_end())
        write_runs(head, "table2-4core.trace0.jsonl", end_to_end(1.04))
        code, text = attribute(base, head)
        assert code == 0
        assert "within band" in text
        assert text.rstrip().splitlines()[-1].startswith("OK:")

    def test_pass_output_has_no_failure_or_dominant(self, sides):
        base, head = sides
        for side in sides:
            write_runs(side, "table2-1core.trace0.jsonl", end_to_end())
            write_runs(side, "table2-1core.trace1.jsonl", layers())
        code, text = attribute(base, head)
        assert code == 0
        assert "FAIL" not in text and "<- dominant" not in text
        assert text.rstrip().splitlines()[-1].startswith("OK:")

    def test_better_beyond_band_passes(self, sides):
        base, head = sides
        write_runs(base, "dense-sampling.trace0.jsonl", end_to_end())
        write_runs(head, "dense-sampling.trace0.jsonl", end_to_end(0.7))
        code, text = attribute(base, head)
        assert code == 0
        assert "better" in text and "WORSE" not in text

    def test_band_is_the_runs_spread_with_a_floor(self):
        base = [gate.Run({"x": v}, {"x": "s"}, 1, 0, True)
                for v in (1.0, 1.2, 0.8, 1.1, 0.9)]
        assert gate.Delta.of("x", base, base).band == pytest.approx(0.4)
        steady = [gate.Run({"x": 2.0}, {"x": "s"}, 1, 0, True)] * 3
        assert gate.Delta.of("x", steady, steady).band == pytest.approx(
            2.0 * gate.BAND_FLOOR
        )

    def test_failed_head_run_fails_the_gate(self, sides):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl", end_to_end())
        write_runs(head, "table2-1core.trace0.jsonl",
                   end_to_end(failed_in_first=2))
        code, text = attribute(base, head)
        assert code == 1
        assert "FAIL: table2-1core trace 0: 1 of 5 head runs not correct" \
            in text

    def test_failed_base_run_is_reported_but_passes(self, sides):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl",
                   end_to_end(failed_in_first=1))
        write_runs(head, "table2-1core.trace0.jsonl", end_to_end())
        code, text = attribute(base, head)
        assert code == 0
        assert "1 of 5 base runs not correct" in text


class TestLayers:
    def test_dominant_is_the_largest_delta_outside_its_band(self, sides):
        base, head = sides
        write_runs(base, "table2-1core.trace1.jsonl", layers())
        write_runs(head, "table2-1core.trace1.jsonl", layers(walk=0.36))
        code, text = attribute(base, head)
        assert code == 0
        dominant = [line for line in text.splitlines() if "<- dominant" in line]
        assert len(dominant) == 1
        assert dominant[0].split()[0] == "memsim.walk_s"
        assert "[0.2400 -> 0.3600 s]  larger share" in dominant[0]
        ranked = [line.split()[0] for line in text.splitlines()
                  if " pp  band " in line]
        assert ranked == ["memsim.walk_s", "sampling.observe_s", "unexplained"]

    def test_failure_output_names_the_guilty_layer(self, sides):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl", end_to_end())
        write_runs(base, "table2-1core.trace1.jsonl", layers())
        write_runs(head, "table2-1core.trace0.jsonl", end_to_end(1.2))
        write_runs(head, "table2-1core.trace1.jsonl", layers(walk=0.36))
        code, text = attribute(base, head)
        assert code == 1
        assert "FAIL: table2-1core wall_s worse" in text
        dominant = [line for line in text.splitlines() if "<- dominant" in line]
        assert [line.split()[0] for line in dominant] == ["memsim.walk_s"]

    def test_layer_delta_inside_its_band_is_not_named(self, sides):
        base, head = sides
        write_runs(base, "dense-sampling.trace1.jsonl", layers())
        write_runs(head, "dense-sampling.trace1.jsonl", layers(walk=0.25))
        code, text = attribute(base, head)
        assert code == 0
        assert "<- dominant" not in text
        assert "no dominant layer" in text

    def test_uniform_host_drift_names_no_layer(self, sides):
        """Self times are not host-scaled: a host 30% slower moves every
        layer alike, which leaves every share where it was."""
        base, head = sides
        write_runs(base, "table2-4core.trace1.jsonl", layers())
        write_runs(head, "table2-4core.trace1.jsonl",
                   layers(walk=0.312, observe=0.026, unattributed=0.065))
        code, text = attribute(base, head)
        assert code == 0
        assert "<- dominant" not in text
        assert "[0.2400 -> 0.3120 s]  within band" in text

    def test_unexplained_row_is_printed(self, sides):
        base, head = sides
        write_runs(base, "table2-4core.trace1.jsonl", layers())
        write_runs(head, "table2-4core.trace1.jsonl",
                   layers(unattributed=0.09))
        _, text = attribute(base, head)
        rows = [line for line in text.splitlines() if " pp  band " in line]
        assert rows[-1].split()[0] == "unexplained"
        assert "[0.0500 -> 0.0900 s]  larger share  <- dominant" in rows[-1]
        assert not any("<- dominant" in row for row in rows[:-1])
        assert "trace_overhead_s" not in text


class TestUnreadableInput:
    def test_missing_directory(self, sides, capsys):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl", end_to_end())
        code, text = attribute(base, head)
        assert code == 2 and text == ""
        assert "no such directory" in capsys.readouterr().err

    def test_directory_without_result_files(self, sides, capsys):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl", end_to_end())
        head.mkdir()
        (head / "notes.txt").write_text("nothing here\n")
        assert attribute(base, head)[0] == 2
        assert "no <workload>.trace0.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "not json",
        json.dumps({"correct": True, "attempted": 1, "failed": 0}),
        json.dumps({"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"wall_s": {"value": "fast"}}}),
        json.dumps({"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"wall_s": {"value": float("nan")}}}),
    ])
    def test_malformed_line(self, sides, capsys, line):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl", end_to_end())
        head.mkdir()
        (head / "table2-1core.trace0.jsonl").write_text(line + "\n")
        assert attribute(base, head)[0] == 2
        err = capsys.readouterr().err
        assert "table2-1core.trace0.jsonl:1" in err

    def test_workload_disjoint_sides(self, sides, capsys):
        base, head = sides
        write_runs(base, "table2-1core.trace0.jsonl", end_to_end())
        write_runs(head, "table2-4core.trace0.jsonl", end_to_end())
        assert attribute(base, head)[0] == 2
        err = capsys.readouterr().err
        assert "only in base: table2-1core.trace0" in err
        assert "only in head: table2-4core.trace0" in err


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ("bench", "--quick"),
        ("bench", "--trend"),
        ("attribute", "a", "b", "--history", "benchmarks/history"),
        ("attribute", "a", "b", "--engine", "scalar"),
    ])
    def test_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv), out=io.StringIO())
        assert exc.value.code == 2
