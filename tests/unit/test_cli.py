"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestListCommand:
    def test_lists_all_seven_workloads(self):
        code, text = run_cli("list")
        assert code == 0
        for name in ("179.ART", "462.libquantum", "TSP", "Mser",
                     "CLOMP 1.2", "Health", "NN"):
            assert name in text

    def test_marks_parallel_benchmarks(self):
        _, text = run_cli("list")
        assert "parallel x4" in text
        assert "sequential" in text


class TestAnalyzeCommand:
    def test_analyze_prints_report_and_overhead(self):
        code, text = run_cli("analyze", "462.libquantum", "--scale", "0.1")
        assert code == 0
        assert "hot data objects" in text
        assert "reg_nodes" in text
        assert "monitoring overhead" in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("analyze", "nonexistent")


class TestAnalyzeCheckFlag:
    def test_check_cross_validates_and_passes(self):
        code, text = run_cli("analyze", "462.libquantum", "--scale", "0.1",
                             "--check")
        assert code == 0
        assert "cross-validation" in text
        assert "OK" in text

    def test_check_reports_per_object_sizes(self):
        _, text = run_cli("analyze", "462.libquantum", "--scale", "0.1",
                          "--check")
        assert "size static=16 sampled=16" in text


class TestLintCommand:
    def test_single_workload_lints(self):
        code, text = run_cli("lint", "Health", "--scale", "0.05")
        assert code == 0
        assert "== lint: Health" in text

    def test_all_covers_every_workload_plus_regroup(self):
        code, text = run_cli("lint", "all", "--scale", "0.05")
        assert code == 0
        for name in ("179.ART", "462.libquantum", "TSP", "Mser",
                     "CLOMP 1.2", "Health", "NN", "nbody-soa"):
            assert f"== lint: {name}" in text

    def test_strict_passes_thanks_to_suppressions(self):
        code, text = run_cli("lint", "all", "--scale", "0.05", "--strict")
        assert code == 0
        assert "suppressed[dead-field]" in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("lint", "nonexistent")


class TestOptimizeCommand:
    def test_optimize_reports_split_and_speedup(self):
        code, text = run_cli("optimize", "462.libquantum", "--scale", "0.3")
        assert code == 0
        assert "advice: split quantum_reg_node_struct" in text
        assert "speedup:" in text


class TestRegroupCommand:
    def test_regroup_finds_the_interleaving(self):
        code, text = run_cli("regroup", "--scale", "0.35")
        assert code == 0
        assert "regroup [ax, ay, az]" in text
        assert "speedup:" in text


class TestAccuracyCommand:
    def test_accuracy_table_includes_corrected_column(self):
        code, text = run_cli("accuracy", "--trials", "50")
        assert code == 0
        assert "corrected" in text
        assert "lower bound" in text


class TestViewsCommand:
    def test_views_renders_both_pivots(self):
        code, text = run_cli("views", "Mser", "--scale", "0.1")
        assert code == 0
        assert "=== code-centric view ===" in text
        assert "=== data-centric view ===" in text
        assert "forest" in text


class TestSensitivityCommand:
    def test_sweep_renders_table(self):
        code, text = run_cli("sensitivity", "462.libquantum",
                             "--scale", "0.1", "--periods", "101", "1009")
        assert code == 0
        assert "advice matches paper" in text
        assert "101" in text and "1009" in text


class TestAnalyzeJsonMode:
    def test_json_output_parses_with_expected_keys(self):
        code, text = run_cli("analyze", "462.libquantum", "--scale", "0.1",
                             "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["workload"] == "462.libquantum"
        for key in ("pmu", "sampling_period", "deployment_period",
                    "overhead_percent", "overhead_account", "hot", "objects"):
            assert key in payload
        assert payload["pmu"] == "PEBS-LL"
        names = {obj["name"] for obj in payload["objects"]}
        assert "reg_nodes" in names

    def test_json_overhead_account_components_sum(self):
        _, text = run_cli("analyze", "462.libquantum", "--scale", "0.1",
                          "--json")
        account = json.loads(text)["overhead_account"]
        total = sum(account["components_percent"].values())
        assert abs(total - account["overhead_percent"]) < 1e-9

    def test_json_with_check_adds_verdict(self):
        code, text = run_cli("analyze", "462.libquantum", "--scale", "0.1",
                             "--json", "--check")
        assert code == 0
        assert json.loads(text)["cross_validation_ok"] is True


class TestWorkloadAliases:
    def test_aliases_resolve(self):
        from repro.cli import resolve_workload

        assert resolve_workload("art") == "179.ART"
        assert resolve_workload("libquantum") == "462.libquantum"
        assert resolve_workload("clomp") == "CLOMP 1.2"
        assert resolve_workload("tsp") == "TSP"
        assert resolve_workload("179.ART") == "179.ART"
        assert resolve_workload("no-such") is None


class TestTraceCommand:
    def test_trace_writes_telemetry_files(self, tmp_path):
        code, text = run_cli("trace", "libquantum", "--scale", "0.1",
                             "--telemetry", str(tmp_path))
        assert code == 0
        assert "traced 462.libquantum" in text
        assert "stages:" in text
        for stage in ("run", "simulate", "analyze", "split", "re-run"):
            assert stage in text
        for name in ("trace.json", "telemetry.jsonl", "metrics.prom",
                     "overhead.json"):
            assert (tmp_path / name).exists()

    def test_trace_unknown_workload_exits_2(self, tmp_path):
        code, text = run_cli("trace", "bogus", "--telemetry", str(tmp_path))
        assert code == 2
        assert "unknown workload" in text


class TestStatsCommand:
    def test_stats_shows_cache_counters_and_account(self):
        code, text = run_cli("stats", "--scale", "0.1")
        assert code == 0
        assert text.startswith("# walk kernel: ")
        assert 'repro_memsim_cache_misses_total{level="L1"}' in text
        assert 'repro_memsim_cache_misses_total{level="L3"}' in text
        assert "self-overhead account:" in text
        assert "overhead (sum)" in text


class TestTelemetryFlag:
    def test_analyze_telemetry_exports_files(self, tmp_path):
        code, text = run_cli("analyze", "462.libquantum", "--scale", "0.1",
                             "--telemetry", str(tmp_path))
        assert code == 0
        assert (tmp_path / "trace.json").exists()
        assert "telemetry files" in text

    def test_optimize_telemetry_exports_files(self, tmp_path):
        code, text = run_cli("optimize", "462.libquantum", "--scale", "0.3",
                             "--telemetry", str(tmp_path))
        assert code == 0
        assert (tmp_path / "trace.json").exists()
        assert "speedup:" in text


class TestLintJsonFormat:
    def test_json_payload_shape(self):
        code, text = run_cli("lint", "Health", "--scale", "0.05",
                             "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] is True
        assert payload["strict"] is False
        (report,) = payload["reports"]
        assert report["program"] == "Health"
        assert "findings" in report
        assert "suppressed" in report

    def test_json_all_strict_exit_contract(self):
        code, text = run_cli("lint", "all", "--scale", "0.05", "--strict",
                             "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert payload["strict_ok"] is True
        names = {r["program"] for r in payload["reports"]}
        assert "AddrEscape" in names
        assert "OverlapView" in names


class TestVerifyCommand:
    def test_single_safe_workload(self):
        code, text = run_cli("verify", "NN", "--scale", "0.05")
        assert code == 0
        assert "SAFE" in text

    def test_adversarial_workload_expected_unsafe(self):
        code, text = run_cli("verify", "AddrEscape", "--scale", "0.05")
        assert code == 0
        assert "UNSAFE, as expected" in text
        assert "main:" in text

    def test_multicore_runs_false_sharing_oracle(self):
        code, text = run_cli("verify", "OverlapView", "--scale", "0.05")
        assert code == 0
        assert "false-sharing oracle" in text
        assert "[OK]" in text


class TestOptimizeVerifyFlag:
    def test_safe_split_is_applied(self):
        code, text = run_cli("optimize", "NN", "--scale", "0.05", "--verify")
        assert code == 0
        assert "split safety: neighbors: SAFE" in text
        assert "speedup:" in text

    def test_unsafe_advice_is_withheld(self):
        code, text = run_cli("optimize", "AddrEscape", "--scale", "0.05",
                             "--verify")
        assert code == 1
        assert "UNSAFE" in text
        assert "withheld (not applied)" in text
        assert "no safe split to apply" in text

    def test_without_verify_unsafe_split_still_applies(self):
        # Documents the hazard --verify exists to close: without the
        # gate, the profitable-but-illegal split goes through.
        code, text = run_cli("optimize", "AddrEscape", "--scale", "0.05")
        assert code == 0
        assert "advice: split packet" in text


class TestListAdversarialMarker:
    def test_adversarial_workloads_are_marked(self):
        code, text = run_cli("list")
        assert code == 0
        assert "AddrEscape" in text
        assert "OverlapView" in text
        assert text.count("[adversarial: split is unsafe]") == 2


class TestParserBasics:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli()

    @pytest.mark.parametrize("argv", [
        ("table3", "--quiet"),
        ("analyze", "179.ART", "--live", "live.jsonl"),
        ("summary", "--deadline", "60"),
        ("overhead", "spec", "--flightrec", "flightrec.json"),
        ("dash", "dash.html"),
    ])
    def test_removed_live_surface_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


class TestNumericValidation:
    """Out-of-range numbers are usage errors (exit 2), never a silent
    fallback to a default or a traceback from deep inside a run."""

    @pytest.mark.parametrize("argv", [
        ("analyze", "179.ART", "--period", "0"),
        ("analyze", "179.ART", "--period", "-5"),
        ("optimize", "179.ART", "--period", "0"),
        ("views", "TSP", "--period", "0"),
        ("trace", "art", "--period", "0"),
        ("stats", "art", "--period", "0"),
        ("sensitivity", "179.ART", "--periods", "127", "0"),
        ("accuracy", "--trials", "0"),
        ("analyze", "179.ART", "--scale", "0"),
        ("analyze", "179.ART", "--scale", "-1"),
        ("analyze", "179.ART", "--scale", "nan"),
        ("table3", "--scale", "0"),
        ("lint", "all", "--scale", "-0.5"),
        ("verify", "--scale", "0"),
        ("regroup", "--scale", "0"),
        ("art", "--scale", "inf"),
        ("summary", "--scale", "0"),
        ("table3", "--jobs", "-3"),
        ("overhead", "spec", "--jobs", "-1"),
        ("views", "TSP", "--scale", "0"),
        ("sensitivity", "179.ART", "--scale", "-1"),
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_period_one_is_honoured(self):
        code, text = run_cli("analyze", "462.libquantum", "--scale", "0.02",
                             "--period", "1", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["sampling_period"] == 1
