"""Unit tests for the bench history store and regression attribution."""

import json
from pathlib import Path

import pytest

from repro.experiments.bench import check_regression
from repro.telemetry import history


def make_bench(stamp="20260101T000000", *, interpret=0.1, simulate=0.8,
               sample=0.05, e2e=1.0, acc=1_000_000, quick=False):
    """A minimal-but-complete bench payload (both engines)."""

    def layer(batched_s):
        scalar_s = batched_s * 4
        return {
            "scalar": {
                "seconds": scalar_s,
                "accesses": acc,
                "accesses_per_sec": acc / scalar_s,
            },
            "batched": {
                "seconds": batched_s,
                "accesses": acc,
                "accesses_per_sec": acc / batched_s,
            },
            "speedup": scalar_s / batched_s,
        }

    return {
        "schema_version": 1,
        "stamp": stamp,
        "quick": quick,
        "accesses": acc,
        "layers": {
            "interpret": layer(interpret),
            "simulate": layer(simulate),
            "sample": layer(sample),
        },
        "end_to_end": layer(e2e),
    }


class TestEntries:
    def test_rollup_covers_stages_and_end_to_end(self):
        rollup = history.stage_rollup(make_bench())
        assert set(rollup) == {"interpret", "simulate", "sample",
                               "end_to_end"}
        assert rollup["simulate"]["batched"] == pytest.approx(0.8)
        assert rollup["simulate"]["scalar"] == pytest.approx(3.2)

    def test_entry_id_is_content_addressed(self):
        bench = make_bench()
        first = history.make_entry(bench)
        second = history.make_entry(json.loads(json.dumps(bench)))
        assert first["id"] == second["id"]
        # Any content change — including provenance — moves the id.
        assert history.make_entry(bench, sha="abc1234")["id"] != first["id"]
        assert history.make_entry(make_bench(simulate=0.9))["id"] != \
            first["id"]

    def test_record_entry_is_idempotent(self, tmp_path):
        store = tmp_path / "history"
        path1, entry1 = history.record_entry(store, make_bench(), sha="aaa")
        mtime = path1.stat().st_mtime_ns
        path2, entry2 = history.record_entry(store, make_bench(), sha="aaa")
        assert path1 == path2
        assert entry1["id"] == entry2["id"]
        assert path1.stat().st_mtime_ns == mtime  # not rewritten
        assert list(store.glob("bench-*.json")) == [path1]


class TestLoadHistory:
    def test_sorted_by_stamp_and_ingests_legacy_files(self, tmp_path):
        store = tmp_path / "history"
        history.record_entry(store, make_bench("20260102T000000"))
        legacy = tmp_path / "BENCH_20260101T000000.json"
        legacy.write_text(json.dumps(make_bench("20260101T000000")))
        entries = history.load_history(store, legacy_dirs=(tmp_path,))
        assert [e["stamp"] for e in entries] == [
            "20260101T000000", "20260102T000000",
        ]
        # Legacy payloads come back wrapped as full entries.
        assert entries[0]["git_sha"] is None
        assert "stages" in entries[0]

    def test_duplicate_content_across_locations_dedupes(self, tmp_path):
        store = tmp_path / "history"
        bench = make_bench()
        history.record_entry(store, bench)
        (tmp_path / "BENCH_20260101T000000.json").write_text(
            json.dumps(bench)
        )
        entries = history.load_history(store, legacy_dirs=(tmp_path,))
        assert len(entries) == 1

    def test_unreadable_files_are_skipped(self, tmp_path):
        store = tmp_path / "history"
        history.record_entry(store, make_bench())
        (store / "bench-garbage.json").write_text("{not json")
        assert len(history.load_history(store, legacy_dirs=())) == 1


class TestLoadRef:
    def test_resolves_file_path_raw_or_entry(self, tmp_path):
        raw = tmp_path / "BENCH_x.json"
        raw.write_text(json.dumps(make_bench()))
        entry = history.load_ref(str(raw))
        assert "bench" in entry and "stages" in entry
        stored, _ = history.record_entry(tmp_path / "h", make_bench())
        assert history.load_ref(str(stored))["id"] == \
            json.loads(stored.read_text())["id"]

    def test_resolves_unique_id_prefix(self, tmp_path):
        store = tmp_path / "history"
        _, entry = history.record_entry(store, make_bench())
        resolved = history.load_ref(entry["id"][:6], store)
        assert resolved["id"] == entry["id"]

    def test_missing_and_ambiguous_refs_raise(self, tmp_path):
        store = tmp_path / "history"
        history.record_entry(store, make_bench("20260101T000000"))
        with pytest.raises(FileNotFoundError):
            history.load_ref("zzzzzz", store)
        # Every id shares the empty prefix -> ambiguous once there are 2.
        history.record_entry(store, make_bench("20260102T000000"))
        with pytest.raises(ValueError):
            history.load_ref("", store)


class TestTrend:
    def test_sparkline_spans_min_to_max(self):
        assert history.sparkline([0.0, 1.0]) == "▁█"
        assert history.sparkline([5.0, 5.0]) == "▄▄"
        assert history.sparkline([]) == ""

    def test_render_trend_lists_every_entry(self):
        entries = [
            history.make_entry(make_bench("20260101T000000"), sha="aaa111"),
            history.make_entry(make_bench("20260102T000000", e2e=2.0)),
        ]
        text = history.render_trend(entries)
        assert "2 snapshot(s)" in text
        assert "aaa111" in text
        for entry in entries:
            assert str(entry["id"])[:12] in text

    def test_render_trend_names_the_walk(self):
        compiled = make_bench("20260101T000000")
        compiled["walk_kernel"] = {"status": "compiled", "detail": "walk.so"}
        fallback = make_bench("20260102T000000", e2e=2.0)
        fallback["walk_kernel"] = {"status": "unavailable", "detail": "no cc"}
        legacy = make_bench("20260103T000000", e2e=3.0)
        rows = history.render_trend(
            [history.make_entry(b) for b in (compiled, fallback, legacy)]
        ).splitlines()[3:]
        assert [row.split()[6] for row in rows] == ["kernel", "python", "-"]

    def test_render_trend_empty_store(self):
        assert "no snapshots" in history.render_trend([], history_dir="h")


class TestAttribution:
    def test_dominant_is_the_largest_absolute_delta(self):
        base = history.make_entry(make_bench())
        head = history.make_entry(
            make_bench(simulate=1.2, sample=0.06, e2e=1.5)
        )
        attribution = history.attribute(base, head)
        assert [d.stage for d in attribution.deltas] == [
            "simulate", "sample", "interpret",
        ]
        dominant = attribution.dominant
        assert dominant.stage == "simulate"
        assert dominant.delta_seconds == pytest.approx(0.4)
        assert attribution.end_to_end.delta_seconds == pytest.approx(0.5)
        rendered = attribution.render()
        assert "<- dominant" in rendered.splitlines()[2]

    def test_speedups_also_attribute(self):
        base = history.make_entry(make_bench())
        head = history.make_entry(make_bench(simulate=0.4))
        dominant = history.attribute(base, head).dominant
        assert dominant.stage == "simulate"
        assert dominant.delta_seconds == pytest.approx(-0.4)

    def test_raw_bench_payloads_work_without_wrapping(self):
        attribution = history.attribute(
            make_bench(), make_bench(simulate=1.0)
        )
        assert attribution.dominant.stage == "simulate"

    def test_scalar_engine_selectable(self):
        base = history.make_entry(make_bench())
        head = history.make_entry(make_bench(simulate=1.0))
        attribution = history.attribute(base, head, engine="scalar")
        assert attribution.engine == "scalar"
        assert attribution.dominant.delta_seconds == pytest.approx(0.8)

    def test_no_common_stages_yields_no_dominant(self):
        attribution = history.attribute({"stages": {}}, {"stages": {}})
        assert attribution.dominant is None
        assert "no per-stage timings" in attribution.render()


class TestCheckRegressionAttribution:
    def test_failure_message_names_the_guilty_stage(self, tmp_path):
        baseline = make_bench()
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        slow = make_bench(simulate=2.0, e2e=2.2)
        ok, message = check_regression(slow, str(baseline_path))
        assert not ok
        assert "REGRESSION" in message
        assert "simulate" in message
        assert "<- dominant" in message

    def test_pass_message_has_no_attribution(self, tmp_path):
        baseline = make_bench()
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        ok, message = check_regression(make_bench(), str(baseline_path))
        assert ok
        assert "attribution" not in message


class TestUnexplained:
    def test_residual_is_end_to_end_minus_stage_deltas(self):
        base = history.make_entry(make_bench())
        # Stages move by +0.05 + 0.2 + 0.0 = 0.25 s; end to end by 0.4 s.
        head = history.make_entry(
            make_bench(interpret=0.15, simulate=1.0, e2e=1.4)
        )
        attribution = history.attribute(base, head)
        assert attribution.unexplained_seconds == pytest.approx(0.15)
        row = attribution.render().splitlines()[-1]
        assert row.split()[:2] == ["unexplained", "+0.150s"]
        assert "end-to-end delta minus the stage deltas" in row
        assert "dominant" not in row

    def test_entry_written_by_the_removed_pipeline_still_works(self, tmp_path):
        # Entries recorded while the producer-thread pipeline existed
        # carry a top-level ``pipeline`` rollup inside their content
        # address; they must keep loading, trending and attributing.
        old = history.make_entry(make_bench(stamp="20260102T000000",
                                            simulate=0.9, e2e=1.1))
        old["pipeline"] = {"mode": "thread", "producer_busy_s": 0.4,
                           "overlap_s": 0.38, "replayed": False}
        old["id"] = history.entry_id(old)
        (tmp_path / f"bench-{old['id']}.json").write_text(json.dumps(old))
        history.record_entry(tmp_path, make_bench())

        entries = history.load_history(tmp_path, legacy_dirs=())
        assert [e["id"] for e in entries][-1] == old["id"]
        assert entries[-1]["pipeline"]["mode"] == "thread"
        assert old["id"] in history.render_trend(entries, history_dir=tmp_path)
        attribution = history.attribute(
            entries[0], history.load_ref(old["id"][:8], tmp_path)
        )
        assert attribution.dominant.stage == "simulate"
        assert attribution.unexplained_seconds == pytest.approx(0.0)
        assert "note" not in attribution.render()


#: The committed trajectory under ``benchmarks/history/``.
COMMITTED = Path(__file__).resolve().parents[2] / "benchmarks" / "history"


class TestCommittedStore:
    """The committed history must keep loading as the code moves on,
    including entries written by mechanisms since removed (the sharded
    bench-98b687a58ec7 still carries its ``workers`` rollup)."""

    def load(self):
        return history.load_history(COMMITTED, legacy_dirs=())

    def test_every_entry_loads(self):
        entries = self.load()
        ids = [entry["id"] for entry in entries]
        assert ids == [
            "aa1b1d6c2815", "ad0b56225496", "62c9f40543f2",
            "b28bf5df06f8", "98b687a58ec7",
        ]
        assert "workers" in entries[-1]

    def test_trend_lists_every_entry(self):
        entries = self.load()
        trend = history.render_trend(entries, history_dir=COMMITTED)
        assert "5 snapshot(s)" in trend
        for entry in entries:
            assert entry["id"] in trend
        assert "wrk" not in trend

    def test_sharded_entry_attributes_to_simulate(self):
        base = history.load_ref("b28bf5df06f8", COMMITTED)
        head = history.load_ref("98b687a58ec7", COMMITTED)
        attribution = history.attribute(base, head)
        assert attribution.dominant.stage == "simulate"
        assert attribution.dominant.delta_seconds == pytest.approx(
            0.188, abs=5e-4
        )
        assert "worker" not in attribution.render()
