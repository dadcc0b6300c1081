"""Bench ledger: the one BENCH schema, history I/O, the regression gate."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import bench as benchmod
from repro.serve.drill import DrillReport
from repro.serve.loadgen import LoadgenReport


def metric(value, better="higher", unit="x"):
    return {"value": value, "unit": unit, "better": better}


def loadgen_report(latency_ms):
    return LoadgenReport(
        requests=10, ok=10, sheds=0, errors=0, duration_s=2.0,
        throughput_rps=318.4449, latency_ms=latency_ms,
        status_counts={"200": 10}, by_shape={"echo": 10}, config={},
    )


SERVE_LATENCY = {"p50": 8.0, "p95": 11.0, "p99": 13.682}


def drill_report(speedup=2.842):
    return DrillReport(
        ok=True, seed=3, duration_s=1.0, failures=[],
        bench={
            "workers_axis": [
                {"workers": 0, "rps": 19.48, "p99_ms": 400.0},
                {"workers": 4, "rps": 55.36, "p99_ms": 255.982},
            ],
            "speedup": speedup,
            "requests_per_point": 40,
        },
    )


def record_one(tmp_path, name, bench, metrics, **detail):
    benchmod.emit(str(tmp_path / name), bench, metrics, **detail)
    return benchmod.record(root=str(tmp_path))


class TestEmit:
    def test_writes_sorted_indented_record_with_detail(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        benchmod.emit(
            str(path), "sim", {"speedup": metric(35)}, workload="specjbb"
        )
        payload = {
            "bench": "sim",
            "metrics": {"speedup": metric(35.0)},
            "workload": "specjbb",
        }
        assert path.read_text() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    @pytest.mark.parametrize("better", [None, "up", "HIGHER", ""])
    def test_missing_or_invalid_better_raises(self, tmp_path, better):
        entry = {"value": 1.0, "unit": "x"}
        if better is not None:
            entry["better"] = better
        path = tmp_path / "BENCH_x.json"
        with pytest.raises(ObsError, match="better"):
            benchmod.emit(str(path), "x", {"m": entry})
        assert not path.exists()

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), None, True, "3"]
    )
    def test_non_finite_value_raises(self, tmp_path, value):
        with pytest.raises(ObsError, match="finite"):
            benchmod.emit(str(tmp_path / "BENCH_x.json"), "x",
                          {"m": metric(value)})

    def test_empty_metrics_and_bench_raise(self, tmp_path):
        path = str(tmp_path / "BENCH_x.json")
        with pytest.raises(ObsError):
            benchmod.emit(path, "x", {})
        with pytest.raises(ObsError):
            benchmod.emit(path, "", {"m": metric(1.0)})


class TestExtraction:
    """Each producer's record round-trips through ``record`` unchanged."""

    def test_record_takes_stream_from_each_record(self, tmp_path):
        benchmod.emit(str(tmp_path / "BENCH_a.json"), "sim",
                      {"speedup": metric(35.374)})
        benchmod.emit(str(tmp_path / "BENCH_b.json"), "policy",
                      {"dominations": metric(2, unit="count")})
        appended = benchmod.record(root=str(tmp_path))
        assert [(e["bench"], e["source"]) for e in appended] == [
            ("sim", "BENCH_a.json"), ("policy", "BENCH_b.json"),
        ]

    def test_serve_metrics(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        benchmod.emit(str(path), **loadgen_report(SERVE_LATENCY).to_json())
        (entry,) = benchmod.record(root=str(tmp_path))
        assert entry["bench"] == "serve"
        assert entry["metrics"] == {
            "throughput_rps": metric(318.445, unit="1/s"),
            "p99_ms": metric(13.682, better="lower", unit="ms"),
        }
        # The loadgen breakdown rides along as detail.
        assert json.loads(path.read_text())["latency_ms"] == SERVE_LATENCY

    def test_sim_metrics(self, tmp_path):
        (entry,) = record_one(
            tmp_path, "BENCH_sim.json", "sim",
            {"speedup": metric(35.374), "yearly_speedup": metric(1.827)},
        )
        assert entry["metrics"] == {
            "speedup": metric(35.374), "yearly_speedup": metric(1.827),
        }

    def test_policy_metrics_count_dominations(self, tmp_path):
        (entry,) = record_one(
            tmp_path, "BENCH_policy.json", "policy",
            {"dominations": metric(2, unit="count")},
            dominations=[{"a": 1}, {"b": 2}],
        )
        assert entry["metrics"] == {"dominations": metric(2.0, unit="count")}

    def test_missing_fields_drop_metrics_not_entry(self, tmp_path):
        # No successful request: no p99, still a throughput entry.
        benchmod.emit(str(tmp_path / "BENCH_serve.json"),
                      **loadgen_report({}).to_json())
        (entry,) = benchmod.record(root=str(tmp_path))
        assert list(entry["metrics"]) == ["throughput_rps"]

    def test_drill_artifacts_get_their_own_stream(self, tmp_path):
        """The drill measures a different workload than loadgen; it
        writes its own file and stream and never gates against serve."""
        benchmod.emit(str(tmp_path / "BENCH_serve.json"),
                      **loadgen_report(SERVE_LATENCY).to_json())
        assert drill_report().emit_bench(str(tmp_path / "BENCH_drill.json"))
        appended = benchmod.record(root=str(tmp_path))
        by_bench = {e["bench"]: e for e in appended}
        assert set(by_bench) == {"serve", "serve-drill"}
        assert by_bench["serve-drill"]["source"] == "BENCH_drill.json"
        assert by_bench["serve-drill"]["metrics"] == {
            "throughput_rps": metric(55.36, unit="1/s"),
            "p99_ms": metric(255.982, better="lower", unit="ms"),
            "workers_speedup": metric(2.842),
        }
        report = benchmod.check(appended)
        assert {v.bench for v in report.verdicts} == {"serve", "serve-drill"}
        assert all(v.status == "no-baseline" for v in report.verdicts)

    def test_drill_without_speedup_or_axis(self, tmp_path):
        path = tmp_path / "BENCH_drill.json"
        assert drill_report(speedup=None).emit_bench(str(path))
        assert "workers_speedup" not in json.loads(path.read_text())["metrics"]
        path.unlink()
        empty = DrillReport(ok=True, seed=0, duration_s=0.0, failures=[])
        assert not empty.emit_bench(str(path))
        assert not path.exists()

    def test_directions(self, tmp_path):
        """Each metric's direction comes from the record, whatever its
        name: a rise fails a ``lower`` metric and passes a ``higher`` one."""
        history = str(tmp_path / "h.jsonl")
        path = str(tmp_path / "BENCH_x.json")
        for value in (10.0, 20.0):
            benchmod.emit(path, "x", {
                "cost": metric(value, better="lower"),
                "gain": metric(value, better="higher"),
            })
            benchmod.record(root=str(tmp_path), history_path=history)
        report = benchmod.check(benchmod.load_history(history))
        directions = {v.metric: v.direction for v in report.verdicts}
        assert directions == {"cost": "lower", "gain": "higher"}
        assert [v.metric for v in report.regressions] == ["cost"]


class TestLedgerIO:
    def test_record_and_load_round_trip(self, tmp_path):
        benchmod.emit(str(tmp_path / "BENCH_serve.json"),
                      **loadgen_report(SERVE_LATENCY).to_json())
        benchmod.emit(str(tmp_path / "BENCH_sim.json"), "sim",
                      {"speedup": metric(35.374)})
        appended = benchmod.record(root=str(tmp_path), now=123.0)
        assert {e["bench"] for e in appended} == {"serve", "sim"}
        assert all(e["recorded_unix"] == 123.0 for e in appended)
        assert all(e["v"] == benchmod.LEDGER_VERSION == 2 for e in appended)
        entries = benchmod.load_history(
            str(tmp_path / benchmod.HISTORY_FILENAME)
        )
        assert entries == appended

    def test_record_rejects_artifact_without_schema(self, tmp_path):
        artifact = tmp_path / "BENCH_serve.json"
        for payload in (
            {"odd": 1},
            {"bench": "serve", "throughput_rps": 300.0},
            {"bench": "serve", "metrics": {"throughput_rps": 300.0}},
            {"bench": "serve",
             "metrics": {"throughput_rps": {"value": 300.0, "unit": "1/s"}}},
            [1, 2],
        ):
            artifact.write_text(json.dumps(payload))
            with pytest.raises(ObsError, match="BENCH_serve.json"):
                benchmod.record(root=str(tmp_path))
        assert not (tmp_path / benchmod.HISTORY_FILENAME).exists()

    def test_record_rejects_unparseable_artifact(self, tmp_path):
        (tmp_path / "BENCH_fleet.json").write_text("{not json")
        with pytest.raises(ObsError, match="BENCH_fleet.json"):
            benchmod.record(root=str(tmp_path))

    def test_record_skips_unchanged_artifact(self, tmp_path):
        benchmod.emit(str(tmp_path / "BENCH_fleet.json"), "fleet",
                      {"dominations": metric(3, unit="count")})
        first = benchmod.record(root=str(tmp_path))
        assert len(first) == 1 and len(first[0]["sha256"]) == 64
        assert benchmod.record(root=str(tmp_path)) == []
        history = str(tmp_path / benchmod.HISTORY_FILENAME)
        assert benchmod.load_history(history) == first

    def test_record_appends_changed_artifact(self, tmp_path):
        path = str(tmp_path / "BENCH_fleet.json")
        benchmod.emit(path, "fleet", {"dominations": metric(3, unit="count")})
        benchmod.record(root=str(tmp_path))
        benchmod.emit(path, "fleet", {"dominations": metric(4, unit="count")})
        (entry,) = benchmod.record(root=str(tmp_path))
        assert entry["metrics"]["dominations"]["value"] == 4.0
        # Back to the first bytes: not the newest entry, so recorded.
        benchmod.emit(path, "fleet", {"dominations": metric(3, unit="count")})
        assert len(benchmod.record(root=str(tmp_path))) == 1

    def test_v1_entries_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        v1 = {"v": 1, "bench": "serve", "metrics": {"throughput_rps": 1.0}}
        v2 = serve_entry(300.0, 13.0)
        path.write_text(json.dumps(v1) + "\n" + json.dumps(v2) + "\n")
        assert benchmod.load_history(str(path)) == [v2]

    def test_missing_history_is_empty(self, tmp_path):
        assert benchmod.load_history(str(tmp_path / "nope.jsonl")) == []

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "history.jsonl"
        entry = serve_entry(1.0, 1.0)
        path.write_text(json.dumps(entry) + "\n" + '{"bench": "serve", "tru')
        assert len(benchmod.load_history(str(path))) == 1

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "history.jsonl"
        entry = serve_entry(1.0, 1.0)
        path.write_text('{"torn\n' + json.dumps(entry) + "\n")
        with pytest.raises(ObsError, match="corrupt"):
            benchmod.load_history(str(path))


def serve_entry(rps, p99):
    return {
        "v": benchmod.LEDGER_VERSION,
        "bench": "serve",
        "metrics": {
            "throughput_rps": metric(rps, unit="1/s"),
            "p99_ms": metric(p99, better="lower", unit="ms"),
        },
    }


def sim_entry(speedup):
    return {"v": benchmod.LEDGER_VERSION, "bench": "sim",
            "metrics": {"speedup": metric(speedup)}}


class TestCheck:
    def test_first_entry_passes_as_no_baseline(self):
        report = benchmod.check([serve_entry(300.0, 13.0)])
        assert report.ok
        assert all(v.status == "no-baseline" for v in report.verdicts)

    def test_stable_trajectory_passes(self):
        entries = [serve_entry(300.0 + i, 13.0) for i in range(5)]
        report = benchmod.check(entries, tolerance=0.15)
        assert report.ok

    def test_throughput_drop_fails(self):
        entries = [serve_entry(300.0, 13.0)] * 3 + [serve_entry(200.0, 13.0)]
        report = benchmod.check(entries, tolerance=0.15)
        assert not report.ok
        assert [v.metric for v in report.regressions] == ["throughput_rps"]

    def test_latency_rise_fails(self):
        entries = [serve_entry(300.0, 13.0)] * 3 + [serve_entry(300.0, 30.0)]
        report = benchmod.check(entries, tolerance=0.15)
        assert [v.metric for v in report.regressions] == ["p99_ms"]

    def test_good_direction_moves_never_fail(self):
        # 10x faster and 10x higher throughput: both "deltas" are huge
        # but in the good direction.
        entries = [serve_entry(300.0, 13.0)] * 3 + [serve_entry(3000.0, 1.3)]
        assert benchmod.check(entries, tolerance=0.15).ok

    def test_within_tolerance_passes(self):
        entries = [serve_entry(300.0, 13.0)] * 3 + [serve_entry(270.0, 14.0)]
        assert benchmod.check(entries, tolerance=0.15).ok

    def test_median_baseline_shrugs_off_one_noisy_run(self):
        entries = [
            serve_entry(300.0, 13.0),
            serve_entry(900.0, 13.0),  # one absurd outlier run
            serve_entry(300.0, 13.0),
            serve_entry(300.0, 13.0),
        ]
        assert benchmod.check(entries, tolerance=0.15).ok

    def test_benchmarks_gated_independently(self):
        entries = [
            serve_entry(300.0, 13.0),
            sim_entry(35.0),
            serve_entry(300.0, 13.0),
            sim_entry(10.0),  # regressed
        ]
        report = benchmod.check(entries, tolerance=0.15)
        assert [(v.bench, v.status) for v in report.regressions] == [
            ("sim", "regression"),
        ]

    def test_named_streams_gated_alone(self):
        entries = [
            serve_entry(300.0, 13.0),
            sim_entry(35.0),
            serve_entry(300.0, 13.0),
            sim_entry(10.0),  # regressed
        ]
        assert not benchmod.check(entries, benches=["sim"]).ok
        report = benchmod.check(entries, benches=["serve"])
        assert report.ok
        assert {v.bench for v in report.verdicts} == {"serve"}
        with pytest.raises(ObsError):
            benchmod.check(entries, benches=["policy"])

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ObsError):
            benchmod.check([], tolerance=-0.1)

    def test_report_serialises(self):
        report = benchmod.check([serve_entry(300.0, 13.0)])
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["verdicts"][0]["status"] == "no-baseline"
        assert "PASS" in benchmod.format_report(report)
