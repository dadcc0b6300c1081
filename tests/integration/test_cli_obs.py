"""CLI observability: --trace / --metrics flags, `repro stats`, validator."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.bench import emit
from repro.obs.export import read_events_jsonl, validate_chrome_trace
from repro.obs.validate import main as validate_main


@pytest.fixture(autouse=True)
def _no_leaked_session():
    obs.deactivate()
    yield
    obs.deactivate()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


AVAIL = (
    "availability", "-w", "specjbb", "-c", "LargeEUPS",
    "-t", "sleep-l", "--years", "3",
)


class TestTraceFlag:
    def test_writes_valid_chrome_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "out.json")
        code, out, err = run(capsys, *AVAIL, "--jobs", "2", "--trace", trace)
        assert code == 0
        assert "availability" in out
        assert f"trace events to {trace}" in err
        stats = validate_chrome_trace(trace)
        assert stats["spans"] > 0

    def test_nested_spans_cover_the_stack(self, capsys, tmp_path):
        trace = str(tmp_path / "out.json")
        code, _, _ = run(capsys, *AVAIL, "--trace", trace)
        assert code == 0
        with open(trace) as fh:
            names = {e["name"] for e in json.load(fh)["traceEvents"]}
        assert {"cli", "runner.run", "job", "year_block", "kernel"} <= names

    def test_fault_runs_keep_the_scalar_spans(self, capsys, tmp_path):
        trace = str(tmp_path / "out.json")
        code, _, _ = run(capsys, *AVAIL, "--faults", "dg_start=0.2", "--trace", trace)
        assert code == 0
        with open(trace) as fh:
            names = {e["name"] for e in json.load(fh)["traceEvents"]}
        assert {"cli", "runner.run", "job", "schedule", "outage", "phase"} <= names

    def test_fleet_runs_show_the_batch_stages(self, capsys, tmp_path):
        trace = str(tmp_path / "out.json")
        events = str(tmp_path / "events.jsonl")
        code, _, _ = run(
            capsys, "fleet", "-c", "NoDG,LargeEUPS", "--years", "3",
            "--trace", trace, "--metrics", events,
        )
        assert code == 0
        with open(trace) as fh:
            trace_events = json.load(fh)["traceEvents"]
        names = {e["name"] for e in trace_events}
        assert {"job", "cell", "sample", "kernel", "route", "fleet-year"} <= names
        assert "outage" not in names and "schedule" not in names
        cells = {
            e["args"]["span_id"] for e in trace_events if e["name"] == "cell"
        }
        stages = [
            e for e in trace_events if e["name"] in ("sample", "kernel", "route")
        ]
        assert all(e["args"]["parent_id"] in cells for e in stages)
        _, snap = read_events_jsonl(events)
        # 2 configurations x routed/unrouted x 3 years.
        assert snap["fleet.years"]["value"] == 12
        assert snap["sim.outages"]["value"] > 0

    def test_session_deactivated_after_run(self, capsys, tmp_path):
        run(capsys, *AVAIL, "--trace", str(tmp_path / "out.json"))
        assert obs.current() is None


class TestMetricsFlagAndStats:
    def test_round_trip_through_stats(self, capsys, tmp_path):
        events = str(tmp_path / "events.jsonl")
        code, _, err = run(capsys, *AVAIL, "--metrics", events)
        assert code == 0
        assert f"event lines to {events}" in err
        spans, snap = read_events_jsonl(events)
        assert spans
        assert snap["sim.outages"]["value"] > 0

        code, out, _ = run(capsys, "stats", events)
        assert code == 0
        assert "outage" in out
        assert "sim.outages" in out
        assert "battery.soc" in out

    def test_no_flags_no_session_overhead(self, capsys):
        code, _, err = run(capsys, *AVAIL)
        assert code == 0
        assert "[obs]" not in err


class TestValidatorCli:
    def test_ok(self, capsys, tmp_path):
        trace = str(tmp_path / "out.json")
        run(capsys, *AVAIL, "--trace", trace)
        assert validate_main([trace]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        assert validate_main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_usage(self, capsys):
        assert validate_main([]) == 2


class TestBenchCli:
    def test_record_check_and_rerecord(self, capsys, tmp_path):
        root = str(tmp_path)
        assert run(capsys, "bench", "record", "--root", root)[0] == 1
        emit(
            str(tmp_path / "BENCH_sim.json"), "sim",
            {"speedup": {"value": 35.0, "unit": "x", "better": "higher"}},
        )
        code, out, _ = run(capsys, "bench", "record", "--root", root)
        assert code == 0 and "recorded sim from BENCH_sim.json" in out
        code, out, _ = run(capsys, "bench", "record", "--root", root)
        assert code == 0 and "already recorded" in out
        history = str(tmp_path / "BENCH_history.jsonl")
        code, out, _ = run(capsys, "bench", "check", "--history", history)
        assert code == 0 and "sim.speedup (higher better)" in out

    def test_record_names_an_artifact_without_schema(self, capsys, tmp_path):
        (tmp_path / "BENCH_serve.json").write_text('{"bench": "serve"}')
        code, _, err = run(capsys, "bench", "record", "--root", str(tmp_path))
        assert code == 2 and "BENCH_serve.json" in err
