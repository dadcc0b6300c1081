"""CLI surface: every subcommand runs and prints sane output."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListingCommands:
    def test_configs(self, capsys):
        code, out, _ = run(capsys, "configs")
        assert code == 0
        assert "MaxPerf" in out and "LargeEUPS" in out

    def test_techniques(self, capsys):
        code, out, _ = run(capsys, "techniques")
        assert code == 0
        assert "sleep-l" in out and "nvdimm" in out

    def test_workloads(self, capsys):
        code, out, _ = run(capsys, "workloads")
        assert code == 0
        assert "specjbb" in out and "40 GB" in out


class TestEvaluate:
    def test_basic(self, capsys):
        code, out, _ = run(
            capsys,
            "evaluate", "-w", "specjbb", "-c", "LargeEUPS",
            "-t", "sleep-l", "-m", "30",
        )
        assert code == 0
        assert "down time (min)" in out
        assert "crashed" in out

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "evaluate", "-w", "specjbb", "-c", "NoSuchConfig",
            "-t", "sleep-l",
        )
        assert code == 2
        assert "error" in err

    def test_bad_workload_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["evaluate", "-w", "doom", "-c", "MaxPerf", "-t", "sleep"])


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ("availability", "-w", "memcached", "-c", "NoDG", "-t", "sleep-l",
         "--years", "1"),
        ("fleet", "-c", "NoDG", "--years", "1"),
        ("fleet", "-c", "NoDG", "--years", "1", "--json"),
    ])
    @pytest.mark.parametrize("seed", ["-1", "9223372036854775808", "x"])
    def test_out_of_range_seed_is_a_usage_error(self, capsys, argv, seed):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed" in err
        assert "Traceback" not in err


class TestPlan:
    def test_feasible(self, capsys):
        code, out, _ = run(
            capsys,
            "plan", "-w", "specjbb", "-m", "30",
            "--min-performance", "0.9", "--max-down-minutes", "0",
        )
        assert code == 0
        assert "cheapest plan" in out
        assert "UPS runtime" in out

    def test_infeasible_exits_1(self, capsys):
        code, _, err = run(
            capsys,
            "plan", "-w", "specjbb", "-m", "30", "--min-performance", "1.01",
        )
        assert code == 1
        assert "infeasible" in err


class TestRankAvailabilityTCO:
    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "-w", "memcached", "-m", "5")
        assert code == 0
        assert "sleep-l" in out

    def test_availability(self, capsys):
        code, out, _ = run(
            capsys,
            "availability", "-w", "specjbb", "-c", "MaxPerf",
            "-t", "full-service", "--years", "5", "--servers", "4",
        )
        assert code == 0
        assert "availability" in out

    def test_tco(self, capsys):
        code, out, _ = run(capsys, "tco")
        assert code == 0
        assert "crossover" in out


class TestTiers:
    def test_tiers(self, capsys):
        code, out, _ = run(capsys, "tiers")
        assert code == 0
        assert "Tier IV" in out and "2N" in out


class TestTablePathsValidateLikeTheProtocol:
    """Table output goes through the same ``parse_request`` as ``--json``
    and HTTP, so bad input is the protocol's one-line usage error; ``plan``
    rejects out-of-range targets with the same one-line form."""

    AVAIL = ("availability", "-w", "memcached", "-c", "NoDG", "-t", "sleep-l")

    @pytest.mark.parametrize("argv, message", [
        ((*AVAIL, "--years", "0"), "param 'years' must be in [1, 10000]"),
        ((*AVAIL, "--years", "20000"), "param 'years' must be in [1, 10000]"),
        (("rank", "-w", "memcached", "--servers", "0"),
         "param 'servers' must be in [1, 1000000]"),
        (("rank", "-w", "memcached", "-m", "-5"),
         "param 'outage_minutes' must be a positive finite number"),
        (("plan", "-w", "specjbb", "--min-performance", "-3"),
         "min_performance must be >= 0"),
        (("plan", "-w", "specjbb", "--min-performance", "nan"),
         "min_performance must be >= 0"),
        (("plan", "-w", "specjbb", "--max-down-minutes", "-1"),
         "max_downtime_seconds must be >= 0"),
        (("plan", "-w", "specjbb", "--max-down-minutes", "nan"),
         "max_downtime_seconds must be >= 0"),
    ], ids=["years-0", "years-20000", "servers-0", "negative-minutes",
            "plan-negative-perf", "plan-nan-perf", "plan-negative-down",
            "plan-nan-down"])
    def test_bad_input_exits_2_with_the_protocol_message(
        self, capsys, argv, message
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ("rank", "-w", "memcached", "--engine", "batch"),
        ("availability", "-w", "memcached", "-c", "NoDG", "-t", "sleep-l",
         "-m", "5"),
        ("whatif", "-w", "memcached", "-c", "NoDG", "-t", "sleep-l",
         "-m", "5"),
    ], ids=["rank-engine", "availability-minutes", "whatif-minutes"])
    def test_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFleetContingency:
    def test_json_prints_the_canonical_report(self, capsys):
        import json

        from repro.serve.protocol import canonical_json

        code, out, _ = run(capsys, "fleet", "--contingency", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["fleet"] == "us-triad"
        assert out.strip() == canonical_json(report)

    def test_table_names_the_default_fleet(self, capsys):
        code, out, _ = run(capsys, "fleet", "--contingency", "--depth", "1")
        assert code == 0
        assert out.startswith("us-triad contingency analysis")
        assert "N-2" not in out


class _Called(Exception):
    """Raised by a recorded callee once the CLI has called it."""


def _record(monkeypatch, owner, name):
    """Replace ``owner.name`` by a stand-in with the same signature that
    records its call and stops the command; returns the call list."""
    import functools

    calls = []
    original = getattr(owner, name)

    @functools.wraps(original)
    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Called

    monkeypatch.setattr(owner, name, recorder)
    return calls


def _called(calls, *argv):
    """Run ``repro argv`` up to its recorded callee; that call's arguments."""
    with pytest.raises(_Called):
        main(list(argv))
    (call,) = calls
    return call


def _bound(fn, call):
    """``fn``'s arguments in ``call`` by name, each one not passed at its
    declared default."""
    import inspect

    args, kwargs = call
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _declared(fn, *skip):
    """``fn``'s declared defaults by name, but for ``skip``."""
    import inspect

    return {
        name: param.default
        for name, param in inspect.signature(fn).parameters.items()
        if param.default is not param.empty and name not in skip
    }


class TestOperationalDefaults:
    """A bare operational subcommand configures its callee with exactly the
    defaults the callee declares; one non-default flag per command pins
    the flag-to-field mapping."""

    def test_serve(self, monkeypatch):
        import repro.serve.app as app

        calls = _record(monkeypatch, app, "run_server")
        assert _called(calls, "serve")[0] == (app.ServeConfig(),)
        calls.clear()
        (config,), _ = _called(
            calls, "serve", "--queue-bound", "8", "--cache", "d",
            "--no-telemetry", "--no-brownout", "--slo", "shed_rate:0.9",
        )
        assert (config.queue_bound, config.cache_dir) == (8, "d")
        assert not config.telemetry and not config.brownout
        assert [slo.kind for slo in config.slos] == ["shed_rate"]

    def test_drill(self, monkeypatch):
        import repro.serve.drill as drill

        calls = _record(monkeypatch, drill, "run_drill")
        assert _called(calls, "drill")[0] == (drill.DrillConfig(),)
        calls.clear()
        (config,), _ = _called(
            calls, "drill", "--duration", "1.5", "--bench-workers", "0,2"
        )
        assert config.chaos_duration_s == 1.5
        assert config.bench_workers == (0, 2)

    def test_loadgen(self, monkeypatch):
        import repro.serve.loadgen as loadgen

        calls = _record(monkeypatch, loadgen, "run_loadgen")
        assert _called(calls, "loadgen")[0] == (
            loadgen.LoadgenConfig(base_url="http://127.0.0.1:8321"),
        )
        calls.clear()
        (config,), _ = _called(
            calls, "loadgen", "--url", "http://h:1/", "--timeout", "3",
            "--mix", "echo=2",
        )
        assert config.base_url == "http://h:1"
        assert (config.timeout_s, config.mix) == (3.0, {"echo": 2.0})

    def test_chaos(self, monkeypatch):
        import repro.runner.chaos as chaos
        from repro.faults import FaultPlan

        run_chaos = chaos.run_chaos
        calls = _record(monkeypatch, chaos, "run_chaos")
        arguments = _bound(run_chaos, _called(calls, "chaos"))
        declared = _declared(run_chaos)
        assert {name: arguments[name] for name in declared} == declared
        assert arguments["workload"].name == "websearch"
        assert arguments["configuration"].name == "MaxPerf"
        assert arguments["technique"].name == "full-service"
        calls.clear()
        arguments = _bound(run_chaos, _called(
            calls, "chaos", "--servers", "8", "--faults", "dg_start=0.5"
        ))
        assert arguments["num_servers"] == 8
        assert arguments["faults"] == FaultPlan.parse("dg_start=0.5")

    def test_top(self, monkeypatch):
        import repro.serve.top as top

        run_top = top.run_top
        calls = _record(monkeypatch, top, "run_top")
        arguments = _bound(run_top, _called(calls, "top"))
        assert arguments == {
            "base_url": "http://127.0.0.1:8321", **_declared(run_top)
        }
        calls.clear()
        arguments = _bound(run_top, _called(
            calls, "top", "--url", "http://h:1/", "--interval", "0.5"
        ))
        assert (arguments["base_url"], arguments["interval_s"]) == (
            "http://h:1", 0.5
        )

    def test_bench_check(self, monkeypatch, tmp_path):
        from repro.obs import bench

        history = tmp_path / "history.jsonl"
        bench.emit(str(tmp_path / "BENCH_x.json"), "x",
                   {"m": bench.metric(1.0, "s", "lower")})
        bench.record(root=str(tmp_path), history_path=str(history))
        check = bench.check
        calls = _record(monkeypatch, bench, "check")
        arguments = _bound(check, _called(
            calls, "bench", "check", "--history", str(history)
        ))
        assert {name: arguments[name] for name in _declared(check)} == (
            _declared(check)
        )
        calls.clear()
        arguments = _bound(check, _called(
            calls, "bench", "check", "--history", str(history),
            "--tolerance", "0.5", "--bench", "x",
        ))
        assert (arguments["tolerance"], arguments["benches"]) == (0.5, ["x"])

    def test_plan(self, monkeypatch):
        from repro.core.planner import ProvisioningPlanner

        plan = ProvisioningPlanner.plan
        calls = _record(monkeypatch, ProvisioningPlanner, "plan")
        arguments = _bound(plan, _called(calls, "plan", "-w", "websearch"))
        declared = _declared(plan)
        assert {name: arguments[name] for name in declared} == declared
        assert arguments["outage_seconds"] == 30 * 60
        calls.clear()
        arguments = _bound(plan, _called(
            calls, "plan", "-w", "websearch", "--max-down-minutes", "2",
            "--min-performance", "0.5",
        ))
        assert arguments["max_downtime_seconds"] == 120.0
        assert arguments["min_performance"] == 0.5

    def test_evaluate_servers(self, monkeypatch):
        import repro.cli

        evaluate_point = repro.cli.evaluate_point
        calls = _record(monkeypatch, repro.cli, "evaluate_point")
        argv = ("evaluate", "-w", "specjbb", "-c", "NoDG", "-t", "sleep-l")
        arguments = _bound(evaluate_point, _called(calls, *argv))
        assert arguments["num_servers"] == _declared(evaluate_point)[
            "num_servers"
        ]
        calls.clear()
        arguments = _bound(
            evaluate_point, _called(calls, *argv, "--servers", "4")
        )
        assert arguments["num_servers"] == 4

    def test_selfcheck(self, monkeypatch):
        import repro.checks.selfcheck as selfcheck

        run_selfcheck = selfcheck.run_selfcheck
        calls = _record(monkeypatch, selfcheck, "run_selfcheck")
        arguments = _bound(run_selfcheck, _called(calls, "selfcheck"))
        declared = _declared(run_selfcheck, "executor")
        assert {name: arguments[name] for name in declared} == declared
        calls.clear()
        arguments = _bound(run_selfcheck, _called(
            calls, "selfcheck", "-w", "websearch", "--fast"
        ))
        assert (arguments["workload"], arguments["fast"]) == (
            "websearch", True
        )

    def test_fleet_contingency(self, monkeypatch):
        import repro.fleet.contingency as contingency

        report = contingency.contingency_report
        calls = _record(monkeypatch, contingency, "contingency_report")
        arguments = _bound(report, _called(calls, "fleet", "--contingency"))
        assert arguments["depth"] == _declared(report)["depth"]
        assert arguments["fleet"].name == "us-triad"
        calls.clear()
        arguments = _bound(report, _called(
            calls, "fleet", "--contingency", "--depth", "1"
        ))
        assert arguments["depth"] == 1

    def test_docs_quote_the_config_defaults(self):
        from pathlib import Path

        from repro.serve.app import ServeConfig
        from repro.serve.drill import DrillConfig

        docs = Path(__file__).resolve().parents[2] / "docs"
        serve = " ".join((docs / "SERVE.md").read_text().split())
        resilience = " ".join((docs / "RESILIENCE.md").read_text().split())
        assert f"(`--queue-bound`, default {ServeConfig.queue_bound}:" in serve
        assert (
            f"`--poison-threshold` (default {ServeConfig.poison_threshold},"
            in resilience
        )
        workers = ",".join(map(str, DrillConfig.bench_workers))
        assert f"`--bench-workers` (default `{workers}`," in resilience
