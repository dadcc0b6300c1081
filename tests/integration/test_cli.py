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
