"""Closed-loop load generator: mix parsing, reporting, a live short run."""

import pytest

from repro.errors import ServeError
from repro.obs.telemetry import nearest_rank
from repro.serve import EvalServer, ServeConfig
from repro.serve.loadgen import (
    REQUEST_SHAPES,
    LoadgenConfig,
    mix_source,
    parse_mix,
    post_request,
    post_request_full,
    run_loadgen,
)


class TestParseMix:
    def test_weighted(self):
        assert parse_mix("whatif=2,availability=1") == {
            "whatif": 2.0,
            "availability": 1.0,
        }

    def test_bare_names_get_weight_one(self):
        assert parse_mix("echo,whatif") == {"echo": 1.0, "whatif": 1.0}

    def test_repeated_names_accumulate(self):
        assert parse_mix("echo=1,echo=2") == {"echo": 3.0}

    def test_unknown_shape_rejected(self):
        with pytest.raises(ServeError, match="unknown request shape"):
            parse_mix("frobnicate=1")

    def test_bad_weight_rejected(self):
        with pytest.raises(ServeError, match="bad weight"):
            parse_mix("echo=lots")

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ServeError, match="positive"):
            parse_mix("echo=0")

    def test_empty_rejected(self):
        with pytest.raises(ServeError, match="empty"):
            parse_mix(" , ")

    def test_every_shape_is_a_valid_protocol_body(self):
        from repro.serve.protocol import PROTOCOL_VERSION, parse_request

        for name, shape in REQUEST_SHAPES.items():
            request = parse_request(
                {"v": PROTOCOL_VERSION, "analysis": shape["analysis"],
                 "params": shape["params"]}
            )
            assert request.analysis == shape["analysis"], name


class TestMixSource:
    MIX = {"whatif": 2.0, "availability": 1.0, "echo": 1.0,
           "rank": 0.5, "sweep": 0.5}

    @pytest.mark.parametrize(
        "seed, worker, names",
        [
            (0, 0, ["sweep", "sweep", "sweep", "availability", "whatif",
                    "echo", "whatif", "echo", "availability", "whatif"]),
            (0, 1, ["availability", "echo", "whatif", "whatif", "sweep",
                    "availability", "sweep", "availability", "echo",
                    "whatif"]),
            (7, 3, ["whatif", "availability", "availability",
                    "availability", "whatif", "whatif", "availability",
                    "echo", "whatif", "whatif"]),
        ],
    )
    def test_draws_are_pinned_per_seed_and_worker(self, seed, worker, names):
        draws = mix_source(self.MIX, seed)(worker)
        assert [next(draws).analysis for _ in names] == names

    def test_draws_are_the_canned_shapes(self):
        from repro.serve.protocol import PROTOCOL_VERSION, parse_request

        draws = mix_source(self.MIX, 0)(0)
        for _ in range(20):
            request = next(draws)
            shape = REQUEST_SHAPES[request.analysis]
            assert request == parse_request({"v": PROTOCOL_VERSION, **shape})


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"concurrency": 0}, "concurrency"),
            ({"concurrency": -3}, "concurrency"),
            ({"duration_s": 0.0}, "duration"),
            ({"duration_s": -1.0}, "duration"),
            ({"duration_s": float("nan")}, "duration"),
        ],
    )
    def test_rejected(self, overrides, match):
        with pytest.raises(ServeError, match=match):
            LoadgenConfig(base_url="http://127.0.0.1:9", **overrides)

    def test_cli_exits_2_on_zero_concurrency(self, capsys):
        from repro.cli import main

        code = main(["loadgen", "--url", "http://127.0.0.1:9",
                     "--concurrency", "0"])
        assert code == 2
        assert "concurrency" in capsys.readouterr().err


class TestPercentile:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(samples, 0.0) == 1.0
        assert nearest_rank(samples, 1.0) == 4.0
        assert nearest_rank(samples, 0.5) == 3.0  # round(0.5 * 3) = 2

    def test_single_sample(self):
        assert nearest_rank([7.0], 0.99) == 7.0


class TestPostRequest:
    def test_network_failure_is_status_zero(self):
        status, payload = post_request(
            "http://127.0.0.1:9", {"analysis": "echo", "params": {}},
            timeout_s=0.5,
        )
        assert status == 0
        assert payload["ok"] is False
        assert payload["error"]["type"] == "network"

    def test_full_variant_returns_headers(self):
        server = EvalServer(ServeConfig(port=0)).start()
        try:
            status, headers, payload = post_request_full(
                server.base_url,
                {"analysis": "echo", "params": {"payload": 1}},
            )
        finally:
            server.close(drain=True, timeout=10)
        assert status == 200
        assert payload["ok"] is True
        assert any(k.lower() == "x-repro-request-id" for k in headers)

    def test_full_variant_network_failure_has_empty_headers(self):
        status, headers, payload = post_request_full(
            "http://127.0.0.1:9", {"analysis": "echo", "params": {}},
            timeout_s=0.5,
        )
        assert status == 0
        assert headers == {}
        assert payload["error"]["type"] == "network"


class TestLiveRun:
    def test_short_echo_run_reports_sane_numbers(self):
        server = EvalServer(ServeConfig(port=0, queue_bound=64)).start()
        try:
            report = run_loadgen(
                LoadgenConfig(
                    base_url=server.base_url,
                    concurrency=2,
                    duration_s=0.5,
                    mix={"echo": 1.0},
                    seed=0,
                )
            )
        finally:
            server.close(drain=True, timeout=10)
        assert report.requests > 0
        assert report.ok == report.requests
        assert report.sheds == 0 and report.errors == 0
        assert report.throughput_rps > 0
        assert set(report.latency_ms) == {"p50", "p95", "p99", "mean", "max"}
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]
        assert report.by_shape["echo"] == report.requests
        assert report.status_counts == {"200": report.requests}
        assert set(report.latency_by_shape) == {"echo"}
        per_shape = report.latency_by_shape["echo"]
        assert set(per_shape) == {"p50", "p95", "p99", "mean", "max"}
        assert per_shape["p50"] <= per_shape["p99"] <= per_shape["max"]

    def test_report_json_round_trips(self):
        server = EvalServer(ServeConfig(port=0)).start()
        try:
            report = run_loadgen(
                LoadgenConfig(base_url=server.base_url, concurrency=1,
                              duration_s=0.2, mix={"echo": 1.0})
            )
        finally:
            server.close(drain=True, timeout=10)
        import json

        blob = json.dumps(report.to_json())
        parsed = json.loads(blob)
        assert parsed["bench"] == "serve"
        assert parsed["requests"] == report.requests
        assert "mix" in parsed["config"]
        assert parsed["latency_by_shape"] == report.latency_by_shape
        assert report.summary()  # renders without raising
