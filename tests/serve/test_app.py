"""HTTP front end: endpoints, status mapping, bit-identical serving."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ServeError
from repro.serve import (
    EvalServer,
    ServeConfig,
    canonical_json,
    evaluate_request,
    parse_request,
    post_request,
)
from repro.serve.protocol import PROTOCOL_VERSION


@pytest.fixture(scope="module")
def server():
    instance = EvalServer(
        ServeConfig(port=0, queue_bound=32, max_batch=8, batch_wait_s=0.005)
    ).start()
    yield instance
    instance.close(drain=True, timeout=30)


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz(self, server):
        status, body = get_json(server.base_url + "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["version"]

    def test_metrics_snapshot(self, server):
        post_request(server.base_url, {"analysis": "echo", "params": {}})
        status, body = get_json(server.base_url + "/metrics")
        assert status == 200
        assert body["serve.requests"]["type"] == "counter"
        assert body["serve.requests"]["value"] >= 1

    def test_stats(self, server):
        status, body = get_json(server.base_url + "/stats")
        assert status == 200
        assert body["queue_bound"] == 32
        assert "requests" in body and "sheds" in body

    def test_unknown_path_404(self, server):
        status, body = post_request(server.base_url, {"analysis": "echo",
                                                      "params": {}})
        assert status == 200  # control
        request = urllib.request.Request(
            server.base_url + "/nope", data=b"{}", method="POST"
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:  # pragma: no cover
            pytest.fail("expected 404")


class TestEval:
    def test_echo_roundtrip(self, server):
        status, body = post_request(
            server.base_url,
            {"analysis": "echo", "params": {"payload": {"k": [1, 2]}}},
        )
        assert status == 200
        assert body["ok"] is True
        assert body["result"] == {"echo": {"k": [1, 2]}}
        assert body["v"] == PROTOCOL_VERSION
        assert body["fingerprint"]
        assert body["meta"]["jobs"] == 1

    def test_malformed_body_400(self, server):
        request = urllib.request.Request(
            server.base_url + "/v1/eval", data=b"{nope", method="POST",
            headers={"Content-Length": "5"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
            payload = json.loads(exc.read().decode())
            assert payload["error"]["type"] == "protocol"
        else:  # pragma: no cover
            pytest.fail("expected 400")

    def test_unknown_analysis_400(self, server):
        status, body = post_request(server.base_url,
                                    {"analysis": "nope", "params": {}})
        assert status == 400
        assert body["error"]["type"] == "protocol"

    def test_whatif_bit_identical_to_reference(self, server):
        """The acceptance criterion: served result == unbatched evaluation."""
        body = {"analysis": "whatif",
                "params": {"workload": "memcached", "configuration": "NoDG",
                           "technique": "sleep-l"}}
        status, served = post_request(server.base_url, body)
        assert status == 200
        reference = evaluate_request(parse_request(json.dumps(body)))
        assert canonical_json(served["result"]) == canonical_json(reference)

    def test_availability_bit_identical_to_reference(self, server):
        body = {"analysis": "availability",
                "params": {"workload": "memcached", "configuration": "NoDG",
                           "technique": "sleep-l", "years": 2}}
        status, served = post_request(server.base_url, body)
        assert status == 200
        reference = evaluate_request(parse_request(json.dumps(body)))
        assert canonical_json(served["result"]) == canonical_json(reference)

    def test_availability_rounding_residue_is_not_a_500(self, server):
        """MaxPerf + proactive-migration has no real down time; per-outage
        rounding residue used to average to a negative mean down time,
        which the TCO step refused with HTTP 500."""
        body = {"analysis": "availability",
                "params": {"workload": "memcached", "configuration": "MaxPerf",
                           "technique": "proactive-migration", "years": 1000,
                           "seed": 1707611285}}
        status, served = post_request(server.base_url, body)
        assert status == 200
        assert served["result"]["mean_downtime_minutes_per_year"] == 0.0

    @pytest.mark.parametrize("analysis, params", [
        ("availability", {"workload": "memcached", "configuration": "NoDG",
                          "technique": "sleep-l", "years": 1}),
        ("fleet_frontier", {"configurations": ["NoDG"], "years": 1}),
    ])
    def test_negative_seed_is_a_400_not_a_500(self, server, analysis, params):
        status, body = post_request(
            server.base_url,
            {"analysis": analysis, "params": {**params, "seed": -1}},
        )
        assert status == 400
        assert body["error"]["type"] == "protocol"
        assert "seed" in body["error"]["message"]

    def test_coalesced_duplicates_one_evaluation(self, server):
        body = {"analysis": "echo",
                "params": {"payload": "ride", "sleep_s": 0.3}}
        results = []
        lock = threading.Lock()

        def hit():
            outcome = post_request(server.base_url, body)
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(status == 200 for status, _ in results)
        fingerprints = {payload["fingerprint"] for _, payload in results}
        assert len(fingerprints) == 1
        assert max(p["meta"]["coalesced_riders"] for _, p in results) >= 1


class TestBackpressureHTTP:
    def test_burst_sheds_with_429_and_retry_after(self):
        tiny = EvalServer(
            ServeConfig(port=0, queue_bound=1, max_batch=1, batch_wait_s=0.0)
        ).start()
        try:
            outcomes = []
            lock = threading.Lock()

            def hammer(i):
                status, payload = post_request(
                    tiny.base_url,
                    {"analysis": "echo",
                     "params": {"payload": i, "sleep_s": 0.2}},
                )
                with lock:
                    outcomes.append((status, payload))

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            statuses = [status for status, _ in outcomes]
            assert 429 in statuses
            assert tiny.stats()["sheds"] >= 1
            shed_payloads = [p for s, p in outcomes if s == 429]
            assert all(p["error"]["type"] == "shed" for p in shed_payloads)
        finally:
            tiny.close(drain=False, timeout=10)

    def test_deadline_maps_to_504(self):
        slow = EvalServer(
            ServeConfig(port=0, queue_bound=8, max_batch=1, batch_wait_s=0.0)
        ).start()
        try:
            blocker = threading.Thread(
                target=post_request,
                args=(slow.base_url,
                      {"analysis": "echo",
                       "params": {"payload": "block", "sleep_s": 1.0}}),
            )
            blocker.start()
            time.sleep(0.1)  # let the blocker reach the dispatcher
            status, payload = post_request(
                slow.base_url,
                {"analysis": "echo", "params": {"payload": "late"},
                 "deadline_s": 0.2},
            )
            blocker.join()
            assert status == 504
            assert payload["error"]["type"] in ("deadline", "timeout")
        finally:
            slow.close(drain=True, timeout=10)


class TestLifecycle:
    def test_close_is_idempotent(self):
        instance = EvalServer(ServeConfig(port=0)).start()
        instance.close(drain=True, timeout=10)
        instance.close(drain=True, timeout=10)

    def test_start_close_cycle_is_quick(self):
        # close() waits for the listener's next shutdown poll; with
        # serve_forever's default 0.5 s interval every cycle took 0.5 s.
        began = time.perf_counter()
        EvalServer(ServeConfig(port=0)).start().close(drain=True, timeout=10)
        assert time.perf_counter() - began < 0.2

    def test_drain_finishes_in_flight_work(self):
        instance = EvalServer(ServeConfig(port=0)).start()
        outcome = {}

        def slow_hit():
            outcome["response"] = post_request(
                instance.base_url,
                {"analysis": "echo", "params": {"payload": "x", "sleep_s": 0.3}},
            )

        thread = threading.Thread(target=slow_hit)
        thread.start()
        time.sleep(0.1)
        instance.close(drain=True, timeout=30)
        thread.join(timeout=10)
        status, payload = outcome["response"]
        assert status == 200
        assert payload["result"] == {"echo": "x"}


class TestConfigValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ServeError, match="workers"):
            EvalServer(ServeConfig(port=0, workers=-1))

    def test_cli_exits_2_on_negative_workers(self, capsys, monkeypatch):
        from repro.cli import main

        def never_start(self):
            raise AssertionError("a server with workers=-1 started")

        monkeypatch.setattr(EvalServer, "start", never_start)
        assert main(["serve", "--port", "0", "--workers", "-1"]) == 2
        assert "workers" in capsys.readouterr().err
