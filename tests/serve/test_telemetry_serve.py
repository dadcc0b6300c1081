"""Serve telemetry wiring: request ids, span trees, SLOs, Prometheus."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.prom import PROMETHEUS_CONTENT_TYPE, validate_prometheus_text
from repro.obs.telemetry import REQUEST_ID_HEADER
from repro.serve import EvalServer, ServeConfig, canonical_json, post_request_full


@pytest.fixture(scope="module")
def server():
    instance = EvalServer(
        ServeConfig(port=0, queue_bound=32, max_batch=8, batch_wait_s=0.005)
    ).start()
    yield instance
    instance.close(drain=True, timeout=30)


def get_json(url, accept=None):
    request = urllib.request.Request(url)
    if accept:
        request.add_header("Accept", accept)
    with urllib.request.urlopen(request, timeout=10) as response:
        content_type = response.headers.get("Content-Type", "")
        return response.status, content_type, response.read().decode("utf-8")


def eval_echo(server, payload, sleep_s=0.0):
    return post_request_full(
        server.base_url,
        {"analysis": "echo",
         "params": {"payload": payload, "sleep_s": sleep_s}},
    )


class TestRequestIdPropagation:
    def test_response_carries_request_id_header(self, server):
        status, headers, _ = eval_echo(server, "id-header")
        assert status == 200
        assert headers.get(REQUEST_ID_HEADER, "").startswith("req-")

    def test_trace_endpoint_reconstructs_span_tree(self, server):
        status, headers, _ = eval_echo(server, "trace-me")
        assert status == 200
        request_id = headers[REQUEST_ID_HEADER]
        status, _, raw = get_json(server.base_url + "/trace/" + request_id)
        assert status == 200
        trace = json.loads(raw)
        assert trace["request_id"] == request_id
        assert trace["outcome"] == "ok"
        names = [s["name"] for s in trace["spans"]]
        assert names == ["request", "queued", "execute", "reduce"]
        root = trace["tree"][0]
        assert root["name"] == "request"
        child_names = [c["name"] for c in root["children"]]
        assert child_names == ["queued", "execute"]
        execute = root["children"][1]
        assert [c["name"] for c in execute["children"]] == ["reduce"]

    def test_unknown_trace_id_404(self, server):
        try:
            urllib.request.urlopen(
                server.base_url + "/trace/req-ghost", timeout=10
            )
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:  # pragma: no cover
            pytest.fail("expected 404")

    def test_coalesced_riders_record_leader_id(self, server):
        body = {"analysis": "echo",
                "params": {"payload": "rider-trace", "sleep_s": 0.3}}
        results = []
        lock = threading.Lock()

        def hit():
            outcome = post_request_full(server.base_url, body)
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(status == 200 for status, _, _ in results)
        ids = [headers[REQUEST_ID_HEADER] for _, headers, _ in results]
        assert len(set(ids)) == 4  # every caller got its own id

        traces = []
        for request_id in ids:
            _, _, raw = get_json(server.base_url + "/trace/" + request_id)
            traces.append(json.loads(raw))
        riders = [t for t in traces
                  if t["spans"][0]["attrs"].get("coalesced")]
        leaders = [t for t in traces
                   if not t["spans"][0]["attrs"].get("coalesced")]
        assert riders, "at least one request should have ridden the leader"
        leader_ids = {t["request_id"] for t in leaders}
        for rider in riders:
            assert rider["spans"][0]["attrs"]["leader_id"] in leader_ids


class TestTelemetryEndpoints:
    def test_healthz_reports_shed_rate_and_rolling_p99(self, server):
        eval_echo(server, "health-sample")
        _, _, raw = get_json(server.base_url + "/healthz")
        body = json.loads(raw)
        assert "shed_rate" in body
        assert body["rolling_p99_ms"] is None or body["rolling_p99_ms"] >= 0

    def test_slo_endpoint_reports_default_roster(self, server):
        eval_echo(server, "slo-sample")
        status, _, raw = get_json(server.base_url + "/slo")
        assert status == 200
        report = json.loads(raw)
        assert set(report["slos"]) == {
            "latency_500ms", "shed_rate", "error_rate",
        }
        for entry in report["slos"].values():
            assert set(entry["windows"]) == {"300s", "3600s"}

    def test_stats_includes_rolling_and_slo(self, server):
        eval_echo(server, "stats-sample")
        _, _, raw = get_json(server.base_url + "/stats")
        body = json.loads(raw)
        assert "rolling" in body
        assert "slo" in body
        assert body["traces_stored"] >= 1


class TestMetricsNegotiation:
    def test_default_is_json_with_summaries(self, server):
        eval_echo(server, "json-metrics")
        status, content_type, raw = get_json(server.base_url + "/metrics")
        assert status == 200
        assert "application/json" in content_type
        body = json.loads(raw)
        batch_seconds = body.get("serve.batch_seconds")
        assert batch_seconds is not None
        assert "bins" in batch_seconds and "summary" in batch_seconds

    def test_text_plain_negotiates_prometheus(self, server):
        eval_echo(server, "prom-metrics")
        status, content_type, raw = get_json(
            server.base_url + "/metrics", accept="text/plain"
        )
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        census = validate_prometheus_text(raw)
        assert census["samples"] > 0
        assert "repro_serve_requests_total" in raw


class TestTelemetryOff:
    def test_disabled_server_has_no_telemetry_surface(self):
        quiet = EvalServer(
            ServeConfig(port=0, queue_bound=8, max_batch=4,
                        batch_wait_s=0.0, telemetry=False)
        ).start()
        try:
            status, headers, _ = eval_echo(quiet, "quiet")
            assert status == 200
            assert REQUEST_ID_HEADER not in headers
            for path in ("/slo", "/trace/req-x"):
                try:
                    urllib.request.urlopen(quiet.base_url + path, timeout=10)
                except urllib.error.HTTPError as exc:
                    assert exc.code == 404
                else:  # pragma: no cover
                    pytest.fail("expected 404 for " + path)
            _, _, raw = get_json(quiet.base_url + "/healthz")
            body = json.loads(raw)
            assert "shed_rate" not in body
        finally:
            quiet.close(drain=True, timeout=10)


class TestModeParity:
    """In-process and pool mode evaluate through one function and resolve
    through one completion method: same payloads, same meta keys (pool
    adds ``worker``/``attempts``), same stage spans."""

    BODIES = (
        {"analysis": "echo", "params": {"payload": "parity"}},
        {"analysis": "rank",
         "params": {"workload": "specjbb", "outage_minutes": 30}},
    )

    @staticmethod
    def serve(workers):
        server = EvalServer(
            ServeConfig(port=0, workers=workers, telemetry=True)
        ).start()
        try:
            seen = []
            for body in TestModeParity.BODIES:
                status, headers, envelope = post_request_full(
                    server.base_url, body
                )
                assert status == 200, envelope
                _, _, raw = get_json(
                    server.base_url + "/trace/" + headers[REQUEST_ID_HEADER]
                )
                seen.append((envelope, json.loads(raw)))
            return seen
        finally:
            server.close(drain=True, timeout=30)

    def test_payloads_meta_and_spans_agree_across_modes(self):
        in_process, pooled = self.serve(0), self.serve(1)
        for (local, local_trace), (pool, pool_trace) in zip(
            in_process, pooled
        ):
            assert canonical_json(local["result"]) == canonical_json(
                pool["result"]
            )
            assert set(pool["meta"]) == set(local["meta"]) | {
                "worker", "attempts",
            }
            for trace in (local_trace, pool_trace):
                spans = trace["spans"]
                assert [s["name"] for s in spans] == [
                    "request", "queued", "execute", "reduce",
                ]
                by_name = {s["name"]: s for s in spans}
                assert (
                    by_name["reduce"]["parent_id"]
                    == by_name["execute"]["span_id"]
                )
