"""Telemetry primitives: rolling windows, request traces, the store."""

import threading

import pytest

from repro.errors import ObsError
from repro.obs.telemetry import (
    REQUEST_ID_HEADER,
    RequestTrace,
    RollingStats,
    RollingWindow,
    Telemetry,
    TelemetryStore,
    new_request_id,
    span_tree,
)


class TestRequestId:
    def test_unique_and_prefixed(self):
        ids = {new_request_id() for _ in range(500)}
        assert len(ids) == 500
        assert all(i.startswith("req-") for i in ids)

    def test_header_name(self):
        assert REQUEST_ID_HEADER == "X-Repro-Request-Id"


class TestRollingWindow:
    def test_empty_summary(self):
        assert RollingWindow().summary() == {"count": 0}

    def test_percentiles_over_live_samples(self):
        window = RollingWindow(window_s=60.0)
        for v in range(1, 101):
            window.observe(float(v), now=100.0)
        summary = window.summary(now=100.0)
        assert summary["count"] == 100
        assert summary["p50"] in (50.0, 51.0)  # nearest-rank convention
        assert summary["p95"] in (95.0, 96.0)
        assert summary["p99"] in (99.0, 100.0)
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)

    def test_expired_samples_fall_out(self):
        window = RollingWindow(window_s=10.0)
        window.observe(1000.0, now=0.0)
        window.observe(1.0, now=50.0)
        summary = window.summary(now=55.0)
        assert summary["count"] == 1
        assert summary["max"] == 1.0

    def test_a_quiet_window_actually_looks_quiet(self):
        # The property cumulative histograms cannot give: after the
        # noisy minute ages out, the percentiles reflect only the calm.
        window = RollingWindow(window_s=30.0)
        for _ in range(50):
            window.observe(500.0, now=0.0)
        for _ in range(50):
            window.observe(5.0, now=100.0)
        assert window.summary(now=110.0)["p99"] == 5.0

    def test_ring_bounds_memory(self):
        window = RollingWindow(window_s=1e9, max_samples=16)
        for v in range(100):
            window.observe(float(v), now=1.0)
        assert window.summary(now=1.0)["count"] == 16

    def test_bad_args_rejected(self):
        with pytest.raises(ObsError):
            RollingWindow(window_s=0)
        with pytest.raises(ObsError):
            RollingWindow(max_samples=0)

    def test_thread_safety_no_torn_state(self):
        window = RollingWindow(window_s=60.0)

        def pound():
            for v in range(500):
                window.observe(float(v))
                window.summary()

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert window.summary()["count"] > 0


class TestRollingStats:
    def test_named_windows_sorted_summary(self):
        stats = RollingStats(window_s=60.0)
        stats.observe("b", 2.0, now=1.0)
        stats.observe("a", 1.0, now=1.0)
        summary = stats.summary(now=1.0)
        assert list(summary) == ["a", "b"]
        assert summary["a"]["count"] == 1

    def test_get_or_create_returns_same_window(self):
        stats = RollingStats()
        assert stats.window("x") is stats.window("x")

    @pytest.mark.parametrize("window_s", [0, -1.0])
    def test_bad_window_rejected_at_construction(self, window_s):
        with pytest.raises(ObsError, match="window_s must be positive"):
            RollingStats(window_s=window_s)

    def test_bad_max_samples_rejected_at_construction(self):
        with pytest.raises(ObsError, match="max_samples"):
            RollingStats(max_samples=0)


class TestRequestTrace:
    def test_span_shape_matches_tracer_records(self):
        trace = RequestTrace("req-1", "echo", fingerprint="abc")
        trace.add_span("queued", ts=1.0, dur=0.5)
        stored = trace.finish("ok")
        for record in stored["spans"]:
            assert set(record) == {
                "name", "cat", "span_id", "parent_id", "pid", "tid",
                "ts", "dur", "attrs", "events",
            }
        root = stored["spans"][0]
        assert root["name"] == "request"
        assert root["parent_id"] is None
        assert root["attrs"]["outcome"] == "ok"
        assert root["attrs"]["fingerprint"] == "abc"

    def test_default_parent_is_root(self):
        trace = RequestTrace("req-2", "echo")
        trace.add_span("child", ts=0.0, dur=0.0)
        spans = trace.finish("ok")["spans"]
        assert spans[1]["parent_id"] == spans[0]["span_id"]

    def test_explicit_parent_nesting(self):
        trace = RequestTrace("req-3", "echo")
        execute = trace.add_span("execute", ts=0.0, dur=0.0)
        trace.add_span("reduce", ts=0.0, dur=0.0, parent_id=execute)
        tree = span_tree(trace.finish("ok")["spans"])
        assert len(tree) == 1
        execute_node = tree[0]["children"][0]
        assert [c["name"] for c in execute_node["children"]] == ["reduce"]


class TestSpanTree:
    def test_missing_parent_becomes_root(self):
        records = [
            {"span_id": "a", "parent_id": "ghost", "name": "orphan"},
        ]
        roots = span_tree(records)
        assert [r["name"] for r in roots] == ["orphan"]

    def test_children_keep_record_order(self):
        records = [
            {"span_id": "r", "parent_id": None, "name": "root"},
            {"span_id": "c2", "parent_id": "r", "name": "second"},
            {"span_id": "c1", "parent_id": "r", "name": "first"},
        ]
        roots = span_tree(records)
        assert [c["name"] for c in roots[0]["children"]] == ["second", "first"]


class TestTelemetryStore:
    def _trace(self, request_id):
        return RequestTrace(request_id, "echo").finish("ok")

    def test_put_get_builds_tree(self):
        store = TelemetryStore(capacity=4)
        store.put(self._trace("req-a"))
        got = store.get("req-a")
        assert got["tree"][0]["name"] == "request"

    def test_eviction_is_oldest_first(self):
        store = TelemetryStore(capacity=2)
        for rid in ("req-1", "req-2", "req-3"):
            store.put(self._trace(rid))
        assert store.get("req-1") is None
        assert store.get("req-3") is not None
        assert len(store) == 2

    def test_unknown_id_is_none(self):
        assert TelemetryStore().get("nope") is None


class TestTelemetryBundle:
    def test_record_request_feeds_windows_and_slo(self):
        telemetry = Telemetry(window_s=60.0)
        telemetry.record_request("/v1/eval", "echo", "ok", 12.0)
        telemetry.record_request("/v1/eval", "echo", "shed", 1.0)
        assert telemetry.shed_rate() == pytest.approx(0.5)
        assert telemetry.rolling_p99_ms() is not None
        report = telemetry.slo.report()
        shed_windows = report["slos"]["shed_rate"]["windows"]
        assert any(w["bad"] == 1 for w in shed_windows.values())

    def test_no_traffic_means_no_shed_rate(self):
        assert Telemetry().shed_rate() is None
