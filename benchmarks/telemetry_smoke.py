"""Telemetry-smoke: certify the serve observability layer end to end.

Five gates, in order, against one live telemetry-enabled server:

1. **Request-id round trip.**  Every ``POST /v1/eval`` answers with an
   ``X-Repro-Request-Id`` header, and ``GET /trace/<id>`` reconstructs
   the full admission→queued→execute→reduce span tree for that id.
2. **Rider propagation.**  Concurrent duplicate requests coalesce; each
   rider's own id resolves to a trace that names the leader it rode on.
3. **Rolling + SLO surfaces.**  After a short loadgen run, ``/healthz``
   reports a shed rate and rolling p99, and ``/slo`` reports every
   default SLO over both burn windows.
4. **Prometheus exposition.**  ``GET /metrics`` with ``Accept:
   text/plain`` yields text that passes the exposition-grammar
   validator; the JSON snapshot stays the default and carries derived
   histogram summaries.
5. **Bench ledger.**  The loadgen report (written to BENCH_serve.json)
   records into ``BENCH_history.jsonl``; ``repro bench check`` passes on
   the real trajectory and fails on an injected synthetic regression
   (checked against a scratch copy of the ledger — the injection never
   touches the real history).

Run from the repo root::

    PYTHONPATH=src python benchmarks/telemetry_smoke.py

Exit code 0 = certified.  Used by ``make telemetry-smoke`` and CI,
which uploads BENCH_history.jsonl as an artifact.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.obs import bench as benchmod
from repro.obs.prom import PROMETHEUS_CONTENT_TYPE, validate_prometheus_text
from repro.obs.telemetry import REQUEST_ID_HEADER
from repro.serve import (
    EvalServer,
    LoadgenConfig,
    ServeConfig,
    post_request_full,
    run_loadgen,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SERVE = REPO_ROOT / "BENCH_serve.json"
HISTORY = REPO_ROOT / "BENCH_history.jsonl"
SMOKE_TOLERANCE = 0.5


def get(url: str, headers: dict = None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return (
            response.status,
            dict(response.headers.items()),
            response.read().decode("utf-8"),
        )


def gate_request_id(base: str) -> None:
    status, headers, body = post_request_full(
        base, {"analysis": "echo", "params": {"payload": {"gate": 1}}}
    )
    assert status == 200, f"eval failed: {status} {body}"
    request_id = headers.get(REQUEST_ID_HEADER)
    assert request_id, f"missing {REQUEST_ID_HEADER} header"
    _, _, text = get(f"{base}/trace/{request_id}")
    trace = json.loads(text)
    names = [span["name"] for span in trace["spans"]]
    assert names == ["request", "queued", "execute", "reduce"], names
    assert trace["outcome"] == "ok", trace["outcome"]
    tree = trace["tree"]
    assert len(tree) == 1 and tree[0]["name"] == "request", "root mismatch"
    kids = [child["name"] for child in tree[0]["children"]]
    assert kids == ["queued", "execute"], kids
    print(f"[telemetry-smoke] request-id: {request_id} -> "
          f"span tree {' -> '.join(names)}  OK")


def gate_riders(base: str, server: EvalServer) -> None:
    # A slow leader guarantees the duplicates arrive while it is
    # pending; identical bodies coalesce onto one entry.
    body = {"analysis": "echo",
            "params": {"payload": {"gate": 2}, "sleep_s": 0.25}}
    results = []

    def issue():
        results.append(post_request_full(base, body))

    threads = [threading.Thread(target=issue) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ids = [r[1].get(REQUEST_ID_HEADER) for r in results]
    assert all(r[0] == 200 for r in results), [r[0] for r in results]
    assert len(set(ids)) == len(ids), "request ids must be unique"
    traces = [
        json.loads(get(f"{base}/trace/{request_id}")[2])
        for request_id in ids
    ]
    leaders = [t for t in traces if not t["spans"][0]["attrs"].get("coalesced")]
    riders = [t for t in traces if t["spans"][0]["attrs"].get("coalesced")]
    assert riders, "no coalesced riders observed"
    leader_ids = {t["request_id"] for t in leaders}
    for rider in riders:
        leader_ref = rider["spans"][0]["attrs"]["leader_id"]
        assert leader_ref in leader_ids, (
            f"rider {rider['request_id']} references unknown leader "
            f"{leader_ref}"
        )
    print(f"[telemetry-smoke] riders: {len(riders)} coalesced onto "
          f"{len(leaders)} leader(s), leader ids propagated  OK")


def gate_rolling_slo(base: str) -> None:
    report = run_loadgen(
        LoadgenConfig(
            base_url=base,
            concurrency=4,
            duration_s=3.0,
            mix={"whatif": 2.0, "availability": 1.0, "echo": 1.0},
            seed=0,
        )
    )
    assert report.errors == 0, f"{report.errors} loadgen errors"
    assert report.latency_by_shape, "per-shape percentiles missing"
    for shape, percentiles in report.latency_by_shape.items():
        assert {"p50", "p95", "p99"} <= set(percentiles), (shape, percentiles)
    benchmod.emit(str(BENCH_SERVE), **report.to_json())

    health = json.loads(get(f"{base}/healthz")[2])
    assert "shed_rate" in health and "rolling_p99_ms" in health, health
    assert health["rolling_p99_ms"] is not None, "no rolling p99 after load"

    slo = json.loads(get(f"{base}/slo")[2])
    for name in ("latency_500ms", "shed_rate", "error_rate"):
        windows = slo["slos"][name]["windows"]
        assert len(windows) == 2, (name, windows)
        for window in windows.values():
            assert window["events"] > 0, (name, window)
            assert "burn_rate" in window and "compliant" in window
    print(f"[telemetry-smoke] loadgen: {report.summary()}")
    print(f"[telemetry-smoke] /slo: {sorted(slo['slos'])} over "
          f"{len(windows)} windows, alerting={slo['alerting']}  OK")


def gate_prometheus(base: str) -> None:
    status, headers, text = get(
        f"{base}/metrics", headers={"Accept": "text/plain"}
    )
    assert status == 200
    assert headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE, headers
    census = validate_prometheus_text(text)
    assert census["samples"] > 0, "empty exposition"
    assert any(
        kind == "histogram" for kind in census["types"].values()
    ), "no histogram families rendered"

    _, json_headers, json_text = get(f"{base}/metrics")
    assert "application/json" in json_headers.get("Content-Type", "")
    snapshot = json.loads(json_text)
    histograms = [
        entry for entry in snapshot.values()
        if entry.get("type") == "histogram"
    ]
    assert histograms and all("summary" in h and "bins" in h
                              for h in histograms)
    print(f"[telemetry-smoke] prometheus: {census['families']} families, "
          f"{census['samples']} samples validate; JSON default intact  OK")


def gate_bench_ledger() -> None:
    appended = benchmod.record(root=str(REPO_ROOT), history_path=str(HISTORY))
    assert any(e["bench"] == "serve" for e in appended), appended
    entries = benchmod.load_history(str(HISTORY))
    # The smoke's loadgen samples only ~3 s, so run-to-run throughput
    # noise is large; gate at a loose 50% here.  The injected regression
    # below (60% throughput drop, 5x p99) fails even at this tolerance.
    report = benchmod.check(entries, tolerance=SMOKE_TOLERANCE)
    assert report.ok, benchmod.format_report(report)

    # Injected regression must fail — proven on a scratch copy.
    with tempfile.TemporaryDirectory() as scratch:
        scratch_history = Path(scratch) / "BENCH_history.jsonl"
        shutil.copy(HISTORY, scratch_history)
        current = [e for e in entries if e["bench"] == "serve"][-1]
        scale = {"throughput_rps": 0.4, "p99_ms": 5.0}
        bad = dict(current)
        bad["metrics"] = {
            name: {**metric, "value": metric["value"] * scale[name]}
            for name, metric in current["metrics"].items()
        }
        with open(scratch_history, "a") as handle:
            handle.write(json.dumps(bad) + "\n")
        poisoned = benchmod.check(
            benchmod.load_history(str(scratch_history)),
            tolerance=SMOKE_TOLERANCE,
        )
        assert not poisoned.ok, "synthetic regression not detected"
        regressed = {v.metric for v in poisoned.regressions}
        assert "throughput_rps" in regressed, regressed
    print(f"[telemetry-smoke] bench ledger: {len(entries)} entries, real "
          "trajectory PASSES, injected regression FAILS  OK")


def main() -> int:
    server = EvalServer(
        ServeConfig(port=0, batch_wait_s=0.002, queue_bound=64)
    ).start()
    try:
        base = server.base_url
        print(f"[telemetry-smoke] server at {base}")
        gate_request_id(base)
        gate_riders(base, server)
        gate_rolling_slo(base)
        gate_prometheus(base)
    finally:
        server.close(drain=True, timeout=30)
    gate_bench_ledger()
    print("[telemetry-smoke] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
