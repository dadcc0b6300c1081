"""Serve-smoke: certify the evaluation service end to end.

Three gates, in order:

1. **Bit-identical serving, in both serve modes.**  For availability,
   rank, and whatif, run the query through the CLI (``--json --cache
   DIR``) and through a live server sharing the same cache directory;
   the CLI's stdout must equal the canonical encoding of the HTTP
   response's ``result`` field *byte for byte*.  The gate runs against
   the in-process server and again against a one-worker pool
   (``workers=1``) on the same cache, so both callers of the shared
   batch evaluation function are certified.
2. **Coalescing.**  Concurrent duplicate requests must collapse to one
   evaluation (``serve.coalesced`` > 0, riders reported in meta).
3. **Loadgen under capacity.**  A short closed-loop mixed workload at
   modest concurrency must complete with zero sheds and zero errors;
   its report is written to ``BENCH_serve.json`` (the CI artifact, the
   ``serve`` stream of the bench ledger).
   A second, deliberately oversubscribed burst against a tiny queue
   must shed — proving backpressure actually engages.

Run from the repo root::

    PYTHONPATH=src python benchmarks/serve_smoke.py

Exit code 0 = certified.  Used by ``make serve-smoke`` and CI.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from repro.obs.bench import emit
from repro.serve import (
    EvalServer,
    LoadgenConfig,
    ServeConfig,
    canonical_json,
    post_request,
    run_loadgen,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serve.json"

#: (name, CLI argv after `repro`, HTTP body) — the bit-identical set.
QUERIES = [
    (
        "availability",
        ["availability", "-w", "memcached", "-c", "NoDG", "-t", "sleep-l",
         "--years", "4", "--json"],
        {"analysis": "availability",
         "params": {"workload": "memcached", "configuration": "NoDG",
                    "technique": "sleep-l", "years": 4}},
    ),
    (
        "rank",
        ["rank", "-w", "memcached", "-m", "5", "--json"],
        {"analysis": "rank",
         "params": {"workload": "memcached", "outage_minutes": 5.0}},
    ),
    (
        "whatif",
        ["whatif", "-w", "memcached", "-c", "NoDG", "-t", "sleep-l", "--json"],
        {"analysis": "whatif",
         "params": {"workload": "memcached", "configuration": "NoDG",
                    "technique": "sleep-l"}},
    ),
]


def run_cli(argv: list, cache_dir: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--cache", cache_dir],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
        },
    )
    if result.returncode != 0:
        raise SystemExit(f"CLI failed: {argv}\n{result.stderr}")
    return result.stdout.strip()


def gate_bit_identical(url: str, cache_dir: str, mode: str) -> None:
    for name, argv, body in QUERIES:
        cli_text = run_cli(argv, cache_dir)
        status, payload = post_request(url, body)
        if status != 200:
            raise SystemExit(f"{name}: HTTP {status}: {payload}")
        http_text = canonical_json(payload["result"])
        if cli_text != http_text:
            raise SystemExit(
                f"{name}: served payload differs from CLI\n"
                f"  CLI : {cli_text[:160]}...\n"
                f"  HTTP: {http_text[:160]}..."
            )
        print(
            f"[smoke] {mode} {name}: byte-identical ({len(http_text)} B, "
            f"cache_hits={payload['meta']['cache_hits']})"
        )


def gate_coalescing(url: str) -> None:
    body = {"analysis": "echo", "params": {"payload": "dup", "sleep_s": 0.3}}
    outcomes = []

    def hit() -> None:
        outcomes.append(post_request(url, body))

    threads = [threading.Thread(target=hit) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if any(status != 200 for status, _ in outcomes):
        raise SystemExit(f"coalescing gate: non-200 outcomes: {outcomes}")
    riders = max(payload["meta"]["coalesced_riders"] for _, payload in outcomes)
    if riders < 1:
        raise SystemExit(
            "coalescing gate: 4 concurrent duplicates produced no riders"
        )
    print(f"[smoke] coalescing: {riders} riders on one evaluation")


def gate_loadgen(url: str) -> dict:
    report = run_loadgen(
        LoadgenConfig(
            base_url=url,
            concurrency=3,
            duration_s=4.0,
            mix={"whatif": 2.0, "availability": 1.0, "echo": 1.0},
            seed=0,
        )
    )
    print(f"[smoke] loadgen: {report.summary()}")
    if report.requests == 0:
        raise SystemExit("loadgen gate: no requests completed")
    if report.sheds or report.errors:
        raise SystemExit(
            f"loadgen gate: expected clean run under capacity, got "
            f"{report.sheds} sheds / {report.errors} errors"
        )
    return report.to_json()


def gate_backpressure() -> dict:
    """Concurrency far above a tiny queue bound must shed with 429."""
    server = EvalServer(
        ServeConfig(port=0, queue_bound=2, max_batch=1, batch_wait_s=0.0)
    ).start()
    try:
        url = server.base_url
        body = {"analysis": "echo", "params": {"sleep_s": 0.2}}
        statuses = []
        lock = threading.Lock()

        def hammer(i: int) -> None:
            unique = {"analysis": "echo",
                      "params": {"payload": i, "sleep_s": 0.2}}
            status, _ = post_request(url, unique)
            with lock:
                statuses.append(status)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
    finally:
        server.close(drain=False, timeout=10)
    sheds = sum(1 for s in statuses if s == 429)
    if sheds == 0 or stats["sheds"] == 0:
        raise SystemExit(
            f"backpressure gate: 12-way burst against queue_bound=2 "
            f"produced no 429s (statuses: {sorted(statuses)})"
        )
    print(
        f"[smoke] backpressure: {sheds}/12 burst requests shed with 429 "
        f"(server counted {stats['sheds']})"
    )
    return {"burst_requests": len(statuses), "sheds": sheds}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as cache_dir:
        server = EvalServer(
            ServeConfig(port=0, cache_dir=cache_dir, queue_bound=64)
        ).start()
        try:
            gate_bit_identical(server.base_url, cache_dir, "in-process")
            gate_coalescing(server.base_url)
            bench = gate_loadgen(server.base_url)
            serve_stats = server.stats()
        finally:
            server.close(drain=True, timeout=30)
        pool = EvalServer(
            ServeConfig(port=0, cache_dir=cache_dir, workers=1)
        ).start()
        try:
            gate_bit_identical(pool.base_url, cache_dir, "pool")
        finally:
            pool.close(drain=True, timeout=30)
    shed_proof = gate_backpressure()
    bench["certification"] = {
        "bit_identical": {
            mode: [name for name, _, _ in QUERIES]
            for mode in ("in_process", "pool")
        },
        "coalesced": serve_stats["coalesced"],
        "sheds_under_capacity": 0,
        "backpressure": shed_proof,
    }
    emit(str(OUTPUT), **bench)
    print(f"[smoke] wrote {OUTPUT}")
    print(
        "serve-smoke: OK (bit-identical in both modes, coalescing, "
        "backpressure certified)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
