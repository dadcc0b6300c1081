"""Closed-loop load generator for the evaluation service.

Each worker is a closed loop: issue a request, wait for the response,
record the latency, immediately issue the next.  Offered load therefore
tracks service capacity (concurrency bounds the in-flight population),
which is the right model for benchmarking a backpressured server — an
open-loop generator would just measure its own queue.

The request mix is weighted sampling over named shapes (``whatif``,
``availability``, ``rank``, ``sweep``, ``echo``), drawn from a seeded
RNG so two runs against the same server offer the same sequence.  The
report carries throughput, latency percentiles, and the status/shed
breakdown; ``repro loadgen`` writes it to ``BENCH_serve.json``, the
``serve`` stream of the bench ledger (see :mod:`repro.obs.bench`).
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ServeError
from repro.obs.bench import metric
from repro.serve.protocol import PROTOCOL_VERSION, canonical_json

#: The canned request shapes a mix can draw from.  Costs span three
#: orders of magnitude: echo ~0, whatif ~ms, availability/rank ~100 ms —
#: enough spread to exercise batching and queueing realistically while
#: keeping a smoke run fast.
REQUEST_SHAPES: Dict[str, Dict[str, Any]] = {
    "echo": {
        "analysis": "echo",
        "params": {"payload": {"ping": True}},
    },
    "whatif": {
        "analysis": "whatif",
        "params": {
            "workload": "memcached",
            "configuration": "NoDG",
            "technique": "sleep-l",
        },
    },
    "availability": {
        "analysis": "availability",
        "params": {
            "workload": "memcached",
            "configuration": "NoDG",
            "technique": "sleep-l",
            "years": 5,
        },
    },
    "rank": {
        "analysis": "rank",
        "params": {"workload": "memcached", "outage_minutes": 5.0},
    },
    "sweep": {
        "analysis": "sweep",
        "params": {
            "workload": "memcached",
            "rows": ["full-service", "sleep-l"],
            "outage_minutes": [5.0],
        },
    },
}


def parse_mix(spec: str) -> Dict[str, float]:
    """``"whatif=2,availability=1"`` -> ``{"whatif": 2.0, ...}``.

    Bare names get weight 1; unknown shapes and non-positive weights are
    rejected up front rather than failing mid-run.
    """
    mix: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_text = part.partition("=")
        name = name.strip()
        if name not in REQUEST_SHAPES:
            raise ServeError(
                f"unknown request shape {name!r}; "
                f"one of {sorted(REQUEST_SHAPES)}"
            )
        try:
            weight = float(weight_text) if weight_text else 1.0
        except ValueError as exc:
            raise ServeError(f"bad weight in {part!r}") from exc
        if weight <= 0:
            raise ServeError(f"weight for {name!r} must be positive")
        mix[name] = mix.get(name, 0.0) + weight
    if not mix:
        raise ServeError(f"empty request mix {spec!r}")
    return mix


@dataclass
class LoadgenConfig:
    """One load-generation run.

    Attributes:
        base_url: Server root, e.g. ``http://127.0.0.1:8321``.
        concurrency: Closed-loop worker threads.
        duration_s: How long workers keep issuing requests.
        mix: Shape-name -> weight (see :data:`REQUEST_SHAPES`).
        seed: RNG seed for the mix sequence.
        deadline_s: Optional per-request deadline forwarded in the body.
        timeout_s: Client-side socket timeout per request.
        net_retries: Retry budget per request for network-level failures
            (connection refused/reset — what a restarting worker pool
            looks like from outside).  A request that exhausts the
            budget is recorded as an error with status 0; the generator
            itself never crashes on transport failures.
        retry_backoff_s: Pause between network retries.
    """

    base_url: str
    concurrency: int = 4
    duration_s: float = 5.0
    mix: Mapping[str, float] = field(
        default_factory=lambda: {"whatif": 2.0, "availability": 1.0, "echo": 1.0}
    )
    seed: int = 0
    deadline_s: Optional[float] = None
    timeout_s: float = 60.0
    net_retries: int = 2
    retry_backoff_s: float = 0.05


@dataclass(frozen=True)
class LoadgenReport:
    """What one run observed.

    Attributes:
        requests / ok / sheds / errors: Outcome counts (sheds = 429).
        duration_s: Measured wall-clock of the issuing window.
        throughput_rps: Completed-OK requests per second.
        latency_ms: p50/p95/p99/mean/max over successful requests.
        status_counts: HTTP status -> count of *final* outcomes per
            request, including retry-exhausted network failures under
            status 0.
        retries: Network-level attempts that were retried (connection
            refused/reset absorbed by the budget, e.g. while a worker
            pool restarts mid-run).
        net_errors: Requests whose final outcome was still a network
            failure after the retry budget.
        by_shape: Shape name -> issued count.
        latency_by_shape: Shape name -> p50/p95/p99/mean/max over that
            shape's successful requests — the per-analysis tails the
            serve benchmark gates on, not just the blended distribution.
        config: The knobs that produced this (for the artifact).
    """

    requests: int
    ok: int
    sheds: int
    errors: int
    duration_s: float
    throughput_rps: float
    latency_ms: Dict[str, float]
    status_counts: Dict[str, int]
    by_shape: Dict[str, int]
    config: Dict[str, Any]
    latency_by_shape: Dict[str, Dict[str, float]] = field(default_factory=dict)
    retries: int = 0
    net_errors: int = 0

    def to_json(self) -> Dict[str, Any]:
        """The ``serve`` stream's BENCH record: the arguments of
        :func:`repro.obs.bench.emit`, so ``emit(path, **report.to_json())``
        writes the artifact."""
        throughput = round(self.throughput_rps, 3)
        metrics = {"throughput_rps": metric(throughput, "1/s", "higher")}
        if "p99" in self.latency_ms:
            metrics["p99_ms"] = metric(self.latency_ms["p99"], "ms", "lower")
        return {
            "bench": "serve",
            "metrics": metrics,
            "requests": self.requests,
            "ok": self.ok,
            "sheds": self.sheds,
            "errors": self.errors,
            "retries": self.retries,
            "net_errors": self.net_errors,
            "duration_s": round(self.duration_s, 3),
            "latency_ms": self.latency_ms,
            "status_counts": self.status_counts,
            "by_shape": self.by_shape,
            "latency_by_shape": self.latency_by_shape,
            "config": self.config,
        }

    def summary(self) -> str:
        lat = self.latency_ms
        return (
            f"{self.ok}/{self.requests} ok, {self.sheds} shed, "
            f"{self.errors} errors | {self.throughput_rps:.1f} req/s | "
            f"p50 {lat.get('p50', 0.0):.1f} ms, "
            f"p95 {lat.get('p95', 0.0):.1f} ms, "
            f"p99 {lat.get('p99', 0.0):.1f} ms"
        )


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; samples must be sorted and non-empty."""
    index = max(0, min(len(samples) - 1, int(round(fraction * (len(samples) - 1)))))
    return samples[index]


def post_request_full(
    base_url: str, body: Mapping[str, Any], timeout_s: float = 60.0
) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """POST one protocol request; returns ``(status, headers, body)``.

    Headers matter since the server started minting request ids — the
    ``X-Repro-Request-Id`` value retrieves the span tree from
    ``/trace/<id>``.  Network-level failures surface as status 0 with an
    error-shaped body, so callers can treat every outcome uniformly.
    """
    data = canonical_json(dict(body)).encode("utf-8")
    request = urllib.request.Request(
        f"{base_url}/v1/eval",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return (
                response.status,
                dict(response.headers.items()),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as exc:
        headers = dict(exc.headers.items()) if exc.headers else {}
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            payload = {"ok": False, "error": {"type": "http", "message": str(exc)}}
        return exc.code, headers, payload
    except (
        urllib.error.URLError,
        http.client.HTTPException,  # truncated/garbled exchange mid-shutdown
        OSError,
        ValueError,
    ) as exc:
        return 0, {}, {
            "ok": False, "error": {"type": "network", "message": str(exc)}
        }


def post_request(
    base_url: str, body: Mapping[str, Any], timeout_s: float = 60.0
) -> Tuple[int, Dict[str, Any]]:
    """:func:`post_request_full` without the headers (the original API)."""
    status, _headers, payload = post_request_full(
        base_url, body, timeout_s=timeout_s
    )
    return status, payload


def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Drive the closed loops and fold their observations into a report."""
    names = sorted(config.mix)
    weights = [float(config.mix[name]) for name in names]
    stop_at = time.monotonic() + config.duration_s
    lock = threading.Lock()
    latencies: List[float] = []
    shape_latencies: Dict[str, List[float]] = {name: [] for name in names}
    status_counts: Dict[str, int] = {}
    by_shape: Dict[str, int] = {name: 0 for name in names}
    totals = {
        "requests": 0, "ok": 0, "sheds": 0, "errors": 0,
        "retries": 0, "net_errors": 0,
    }

    def worker(worker_id: int) -> None:
        rng = random.Random(f"{config.seed}:{worker_id}")
        while time.monotonic() < stop_at:
            name = rng.choices(names, weights=weights, k=1)[0]
            shape = REQUEST_SHAPES[name]
            body: Dict[str, Any] = {
                "v": PROTOCOL_VERSION,
                "analysis": shape["analysis"],
                "params": shape["params"],
            }
            if config.deadline_s is not None:
                body["deadline_s"] = config.deadline_s
            started = time.monotonic()
            # Network failures (status 0: connection refused/reset — a
            # worker restart seen from outside) burn the retry budget
            # instead of crashing the loop or skewing the error count
            # with transient blips.
            attempts_left = max(0, config.net_retries)
            while True:
                status, _payload = post_request(
                    config.base_url, body, timeout_s=config.timeout_s
                )
                if status != 0 or attempts_left <= 0:
                    break
                attempts_left -= 1
                with lock:
                    totals["retries"] += 1
                if config.retry_backoff_s > 0:
                    time.sleep(config.retry_backoff_s)
            elapsed_ms = (time.monotonic() - started) * 1000.0
            with lock:
                totals["requests"] += 1
                by_shape[name] += 1
                status_counts[str(status)] = (
                    status_counts.get(str(status), 0) + 1
                )
                if status == 200:
                    totals["ok"] += 1
                    latencies.append(elapsed_ms)
                    shape_latencies[name].append(elapsed_ms)
                elif status == 429:
                    totals["sheds"] += 1
                else:
                    totals["errors"] += 1
                    if status == 0:
                        totals["net_errors"] += 1

    started_at = time.monotonic()
    threads = [
        threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
        for i in range(config.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started_at

    def percentiles(samples: List[float]) -> Dict[str, float]:
        samples.sort()
        if not samples:
            return {}
        return {
            "p50": round(_percentile(samples, 0.50), 3),
            "p95": round(_percentile(samples, 0.95), 3),
            "p99": round(_percentile(samples, 0.99), 3),
            "mean": round(statistics.fmean(samples), 3),
            "max": round(samples[-1], 3),
        }

    latency_ms = percentiles(latencies)
    latency_by_shape = {
        name: percentiles(samples)
        for name, samples in sorted(shape_latencies.items())
        if samples
    }
    return LoadgenReport(
        requests=totals["requests"],
        ok=totals["ok"],
        sheds=totals["sheds"],
        errors=totals["errors"],
        retries=totals["retries"],
        net_errors=totals["net_errors"],
        duration_s=wall,
        throughput_rps=totals["ok"] / wall if wall > 0 else 0.0,
        latency_ms=latency_ms,
        status_counts=dict(sorted(status_counts.items())),
        by_shape=by_shape,
        latency_by_shape=latency_by_shape,
        config={
            "base_url": config.base_url,
            "concurrency": config.concurrency,
            "duration_s": config.duration_s,
            "mix": dict(sorted(config.mix.items())),
            "seed": config.seed,
            "deadline_s": config.deadline_s,
            "net_retries": config.net_retries,
        },
    )
