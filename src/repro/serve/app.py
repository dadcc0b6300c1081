"""The HTTP front end: stdlib ``http.server`` around the batcher.

Endpoints:

* ``POST /v1/eval`` — one protocol request; 200 with the response
  envelope, 400 on protocol errors, 429 + ``Retry-After`` when the
  admission queue sheds (or brownout refuses an expensive analysis),
  503 for quarantined poison requests and full brownout shed, 504 on
  expired deadlines, 500 on evaluation failures.  Every admitted
  request gets an ``X-Repro-Request-Id`` response header; the id keys
  its span tree under ``/trace/<id>``.
* ``GET /healthz`` — the combined health view: version, uptime, queue
  depth, rolling shed rate and p99, plus liveness/readiness flags,
  brownout tier and worker-pool state when resilience is on.
* ``GET /livez`` — pure liveness (always 200 while the process serves;
  stays up through every brownout tier).
* ``GET /readyz`` — readiness (503 when fully shed or every worker is
  down; what a load balancer should poll).
* ``GET /metrics`` — the :mod:`repro.obs` metrics snapshot as JSON by
  default; a client whose ``Accept`` header asks for ``text/plain``
  gets Prometheus text-format exposition of the same registry instead
  (plus rolling-window summaries and SLO gauges).
* ``GET /slo`` — the declarative SLO report: per-objective,
  per-window bad fractions and error-budget burn rates.
* ``GET /trace/<request-id>`` — one request's span records and nested
  tree, for as long as the trace survives the bounded store.
* ``GET /stats`` — batcher counters + cache hit statistics (+ rolling
  windows and the SLO report when telemetry is on).

The server is a :class:`ThreadingHTTPServer`: each connection gets a
handler thread that blocks on its request's future while the single
dispatcher thread runs each batch in-process (``workers=0``) or hands
it to the supervised pool; one ticker thread samples brownout and
prunes a bounded cache in either mode.  ``run_server`` wires
SIGINT/SIGTERM to a clean shutdown — stop accepting, then drain or
deadline-cancel the queue — so an operator's ^C never strands
in-flight requests.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    DeadlineError,
    PoisonedRequestError,
    ProtocolError,
    QueueFullError,
    ReproError,
    ServeError,
)
from repro.obs import ObsSession
from repro.obs.prom import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.slo import SLOSpec, SLOTracker
from repro.obs.telemetry import (
    REQUEST_ID_HEADER,
    RequestTrace,
    Telemetry,
    new_request_id,
)
from repro.runner.cache import ResultCache
from repro.serve.batcher import Batcher
from repro.serve.protocol import (
    canonical_json,
    error_envelope,
    ok_envelope,
    parse_request,
)
from repro.serve.resilience import (
    BrownoutController,
    BrownoutPolicy,
    BrownoutSignals,
    PoisonRegistry,
    Tier,
)
from repro.serve.supervisor import Supervisor

#: Longest a handler waits on an undeadlined request before giving up
#: (a deadlined one waits ``deadline_s + 1`` s).
DEFAULT_REQUEST_TIMEOUT_S = 300.0
#: Cap on the request body; evaluation requests are small.
MAX_BODY_BYTES = 1 << 20
#: Seconds between cache GC passes on the ticker thread (both modes).
CACHE_GC_PERIOD_S = 10.0
#: How often the listener checks for shutdown; ``close()`` waits up to
#: one interval (``serve_forever``'s default is 0.5 s).
SHUTDOWN_POLL_S = 0.02


@dataclass(frozen=True)
class ServeConfig:
    """Operational envelope of one server instance.

    Attributes:
        host / port: Bind address (``port=0`` picks a free port).
        cache_dir: Optional :class:`ResultCache` directory shared by
            every batch — and by any CLI run pointed at the same
            directory, which is what makes served responses provably
            identical to CLI ones.
        queue_bound / max_batch / batch_wait_s: Batcher knobs.
            ``batch_wait_s`` is the micro-batch linger and applies
            only with ``workers >= 1``; in-process dispatch cuts a
            batch as soon as the dispatcher is free.
        cache_max_bytes / cache_max_age_s: When set, the cache is
            pruned to these bounds every :data:`CACHE_GC_PERIOD_S` on
            the ticker thread — the GC keeping a long-lived server's
            disk footprint flat.
        telemetry: Request-scoped tracing, rolling-window percentiles
            and SLO tracking.  ``False`` passes ``None`` through every
            hook — the pre-telemetry code path, byte for byte.  The
            rolling windows span 60 s and ``/trace/<id>`` keeps the last
            256 finished traces (the :class:`~repro.obs.telemetry.Telemetry`
            defaults).
        slos: Override the default SLO roster (see
            :data:`repro.obs.slo.DEFAULT_SLOS`); ``None`` keeps it.
        workers: Size of the supervised worker-process pool.  ``0``
            (the default) keeps the in-process execute path; ``>= 1``
            routes every batch through fingerprint-sharded workers with
            crash supervision and poison quarantine (see
            :mod:`repro.serve.supervisor`).  :class:`EvalServer` rejects a
            negative count with :class:`ServeError`.
        poison_threshold: Worker deaths on one fingerprint before it is
            quarantined (pool mode only).
        worker_backoff_s / worker_backoff_max_s: Exponential restart
            backoff for crashed workers.
        brownout: Run the graded-degradation controller (see
            :mod:`repro.serve.resilience`).  ``False`` never refuses
            for pressure and, with a pool, always lingers the full
            batch window.
        brownout_policy: Threshold overrides; ``None`` keeps defaults.
        brownout_interval_s: Controller sampling period (also bounds
            how fast tiers can escalate — one tier per sample).
    """

    host: str = "127.0.0.1"
    port: int = 8321
    cache_dir: Optional[str] = None
    queue_bound: int = 64
    max_batch: int = 16
    batch_wait_s: float = 0.005
    cache_max_bytes: Optional[int] = None
    cache_max_age_s: Optional[float] = None
    telemetry: bool = True
    slos: Optional[Tuple[SLOSpec, ...]] = None
    workers: int = 0
    poison_threshold: int = 3
    worker_backoff_s: float = 0.1
    worker_backoff_max_s: float = 5.0
    brownout: bool = True
    brownout_policy: Optional[BrownoutPolicy] = None
    brownout_interval_s: float = 0.25


class _Handler(BaseHTTPRequestHandler):
    # Keep per-request chatter off stderr; metrics carry the telemetry.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def _server(self) -> "EvalServer":
        return self.server.eval_server  # type: ignore[attr-defined]

    def _reply(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = canonical_json(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        server = self._server
        if self.path == "/healthz":
            self._reply(200, server.health())
        elif self.path == "/livez":
            # Liveness stays 200 through any brownout tier: the process
            # is serving; only readiness reflects degradation.
            self._reply(200, {"ok": True, "live": True})
        elif self.path == "/readyz":
            is_ready, reason = server.ready()
            self._reply(
                200 if is_ready else 503,
                {"ok": is_ready, "ready": is_ready, "reason": reason},
            )
        elif self.path == "/metrics":
            accept = self.headers.get("Accept", "") or ""
            if "text/plain" in accept or "openmetrics" in accept:
                self._reply_text(
                    200, server.prometheus(), PROMETHEUS_CONTENT_TYPE
                )
            else:
                self._reply(200, server.session.metrics.snapshot())
        elif self.path == "/slo":
            if server.telemetry is None:
                self._reply(
                    404, error_envelope("telemetry_off", "telemetry disabled")
                )
            else:
                self._reply(200, server.telemetry.slo.report())
        elif self.path.startswith("/trace/"):
            request_id = self.path[len("/trace/"):]
            if server.telemetry is None:
                self._reply(
                    404, error_envelope("telemetry_off", "telemetry disabled")
                )
                return
            trace = server.telemetry.store.get(request_id)
            if trace is None:
                self._reply(
                    404,
                    error_envelope(
                        "trace_not_found",
                        f"{request_id!r} unknown or evicted",
                    ),
                )
            else:
                self._reply(200, trace)
        elif self.path == "/stats":
            self._reply(200, server.stats())
        else:
            self._reply(404, error_envelope("not_found", self.path))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/v1/eval":
            self._reply(404, error_envelope("not_found", self.path))
            return
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            self._reply(
                413, error_envelope("too_large", f"{length} B body")
            )
            return
        body = self.rfile.read(length)
        status, envelope, headers = self._server.handle_eval(body)
        self._reply(status, envelope, headers)


class EvalServer:
    """One evaluation service: batcher + cache + HTTP listener.

    Usable programmatically (tests spin one on port 0 and talk to
    ``base_url``) or via ``repro serve`` (which adds signal handling).
    """

    def __init__(self, config: ServeConfig = ServeConfig()) -> None:
        if config.workers < 0:
            raise ServeError("workers must be >= 0")
        self.config = config
        self.session = ObsSession()
        self.cache = (
            ResultCache(config.cache_dir) if config.cache_dir else None
        )
        self.telemetry: Optional[Telemetry] = (
            Telemetry(slo=SLOTracker(config.slos) if config.slos else None)
            if config.telemetry
            else None
        )
        self.poison: Optional[PoisonRegistry] = (
            PoisonRegistry(
                threshold=config.poison_threshold,
                metrics=self.session.metrics,
            )
            if config.workers > 0
            else None
        )
        self.supervisor: Optional[Supervisor] = (
            Supervisor(
                workers=config.workers,
                # Late-bound: the batcher does not exist yet.
                on_done=lambda item, outcome: self.batcher.pool_done(
                    item, outcome
                ),
                cache_dir=config.cache_dir,
                metrics=self.session.metrics,
                poison=self.poison,
                backoff_base_s=config.worker_backoff_s,
                backoff_max_s=config.worker_backoff_max_s,
            )
            if config.workers > 0
            else None
        )
        self.brownout: Optional[BrownoutController] = (
            BrownoutController(
                policy=config.brownout_policy,
                signal_fn=self._brownout_signals,
                metrics=self.session.metrics,
            )
            if config.brownout
            else None
        )
        self.batcher = Batcher(
            cache=self.cache,
            queue_bound=config.queue_bound,
            max_batch=config.max_batch,
            max_wait_s=config.batch_wait_s,
            metrics=self.session.metrics,
            telemetry=self.telemetry,
            pool=self.supervisor,
            linger_policy=(
                (lambda: self.brownout.linger_s(config.batch_wait_s))
                if self.brownout is not None
                else None
            ),
        )
        self._cache_bounded = self.cache is not None and (
            config.cache_max_bytes is not None
            or config.cache_max_age_s is not None
        )
        self.started_at = time.time()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._ticker: Optional[threading.Thread] = None
        self._ticker_stop = threading.Event()

    def _brownout_signals(self) -> BrownoutSignals:
        """One controller sample: queue pressure, tail latency, workers.

        In pool mode the dispatcher drains the admission queue into the
        shards without waiting, so queued-but-unanswered work lives in
        the supervisor's pending count — it is part of the same
        pressure and is folded into the queue signal.
        """
        with self.batcher._lock:  # noqa: SLF001 - same subsystem
            depth = len(self.batcher._queue)  # noqa: SLF001
        if self.supervisor is not None:
            depth += self.supervisor.pending_items()
        p99 = (
            self.telemetry.rolling_p99_ms()
            if self.telemetry is not None
            else None
        )
        workers_frac = (
            self.supervisor.alive_fraction()
            if self.supervisor is not None
            else 1.0
        )
        return BrownoutSignals(
            queue_frac=depth / float(self.config.queue_bound),
            p99_ms=p99,
            workers_frac=workers_frac,
        )

    def _maybe_prune(self) -> None:
        """One cache GC pass, when the config bounds the cache."""
        if not self._cache_bounded:
            return
        config = self.config
        report = self.cache.prune(
            max_bytes=config.cache_max_bytes, max_age_s=config.cache_max_age_s
        )
        if report.removed_files:
            self.session.metrics.counter("serve.cache_pruned_files").inc(
                report.removed_files
            )
            self.session.metrics.counter("serve.cache_pruned_bytes").inc(
                report.removed_bytes
            )

    # -- request handling ------------------------------------------------------

    def handle_eval(
        self, body: bytes
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        """One POST body to ``(status, envelope, extra headers)``.

        With telemetry on, every request that parses gets a request id
        minted here, threaded through the batcher (so its span tree is
        retrievable at ``/trace/<id>``) and returned in the
        ``X-Repro-Request-Id`` header; the admit→respond latency and
        ok/shed/error outcome feed the rolling windows and SLO tracker.
        """
        started = time.perf_counter()
        try:
            request = parse_request(body)
        except ProtocolError as exc:
            return 400, error_envelope("protocol", str(exc)), None
        request_id = (
            new_request_id() if self.telemetry is not None else None
        )
        headers: Dict[str, str] = (
            {REQUEST_ID_HEADER: request_id} if request_id else {}
        )
        if self.poison is not None and self.poison.is_quarantined(
            request.fingerprint
        ):
            info = self.poison.record_rejection(request.fingerprint)
            self._record_outcome(request.analysis, "error", started)
            return (
                503,
                error_envelope(
                    "poison",
                    f"request {request.fingerprint[:12]} is quarantined "
                    "after repeated worker deaths",
                    detail=info.to_json() if info is not None else None,
                ),
                headers or None,
            )
        if self.brownout is not None:
            refusal = self.brownout.refusal(request.analysis)
            if refusal is not None:
                status, reason = refusal
                self._record_outcome(request.analysis, "shed", started)
                self._count_brownout_refusal(status, request.analysis)
                headers["Retry-After"] = self._retry_after_brownout()
                return status, error_envelope("brownout", reason), headers
        try:
            future = self.batcher.submit(request, request_id=request_id)
        except QueueFullError as exc:
            if self.telemetry is not None:
                # Shed requests never reach the batcher's trace path;
                # store a root-only trace so the id still resolves.
                trace = RequestTrace(
                    request_id, request.analysis,
                    fingerprint=request.fingerprint,
                )
                self.telemetry.store.put(trace.finish("shed"))
            self._record_outcome(request.analysis, "shed", started)
            headers["Retry-After"] = self._retry_after()
            return 429, error_envelope("shed", str(exc)), headers
        except ServeError as exc:
            self._record_outcome(request.analysis, "error", started)
            return (
                503, error_envelope("unavailable", str(exc)), headers or None
            )
        wait = (
            request.deadline_s + 1.0
            if request.deadline_s is not None
            else DEFAULT_REQUEST_TIMEOUT_S
        )
        try:
            outcome = future.result(timeout=wait)
        except DeadlineError as exc:
            self._record_outcome(request.analysis, "error", started)
            return 504, error_envelope("deadline", str(exc)), headers or None
        except FutureTimeoutError:
            self._record_outcome(request.analysis, "error", started)
            return (
                504,
                error_envelope(
                    "timeout", f"no result within {wait:.1f}s"
                ),
                headers or None,
            )
        except ProtocolError as exc:
            self._record_outcome(request.analysis, "error", started)
            return 400, error_envelope("protocol", str(exc)), headers or None
        except PoisonedRequestError as exc:
            # Quarantine tripped while this very request was in flight.
            self._record_outcome(request.analysis, "error", started)
            return (
                503,
                error_envelope(
                    "poison",
                    str(exc),
                    detail={
                        "fingerprint": exc.fingerprint,
                        "analysis": exc.analysis,
                        "deaths": exc.deaths,
                    },
                ),
                headers or None,
            )
        except ReproError as exc:
            self._record_outcome(request.analysis, "error", started)
            return (
                500,
                error_envelope(type(exc).__name__, str(exc)),
                headers or None,
            )
        except Exception as exc:  # noqa: BLE001 - handlers must not die
            self._record_outcome(request.analysis, "error", started)
            return 500, error_envelope("internal", str(exc)), headers or None
        envelope = ok_envelope(request, outcome["result"], outcome["meta"])
        self._record_outcome(request.analysis, "ok", started)
        return 200, envelope, headers or None

    def _record_outcome(
        self, analysis: Optional[str], outcome: str, started_perf: float
    ) -> None:
        """Fold one finished request into rolling windows and SLOs."""
        if self.telemetry is None:
            return
        latency_ms = (time.perf_counter() - started_perf) * 1000.0
        self.telemetry.record_request("/v1/eval", analysis, outcome, latency_ms)

    def _retry_after(self) -> str:
        """A shed client's hint: roughly one batch window from now."""
        return str(max(1, int(round(self.config.batch_wait_s * 2))))

    def _retry_after_brownout(self) -> str:
        """A browned-out client's hint: try again after roughly one
        controller dwell (the soonest the tier can have stepped down)."""
        policy = (
            self.brownout.policy
            if self.brownout is not None
            else BrownoutPolicy()
        )
        return str(max(1, int(round(policy.min_dwell_s))))

    def _count_brownout_refusal(self, status: int, analysis: str) -> None:
        metrics = self.session.metrics
        if status == 503:
            metrics.counter("serve.brownout.shed").inc()
        else:
            metrics.counter("serve.brownout.refused").inc()
            metrics.counter(f"serve.brownout.refused[{analysis}]").inc()

    # -- introspection ---------------------------------------------------------

    def ready(self) -> Tuple[bool, str]:
        """Readiness: should a balancer send this instance traffic?

        Liveness (the process answers) and readiness (it would accept an
        evaluation) split under resilience: a fully shed or worker-less
        server is alive but not ready.
        """
        if self.brownout is not None and self.brownout.tier >= Tier.SHED:
            return False, f"brownout tier {self.brownout.tier.name}"
        if self.supervisor is not None and self.supervisor.alive_count() == 0:
            return False, "no worker processes alive"
        return True, "ok"

    def health(self) -> Dict[str, Any]:
        import repro

        is_ready, ready_reason = self.ready()
        out: Dict[str, Any] = {
            "ok": True,
            "live": True,
            "ready": is_ready,
            "ready_reason": ready_reason,
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": self.batcher.stats()["queue_depth"],
        }
        if self.telemetry is not None:
            shed = self.telemetry.shed_rate()
            p99 = self.telemetry.rolling_p99_ms()
            out["shed_rate"] = round(shed, 6) if shed is not None else None
            out["rolling_p99_ms"] = (
                round(p99, 3) if p99 is not None else None
            )
        if self.brownout is not None:
            out["brownout"] = self.brownout.snapshot()
        if self.supervisor is not None:
            sup = self.supervisor.stats()
            out["workers"] = {
                "configured": sup["configured"],
                "alive": sup["alive"],
                "deaths": sup["deaths"],
            }
        return out

    def prometheus(self) -> str:
        """The ``/metrics`` text-format rendering (content-negotiated)."""
        rolling = slo_report = None
        if self.telemetry is not None:
            rolling = self.telemetry.rolling.summary()
            slo_report = self.telemetry.slo.report()
        return render_prometheus(
            self.session.metrics.snapshot(),
            rolling=rolling,
            slo_report=slo_report,
            extra={
                "serve.up": 1,
                "serve.uptime_s": round(time.time() - self.started_at, 3),
            },
        )

    def stats(self) -> Dict[str, Any]:
        import repro

        stats: Dict[str, Any] = {
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "config": {
                "queue_bound": self.config.queue_bound,
                "max_batch": self.config.max_batch,
                "batch_wait_s": self.config.batch_wait_s,
                "workers": self.config.workers,
            },
            **self.batcher.stats(),
        }
        if self.supervisor is not None:
            stats["workers"] = self.supervisor.stats()
        if self.brownout is not None:
            stats["brownout"] = self.brownout.snapshot()
        if self.poison is not None:
            stats["poison"] = self.poison.stats()
        if self.cache is not None:
            disk = self.cache.stats()
            stats["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "corrupt": self.cache.corrupt,
                "entries": disk.entries,
                "bytes": disk.bytes,
                "version": self.cache.version,
            }
        if self.telemetry is not None:
            stats["rolling"] = self.telemetry.rolling.summary()
            stats["slo"] = self.telemetry.slo.report()
            stats["traces_stored"] = len(self.telemetry.store)
        return stats

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise ServeError("server not started")
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "EvalServer":
        """Bind, start the batcher and the listener thread; returns self."""
        if self._httpd is not None:
            return self
        if self.supervisor is not None:
            self.supervisor.start()
        self.batcher.start()
        if self.brownout is not None or self._cache_bounded:
            self._ticker_stop.clear()
            self._ticker = threading.Thread(
                target=self._tick_loop, name="serve-ticker", daemon=True
            )
            self._ticker.start()
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        # Non-daemon handlers + block_on_close: server_close() joins the
        # in-flight handler threads, so close() cannot return before every
        # admitted request has flushed its response (HTTP/1.0, one request
        # per connection, so the joins are bounded).
        self._httpd.daemon_threads = False
        self._httpd.eval_server = self  # type: ignore[attr-defined]
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(SHUTDOWN_POLL_S,),
            name="serve-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def _tick_loop(self) -> None:
        """Brownout sampling and the cache GC, the same in both modes."""
        interval = max(0.01, self.config.brownout_interval_s)
        next_prune = time.monotonic() + CACHE_GC_PERIOD_S
        while not self._ticker_stop.wait(interval):
            if self.brownout is not None:
                self.brownout.step()
            if time.monotonic() >= next_prune:
                self._maybe_prune()
                next_prune = time.monotonic() + CACHE_GC_PERIOD_S

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting, then drain (or cancel) the queue and pool.

        In-flight requests finish and their handler threads flush the
        responses; queued requests either run to completion (``drain``)
        or fail fast — either way every admitted request gets exactly
        one deterministic response, brownout tier or not.  Idempotent.
        """
        if self._httpd is not None:
            self._httpd.shutdown()
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
            self._ticker = None
        self.batcher.close(drain=drain, timeout=timeout)
        if self.supervisor is not None:
            self.supervisor.close(drain=drain, timeout=timeout)
        if self._httpd is not None:
            # After the queue/pool resolved every future: join handler
            # threads (they are unblocked now) so responses are flushed
            # before the process may exit, then release the socket.
            self._httpd.server_close()
            self._httpd = None
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=timeout)
            self._serve_thread = None


def run_server(config: ServeConfig) -> int:
    """Run a server until SIGINT/SIGTERM; the ``repro serve`` body.

    Returns the process exit code.  Shutdown is graceful: the listener
    stops accepting, then the queue drains (deadline-expired entries are
    cancelled by the dispatcher as usual).
    """
    server = EvalServer(config).start()
    stop = threading.Event()

    def _signal_handler(signum: int, _frame: Any) -> None:
        print(
            f"[serve] caught {signal.Signals(signum).name}, draining...",
            flush=True,
        )
        stop.set()

    previous = {
        sig: signal.signal(sig, _signal_handler)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        print(
            f"[serve] listening on {server.base_url} "
            f"(workers={config.workers}, "
            f"queue_bound={config.queue_bound}, "
            f"max_batch={config.max_batch})",
            flush=True,
        )
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.close(drain=True)
        print("[serve] drained and stopped", flush=True)
    return 0
