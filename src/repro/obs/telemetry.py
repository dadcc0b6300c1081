"""Request-scoped telemetry: rolling windows and retrievable span trees.

:mod:`repro.obs.tracer` answers "what did this *process* spend its time
on"; this module answers the serving questions the paper's methodology
demands of production systems — *what happened to this one request*, and
*what do the tails look like right now*:

* :class:`RollingWindow` / :class:`RollingStats` — fixed-ring sliding
  windows over the last N seconds giving honest p50/p95/p99 (computed
  from the actual samples, not cumulative bins), per endpoint and per
  analysis.  They deliberately complement — not replace — the
  deterministic cumulative histograms in :mod:`repro.obs.metrics`.
* :func:`new_request_id` — process-unique request ids minted at
  admission and returned in the ``X-Repro-Request-Id`` response header.
* :class:`RequestTrace` / :class:`TelemetryStore` — per-request span
  records (the same plain-dict shape :class:`~repro.obs.tracer.Tracer`
  produces, so they export through the same machinery) kept in a
  bounded ring; one request id retrieves the full
  admission→batch→execute→reduce tree via :func:`span_tree`.
* :class:`Telemetry` — the bundle the serve tier threads through its
  hooks.  The PR-3 contract holds: a disabled server passes ``None``
  and every hook is a single ``is None`` check.

Nothing in this module touches the simulation stack: rolling windows and
request traces live on the serving side only, so worker-count
bit-identical metrics are unaffected.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ObsError
from repro.obs.slo import SLOTracker

#: Response header carrying the request id minted at admission.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

_REQUEST_COUNTER = itertools.count(1)


def new_request_id() -> str:
    """A process-unique request id: ``req-<pid hex>-<counter hex>-<rand>``.

    The random suffix keeps ids unique across server restarts sharing a
    PID; the counter keeps them unique (and roughly ordered) within one.
    """
    return (
        f"req-{os.getpid():x}-{next(_REQUEST_COUNTER):x}"
        f"-{os.urandom(3).hex()}"
    )


def nearest_rank(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; ``samples`` must be sorted and non-empty.

    The one rule behind the rolling windows and the load generator's
    reports, so their p50/p95/p99 figures agree sample for sample.
    """
    n = len(samples)
    return samples[max(0, min(n - 1, int(round(fraction * (n - 1)))))]


class RollingWindow:
    """A fixed-ring sliding window of (timestamp, value) samples.

    The ring bounds memory (``max_samples``); the window bounds time.
    Percentiles are computed from the surviving samples directly with
    :func:`nearest_rank`, the rule the load generator reports, so a
    quiet minute after a noisy one actually *looks* quiet, which
    cumulative histograms can never show.
    """

    __slots__ = ("window_s", "max_samples", "_samples", "_lock")

    def __init__(self, window_s: float = 60.0, max_samples: int = 4096) -> None:
        if window_s <= 0:
            raise ObsError("window_s must be positive")
        if max_samples < 1:
            raise ObsError("max_samples must be >= 1")
        self.window_s = window_s
        self.max_samples = max_samples
        self._samples: List[tuple] = []  # (t, value), append-ordered
        self._lock = threading.Lock()

    def observe(self, value: float, now: Optional[float] = None) -> None:
        t = time.monotonic() if now is None else now
        with self._lock:
            self._samples.append((t, float(value)))
            if len(self._samples) > self.max_samples:
                del self._samples[: len(self._samples) - self.max_samples]

    def _live(self, now: Optional[float]) -> List[float]:
        t = time.monotonic() if now is None else now
        horizon = t - self.window_s
        with self._lock:
            # Drop expired samples in place so the ring never retains
            # more than one window of dead weight.
            cut = 0
            for cut, (ts, _) in enumerate(self._samples):
                if ts >= horizon:
                    break
            else:
                cut = len(self._samples)
            if cut:
                del self._samples[:cut]
            return [v for _, v in self._samples]

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """``{count, mean, p50, p95, p99, max}`` over the live window."""
        values = sorted(self._live(now))
        if not values:
            return {"count": 0}
        n = len(values)
        return {
            "count": n,
            "mean": sum(values) / n,
            "p50": nearest_rank(values, 0.50),
            "p95": nearest_rank(values, 0.95),
            "p99": nearest_rank(values, 0.99),
            "max": values[-1],
        }


class RollingStats:
    """Named rolling windows with get-or-create access (thread-safe)."""

    def __init__(self, window_s: float = 60.0, max_samples: int = 4096) -> None:
        # RollingWindow's own checks, made here so a bad value fails where
        # it enters rather than inside the first request that records.
        if window_s <= 0:
            raise ObsError("window_s must be positive")
        if max_samples < 1:
            raise ObsError("max_samples must be >= 1")
        self.window_s = window_s
        self.max_samples = max_samples
        self._windows: Dict[str, RollingWindow] = {}
        self._lock = threading.Lock()

    def window(self, name: str) -> RollingWindow:
        with self._lock:
            win = self._windows.get(name)
            if win is None:
                win = RollingWindow(self.window_s, self.max_samples)
                self._windows[name] = win
            return win

    def observe(self, name: str, value: float, now: Optional[float] = None) -> None:
        self.window(name).observe(value, now=now)

    def summary(self, now: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        with self._lock:
            windows = dict(self._windows)
        return {
            name: windows[name].summary(now) for name in sorted(windows)
        }


class RequestTrace:
    """One request's span records, built as the request moves through serve.

    Records use the exact shape :class:`~repro.obs.tracer.Tracer`
    produces (name/cat/span_id/parent_id/pid/tid/ts/dur/attrs/events),
    so a stored trace can be exported as Chrome ``trace_event`` JSON or
    re-rendered by ``repro stats`` with zero adaptation.  The root span
    is opened at admission and closed by :meth:`finish`.
    """

    def __init__(self, request_id: str, analysis: str, **attrs: Any) -> None:
        self.request_id = request_id
        self.analysis = analysis
        self._counter = itertools.count(1)
        self._pid = os.getpid()
        self._started_unix = time.time()
        self._started_perf = time.perf_counter()
        self.records: List[Dict[str, Any]] = []
        self.root_id = self.add_span(
            "request", ts=self._started_unix, dur=0.0, parent_id=None,
            analysis=analysis, request_id=request_id, **attrs,
        )

    def _next_id(self) -> str:
        return f"{self.request_id}-{next(self._counter):x}"

    def add_span(
        self,
        name: str,
        ts: float,
        dur: float,
        parent_id: Optional[str] = "root",
        **attrs: Any,
    ) -> str:
        """Append one finished span; ``parent_id="root"`` hangs it off the
        request root.  Returns the new span id."""
        span_id = self._next_id()
        if parent_id == "root":
            parent_id = getattr(self, "root_id", None)
        self.records.append(
            {
                "name": name,
                "cat": "serve",
                "span_id": span_id,
                "parent_id": parent_id,
                "pid": self._pid,
                "tid": 0,
                "ts": ts,
                "dur": float(dur),
                "attrs": dict(attrs),
                "events": [],
            }
        )
        return span_id

    def set_root(self, **attrs: Any) -> None:
        """Attach attributes to the root request span."""
        self.records[0]["attrs"].update(attrs)

    def finish(self, outcome: str) -> Dict[str, Any]:
        """Close the root span and return the storable trace dict."""
        root = self.records[0]
        root["dur"] = time.perf_counter() - self._started_perf
        root["attrs"]["outcome"] = outcome
        return {
            "request_id": self.request_id,
            "analysis": self.analysis,
            "outcome": outcome,
            "spans": self.records,
        }


def span_tree(records: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Nest flat span records into a parent→children tree (roots returned).

    Children keep record order.  Records whose parent is missing from
    the set are treated as roots, so partial traces still render.
    """
    nodes = {
        r["span_id"]: {**r, "children": []} for r in records
    }
    roots: List[Dict[str, Any]] = []
    for record in records:
        node = nodes[record["span_id"]]
        parent = record.get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots


class TelemetryStore:
    """A bounded ring of finished request traces, keyed by request id.

    Oldest-evicted at ``capacity``; lookups build the nested span tree
    on demand.  The store is the backing of ``GET /trace/<id>`` — a
    request id from a response header retrieves the admission→batch→
    execute→reduce tree for as long as the trace survives the ring.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ObsError("capacity must be >= 1")
        self.capacity = capacity
        self._traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def put(self, trace: Mapping[str, Any]) -> None:
        with self._lock:
            self._traces[trace["request_id"]] = dict(trace)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, request_id: str) -> Optional[Dict[str, Any]]:
        """The stored trace plus its nested ``tree``, or None."""
        with self._lock:
            trace = self._traces.get(request_id)
            if trace is None:
                return None
            trace = dict(trace)
        trace["tree"] = span_tree(trace["spans"])
        return trace

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)


class Telemetry:
    """The serve tier's telemetry bundle: traces + rolling stats + SLOs.

    One instance per server; the batcher and HTTP front end hold either
    this or ``None`` (telemetry disabled) and guard every hook with one
    ``is None`` check — the same discipline as the simulation hooks.
    """

    def __init__(
        self,
        window_s: float = 60.0,
        slo: Optional[SLOTracker] = None,
    ) -> None:
        self.store = TelemetryStore()
        self.rolling = RollingStats(window_s=window_s)
        self.slo = slo if slo is not None else SLOTracker()

    def record_request(
        self,
        endpoint: str,
        analysis: Optional[str],
        outcome: str,
        latency_ms: float,
    ) -> None:
        """Fold one finished HTTP request into rolling stats and SLOs."""
        self.rolling.observe(f"latency_ms[endpoint={endpoint}]", latency_ms)
        if analysis:
            self.rolling.observe(f"latency_ms[analysis={analysis}]", latency_ms)
        self.rolling.observe(
            "shed", 1.0 if outcome == "shed" else 0.0
        )
        self.slo.record(outcome, latency_ms)

    def shed_rate(self) -> Optional[float]:
        """Rolling shed fraction over the window (None with no traffic)."""
        summary = self.rolling.window("shed").summary()
        if not summary.get("count"):
            return None
        return summary["mean"]

    def rolling_p99_ms(self, endpoint: str = "/v1/eval") -> Optional[float]:
        summary = self.rolling.window(
            f"latency_ms[endpoint={endpoint}]"
        ).summary()
        return summary.get("p99")
