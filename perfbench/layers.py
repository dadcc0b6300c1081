"""Per-layer spans: wrapping layer entry points, and reducing the spans.

The server side (:class:`SpanLog`, used by ``launch.py``) wraps each
layer's public function at the name its callers look up, keeps one
tuple per call in memory and writes them all when the server exits.
The benchmark side (:func:`layer_metrics`, :func:`chrome_trace`, used
by ``run.py``) keeps the spans inside the timed window and turns them
into the per-layer metrics declared in ``specs.py``.

A span tuple is ``(name, span_id, parent_id, tid, t0_ns, dur_ns,
self_ns, extra)``: ``t0_ns`` is ``time.monotonic_ns()`` (one clock for
every process on the host, so ``run.py`` can cut the window), a span's
self time is its duration minus its wrapped children's, and ``extra``
is a per-hook count read off the call (jobs submitted, cache hit,
events sampled, HTTP status, years in a block).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ExtraFn = Callable[[tuple, dict, Any], Any]


def _jobs_arg(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1] if len(args) > 1 else kwargs["jobs"])


#: (span name, "module:qualname", rebind importers, extra) — one row per
#: wrapped entry point.  "Rebind" also replaces the name in every loaded
#: ``repro`` module that imported the function itself; otherwise only
#: the named binding is wrapped (the app's ``canonical_json`` is the
#: response encoder; the protocol module's copy fingerprints requests).
HOOKS: Tuple[Tuple[str, str, bool, Optional[ExtraFn]], ...] = (
    ("serve.parse", "repro.serve.protocol:parse_request", True, None),
    ("serve.handle", "repro.serve.app:EvalServer.handle_eval", False,
     lambda a, k, r: r[0]),
    ("serve.encode", "repro.serve.app:canonical_json", False, None),
    ("runner.build", "repro.serve.analyses:build", True, None),
    ("runner.run", "repro.runner.executor:BaseExecutor.run", False, _jobs_arg),
    ("runner.job", "repro.runner.jobs:Job.run", False, None),
    ("runner.cache_get", "repro.runner.cache:ResultCache.get", False,
     lambda a, k, r: int(bool(r[0]))),
    ("runner.cache_put", "repro.runner.cache:ResultCache.put", False, None),
    ("outages.sample_year", "repro.outages.generator:OutageGenerator.sample_year",
     False, lambda a, k, r: len(r.events)),
    ("outages.sample_schedule",
     "repro.outages.generator:OutageGenerator.sample_schedule", False, None),
    ("outages.sample_years",
     "repro.outages.generator:OutageGenerator.sample_years", False, None),
    ("sim.run_schedule", "repro.sim.yearly:YearlyRunner.run_schedule", False, None),
    ("sim.outage", "repro.sim.outage_sim:simulate_outage", True, None),
    ("techniques.compile", "repro.techniques.base:OutageTechnique.compile_plan",
     False, None),
    ("vsim.block", "repro.vsim.yearly:simulate_year_block", True,
     lambda a, k, r: int((a[0] if a else k["spec"])["count"])),
    ("fleet.year", "repro.fleet.sim:simulate_fleet_year", True, None),
    ("fleet.route", "repro.fleet.routing:route_fleet_year", True, None),
    ("policy.cell", "repro.policy.frontier:policy_cell", True, None),
    ("core.whatif", "repro.core.whatif:whatif_cell", True, None),
)

#: Span name of the reduce step ``analyses.build`` hands back.
FINISH = "runner.finish"


def _safe(extra: Optional[ExtraFn], args: tuple, kwargs: dict, result: Any):
    """The hook's count, or None when the call no longer has that shape."""
    if extra is None:
        return None
    try:
        return extra(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _is_build_pair(result: Any) -> bool:
    return isinstance(result, tuple) and len(result) == 2 and callable(result[1])


class SpanLog:
    """In-memory span recorder for one server process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.status: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn: Callable, name: str, extra: Optional[ExtraFn] = None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0, next(ids)]  # [child ns, span id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            ok = False
            t0 = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = time.monotonic_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                spans.append((
                    name, frame[1], parent, threading.get_native_id(), t0,
                    dur, dur - frame[0],
                    _safe(extra, args, kwargs, result) if ok else None,
                ))
            if name == "runner.build" and _is_build_pair(result):
                # Time the request's reduce step, which runs later.
                jobs, finish = result
                return jobs, self.wrap(finish, FINISH)
            return result

        return wrapper

    def install(self, hooks=HOOKS) -> Dict[str, str]:
        """Wrap every hook; a hook whose target is gone is ``absent``."""
        resolved = []
        for name, target, rebind, extra in hooks:
            module_name, qualname = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.status[name] = f"absent ({type(exc).__name__}: {exc})"
                continue
            resolved.append((name, owner, attr, original, rebind, extra))
        # Wrap only after every target module is imported, so the rebind
        # scan sees each module that bound a name at import time.
        for name, owner, attr, original, rebind, extra in resolved:
            wrapper = self.wrap(original, name, extra)
            setattr(owner, attr, wrapper)
            if rebind:
                for module in list(sys.modules.values()):
                    if (
                        getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original
                    ):
                        setattr(module, attr, wrapper)
            self.status[name] = "ok"
        return self.status

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"hooks": self.status, "spans": self.spans}, fh)


# -- benchmark side ------------------------------------------------------------


def in_window(spans: Sequence[Sequence[Any]], t0_ns: int, t1_ns: int) -> List[tuple]:
    return [tuple(s) for s in spans if s[4] >= t0_ns and s[4] + s[5] <= t1_ns]


def _busy_ns(spans: Sequence[tuple]) -> int:
    """Wall time with at least one top-level span open, any thread."""
    intervals = sorted((s[4], s[4] + s[5]) for s in spans if s[2] == 0)
    busy, end = 0, None
    for start, stop in intervals:
        if end is None or start > end:
            busy += stop - start
            end = stop
        elif stop > end:
            busy += stop - end
            end = stop
    return busy


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Sequence[tuple],
    client_latency_ms: Sequence[float],
    stats_delta: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced window (see ``specs.LAYERS``).

    A batch serves several requests, so the runner's spans (build,
    executor run, cache reads and writes) are not split per request:
    ``runner.*_ms`` are window totals divided by the window's 2xx
    requests.  The other timings are per call of the wrapped function.
    ``stats_delta`` carries the ``/stats`` batcher counters' change over
    the window (``requests``, ``coalesced``, ``batches``).
    """
    count: Dict[str, int] = {}
    total: Dict[str, int] = {}
    own: Dict[str, int] = {}
    extra: Dict[str, float] = {}
    ok_requests = 0
    handle_ok_ns = 0
    for name, _sid, _pid, _tid, _t0, dur, self_ns, x in spans:
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        own[name] = own.get(name, 0) + self_ns
        if x is not None:
            extra[name] = extra.get(name, 0) + x
        if name == "serve.handle" and x == 200:
            ok_requests += 1
            handle_ok_ns += dur

    def ms(name: str) -> float:
        return total.get(name, 0) / 1e6

    reqs = max(ok_requests, 1)
    jobs = extra.get("runner.run", 0)
    years = count.get("outages.sample_year", 0)
    sampling_ns = sum(own.get(n, 0) for n in own if n.startswith("outages."))
    handle_ms = handle_ok_ns / 1e6 / reqs
    work_ms = ms("runner.build") + ms("runner.run") + ms(FINISH)
    mean_latency = (
        sum(client_latency_ms) / len(client_latency_ms) if client_latency_ms else 0.0
    )
    attributed = sum(v for n, v in own.items() if n != "serve.handle")
    block_years = extra.get("vsim.block", 0)
    return {
        "serve.parse_ms": _ratio(ms("serve.parse"), count.get("serve.parse", 0)),
        "serve.handle_ms": handle_ms,
        "serve.wait_ms": handle_ms - work_ms / reqs,
        "serve.http_ms": mean_latency - handle_ms,
        "serve.encode_ms": _ratio(ms("serve.encode"), count.get("serve.encode", 0)),
        "serve.batch_size": _ratio(
            stats_delta.get("requests", 0) - stats_delta.get("coalesced", 0),
            stats_delta.get("batches", 0),
        ),
        "serve.coalesced_frac": _ratio(
            stats_delta.get("coalesced", 0), stats_delta.get("requests", 0)
        ),
        "runner.build_ms": ms("runner.build") / reqs,
        "runner.run_ms": ms("runner.run") / reqs,
        "runner.jobs_per_req": jobs / reqs,
        "runner.job_overhead_us": _ratio(
            (ms("runner.run") - ms("runner.job")) * 1e3, jobs
        ),
        "runner.cache_get_ms": ms("runner.cache_get") / reqs,
        "runner.cache_hit_frac": _ratio(
            extra.get("runner.cache_get", 0), count.get("runner.cache_get", 0)
        ),
        "runner.cache_put_ms": ms("runner.cache_put") / reqs,
        "outages.sample_us_per_year": _ratio(sampling_ns / 1e3, years),
        "outages.events_per_year": _ratio(extra.get("outages.sample_year", 0), years),
        "sim.year_us": _ratio(
            own.get("sim.run_schedule", 0) / 1e3, count.get("sim.run_schedule", 0)
        ),
        "sim.outage_calls": count.get("sim.outage", 0) / reqs,
        "sim.outage_us": _ratio(ms("sim.outage") * 1e3, count.get("sim.outage", 0)),
        "techniques.compile_calls_per_req": count.get("techniques.compile", 0) / reqs,
        "vsim.block_calls": count.get("vsim.block", 0) / reqs,
        "vsim.years_per_block": _ratio(block_years, count.get("vsim.block", 0)),
        "vsim.block_us_per_year": _ratio(ms("vsim.block") * 1e3, block_years),
        "fleet.year_ms": _ratio(
            own.get("fleet.year", 0) / 1e6, count.get("fleet.year", 0)
        ),
        "fleet.route_ms": _ratio(ms("fleet.route"), count.get("fleet.route", 0)),
        "fleet.route_share": _ratio(ms("fleet.route"), ms("fleet.year")),
        "policy.cell_ms": _ratio(ms("policy.cell"), count.get("policy.cell", 0)),
        "core.whatif_ms": _ratio(ms("core.whatif"), count.get("core.whatif", 0)),
        "process.unattributed_frac": 1.0 - _ratio(attributed, _busy_ns(spans)),
    }


def layer_status(hooks: Dict[str, str]) -> Dict[str, str]:
    """Layer -> ``ok``, ``absent`` (every hook gone) or ``partial``."""
    by_layer: Dict[str, List[bool]] = {}
    for name, status in hooks.items():
        by_layer.setdefault(name.split(".", 1)[0], []).append(status == "ok")
    return {
        layer: "ok" if all(oks) else "partial" if any(oks) else "absent"
        for layer, oks in by_layer.items()
    }


def chrome_trace(spans: Sequence[tuple], pid: int, t0_ns: int) -> Dict[str, Any]:
    """Chrome ``trace_event`` document of the window's spans."""
    events = []
    for name, sid, parent, tid, t0, dur, _self, x in spans:
        args: Dict[str, Any] = {"span_id": sid}
        if parent:
            args["parent_id"] = parent
        if x is not None:
            args["extra"] = x
        events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (t0 - t0_ns) / 1e3, "dur": dur / 1e3,
            "pid": pid, "tid": tid, "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
