"""``repro drill``: the seeded chaos-certification harness.

The supervised serve tier claims four properties that ordinary tests
cannot certify one at a time, because they only mean anything *under
fault injection*:

1. **Zero incorrect responses.**  Every 2xx the server returns while
   workers are being SIGKILLed, latency is being injected, and cache
   entries are being corrupted on disk is byte-for-byte identical to the
   clean single-process reference (:func:`repro.serve.analyses
   .evaluate_request`).  Crashes may add latency; they may never change
   an answer.
2. **Bounded recovery.**  After the chaos stops, the pool is back to
   full strength within a declared bound, and a stray writer temp file
   planted in the cache is swept by the next GC pass.
3. **Poison quarantine, not crash loop.**  A request that reliably takes
   its worker down is quarantined with a diagnostic 503 after the
   threshold is hit; the pool keeps serving everyone else.
4. **Brownout tiers in declared order.**  Under a sustained flood the
   controller escalates NORMAL → TRIM → RESTRICT → SHED one tier at a
   time, and steps back down the same way once the flood ends.

A fifth pass benchmarks the pool itself: the same request corpus is
replayed against ``workers ∈ {0, 2, 4, ...}`` and the report gates that
the best multi-worker throughput strictly beats the in-process baseline
— the whole point of the pool.  The axis feeds ``BENCH_drill.json``, the
``serve-drill`` ledger stream (see :meth:`DrillReport.emit_bench`), so
``repro bench record/check`` can gate the multi-worker trajectory like
any other benchmark.

Everything is seeded (``DrillConfig.seed``) and the harness runs the
server in-process, so it can reach the supervisor's chaos hooks
(:meth:`~repro.serve.supervisor.Supervisor.kill_worker`,
``inject_latency``, ``inflight_fingerprints``) while talking to the real
HTTP surface like any client would.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.configurations import configuration_names, get_configuration
from repro.core.performability import make_datacenter, plan_context
from repro.errors import ServeError, TechniqueError
# ``emit`` names the drill's progress callback throughout this module.
from repro.obs.bench import emit as emit_artifact, metric
from repro.serve.analyses import evaluate_request
from repro.serve.app import EvalServer, ServeConfig
from repro.serve.loadgen import (
    LoadgenConfig,
    Source,
    flood_source,
    list_source,
    post_request,
    run_loadgen,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    Request,
    canonical_json,
    parse_request,
)
from repro.serve.resilience import BrownoutPolicy, Tier
from repro.techniques.registry import get_technique, technique_names
from repro.workloads.registry import get_workload, workload_names


@dataclass(frozen=True)
class DrillConfig:
    """One chaos-certification run.

    Checked on construction (``ServeError`` otherwise); the chaos and
    poison passes need a pool, so ``workers`` is at least 1.

    Attributes:
        workers: Pool size for the chaos/poison passes.
        seed: Drives the request corpus, the kill schedule, and which
            cache entries get corrupted — two runs with one seed inject
            the same chaos.
        kills: Worker SIGKILLs delivered during the chaos pass.
        corrupt: Cache entries overwritten with garbage mid-run.
        chaos_duration_s: How long the chaos-pass load keeps offering.
        concurrency: Closed-loop client threads per pass.
        poison_threshold: Worker deaths before quarantine in the poison
            pass (kept low so the pass is fast; the chaos pass uses a
            higher one so random kills never quarantine innocents).
        recovery_timeout_s: Bound on pool recovery after the last kill.
        bench_workers: The workers axis; 0 is the in-process baseline.
        bench_requests: Distinct-fingerprint requests per axis point.
        bench_concurrency: Closed-loop threads for the axis bench.
    """

    workers: int = 2
    seed: int = 0
    kills: int = 3
    corrupt: int = 2
    chaos_duration_s: float = 2.5
    concurrency: int = 6
    poison_threshold: int = 2
    recovery_timeout_s: float = 20.0
    bench_workers: Tuple[int, ...] = (0, 2, 4)
    bench_requests: int = 32
    bench_concurrency: int = 8

    def __post_init__(self) -> None:
        positive = ("workers", "chaos_duration_s", "concurrency",
                    "recovery_timeout_s", "bench_requests", "bench_concurrency")
        bad = [name for name in positive if not getattr(self, name) > 0]
        bad += [name for name in ("kills", "corrupt") if getattr(self, name) < 0]
        if not self.bench_workers or min(self.bench_workers) < 0:
            bad.append("bench_workers")
        if bad:
            shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in bad)
            raise ServeError(f"invalid drill config: {shown}")


@dataclass
class DrillReport:
    """Everything one drill observed, pass by pass."""

    ok: bool
    seed: int
    duration_s: float
    failures: List[str]
    reference: Dict[str, Any] = field(default_factory=dict)
    chaos: Dict[str, Any] = field(default_factory=dict)
    poison: Dict[str, Any] = field(default_factory=dict)
    brownout: Dict[str, Any] = field(default_factory=dict)
    bench: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "drill": "serve-chaos",
            "ok": self.ok,
            "seed": self.seed,
            "duration_s": round(self.duration_s, 3),
            "failures": list(self.failures),
            "reference": self.reference,
            "chaos": self.chaos,
            "poison": self.poison,
            "brownout": self.brownout,
            "bench": self.bench,
        }

    def emit_bench(self, path: str) -> bool:
        """Write this run's workers axis as the ``serve-drill`` stream.

        The headline numbers come from the largest worker count (a
        stable choice run to run), and ``workers_speedup`` adds the
        multi-vs-single trajectory.  Writes nothing (returns ``False``)
        when the run measured no axis.
        """
        axis = self.bench.get("workers_axis") or []
        if not axis:
            return False
        headline = axis[-1]
        metrics = {
            "throughput_rps": metric(headline["rps"], "1/s", "higher"),
            "p99_ms": metric(headline["p99_ms"], "ms", "lower"),
        }
        if self.bench.get("speedup") is not None:
            metrics["workers_speedup"] = metric(
                self.bench["speedup"], "x", "higher"
            )
        emit_artifact(
            path,
            "serve-drill",
            metrics,
            seed=self.seed,
            workers_axis=axis,
            chaos_ok=not [f for f in self.failures if f.startswith("chaos")],
            requests_per_point=self.bench.get("requests_per_point"),
        )
        return True

    def summary(self) -> str:
        lines = [f"drill seed={self.seed}: {'PASS' if self.ok else 'FAIL'}"]
        chaos = self.chaos
        if chaos:
            lines.append(
                f"  chaos: {chaos.get('ok_responses', 0)} ok / "
                f"{chaos.get('requests', 0)} requests, "
                f"{chaos.get('mismatches', 0)} mismatched, "
                f"{chaos.get('kills', 0)} kills, "
                f"recovered in {chaos.get('recovery_s', '?')}s"
            )
        poison = self.poison
        if poison:
            lines.append(
                f"  poison: quarantined after {poison.get('deaths', '?')} "
                f"deaths (in-flight {poison.get('inflight_status', '?')}, "
                f"repeat {poison.get('repeat_status', '?')}, "
                f"bystander {poison.get('bystander_status', '?')})"
            )
        brownout = self.brownout
        if brownout:
            lines.append(
                f"  brownout: peak tier {brownout.get('peak_tier_name', '?')}"
                f", {brownout.get('transitions', 0)} transitions, "
                f"returned to NORMAL: {brownout.get('returned_to_normal')}"
            )
        bench = self.bench
        for point in bench.get("workers_axis", []):
            lines.append(
                f"  bench workers={point['workers']}: "
                f"{point['rps']:.1f} rps, p99 {point['p99_ms']:.1f} ms, "
                f"shed {point['sheds']}"
            )
        if bench.get("speedup") is not None:
            lines.append(f"  bench speedup (best multi / single): "
                         f"{bench['speedup']:.2f}x")
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        return "\n".join(lines)


# -- request corpus -----------------------------------------------------------


def _request(analysis: str, params: Dict[str, Any]) -> Request:
    """Build a validated Request the way a wire client would."""
    return parse_request(
        canonical_json(
            {"v": PROTOCOL_VERSION, "analysis": analysis, "params": params}
        ).encode("utf-8")
    )


def _compiles(workload: str, configuration: str, technique: str) -> bool:
    """Whether the technique's plan fits the cell's backup (some cannot —
    e.g. a sleep state over the power budget).  The drill certifies fault
    handling, not request validation, so corpora stick to cells that a
    clean run answers with 200."""
    datacenter = make_datacenter(
        get_workload(workload), get_configuration(configuration)
    )
    try:
        get_technique(technique).compile_plan(plan_context(datacenter))
    except TechniqueError:
        return False
    return True


def _valid_cell(rng: random.Random) -> Tuple[str, str, str]:
    workloads = workload_names()
    configurations = configuration_names()
    techniques = technique_names()
    while True:
        cell = (
            rng.choice(workloads),
            rng.choice(configurations),
            rng.choice(techniques),
        )
        if _compiles(*cell):
            return cell


def _chaos_corpus(rng: random.Random, size: int) -> List[Request]:
    """A seeded mix of real analyses with distinct and repeated cells."""
    corpus: List[Request] = []
    while len(corpus) < size:
        kind = rng.random()
        if kind < 0.4:
            workload, configuration, technique = _valid_cell(rng)
            corpus.append(
                _request(
                    "whatif",
                    {
                        "workload": workload,
                        "configuration": configuration,
                        "technique": technique,
                    },
                )
            )
        elif kind < 0.75:
            workload, configuration, technique = _valid_cell(rng)
            corpus.append(
                _request(
                    "availability",
                    {
                        "workload": workload,
                        "configuration": configuration,
                        "technique": technique,
                        "years": rng.randint(1, 4),
                    },
                )
            )
        else:
            corpus.append(
                _request(
                    "echo",
                    {"payload": {"drill": rng.randint(0, 7)}},
                )
            )
    return corpus


def _bench_corpus(rng: random.Random, size: int) -> List[Request]:
    """Distinct-fingerprint sleep-shaped requests for the workers axis.

    The axis gates the pool's *concurrency*: N workers must chew N shard
    groups at once where the in-process path runs them back to back.  A
    declared per-request sleep makes that win deterministic on any
    host — a 1-core CI runner shows exactly the same scaling as a
    32-core workstation, which CPU-bound cells would not (their speedup
    is capped by host cores, an environment fact, not a code property).
    Distinct payloads keep every fingerprint unique so neither
    coalescing nor caching flatters any point.
    """
    return [
        _request(
            "echo",
            {"payload": {"bench": rng.random()}, "sleep_s": 0.05},
        )
        for _ in range(size)
    ]


def _reference_payloads(requests: Sequence[Request]) -> Dict[str, str]:
    """fingerprint -> canonical JSON of the clean single-process result."""
    reference: Dict[str, str] = {}
    for request in requests:
        if request.fingerprint in reference:
            continue
        reference[request.fingerprint] = canonical_json(
            evaluate_request(request)
        )
    return reference


def _drive(
    base_url: str,
    source: Source,
    concurrency: int,
    reference: Optional[Dict[str, str]] = None,
    duration_s: Optional[float] = None,
) -> Dict[str, Any]:
    """One closed-loop phase through loadgen's loop, as a report record.

    No network retries: a status 0 stays an error, so a retry can never
    loosen a gate such as "every post-recovery request is a 200".
    """
    config = LoadgenConfig(
        base_url, concurrency=concurrency, duration_s=duration_s, net_retries=0
    )
    report = run_loadgen(config, source, reference)
    return {
        "wall_s": round(report.duration_s, 3),
        "rps": round(report.throughput_rps, 3),
        "p50_ms": report.latency_ms.get("p50", 0.0),
        "p99_ms": report.latency_ms.get("p99", 0.0),
        **{
            key: getattr(report, key)
            for key in ("requests", "ok", "sheds", "errors", "status_counts",
                        "mismatches")
        },
    }


def _error_kind(payload: Any) -> Optional[str]:
    """A response body's ``error.type`` (``None`` for anything else)."""
    if not isinstance(payload, dict):
        return None
    return (payload.get("error") or {}).get("type")


def _wait_until(done, timeout_s: float, poll_s: float = 0.02) -> float:
    """Poll ``done()`` until it holds or ``timeout_s`` passes; returns the
    seconds waited."""
    start = time.monotonic()
    while not done() and time.monotonic() - start < timeout_s:
        time.sleep(poll_s)
    return round(time.monotonic() - start, 3)


def _await_full_pool(server: EvalServer, config: DrillConfig) -> float:
    """Wait, up to the declared recovery bound, for every pool worker to
    be alive; returns the seconds waited."""
    return _wait_until(
        lambda: server.supervisor.alive_count() >= config.workers,
        config.recovery_timeout_s,
    )


# -- the passes ---------------------------------------------------------------


def _chaos_pass(
    config: DrillConfig,
    corpus: List[Request],
    reference: Dict[str, str],
    rng: random.Random,
    failures: List[str],
    emit,
) -> Dict[str, Any]:
    cache_dir = tempfile.mkdtemp(prefix="repro-drill-cache-")
    server = EvalServer(
        ServeConfig(
            port=0,
            workers=config.workers,
            cache_dir=cache_dir,
            queue_bound=256,
            batch_wait_s=0.002,
            # Random kills must never quarantine innocents: the chaos
            # pass uses a threshold the kill count cannot reach for any
            # one fingerprint (successes exonerate between kills).
            poison_threshold=config.kills + 2,
            worker_backoff_s=0.05,
            worker_backoff_max_s=0.5,
        )
    ).start()
    torn_tmp = Path(cache_dir) / server.cache.version / "00" / "torn.pkl.tmp"
    kills_delivered = 0
    corrupted_files = 0
    try:
        # Warm the cache so there is something to corrupt.
        warm = _drive(
            server.base_url, list_source(corpus), config.concurrency, reference
        )
        if warm["mismatches"]:
            failures.append(
                f"chaos: {len(warm['mismatches'])} mismatched responses "
                "before any fault was injected"
            )

        def inject() -> None:
            nonlocal kills_delivered, corrupted_files
            interval = config.chaos_duration_s / (config.kills + 1)
            for k in range(config.kills):
                time.sleep(interval)
                # A short latency injection widens the in-flight window
                # so the SIGKILL lands on a worker mid-batch.
                server.supervisor.inject_latency(0.05)
                if server.supervisor.kill_worker(k % config.workers):
                    kills_delivered += 1
                if k == 0:
                    # Mid-run disk chaos: garbage entries + a torn
                    # writer temp file, exactly what a crashed writer
                    # leaves behind.
                    entries = sorted(Path(cache_dir).rglob("*.pkl"))
                    for path in rng.sample(
                        entries, min(config.corrupt, len(entries))
                    ):
                        path.write_bytes(b"drill: not a pickle")
                        corrupted_files += 1
                    torn_tmp.parent.mkdir(parents=True, exist_ok=True)
                    torn_tmp.write_bytes(b"drill: torn writer temp")

        chaos_thread = threading.Thread(target=inject, daemon=True)
        chaos_thread.start()
        load = _drive(
            server.base_url,
            list_source(corpus, cycle=True),
            config.concurrency,
            reference,
            duration_s=config.chaos_duration_s,
        )
        chaos_thread.join(timeout=config.chaos_duration_s + 5.0)
        server.supervisor.inject_latency(0.0)

        if load["mismatches"]:
            failures.append(
                f"chaos: {len(load['mismatches'])} 2xx responses differed "
                f"from the clean reference (first: {load['mismatches'][0]})"
            )
        if kills_delivered == 0:
            failures.append("chaos: no SIGKILL was delivered")
        # Bounded recovery: full pool strength within the declared bound.
        recovery_s = _await_full_pool(server, config)
        if server.supervisor.alive_count() < config.workers:
            failures.append(
                f"chaos: pool did not recover to {config.workers} workers "
                f"within {config.recovery_timeout_s}s"
            )
        # Kills can legitimately push the brownout tier up (half the
        # pool dead = TRIM or worse); let the controller step back down
        # before asserting that every post-recovery request is a 200.
        _wait_until(lambda: server.brownout.tier <= Tier.TRIM, 10.0, 0.05)
        # Post-chaos correctness: replay the whole corpus once more; the
        # corrupted entries must be quarantined and recomputed, never
        # served.
        after = _drive(
            server.base_url, list_source(corpus), config.concurrency, reference
        )
        if after["mismatches"]:
            failures.append(
                f"chaos: {len(after['mismatches'])} mismatched responses "
                "after recovery"
            )
        if after["ok"] != after["requests"]:
            failures.append(
                f"chaos: {after['requests'] - after['ok']} of "
                f"{after['requests']} post-recovery requests were not 200 "
                f"(statuses {after['status_counts']})"
            )
        # Crash-mid-write hygiene: the planted torn temp file survives
        # until a GC pass, then leaves with the orphan sweep.
        time.sleep(0.05)
        prune = server.cache.prune(orphan_grace_s=0.01)
        if torn_tmp.exists():
            failures.append(
                "chaos: orphaned writer temp file survived a GC pass"
            )
        corrupt_quarantined = len(
            list(Path(cache_dir).rglob("*.pkl.corrupt"))
        )
        deaths = server.supervisor.deaths_total
        if deaths < kills_delivered:
            failures.append(
                f"chaos: {kills_delivered} kills but only {deaths} "
                "deaths observed by the supervisor"
            )
        phases = {"warm": warm, "load": load, "after": after}
        result = {
            "kills": kills_delivered,
            "deaths": deaths,
            "corrupted_files": corrupted_files,
            "corrupt_quarantined": corrupt_quarantined,
            "recovery_s": recovery_s,
            "requests": sum(p["requests"] for p in phases.values()),
            "ok_responses": sum(p["ok"] for p in phases.values()),
            "mismatches": sum(len(p["mismatches"]) for p in phases.values()),
            "status_counts": load["status_counts"],
            "pruned_files": prune.removed_files,
            "phases": phases,
        }
        emit(
            f"[drill] chaos: {result['ok_responses']}/{result['requests']} ok, "
            f"{result['mismatches']} mismatched, {kills_delivered} kills, "
            f"recovered in {recovery_s}s"
        )
        return result
    finally:
        server.close(drain=True, timeout=10.0)
        shutil.rmtree(cache_dir, ignore_errors=True)


def _poison_pass(
    config: DrillConfig, failures: List[str], emit
) -> Dict[str, Any]:
    server = EvalServer(
        ServeConfig(
            port=0,
            workers=config.workers,
            queue_bound=64,
            batch_wait_s=0.002,
            poison_threshold=config.poison_threshold,
            worker_backoff_s=0.05,
            worker_backoff_max_s=0.5,
        )
    ).start()
    try:
        # A uniquely fingerprinted slow request: the declared sleep keeps
        # it in flight long enough to SIGKILL its worker mid-evaluation,
        # deterministically — the drill's stand-in for a request that
        # reliably crashes whatever evaluates it.
        poison = _request(
            "echo", {"payload": {"poison": config.seed}, "sleep_s": 0.6}
        )
        shard = server.supervisor.shard_of(poison.fingerprint)
        result: Dict[str, Any] = {}

        def client() -> None:
            status, payload = post_request(
                server.base_url, poison.wire, timeout_s=30.0
            )
            result["inflight_status"] = status
            result["inflight_kind"] = _error_kind(payload)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        kills = 0
        deadline = time.monotonic() + 30.0
        while kills < config.poison_threshold:
            if time.monotonic() > deadline:
                failures.append(
                    "poison: request never observed in flight on its shard"
                )
                break
            if poison.fingerprint in server.supervisor.inflight_fingerprints(
                shard
            ):
                # Give the worker a moment to actually start the batch.
                time.sleep(0.1)
                before = server.supervisor.deaths_total
                if server.supervisor.kill_worker(shard):
                    kills += 1
                    # Wait for the death to be observed before polling
                    # again, so a dying-but-unreaped worker is never
                    # killed twice for one death.
                    _wait_until(
                        lambda: server.supervisor.deaths_total != before,
                        deadline - time.monotonic(),
                        0.005,
                    )
                    continue
            time.sleep(0.005)
        thread.join(timeout=30.0)

        if result.get("inflight_status") != 503:
            failures.append(
                "poison: in-flight quarantine returned "
                f"{result.get('inflight_status')} (expected 503)"
            )
        if result.get("inflight_kind") != "poison":
            failures.append(
                f"poison: error kind {result.get('inflight_kind')!r} "
                "(expected 'poison')"
            )
        # Admission-time refusal on the next identical request.
        repeat_status, repeat_payload = post_request(
            server.base_url, poison.wire, timeout_s=10.0
        )
        repeat_kind = _error_kind(repeat_payload)
        if repeat_status != 503 or repeat_kind != "poison":
            failures.append(
                f"poison: repeat request got {repeat_status}/{repeat_kind} "
                "(expected 503/poison)"
            )
        # No crash loop: the pool recovered and everyone else is served.
        _await_full_pool(server, config)
        if server.supervisor.alive_count() < config.workers:
            failures.append("poison: pool did not recover after quarantine")
        bystander = _request("echo", {"payload": {"bystander": config.seed}})
        bystander_status, _ = post_request(
            server.base_url, bystander.wire, timeout_s=10.0
        )
        if bystander_status != 200:
            failures.append(
                f"poison: bystander request got {bystander_status} "
                "(expected 200)"
            )
        deaths = server.supervisor.deaths_total
        if deaths != kills:
            failures.append(
                f"poison: {deaths} deaths for {kills} kills — "
                "the quarantined request kept crash-looping the pool"
            )
        result.update(
            {
                "fingerprint": poison.fingerprint,
                "shard": shard,
                "kills": kills,
                "deaths": deaths,
                "repeat_status": repeat_status,
                "repeat_kind": repeat_kind,
                "bystander_status": bystander_status,
                "registry": server.poison.stats(),
            }
        )
        emit(
            f"[drill] poison: quarantined after {deaths} deaths "
            f"(in-flight {result.get('inflight_status')}, repeat "
            f"{repeat_status}, bystander {bystander_status})"
        )
        return result
    finally:
        server.close(drain=True, timeout=10.0)


def _brownout_pass(
    config: DrillConfig, failures: List[str], emit
) -> Dict[str, Any]:
    # Telemetry is off so the only pressure signal is queue depth: the
    # rolling p99 window would otherwise stay hot long after the flood
    # and hold the controller up a tier.
    server = EvalServer(
        ServeConfig(
            port=0,
            workers=config.workers,
            queue_bound=6,
            max_batch=1,
            batch_wait_s=0.001,
            telemetry=False,
            brownout_policy=BrownoutPolicy(
                queue_enter=(0.2, 0.4, 0.6),
                p99_enter_ms=(1e12, 1e12, 1e12),
                workers_enter=(0.0, 0.0, 0.0),
                exit_fraction=0.5,
                min_dwell_s=0.1,
            ),
            brownout_interval_s=0.02,
        )
    ).start()
    try:
        flood = _drive(
            server.base_url,
            flood_source(sleep_s=0.15),
            max(8, config.concurrency),
            duration_s=2.0,
        )
        # Flood over: the queue drains and the controller must walk all
        # the way back down.
        _wait_until(lambda: server.brownout.tier == Tier.NORMAL, 10.0)
        returned = server.brownout.tier == Tier.NORMAL

        transitions = list(server.brownout.transitions)
        steps = [(r["from"], r["to"]) for r in transitions]
        peak = max((r["to"] for r in transitions), default=0)
        skipped = [s for s in steps if abs(s[1] - s[0]) != 1]
        first_seen: Dict[int, int] = {}
        for i, (_frm, to) in enumerate(steps):
            first_seen.setdefault(to, i)
        ordered_up = all(
            first_seen.get(t, -1) >= 0
            and first_seen.get(t + 1, len(steps)) > first_seen.get(t, -1)
            for t in (1, 2)
        )
        if peak < int(Tier.SHED):
            failures.append(
                f"brownout: flood peaked at tier {Tier(peak).name}, "
                "never reached SHED"
            )
        if skipped:
            failures.append(
                f"brownout: controller skipped tiers: {skipped}"
            )
        if not ordered_up:
            failures.append(
                "brownout: tiers were not first entered in declared order "
                f"(transitions: {steps})"
            )
        if not returned:
            failures.append(
                f"brownout: stuck at tier {server.brownout.tier.name} "
                "after the flood ended"
            )
        result = {
            "flooded": flood["requests"],
            "peak_tier": peak,
            "peak_tier_name": Tier(peak).name,
            "transitions": len(transitions),
            "steps": steps,
            "returned_to_normal": returned,
            "snapshot": server.brownout.snapshot(),
        }
        emit(
            f"[drill] brownout: peak {Tier(peak).name}, "
            f"{len(transitions)} transitions, "
            f"returned to NORMAL: {returned}"
        )
        return result
    finally:
        server.close(drain=True, timeout=10.0)


def _bench_pass(
    config: DrillConfig,
    corpus: List[Request],
    failures: List[str],
    emit,
) -> Dict[str, Any]:
    axis: List[Dict[str, Any]] = []
    for workers in config.bench_workers:
        server = EvalServer(
            ServeConfig(
                port=0,
                workers=workers,
                cache_dir=None,  # no cache: measure computation, not disk
                queue_bound=max(64, 4 * config.bench_concurrency),
                batch_wait_s=0.002,
                telemetry=False,
                brownout=False,
            )
        ).start()
        try:
            point = _drive(
                server.base_url, list_source(corpus), config.bench_concurrency
            )
        finally:
            server.close(drain=True, timeout=10.0)
        entry = {
            "workers": workers,
            **{
                key: point[key]
                for key in ("requests", "ok", "sheds", "errors", "rps",
                            "p50_ms", "p99_ms")
            },
            "shed_rate": (
                round(point["sheds"] / point["requests"], 4)
                if point["requests"]
                else 0.0
            ),
        }
        axis.append(entry)
        emit(
            f"[drill] bench workers={workers}: {entry['rps']:.1f} rps, "
            f"p99 {entry['p99_ms']:.1f} ms"
        )
        if point["ok"] != point["requests"]:
            failures.append(
                f"bench: workers={workers} completed {point['ok']} of "
                f"{point['requests']} requests "
                f"(statuses {point['status_counts']})"
            )
    single = next((p for p in axis if p["workers"] == 0), None)
    multi = [p for p in axis if p["workers"] > 0]
    speedup = None
    if single is not None and multi and single["rps"] > 0:
        best = max(multi, key=lambda p: p["rps"])
        speedup = round(best["rps"] / single["rps"], 3)
        if best["rps"] <= single["rps"]:
            failures.append(
                f"bench: best multi-worker throughput {best['rps']:.1f} rps "
                f"(workers={best['workers']}) did not beat the "
                f"single-process baseline {single['rps']:.1f} rps"
            )
    return {
        "workers_axis": axis,
        "speedup": speedup,
        "requests_per_point": len(corpus),
        "concurrency": config.bench_concurrency,
    }


# -- entry point --------------------------------------------------------------


def run_drill(config: DrillConfig, emit=None) -> DrillReport:
    """Run every pass; the report's ``ok`` is the certification verdict."""
    emit = emit or (lambda message: None)
    started = time.monotonic()
    failures: List[str] = []
    rng = random.Random(config.seed)

    corpus = _chaos_corpus(rng, 24)
    bench_corpus = _bench_corpus(
        random.Random(config.seed + 1), config.bench_requests
    )
    emit(
        f"[drill] reference: evaluating "
        f"{len({r.fingerprint for r in corpus})} unique requests clean"
    )
    reference = _reference_payloads(corpus)
    reference_info = {
        "unique_requests": len(reference),
        "corpus_size": len(corpus),
    }

    chaos = _chaos_pass(config, corpus, reference, rng, failures, emit)
    poison = _poison_pass(config, failures, emit)
    brownout = _brownout_pass(config, failures, emit)
    bench = _bench_pass(config, bench_corpus, failures, emit)

    report = DrillReport(
        ok=not failures,
        seed=config.seed,
        duration_s=time.monotonic() - started,
        failures=failures,
        reference=reference_info,
        chaos=chaos,
        poison=poison,
        brownout=brownout,
        bench=bench,
    )
    emit(f"[drill] {'PASS' if report.ok else 'FAIL'} "
         f"in {report.duration_s:.1f}s")
    return report
