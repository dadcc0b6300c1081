"""Graded degradation for the serve tier: brownout + poison quarantine.

The paper's core stance is that underprovisioned backup is safe only
because failures are absorbed by a *layered* degradation plan — shave a
little, then a lot, then shed — instead of failing open.  This module
gives the evaluation service the same discipline:

* **Brownout tiers.**  A small controller watches queue pressure,
  rolling p99 latency and worker availability, and degrades service in
  declared, ordered tiers: ``NORMAL`` → ``TRIM`` (the batcher stops
  lingering for riders) → ``RESTRICT`` (expensive analyses are refused
  with 429 + ``Retry-After``) → ``SHED`` (every evaluation is refused
  with 503; ``/healthz``, ``/livez`` and ``/metrics`` stay up).  Tier
  moves are one step at a time in both directions, with hysteresis
  (exit thresholds sit below entry thresholds) and a minimum dwell
  before stepping down, so the service cannot flap or skip tiers — the
  drill certifies transitions happen *in order*.
* **Poison quarantine.**  A per-fingerprint circuit breaker.  When a
  worker process dies, every request it had in flight gets a death mark;
  a fingerprint whose marks reach the threshold is quarantined and all
  further identical requests are refused with a diagnostic 503 instead
  of crash-looping the pool.  Marks are cleared by a successful
  evaluation, so requests that merely shared a batch with a poison one
  recover on replay.

Both objects are plain, lock-guarded, and clock-injectable — the drill
and the unit tests drive them deterministically.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.analyses import ANALYSIS_SPECS

#: Analyses refused first under brownout — each spec declaring itself
#: ``expensive``: their job fan-out is one to two orders of magnitude
#: above a point query (a sweep is a whole grid), so refusing them frees
#: the most capacity per refusal.
EXPENSIVE_ANALYSES = frozenset(
    name for name, spec in ANALYSIS_SPECS.items() if spec.expensive
)


class Tier(enum.IntEnum):
    """Brownout tiers, in declared escalation order."""

    NORMAL = 0
    TRIM = 1      # stop lingering for micro-batch riders
    RESTRICT = 2  # refuse expensive analyses (429 + Retry-After)
    SHED = 3      # refuse all evaluations (503); GET surface stays up


@dataclass(frozen=True)
class BrownoutSignals:
    """One sampling of the three pressure inputs.

    Attributes:
        queue_frac: Admission-queue depth over its bound, in ``[0, 1+]``.
        p99_ms: Rolling p99 request latency (None with telemetry off or
            no traffic — the signal simply does not vote).
        workers_frac: Alive workers over configured workers; 1.0 for the
            in-process (no pool) server.
    """

    queue_frac: float = 0.0
    p99_ms: Optional[float] = None
    workers_frac: float = 1.0

    def describe(self) -> str:
        p99 = f"{self.p99_ms:.0f}" if self.p99_ms is not None else "-"
        return (
            f"queue={self.queue_frac:.2f} p99_ms={p99} "
            f"workers={self.workers_frac:.2f}"
        )


@dataclass(frozen=True)
class BrownoutPolicy:
    """Entry thresholds per tier plus the hysteresis/dwell shape.

    Index ``i`` of each tuple is the threshold for entering tier
    ``i + 1``.  A tier is entered when *any* signal crosses its
    threshold; it is exited only when *every* signal is back under the
    scaled-down exit threshold (``enter * exit_fraction``) and the tier
    has been held for ``min_dwell_s`` — classic hysteresis so the
    controller does not flap around a boundary.

    Attributes:
        queue_enter: Queue fractions entering TRIM / RESTRICT / SHED.
        p99_enter_ms: Rolling p99 thresholds for the same tiers.  The
            defaults are deliberately loose — queue depth is the primary
            driver; p99 is the backstop for a slow-poisoned pool.
        workers_enter: Alive-worker fractions *at or below* which the
            tier engages (a half-dead pool should trim, a dead one shed).
        exit_fraction: Exit threshold = entry threshold × this.
        min_dwell_s: Minimum time in a tier before stepping down.
    """

    queue_enter: Tuple[float, float, float] = (0.5, 0.8, 0.95)
    p99_enter_ms: Tuple[float, float, float] = (5_000.0, 15_000.0, 60_000.0)
    workers_enter: Tuple[float, float, float] = (0.5, 0.25, 0.0)
    exit_fraction: float = 0.7
    min_dwell_s: float = 1.0

    def __post_init__(self) -> None:
        for name in ("queue_enter", "p99_enter_ms", "workers_enter"):
            values = getattr(self, name)
            if len(values) != 3:
                raise ServeError(f"{name} needs one threshold per tier (3)")
        if not 0.0 < self.exit_fraction <= 1.0:
            raise ServeError("exit_fraction must be in (0, 1]")
        if self.min_dwell_s < 0:
            raise ServeError("min_dwell_s must be >= 0")

    def level(self, signals: BrownoutSignals, exiting: bool = False) -> Tier:
        """The tier these signals call for.

        With ``exiting=True`` the queue/p99 thresholds are scaled by
        ``exit_fraction`` — the level the controller may *descend* to.
        """
        scale = self.exit_fraction if exiting else 1.0
        level = 0
        for i in range(3):
            hot = (
                signals.queue_frac >= self.queue_enter[i] * scale
                or (
                    signals.p99_ms is not None
                    and signals.p99_ms >= self.p99_enter_ms[i] * scale
                )
                or signals.workers_frac <= self.workers_enter[i]
            )
            if hot:
                level = i + 1
        return Tier(level)


class BrownoutController:
    """Steps the service through brownout tiers, one tier at a time.

    Args:
        policy: Thresholds and hysteresis shape.
        signal_fn: Called on every :meth:`step` for a fresh
            :class:`BrownoutSignals` sample.
        metrics: Optional registry; transitions maintain the
            ``serve.brownout.tier`` gauge and ``serve.brownout.*``
            counters (the obs event stream for brownout).
        clock: Monotonic clock, injectable for tests.
        history_limit: Transition records kept for ``/healthz`` and the
            drill's in-order certification.
    """

    def __init__(
        self,
        policy: Optional[BrownoutPolicy] = None,
        signal_fn: Optional[Callable[[], BrownoutSignals]] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        history_limit: int = 256,
    ) -> None:
        self.policy = policy or BrownoutPolicy()
        self._signal_fn = signal_fn or BrownoutSignals
        self._metrics = metrics
        self._clock = clock
        self._history_limit = max(1, history_limit)
        self._lock = threading.Lock()
        self._tier = Tier.NORMAL
        self._since = clock()
        self._last_signals = BrownoutSignals()
        self.transitions: List[Dict[str, Any]] = []
        self.transitions_total = 0
        if metrics is not None:
            metrics.gauge("serve.brownout.tier").set(0)

    @property
    def tier(self) -> Tier:
        with self._lock:
            return self._tier

    def step(self) -> Tier:
        """Sample the signals and move at most one tier toward them."""
        signals = self._signal_fn()
        now = self._clock()
        with self._lock:
            self._last_signals = signals
            enter_level = self.policy.level(signals)
            exit_level = self.policy.level(signals, exiting=True)
            if enter_level > self._tier:
                self._move(Tier(self._tier + 1), signals, now)
            elif (
                exit_level < self._tier
                and now - self._since >= self.policy.min_dwell_s
            ):
                self._move(Tier(self._tier - 1), signals, now)
            return self._tier

    def _move(self, to: Tier, signals: BrownoutSignals, now: float) -> None:
        """One transition; caller holds the lock."""
        frm = self._tier
        self._tier = to
        self._since = now
        self.transitions_total += 1
        record = {
            "at_unix": round(time.time(), 3),
            "from": int(frm),
            "to": int(to),
            "from_name": frm.name,
            "to_name": to.name,
            "signals": signals.describe(),
        }
        self.transitions.append(record)
        del self.transitions[: -self._history_limit]
        if self._metrics is not None:
            self._metrics.gauge("serve.brownout.tier").set(int(to))
            self._metrics.counter("serve.brownout.transitions").inc()
            self._metrics.counter(
                f"serve.brownout.transitions[{frm.name}->{to.name}]"
            ).inc()

    # -- admission decisions ---------------------------------------------------

    def refusal(self, analysis: str) -> Optional[Tuple[int, str]]:
        """``(status, reason)`` if ``analysis`` must be refused right now.

        ``None`` means admit.  SHED refuses everything (503); RESTRICT
        refuses only :data:`EXPENSIVE_ANALYSES` (429).  The caller adds
        ``Retry-After``.
        """
        tier = self.tier
        if tier >= Tier.SHED:
            return 503, (
                f"brownout tier {tier.name}: all evaluations shed; "
                "retry shortly"
            )
        if tier >= Tier.RESTRICT and analysis in EXPENSIVE_ANALYSES:
            return 429, (
                f"brownout tier {tier.name}: expensive analysis "
                f"{analysis!r} refused; retry shortly"
            )
        return None

    def linger_s(self, normal_linger_s: float) -> float:
        """The batcher's pool-mode micro-batch linger under the current
        tier (in-process dispatch never lingers).

        TRIM and above dispatch eagerly — under pressure, waiting for
        riders only adds latency to a queue that is already deep.
        """
        return 0.0 if self.tier >= Tier.TRIM else normal_linger_s

    def snapshot(self) -> Dict[str, Any]:
        """The ``/healthz`` / ``repro top`` view of the controller."""
        with self._lock:
            return {
                "tier": int(self._tier),
                "name": self._tier.name,
                "since_s": round(self._clock() - self._since, 3),
                "transitions": self.transitions_total,
                "signals": self._last_signals.describe(),
                "recent": [dict(r) for r in self.transitions[-8:]],
            }


@dataclass
class PoisonInfo:
    """Book-keeping for one fingerprint's death marks."""

    fingerprint: str
    analysis: Optional[str] = None
    deaths: int = 0
    workers: List[int] = field(default_factory=list)
    first_death_unix: float = 0.0
    quarantined_unix: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "analysis": self.analysis,
            "deaths": self.deaths,
            "workers": list(self.workers),
            "first_death_unix": round(self.first_death_unix, 3),
            "quarantined_unix": (
                round(self.quarantined_unix, 3)
                if self.quarantined_unix is not None
                else None
            ),
        }


class PoisonRegistry:
    """The per-fingerprint circuit breaker behind poison quarantine.

    A request that repeatedly takes a worker down with it must not be
    allowed to crash-loop the pool: after ``threshold`` death marks the
    fingerprint is quarantined and the server refuses it outright (503
    with the diagnostic body) until the process restarts.  Successful
    evaluation clears a fingerprint's marks — innocent requests that
    died alongside a poison batch-mate are exonerated on replay.

    Counters (when ``metrics`` is given): ``serve.poison.deaths``,
    ``serve.poison.quarantined``, ``serve.poison.rejected``.
    """

    def __init__(
        self,
        threshold: int = 3,
        metrics: Optional[MetricsRegistry] = None,
        capacity: int = 1024,
    ) -> None:
        if threshold < 1:
            raise ServeError("poison threshold must be >= 1")
        self.threshold = threshold
        self._metrics = metrics
        self._capacity = max(1, capacity)
        self._lock = threading.Lock()
        self._suspects: Dict[str, PoisonInfo] = {}
        self._quarantined: Dict[str, PoisonInfo] = {}
        self.rejected = 0

    def record_death(
        self,
        fingerprint: str,
        analysis: Optional[str] = None,
        worker: Optional[int] = None,
    ) -> int:
        """Mark one worker death against ``fingerprint``; returns marks."""
        with self._lock:
            info = self._suspects.get(fingerprint)
            if info is None:
                # Bound the suspect table: drop the oldest mark first.
                if len(self._suspects) >= self._capacity:
                    self._suspects.pop(next(iter(self._suspects)))
                info = PoisonInfo(
                    fingerprint=fingerprint,
                    analysis=analysis,
                    first_death_unix=time.time(),
                )
                self._suspects[fingerprint] = info
            info.deaths += 1
            if analysis is not None:
                info.analysis = analysis
            if worker is not None:
                info.workers.append(worker)
            if self._metrics is not None:
                self._metrics.counter("serve.poison.deaths").inc()
            if (
                info.deaths >= self.threshold
                and fingerprint not in self._quarantined
            ):
                info.quarantined_unix = time.time()
                self._quarantined[fingerprint] = info
                self._suspects.pop(fingerprint, None)
                if self._metrics is not None:
                    self._metrics.counter("serve.poison.quarantined").inc()
            return info.deaths

    def record_success(self, fingerprint: str) -> None:
        """A completed evaluation exonerates its fingerprint."""
        with self._lock:
            self._suspects.pop(fingerprint, None)

    def is_quarantined(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._quarantined

    def record_rejection(self, fingerprint: str) -> Optional[PoisonInfo]:
        """Count one admission-time refusal; returns the diagnostic info."""
        with self._lock:
            info = self._quarantined.get(fingerprint)
            if info is None:
                return None
            self.rejected += 1
        if self._metrics is not None:
            self._metrics.counter("serve.poison.rejected").inc()
        return info

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "threshold": self.threshold,
                "suspects": len(self._suspects),
                "quarantined": len(self._quarantined),
                "rejected": self.rejected,
                "entries": [
                    info.to_json()
                    for info in self._quarantined.values()
                ],
            }
