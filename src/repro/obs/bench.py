"""Continuous-bench ledger: one BENCH schema, its history, a regression gate.

Every benchmark writes its point-in-time artifact through :func:`emit`,
in one shape::

    {"bench": <stream>, "metrics": {<name>: {"value", "unit", "better"}},
     ...detail}

where ``better`` is ``"higher"`` or ``"lower"`` and the detail keys are
whatever context the benchmark wants a reader of the artifact to see.
The record names its own stream and each metric's direction, so this
module needs no table of benchmark shapes:

* :func:`record` ingests every ``BENCH_*.json`` under a root and appends
  one JSONL entry per artifact to ``BENCH_history.jsonl``, skipping an
  artifact whose bytes are unchanged since its stream's newest entry;
* :func:`check` compares the newest entry per stream against a baseline
  (median of the preceding entries) and fails when any metric regresses
  past a tolerance *in its bad direction* — throughput only fails by
  falling, latency only by rising.

The gate is deliberately median-of-history, not previous-run: a single
noisy run neither poisons the baseline nor slips a real regression
through, which is the dependability-benchmarking stance (quantify, don't
assume) the source paper applies to power envelopes.

Everything is stdlib; the ledger is append-only JSONL and the loader
tolerates a torn final line (a crashed writer must not brick the gate).
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ObsError

#: Ledger schema version; entries of any other version are skipped.
LEDGER_VERSION = 2

#: Default ledger filename, at the repo root next to the BENCH artifacts.
HISTORY_FILENAME = "BENCH_history.jsonl"

#: Which way a metric improves.
DIRECTIONS = ("higher", "lower")

#: Fractional tolerance before a bad-direction move counts as a regression.
DEFAULT_TOLERANCE = 0.15

#: How many trailing history entries feed the median baseline.
BASELINE_DEPTH = 8

Metrics = Dict[str, Dict[str, Any]]


def metric(value: float, unit: str, better: str) -> Dict[str, Any]:
    """One entry of a record's ``metrics``."""
    return {"value": value, "unit": unit, "better": better}


def _checked_metrics(bench: Any, metrics: Any) -> Metrics:
    """``metrics`` with every value a finite float; raises on any flaw."""
    if not isinstance(bench, str) or not bench:
        raise ObsError(f"bench must be a non-empty string, got {bench!r}")
    if not isinstance(metrics, Mapping) or not metrics:
        raise ObsError(f"{bench}: metrics must be a non-empty mapping")
    checked: Metrics = {}
    for name, entry in metrics.items():
        if not isinstance(entry, Mapping):
            raise ObsError(f"{bench}.{name}: metric must be a mapping")
        value, unit = entry.get("value"), entry.get("unit")
        better = entry.get("better")
        if better not in DIRECTIONS:
            raise ObsError(f"{bench}.{name}: better must be 'higher' or "
                           f"'lower', got {better!r}")
        numeric = isinstance(value, (int, float)) and type(value) is not bool
        if not (numeric and math.isfinite(value)):
            raise ObsError(f"{bench}.{name}: value must be a finite number, "
                           f"got {value!r}")
        if not isinstance(unit, str):
            raise ObsError(f"{bench}.{name}: unit must be a string")
        checked[str(name)] = metric(float(value), unit, better)
    return checked


def emit(
    path: str,
    bench: str,
    metrics: Mapping[str, Mapping[str, Any]],
    **detail: Any,
) -> None:
    """Write one BENCH artifact as sorted, indented JSON.

    ``metrics`` is ``{name: {"value", "unit", "better"}}``; a direction
    other than ``"higher"``/``"lower"`` or a non-finite value raises
    :class:`ObsError` before anything is written.
    """
    checked = _checked_metrics(bench, metrics)
    payload = {**detail, "bench": bench, "metrics": checked}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def artifact_paths(root: str) -> List[str]:
    """Every ``BENCH_*.json`` under ``root``, sorted by name."""
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


# -- ledger I/O ---------------------------------------------------------------


def load_history(path: str) -> List[Dict[str, Any]]:
    """All well-formed current-version ledger entries, oldest first.

    A torn final line (interrupted append) is skipped silently; torn
    lines elsewhere raise, since they indicate corruption rather than a
    crashed writer.  Entries of another :data:`LEDGER_VERSION` are
    skipped: their metrics do not carry the current schema.
    """
    if not os.path.exists(path):
        return []
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                continue
            raise ObsError(f"{path}:{i + 1}: corrupt ledger line")
        if isinstance(entry, dict) and entry.get("v") == LEDGER_VERSION:
            entries.append(entry)
    return entries


def record(
    root: str = ".",
    history_path: Optional[str] = None,
    now: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Ingest every BENCH_*.json under ``root`` into the ledger.

    Returns the entries appended (possibly empty).  Each entry:
    ``{"v", "bench", "source", "sha256", "recorded_unix", "metrics"}``.
    An artifact whose bytes hash to its stream's newest entry was
    already recorded and is skipped; one that is not a schema record
    raises :class:`ObsError` naming the file.
    """
    history_path = history_path or os.path.join(root, HISTORY_FILENAME)
    stamp = time.time() if now is None else now
    newest = {entry["bench"]: entry for entry in load_history(history_path)}
    appended: List[Dict[str, Any]] = []
    for path in artifact_paths(root):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
            payload = json.loads(raw)
        except (OSError, ValueError) as exc:
            raise ObsError(f"unreadable bench artifact {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ObsError(f"{path}: not a BENCH record")
        try:
            metrics = _checked_metrics(
                payload.get("bench"), payload.get("metrics")
            )
        except ObsError as exc:
            raise ObsError(f"{path}: not a BENCH record: {exc}") from exc
        digest = hashlib.sha256(raw).hexdigest()
        bench = payload["bench"]
        if newest.get(bench, {}).get("sha256") == digest:
            continue
        entry = {
            "v": LEDGER_VERSION,
            "bench": bench,
            "source": os.path.basename(path),
            "sha256": digest,
            "recorded_unix": round(stamp, 3),
            "metrics": metrics,
        }
        newest[bench] = entry
        appended.append(entry)
    if appended:
        with open(history_path, "a", encoding="utf-8") as fh:
            for entry in appended:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return appended


# -- regression gate ----------------------------------------------------------


@dataclass
class MetricVerdict:
    bench: str
    metric: str
    direction: str
    current: float
    baseline: Optional[float]
    delta_frac: Optional[float]
    status: str  # "ok" | "regression" | "no-baseline"


@dataclass
class CheckReport:
    tolerance: float
    verdicts: List[MetricVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "verdicts": [
                {
                    "bench": v.bench,
                    "metric": v.metric,
                    "direction": v.direction,
                    "current": v.current,
                    "baseline": v.baseline,
                    "delta_frac": v.delta_frac,
                    "status": v.status,
                }
                for v in self.verdicts
            ],
        }


def check(
    entries: Sequence[Mapping[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_depth: int = BASELINE_DEPTH,
) -> CheckReport:
    """Gate the newest entry per stream against its history median.

    For each stream present, the newest entry is "current" and the
    baseline per metric is the median of that metric over the preceding
    ``baseline_depth`` entries; the metric's direction is the one the
    current entry records.  A metric regresses when it moves past
    ``tolerance`` (fractional) in its bad direction; good-direction
    moves of any size pass.  A metric with no prior history passes as
    ``no-baseline`` — the first recorded run seeds the trajectory.
    """
    if tolerance < 0:
        raise ObsError("tolerance must be >= 0")
    report = CheckReport(tolerance=tolerance)
    by_bench: Dict[str, List[Mapping[str, Any]]] = {}
    for entry in entries:
        by_bench.setdefault(str(entry["bench"]), []).append(entry)
    for bench in sorted(by_bench):
        history = by_bench[bench]
        current = history[-1]
        prior = history[:-1][-baseline_depth:]
        for metric, latest in sorted(current["metrics"].items()):
            value, direction = float(latest["value"]), latest["better"]
            prior_values = [
                float(e["metrics"][metric]["value"])
                for e in prior
                if metric in e["metrics"]
            ]
            if not prior_values:
                report.verdicts.append(
                    MetricVerdict(
                        bench, metric, direction, value,
                        None, None, "no-baseline",
                    )
                )
                continue
            baseline = median(prior_values)
            if baseline == 0:
                delta = 0.0
            else:
                delta = (value - baseline) / abs(baseline)
            bad = -delta if direction == "higher" else delta
            status = "regression" if bad > tolerance else "ok"
            report.verdicts.append(
                MetricVerdict(
                    bench, metric, direction, value,
                    baseline, round(delta, 6), status,
                )
            )
    return report


def format_report(report: CheckReport) -> str:
    """Human-oriented table for ``repro bench check``."""
    lines = [
        f"bench check (tolerance {report.tolerance:.0%}, "
        f"baseline = median of last {BASELINE_DEPTH})"
    ]
    for v in report.verdicts:
        if v.baseline is None:
            detail = "no baseline yet"
        else:
            arrow = "^" if (v.delta_frac or 0) >= 0 else "v"
            detail = (
                f"baseline {v.baseline:.3f} {arrow}{abs(v.delta_frac or 0):.1%}"
            )
        mark = {"ok": "ok ", "no-baseline": "new", "regression": "REG"}[v.status]
        lines.append(
            f"  [{mark}] {v.bench}.{v.metric} ({v.direction} better): "
            f"{v.current:.3f}  ({detail})"
        )
    lines.append("PASS" if report.ok else "FAIL: regression past tolerance")
    return "\n".join(lines)
