"""Steadiness report: is each end-to-end metric steady within its bound?

``python3 perfbench/run.py --steadiness --runs 10 [--sets 2]`` runs every
workload ``--runs`` times per set, each with its own seed, and prints
each metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread — the quartile distance as a share of the median — against the
metric's bound.  With two sets it also prints how far the second set's
median moved against the first, in the metric's worse direction.  A
metric is flagged when its spread exceeds its bound or when the second
median is worse than the first by more than the bound; a run that fails
the correctness gate is flagged too (its timings still count).  The
report is also written to ``.perfbench_out/steadiness.json``; the exit
code is 1 if anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import specs

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: float) -> Tuple[bool, Dict[str, float]]:
    """``(correct, metrics)`` of one run; raises if it printed no result."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode} without a result:\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        ) from None
    if not result["correct"]:
        print("\n".join(line for line in lines if line.startswith("gate:")))
    return result["correct"], {n: m["value"] for n, m in result["metrics"].items()}


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(workloads: List[str], runs: int, sets: int, first_seed: int,
         seconds: float) -> int:
    metrics = specs.END_TO_END
    values = {
        (s, w): {m.name: [] for m in metrics} for s in range(sets) for w in workloads
    }
    incorrect: Dict[str, List[int]] = {w: [] for w in workloads}
    for s in range(sets):
        for i in range(runs):
            for w in workloads:
                seed = first_seed + s * runs + i
                correct, result = one_run(w, seed, seconds)
                if not correct:
                    incorrect[w].append(seed)
                for m in metrics:
                    values[(s, w)][m.name].append(result[m.name])
                print(f"set {s} run {i} {w} seed {seed}"
                      f"{'' if correct else ' INCORRECT'}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in result.items()),
                      flush=True)

    report: List[Dict[str, object]] = []
    flagged = False
    print(f"\n{'workload':15s} {'metric':17s} {'set':>3s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s} {'/bound':>6s} "
          f"{'drift':>7s}  flag")
    for w in workloads:
        for m in metrics:
            first = None
            for s in range(sets):
                row = summarize(values[(s, w)][m.name])
                drift = (
                    worse_by(first["median"], row["median"], m.better)
                    if first is not None else None
                )
                flags = []
                if row["spread"] > m.bound:
                    flags.append("SPREAD")
                if drift is not None and drift > m.bound:
                    flags.append("DRIFT")
                flagged = flagged or bool(flags)
                first = first or row
                report.append({"workload": w, "metric": m.name, "set": s,
                               "bound": m.bound, "drift": drift, "flags": flags,
                               "values": values[(s, w)][m.name], **row})
                print(f"{w:15s} {m.name:17s} {s:3d} {row['median']:10.4g} "
                      f"{row['q1']:10.4g} {row['q3']:10.4g} {row['spread']:7.3f} "
                      f"{m.bound:6.2f} {row['spread'] / m.bound:6.2f} "
                      f"{'' if drift is None else f'{drift:+.3f}':>7s}  "
                      f"{' '.join(flags)}")
    for w, seeds in incorrect.items():
        if seeds:
            flagged = True
            print(f"{w}: runs failed the correctness gate at seeds {seeds}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / "steadiness.json", "w", encoding="utf-8") as fh:
        json.dump({"rows": report, "incorrect_seeds": incorrect}, fh, indent=1)
    print("\nsteady" if not flagged else "\nFLAGGED: see rows above")
    return 1 if flagged else 0
