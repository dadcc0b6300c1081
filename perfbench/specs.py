"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single declaration of
the workloads, the end-to-end metrics with their bounds and the
per-layer metrics.  This module reads it and adds the one thing the file
has no key for: every per-layer metric names the end-to-end metric and
the workload it is expected to move (``MOVES``); the harness self-tests
hold that mapping to the declared names.

Interactions the numbers are read with:

* serve-mix has two closed-loop callers on one serial executor, so a
  stage saved for one request also shortens the other caller's wait:
  ``req_tail_ms`` should fall more than ``req_p50_ms``.
* Serve-layer savings (parse, linger, encode, cache reads) should leave
  mc-years and fleet-frontier unchanged; those two are the bypass
  workloads for any serve-path change.
* Batching simulated years into kernel blocks may trade
  ``site_years_per_s`` for ``peak_rss_mb``; that is why memory is an
  end-to-end metric.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text("utf-8")
)
WORKLOADS: List[str] = [w["name"] for w in SPEC["workloads"]]
RUN_SECONDS: int = SPEC["run_seconds"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric this layer metric should move
    on: str  # ... on this workload


#: per-layer metric -> (end-to-end metric it should move, on this workload)
MOVES: Dict[str, Tuple[str, str]] = {
    "serve.parse_ms": ("req_p50_ms", "serve-mix"),
    "serve.handle_ms": ("req_p50_ms", "serve-mix"),
    "serve.wait_ms": ("req_tail_ms", "serve-mix"),
    "serve.http_ms": ("req_p50_ms", "serve-mix"),
    "serve.encode_ms": ("req_tail_ms", "serve-mix"),
    "serve.batch_size": ("ok_rps", "serve-mix"),
    "serve.coalesced_frac": ("ok_rps", "serve-mix"),
    "runner.build_ms": ("req_p50_ms", "serve-mix"),
    "runner.run_ms": ("site_years_per_s", "mc-years"),
    "runner.jobs_per_req": ("site_years_per_s", "mc-years"),
    "runner.job_overhead_us": ("site_years_per_s", "mc-years"),
    "runner.cache_get_ms": ("req_p50_ms", "serve-mix"),
    "runner.cache_hit_frac": ("req_p50_ms", "serve-mix"),
    "runner.cache_put_ms": ("site_years_per_s", "mc-years"),
    "outages.sample_us_per_year": ("site_years_per_s", "mc-years"),
    "outages.events_per_year": ("site_years_per_s", "mc-years"),
    "sim.year_us": ("site_years_per_s", "mc-years"),
    "sim.outage_calls": ("req_p50_ms", "serve-mix"),
    "sim.outage_us": ("req_p50_ms", "serve-mix"),
    "techniques.compile_calls_per_req": ("req_p50_ms", "fleet-frontier"),
    "vsim.block_calls": ("site_years_per_s", "mc-years"),
    "vsim.years_per_block": ("site_years_per_s", "mc-years"),
    "vsim.block_us_per_year": ("site_years_per_s", "mc-years"),
    "fleet.year_ms": ("req_p50_ms", "fleet-frontier"),
    "fleet.route_ms": ("site_years_per_s", "fleet-frontier"),
    "fleet.route_share": ("site_years_per_s", "fleet-frontier"),
    "policy.cell_ms": ("req_tail_ms", "serve-mix"),
    "core.whatif_ms": ("req_p50_ms", "serve-mix"),
    "process.cpu_s_per_req": ("ok_rps", "serve-mix"),
    "process.unattributed_frac": ("req_p50_ms", "serve-mix"),
    "trace.overhead_frac": ("req_p50_ms", "serve-mix"),
}

END_TO_END: List[EndToEnd] = [EndToEnd(**m) for m in SPEC["end_to_end"]]
LAYERS: List[Layer] = [
    Layer(m["name"], m["unit"], m["better"], *MOVES[m["name"]])
    for m in SPEC["per_layer"]
]
