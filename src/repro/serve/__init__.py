"""repro.serve — a batched, backpressured evaluation service.

The subsystem turns the library's analyses into a long-lived HTTP
service without giving up the reproducibility story: every served
response is bit-identical to the same query run through the CLI, by
construction (shared job builders, seed trees, and result cache) and by
certification (the serve-smoke diff).  See ``docs/SERVE.md``.

Layers, bottom up:

* :mod:`repro.serve.spec` — the declaration vocabulary: typed
  ``Param``s, ``AnalysisSpec``, canonical serialisation.
* :mod:`repro.serve.analyses` — every analysis declared once (params,
  build, render, brownout class, CLI subcommand); request ->
  ``(jobs, finish)``; the unbatched reference evaluator the CLI shares.
* :mod:`repro.serve.protocol` — versioned, validated JSON requests
  against those declarations; request fingerprints.
* :mod:`repro.serve.batcher` — bounded admission queue, duplicate
  coalescing, micro-batched dispatch, deadline propagation.
* :mod:`repro.serve.supervisor` — the supervised worker-process pool:
  fingerprint-sharded routing, crash restarts with backoff, replay.
* :mod:`repro.serve.resilience` — graded brownout tiers and the
  poison-request circuit breaker (see ``docs/RESILIENCE.md``).
* :mod:`repro.serve.app` — the stdlib HTTP front end and lifecycle.
* :mod:`repro.serve.loadgen` — the closed-loop load generator.
* :mod:`repro.serve.drill` — the seeded chaos-certification harness
  behind ``repro drill`` / ``make drill-smoke``.
* :mod:`repro.serve.top` — the ``repro top`` terminal dashboard.
"""

from repro.serve.analyses import build, evaluate_request
from repro.serve.app import EvalServer, ServeConfig, run_server
from repro.serve.batcher import Batcher
from repro.serve.drill import DrillConfig, DrillReport, run_drill
from repro.serve.loadgen import (
    REQUEST_SHAPES,
    LoadgenConfig,
    LoadgenReport,
    parse_mix,
    post_request,
    post_request_full,
    run_loadgen,
)
from repro.serve.top import gather, render_dashboard, run_top
from repro.serve.protocol import (
    ANALYSES,
    PROTOCOL_VERSION,
    Request,
    canonical_json,
    error_envelope,
    ok_envelope,
    parse_request,
)

from repro.serve.resilience import (
    EXPENSIVE_ANALYSES,
    BrownoutController,
    BrownoutPolicy,
    BrownoutSignals,
    PoisonRegistry,
    Tier,
)
from repro.serve.supervisor import Supervisor, WorkItem

__all__ = [
    "ANALYSES",
    "Batcher",
    "BrownoutController",
    "BrownoutPolicy",
    "BrownoutSignals",
    "DrillConfig",
    "DrillReport",
    "EXPENSIVE_ANALYSES",
    "EvalServer",
    "LoadgenConfig",
    "LoadgenReport",
    "PROTOCOL_VERSION",
    "PoisonRegistry",
    "REQUEST_SHAPES",
    "Request",
    "ServeConfig",
    "Supervisor",
    "Tier",
    "WorkItem",
    "build",
    "canonical_json",
    "error_envelope",
    "evaluate_request",
    "ok_envelope",
    "parse_mix",
    "parse_request",
    "post_request",
    "post_request_full",
    "gather",
    "render_dashboard",
    "run_drill",
    "run_loadgen",
    "run_server",
    "run_top",
]
